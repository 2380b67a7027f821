"""Stage worker: a fresh interpreter that imports the CLI once, then runs
each requested CLI stage in a child forked from that state.

Usage: python3 stage.py

A fresh interpreter's start is what every CLI invocation pays; it is
measured once per worker.  Each child starts from the state a fresh
interpreter has just after ``import bpmndiverge.cli`` and runs ``cli.main``
once, so a stage sample costs the stage's own time, not another
interpreter start, and a run can sample every stage many times.

Protocol, one JSON object per line.  The worker first writes
``{"ready": T}``, the monotonic time at which ``bpmndiverge.cli`` was
imported.  Then for each request ``{"argv": [...], "log": PATH, "trace":
STAGE_RUN_ID or null}`` read from stdin it writes ``{"code", "main_s",
"maxrss_kib", "trace"}``: the exit code and wall time of ``cli.main``, the
child's peak RSS and, when traced, the recorded spans.  The CLI's own
output goes to the file ``log``.  A child that runs past
``STAGE_TIMEOUT_S`` is killed and reported with ``main_s`` null.
"""

import sys
import time

from bpmndiverge import cli

READY = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

STAGE_TIMEOUT_S = 170


def child(request: dict, reply_fd: int) -> None:
    """Run one stage and write its result to ``reply_fd``; never returns."""
    code, main_s, trace = 70, None, None
    try:
        signal.alarm(STAGE_TIMEOUT_S)
        log = os.open(request["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(log, 1)
        os.dup2(log, 2)
        tracer = None
        entry = cli.main
        if request["trace"] is not None:
            from tracer import Tracer, install

            tracer = Tracer(request["trace"])
            install(tracer)
            entry = tracer.span("cli.main", cli.main)
        # Touch every object the import left, so that the copy-on-write page
        # faults a forked child pays fall before the clock starts.
        objects = gc.get_objects()
        referents = gc.get_referents(*objects)
        del objects, referents
        start = time.perf_counter()
        try:
            code = entry(request["argv"])
        except Exception:  # a traceback is a failed stage run, not a crashed benchmark
            traceback.print_exc()
            code = 70
        main_s = time.perf_counter() - start
        trace = tracer.export() if tracer else None
    except BaseException:
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        with os.fdopen(reply_fd, "w", encoding="utf-8") as reply:
            json.dump({"code": code, "main_s": main_s, "trace": trace}, reply)
        os._exit(0)


def main() -> int:
    print(json.dumps({"ready": READY}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            child(request, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd, encoding="utf-8") as reply:
            text = reply.read()
        _pid, status, usage = os.wait4(pid, 0)
        if text and os.waitstatus_to_exitcode(status) == 0:
            result = json.loads(text)
        else:
            result = {"code": 128 + (os.WTERMSIG(status) if os.WIFSIGNALED(status) else 0), "main_s": None, "trace": None}
        result["maxrss_kib"] = usage.ru_maxrss
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
