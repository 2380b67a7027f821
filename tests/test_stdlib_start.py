"""The CLI starts on the standard library alone.

Importing ``bpmndiverge.cli`` loads no HTTP client, no XML SAX package, no TLS,
and neither ``dataclasses`` nor ``inspect``, which would add about 8 ms to
every start (they load ``ast``, ``dis`` and ``tokenize``).  Nor does it load
``argparse``, ``gettext`` or ``locale``: building argparse's parsers cost
about 2.5 ms in every stage.  Nor ``tempfile``, with the ``shutil``,
``random``, ``bz2`` and ``lzma`` it loads: artifacts are written through a
temp file that ``os.open`` creates.  A whole city1 pipeline run and
``validate`` in that same interpreter load no further module.  The child runs
with ``-S``, since start-up hooks in site-packages may import ``tempfile``
and ``random`` before the CLI does.
"""

import json
import os
import subprocess
import sys

FORBIDDEN = (
    "requests", "urllib.request", "http.client", "xml.sax", "ssl", "dataclasses", "inspect",
    "argparse", "gettext", "locale", "tempfile", "shutil", "random",
)

PIPELINE = """
import json, sys
before = set(sys.modules)
from bpmndiverge import cli
imported = set(sys.modules)
out = sys.argv[1]
stages = [["simulate"], ["entropy"], ["diagnose"], ["report"], ["repair"],
          ["verify", "--before", out + "/kpis", "--after", out + "/kpis"], ["validate"]]
codes = [cli.main(["--config", "fixtures/city1/config.cfg", "--out", out, *argv]) for argv in stages]
print(json.dumps({"imported": sorted(imported - before), "codes": codes,
                  "later": sorted(set(sys.modules) - imported)}))
"""


def test_cli_import_is_stdlib_only_and_the_pipeline_loads_nothing_more(repo_root, tmp_path):
    paths = [str(repo_root / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PIPELINE, str(tmp_path / "out")],
        cwd=repo_root,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7
    assert [
        module for module in result["imported"]
        if any(module == name or module.startswith(name + ".") for name in FORBIDDEN)
    ] == []
    assert result["later"] == []
