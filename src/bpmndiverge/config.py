"""Run configuration: flat key/value files plus command-line overrides.

The file format is one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  KPI tag fallbacks use dotted keys
(``kpi_tag.NC = notification``).  Provider secrets never live in the file:
``provider_auth_env`` names an environment variable that is read at run
time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .simulation import DEFAULT_STEP_CAP, KpiConfig


class ConfigError(Exception):
    pass


_KNOWN_KEYS = {
    "models_dir",
    "cases_csv",
    "narrative",
    "segments_json",
    "supplemental",
    "out_dir",
    "round_decimals",
    "step_cap",
    "max_diagnosis_cardinality",
    "localization_threshold",
    "guidance_capacity",
    "overload_penalty_alpha",
    "response_rate",
    "cost_saving_per_improved_patient",
    "provider",
    "provider_canned_path",
    "provider_endpoint",
    "provider_model",
    "provider_auth_env",
    "provider_timeout",
    "provider_retries",
}


@dataclass(frozen=True)
class RunConfig:
    models_dir: Path | None = None
    cases_csv: Path | None = None
    narrative: Path | None = None
    segments_json: Path | None = None
    supplemental: Path | None = None
    out_dir: Path = Path("out")
    round_decimals: int = 6
    step_cap: int = DEFAULT_STEP_CAP
    max_diagnosis_cardinality: int = 8
    localization_threshold: float = 0.15
    kpi: KpiConfig = field(default_factory=KpiConfig)
    provider: str | None = None  # "canned" | "http"
    provider_canned_path: Path | None = None
    provider_endpoint: str | None = None
    provider_model: str | None = None
    provider_auth_env: str | None = None
    provider_timeout: float = 10.0
    provider_retries: int = 2


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if not (key in _KNOWN_KEYS or key.startswith("kpi_tag.")):
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        values[key] = value
    return values


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {value!r}")


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {value!r}")


def _to_decimal(key: str, value: str) -> Decimal:
    try:
        return Decimal(value)
    except InvalidOperation:
        raise ConfigError(f"{key}: expected decimal, got {value!r}")


def build_run_config(values: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    """Apply raw key/value pairs on top of a base configuration."""
    config = base or RunConfig()
    kpi_kwargs: dict[str, object] = {}
    kpi_tags = dict(config.kpi.kpi_task_tags)
    updates: dict[str, object] = {}
    for key, value in values.items():
        if key.startswith("kpi_tag."):
            kpi_tags[key[len("kpi_tag.") :]] = value
        elif key in ("models_dir", "cases_csv", "narrative", "segments_json", "supplemental",
                     "out_dir", "provider_canned_path"):
            updates[key] = Path(value)
        elif key in ("round_decimals", "step_cap", "max_diagnosis_cardinality",
                     "provider_retries"):
            updates[key] = _to_int(key, value)
        elif key in ("localization_threshold", "provider_timeout"):
            updates[key] = _to_float(key, value)
        elif key == "guidance_capacity":
            kpi_kwargs[key] = _to_int(key, value)
        elif key in ("overload_penalty_alpha", "response_rate",
                     "cost_saving_per_improved_patient"):
            kpi_kwargs[key] = _to_decimal(key, value)
        elif key in ("provider", "provider_endpoint", "provider_model", "provider_auth_env"):
            updates[key] = value
        else:  # pragma: no cover - parse_config_text screens keys
            raise ConfigError(f"unknown key {key!r}")
    if kpi_kwargs or kpi_tags != dict(config.kpi.kpi_task_tags):
        try:
            updates["kpi"] = replace(config.kpi, **kpi_kwargs, kpi_task_tags=kpi_tags)
        except ValueError as exc:
            raise ConfigError(str(exc))
    config = replace(config, **updates)  # type: ignore[arg-type]
    if not 0 <= config.round_decimals <= 12:
        raise ConfigError("round_decimals must be in [0, 12]")
    if config.step_cap <= 0:
        raise ConfigError("step_cap must be positive")
    if config.max_diagnosis_cardinality <= 0:
        raise ConfigError("max_diagnosis_cardinality must be positive")
    if not 0.0 <= config.localization_threshold <= 1.0:
        raise ConfigError("localization_threshold must be in [0, 1]")
    if not 0 < config.provider_timeout < float("inf"):
        raise ConfigError("provider_timeout must be a finite number of seconds above 0")
    if config.provider_retries < 0:
        raise ConfigError("provider_retries must be 0 or more")
    if config.provider not in (None, "canned", "http"):
        raise ConfigError("provider must be 'canned' or 'http'")
    return config


def load_config(path: Path, base: RunConfig | None = None) -> RunConfig:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return build_run_config(parse_config_text(path.read_text(encoding="utf-8")), base)


def provider_auth_token(config: RunConfig) -> str | None:
    """Resolve the provider secret from the configured environment variable."""
    if not config.provider_auth_env:
        return None
    return os.environ.get(config.provider_auth_env)
