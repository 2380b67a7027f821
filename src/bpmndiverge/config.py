"""Run configuration: flat key/value files plus command-line overrides.

The file format is one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  KPI tag fallbacks use dotted keys
(``kpi_tag.NC = notification``).  Provider secrets never live in the file:
``provider_auth_env`` names an environment variable that is read at run
time.  ``build_run_config`` converts and checks every value, file or flag.
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

from .diagnosis import DEFAULT_MAX_CARDINALITY
from .repair import DEFAULT_LOCALIZATION_THRESHOLD
from .simulation import KpiConfig


class ConfigError(Exception):
    pass


# Every key a configuration may set, with the type of its value.  The KPI
# parameters among them are fields of ``RunConfig.kpi``; ``kpi_tag.<TAG>``
# keys come on top.
KEYS: dict[str, type] = {
    "models_dir": Path,
    "cases_csv": Path,
    "narrative": Path,
    "segments_json": Path,
    "supplemental": Path,
    "out_dir": Path,
    "round_decimals": int,
    "max_diagnosis_cardinality": int,
    "localization_threshold": float,
    "guidance_capacity": int,
    "overload_penalty_alpha": Decimal,
    "response_rate": Decimal,
    "cost_saving_per_improved_patient": Decimal,
    "provider": str,
    "provider_canned_path": Path,
    "provider_endpoint": str,
    "provider_model": str,
    "provider_auth_env": str,
    "provider_timeout": float,
    "provider_retries": int,
}

_TYPE_NAMES = {int: "integer", float: "number", Decimal: "decimal"}


class RunConfig(NamedTuple):
    models_dir: Path | None = None
    cases_csv: Path | None = None
    narrative: Path | None = None
    segments_json: Path | None = None
    supplemental: Path | None = None
    out_dir: Path = Path("out")
    round_decimals: int = 6
    max_diagnosis_cardinality: int = DEFAULT_MAX_CARDINALITY
    localization_threshold: float = DEFAULT_LOCALIZATION_THRESHOLD
    kpi: KpiConfig = KpiConfig()
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
        if not (key in KEYS or key.startswith("kpi_tag.")):
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        values[key] = value
    return values


def build_run_config(values: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    """Apply raw key/value pairs on top of a base configuration."""
    config = base or RunConfig()
    kpi_kwargs: dict[str, object] = {}
    kpi_tags = dict(config.kpi.kpi_task_tags)
    updates: dict[str, object] = {}
    for key, value in values.items():
        if key.startswith("kpi_tag."):
            if key not in ("kpi_tag.NC", "kpi_tag.HC") or not value:
                raise ConfigError(f"{key}: expected NC or HC and a non-empty label fragment")
            kpi_tags[key[len("kpi_tag.") :]] = value
            continue
        kind = KEYS.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r}")
        try:
            converted = kind(value)
        except (ValueError, ArithmeticError):
            raise ConfigError(f"{key}: expected {_TYPE_NAMES[kind]}, got {value!r}")
        if kind is Decimal and not converted.is_finite():
            raise ConfigError(f"{key}: expected a finite decimal, got {value!r}")
        (kpi_kwargs if key in KpiConfig._fields else updates)[key] = converted
    kpi = config.kpi._replace(**kpi_kwargs, kpi_task_tags=kpi_tags)
    config = config._replace(kpi=kpi, **updates)
    if kpi.guidance_capacity <= 0:
        raise ConfigError("guidance_capacity must be positive")
    if not Decimal(0) <= kpi.overload_penalty_alpha <= Decimal(1):
        raise ConfigError("overload_penalty_alpha must be in [0, 1]")
    if not Decimal(0) <= kpi.response_rate <= Decimal(1):
        raise ConfigError("response_rate must be in [0, 1]")
    saving = kpi.cost_saving_per_improved_patient
    if saving < 0:
        raise ConfigError("cost_saving_per_improved_patient must be nonnegative")
    # Over up to 10^6 cases every KPI then stays below 10^16, so it rounds
    # to 12 places within the 28-digit decimal context.
    if saving >= 10**9:
        raise ConfigError(f"cost_saving_per_improved_patient must be below 10^9, got {saving}")
    for name in ("overload_penalty_alpha", "response_rate", "cost_saving_per_improved_patient"):
        value = getattr(kpi, name)
        if value.as_tuple().exponent < -12:
            raise ConfigError(f"{name} must have at most 12 digits after the point, got {value}")
    if not 0 <= config.round_decimals <= 12:
        raise ConfigError("round_decimals must be in [0, 12]")
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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}")
    except OSError:  # no such file, a directory, or a name the OS rejects
        raise ConfigError(f"config file not found: {path}")
    return build_run_config(parse_config_text(text), base)
