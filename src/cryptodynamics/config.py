"""Run configuration: defaults, flat-keyed config files, flag overrides.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Each RunConfig field declares its dotted key and the parser of the key's
text; KEY_FIELDS lists them. File values and command-line flags are both
read by parse_value, and flags always win over file values, which win
over defaults. Every run echoes its fully resolved configuration next to
its outputs so results are reproducible from the output directory alone.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .correlation import DEFAULT_SG_DEGREE, DEFAULT_SG_WINDOW, DEFAULT_WINDOW_DAYS
from .dispersion import LINKAGES
from .errors import ConfigError
from .panel import DEFAULT_TICKERS, check_tickers, parse_date
from .turning_points import TurningPointParams


def parse_bool(text):
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_path(text):
    if not text:
        raise ConfigError("a blank path would mean the working directory")
    return Path(text)


def parse_tickers(text):
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise ConfigError("empty ticker list")
    return parts


def _key(key, parse, default):
    """A RunConfig field set by config key ``key``, whose text ``parse`` reads."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    data_dir: Path = _key("data.dir", _parse_path, Path("data"))
    out_dir: Path = _key("output.dir", _parse_path, Path("out"))
    start: dt.date = _key("range.from", parse_date, dt.date(2019, 1, 1))
    end: dt.date = _key("range.to", parse_date, dt.date(2021, 6, 30))
    correlation_days: int = _key("windows.correlation_days", int, DEFAULT_WINDOW_DAYS)
    spectral_days: int = _key("windows.spectral_days", int, DEFAULT_WINDOW_DAYS)
    inconsistency_days: int = _key("windows.inconsistency_days", int, DEFAULT_WINDOW_DAYS)
    volatility_days: int = _key("windows.volatility_days", int, DEFAULT_WINDOW_DAYS)
    tp_l: int = _key("tp.l", int, TurningPointParams.l)
    tp_delta: float = _key("tp.delta", float, TurningPointParams.delta)
    tp_epsilon: float = _key("tp.epsilon", float, TurningPointParams.epsilon)
    sg_window: int = _key("sg.window", int, DEFAULT_SG_WINDOW)
    sg_degree: int = _key("sg.degree", int, DEFAULT_SG_DEGREE)
    exclude_diagonal: bool = _key("stats.exclude_diagonal", parse_bool, False)
    linkage: str = _key("cluster.linkage", str, "average")
    url_template: str = _key("data.url_template", str, "")
    tickers: tuple = _key("data.tickers", parse_tickers, DEFAULT_TICKERS)

    def __post_init__(self):
        object.__setattr__(self, "data_dir", Path(self.data_dir))
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        for name in ("correlation_days", "spectral_days",
                     "inconsistency_days", "volatility_days"):
            if getattr(self, name) < 2:
                raise ConfigError(f"windows.{name} must be >= 2, got {getattr(self, name)}")
        if self.end < self.start:
            raise ConfigError(f"range end {self.end} before start {self.start}")
        try:
            self.turning_point_params()
        except ConfigError as exc:  # "l must be …" names the key tp.l
            raise ConfigError(f"tp.{exc}") from None
        if self.sg_window < 1 or self.sg_window % 2 == 0:
            raise ConfigError(f"sg.window must be odd and positive, got {self.sg_window}")
        if not 0 <= self.sg_degree < self.sg_window:
            raise ConfigError(f"sg.degree must lie in 0..sg.window-1, got {self.sg_degree}")
        if self.linkage not in LINKAGES:
            raise ConfigError(f"cluster.linkage must be one of {LINKAGES}, "
                              f"got {self.linkage!r}")
        check_tickers(self.tickers, "data.tickers")

    def turning_point_params(self) -> TurningPointParams:
        return TurningPointParams(self.tp_l, self.tp_delta, self.tp_epsilon)

    @property
    def price_csv(self) -> Path:
        return self.data_dir / "price.csv"

    @property
    def marketcap_csv(self) -> Path:
        return self.data_dir / "marketcap.csv"


# dotted config key -> (RunConfig field, parser), in field order
KEY_FIELDS = {f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(RunConfig)}


def parse_value(key, text, source):
    """The value config key ``key`` reads from ``text``, stripped.

    A value its parser rejects is one ConfigError naming ``source`` (the
    file line or flag it came from) and the key.
    """
    try:
        return KEY_FIELDS[key][1](text.strip())
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: bad value for {key}: {exc}") from None


def parse_config_file(path) -> dict:
    """Field overrides from a flat-keyed config file (UTF-8, a byte-order mark allowed)."""
    overrides = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config path is a directory: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KEY_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        overrides[KEY_FIELDS[key][0]] = parse_value(key, value, f"{path}:{lineno}")
    return overrides


def resolve_config(config_path=None, **flag_overrides) -> RunConfig:
    """Defaults, overlaid with the config file, overlaid with flags."""
    values = {}
    if config_path is not None:
        values.update(parse_config_file(config_path))
    values.update({k: v for k, v in flag_overrides.items() if v is not None})
    try:
        return replace(RunConfig(), **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def config_echo_text(cfg: RunConfig) -> str:
    """The fully resolved configuration in config-file syntax."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, dt.date):
            value = value.isoformat()
        lines.append(f"{f.metadata['key']} = {value}")
    return "\n".join(sorted(lines)) + "\n"
