import datetime as dt
import os
from pathlib import Path

import pytest

from cryptodynamics import ConfigError
from cryptodynamics.config import (
    KEY_FIELDS,
    RunConfig,
    config_echo_text,
    parse_config_file,
    parse_tickers,
    parse_value,
    resolve_config,
)


def test_defaults():
    cfg = RunConfig()
    assert cfg.correlation_days == 90
    assert cfg.start == dt.date(2019, 1, 1)
    assert cfg.end == dt.date(2021, 6, 30)
    assert cfg.linkage == "average"
    assert cfg.exclude_diagonal is False
    assert cfg.price_csv == Path("data") / "price.csv"
    assert cfg.marketcap_csv == Path("data") / "marketcap.csv"
    tp = cfg.turning_point_params()
    assert (tp.l, tp.delta, tp.epsilon) == (17, 0.2, 0.01)


def test_config_file_parsing(tmp_path):
    text = """\
# comment and blank lines are ignored

range.from = 2019-06-01
windows.correlation_days = 30
stats.exclude_diagonal = yes
data.tickers = BTC, ETH ,ADA
"""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    overrides = parse_config_file(path)
    assert overrides == {
        "start": dt.date(2019, 6, 1),
        "correlation_days": 30,
        "exclude_diagonal": True,
        "tickers": ("BTC", "ETH", "ADA"),
    }


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfwindows.correlation_days = 30\ncluster.linkage = single\n")
    assert parse_config_file(path) == {"correlation_days": 30, "linkage": "single"}


@pytest.mark.parametrize("line", [
    "windows.correlation = 30",      # unknown key
    "just some words",               # no '='
    "range.from = yesterday",        # bad date
    "windows.correlation_days = ten",
    "stats.exclude_diagonal = maybe",
])
def test_config_file_rejects_bad_lines(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match="bad.cfg:1"):
        parse_config_file(path)


@pytest.mark.parametrize("text", ["20190101", "2019-W01-2", "2019W012", "2019-1-01"])
def test_a_date_not_written_yyyy_mm_dd_is_a_config_error(tmp_path, text):
    # From Python 3.11 on date.fromisoformat reads the first three as
    # 2019-01-01; the config reads them on no version.
    path = tmp_path / "run.cfg"
    path.write_text(f"range.from = {text}\n")
    with pytest.raises(ConfigError, match=f"run.cfg:1: bad value for range.from: "
                                          f"Invalid isoformat string: '{text}'$"):
        parse_config_file(path)
    for key, flag in (("range.from", "--from"), ("range.to", "--to")):
        with pytest.raises(ConfigError, match=f"^{flag}: bad value for {key}: Invalid isoformat"):
            parse_value(key, text, flag)


def test_flags_beat_file_beats_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("windows.correlation_days = 30\nsg.window = 11\n")
    cfg = resolve_config(path, correlation_days=45, tp_l=5)
    assert cfg.correlation_days == 45   # flag wins over file
    assert cfg.sg_window == 11          # file wins over default
    assert cfg.tp_l == 5
    assert cfg.spectral_days == 90      # untouched default


def test_none_flags_do_not_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("cluster.linkage = single\n")
    cfg = resolve_config(path, linkage=None)
    assert cfg.linkage == "single"


@pytest.mark.parametrize("text,expected", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True),
    ("0", False), ("false", False), ("No", False), ("off", False),
])
def test_bool_spellings(tmp_path, text, expected):
    path = tmp_path / "b.cfg"
    path.write_text(f"stats.exclude_diagonal = {text}\n")
    assert parse_config_file(path) == {"exclude_diagonal": expected}


@pytest.mark.parametrize("kwargs", [
    {"correlation_days": 1},
    {"volatility_days": 0},
    {"start": dt.date(2021, 1, 1), "end": dt.date(2020, 1, 1)},
    {"tp_delta": 1.5},
    {"tp_epsilon": -0.1},
    {"sg_window": 10},
    {"sg_window": -3},
    {"sg_degree": 31},
    {"linkage": "ward"},
])
def test_invalid_values_rejected(kwargs):
    with pytest.raises((ConfigError, ValueError)):
        resolve_config(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"start": dt.date(2020, 1, 1), "end": dt.date(2020, 1, 1)},
    {"sg_window": 1, "sg_degree": 0},
    {"sg_degree": 0},
], ids=["one-day-range", "sg-window-1", "sg-degree-0"])
def test_values_on_each_bound_are_accepted(kwargs):
    cfg = resolve_config(**kwargs)
    assert {name: getattr(cfg, name) for name in kwargs} == kwargs


def test_a_negative_sg_degree_is_rejected():
    with pytest.raises(ConfigError, match=r"^sg\.degree must lie in 0\.\.sg\.window-1, "
                                          r"got -1$"):
        resolve_config(sg_degree=-1)


def test_unknown_flag_rejected():
    with pytest.raises(ConfigError):
        resolve_config(no_such_field=1)


@pytest.mark.parametrize("tickers,message", [
    (("BTC", "ETH", "BTC"), "repeats BTC"),
    (("BTC", "BTC/USD"), "path separator: BTC/USD"),
    (("ETH", f"BTC{os.sep}USD"), "path separator"),
])
def test_bad_tickers_rejected(tmp_path, tickers, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(tickers=tickers)
    with pytest.raises(ConfigError, match=message):
        resolve_config(tickers=parse_tickers(",".join(tickers)))
    path = tmp_path / "run.cfg"
    path.write_text(f"data.tickers = {','.join(tickers)}\n")
    with pytest.raises(ConfigError, match=message):
        resolve_config(path)


def test_an_empty_ticker_is_rejected():
    # the file and flag parser drops blank entries; a caller's tuple may hold one
    with pytest.raises(ConfigError, match="^data.tickers holds an empty ticker$"):
        RunConfig(tickers=("BTC", ""))


def test_parse_tickers():
    assert parse_tickers("BTC,ETH") == ("BTC", "ETH")
    assert parse_tickers(" BTC , ,ETH ") == ("BTC", "ETH")
    with pytest.raises(ConfigError):
        parse_tickers(" , ,")


def test_echo_round_trips_through_the_parser(tmp_path):
    cfg = resolve_config(correlation_days=30, exclude_diagonal=True,
                         start=dt.date(2019, 6, 1), tickers=("BTC", "ETH"))
    path = tmp_path / "echo.cfg"
    path.write_text(config_echo_text(cfg))
    cfg2 = resolve_config(path)
    assert cfg2 == cfg


def test_echo_lists_every_key_sorted():
    lines = config_echo_text(RunConfig()).splitlines()
    assert lines == sorted(lines)
    keys = {line.split(" = ")[0] for line in lines}
    assert keys == set(KEY_FIELDS)
