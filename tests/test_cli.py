import argparse
import contextlib
import datetime as dt
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryptodynamics
from cryptodynamics.cli import _flag, build_parser, main
from cryptodynamics.config import KEY_FIELDS

SMALL_FLAGS = [
    "--from", "2019-06-01", "--to", "2019-12-31",
    "--correlation-days", "30", "--spectral-days", "30",
    "--inconsistency-days", "30", "--volatility-days", "30",
    "--sg-window", "11", "--tp-l", "5",
]


def run(command, data_dir, out_dir, *extra):
    return main([command, "--data-dir", str(data_dir),
                 "--out-dir", str(out_dir), *SMALL_FLAGS, *extra])


def test_correlation_command(small_dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert run("correlation", small_dataset_dir, out) == 0
    for name in ("resolved_config.txt", "drop_report.json", "norm_series.csv",
                 "norm_series.json", "turning_points.csv", "period_stats.csv",
                 "period_stats.json", "density_pre_covid.csv"):
        assert (out / name).exists(), name
    lines = (out / "norm_series.csv").read_text().splitlines()
    assert lines[0] == "date,raw,smoothed"
    assert lines[1].startswith("2019-07-01,")  # day 30 of the return series
    # only the one default period the range covers gets statistics
    stats = json.loads((out / "period_stats.json").read_text())
    assert [s["period"] for s in stats] == ["Pre-COVID"]
    emitted = capsys.readouterr().out.splitlines()
    assert str(out / "norm_series.csv") in emitted


@pytest.mark.parametrize("start,periods", [
    ("2020-02-26", [("Pre-COVID", 2), ("Peak COVID", 91)]),
    ("2020-02-27", [("Peak COVID", 91)]),
])
def test_a_period_gets_a_density_file_from_two_return_days(sim_dataset_dir, tmp_path,
                                                           start, periods):
    # Pre-COVID ends on 2020-02-28 and the returns start the day after
    # --from; Post-COVID starts on --to, so it has one return day.
    out = tmp_path / "out"
    assert main(["correlation", "--data-dir", str(sim_dataset_dir), "--out-dir", str(out),
                 "--from", start, "--to", "2020-05-31", "--correlation-days", "30",
                 "--sg-window", "11", "--tp-l", "5"]) == 0
    stats = json.loads((out / "period_stats.json").read_text())
    assert [(s["period"], s["n_days"]) for s in stats] == periods
    slugs = {"Pre-COVID": "pre_covid", "Peak COVID": "peak_covid"}
    assert sorted(p.name for p in out.glob("density_*.csv")) == sorted(
        f"density_{slugs[label]}.csv" for label, _ in periods)


def test_resolved_config_echo(small_dataset_dir, tmp_path):
    out = tmp_path / "out"
    assert run("correlation", small_dataset_dir, out, "--exclude-diagonal") == 0
    text = (out / "resolved_config.txt").read_text()
    assert "windows.correlation_days = 30\n" in text
    assert "tp.l = 5\n" in text
    assert "stats.exclude_diagonal = true\n" in text
    assert "range.from = 2019-06-01\n" in text


def test_config_file_feeds_the_run(small_dataset_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("windows.correlation_days = 60\n")
    out = tmp_path / "out"
    code = main(["correlation", "--config", str(cfg),
                 "--data-dir", str(small_dataset_dir), "--out-dir", str(out),
                 "--from", "2019-06-01", "--to", "2019-12-31",
                 "--sg-window", "11", "--tp-l", "5"])
    assert code == 0
    assert "windows.correlation_days = 60\n" in (out / "resolved_config.txt").read_text()


def test_spectral_command(small_dataset_dir, tmp_path):
    out = tmp_path / "out"
    assert run("spectral", small_dataset_dir, out) == 0
    summary = json.loads((out / "correlation_summary.json").read_text())
    assert summary["window_days"] == 30
    assert -1.0 <= summary["rho_market_size_lambda1"] <= 1.0
    lam_lines = (out / "lambda1_series.csv").read_text().splitlines()
    size_lines = (out / "market_size.csv").read_text().splitlines()
    assert lam_lines[0] == "date,lambda1"
    assert size_lines[0] == "date,market_size"
    assert summary["n_windows"] == len(lam_lines) - 1 == len(size_lines) - 1


def test_inconsistency_command(small_dataset_dir, tmp_path):
    out = tmp_path / "out"
    assert run("inconsistency", small_dataset_dir, out) == 0
    lines = (out / "inconsistency_norms.csv").read_text().splitlines()
    assert lines[0] == "date,nu_MR,nu_MSigma"
    for line in lines[1:]:
        _, a, b = line.split(",")
        assert 0.0 <= float(a) <= 1.0 and 0.0 <= float(b) <= 1.0


def test_dispersion_command(small_dataset_dir, tmp_path):
    out = tmp_path / "out"
    assert run("dispersion", small_dataset_dir, out, "--linkage", "single") == 0
    assert "cluster.linkage = single\n" in (out / "resolved_config.txt").read_text()
    dendro = json.loads((out / "dendrogram.json").read_text())
    n_windows = len((out / "variance_series.csv").read_text().splitlines()) - 1
    assert dendro["n_leaves"] == len(dendro["dates"]) == n_windows
    assert dendro["merges"][-1][3] == n_windows  # the last merge spans every window
    cut_lines = (out / "two_cluster_cut.csv").read_text().splitlines()
    assert cut_lines[0] == "date,cluster"
    assert {line.split(",")[1] for line in cut_lines[1:]} == {"0", "1"}


def test_standalone_commands_match_all(small_dataset_dir, tmp_path, capsys):
    everything = tmp_path / "all"
    assert run("all", small_dataset_dir, everything) == 0
    emitted_by_all = capsys.readouterr().out.replace(str(everything), "OUT").splitlines()
    emitted = emitted_by_all[:1]  # drop_report.json, written once per run
    for command in ("correlation", "spectral", "inconsistency", "dispersion"):
        out = tmp_path / command
        assert run(command, small_dataset_dir, out) == 0
        emitted += capsys.readouterr().out.replace(str(out), "OUT").splitlines()[1:]
        names = sorted(p.name for p in out.iterdir() if p.name != "resolved_config.txt")
        assert len(names) >= 2, command
        for name in names:
            assert (out / name).read_bytes() == (everything / name).read_bytes(), (
                command, name)
    assert emitted == emitted_by_all


def test_all_runs_are_byte_identical(small_dataset_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("all", small_dataset_dir, out) == 0
        outs.append(out)
    a, b = outs
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b and len(names_a) >= 14
    for name in names_a:
        if name == "resolved_config.txt":
            continue  # records each run's own output.dir by design
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.fixture(scope="module")
def small_all_names(small_dataset_dir, tmp_path_factory):
    """The files a full `all` run on the small market writes."""
    out = tmp_path_factory.mktemp("small_all")
    assert run("all", small_dataset_dir, out) == 0
    return sorted(p.name for p in out.iterdir())


@pytest.mark.parametrize("n_assets, days", [(1, 30), (2, 30), (3, 30), (6, 2)])
def test_degenerate_sizes_run_end_to_end(small_panel, small_all_names, tmp_path,
                                         n_assets, days):
    # The small market cut to its first assets, or every window at S = 2.
    whole = small_panel
    data = tmp_path / "data"
    data.mkdir()
    cryptodynamics.write_panel(
        cryptodynamics.PricePanel(whole.dates, whole.tickers[:n_assets],
                                  whole.closes[:n_assets], whole.market_caps[:n_assets]),
        data / "price.csv", data / "marketcap.csv")
    out = tmp_path / "out"
    assert run("all", data, out, *(arg for window in ("correlation", "spectral",
                                                      "inconsistency", "volatility")
                                   for arg in (f"--{window}-days", str(days)))) == 0
    assert sorted(p.name for p in out.iterdir()) == small_all_names
    summary = json.loads((out / "correlation_summary.json").read_text())
    degenerate = n_assets == 1 or days == 2  # λ₁/N is 1 on every window
    assert (summary["rho_market_size_lambda1"] == "degenerate") == degenerate
    # ν is 1 on every window too, up to rounding: nothing to segment, so no
    # turning points
    points = (out / "turning_points.csv").read_text().splitlines()
    assert points[0] == "index,date,value,kind"
    assert (len(points) == 1) == degenerate


def test_clone_assets_give_no_turning_points(small_panel, tmp_path):
    # A clone of an asset (doubled closes, tripled caps) correlates with it
    # at exactly 1, so ν is 1 on every window and its smoothed series only
    # wobbles in the last bits: that is no turning point, whatever N is.
    closes, caps = small_panel.closes[0], small_panel.market_caps[0]
    data = tmp_path / "data"
    data.mkdir()
    cryptodynamics.write_panel(
        cryptodynamics.PricePanel(small_panel.dates, ("A", "B"), [closes, 2.0 * closes],
                                  [caps, 3.0 * caps]),
        data / "price.csv", data / "marketcap.csv")
    out = tmp_path / "out"
    assert run("correlation", data, out) == 0
    raw = json.loads((out / "norm_series.json").read_text())["raw"]
    assert len(raw) > 100 and max(raw) - min(raw) < 1e-12
    assert (out / "turning_points.csv").read_text().splitlines() == ["index,date,value,kind"]


def test_no_price_panel_outlives_the_load(small_dataset_dir, tmp_path, monkeypatch):
    # Once the load step has handed back the returns panel, which carries
    # the caps, the price panel and its closes are freed for the analyses.
    from cryptodynamics import cli, correlation

    loaded, alive = [], []
    load, rolling_statistics = cli.load_panel_with_report, correlation.rolling_statistics

    def tracked_load(*args):
        panel, drops = load(*args)
        loaded.append(weakref.ref(panel))
        return panel, drops

    def checked_pass(*args):
        gc.collect()
        alive.append(loaded[0]() is not None)
        return rolling_statistics(*args)

    monkeypatch.setattr(cli, "load_panel_with_report", tracked_load)
    monkeypatch.setattr(correlation, "rolling_statistics", checked_pass)
    assert run("all", small_dataset_dir, tmp_path / "out") == 0
    assert len(loaded) == 1 and alive == [False]


def test_missing_data_is_exit_code_1(tmp_path, capsys):
    code = run("correlation", tmp_path / "absent", tmp_path / "out")
    assert code == 1
    assert "data file not found" in capsys.readouterr().err


def test_missing_config_file_is_exit_code_1(small_dataset_dir, tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    code = run("correlation", small_dataset_dir, tmp_path / "out", "--config", str(missing))
    assert code == 1
    assert capsys.readouterr().err == f"error: config file not found: {missing}\n"


def test_config_directory_is_exit_code_1(small_dataset_dir, tmp_path, capsys):
    folder = tmp_path / "configs"
    folder.mkdir()
    code = run("correlation", small_dataset_dir, tmp_path / "out", "--config", str(folder))
    assert code == 1
    assert capsys.readouterr().err == f"error: config path is a directory: {folder}\n"


def test_data_path_that_is_not_a_file_is_exit_code_1(small_dataset_dir, tmp_path, capsys):
    for name in ("price.csv", "marketcap.csv"):
        data = tmp_path / name.split(".")[0]
        data.mkdir()
        for other in ("price.csv", "marketcap.csv"):
            if other != name:
                (data / other).write_bytes((small_dataset_dir / other).read_bytes())
        (data / name).mkdir()
        code = run("correlation", data, tmp_path / "out")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: data path is not a regular file: {data / name}\n")


def test_printed_paths_are_the_files_written(small_dataset_dir, tmp_path, capsys):
    # stdout lists the drop report, then every file each analysis wrote, in
    # write order; only the config echo goes unprinted.
    for command in ("all", "correlation", "spectral", "inconsistency", "dispersion"):
        out = tmp_path / command
        assert run(command, small_dataset_dir, out) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == str(out / "drop_report.json"), command
        assert len(printed) == len(set(printed)), command
        written = {str(p) for p in out.iterdir() if p.name != "resolved_config.txt"}
        assert set(printed) == written, command


@pytest.mark.parametrize("n_assets, flag, written", [
    # one day of prices forms no returns: only the drop report is written
    (6, ["--from", "2019-06-01", "--to", "2019-06-01"], []),
    # the turning points need a series longer than 2·l
    (6, ["--tp-l", "500"], ["norm_series.csv", "norm_series.json"]),
    # one asset has no off-diagonal entries for the period statistics
    (1, ["--exclude-diagonal"], ["norm_series.csv", "norm_series.json",
                                 "turning_points.csv"]),
])
def test_a_failed_run_prints_the_files_it_wrote(small_panel, tmp_path, capsys,
                                                n_assets, flag, written):
    data = tmp_path / "data"
    data.mkdir()
    cryptodynamics.write_panel(
        cryptodynamics.PricePanel(small_panel.dates, small_panel.tickers[:n_assets],
                                  small_panel.closes[:n_assets],
                                  small_panel.market_caps[:n_assets]),
        data / "price.csv", data / "marketcap.csv")
    out = tmp_path / "out"
    assert run("all", data, out, *flag) == 1
    captured = capsys.readouterr()
    one_error_line(captured.err)
    assert captured.out.splitlines() == [str(out / name)
                                         for name in ["drop_report.json", *written]]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["resolved_config.txt", "drop_report.json", *written])


def test_bool_flag_overrides_the_config_file(small_dataset_dir, tmp_path, capsys):
    # Flags beat file values for bool keys too; bare, the flag means true.
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    for in_file, flag, echoed in (("true", ["--exclude-diagonal", "false"], "false"),
                                  ("false", ["--exclude-diagonal", "--tp-l", "5"], "true"),
                                  ("false", ["--exclude-diagonal", "on"], "true"),
                                  ("true", [], "true")):
        cfg.write_text(f"stats.exclude_diagonal = {in_file}\n")
        assert run("correlation", small_dataset_dir, out, "--config", str(cfg), *flag) == 0
        text = (out / "resolved_config.txt").read_text()
        assert f"stats.exclude_diagonal = {echoed}\n" in text, (in_file, flag)
    capsys.readouterr()
    assert run("correlation", small_dataset_dir, out, "--exclude-diagonal", "maybe") == 1
    assert capsys.readouterr().err == ("error: --exclude-diagonal: bad value for "
                                       "stats.exclude_diagonal: not a boolean: 'maybe'\n")


def test_bad_parameter_is_exit_code_1(small_dataset_dir, tmp_path, capsys):
    code = run("correlation", small_dataset_dir, tmp_path / "out",
               "--tp-delta", "2.0")
    assert code == 1
    assert "delta" in capsys.readouterr().err


def test_bad_date_is_exit_code_1(small_dataset_dir, tmp_path):
    code = main(["correlation", "--data-dir", str(small_dataset_dir),
                 "--out-dir", str(tmp_path / "out"), "--from", "junk"])
    assert code == 1


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_a_date_flag_not_written_yyyy_mm_dd_is_exit_code_1(small_dataset_dir, tmp_path,
                                                           capsys, flag):
    key = {"--from": "range.from", "--to": "range.to"}[flag]
    assert run("correlation", small_dataset_dir, tmp_path / "out", flag, "20190801") == 1
    assert capsys.readouterr().err == (
        f"error: {flag}: bad value for {key}: Invalid isoformat string: '20190801'\n")


def test_flags_match_the_config_schema_and_the_readme():
    # One flag per config key, named after its RunConfig field.
    renamed = {"start": "--from", "end": "--to"}
    expected = {renamed.get(field, "--" + field.replace("_", "-")): key
                for key, (field, _) in KEY_FIELDS.items()}
    expected["--config"] = None
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    field_keys = {field: key for key, (field, _) in KEY_FIELDS.items()}
    for name, sub in commands.choices.items():
        flags = {}
        for action in sub._actions:
            for flag in action.option_strings:
                if flag not in ("-h", "--help"):
                    flags[flag] = field_keys.get(action.dest)
        assert flags == expected, name

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for row in section.splitlines():
        if row.startswith("| `--"):
            flag_cell, key_cell = row.split("|")[1:3]
            keys = re.findall(r"`([a-z_.]+)`", key_cell) or [None]
            listed.update(zip(re.findall(r"`(--[a-z-]+)", flag_cell), keys, strict=True))
    assert listed == expected


def test_unknown_command_is_a_usage_error(capsys):
    # argparse's own exit code 2 would read as a numerical failure
    for argv in (["frobnicate"], []):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["all", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0, argv
        assert "usage:" in capsys.readouterr().out


# A text each key's parser rejects. cluster.linkage and data.url_template
# take any text; RunConfig's own checks reject a bad linkage.
BAD_VALUES = {
    "data.dir": "", "output.dir": " ",
    "range.from": "junk", "range.to": "2019-13-01",
    "windows.correlation_days": "abc", "windows.spectral_days": "9.5",
    "windows.inconsistency_days": "", "windows.volatility_days": "ninety",
    "tp.l": "x", "tp.delta": "0,2", "tp.epsilon": "1e",
    "sg.window": "31.0", "sg.degree": "three",
    "stats.exclude_diagonal": "maybe", "data.tickers": " , ",
}


@pytest.mark.parametrize("route", ["flag", "file"])
@pytest.mark.parametrize("key", BAD_VALUES)
def test_a_bad_value_is_one_error_line_naming_its_key_and_source(tmp_path, monkeypatch,
                                                                 capsys, key, route):
    # Flags and file lines go through the key's one parser. The run writes
    # nothing: not even a blank output.dir or data.dir, which would mean
    # the working directory.
    assert set(BAD_VALUES) == set(KEY_FIELDS) - {"cluster.linkage", "data.url_template"}
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if route == "flag":
        source = _flag(KEY_FIELDS[key][0])
        argv = ["all", source, BAD_VALUES[key]]
    else:
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = {BAD_VALUES[key]}\n")
        source, argv = f"{config}:1", ["all", "--config", str(config)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert one_error_line(captured.err).startswith(f"error: {source}: bad value for {key}: ")
    assert captured.out == "" and list(cwd.iterdir()) == []


@pytest.mark.parametrize("tickers", ["BTC,ETH,BTC", "BTC/USD"])
def test_bad_tickers_fail_before_any_request(tmp_path, monkeypatch, capsys, tickers):
    import urllib.request

    requested = []

    def record(self, url, *args, **kwargs):
        requested.append(url)
        raise OSError("no request should be made")

    # every urllib opener, fetch's own included, opens through this method
    monkeypatch.setattr(urllib.request.OpenerDirector, "open", record)
    code = main(["fetch", "--data-dir", str(tmp_path / "data"),
                 "--out-dir", str(tmp_path / "out"),
                 "--url-template", "http://127.0.0.1:9/{ticker}", "--tickers", tickers])
    assert code == 1
    assert "data.tickers" in capsys.readouterr().err
    assert requested == [] and list(tmp_path.iterdir()) == []


def test_fetch_transport_failure_is_exit_code_3(tmp_path, capsys):
    import socket
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    code = main(["fetch", "--data-dir", str(tmp_path / "data"),
                 "--out-dir", str(tmp_path / "out"),
                 "--url-template", f"http://127.0.0.1:{port}/{{ticker}}",
                 "--tickers", "BTC"])
    assert code == 3
    assert "transport" in capsys.readouterr().err


def one_error_line(err):
    """The single line of ``err``, which must be one ``error:`` line."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("case", ["long quoted cell", "latin-1 header", "latin-1 config"])
def test_unreadable_input_is_one_error_line_naming_the_file(small_dataset_dir, tmp_path,
                                                            capsys, case):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("price.csv", "marketcap.csv"):
        (data / name).write_bytes((small_dataset_dir / name).read_bytes())
    price, extra = data / "price.csv", []
    if case == "long quoted cell":  # over the csv module's 131,072-character field limit
        lines = price.read_bytes().split(b"\r\n")
        lines[3] = lines[3].split(b",")[0] + b',"' + b"1" * 140_000 + b'"' + b",1" * 5
        price.write_bytes(b"\r\n".join(lines))
        named = f"{price}: row 4"
    elif case == "latin-1 header":
        price.write_bytes(price.read_bytes().replace(b"ETH", "\u00c9TH".encode("latin-1"), 1))
        named = f"{price}: not UTF-8 text"
    else:
        config = tmp_path / "run.cfg"
        config.write_bytes("# caf\u00e9\n".encode("latin-1"))
        extra = ["--config", str(config)]
        named = f"{config}: not UTF-8 text"
    assert run("all", data, tmp_path / "out", *extra) == 1
    assert one_error_line(capsys.readouterr().err).startswith(f"error: {named}")


def test_unbalanced_template_is_one_error_line_naming_it(tmp_path, capsys):
    template = "http://127.0.0.1:9/{ticker"
    code = main(["fetch", "--data-dir", str(tmp_path / "data"),
                 "--out-dir", str(tmp_path / "out"),
                 "--url-template", template, "--tickers", "BTC"])
    assert code == 1
    assert one_error_line(capsys.readouterr().err) == (
        f"error: bad url template {template!r}: expected '}}' before end of string")


def test_payload_over_the_csv_field_limit_is_one_error_line_naming_the_ticker(
        local_http, tmp_path, capsys):
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, 'date,close,market_cap\n2019-06-01,"' + "1" * 140_000
                                    + '",2.0\n')
    code = main(["fetch", "--data-dir", str(tmp_path / "data"),
                 "--out-dir", str(tmp_path / "out"),
                 "--url-template", base + "/hist/{ticker}.csv", "--tickers", "BTC"])
    assert code == 1
    raw = tmp_path / "data" / "raw" / "BTC.csv"
    assert one_error_line(capsys.readouterr().err) == (
        f"error: {raw}: row 2, column '': field larger than field limit (131072)")


def test_a_multi_line_http_error_page_is_one_error_line(local_http, tmp_path, capsys):
    base, routes = local_http
    routes["/hist/BTC.csv"] = (404, "<html>\n  <body>\n\t<h1>Not Found</h1>\n</body>\n</html>\n")
    code = main(["fetch", "--data-dir", str(tmp_path / "data"),
                 "--out-dir", str(tmp_path / "out"),
                 "--url-template", base + "/hist/{ticker}.csv", "--tickers", "BTC"])
    assert code == 3
    assert one_error_line(capsys.readouterr().err) == (
        f"error: transport: fetch failed for {base}/hist/BTC.csv (HTTP 404): "
        "<html> <body> <h1>Not Found</h1> </body> </html>")


def test_numerical_failure_is_exit_code_2(small_dataset_dir, tmp_path, monkeypatch, capsys):
    from cryptodynamics import correlation

    def diverged(matrices, dates):
        raise cryptodynamics.NumericalError("eigensolver failed: did not converge")

    monkeypatch.setattr(correlation, "chunk_lambda1", diverged)
    assert run("all", small_dataset_dir, tmp_path / "out") == 2
    assert one_error_line(capsys.readouterr().err) == (
        "error: numerical: eigensolver failed: did not converge")


def test_an_untyped_exception_is_a_bug_and_propagates(small_dataset_dir, tmp_path,
                                                      monkeypatch):
    # Only the package's own errors (and OS and memory failures) become an
    # exit code; anything else is a bug and must not pass for bad input.
    from cryptodynamics import inconsistency

    def broken(*args):
        raise ValueError("a bug")

    monkeypatch.setattr(inconsistency, "inconsistency_norms", broken)
    with pytest.raises(ValueError, match="a bug"):
        run("all", small_dataset_dir, tmp_path / "out")


def _wavy_history(n_days, base):
    lines = ["date,close,market_cap"]
    day = dt.date(2019, 6, 1)
    for k in range(n_days):
        close = base * math.exp(0.03 * math.sin(0.7 * k + base))
        cap = close * 1000.0
        lines.append(f"{day.isoformat()},{close!r},{cap!r}")
        day += dt.timedelta(days=1)
    return "\n".join(lines) + "\n"


def test_fetch_then_analyse_end_to_end(local_http, tmp_path):
    base, routes = local_http
    routes["/hist/BTC.csv"] = (200, _wavy_history(40, 100.0))
    routes["/hist/ETH.csv"] = (200, _wavy_history(40, 10.0))
    data = tmp_path / "data"
    out = tmp_path / "out"

    code = main(["fetch", "--data-dir", str(data), "--out-dir", str(out),
                 "--url-template", base + "/hist/{ticker}.csv?from={start}&to={end}",
                 "--tickers", "BTC,ETH",
                 "--from", "2019-06-01", "--to", "2019-07-10"])
    assert code == 0
    assert (data / "price.csv").exists()
    assert (data / "raw" / "ETH.csv").exists()

    code = main(["correlation", "--data-dir", str(data), "--out-dir", str(out),
                 "--from", "2019-06-01", "--to", "2019-07-10",
                 "--correlation-days", "20", "--sg-window", "5",
                 "--sg-degree", "2", "--tp-l", "8"])
    assert code == 0
    assert (out / "norm_series.csv").exists()


def test_all_builds_each_window_stack_once(small_dataset_dir, tmp_path, monkeypatch):
    from cryptodynamics import correlation

    passes, stacked, grams = [], [], []
    walk, fill = correlation.window_chunks, correlation.fill_chunk

    def counting_walk(returns, days, *args):
        passes.append(days)
        return walk(returns, days, *args)

    def counting_fill(returns, days, rows, centered, stack=None, gram=None):
        # Only a pass's windows count: each period's matrix goes through
        # fill_chunk too, as one window of the period's length (213 days).
        if days in passes and stack is not None:
            stacked.extend(range(rows.start, rows.stop))
        if days in passes and gram is not None:
            grams.extend(range(rows.start, rows.stop))
        return fill(returns, days, rows, centered, stack, gram)

    monkeypatch.setattr(correlation, "window_chunks", counting_walk)
    monkeypatch.setattr(correlation, "fill_chunk", counting_fill)
    out = tmp_path / "out"
    assert run("all", small_dataset_dir, out) == 0
    n_windows = len((out / "norm_series.csv").read_text().splitlines()) - 1
    assert passes == [30]  # ν, λ₁ and σ all at 30 days: one pass
    assert sorted(stacked) == list(range(n_windows))

    passes.clear()
    assert run("all", small_dataset_dir, tmp_path / "out2",
               "--spectral-days", "40", "--volatility-days", "40") == 0
    assert passes == [30, 40]

    # On its own, each analysis command makes one pass, at its own window
    # length; the volatility analyses need σ alone, so they build no stack.
    windows = {"correlation": 30, "spectral": 35, "inconsistency": 40, "dispersion": 45}
    for command, days in windows.items():
        passes.clear()
        stacked.clear()
        grams.clear()
        assert run(command, small_dataset_dir, tmp_path / command,
                   "--spectral-days", "35", "--inconsistency-days", "40",
                   "--volatility-days", "45") == 0
        assert passes == [days], command
        if command in ("inconsistency", "dispersion"):
            assert stacked == grams == [], command


def test_out_of_memory_is_exit_code_3(small_dataset_dir, tmp_path, monkeypatch, capsys):
    from cryptodynamics import correlation

    def exhausted(stack):
        raise MemoryError

    monkeypatch.setattr(correlation, "chunk_norms", exhausted)
    assert run("all", small_dataset_dir, tmp_path / "out") == 3
    err = capsys.readouterr().err
    # one chunk of all 184 windows, so one worker: a (c, 6, 30) array and a
    # (c, 6, 6) stack, plus the (6, 184) results
    need = 8 * (184 * (6 * 30 + 6 * 6) + 184 * 6) / 2**20
    assert err == (f"error: out of memory: estimated kernel working set {need:.1f} MiB "
                   "(N=6, S=30, W=184)\n")

    # Chunks of 46 windows on two workers (one without an OpenBLAS setter):
    # the estimate counts every worker's buffers.
    workers = 2 if correlation._openblas_threads() else 1
    monkeypatch.setattr(correlation, "_cpu_count", lambda: 2)
    monkeypatch.setattr(correlation, "_CHUNK_BYTES", 8 * (6 * 30 + 6 * 6) * 46 * workers)
    assert run("all", small_dataset_dir, tmp_path / "out2") == 3
    need = 8 * (workers * 46 * (6 * 30 + 6 * 6) + 184 * 6) / 2**20
    assert capsys.readouterr().err == (
        f"error: out of memory: estimated kernel working set {need:.1f} MiB "
        "(N=6, S=30, W=184)\n")


@pytest.mark.parametrize("target", ["cryptodynamics.dispersion.pdist",
                                    "cryptodynamics.dispersion._nn_chain"])
def test_dispersion_out_of_memory_is_exit_code_3(small_dataset_dir, tmp_path,
                                                 monkeypatch, capsys, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, exhausted)
    out = tmp_path / "out"
    assert run("all", small_dataset_dir, out) == 3
    w = len((out / "variance_series.csv").read_text().splitlines()) - 1
    need = 4 * w * (w - 1) / 2**20  # W(W-1)/2 doubles, held once
    assert capsys.readouterr().err == (
        f"error: out of memory: estimated dispersion working set {need:.1f} MiB (W={w})\n")


@pytest.mark.parametrize("module", ["cryptodynamics", "cryptodynamics.cli"])
def test_import_loads_no_unused_heavy_modules(module):
    # Every run pays for what the CLI imports before any analysis starts.
    src = Path(cryptodynamics.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = f"import sys, {module}; print('\\n'.join(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert [m for m in loaded if m.startswith(("scipy.optimize", "scipy.ndimage"))] == []
    if module == "cryptodynamics.cli":
        # scipy.cluster is imported by the clustering call, not by the CLI
        assert [m for m in loaded if m.startswith(("scipy.stats", "scipy.cluster"))
                or m in ("cryptodynamics.fetch", "urllib.request", "http.client")] == []


@pytest.mark.parametrize("linkage, imported", [(None, False), ("single", True)],
                         ids=["default", "single"])
def test_only_single_linkage_imports_scipy_cluster(small_dataset_dir, tmp_path, linkage,
                                                   imported):
    # Average and complete linkage cluster in numpy, so a default run never
    # pays for importing scipy.cluster.
    src = Path(cryptodynamics.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys; from cryptodynamics.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, any(m.startswith('scipy.cluster') for m in sys.modules))")
    args = ["all", "--data-dir", str(small_dataset_dir), "--out-dir", str(tmp_path / "out"),
            *SMALL_FLAGS, *(["--linkage", linkage] if linkage else [])]
    stdout = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert stdout.splitlines()[-1] == f"0 {imported}"


# The CLI contract over generated hostile panels: `all` on any pair of
# panel files ends in exit 0, 1 or 2, with exactly one `error:` line on
# failure, and writes the same bytes when run again. Each file is built
# from a grid of cell texts, so the explicit examples can be written out.

_HOSTILE_CELLS = ("", "nan", "inf", "0", "-1.5")
_SOMETIMES = st.sampled_from([False, False, False, True])
_FIRST_DAY = dt.date(2019, 6, 1)


def _panel_file(cells, rows, line_end="\n", quoted=()):
    """CSV bytes of a cell grid (header first), one line per index in ``rows``.

    Rows ``rows`` names twice come out twice (a duplicate date); rows it
    leaves out are missing days. Rows in ``quoted``, 0 the header, have
    every cell quoted.
    """
    lines = []
    for k in [0] + [1 + r for r in rows]:
        line = cells[k]
        if k in quoted:
            line = [f'"{cell}"' for cell in line]
        lines.append(",".join(line) + line_end)
    return "".join(lines).encode("utf-8")


def _grid(matrix):
    """The cell texts of a (T, N) value matrix under a header of N tickers."""
    header = ["date"] + [f"A{j}" for j in range(matrix.shape[1])]
    return [header] + [[(_FIRST_DAY + dt.timedelta(days=t)).isoformat()]
                       + [repr(float(v)) for v in row] for t, row in enumerate(matrix)]


def _window_flags(days, *extra):
    """``--from``/``--to`` covering the ``days`` days from _FIRST_DAY, then ``extra``."""
    last = _FIRST_DAY + dt.timedelta(days=days - 1)
    return ["--from", _FIRST_DAY.isoformat(), "--to", last.isoformat(), *extra]


@st.composite
def _hostile_panels(draw):
    """(price bytes, market-cap bytes, flags) of one hostile `all` run."""
    n = draw(st.integers(1, 6))
    t = draw(st.integers(3, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.05, (t, n)), axis=0))
    if draw(_SOMETIMES):
        j, first, length = draw(st.tuples(st.integers(0, n - 1), st.integers(0, t - 1),
                                           st.integers(2, t)))
        closes[first:first + length, j] = closes[first, j]  # a stablecoin's run
    grids = [_grid(closes), _grid(closes * rng.uniform(1e3, 1e6, n))]
    for which, day, j, cell in draw(st.lists(st.tuples(
            st.integers(0, 1), st.integers(0, t - 1), st.integers(0, n - 1),
            st.sampled_from(_HOSTILE_CELLS)), max_size=3)):
        grids[which][1 + day][1 + j] = cell
    rows = [list(range(t)), list(range(t))]
    flaw = draw(st.sampled_from([None] * 6 + ["duplicate", "missing"]))
    if flaw:
        which, day = draw(st.integers(0, 1)), draw(st.integers(0, t - 1))
        (rows[which].append if flaw == "duplicate" else rows[which].remove)(day)
    files = [_panel_file(grid, days, draw(st.sampled_from(["\n", "\r\n", "\r"])),
                         draw(st.sets(st.integers(0, t), max_size=3)))
             for grid, days in zip(grids, rows)]
    flags = []
    longest = draw(st.sampled_from([t - 1, 90]))  # up to the return days, or past them
    for window in ("correlation", "spectral", "inconsistency", "volatility"):
        flags += [f"--{window}-days", str(draw(st.integers(2, max(2, min(longest, 90)))))]
    if draw(st.booleans()):
        flags.append("--exclude-diagonal")
    sg_window = draw(st.none() | st.integers(2, 20).map(lambda k: 2 * k + 1))
    if sg_window is not None:
        flags += ["--sg-window", str(sg_window)]
    return files[0], files[1], _window_flags(t, *flags)


def _run_all(files, out, flags):
    """(exit code, stderr, {file name: bytes} of the outputs) of `all` on ``files``."""
    data = out.parent / "data"
    data.mkdir(exist_ok=True)
    (data / "price.csv").write_bytes(files[0])
    (data / "marketcap.csv").write_bytes(files[1])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["all", "--data-dir", str(data), "--out-dir", str(out), *flags])
    written = {p.name: p.read_bytes() for p in (out.iterdir() if out.exists() else ())
               if p.name != "resolved_config.txt"}
    return code, err.getvalue(), written


_THREE_ASSETS = np.array([[100.0 + t % 7, 50.0 - t % 3, 10.0 + t % 11] for t in range(60)])
_LONG_CELL = _grid(_THREE_ASSETS)
_LONG_CELL[5][2] = "1" * 140_000  # over the csv module's field limit once quoted
_CONSTANT = _THREE_ASSETS.copy()
_CONSTANT[:, 1] = 50.0  # a stablecoin: constant over every window
_SHORT_WINDOWS = ["--correlation-days", "10", "--spectral-days", "10",
                  "--inconsistency-days", "10", "--volatility-days", "10"]


@settings(max_examples=100, deadline=None)
@given(_hostile_panels())
@example((_panel_file(_LONG_CELL, range(60), quoted={5}),
          _panel_file(_grid(_THREE_ASSETS), range(60)), _window_flags(60, *_SHORT_WINDOWS)))
@example((_panel_file(_grid(_THREE_ASSETS), range(60)).replace(b"A1", "\u00c91".encode("latin-1")),
          _panel_file(_grid(_THREE_ASSETS), range(60)), _window_flags(60, *_SHORT_WINDOWS)))
def test_all_ends_in_a_defined_outcome_on_hostile_panels(drawn):
    price, cap, flags = drawn
    with tempfile.TemporaryDirectory() as tmp:
        first = _run_all((price, cap), Path(tmp) / "first", flags)
        second = _run_all((price, cap), Path(tmp) / "second", flags)
    code, err, _ = first
    assert code in (0, 1, 2)
    if code:
        one_error_line(err)
    assert second == first


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: no manifest, and a failed run "
                                       "leaves its first files behind")
@settings(max_examples=5, deadline=None)
@given(_hostile_panels())
@example((_panel_file(_grid(_CONSTANT), range(60)),
          _panel_file(_grid(_THREE_ASSETS), range(60)), _window_flags(60, *_SHORT_WINDOWS)))
def test_all_leaves_a_complete_directory_or_no_output(drawn):
    # Complete: manifest.json lists every other file there with its byte
    # count (the key names are a guess until item 2 fixes the format). The
    # constant-close example exits 1 after writing the drop report.
    price, cap, flags = drawn
    with tempfile.TemporaryDirectory() as tmp:
        _, _, written = _run_all((price, cap), Path(tmp) / "out", flags)
    if "manifest.json" not in written:
        assert written == {}
    else:
        listed = json.loads(written.pop("manifest.json"))["files"]
        assert {f["path"]: f["bytes"] for f in listed} == {
            name: len(data) for name, data in written.items()}
