import argparse
import datetime as dt
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cryptodynamics
from cryptodynamics.cli import build_parser, main
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
    assert capsys.readouterr().err == "error: not a boolean: 'maybe'\n"


def test_bad_parameter_is_exit_code_1(small_dataset_dir, tmp_path, capsys):
    code = run("correlation", small_dataset_dir, tmp_path / "out",
               "--tp-delta", "2.0")
    assert code == 1
    assert "delta" in capsys.readouterr().err


def test_bad_date_is_exit_code_1(small_dataset_dir, tmp_path):
    code = main(["correlation", "--data-dir", str(small_dataset_dir),
                 "--out-dir", str(tmp_path / "out"), "--from", "junk"])
    assert code == 1


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
    for argv in (["frobnicate"], [], ["all", "--correlation-days", "abc"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["all", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0, argv
        assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("tickers", ["BTC,ETH,BTC", "BTC/USD"])
def test_bad_tickers_fail_before_any_request(tmp_path, monkeypatch, capsys, tickers):
    import requests

    requested = []

    def record(url, **kwargs):
        requested.append(url)
        raise requests.ConnectionError("no request should be made")

    monkeypatch.setattr(requests, "get", record)
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
    monkeypatch.setattr(correlation, "_CHUNK_BYTES", 8 * 6 * 30 * 46 * workers)
    assert run("all", small_dataset_dir, tmp_path / "out2") == 3
    need = 8 * (workers * 46 * (6 * 30 + 6 * 6) + 184 * 6) / 2**20
    assert capsys.readouterr().err == (
        f"error: out of memory: estimated kernel working set {need:.1f} MiB "
        "(N=6, S=30, W=184)\n")


@pytest.mark.parametrize("target", ["cryptodynamics.dispersion.pdist",
                                    "scipy.cluster.hierarchy.linkage"])
def test_dispersion_out_of_memory_is_exit_code_3(small_dataset_dir, tmp_path,
                                                 monkeypatch, capsys, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, exhausted)
    out = tmp_path / "out"
    assert run("all", small_dataset_dir, out) == 3
    w = len((out / "variance_series.csv").read_text().splitlines()) - 1
    need = 8 * w * (w - 1) / 2**20  # W(W-1)/2 doubles, twice
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
        assert [m for m in loaded if m.startswith(("scipy.stats", "scipy.cluster", "requests"))
                or m == "cryptodynamics.fetch"] == []
