"""Benchmark `cryptodynamics all` end to end and per module.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark generates the workload's
seeded panel, then runs `cryptodynamics all` on it in fresh child
processes, one at a time (a closed loop with one client), for about
``--seconds`` seconds and at least MIN_RUNS runs. Every run's outputs are
checked. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates traced and untraced runs
and reports the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_RUNS = 3
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 90

# Reported for every span group: each wrapped function on its own, and the
# exports writers summed as "exports".
SPAN_METRICS = ("calls", "self_s", "cpu_s", "rss_peak_mb")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(threads):
    """The machine and library facts the numbers depend on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"env: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} blas_threads={threads}\n"
            "env: CPUs are not pinned and the page cache is not dropped; after the "
            "first run the CSVs are read from cache. Compare commits on the same "
            "machine class only.")


class Runner:
    """Launches the child processes of one workload."""

    def __init__(self, workload, data_dir, threads):
        self.workload = workload
        self.data_dir = data_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Set-up time counts importing cached bytecode, as an installed
        # package would; the warm-up child writes the cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        self.count = 0

    def launch(self, mode, out_dir=None, trace_path=None):
        self.count += 1
        result_path = WORK / f"result-{self.count}.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), "", str(result_path),
                str(trace_path) if trace_path else "-", mode]
        if mode == "all":
            shutil.rmtree(out_dir, ignore_errors=True)
            argv += self.workload.cli_args(self.data_dir, out_dir)
        argv[2] = repr(time.monotonic())
        try:
            proc = subprocess.run(argv, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"rc": -1, "error": f"killed after {CHILD_TIMEOUT_S} s"}
        if proc.returncode != 0 or not result_path.exists():
            return {"rc": proc.returncode or -1, "error": proc.stderr.strip()[-2000:]}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, span_names, out_dir, dataset, workload):
    """Per-layer values of one traced run, from its spans and output dir."""
    child_wall = defaultdict(float)
    child_cpu = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_wall[s["parent"]] += s["end"] - s["start"]
            child_cpu[s["parent"]] += s["cpu_s"]
    groups = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "cpu_s": 0.0,
                                  "rss_peak_mb": 0.0})
    facts = defaultdict(list)
    for s in spans:
        names = [s["name"]]
        if s["name"].startswith("exports."):
            names = ["exports"] + (names if s["name"] == "exports.write_dendrogram_json" else [])
        for name in names:
            g = groups[name]
            g["calls"] += 1
            g["self_s"] += s["end"] - s["start"] - child_wall[s["id"]]
            g["cpu_s"] += s["cpu_s"] - child_cpu[s["id"]]
            g["rss_peak_mb"] = max(g["rss_peak_mb"], s["rss_mb"])
        if "facts" in s:
            facts[s["name"]].append(s["facts"])
    out = {f"{name}.{key}": groups[name][key] if name in groups else 0
           for name in span_names for key in SPAN_METRICS}

    def fact(name, key):
        return facts[name][0][key] if facts[name] else 0

    parsed = 2 * dataset.panel.n_assets * dataset.panel.n_days
    kept = 2 * fact("cli.load_panel_with_report", "n_assets") \
        * fact("cli.load_panel_with_report", "n_days")
    builds = facts["correlation.rolling_correlation_matrices"] \
        + facts["spectral.rolling_correlation_matrices"]
    needed = len({workload.windows[0], workload.windows[1]})
    inc_windows = fact("inconsistency.inconsistency_norms", "windows")
    leaves = fact("dispersion.dispersion_matrix", "leaves")
    files = list(out_dir.iterdir()) if out_dir.is_dir() else []
    out.update({
        "panel.cells_parsed": parsed,
        "panel.cells_kept": kept,
        "panel.useful_cell_frac": kept / parsed,
        "panel.assets_dropped": fact("cli.load_panel_with_report", "dropped"),
        "panel.bytes_read": fact("cli.load_panel_with_report", "bytes_read"),
        "correlation.windows": fact("correlation.rolling_correlation_matrices", "windows"),
        "correlation.stack_builds": len(builds),
        "correlation.stack_bytes_computed": sum(b["windows"] * b["n"] ** 2 * 8
                                                for b in builds),
        "correlation.log_returns_per_run": out["correlation.log_returns.calls"],
        "correlation.stack_reuse_ratio": needed / len(builds) if builds else 1.0,
        "spectral.eigensolves": fact("spectral.lambda1_series", "windows"),
        "spectral.n_assets": fact("spectral.lambda1_series", "n"),
        "inconsistency.windows": inc_windows,
        "inconsistency.affinity_matrices": 3 * inc_windows,
        "inconsistency.volatility_builds": out["inconsistency.rolling_volatility.calls"],
        "dispersion.leaves": leaves,
        "dispersion.distance_entries": leaves * leaves,
        "dispersion.merges": fact("dispersion.hierarchical_cluster", "merges"),
        "turning_points.series_len": fact("cli.find_turning_points", "series_len"),
        "turning_points.points": fact("cli.find_turning_points", "points"),
        "exports.files": len(files),
        "exports.bytes_written": sum(p.stat().st_size for p in files),
    })
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cryptodynamics" / "cli.py").is_file():
        _fail(f"no package source at {SRC.relative_to(ROOT)}/cryptodynamics; "
              "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from check import Checker, digest
    from child import WRAPPED
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    threads = len(os.sched_getaffinity(0))
    print(environment(threads))

    # Benchmark set-up, not counted in setup_s: generate the panel, recompute
    # the expected outputs, and warm the page cache and bytecode with one
    # import-only child.
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    dataset = generate(workload, args.seed, WORK / "data")
    checker = Checker(workload, dataset)
    print(f"dataset: workload={workload.name} seed={args.seed} "
          f"file_shape={dataset.panel.n_assets}x{dataset.panel.n_days} "
          f"range={workload.start}..{workload.end} windows={workload.windows} "
          f"late_listed={len(dataset.listing)} expected_drops={len(dataset.dropped)}")
    for path in (dataset.price_csv, dataset.marketcap_csv):
        print(f"dataset: {path.name} sha256={hashlib.sha256(path.read_bytes()).hexdigest()}")
    runner = Runner(workload, WORK / "data", threads)
    runner.launch("setup")

    out_dir = WORK / "out"
    span_names = [f"{m}.{a}" for m, attrs in WRAPPED.items() for a in attrs]
    span_names += ["exports", "exports.write_dendrogram_json"]
    samples = {False: [], True: []}
    setups, digests, traced_layers = [], set(), []
    attempted = failed = 0
    start = time.monotonic()
    while attempted < MIN_RUNS or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and attempted % 2 == 0
        trace_path = WORK / f"trace-{attempted + 1}.jsonl" if traced else None
        result = runner.launch("all", out_dir, trace_path)
        attempted += 1
        problems = [f"exit {result['rc']}: {result.get('error', '')}"] \
            if result["rc"] != 0 else checker.check(out_dir)
        tag = "traced" if traced else "untraced"
        if problems:
            failed += 1
            print(f"run {attempted} ({tag}): FAILED: " + "; ".join(problems))
        else:
            samples[traced].append(result)
            setups.append(result["setup_s"])
            digests.add(digest(out_dir))
            print(f"run {attempted} ({tag}): wall_s={result['wall_s']:.4f} "
                  f"setup_s={result['setup_s']:.4f} "
                  f"peak_rss_mb={result['peak_rss_mb']:.1f} ok")
            if traced:
                spans = [json.loads(line) for line in
                         trace_path.read_text(encoding="utf-8").splitlines()]
                traced_layers.append(layer_metrics(spans, span_names, out_dir,
                                                   dataset, workload))
    # Long runs give few set-up samples; top them up with import-only children.
    while len(setups) < MIN_SETUPS:
        probe = runner.launch("setup")
        if probe.get("rc", 0) != 0:
            break
        setups.append(probe["setup_s"])

    print(f"digest: {' '.join(sorted(digests)) or 'none'} "
          + ("(identical across runs)" if len(digests) == 1 else
             "(DIFFERS between runs of the same code)" if digests else ""))
    plain = samples[False]
    end_to_end = {
        "wall_s": _median([r["wall_s"] for r in plain]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        "setup_s": _median(setups),
    }
    print(f"summary: wall_s={end_to_end['wall_s']:.4f} s, "
          f"peak_rss_mb={end_to_end['peak_rss_mb']:.1f} MB (median of {len(plain)}); "
          f"setup_s={end_to_end['setup_s']:.4f} s (median of {len(setups)}); "
          f"failed_frac={failed / attempted:g} ratio ({failed} of {attempted})")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        layers = {name: _median([run[name] for run in traced_layers if name in run])
                  for name in names}
        layers["process.cpu_s"] = _median([r["cpu_s"] for r in plain])
        layers["trace.overhead_s"] = (_median([r["wall_s"] for r in samples[True]])
                                      - end_to_end["wall_s"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        ranked = sorted((n for n in names if n.endswith(".self_s")),
                        key=lambda n: -layers[n])
        measured = tuple("." + key for key in SPAN_METRICS) + ("process.cpu_s",
                                                                "trace.overhead_s")
        for name in ranked + [n for n in names if not n.endswith(".self_s")]:
            label = "" if name.endswith(measured) else " (computed)"
            print(f"layer: {name} = {layers[name]:.6g} {units[name]}{label}")
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in names}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {n: {"value": end_to_end[n], "unit": units[n]} for n in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
