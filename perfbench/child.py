"""One benchmark sample: a fresh process that runs `cryptodynamics all` once.

    python3 child.py LAUNCH RESULT_JSON TRACE_JSONL|- setup|all [CLI ARGS...]

LAUNCH is the parent's time.monotonic() just before it started this
process, so set-up time covers interpreter start and the package import.
``setup`` stops after the import. With a TRACE_JSONL path the package's
public functions are wrapped from outside, by rebinding module attributes,
and one span per call is written there as a JSON line when the run ends.
The result (times, exit code, peak RSS) goes to RESULT_JSON.
"""

import sys
import time

from cryptodynamics import cli

READY = time.monotonic()

import functools  # noqa: E402  (imported after the set-up clock stops)
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def peak_rss_mb():
    """High-water RSS of this process image, in MB.

    VmHWM, not ru_maxrss: on Linux ru_maxrss of an exec'd child starts from
    the RSS of the parent it was forked from.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stack_facts(args, kwargs, result):
    dates, stack = result
    return {"windows": stack.shape[0], "n": stack.shape[1]}


# Shapes each wrapper records from its call; the parent derives the work
# counters from them.
FACTS = {
    "cli.load_panel_with_report": lambda a, k, r: {
        "n_assets": r[0].n_assets, "n_days": r[0].n_days, "dropped": len(r[1]),
        "bytes_read": os.path.getsize(a[0]) + os.path.getsize(a[1])},
    "cli.find_turning_points": lambda a, k, r: {"series_len": len(a[0]),
                                                 "points": len(r)},
    "correlation.rolling_correlation_matrices": _stack_facts,
    "spectral.rolling_correlation_matrices": _stack_facts,
    "spectral.lambda1_series": lambda a, k, r: {"windows": len(r.dates),
                                                "n": r.n_assets},
    "inconsistency.inconsistency_norms": lambda a, k, r: {"windows": len(r.dates)},
    "dispersion.dispersion_matrix": lambda a, k, r: {"leaves": len(r.dates)},
    "dispersion.hierarchical_cluster": lambda a, k, r: {"merges": len(r.merges)},
}

WRAPPED = {
    "cli": ("main", "load_panel_with_report", "write_drop_report",
            "find_turning_points"),
    "correlation": ("log_returns", "rolling_norm_series",
                    "rolling_correlation_matrices", "smooth_series",
                    "period_entry_stats"),
    "spectral": ("lambda1_series", "rolling_market_size", "series_correlation",
                 "rolling_correlation_matrices"),
    "inconsistency": ("rolling_volatility", "inconsistency_norms"),
    "dispersion": ("variance_series", "dispersion_matrix", "hierarchical_cluster",
                   "two_cluster_cut"),
}


class Tracer:
    """In-memory spans with parent links, one per wrapped call."""

    def __init__(self):
        self.spans = []
        self.open = []

    def wrap(self, module, attr, name, flatten=False):
        fn = getattr(module, attr, None)
        if not callable(fn):
            return  # absent in this version of the package: reported as 0
        facts = FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A writer called by another writer is part of that writer's span.
            if flatten and self.open and self.open[-1]["name"].startswith("exports."):
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "name": name,
                    "parent": self.open[-1]["id"] if self.open else None}
            self.spans.append(span)
            self.open.append(span)
            cpu = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = time.process_time() - cpu
                span["rss_mb"] = peak_rss_mb()
                self.open.pop()
            if facts is not None:
                try:
                    span["facts"] = facts(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # A changed signature must not fail the run; its counters read 0.
                    span["facts_error"] = repr(exc)
            return result

        setattr(module, attr, traced)

    def install(self):
        for short, attrs in WRAPPED.items():
            module = importlib.import_module(f"cryptodynamics.{short}")
            for attr in attrs:
                self.wrap(module, attr, f"{short}.{attr}")
        exports = importlib.import_module("cryptodynamics.exports")
        for attr in sorted(vars(exports)):
            if attr.startswith("write_"):
                self.wrap(exports, attr, f"exports.{attr}", flatten=True)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def main(argv):
    launch, result_path, trace_path, mode = argv[:4]
    result = {"setup_s": READY - float(launch)}
    if mode == "all":
        tracer = None
        if trace_path != "-":
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        result["rc"] = cli.main(argv[4:])
        result["wall_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.dump(trace_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
