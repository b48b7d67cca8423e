"""Output checks for one `cryptodynamics all` run.

The expected values are recomputed directly with numpy from the generated
panel, independently of the package's kernels, on a fixed sample of
windows: the Pearson matrix and its norm ν, λ₁/N by ``eigvalsh``,
ν^INC, Var(p), and the Wasserstein distance behind leaf-leaf merges of
the dendrogram. Values are compared with math.isclose(rel_tol=1e-8,
abs_tol=1e-12); the exports print 12 significant digits, so formatting
alone moves a value by at most 5e-13 relative.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REL_TOL = 1e-8
ABS_TOL = 1e-12
SAMPLE_WINDOWS = 5
SAMPLE_MERGES = 5

# The CLI's default periods; a density file is written for each one that
# covers at least two return days of the analysis range.
PERIODS = (
    ("Pre-COVID", dt.date(2019, 1, 1), dt.date(2020, 2, 28)),
    ("Peak COVID", dt.date(2020, 3, 1), dt.date(2020, 5, 30)),
    ("Post-COVID", dt.date(2020, 5, 31), dt.date(2020, 8, 31)),
    ("Bull", dt.date(2020, 9, 1), dt.date(2021, 4, 14)),
    ("Bear", dt.date(2021, 4, 15), dt.date(2021, 6, 30)),
)
FIXED_FILES = {
    "resolved_config.txt", "drop_report.json", "norm_series.csv",
    "norm_series.json", "turning_points.csv", "period_stats.csv",
    "period_stats.json", "lambda1_series.csv", "market_size.csv",
    "correlation_summary.json", "inconsistency_norms.csv",
    "variance_series.csv", "dendrogram.csv", "dendrogram.json",
    "two_cluster_cut.csv",
}


def digest(out_dir):
    """SHA-256 over every file name and its bytes in the output directory."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return list(reader)


def _sample(n_windows):
    return sorted({int(round(x)) for x in np.linspace(0, n_windows - 1, SAMPLE_WINDOWS)})


def _affinity(feature):
    d = np.abs(feature[:, None] - feature[None, :])
    top = d.max()
    return np.ones_like(d) if top == 0.0 else 1.0 - d / top


class Checker:
    """Expected outputs of one workload's dataset, recomputed once."""

    def __init__(self, workload, dataset):
        panel = dataset.panel
        keep = [k for k, t in enumerate(panel.tickers) if t not in dataset.dropped]
        lo = panel.dates.index(workload.start)
        hi = panel.dates.index(workload.end) + 1
        closes = panel.closes[keep, lo:hi]
        caps = panel.market_caps[keep, lo:hi]
        self.n = len(keep)
        self.dropped = set(dataset.dropped)
        self.dates = [d.isoformat() for d in panel.dates[lo + 1:hi]]  # return days
        returns = np.diff(np.log(closes), axis=1)
        T = returns.shape[1]
        c, s, i, v = workload.windows
        self.expect = {}  # file -> {row index: (date, values)}

        def windows(S):
            return [(w, self.dates[w + S - 1]) for w in _sample(T - S + 1)]

        self.counts = {"norm_series.csv": T - c + 1, "lambda1_series.csv": T - s + 1,
                       "inconsistency_norms.csv": T - i + 1,
                       "variance_series.csv": T - v + 1,
                       "two_cluster_cut.csv": T - v + 1,
                       "dendrogram.csv": T - v}
        self.expect["norm_series.csv"] = {
            w: (d, np.abs(np.corrcoef(returns[:, w:w + c])).mean())
            for w, d in windows(c)}
        self.expect["lambda1_series.csv"] = {
            w: (d, np.linalg.eigvalsh(np.corrcoef(returns[:, w:w + s]))[-1] / self.n)
            for w, d in windows(s)}
        inc = {}
        for w, d in windows(i):
            r = returns[:, w:w + i]
            a_m = _affinity(caps[:, w + 1:w + 1 + i].mean(axis=1))
            a_r = _affinity(r.sum(axis=1))
            a_s = _affinity(r.std(axis=1))
            inc[w] = (d, np.abs(a_m - a_r).mean(), np.abs(a_m - a_s).mean())
        self.expect["inconsistency_norms.csv"] = inc
        sigma = sliding_window_view(returns, v, axis=1).std(axis=2)  # (N, W)
        self.p = (sigma / sigma.sum(axis=0)).T                       # (W, N)
        self.expect["variance_series.csv"] = {
            w: (d, ((self.p[w] - 1.0 / self.n) ** 2).sum()) for w, d in windows(v)}
        first, last = dt.date.fromisoformat(self.dates[0]), workload.end
        self.files = FIXED_FILES | {
            "density_" + re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_") + ".csv"
            for label, p_start, p_end in PERIODS
            if (min(p_end, last) - max(p_start, first)).days + 1 >= 2}

    def check(self, out_dir):
        """Problems found in one run's output directory (empty when correct)."""
        present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
        if not self.files <= present:
            return [f"missing outputs {sorted(self.files - present)}"]
        problems = []
        drops = json.loads((out_dir / "drop_report.json").read_text(encoding="utf-8"))
        if {d["ticker"] for d in drops} != self.dropped:
            problems.append(f"drop report names {sorted(d['ticker'] for d in drops)}")
        tables = {name: _rows(out_dir / name) for name in self.counts}
        for name, count in self.counts.items():
            if len(tables[name]) != count:
                problems.append(f"{name}: {len(tables[name])} rows, expected {count}")
        if problems:
            return problems
        for name, expected in self.expect.items():
            for w, (date, *values) in expected.items():
                row = tables[name][w]
                got = [float(x) for x in row[1:1 + len(values)]]
                if row[0] != date or not all(
                        math.isclose(g, e, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                        for g, e in zip(got, values)):
                    problems.append(f"{name} row {w}: {row} != {date} {values}")
        problems += self._check_dendrogram(tables["dendrogram.csv"],
                                           tables["two_cluster_cut.csv"])
        return problems

    def _check_dendrogram(self, merges, cut):
        leaves = len(cut)
        problems = []
        sizes = {k: 1 for k in range(leaves)}
        heights = []
        leaf_pairs = []
        for k, (step, a, b, height, size) in enumerate(merges):
            a, b, height = int(a), int(b), float(height)
            if int(step) != k or a not in sizes or b not in sizes or a == b:
                return [f"dendrogram step {k}: bad ids {a}, {b}"]
            merged = sizes.pop(a) + sizes.pop(b)
            if int(size) != merged:
                problems.append(f"dendrogram step {k}: size {size} != {merged}")
            sizes[leaves + k] = merged
            heights.append(height)
            if a < leaves and b < leaves and len(leaf_pairs) < SAMPLE_MERGES:
                leaf_pairs.append((a, b, height))
        if any(y < x for x, y in zip(heights, heights[1:])):
            problems.append("dendrogram heights decrease")
        for a, b, height in leaf_pairs:
            expected = np.abs(np.sort(self.p[a]) - np.sort(self.p[b])).mean()
            if not math.isclose(height, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"merge {a}-{b}: height {height} != Wasserstein {expected}")
        labels = {label for _, label in cut}
        if not labels <= {"0", "1"}:
            problems.append(f"two-cluster labels {sorted(labels)}")
        if [d for d, _ in cut] != self.dates[len(self.dates) - leaves:]:
            problems.append("two-cluster cut dates do not match the windows")
        return problems
