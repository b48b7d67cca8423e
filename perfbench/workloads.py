"""Seeded synthetic panels for the benchmark workloads.

Every panel comes from ``cryptodynamics.simulated_market``. Panels longer
or wider than the default market get the default phases tiled in blocks
of at least N+2 days, because shorter phase blocks fall back to
uncorrelated noise instead of planting the correlation structure.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from cryptodynamics.panel import Period, PeriodPartition, PricePanel, write_panel
from cryptodynamics.simulate import DEFAULT_PHASES, simulated_market

_END = dt.date(2021, 6, 30)
_LONG_START = dt.date(2014, 12, 5)  # 2400 days up to _END


@dataclass(frozen=True)
class Workload:
    name: str
    n_assets: int
    file_start: dt.date      # first day written to the CSVs
    start: dt.date           # analysis range passed to the CLI
    windows: tuple           # correlation, spectral, inconsistency, volatility days
    tiled: bool              # tile DEFAULT_PHASES instead of the default periods
    late_kept: int = 0       # assets listed late, before the analysis start
    late_dropped: int = 0    # assets listed late, inside the analysis range
    end: dt.date = _END

    def cli_args(self, data_dir, out_dir):
        c, s, i, v = self.windows
        return ["all", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
                "--from", self.start.isoformat(), "--to", self.end.isoformat(),
                "--correlation-days", str(c), "--spectral-days", str(s),
                "--inconsistency-days", str(i), "--volatility-days", str(v)]


WORKLOADS = {
    w.name: w for w in (
        Workload("paper", 52, dt.date(2019, 1, 1), dt.date(2019, 1, 1),
                 (90, 90, 90, 90), tiled=False),
        Workload("wide", 200, dt.date(2019, 7, 1), dt.date(2019, 7, 1),
                 (90, 90, 90, 90), tiled=True),
        Workload("long", 40, _LONG_START, _LONG_START,
                 (60, 120, 30, 90), tiled=True),
        Workload("slice", 150, _LONG_START, dt.date(2020, 7, 1),
                 (90, 90, 90, 90), tiled=True, late_kept=15, late_dropped=15),
    )
}


def tiled_periods(start, end, n_assets):
    """DEFAULT_PHASES cycled over [start, end] in blocks of >= N+2 days."""
    block = max(n_assets + 2, 90)
    labels = list(DEFAULT_PHASES)
    periods = []
    day, k = start, 0
    while day <= end:
        stop = min(day + dt.timedelta(days=block - 1), end)
        periods.append(Period(labels[k % len(labels)], day, stop))
        day, k = stop + dt.timedelta(days=1), k + 1
    return PeriodPartition(tuple(periods))


@dataclass(frozen=True)
class Dataset:
    """A generated panel, its CSVs, and the assets the loader must drop."""

    panel: PricePanel
    price_csv: object
    marketcap_csv: object
    listing: dict        # ticker -> first listed date, late-listed assets only
    dropped: tuple       # tickers listed inside the analysis range


def generate(workload: Workload, seed: int, data_dir) -> Dataset:
    """Write price.csv and marketcap.csv for one (workload, seed)."""
    w = workload
    periods = tiled_periods(w.file_start, w.end, w.n_assets) if w.tiled else None
    panel = simulated_market(seed=seed, n_assets=w.n_assets, start=w.file_start,
                             end=w.end, periods=periods)
    listing = {}
    if w.late_kept + w.late_dropped:
        # Late listings are small caps, as on real exchanges. Which assets
        # list late, and when, follows the seed; how many fall out does not.
        rng = np.random.default_rng(seed)
        picks = rng.choice(np.arange(10, w.n_assets), w.late_kept + w.late_dropped,
                           replace=False)
        before = (w.start - w.file_start).days
        inside = (w.end - w.start).days
        for k, idx in enumerate(picks):
            if k < w.late_kept:
                offset = int(rng.integers(30, before))
            else:
                offset = before + int(rng.integers(1, inside))
            listing[panel.tickers[idx]] = w.file_start + dt.timedelta(days=offset)
    data_dir.mkdir(parents=True, exist_ok=True)
    price_csv = data_dir / "price.csv"
    cap_csv = data_dir / "marketcap.csv"
    write_panel(panel, price_csv, cap_csv)
    if listing:
        _blank_before_listing(panel, listing, price_csv, cap_csv)
    dropped = tuple(t for t in panel.tickers if t in listing and listing[t] > w.start)
    return Dataset(panel, price_csv, cap_csv, listing, dropped)


def _blank_before_listing(panel, listing, price_csv, cap_csv):
    """Empty every cell of a late-listed asset dated before its listing."""
    columns = {panel.tickers.index(t): d for t, d in listing.items()}
    for path in (price_csv, cap_csv):
        lines = path.read_text(encoding="utf-8").splitlines()
        out = [lines[0]]
        for line, day in zip(lines[1:], panel.dates):
            cells = line.split(",")
            for col, listed in columns.items():
                if day < listed:
                    cells[col + 1] = ""
            out.append(",".join(cells))
        path.write_text("\n".join(out) + "\n", encoding="utf-8")
