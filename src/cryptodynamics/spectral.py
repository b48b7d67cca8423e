"""Market-mode tracking: first eigenvalue of rolling correlation matrices.

The normalized first eigenvalue λ̃₁(t) = λ₁(t)/N of the trailing-window
correlation matrix measures how much of the panel's variance sits on one
collective axis. Since a correlation matrix has trace N, λ̃₁ lies in
[1/N, 1], and because the matrix is symmetric PSD it also equals
‖Ψ‖_op/N.

``lambda1_series`` takes λ₁ from ``correlation.rolling_statistics``, the
chunked window kernel, which runs ``eigvalsh`` chunk by chunk and never
holds more than one chunk of matrices. A window's matrix is (1/S)·Z Zᵀ
with Z its N×S standardized returns; when S < N the kernel solves the
S×S Gram matrix (1/S)·ZᵀZ instead, which has the same λ₁. Memory is
O(c·N·max(N, S) + W·N) for c windows per chunk.

``rolling_market_size`` averages the summed caps over the same windows.
It reads them from the returns panel, where ``log_returns`` put each
asset's cap at the close of each return day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlation import DEFAULT_WINDOW_DAYS, ReturnsPanel, rolling_statistics, window_length
from .errors import DegenerateDataError, InputError, frozen_array, set_fields


@dataclass(frozen=True)
class SpectralSeries:
    """λ̃₁ per window end date."""

    dates: tuple
    lambda1: np.ndarray
    n_assets: int

    def __post_init__(self):
        dates = tuple(self.dates)
        n = int(self.n_assets)
        if n < 1:
            raise InputError("n_assets must be >= 1")
        lam = frozen_array(self.lambda1, "lambda1 values", (len(dates),))
        if np.any((lam < 1.0 / n - 1e-9) | (lam > 1.0 + 1e-9)):
            raise InputError(f"lambda1 values must lie in [1/{n}, 1]")
        set_fields(self, dates=dates, lambda1=lam, n_assets=n)


@dataclass(frozen=True)
class MarketSizeSeries:
    """Trailing-window average of the cross-asset market-cap total."""

    dates: tuple
    values: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        values = frozen_array(self.values, "market sizes", (len(dates),))
        if np.any(values < 0.0):
            raise InputError("market sizes must be non-negative")
        set_fields(self, dates=dates, values=values)


def lambda1_series(returns: ReturnsPanel, window_days=DEFAULT_WINDOW_DAYS,
                   stats=None) -> SpectralSeries:
    """λ̃₁(t) = λ₁/N of the trailing S-day correlation matrix, t = S..T.

    ``stats``, a ``rolling_statistics`` result for the same window length
    that holds "lambda1", stands in for the kernel pass.
    """
    S, dates = window_length(returns, window_days)
    if stats is None:
        stats = rolling_statistics(returns, S, ("lambda1",))
    n = returns.n_assets
    return SpectralSeries(dates, stats["lambda1"] / n, n)


def rolling_market_size(returns: ReturnsPanel,
                        window_days=DEFAULT_WINDOW_DAYS) -> MarketSizeSeries:
    """M̃(t): trailing S-day average of the summed market caps, t = S..T.

    Windows cover the caps at the closes of return days t−S+1..t, as
    ``log_returns`` aligned them, so the output dates align with
    lambda1_series.
    """
    S, dates = window_length(returns, window_days)
    total = returns.market_caps.sum(axis=0)
    return MarketSizeSeries(dates, sliding_window_view(total, S).mean(axis=1))


def series_correlation(x, y) -> float:
    """Pearson correlation of two aligned series."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise InputError("series must be 1-d and equal length")
    if xa.size < 2:
        raise InputError("need at least 2 points to correlate")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(np.sqrt(xc @ xc))
    sy = float(np.sqrt(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateDataError("cannot correlate a constant series")
    return float((xc @ yc) / (sx * sy))
