"""Behavioural-inconsistency tracking across attribute similarity structures.

For each day t three pairwise distance matrices are built over the same
trailing window: average market size, total log return, and rolling
volatility. Each is rescaled to an affinity matrix A = 1 − D/max(D), and
the elementwise differences A^M − A^R and A^M − A^Σ are summarized by the
normalized L1 norm. A large norm means the market ranks assets very
differently by size than by returns (or volatility) — a behavioural
inconsistency.

Conventions: D^M averages the cap differences over the window (1/S
factor); D^R is the plain sum of return differences (no 1/S — a
total-return discrepancy); D^Σ compares the window volatilities directly.

``inconsistency_norms`` is the one path: it takes the three per-window
features for every window at once, then builds each window's affinities
straight from them. The volatilities come from ``rolling_volatility``, a
wrapper of the chunked window kernel in ``correlation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlation import DEFAULT_WINDOW_DAYS, ReturnsPanel, rolling_statistics
from .errors import InputError
from .panel import PricePanel


@dataclass(frozen=True)
class VolatilityPanel:
    """Per-asset trailing-window population volatilities, dated t = S..T."""

    dates: tuple
    sigmas: np.ndarray
    window_days: int

    def __post_init__(self):
        dates = tuple(self.dates)
        sigmas = np.ascontiguousarray(self.sigmas, dtype=float)
        if sigmas.ndim != 2 or sigmas.shape[1] != len(dates):
            raise InputError(
                f"sigmas shape {sigmas.shape} does not match {len(dates)} dates"
            )
        if np.any(sigmas < 0.0) or not np.all(np.isfinite(sigmas)):
            raise InputError("volatilities must be finite and non-negative")
        if int(self.window_days) < 2:
            raise InputError("window_days must be >= 2")
        sigmas.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "window_days", int(self.window_days))

    @property
    def n_assets(self):
        return self.sigmas.shape[0]

    @property
    def n_dates(self):
        return len(self.dates)


@dataclass(frozen=True)
class InconsistencySeries:
    """ν norms of A^M − A^R and A^M − A^Σ per window end date."""

    dates: tuple
    nu_MR: np.ndarray
    nu_MSigma: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        mr = np.ascontiguousarray(self.nu_MR, dtype=float)
        ms = np.ascontiguousarray(self.nu_MSigma, dtype=float)
        if mr.shape != (len(dates),) or ms.shape != (len(dates),):
            raise InputError("norm series lengths must match dates")
        for name, series in (("nu_MR", mr), ("nu_MSigma", ms)):
            if np.any(series < -1e-12) or np.any(series > 1.0 + 1e-12):
                raise InputError(f"{name} values must lie in [0, 1]")
        mr.flags.writeable = False
        ms.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "nu_MR", mr)
        object.__setattr__(self, "nu_MSigma", ms)


def rolling_volatility(returns: ReturnsPanel, window_days=DEFAULT_WINDOW_DAYS,
                       stats=None) -> VolatilityPanel:
    """Population standard deviation of each asset's trailing S returns.

    ``stats``, a ``rolling_statistics`` result for the same window length
    that holds "sigma", stands in for the kernel pass.
    """
    S = int(window_days)
    if S < 2:
        raise InputError(f"window must be >= 2 days, got {S}")
    if returns.n_days < S:
        raise InputError(f"need at least {S} return days, have {returns.n_days}")
    if stats is None:
        stats = rolling_statistics(returns, S, ("sigma",))
    return VolatilityPanel(returns.dates[S - 1:], stats["sigma"], S)


def _window_feature_tracks(panel, returns, vol, window_days):
    """Cap means, return sums and volatilities per window, all (N, W)."""
    S = int(window_days)
    if vol.window_days != S:
        raise InputError(
            f"volatility panel was built with window {vol.window_days}, expected {S}"
        )
    if returns.n_days != panel.n_days - 1 or returns.dates[0] != panel.dates[1]:
        raise InputError("returns panel does not derive from the given price panel")
    if vol.n_dates != returns.n_days - S + 1 or vol.dates[0] != returns.dates[S - 1]:
        raise InputError("volatility panel does not align with the returns panel")
    cap_means = sliding_window_view(panel.market_caps[:, 1:], S, axis=1).mean(axis=2)
    ret_sums = sliding_window_view(returns.returns, S, axis=1).sum(axis=2)
    return cap_means, ret_sums, vol.sigmas


def _affinity(feature):
    """A = 1 − D/max(D) for D = |fᵢ − fⱼ|; an all-zero D maps to all ones.

    The all-ones convention is the limit of vanishing distances: assets
    that cannot be told apart are maximally similar.
    """
    d = np.abs(feature[:, None] - feature[None, :])
    top = d.max()
    return np.ones_like(d) if top == 0.0 else 1.0 - d / top


def _nu(signed_matrix):
    n = signed_matrix.shape[0]
    return float(np.abs(signed_matrix).sum() / (n * n))


def inconsistency_norms(panel: PricePanel, returns: ReturnsPanel,
                        vol: VolatilityPanel,
                        window_days=DEFAULT_WINDOW_DAYS) -> InconsistencySeries:
    """ν^{INC} series for size-vs-returns and size-vs-volatility, t = S..T."""
    S = int(window_days)
    cap_means, ret_sums, sigmas = _window_feature_tracks(panel, returns, vol, S)
    n_windows = cap_means.shape[1]
    nu_mr = np.empty(n_windows)
    nu_ms = np.empty(n_windows)
    for w in range(n_windows):
        a_m = _affinity(cap_means[:, w])
        a_r = _affinity(ret_sums[:, w])
        a_s = _affinity(sigmas[:, w])
        nu_mr[w] = _nu(a_m - a_r)
        nu_ms[w] = _nu(a_m - a_s)
    return InconsistencySeries(vol.dates, nu_mr, nu_ms)
