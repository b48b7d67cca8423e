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

``inconsistency_norms`` is the one path. It takes the three (N, W)
feature tracks of all W windows and never forms an N×N matrix. With
D = |fᵢ − fⱼ|, max(D) is the feature's range, so A = 1 − |sᵢ − sⱼ| for
the min-max scaled feature s = (f − min f)/(max f − min f); a window of
equal values scales to all zeros, which is the all-ones affinity. For
u = mᵢ − mⱼ (scaled caps) and v = xᵢ − xⱼ (scaled returns or volatilities)

    |A^M − A^X| = ||u| − |v|| = |u + v| + |u − v| − |u| − |v|,

and u ± v are gaps of the one coordinate m ± x. Each of the four sums
over all pairs is then a sorted pair sum, P(z) = Σᵢⱼ |zᵢ − zⱼ| =
2·Σₖ (2k − N + 1)·z₍ₖ₎ over z sorted ascending, so

    ν = (P(m + x) + P(m − x) − P(m) − P(x)) / N²

costs O(N log N) per window instead of O(N²). Subtracting the minimum
before dividing by the range matters: caps near 1e12 with a spread of a
few thousand would otherwise lose about seven digits to the offset. The
windows go through in blocks of about ``_BLOCK_BYTES`` per (windows, N)
array, so beside the feature tracks the temporaries stay small.

The volatilities are a ``VolatilityPanel`` from a pass of the chunked
window kernel in ``correlation`` (``rolling_volatility`` makes one for
them alone), and the caps come from the returns panel, where
``log_returns`` put each asset's cap at the close of each return day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .correlation import (DEFAULT_WINDOW_DAYS, ReturnsPanel, VolatilityPanel,
                          rolling_statistics, window_length)
from .errors import InputError, frozen_array, set_fields

# Bytes of one (windows, N) array of a block of windows. A block holds three
# such arrays; whole (W, N) temporaries would stay in the allocator's heap
# after this layer and raise the peak RSS of the layers that run later.
_BLOCK_BYTES = 64 << 10


@dataclass(frozen=True)
class InconsistencySeries:
    """ν norms of A^M − A^R and A^M − A^Σ per window end date."""

    dates: tuple
    nu_MR: np.ndarray
    nu_MSigma: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        norms = {name: frozen_array(getattr(self, name), f"{name} values", (len(dates),))
                 for name in ("nu_MR", "nu_MSigma")}
        for name, series in norms.items():
            if np.any((series < -1e-12) | (series > 1.0 + 1e-12)):
                raise InputError(f"{name} values must lie in [0, 1]")
        set_fields(self, dates=dates, **norms)


def rolling_volatility(returns: ReturnsPanel,
                       window_days=DEFAULT_WINDOW_DAYS) -> VolatilityPanel:
    """Population standard deviation of each asset's trailing S returns."""
    return rolling_statistics(returns, window_days, ("sigma",))["sigma"]


def _window_feature_tracks(returns, vol):
    """Cap means, return sums and volatilities per window of ``vol``'s length S, all (N, W)."""
    S, dates = window_length(returns, vol.window_days)
    if vol.dates != dates:
        raise InputError("volatility panel does not align with the returns panel")
    cap_means = sliding_window_view(returns.market_caps, S, axis=1).mean(axis=2)
    ret_sums = sliding_window_view(returns.returns, S, axis=1).sum(axis=2)
    return cap_means, ret_sums, vol.sigmas


def _unit_scaled(feature):
    """(W, N) copy of an (N, W) feature block, each window mapped onto [0, 1].

    The window minimum is subtracted before the division by the range; a
    window whose values are all equal maps to zeros.
    """
    scaled = np.array(feature.T, order="C")
    lo = scaled.min(axis=1, keepdims=True)
    span = scaled.max(axis=1, keepdims=True) - lo
    scaled -= lo
    scaled /= np.where(span > 0.0, span, 1.0)
    return scaled


def _pair_sums(z):
    """Σᵢⱼ |zᵢ − zⱼ| over the N entries of each row of a (W, N) array.

    Sorts and then overwrites ``z``. Sorted ascending, z₍ₖ₎ is the larger
    entry of its k pairs with a lower index and the smaller of its
    N − 1 − k pairs with a higher one, so each row costs one sort and one
    (pairwise-summed) weighted sum.
    """
    n = z.shape[1]
    z.sort(axis=1)
    z *= 2.0 * np.arange(n) - (n - 1)
    return 2.0 * z.sum(axis=1)


def inconsistency_norms(returns: ReturnsPanel, vol: VolatilityPanel) -> InconsistencySeries:
    """ν^{INC} series for size-vs-returns and size-vs-volatility, t = S = vol.window_days..T."""
    cap_means, ret_sums, sigmas = _window_feature_tracks(returns, vol)
    n, n_windows = cap_means.shape
    step = max(1, _BLOCK_BYTES // (8 * n))
    norms = np.empty((2, n_windows))
    for start in range(0, n_windows, step):
        block = slice(start, start + step)
        m = _unit_scaled(cap_means[:, block])
        scratch = m.copy()
        p_m = _pair_sums(scratch)
        for k, feature in enumerate((ret_sums, sigmas)):
            x = _unit_scaled(feature[:, block])
            total = _pair_sums(np.add(m, x, out=scratch))
            total += _pair_sums(np.subtract(m, x, out=scratch))
            total -= p_m
            total -= _pair_sums(x)
            norms[k, block] = total
    # rounding can leave a few ulps below zero where the rankings agree
    np.maximum(norms, 0.0, out=norms)
    norms /= n * n
    return InconsistencySeries(vol.dates, norms[0], norms[1])
