"""Volatility dispersion: how evenly total market volatility is spread.

Each day's rolling volatilities normalize to a probability vector p(t).
Two summaries are tracked: the intra-volatility variance Σ(p_i − 1/N)²
(zero at the uniform spread, at most 1 − 1/N at a one-shot vector), and
the pairwise L1-Wasserstein distance between days, computed by the
sorted-vector quantile formula — exact for equal-size point-mass
measures. ``variance_series`` and ``dispersion_matrix`` are the one path
to each: both normalize every day at once and leave out, and report,
the days whose volatilities are all zero. The day-by-day distances feed
agglomerative hierarchical clustering by
``scipy.cluster.hierarchy.linkage``; tied distances merge in the order
scipy picks, which is deterministic, and the dendrogram is the linkage
matrix scipy returns.

This is the one layer whose memory grows as W² in the number of days,
so the distances stay in the condensed form that ``linkage`` reads: the
W(W−1)/2 upper-triangle entries in row-major order, and clustering
takes nothing else. A square matrix would need symmetry and a zero
diagonal checked, and a condensed copy made for ``linkage``; in condensed
form the two hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import InputError, frozen_array, set_fields
from .inconsistency import VolatilityPanel

LINKAGES = ("average", "complete", "single")


@dataclass(frozen=True)
class DispersionMatrix:
    """Pairwise Wasserstein distances between the valid dates' p-vectors.

    ``distances`` is condensed: the W(W−1)/2 entries above the diagonal of
    the W×W distance matrix in row-major order, as ``scipy.spatial.distance``
    ``pdist`` returns them (``squareform`` expands them).
    """

    dates: tuple
    distances: np.ndarray
    n_assets: int
    excluded_dates: tuple = ()

    def __post_init__(self):
        dates = tuple(self.dates)
        w = len(dates)
        n = int(self.n_assets)
        # the condensed form of a W x W matrix
        d = frozen_array(self.distances, "dispersion distances", (w * (w - 1) // 2,))
        bound = (2.0 / n) * (1.0 - 1.0 / n) + 1e-12
        if np.any(d < 0.0) or np.any(d > bound):
            raise InputError(f"entries must lie in [0, (2/{n})(1 - 1/{n})]")
        set_fields(self, dates=dates, distances=d, n_assets=n,
                   excluded_dates=tuple(self.excluded_dates))


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Agglomerative merge history over W leaves.

    ``merges`` is the read-only (W−1, 4) float64 linkage matrix that
    ``scipy.cluster.hierarchy.linkage`` returns: row k is ``[cluster_a,
    cluster_b, height, size]`` and creates cluster W+k, where leaves are
    0..W−1. Ids and sizes are whole numbers stored as floats.
    """

    n_leaves: int
    merges: np.ndarray

    def __post_init__(self):
        w = int(self.n_leaves)
        if w < 1:
            raise InputError("dendrogram needs at least one leaf")
        merges = frozen_array(self.merges, "linkage matrix", (w - 1, 4))
        if np.any(np.diff(merges[:, 2]) < -1e-12):
            raise InputError("merge heights must be non-decreasing")
        ids = merges[:, :2]
        if np.any(ids != np.floor(ids)) or np.any(ids < 0) or np.any(
                ids >= w + np.arange(w - 1)[:, None]):
            raise InputError("row k of the merges must join cluster ids, "
                             f"whole numbers in [0, {w} + k)")
        ids = ids.astype(np.intp)
        if np.bincount(ids.ravel(), minlength=1).max() > 1:
            raise InputError("each cluster id may be merged only once")
        sizes = np.concatenate((np.ones(w), merges[:, 3]))
        if np.any(merges[:, 3] != sizes[ids].sum(axis=1)):
            raise InputError("each merge's size must be the sum of its clusters' sizes")
        set_fields(self, n_leaves=w, merges=merges)


@dataclass(frozen=True)
class VarianceSeries:
    dates: tuple
    values: np.ndarray
    excluded_dates: tuple = ()

    def __post_init__(self):
        dates = tuple(self.dates)
        values = frozen_array(self.values, "variances", (len(dates),))
        if np.any(values < 0.0):
            raise InputError("variances must be non-negative")
        set_fields(self, dates=dates, values=values,
                   excluded_dates=tuple(self.excluded_dates))


def _distributions(vol):
    """(valid dates, stacked p rows, excluded dates) for a volatility panel."""
    totals = vol.sigmas.sum(axis=0)
    valid = totals > 0.0
    excluded = tuple(d for d, ok in zip(vol.dates, valid) if not ok)
    dates = tuple(d for d, ok in zip(vol.dates, valid) if ok)
    P = (vol.sigmas[:, valid] / totals[valid]).T  # (W_valid, N)
    return dates, P, excluded


def _out_of_memory(w):
    """MemoryError naming the condensed distances' size, twice for ``linkage``'s copy."""
    need = 2 * 8 * (w * (w - 1) // 2)
    return MemoryError(f"estimated dispersion working set {need / 2**20:.1f} MiB (W={w})")


def dispersion_matrix(vol: VolatilityPanel) -> DispersionMatrix:
    """All-pairs Wasserstein distances between daily volatility spreads.

    Dates whose volatilities are all zero have no distribution and are
    excluded (and reported on the result). The distances come back
    condensed; running out of memory raises MemoryError with the estimated
    working set.
    """
    dates, P, excluded = _distributions(vol)
    if len(dates) < 2:
        raise InputError(f"need at least 2 valid dates, have {len(dates)}")
    try:
        distances = pdist(np.sort(P, axis=1), "cityblock")
    except MemoryError:
        raise _out_of_memory(len(dates)) from None
    distances /= vol.n_assets
    return DispersionMatrix(dates, distances, vol.n_assets, excluded)


def variance_series(vol: VolatilityPanel) -> VarianceSeries:
    """Var(p(t)) per valid date; degenerate dates are omitted and reported."""
    dates, P, excluded = _distributions(vol)
    values = ((P - 1.0 / vol.n_assets) ** 2).sum(axis=1)
    return VarianceSeries(dates, values, excluded)


def hierarchical_cluster(D: DispersionMatrix, linkage="average") -> Dendrogram:
    """Agglomerative clustering of the condensed distances by scipy's ``linkage``.

    Single, complete and (size-weighted) average linkage give monotone
    merge heights, so the result is a valid dendrogram. Tied distances
    merge in scipy's deterministic order.
    """
    if linkage not in LINKAGES:
        raise InputError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    w = len(D.dates)
    if w == 1:
        return Dendrogram(1, np.empty((0, 4)))
    # imported here so that commands which never cluster skip its import cost
    from scipy.cluster.hierarchy import linkage as scipy_linkage

    try:
        Z = scipy_linkage(D.distances, method=linkage)
    except MemoryError:
        raise _out_of_memory(w) from None
    return Dendrogram(w, Z)


def cut_clusters(dendro: Dendrogram, k: int) -> np.ndarray:
    """Flat labels for exactly k clusters (undo the last k−1 merges).

    Labels are 0..k−1, assigned in order of each cluster's smallest leaf
    index, so the labeling is deterministic.
    """
    w = dendro.n_leaves
    if not 1 <= k <= w:
        raise InputError(f"k must lie in 1..{w}, got {k}")
    members = {i: [i] for i in range(w)}  # cluster id -> leaves
    for step, (a, b) in enumerate(dendro.merges[: w - k, :2].tolist()):
        members[w + step] = members.pop(int(a)) + members.pop(int(b))
    groups = sorted((min(leaves), leaves) for leaves in members.values())
    labels = np.empty(w, dtype=int)
    for label, (_, leaves) in enumerate(groups):
        labels[leaves] = label
    return labels


def two_cluster_cut(dendro: Dendrogram) -> np.ndarray:
    """The two subtrees of the final merge, as flat labels."""
    return cut_clusters(dendro, 2)
