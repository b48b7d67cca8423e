"""Volatility dispersion: how evenly total market volatility is spread.

Each day's rolling volatilities normalize to a probability vector p(t).
Two summaries are tracked: the intra-volatility variance Σ(p_i − 1/N)²
(zero at the uniform spread, at most 1 − 1/N at a one-shot vector), and
the pairwise L1-Wasserstein distance between days, computed by the
sorted-vector quantile formula — exact for equal-size point-mass
measures. ``variance_series`` and ``hierarchical_cluster`` normalize
every day at once and leave out the days whose volatilities are all zero.

This is the one layer whose memory grows as W² in the number of days,
so the distances are held once, in condensed form: the W(W−1)/2
upper-triangle entries in row-major order, as ``pdist`` returns them.
``hierarchical_cluster`` builds them and owns the buffer: average and
complete linkage run scipy's nearest-neighbour-chain algorithm in numpy,
overwriting the distances as clusters merge, so no copy is made (scipy's
``linkage`` copies its input for these methods). The merges, ties
included, are the ones scipy's ``linkage`` returns, bit for bit. Single
linkage stays on ``scipy.cluster.hierarchy.linkage``, whose
minimum-spanning-tree path reads the distances without copying them;
only that path imports ``scipy.cluster``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .correlation import VolatilityPanel
from .errors import InputError, frozen_array, set_fields

LINKAGES = ("average", "complete", "single")


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Agglomerative merge history over the W leaves ``dates``.

    ``merges`` is the read-only (W−1, 4) float64 linkage matrix, laid out
    as ``scipy.cluster.hierarchy.linkage`` returns it: row k is
    ``[cluster_a, cluster_b, height, size]`` and creates cluster W+k,
    where leaf i, the day ``dates[i]``, is cluster i. Ids and sizes are
    whole numbers stored as floats.
    """

    dates: tuple
    merges: np.ndarray

    @property
    def n_leaves(self) -> int:
        return len(self.dates)

    def __post_init__(self):
        dates = tuple(self.dates)
        w = len(dates)
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
        set_fields(self, dates=dates, merges=merges)


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
    """MemoryError naming the size of the condensed distances, the layer's one W² array."""
    need = 8 * (w * (w - 1) // 2)
    return MemoryError(f"estimated dispersion working set {need / 2**20:.1f} MiB (W={w})")


def _condensed_distances(vol):
    """(valid dates, condensed distances, excluded dates) of a volatility panel."""
    dates, P, excluded = _distributions(vol)
    if len(dates) < 2:
        raise InputError(f"need at least 2 valid dates, have {len(dates)}")
    try:
        distances = pdist(np.sort(P, axis=1), "cityblock")
    except MemoryError:
        raise _out_of_memory(len(dates)) from None
    distances /= vol.n_assets
    return dates, distances, excluded


def variance_series(vol: VolatilityPanel) -> VarianceSeries:
    """Var(p(t)) per valid date; degenerate dates are omitted and reported."""
    dates, P, excluded = _distributions(vol)
    values = ((P - 1.0 / vol.n_assets) ** 2).sum(axis=1)
    return VarianceSeries(dates, values, excluded)


def hierarchical_cluster(vol: VolatilityPanel, linkage="average") -> Dendrogram:
    """Agglomerative clustering of the valid dates by Wasserstein distance.

    The leaves are the dates whose volatilities are not all zero, and the
    merges are those of ``scipy.cluster.hierarchy.linkage`` on their
    distances, bit for bit. Single, complete and (size-weighted) average
    linkage give monotone merge heights, so the result is a valid
    dendrogram. The distances are built here and consumed by the
    clustering; running out of memory raises MemoryError with their size.
    """
    if linkage not in LINKAGES:
        raise InputError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    dates, distances, _ = _condensed_distances(vol)
    try:
        merges = _linkage(distances, linkage)
    except MemoryError:
        raise _out_of_memory(len(dates)) from None
    return Dendrogram(dates, merges)


def _linkage(distances, method):
    """The linkage matrix of condensed ``distances``, which average and complete overwrite."""
    if method == "single":
        # imported here so that only single linkage pays its import cost
        from scipy.cluster.hierarchy import linkage as scipy_linkage

        return scipy_linkage(distances, method="single")
    return _nn_chain(distances, method)


def _nn_chain(d, linkage):
    """scipy's ``nn_chain`` for "average" or "complete" linkage, run in place on ``d``.

    ``d`` holds condensed distances and is overwritten. Every step is
    scipy's: the chain grows from the lowest live slot to each one's
    nearest neighbour, where a tie goes to the previous chain element and
    otherwise to the lowest slot, until two slots are mutual neighbours.
    Those merge into the higher slot, whose distances take the
    Lance–Williams update, (nx·dx + ny·dy)/(nx + ny) or fmax(dx, dy). The
    merges are then sorted by height, stably, and relabelled by union-find
    as scipy's ``label`` does.
    """
    w = (1 + math.isqrt(1 + 8 * len(d))) // 2
    base = np.arange(w) * (2 * w - 3 - np.arange(w)) // 2 - 1  # d[base[a] + b] is (a, b), a < b
    live, live_base = np.arange(w), base.copy()  # the live slots, ascending, in live[:n]
    buffers = np.empty((2, w), dtype=np.intp)

    def row(x, p, q, out):
        """Positions in ``d`` of the distances from x to live[:p], all below x, and live[q:n]."""
        np.add(live_base[:p], x, out[:p])
        np.add(live[q:n], base[x], out[p:p + n - q])
        return out[:p + n - q]

    size = [1] * w
    merges, chain = [], []
    for n in range(w, 1, -1):
        chain = chain or [int(live[0])]
        while True:
            x = chain[-1]
            p = live[:n].searchsorted(x)
            dist = d[row(x, p, p + 1, buffers[0])]  # skips x, at live[p]
            j = dist.argmin()
            y, height = int(live[j + (j >= p)]), dist[j]
            if len(chain) > 1:
                prev = chain[-2]
                to_prev = d[base[min(x, prev)] + max(x, prev)]
                if to_prev <= height:
                    y, height = prev, to_prev
                    break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        merges.append((x, y, height))
        size[y] = nx + ny
        p = live[:n].searchsorted(x)
        live[p:n - 1], live_base[p:n - 1] = live[p + 1:n], live_base[p + 1:n]
        n -= 1
        q = live[:n].searchsorted(y)
        ix = row(x, p, p, buffers[0])  # x is dead: (x, i) for every live i, y at q
        iy = row(y, q, q, buffers[1])
        iy[q] = ix[q]  # y's own entry is sent to (x, y), which no one reads again
        if linkage == "average":
            d[iy] = (nx * d[ix] + ny * d[iy]) / (nx + ny)
        else:
            d[iy] = np.fmax(d[ix], d[iy])

    parent = list(range(2 * w - 1))
    cluster_size = [1] * w + [0] * (w - 1)

    def find(a):
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    labelled = []
    for k, (x, y, height) in enumerate(sorted(merges, key=lambda merge: merge[2])):
        a, b = sorted((find(x), find(y)))
        parent[a] = parent[b] = w + k
        cluster_size[w + k] = cluster_size[a] + cluster_size[b]
        labelled.append((a, b, height, cluster_size[w + k]))
    return np.array(labelled, dtype=float).reshape(-1, 4)


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
