import datetime as dt
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

import cryptodynamics as cd
from cryptodynamics.dispersion import _condensed_distances, _distributions, _linkage, _nn_chain
from cryptodynamics.exports import write_dendrogram_json

import reference


def days(w):
    return tuple(dt.date(2021, 3, 1) + dt.timedelta(days=k) for k in range(w))


def make_vol(sigmas, S=20):
    sigmas = np.asarray(sigmas, dtype=float)
    return cd.VolatilityPanel(days(sigmas.shape[1]), sigmas, S)


def columns(P):
    """Distance matrix and variances of probability vectors, one per row of P."""
    vol = make_vol(np.asarray(P, dtype=float).T)
    return squareform(_condensed_distances(vol)[1]), cd.variance_series(vol).values


def cluster(D, method="average"):
    """The dendrogram of the square distance matrix D, over the dates ``days(W)``.

    A condensed copy of D goes through ``hierarchical_cluster``'s own
    linkage dispatch, which may overwrite it.
    """
    D = np.asarray(D, dtype=float)
    d = squareform(D, checks=False)  # a new array
    merges = np.empty((0, 4)) if len(D) == 1 else _linkage(d, method)
    return cd.Dendrogram(days(len(D)), merges)


def test_distribution_normalizes_and_dates(small_vol):
    dates, P, excluded = _distributions(small_vol)
    assert dates == small_vol.dates and excluded == ()
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(P >= 0.0)
    k = 17
    column = small_vol.sigmas[:, k]
    np.testing.assert_array_equal(P[k], column / column.sum())


def test_all_zero_day_is_degenerate():
    vol = make_vol(np.array([[0.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(cd.InputError, match="need at least 2 valid dates"):
        _condensed_distances(vol)
    with pytest.raises(cd.InputError, match="need at least 2 valid dates"):
        cd.hierarchical_cluster(vol)
    var = cd.variance_series(vol)
    assert var.dates == vol.dates[1:] and var.excluded_dates == vol.dates[:1]


def test_wasserstein_equals_brute_force_transport():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 6):
        P = rng.dirichlet(np.ones(n), size=40)
        D, _ = columns(P)
        for k in range(0, 40, 2):
            want = reference.wasserstein_by_matching(P[k], P[k + 1])
            assert math.isclose(D[k, k + 1], want, abs_tol=1e-12), (n, k)


def test_wasserstein_is_a_metric_on_sorted_vectors():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        P = rng.dirichlet(np.ones(n), size=12)
        shuffled = np.array([rng.permutation(p) for p in P])
        D, _ = columns(np.concatenate([P, shuffled]))
        top = D[:12, :12]
        assert np.all(top >= 0.0)
        np.testing.assert_array_equal(top, top.T)
        assert np.all(top[:, None, :] <= top[:, :, None] + top[None, :, :] + 1e-12)
        np.testing.assert_allclose(D[:12, 12:], top, rtol=0.0, atol=1e-15)
    D, _ = columns([[0.25, 0.75], [0.75, 0.25]])
    assert D[0, 1] == 0.0


def test_wasserstein_extreme_pair_attains_the_bound():
    for n in (2, 4, 7):
        one_hot = np.zeros(n)
        one_hot[-1] = 1.0
        uniform = np.full(n, 1.0 / n)
        want = (2.0 / n) * (1.0 - 1.0 / n)
        D, _ = columns([one_hot, uniform])
        assert math.isclose(D[0, 1], want, abs_tol=1e-15)


def test_variance_matches_loop_and_equality_cases():
    rng = np.random.default_rng(2)
    for n in range(2, 10):
        P = rng.dirichlet(np.ones(n), size=4)
        _, values = columns(P)
        for p, v in zip(P, values):
            assert math.isclose(v, reference.intra_variance(p), abs_tol=1e-15)
    _, values = columns([np.full(5, 0.2), [0.0, 0.0, 0.0, 0.0, 1.0]])
    assert values[0] == 0.0
    assert math.isclose(values[1], 1.0 - 1.0 / 5, abs_tol=1e-15)


def test_variance_never_exceeds_either_bound():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        P = rng.dirichlet(np.full(n, rng.uniform(0.05, 3.0)), size=5)
        _, values = columns(P)
        assert np.all(values <= 1.0 - 1.0 / n + 1e-12)     # attainable maximum
        assert np.all(values <= 1.0 - 1.0 / n**2 + 1e-12)  # published envelope


def test_condensed_distances_are_pairwise_wasserstein(small_vol):
    dates, distances, excluded = _condensed_distances(small_vol)
    n_dates = len(dates)
    assert distances.shape == (n_dates * (n_dates - 1) // 2,)
    assert excluded == ()
    D = squareform(distances)
    assert small_vol.n_assets == 6  # 720 matchings per pair
    sig = small_vol.sigmas
    idx = [0, 7, n_dates - 1]
    for a in idx:
        for b in idx:
            want = reference.wasserstein_by_matching(sig[:, a] / sig[:, a].sum(),
                                                     sig[:, b] / sig[:, b].sum())
            assert math.isclose(D[a, b], want, abs_tol=1e-12)


def test_distances_exclude_all_zero_days():
    sig = np.array([[0.1, 0.0, 0.3, 0.2],
                    [0.2, 0.0, 0.1, 0.2]])
    vol = make_vol(sig)
    dates, distances, excluded = _condensed_distances(vol)
    assert dates == vol.dates[:1] + vol.dates[2:] and len(distances) == 3
    assert excluded == (vol.dates[1],)
    assert cd.hierarchical_cluster(vol).dates == dates
    var = cd.variance_series(vol)
    assert var.excluded_dates == (vol.dates[1],)
    assert len(var.values) == 3


def test_variance_series_matches_pointwise(small_vol):
    series = cd.variance_series(small_vol)
    sig = small_vol.sigmas
    for k in (0, 13, len(series.values) - 1):
        want = reference.intra_variance(sig[:, k] / sig[:, k].sum())
        assert math.isclose(series.values[k], want, abs_tol=1e-15)


def line_distance_matrix(rng, n):
    x = np.sort(rng.uniform(0.0, 1.0, n))
    D = np.abs(x[:, None] - x[None, :])
    return D


def test_clustering_matches_scipy_linkage():
    for method in ("complete", "average"):
        for seed in range(10):
            r = np.random.default_rng(seed)
            pts = r.uniform(0.0, 1.0, (12, 3))
            d = squareform(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)),
                           checks=False)
            np.testing.assert_array_equal(_nn_chain(d.copy(), method),
                                          scipy_linkage(d, method=method))


def test_clustering_matches_naive_recompute():
    rng = np.random.default_rng(5)
    for method in ("single", "complete", "average"):
        for _ in range(5):
            D = line_distance_matrix(rng, 9)
            dendro = cluster(D, method)
            want = reference.agglomerate(D, method)
            got = dendro.merges.tolist()
            assert len(got) == len(want) == 8
            for (ga, gb, gh, gs), (wa, wb, wh, ws) in zip(got, want):
                assert {ga, gb} == {wa, wb}
                assert math.isclose(gh, wh, abs_tol=1e-12)
                assert gs == ws


def test_clustering_tie_break_is_lowest_pair_first():
    for method in ("single", "complete", "average"):
        dendro = cluster(np.ones((4, 4)) - np.eye(4), method)  # all distances equal
        assert dendro.merges.tolist() == [[0, 1, 1, 2], [2, 4, 1, 3], [3, 5, 1, 4]], method


def test_merge_heights_are_monotone():
    rng = np.random.default_rng(6)
    for method in ("single", "complete", "average"):
        dendro = cluster(line_distance_matrix(rng, 15), method)
        assert np.all(np.diff(dendro.merges[:, 2]) >= -1e-12)


def test_unknown_linkage_rejected():
    with pytest.raises(cd.InputError, match="linkage must be one of"):
        cd.hierarchical_cluster(make_vol(np.ones((2, 3))), "ward")


def test_cut_clusters_extremes_and_determinism():
    rng = np.random.default_rng(7)
    dendro = cluster(line_distance_matrix(rng, 8), "average")
    np.testing.assert_array_equal(cd.cut_clusters(dendro, 1), np.zeros(8, int))
    np.testing.assert_array_equal(cd.cut_clusters(dendro, 8), np.arange(8))
    labels = cd.cut_clusters(dendro, 3)
    assert labels[0] == 0  # cluster containing leaf 0 is always label 0
    assert set(labels) == {0, 1, 2}
    with pytest.raises(cd.InputError):
        cd.cut_clusters(dendro, 0)
    with pytest.raises(cd.InputError):
        cd.cut_clusters(dendro, 9)


def test_cut_matches_scipy_fcluster_partition():
    for seed in range(6):
        rng = np.random.default_rng(seed + 100)
        pts = rng.uniform(0.0, 1.0, (14, 2))
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(D, 0.0)
        dendro = cluster(D, "average")
        Z = scipy_linkage(squareform(D), method="average")
        for k in (2, 3, 5):
            ours = cd.cut_clusters(dendro, k)
            theirs = fcluster(Z, t=k, criterion="maxclust")
            pairs_ours = {(i, j) for i, j in itertools.combinations(range(14), 2)
                          if ours[i] == ours[j]}
            pairs_theirs = {(i, j) for i, j in itertools.combinations(range(14), 2)
                            if theirs[i] == theirs[j]}
            assert pairs_ours == pairs_theirs, (seed, k)


@pytest.mark.parametrize("method", ["single", "complete", "average"])
def test_cut_with_tied_heights_matches_naive_replay(method):
    rng = np.random.default_rng(9)
    for _ in range(4):
        x = np.round(rng.uniform(0.0, 1.0, 16), 1)  # many exactly tied distances
        w = len(x)
        dendro = cluster(np.abs(x[:, None] - x[None, :]), method)
        heights = dendro.merges[:, 2]
        assert len(set(heights)) < len(heights) - 5  # the cuts fall inside ties
        pairs = [(int(a), int(b)) for a, b in dendro.merges[:, :2].tolist()]
        for k in range(1, w + 1):
            labels = cd.cut_clusters(dendro, k)
            assert set(labels.tolist()) == set(range(k)), (method, k)
            groups = [frozenset(np.flatnonzero(labels == c).tolist()) for c in range(k)]
            smallest = [min(g) for g in groups]
            assert smallest == sorted(smallest), (method, k)
            assert set(groups) == reference.cut_partition(pairs, w, k), (method, k)


@pytest.mark.parametrize("method", ["single", "complete", "average"])
def test_one_and_two_leaf_dendrograms(method):
    one = cluster(np.zeros((1, 1)), method)
    assert one.n_leaves == 1 and one.merges.shape == (0, 4)
    np.testing.assert_array_equal(cd.cut_clusters(one, 1), [0])
    with pytest.raises(cd.InputError):
        cd.two_cluster_cut(one)
    two = cluster([[0.0, 0.3], [0.3, 0.0]], method)
    assert two.merges.tolist() == [[0, 1, 0.3, 2]]
    np.testing.assert_array_equal(cd.two_cluster_cut(two), [0, 1])
    vol = make_vol([[1.0, 1.0], [3.0, 1.0]])  # p = (1/4, 3/4) and (1/2, 1/2): W1 = 1/4
    two = cd.hierarchical_cluster(vol, method)
    assert two.dates == vol.dates and two.merges.tolist() == [[0, 1, 0.25, 2]]


def test_two_cluster_cut_separates_planted_regimes():
    rng = np.random.default_rng(8)
    left = rng.uniform(0.0, 0.05, 25)
    right = rng.uniform(0.9, 1.0, 10)
    x = np.concatenate([left, right])
    dendro = cluster(np.abs(x[:, None] - x[None, :]), "average")
    labels = cd.two_cluster_cut(dendro)
    np.testing.assert_array_equal(labels, cd.cut_clusters(dendro, 2))
    assert set(labels[:25]) == {0}
    assert set(labels[25:]) == {1}


def test_dendrogram_tree_shape(tmp_path):
    D = np.array([[0.0, 1.0, 4.0],
                  [1.0, 0.0, 3.0],
                  [4.0, 3.0, 0.0]])
    dendro = cluster(D, "single")
    path = tmp_path / "dendrogram.json"
    write_dendrogram_json(dendro, path)
    data = json.loads(path.read_text())
    assert data == {
        "dates": ["2021-03-01", "2021-03-02", "2021-03-03"],
        "merges": [[0, 1, 1.0, 2],
                   [2, 3, 3.0, 3]],  # single linkage: min(4, 3)
        "n_leaves": 3,
    }


def test_distances_match_sorted_row_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7):
        sig = rng.uniform(0.0, 1.0, (n, 9))
        sig[:, 4] = 0.0  # excluded, so condensed order skips a date
        vol = make_vol(sig)
        distances = _condensed_distances(vol)[1]
        P = [sig[:, k] / sig[:, k].sum() for k in range(9) if k != 4]
        np.testing.assert_allclose(distances, reference.sorted_l1_distances(P),
                                   rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("method", ["single", "complete", "average"])
@pytest.mark.parametrize("w", [2, 3, 40, 300])
def test_clustering_is_scipy_linkage_bit_for_bit(method, w):
    rng = np.random.default_rng(w)
    vol = make_vol(rng.uniform(0.0, 1.0, (5, w)))
    got = cd.hierarchical_cluster(vol, method)
    assert got.dates == vol.dates
    np.testing.assert_array_equal(
        got.merges, scipy_linkage(_condensed_distances(vol)[1], method=method))
    if method == "single":
        return  # scipy's own path: the port's ties are checked below
    x = rng.integers(0, 11, w).astype(float)
    tied = squareform(np.abs(x[:, None] - x[None, :]))
    if w >= 40:
        assert len(np.unique(tied)) <= 11  # W(W-1)/2 distances, at most 11 values
    for d in (tied, np.full(w * (w - 1) // 2, 0.375)):  # integer ties, all equal
        np.testing.assert_array_equal(_nn_chain(d.copy(), method),
                                      scipy_linkage(d, method=method))


def test_dendrogram_is_the_read_only_array_linkage_returned(monkeypatch):
    import scipy.cluster.hierarchy as hierarchy

    returned = []

    def recording(*args, **kwargs):
        returned.append(scipy_linkage(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(hierarchy, "linkage", recording)
    vol = make_vol(np.random.default_rng(13).uniform(0.1, 1.0, (4, 6)))
    dendro = cd.hierarchical_cluster(vol, "single")
    assert dendro.merges is returned[0]
    assert dendro.merges.dtype == np.float64 and not dendro.merges.flags.writeable


def test_dendrogram_validation():
    good = [[0, 1, 0.1, 2], [2, 3, 0.2, 3]]
    assert cd.Dendrogram(days(3), good).merges.shape == (2, 4)
    for w, bad in ((0, np.empty((0, 4))), (3, good[:1]), (3, [row[:3] for row in good]),
                   (3, [[0, 1, 0.2, 2], [2, 3, 0.1, 3]])):
        with pytest.raises(cd.InputError):
            cd.Dendrogram(days(w), bad)


@pytest.mark.parametrize("bad_row", [[0, 7, 0.1, 2], [0, 3, 0.1, 2], [-1, 1, 0.1, 2]])
def test_dendrogram_rejects_an_id_out_of_range(bad_row):
    # row k may join only the leaves and the clusters of rows before it
    with pytest.raises(cd.InputError, match=r"\[0, 3 \+ k\)"):
        cd.Dendrogram(days(3), [bad_row, [2, 3, 0.2, 3]])


def test_dendrogram_rejects_a_fractional_id():
    with pytest.raises(cd.InputError, match="whole numbers"):
        cd.Dendrogram(days(3), [[0, 1.5, 0.1, 2], [2, 3, 0.2, 3]])


def test_dendrogram_rejects_an_id_merged_twice():
    with pytest.raises(cd.InputError, match="only once"):
        cd.Dendrogram(days(3), [[0, 1, 0.1, 2], [0, 2, 0.2, 2]])


@pytest.mark.parametrize("sizes", [(2, 4), (3, 4), (1, 2)])
def test_dendrogram_rejects_a_size_other_than_its_children_sum(sizes):
    first, last = sizes
    with pytest.raises(cd.InputError, match="sum of its clusters' sizes"):
        cd.Dendrogram(days(3), [[0, 1, 0.1, first], [2, 3, 0.2, last]])


def test_dispersion_layer_memory_is_condensed():
    # The layer holds one condensed array of W(W-1)/2 doubles, which average
    # linkage overwrites in place; a square W x W matrix alone would take
    # 8 W^2 bytes. tracemalloc counts numpy's arrays.
    w, n = 1500, 20
    vol = make_vol(np.random.default_rng(12).uniform(0.1, 1.0, (n, w)))
    tracemalloc.start()
    try:
        dendro = cd.hierarchical_cluster(vol, "average")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dendro.n_leaves == w
    assert peak < 0.55 * w * w * 8


_HIGH_WATER = """
import datetime as dt
import sys

import numpy as np

import cryptodynamics as cd


def high_water():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))


w, method = int(sys.argv[1]), sys.argv[2]
dates = tuple(dt.date(2000, 1, 1) + dt.timedelta(days=k) for k in range(w))
vol = cd.VolatilityPanel(dates, np.random.default_rng(14).uniform(0.1, 1.0, (20, w)), 20)
before = high_water()
cd.hierarchical_cluster(vol, method)
print(high_water() - before)
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc (Linux)")
@pytest.mark.parametrize("method", ["complete", "average"])
def test_clustering_high_water_memory_is_one_condensed_array(method):
    # VmHWM of a fresh process also counts what tracemalloc does not see,
    # such as a copy of the distances made in compiled code.
    w = 3000  # 36 MB of condensed distances
    src = Path(cd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _HIGH_WATER, str(w), method], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert int(out) < 1.25 * 8 * (w * (w - 1) // 2)
