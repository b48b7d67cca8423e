"""The numpy period KDE against scipy's ``gaussian_kde`` and the dense sum.

scipy whitens grid points and kernel centres separately before it
subtracts them, so it loses a few digits when the pool sits far from zero
relative to its bandwidth; the pools here keep a spread of correlation
entries, where both agree to about 1e-13. Far-tail values near underflow
are compared against the peak (``atol = 1e-12·max``).

``reference.gaussian_density`` is the dense sum over every distinct entry.
The package leaves out kernel terms beyond ``_KDE_REACH`` bandwidths,
each below the smallest normal double, so the two agree to rounding
wherever the density is not itself near underflow.
"""

import datetime as dt
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import gaussian_kde

import cryptodynamics as cd
from cryptodynamics import correlation

import reference
from test_correlation import make_returns
from test_kernel import blas_threads


def densities(estimates, workers=1, block=None):
    """``_gaussian_densities`` on ``workers`` threads, ``block`` grid points per block.

    Without ``block`` the blocks are sized from ``_CHUNK_BYTES`` as in
    production. Without an OpenBLAS setter there is one worker whatever
    ``workers`` says.
    """
    patch = {"_cpu_count": lambda: workers}
    if block is not None:
        widest = max(np.unique(pool).size for pool, _, _ in estimates)
        patch["_CHUNK_BYTES"] = 8 * widest * workers * block
    with mock.patch.multiple(correlation, **patch), correlation._blas_held():
        return correlation._gaussian_densities(estimates)


def assert_matches_scipy(pool, x, y):
    want = gaussian_kde(pool, bw_method="silverman")(x)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12 * want.max())


random_pools = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=300)
# Few distinct values, many repeats: the count weights carry the estimate.
duplicate_pools = st.lists(st.integers(-3, 3), min_size=2, max_size=400).map(
    lambda ks: [k / 3 for k in ks])


@st.composite
def clustered_pools(draw):
    """``(pool, bw)``: 1–4 clusters, each at most 10 bandwidths wide, whose
    gaps exceed 40 bandwidths, so that grid points between them reach one
    cluster or none."""
    bw = draw(st.floats(1e-3, 1.0))
    pool, at = [], 0.0
    for _ in range(draw(st.integers(1, 4))):
        at += draw(st.floats(51.0, 400.0)) * bw
        spread = draw(st.floats(0.0, 5.0)) * bw
        members = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=60))
        pool += [at + spread * m for m in members]
    return np.asarray(pool), bw


def wide_grid(pool, bw):
    """256 points from 60 bandwidths below the pool to 60 above it."""
    return np.linspace(pool.min() - 60.0 * bw, pool.max() + 60.0 * bw, 256)


@settings(max_examples=80, deadline=None)
@given(pool=st.one_of(random_pools, duplicate_pools), block=st.integers(1, 300))
@example(pool=[0.1, 0.9], block=7)
@example(pool=[-1.0, 1.0], block=256)
@example(pool=[0.5] * 50 + [-0.25], block=1)
def test_density_matches_gaussian_kde(pool, block):
    pool = np.asarray(pool)
    assume(pool.std() > 0.05)
    bw = float(np.sqrt(gaussian_kde(pool, bw_method="silverman").covariance[0, 0]))
    grid = np.linspace(pool.min() - 3.0 * bw, pool.max() + 3.0 * bw, 256)
    # Blocks of `block` grid points, so that they straddle the grid unevenly.
    (density,) = densities([(pool, grid, bw)], block=block)
    assert_matches_scipy(pool, grid, density)


@settings(max_examples=80, deadline=None)
@given(case=clustered_pools(), block=st.integers(1, 300))
@example(case=(np.array([0.0, 100.0]), 1.0), block=5)        # empty windows between
@example(case=(np.array([0.0, 0.5, 45.0, 200.0]), 1.0), block=256)
def test_clustered_pools_match_the_dense_sum(case, block):
    pool, bw = case
    grid = wide_grid(pool, bw)
    (got,) = densities([(pool, grid, bw)], block=block)
    want = reference.gaussian_density(pool, grid, bw)
    shown = want >= 1e-280
    np.testing.assert_allclose(got[shown], want[shown], rtol=1e-13, atol=0.0)
    assert np.all(np.abs(got - want)[~shown] <= 1e-280)


@settings(max_examples=40, deadline=None)
@given(cases=st.lists(clustered_pools(), min_size=1, max_size=3),
       blocks=st.tuples(st.integers(1, 97), st.integers(1, 97), st.integers(1, 97)))
@example(cases=[(np.array([0.0, 100.0]), 1.0), (np.array([0.0, 0.25, 1.0]), 0.1)],
         blocks=(3, 10, 97))
def test_density_values_do_not_depend_on_the_workers(cases, blocks):
    # One worker, one point per block, against 1-3 workers whose blocks
    # split the grids unevenly: every value bit for bit.
    estimates = [(pool, wide_grid(pool, bw), bw) for pool, bw in cases]
    want = densities(estimates, 1, 1)
    for workers, block in zip((1, 2, 3), blocks):
        for got, expected in zip(densities(estimates, workers, block), want):
            np.testing.assert_array_equal(got, expected)


def test_a_budget_below_one_point_gives_one_point_blocks():
    pool = np.linspace(-1.0, 1.0, 50)
    estimates = [(pool, np.linspace(-1.5, 1.5, 7), 0.1), (pool[:20], np.linspace(-1.0, 1.0, 5), 0.2)]
    sizes, run = [], correlation._map_chunks

    def recording(work, blocks, buffers):
        sizes.extend(rows.stop - rows.start for _, rows in blocks)
        return run(work, blocks, buffers)

    with mock.patch.multiple(correlation, _CHUNK_BYTES=0, _map_chunks=recording):
        got = densities(estimates, 2)
    assert sizes == [1] * 12
    for y, expected in zip(got, densities(estimates, 2)):
        np.testing.assert_array_equal(y, expected)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 30), days=st.integers(3, 60),
       exclude_diagonal=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=2, days=3, exclude_diagonal=False, seed=0)  # two ones and one entry twice
@example(n=2, days=3, exclude_diagonal=True, seed=0)   # one entry, twice: no density
def test_period_stats_density_matches_gaussian_kde(n, days, exclude_diagonal, seed):
    r = make_returns(np.random.default_rng(seed).standard_normal((n, days)))
    periods = cd.PeriodPartition((cd.Period("all", r.dates[0], r.dates[-1]),))
    (s,) = cd.period_entry_stats(r, periods, exclude_diagonal=exclude_diagonal)
    m = cd.correlation_matrix(r, 1, days).matrix
    pool = m[~np.eye(n, dtype=bool)] if exclude_diagonal else m.ravel()
    if s.std == 0.0:
        assert s.density_x.size == 0
        return
    bw = np.sqrt(gaussian_kde(pool, bw_method="silverman").covariance[0, 0])
    np.testing.assert_allclose(s.density_x[[0, -1]],
                               [pool.min() - 3.0 * bw, pool.max() + 3.0 * bw],
                               rtol=1e-13)
    assert_matches_scipy(pool, s.density_x, s.density_y)


def test_period_stats_hold_blas_at_one_thread_and_restore_it():
    # Every correlation matrix and every density block runs at one
    # OpenBLAS thread, on two workers; the count comes back afterwards,
    # also when a later period raises.
    get, put = blas_threads()
    r = make_returns(np.random.default_rng(5).standard_normal((12, 80)))
    d = r.dates
    first, second = cd.Period("first", d[0], d[39]), cd.Period("second", d[40], d[-1])
    stub = cd.Period("stub", d[-1], d[-1] + dt.timedelta(days=30))
    seen = []
    matrix, map_chunks = correlation.correlation_matrix, correlation._map_chunks

    def recording_matrix(*args):
        seen.append(get())
        return matrix(*args)

    def recording_map(work, chunks, buffers):
        def watched(chunk, bufs):
            seen.append(get())
            work(chunk, bufs)
        assert len(buffers) == 2
        return map_chunks(watched, chunks, buffers)

    before = get()
    try:
        put(3)
        with mock.patch.multiple(correlation, correlation_matrix=recording_matrix,
                                 _map_chunks=recording_map, _cpu_count=lambda: 2,
                                 _CHUNK_BYTES=8 * 67 * 2 * 10):
            stats = cd.period_entry_stats(r, cd.PeriodPartition((first, second)))
            assert get() == 3
            assert len(seen) == 2 + 2 * 26  # two matrices, 26 blocks of <= 10 points each
            with pytest.raises(cd.InputError, match="'stub'"):
                cd.period_entry_stats(r, cd.PeriodPartition((first, stub)))
            assert get() == 3
    finally:
        put(before)
    assert set(seen) == {1}
    assert all(s.density_y.size == 256 for s in stats)


def test_concurrent_densities_and_kernel_passes_share_the_cores_safely():
    # Period densities and a kernel pass at once, each on more workers than
    # cores, threads switching every microsecond: every value comes out as
    # a one-worker run computes it, and the OpenBLAS count ends where it
    # began.
    r = make_returns(np.random.default_rng(6).standard_normal((10, 120)))
    d = r.dates
    periods = cd.PeriodPartition((cd.Period("a", d[0], d[59]), cd.Period("b", d[60], d[-1])))
    with mock.patch.object(correlation, "_cpu_count", lambda: 1):
        want_kde = [s.density_y for s in cd.period_entry_stats(r, periods)]
        want_norm = correlation.rolling_statistics(r, 8)["norm"]
    blas = correlation._openblas_threads()
    before = blas[0]() if blas else None
    results, interval = [], sys.getswitchinterval()

    def densities():
        for _ in range(5):
            results.append(("kde", [s.density_y for s in cd.period_entry_stats(r, periods)]))

    def kernel():
        for _ in range(5):
            results.append(("norm", [correlation.rolling_statistics(r, 8)["norm"]]))

    sys.setswitchinterval(1e-6)
    try:
        # One window per kernel chunk; 3 grid points per block of the 46 centres.
        with mock.patch.multiple(correlation, _cpu_count=lambda: 8,
                                 _CHUNK_BYTES=8 * 46 * 8 * 3):
            callers = [threading.Thread(target=f) for f in (densities, kernel)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 10
    for kind, got in results:
        for values, expected in zip(got, want_kde if kind == "kde" else [want_norm]):
            np.testing.assert_array_equal(values, expected)
    if blas:
        assert blas[0]() == before


def test_period_density_memory_is_bounded():
    # At N = 200 one unchunked (256, ~20100) float temporary is ~40 MiB and
    # the kernel expression holds two of them at once.
    r = make_returns(np.random.default_rng(3).standard_normal((200, 60)))
    periods = cd.PeriodPartition((cd.Period("all", r.dates[0], r.dates[-1]),))
    for workers in (1, 2):
        tracemalloc.start()
        try:
            with mock.patch.object(correlation, "_cpu_count", lambda: workers):
                cd.period_entry_stats(r, periods)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
