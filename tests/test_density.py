"""The numpy period KDE against scipy's ``gaussian_kde``.

scipy whitens grid points and kernel centres separately before it
subtracts them, so it loses a few digits when the pool sits far from zero
relative to its bandwidth; the pools here keep a spread of correlation
entries, where both agree to about 1e-13. Far-tail values near underflow
are compared against the peak (``atol = 1e-12·max``).
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import gaussian_kde

import cryptodynamics as cd
from cryptodynamics import correlation
from cryptodynamics.correlation import _gaussian_density

from test_correlation import make_returns


def assert_matches_scipy(pool, x, y):
    want = gaussian_kde(pool, bw_method="silverman")(x)
    np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12 * want.max())


random_pools = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=300)
# Few distinct values, many repeats: the count weights carry the estimate.
duplicate_pools = st.lists(st.integers(-3, 3), min_size=2, max_size=400).map(
    lambda ks: [k / 3 for k in ks])


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
    centres = np.unique(pool).size
    # Blocks of `block` grid points, so that they straddle the grid unevenly.
    with mock.patch.object(correlation, "_CHUNK_BYTES", 8 * centres * block):
        density = _gaussian_density(pool, grid, bw)
    assert_matches_scipy(pool, grid, density)


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


def test_period_density_memory_is_bounded():
    # At N = 200 one unchunked (256, ~20100) float temporary is ~40 MiB and
    # the kernel expression holds two of them at once.
    r = make_returns(np.random.default_rng(3).standard_normal((200, 60)))
    periods = cd.PeriodPartition((cd.Period("all", r.dates[0], r.dates[-1]),))
    tracemalloc.start()
    try:
        cd.period_entry_stats(r, periods)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
