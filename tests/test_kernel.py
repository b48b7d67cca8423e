"""The chunked window kernel against per-window oracles.

The chunk length is forced small here, so windows straddle chunk
boundaries; in production it is sized from bytes and most test panels
would fit in one chunk.
"""

import datetime as dt
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryptodynamics as cd
from cryptodynamics import correlation
from cryptodynamics.correlation import chunk_spectra

import reference
from test_correlation import make_returns


def chunked(n, S, c):
    """Patch the kernel so that it walks c windows per chunk."""
    return mock.patch.object(correlation, "_CHUNK_BYTES", 8 * n * max(n, S) * c)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), S=st.integers(2, 12), W=st.integers(1, 30),
       c=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(n=1, S=2, W=5, c=2, seed=0)
@example(n=2, S=2, W=7, c=3, seed=1)    # W not a multiple of the chunk
@example(n=5, S=3, W=4, c=10, seed=2)   # W smaller than one chunk, S < N
@example(n=4, S=9, W=12, c=4, seed=3)   # S >= N, W a multiple of the chunk
def test_kernel_matches_per_window_oracles(n, S, W, c, seed):
    X = np.random.default_rng(seed).standard_normal((n, S + W - 1))
    r = make_returns(X)
    stack = reference.correlation_stack(X, S)
    with chunked(n, S, c):
        assert correlation.chunk_windows(n, S) == c
        nu = cd.rolling_norm_series(r, S)
        lam = cd.lambda1_series(r, S, keep_spectra=True)
        vol = cd.rolling_volatility(r, S)

    assert nu.dates == lam.dates == vol.dates == r.dates[S - 1:]
    want_nu = [reference.abs_entry_mean(m) for m in stack]
    np.testing.assert_allclose(nu.raw, want_nu, rtol=0.0, atol=1e-12)

    want_lam = np.linalg.eigvalsh(stack)[:, -1] / n
    np.testing.assert_allclose(lam.lambda1, want_lam, rtol=0.0, atol=1e-12)
    assert np.all(lam.spectra >= 0.0)
    assert np.all(np.diff(lam.spectra, axis=1) <= 0.0)
    np.testing.assert_allclose(lam.spectra.sum(axis=1), n, rtol=0.0, atol=1e-9)
    np.testing.assert_array_equal(lam.spectra[:, 0] / n, lam.lambda1)

    np.testing.assert_allclose(vol.sigmas, reference.rolling_std(X, S),
                               rtol=1e-12, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), S=st.integers(2, 12), W=st.integers(1, 30),
       c=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(n=4, S=9, W=12, c=4, seed=3)   # stack route
@example(n=7, S=2, W=9, c=2, seed=4)    # Gram route
def test_products_are_exactly_symmetric(n, S, W, c, seed):
    # The kernel never symmetrises A·Aᵀ or Aᵀ·A, so both must come out of
    # the matrix product symmetric bit for bit.
    X = np.random.default_rng(seed).standard_normal((n, S + W - 1))
    r = make_returns(X)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        solved.append(a.copy())
        return eigvalsh(a)

    with chunked(n, S, c), mock.patch.object(np.linalg, "eigvalsh", recording):
        stacks = [chunk[3] for chunk in correlation.window_chunks(r, S)]
        cd.lambda1_series(r, S)
    assert len(stacks) == len(solved) == -(-W // c)
    assert all(m.shape[1:] == (min(n, S),) * 2 for m in solved)
    single = cd.correlation_matrix(r, W, W + S - 1).matrix
    for m in stacks + solved + [single[None]]:
        np.testing.assert_array_equal(m, m.transpose(0, 2, 1))


@pytest.mark.parametrize("n, S", [(4, 9), (8, 5)])  # stack route, Gram route
def test_shared_pass_equals_separate_passes(n, S):
    X = np.random.default_rng(4).standard_normal((n, 60))
    r = make_returns(X)
    with chunked(n, S, 7):
        stats = correlation.rolling_statistics(r, S, ("norm", "spectra", "sigma"))
        nu = cd.rolling_norm_series(r, S)
        lam = cd.lambda1_series(r, S, keep_spectra=True)
        vol = cd.rolling_volatility(r, S)
    assert sorted(stats) == ["lambda1", "norm", "sigma", "spectra"]
    np.testing.assert_array_equal(cd.rolling_norm_series(r, S, stats).raw, nu.raw)
    shared = cd.lambda1_series(r, S, keep_spectra=True, stats=stats)
    np.testing.assert_array_equal(shared.lambda1, lam.lambda1)
    np.testing.assert_array_equal(shared.spectra, lam.spectra)
    np.testing.assert_array_equal(cd.rolling_volatility(r, S, stats).sigmas, vol.sigmas)


def test_rolling_statistics_rejects_unknown_names():
    r = make_returns(np.random.default_rng(7).standard_normal((3, 20)))
    for wanted in ((), ("norm", "mean")):
        with pytest.raises(cd.InputError, match="wanted must name some of"):
            correlation.rolling_statistics(r, 5, wanted)


def test_gram_route_pads_with_zeros():
    X = np.random.default_rng(5).standard_normal((8, 40))
    lam = cd.lambda1_series(make_returns(X), 5, keep_spectra=True)
    assert np.all(lam.spectra[:, 5:] == 0.0)  # the N − S padded zeros
    assert np.all(lam.spectra[:, :4] > 1e-6)   # centred windows have rank S − 1


def test_zero_variance_names_lowest_asset_and_its_first_window():
    # A2 dies in the first chunk, A1 only in the last: the error names A1,
    # as a scan of the whole (N, W) variance array in row-major order would.
    X = np.random.default_rng(6).standard_normal((3, 40))
    X[2, 0:6] = 0.5
    X[1, 30:36] = -0.25
    X[1, 34:40] = -0.25
    r = make_returns(X)
    S = 5
    for c in (1, 4, 100):
        with chunked(3, S, c):
            with pytest.raises(cd.DegenerateDataError) as info:
                cd.rolling_norm_series(r, S)
        assert str(info.value) == (
            f"asset 'A1' has zero variance on return days [31:35] "
            f"(window ending {r.dates[34]})"
        )


def near_constant_panel(n, S, W, kind):
    """Random returns with asset A1 constant at 0.25 up to a tiny change.

    "spike" moves A1 by 1e-12 on return day S only, which every window
    holds while W <= S; "noise" adds 1e-12-sized noise on every day.
    """
    rng = np.random.default_rng(10)
    X = 0.02 * rng.standard_normal((n, S + W - 1))
    X[1] = 0.25
    if kind == "spike":
        X[1, S - 1] += 1e-12
    else:
        X[1] += 1e-12 * rng.standard_normal(S + W - 1)
    return X


@pytest.mark.parametrize("n, S", [(4, 9), (8, 5)])  # stack route, Gram route
@pytest.mark.parametrize("kind", ["spike", "noise"])
def test_near_constant_asset_matches_reference(n, S, kind):
    X = near_constant_panel(n, S, S, kind)
    r = make_returns(X)
    with chunked(n, S, 3):
        nu = cd.rolling_norm_series(r, S).raw
        lam = cd.lambda1_series(r, S).lambda1
    assert np.all((nu >= 0.0) & (nu <= 1.0))
    assert np.all((lam >= 1.0 / n) & (lam <= 1.0))
    stack = reference.correlation_stack(X, S)
    want_nu = [reference.abs_entry_mean(m) for m in stack]
    np.testing.assert_allclose(nu, want_nu, rtol=0.0, atol=1e-12)
    want_lam = np.linalg.eigvalsh(stack)[:, -1] / n
    np.testing.assert_allclose(lam, want_lam, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, S", [(4, 9), (8, 5)])
def test_exactly_constant_window_still_raises(n, S):
    X = near_constant_panel(n, S, S + 1, "spike")  # the last window misses the move
    r = make_returns(X)
    for fn in (cd.rolling_norm_series, cd.lambda1_series):
        with pytest.raises(cd.DegenerateDataError, match=(
                rf"asset 'A1' has zero variance on return days \[{S + 1}:{2 * S}\]")):
            fn(r, S)


def test_zero_variance_does_not_stop_volatility():
    X = np.random.default_rng(8).standard_normal((2, 20))
    X[0, 3:10] = 1.0
    vol = cd.rolling_volatility(make_returns(X), 5)
    assert vol.sigmas[0, 3] == 0.0 and np.all(vol.sigmas[1] > 0.0)


def test_negative_eigenvalue_names_the_window_date():
    dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
    Z = np.zeros((2, 2, 3))  # S >= N: the stack itself is solved
    with pytest.raises(cd.NumericalError, match="window ending 2020-01-02"):
        chunk_spectra(Z, stack, dates)


def test_kernel_memory_does_not_grow_with_window_count():
    X = np.random.default_rng(9).standard_normal((60, 3000))
    r = make_returns(X)
    S = 30
    W = X.shape[1] - S + 1
    tracemalloc.start()
    try:
        cd.rolling_norm_series(r, S)
        cd.lambda1_series(r, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < W * 60 * 60 * 8 / 4
