import datetime as dt
import math

import numpy as np
import pytest

import cryptodynamics as cd
from cryptodynamics.correlation import window_chunks
from cryptodynamics.spectral import operator_norm_power_iteration

from test_correlation import make_returns


def random_correlation(rng, n, s=None):
    X = rng.standard_normal((n, s or 4 * n))
    return cd.correlation_matrix(make_returns(X), 1, s or 4 * n)


def test_spectrum_sorted_sums_to_n():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        m = random_correlation(rng, n)
        spec = cd.eigen_spectrum(m)
        assert spec.shape == (n,)
        assert np.all(np.diff(spec) <= 0.0)
        assert np.all(spec >= 0.0)
        assert math.isclose(spec.sum(), n, abs_tol=1e-9)  # trace identity


def test_spectrum_matches_numpy_reference():
    rng = np.random.default_rng(1)
    m = random_correlation(rng, 6)
    want = np.sort(np.linalg.eigvalsh(m.matrix))[::-1]
    np.testing.assert_allclose(cd.eigen_spectrum(m), np.clip(want, 0.0, None),
                               rtol=0.0, atol=1e-12)


def test_large_negative_eigenvalue_is_an_error():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(cd.NumericalError):
        cd.eigen_spectrum(bad)


def test_tiny_negative_eigenvalues_are_clamped():
    almost = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-12]])
    spec = cd.eigen_spectrum(almost)
    assert spec[-1] == 0.0


def test_lambda1_series_matches_per_window_spectra(small_returns):
    S = 30
    series = cd.lambda1_series(small_returns, S)
    n = small_returns.n_assets
    assert len(series.dates) == small_returns.n_days - S + 1
    assert series.dates[0] == small_returns.dates[S - 1]
    assert np.all(series.lambda1 >= 1.0 / n - 1e-12)
    assert np.all(series.lambda1 <= 1.0 + 1e-12)
    for t in (S, 101, small_returns.n_days):
        m = cd.correlation_matrix(small_returns, t - S + 1, t)
        lam1 = cd.eigen_spectrum(m)[0] / n
        assert math.isclose(series.lambda1[t - S], lam1, abs_tol=1e-12)


def test_lambda1_series_can_keep_full_spectra(small_returns):
    series = cd.lambda1_series(small_returns, 30, keep_spectra=True)
    assert series.full_spectrum_available
    assert series.spectra.shape == (len(series.dates), small_returns.n_assets)
    np.testing.assert_allclose(series.spectra.sum(axis=1),
                               small_returns.n_assets, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(series.spectra[:, 0] / small_returns.n_assets,
                               series.lambda1, rtol=0.0, atol=1e-15)


def test_power_iteration_agrees_with_eigensolver():
    rng = np.random.default_rng(2)
    for seed in range(20):
        n = int(rng.integers(2, 12))
        m = random_correlation(np.random.default_rng(seed + 10), n)
        top = operator_norm_power_iteration(m.matrix)
        want = float(np.linalg.eigvalsh(m.matrix)[-1])
        assert abs(top - want) < 1e-10 * n


def test_power_iteration_handles_identity_like_cases():
    assert operator_norm_power_iteration(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm_power_iteration(np.array([[2.5]])) == 2.5
    assert operator_norm_power_iteration(np.zeros((3, 3))) == 0.0


def test_identity_verification_runs_on_every_window(small_returns):
    stack = np.concatenate([s for *_, s in window_chunks(small_returns, 30)])
    for w in range(0, stack.shape[0], 25):
        lam1, opnorm, diff = cd.verify_operator_norm_identity(stack[w])
        assert diff < 1e-8
        assert 0.0 < lam1 <= 1.0 + 1e-12 and 0.0 < opnorm <= 1.0 + 1e-12


def test_identity_violation_raises():
    with pytest.raises(cd.NumericalError):
        cd.verify_operator_norm_identity(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_market_size_is_windowed_mean_of_cap_totals(small_panel):
    S = 30
    series = cd.rolling_market_size(small_panel, S)
    total = small_panel.market_caps.sum(axis=0)
    assert series.dates[0] == small_panel.dates[S]
    assert series.dates[-1] == small_panel.dates[-1]
    for k in (0, 57, len(series.dates) - 1):
        want = total[k + 1:k + 1 + S].mean()
        assert math.isclose(series.values[k], want, rel_tol=1e-12)


def test_market_size_dates_align_with_lambda1(small_panel, small_returns):
    lam = cd.lambda1_series(small_returns, 30)
    siz = cd.rolling_market_size(small_panel, 30)
    assert lam.dates == siz.dates


def test_series_correlation_matches_numpy():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200)
    y = 0.3 * x + rng.standard_normal(200)
    got = cd.series_correlation(x, y)
    want = float(np.corrcoef(x, y)[0, 1])
    assert math.isclose(got, want, abs_tol=1e-12)
    assert cd.series_correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)


def test_series_correlation_rejects_degenerate_input():
    with pytest.raises(cd.DegenerateDataError):
        cd.series_correlation(np.ones(10), np.arange(10.0))
    with pytest.raises(cd.InputError):
        cd.series_correlation(np.arange(5.0), np.arange(6.0))
