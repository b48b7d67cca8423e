import datetime as dt
import math

import numpy as np
import pytest

import cryptodynamics as cd
from cryptodynamics.correlation import chunk_lambda1

import reference
from test_correlation import make_returns


def test_spectrum_matches_numpy_reference():
    n = 6
    for S in (24, 4):  # stack route, Gram route
        X = np.random.default_rng(1).standard_normal((n, S + 11))
        series = cd.lambda1_series(make_returns(X), S)
        want = np.linalg.eigvalsh(reference.correlation_stack(X, S))[:, -1]
        np.testing.assert_allclose(series.lambda1 * n, want, rtol=0.0, atol=1e-12)


def test_large_negative_eigenvalue_is_an_error():
    bad = np.array([[[1.0, 2.0], [2.0, 1.0]]])  # eigenvalues 3 and -1
    with pytest.raises(cd.NumericalError):
        chunk_lambda1(bad, (dt.date(2020, 1, 1),))


def test_tiny_negative_eigenvalues_are_not_an_error():
    almost = np.array([[[1.0, 1.0], [1.0, 1.0 - 1e-12]]])
    assert np.linalg.eigvalsh(almost)[0, 0] < 0.0
    lam1 = chunk_lambda1(almost, (dt.date(2020, 1, 1),))
    assert lam1.shape == (1,)
    assert lam1[0] == pytest.approx(2.0, abs=1e-11)


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
        lam1 = np.linalg.eigvalsh(m.matrix)[-1] / n
        assert math.isclose(series.lambda1[t - S], lam1, abs_tol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spectral_series_rejects_non_finite_lambda1(bad):
    dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
    with pytest.raises(cd.InputError, match="finite"):
        cd.SpectralSeries(dates, [bad, 0.5], 2)


def test_spectral_series_bounds():
    # rounding may leave λ₁/N 1e-9 outside [1/N, 1], and no further; one
    # asset is the smallest panel, and with none there is no 1/N
    dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
    edges = [1.0 / 2 - 1e-9, 1.0 + 1e-9]
    assert cd.SpectralSeries(dates, edges, 2).lambda1.tolist() == edges
    assert cd.SpectralSeries(dates, [1.0, 1.0], 1).n_assets == 1
    with pytest.raises(cd.InputError, match="^n_assets must be >= 1$"):
        cd.SpectralSeries(dates, [1.0, 1.0], 0)


def test_power_iteration_agrees_with_eigensolver():
    rng = np.random.default_rng(2)
    for seed in range(20):
        n = int(rng.integers(2, 12))
        X = np.random.default_rng(seed + 10).standard_normal((n, 4 * n))
        m = reference.pearson_matrix(X)
        top = reference.power_iteration(m)
        want = float(np.linalg.eigvalsh(m)[-1])
        assert abs(top - want) < 1e-10 * n


def test_power_iteration_handles_identity_like_cases():
    assert reference.power_iteration(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert reference.power_iteration(np.array([[2.5]])) == 2.5
    assert reference.power_iteration(np.zeros((3, 3))) == 0.0


def test_identity_verification_runs_on_every_window(small_returns):
    S = 30
    series = cd.lambda1_series(small_returns, S)
    stack = reference.correlation_stack(small_returns.returns, S)
    n = small_returns.n_assets
    for w in range(stack.shape[0]):
        opnorm = reference.power_iteration(stack[w]) / n
        assert abs(series.lambda1[w] - opnorm) < 1e-8
        assert 0.0 < opnorm <= 1.0 + 1e-12


def test_market_size_is_windowed_mean_of_cap_totals(small_panel, small_returns):
    S = 30
    series = cd.rolling_market_size(small_returns, S)
    total = small_panel.market_caps.sum(axis=0)
    assert series.dates[0] == small_panel.dates[S]
    assert series.dates[-1] == small_panel.dates[-1]
    for k in (0, 57, len(series.dates) - 1):
        want = total[k + 1:k + 1 + S].mean()
        assert math.isclose(series.values[k], want, rel_tol=1e-12)


def test_market_size_window_bounds(small_panel, small_returns):
    # S = 2 is the shortest window, and S return days are the fewest
    total = small_panel.market_caps.sum(axis=0)
    assert math.isclose(cd.rolling_market_size(small_returns, 2).values[0],
                        total[1:3].mean(), rel_tol=1e-12)
    with pytest.raises(cd.InputError, match="rolling window must be >= 2 days, got 1"):
        cd.rolling_market_size(small_returns, 1)
    short = cd.log_returns(cd.PricePanel(
        small_panel.dates[:31], small_panel.tickers, small_panel.closes[:, :31],
        small_panel.market_caps[:, :31]))
    assert short.n_days == 30
    assert cd.rolling_market_size(short, 30).dates == (short.dates[-1],)
    with pytest.raises(cd.InputError, match="need at least 31 return days, have 30"):
        cd.rolling_market_size(short, 31)


def test_market_sizes_may_be_zero_but_not_negative():
    days = (dt.date(2021, 1, 1), dt.date(2021, 1, 2))
    assert cd.MarketSizeSeries(days, [0.0, 1.0]).values[0] == 0.0
    with pytest.raises(cd.InputError, match="non-negative"):
        cd.MarketSizeSeries(days, [-5e-324, 1.0])


def test_market_size_dates_align_with_lambda1(small_returns):
    lam = cd.lambda1_series(small_returns, 30)
    siz = cd.rolling_market_size(small_returns, 30)
    assert lam.dates == siz.dates


def test_series_correlation_matches_numpy():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200)
    y = 0.3 * x + rng.standard_normal(200)
    got = cd.series_correlation(x, y)
    want = float(np.corrcoef(x, y)[0, 1])
    assert math.isclose(got, want, abs_tol=1e-12)
    assert cd.series_correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)
    assert cd.series_correlation([1.0, 2.0], [3.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)


def test_series_correlation_rejects_degenerate_input():
    with pytest.raises(cd.DegenerateDataError):
        cd.series_correlation(np.ones(10), np.arange(10.0))
    with pytest.raises(cd.InputError):
        cd.series_correlation(np.arange(5.0), np.arange(6.0))
    with pytest.raises(cd.InputError, match="at least 2 points"):
        cd.series_correlation([1.0], [2.0])
