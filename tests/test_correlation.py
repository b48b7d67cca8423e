import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import savgol_filter

import cryptodynamics as cd
from cryptodynamics.correlation import chunk_norms, fill_chunk, window_chunks

import reference
from conftest import SMALL_PERIODS, SMALL_PHASES


def make_returns(X):
    """Wrap a raw (N, T) array in a ReturnsPanel with synthetic dates and unit caps."""
    X = np.asarray(X, dtype=float)
    n, t = X.shape
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k + 1) for k in range(t))
    tickers = tuple(f"A{i}" for i in range(n))
    return cd.ReturnsPanel(dates, tickers, X, np.ones((n, t)))


def test_log_returns_by_hand():
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(3))
    tickers = ("AAA",)
    closes = np.array([[1.0, math.e, math.e**3]])
    panel = cd.PricePanel(dates, tickers, closes, np.ones((1, 3)))
    r = cd.log_returns(panel)
    np.testing.assert_allclose(r.returns, [[1.0, 2.0]], atol=1e-15)
    assert r.dates == panel.dates[1:]


def test_log_returns_keep_the_caps_at_each_return_days_close(small_panel, small_returns):
    caps = small_returns.market_caps
    assert caps.shape == small_returns.returns.shape
    assert caps.tobytes() == small_panel.market_caps[:, 1:].tobytes()
    assert not caps.flags.writeable


def test_correlation_matches_pairwise_pearson():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((5, 40))
        m = cd.correlation_matrix(make_returns(X), 1, 40)
        np.testing.assert_allclose(m.matrix, reference.pearson_matrix(X),
                                   rtol=0.0, atol=1e-12)


def test_correlation_window_is_one_based_inclusive():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((4, 60))
    m = cd.correlation_matrix(make_returns(X), 11, 50)
    np.testing.assert_allclose(m.matrix, reference.pearson_matrix(X[:, 10:50]),
                               rtol=0.0, atol=1e-12)
    assert m.window == (11, 50)


def test_correlation_rejects_bad_windows():
    X = np.random.default_rng(0).standard_normal((3, 20))
    r = make_returns(X)
    with pytest.raises(cd.InputError):
        cd.correlation_matrix(r, 0, 10)
    with pytest.raises(cd.InputError):
        cd.correlation_matrix(r, 5, 21)
    with pytest.raises(cd.InputError):
        cd.correlation_matrix(r, 7, 7)


def test_constant_asset_raises_and_names_the_ticker():
    X = np.random.default_rng(1).standard_normal((3, 30))
    X[1] = 0.25
    with pytest.raises(cd.DegenerateDataError, match="A1"):
        cd.correlation_matrix(make_returns(X), 1, 30)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_correlation_entries_always_admissible(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    s = int(rng.integers(3, 25))
    X = rng.standard_normal((n, s))
    m = cd.correlation_matrix(make_returns(X), 1, s).matrix
    assert np.all(np.abs(m) <= 1.0 + 1e-12)
    np.testing.assert_array_equal(np.diag(m), np.ones(n))
    np.testing.assert_array_equal(m, m.T)


def test_l1_norm_matches_loop():
    rng = np.random.default_rng(3)
    stack = np.array([reference.pearson_matrix(rng.standard_normal((6, 50)))
                      for _ in range(5)])
    want = [reference.abs_entry_mean(m) for m in stack]
    np.testing.assert_allclose(chunk_norms(stack), want, rtol=0.0, atol=1e-14)


def test_rolling_stack_agrees_with_individual_windows():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4, 70))
    r = make_returns(X)
    S = 20
    stacks = []
    for rows in window_chunks(r, S, 2, ("norm",)):
        m = rows.stop - rows.start
        stacks.append(np.empty((m, 4, 4)))
        fill_chunk(r, S, rows, np.empty((m, 4, S)), stacks[-1])
    stack = np.concatenate(stacks)
    assert stack.shape[0] == 70 - S + 1
    np.testing.assert_allclose(stack, reference.correlation_stack(X, S),
                               rtol=0.0, atol=1e-13)
    for t in (S, 37, 70):  # one window, on the kernel's path
        np.testing.assert_array_equal(cd.correlation_matrix(r, t - S + 1, t).matrix,
                                      stack[t - S])


def test_norm_series_is_l1_of_each_window():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((5, 45))
    r = make_returns(X)
    ns = cd.rolling_norm_series(r, 15)
    stack = reference.correlation_stack(X, 15)
    assert ns.dates[0] == r.dates[14] and ns.dates[-1] == r.dates[-1]
    for k in range(stack.shape[0]):
        assert math.isclose(ns.raw[k], reference.abs_entry_mean(stack[k]),
                            abs_tol=1e-14)
    assert np.all(ns.raw >= 0.0) and np.all(ns.raw <= 1.0)


def test_smoothing_matches_scipy_on_interior_points():
    rng = np.random.default_rng(5)
    y = np.cumsum(rng.standard_normal(200)) * 0.05 + 1.0
    for window, degree in ((31, 3), (11, 2), (7, 1)):
        ours = cd.smooth_series(y, window, degree)
        scipys = savgol_filter(y, window, degree)
        half = window // 2
        np.testing.assert_allclose(ours[half:-half], scipys[half:-half],
                                   rtol=0.0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(half=st.integers(0, 20), degree=st.integers(0, 5), extra=st.integers(0, 60),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_smoothing_matches_per_point_polyfit(half, degree, extra, scale, seed):
    window = 2 * half + 1
    degree = min(degree, window - 1)
    y = scale * np.cumsum(np.random.default_rng(seed).standard_normal(window + extra))
    ours = cd.smooth_series(y, window, degree)
    want = reference.savgol_by_polyfit(y, window, degree)
    # Both are sums of a few dozen weighted values, rounded differently.
    np.testing.assert_allclose(ours, want, rtol=0.0, atol=1e-12 * np.abs(y).max())


def test_smoothing_reproduces_low_degree_polynomials_everywhere():
    # a degree-d polynomial is a fixed point of the filter, edges included
    x = np.linspace(-2.0, 3.0, 120)
    y = 0.3 * x**3 - 1.2 * x**2 + 0.5 * x + 2.0
    out = cd.smooth_series(y, 31, 3)
    np.testing.assert_allclose(out, y, rtol=0.0, atol=1e-7)


def test_smoothing_parameter_validation():
    y = np.linspace(0.0, 1.0, 50)
    with pytest.raises(cd.ConfigError):
        cd.smooth_series(y, 10, 3)       # even window
    with pytest.raises(cd.ConfigError):
        cd.smooth_series(y, 7, 7)        # degree not below window
    with pytest.raises(cd.ConfigError):
        cd.smooth_series(y, 51, 3)       # window longer than series


def test_with_smoothed_keeps_raw_and_dates(small_returns):
    ns = cd.rolling_norm_series(small_returns, 30)
    sm = ns.with_smoothed()
    assert sm.smoothed is not None and sm.smoothed.shape == ns.raw.shape
    np.testing.assert_array_equal(sm.raw, ns.raw)
    assert sm.dates == ns.dates


def test_period_stats_recover_planted_moments(small_returns):
    from cryptodynamics.simulate import calibrated_loadings, entry_pool_moments

    stats = cd.period_entry_stats(small_returns, SMALL_PERIODS)
    assert [s.label for s in stats] == ["calm", "storm"]
    for s in stats:
        spec = SMALL_PHASES[s.label]
        # the pipeline reproduces the calibrated loadings' pool bit-for-bit...
        mu, sd = entry_pool_moments(
            calibrated_loadings(small_returns.n_assets,
                                spec.entry_mean, spec.entry_std))
        assert math.isclose(s.mean, mu, abs_tol=1e-12)
        assert math.isclose(s.std, sd, abs_tol=1e-12)
        # ...and the calibration itself sits on the requested moments
        assert math.isclose(s.mean, spec.entry_mean, abs_tol=1e-4)
        assert math.isclose(s.std, spec.entry_std, abs_tol=1e-4)
    # the returns axis starts one day after the panel, so "calm" loses a day
    assert stats[0].start == dt.date(2019, 6, 2)
    assert stats[0].n_days == 121
    assert stats[1].n_days == 92


def test_period_stats_exclude_diagonal(small_returns):
    with_diag = cd.period_entry_stats(small_returns, SMALL_PERIODS)[0]
    without = cd.period_entry_stats(small_returns, SMALL_PERIODS,
                                    exclude_diagonal=True)[0]
    n = small_returns.n_assets
    expected = (with_diag.mean * n * n - n) / (n * n - n)
    assert math.isclose(without.mean, expected, abs_tol=1e-12)
    assert without.std > 0.0


def test_period_stats_density_integrates_to_one(small_returns):
    for s in cd.period_entry_stats(small_returns, SMALL_PERIODS):
        assert s.density_x.size == 256
        assert np.all(s.density_y >= 0.0)
        x, y = s.density_x, s.density_y
        mass = ((y[1:] + y[:-1]) * np.diff(x)).sum() / 2
        assert math.isclose(mass, 1.0, abs_tol=5e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_norm_series_rejects_non_finite(bad):
    dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
    with pytest.raises(cd.InputError, match="finite"):
        cd.NormSeries(dates, [bad, 0.5])
    with pytest.raises(cd.InputError, match="finite"):
        cd.NormSeries(dates, [0.5, 0.5], [0.5, bad])


def test_period_stats_zero_variance_pool_has_no_density():
    # a single-asset panel pools only the diagonal 1.0 entry
    rng = np.random.default_rng(9)
    r = make_returns(rng.standard_normal((1, 40)))
    periods = cd.PeriodPartition((cd.Period("all", r.dates[0], r.dates[-1]),))
    (s,) = cd.period_entry_stats(r, periods)
    assert s.mean == 1.0 and s.std == 0.0
    assert s.density_x.size == 0 and s.density_y.size == 0
    with pytest.raises(cd.InputError):
        cd.period_entry_stats(r, periods, exclude_diagonal=True)


def test_period_with_constant_asset_names_that_period():
    # A1 is constant on all of "flat" and again after the last period, A0
    # only after it: the error names A1 on the days of "flat", no window
    # beyond the period.
    X = np.random.default_rng(12).standard_normal((3, 70))
    X[1, 20:40] = 0.25
    X[1, 50:70] = 0.25
    X[0, 45:70] = -0.1
    r = make_returns(X)
    periods = cd.PeriodPartition((cd.Period("calm", r.dates[0], r.dates[19]),
                                  cd.Period("flat", r.dates[20], r.dates[39])))
    with pytest.raises(cd.DegenerateDataError) as info:
        cd.period_entry_stats(r, periods)
    assert str(info.value) == (
        f"asset 'A1' has zero variance on return days [21:40] "
        f"(window ending {r.dates[39]})"
    )


def test_period_outside_range_raises(small_returns):
    periods = cd.PeriodPartition((cd.Period("future", dt.date(2030, 1, 1),
                                            dt.date(2030, 6, 1)),))
    with pytest.raises(cd.InputError):
        cd.period_entry_stats(small_returns, periods)
