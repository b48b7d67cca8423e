import datetime as dt
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryptodynamics as cd
from cryptodynamics import inconsistency
from cryptodynamics.correlation import rolling_statistics
from cryptodynamics.inconsistency import _window_feature_tracks

import reference
from test_correlation import make_returns


def test_rolling_volatility_matches_two_pass_loop():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 50)) * 0.02
    vol = cd.rolling_volatility(make_returns(X), 10)
    np.testing.assert_allclose(vol.sigmas, reference.rolling_std(X, 10),
                               rtol=0.0, atol=1e-14)
    assert vol.window_days == 10
    assert vol.n_dates == 41
    assert vol.dates[0] == make_returns(X).dates[9]


def test_rolling_volatility_window_validation():
    returns = make_returns(np.zeros((2, 10)))
    for S in (1, 11):  # the kernel pass's checks
        with pytest.raises(cd.InputError):
            cd.rolling_volatility(returns, S)
    # a pass made at another window length: VolatilityPanel's shape check,
    # or at S = 0 its window check, rejects it
    for made_at, S in ((5, 4), (5, 6), (5, 1), (5, 11), (10, 0)):
        stats = rolling_statistics(returns, made_at, ("sigma",))
        with pytest.raises(cd.InputError):
            cd.rolling_volatility(returns, S, stats)


def test_distance_matrices_match_loop_oracle(small_panel, small_returns, small_vol):
    # inconsistency_norms takes each window's distances |f_i - f_j| from
    # these per-window features
    S = 30
    features = _window_feature_tracks(small_returns, small_vol)
    n = small_panel.n_assets
    rets = np.diff(np.log(small_panel.closes), axis=1)
    for t in (S, 100, small_returns.n_days):
        cap_mean, ret_sum, sig = (f[:, t - S] for f in features)
        for i in range(n):
            assert math.isclose(cap_mean[i],
                                small_panel.market_caps[i, t - S + 1:t + 1].mean(),
                                rel_tol=1e-12)
            assert math.isclose(ret_sum[i], rets[i, t - S:t].sum(),
                                rel_tol=1e-12, abs_tol=1e-14)
            assert math.isclose(sig[i], rets[i, t - S:t].std(), rel_tol=1e-9)


def test_to_affinity_normalizes_to_unit_diagonal():
    feature = np.array([0.0, 2.0, 4.0, 3.0])
    D = np.abs(feature[:, None] - feature[None, :])
    A = reference.affinity(feature)
    np.testing.assert_array_equal(A, 1.0 - D / 4.0)
    assert np.all(np.diag(A) == 1.0)


def test_to_affinity_all_zero_distances_give_all_ones():
    np.testing.assert_array_equal(reference.affinity(np.full(4, 2.5)),
                                  np.ones((4, 4)))


def test_inconsistency_matches_loop_oracle(small_panel, small_returns, small_vol):
    S = 30
    assert small_vol.window_days == S  # inconsistency_norms reads S from here
    inc = cd.inconsistency_norms(small_returns, small_vol)
    assert inc.dates == small_vol.dates
    for t in (S, 77, 150, small_returns.n_days):
        want_mr, want_ms = reference.inconsistency_at(
            small_panel.closes, small_panel.market_caps, t, S)
        assert math.isclose(inc.nu_MR[t - S], want_mr, abs_tol=1e-10)
        assert math.isclose(inc.nu_MSigma[t - S], want_ms, abs_tol=1e-10)


def test_inconsistency_values_are_bounded(small_returns, small_vol):
    inc = cd.inconsistency_norms(small_returns, small_vol)
    for series in (inc.nu_MR, inc.nu_MSigma):
        assert np.all(series >= 0.0)
        assert np.all(series <= 1.0)


def test_identical_assets_give_exactly_zero_norms():
    # five clones of one price path: every pairwise distance is exactly 0,
    # every affinity matrix is all ones, both norms vanish identically
    rng = np.random.default_rng(5)
    n_days = 60
    dates = tuple(dt.date(2021, 1, 1) + dt.timedelta(days=k) for k in range(n_days))
    path = 100.0 * np.exp(np.cumsum(rng.standard_normal(n_days) * 0.01))
    closes = np.tile(path, (5, 1))
    caps = np.tile(path * 7.0, (5, 1))
    tickers = tuple(f"A{i}" for i in range(5))
    panel = cd.PricePanel(dates, tickers, closes, caps)
    r = cd.log_returns(panel)
    vol = cd.rolling_volatility(r, 20)
    inc = cd.inconsistency_norms(r, vol)
    assert np.all(inc.nu_MR == 0.0)
    assert np.all(inc.nu_MSigma == 0.0)


def test_window_alignment_is_enforced(small_returns, small_vol):
    shifted = cd.VolatilityPanel(small_vol.dates[1:], small_vol.sigmas[:, 1:],
                                 small_vol.window_days)
    with pytest.raises(cd.InputError, match="does not align"):
        cd.inconsistency_norms(small_returns, shifted)
    # right count and first date, wrong last date
    late_end = small_vol.dates[:-1] + (small_vol.dates[-1] + dt.timedelta(days=1),)
    misdated = cd.VolatilityPanel(late_end, small_vol.sigmas, small_vol.window_days)
    with pytest.raises(cd.InputError, match="does not align"):
        cd.inconsistency_norms(small_returns, misdated)


def test_volatility_panel_needs_a_date(small_panel, small_returns):
    with pytest.raises(cd.InputError, match="at least one date"):
        cd.VolatilityPanel((), np.empty((small_panel.n_assets, 0)),
                           small_returns.n_days + 1)


def test_inconsistency_series_rejects_out_of_range():
    dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
    with pytest.raises(cd.InputError):
        cd.InconsistencySeries(dates, [0.2, 1.5], [0.1, 0.1])
    with pytest.raises(cd.InputError):
        cd.InconsistencySeries(dates, [0.2, 0.3], [-0.1, 0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_inconsistency_series_rejects_non_finite(bad):
    dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
    with pytest.raises(cd.InputError, match="finite"):
        cd.InconsistencySeries(dates, [bad, 0.1], [0.1, 0.1])
    with pytest.raises(cd.InputError, match="finite"):
        cd.InconsistencySeries(dates, [0.1, 0.1], [0.1, bad])


def make_panel(closes, caps):
    n, n_days = closes.shape
    dates = tuple(dt.date(2021, 1, 1) + dt.timedelta(days=k) for k in range(n_days))
    tickers = tuple(f"A{i}" for i in range(n))
    return cd.PricePanel(dates, tickers, closes, caps)


def test_large_cap_offset_keeps_full_precision():
    # caps near 1e12 that differ by at most 1e3: scaling by the range
    # without first subtracting the window minimum loses about 7 digits
    rng = np.random.default_rng(11)
    n, S, W = 8, 5, 6
    closes = 10.0 * np.exp(np.cumsum(0.03 * rng.standard_normal((n, S + W)), axis=1))
    caps = 1e12 + rng.uniform(0.0, 1e3, (n, S + W))
    panel = make_panel(closes, caps)
    r = cd.log_returns(panel)
    vol = cd.rolling_volatility(r, S)
    inc = cd.inconsistency_norms(r, vol)
    cap_means, ret_sums, sigmas = _window_feature_tracks(r, vol)
    for w in range(W):
        want_mr = reference.affinity_gap_norm_exact(cap_means[:, w], ret_sums[:, w])
        want_ms = reference.affinity_gap_norm_exact(cap_means[:, w], sigmas[:, w])
        assert math.isclose(inc.nu_MR[w], want_mr, abs_tol=1e-14)
        assert math.isclose(inc.nu_MSigma[w], want_ms, abs_tol=1e-14)


def test_window_blocks_do_not_change_the_norms(small_returns, small_vol, monkeypatch):
    # blocks of 7 windows, the last one partial, against a single block
    whole = cd.inconsistency_norms(small_returns, small_vol)
    monkeypatch.setattr(inconsistency, "_BLOCK_BYTES", 7 * 8 * small_returns.n_assets)
    blocked = cd.inconsistency_norms(small_returns, small_vol)
    assert len(whole.dates) % 7 != 0
    np.testing.assert_array_equal(blocked.nu_MR, whole.nu_MR)
    np.testing.assert_array_equal(blocked.nu_MSigma, whole.nu_MSigma)
    cap_means, ret_sums, sigmas = _window_feature_tracks(small_returns, small_vol)
    for got, feature in ((blocked.nu_MR, ret_sums), (blocked.nu_MSigma, sigmas)):
        np.testing.assert_allclose(got, reference.affinity_gap_norms(cap_means, feature),
                                   rtol=0.0, atol=1e-14)


def test_memory_stays_linear_in_assets():
    # N = 1000: one N×N float matrix is 7.6 MiB, while the (N, W) feature
    # tracks and a block's temporaries take well under 1 MiB
    rng = np.random.default_rng(12)
    n, S, W = 1000, 10, 20
    closes = 10.0 * np.exp(np.cumsum(0.03 * rng.standard_normal((n, S + W)), axis=1))
    panel = make_panel(closes, closes * rng.uniform(1.0, 50.0, (n, 1)))
    r = cd.log_returns(panel)
    vol = cd.rolling_volatility(r, S)
    tracemalloc.start()
    try:
        cd.inconsistency_norms(r, vol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


panel_shapes = st.tuples(st.integers(1, 40), st.integers(2, 12), st.integers(1, 12))


@settings(max_examples=40, deadline=None)
@given(shape=panel_shapes, tie=st.sampled_from(["none", "caps", "closes"]),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(4, 5, 6), tie="caps", seed=0)    # only A^M is all ones
@example(shape=(3, 4, 5), tie="closes", seed=1)  # A^R and A^Sigma are all ones
@example(shape=(1, 3, 4), tie="none", seed=2)    # one asset: every matrix is [[1]]
@example(shape=(40, 12, 12), tie="none", seed=3)
def test_inconsistency_with_ties_matches_loop_oracle(shape, tie, seed):
    n, S, W = shape
    rng = np.random.default_rng(seed)
    n_days = S + W  # one price base day, then S + W - 1 return days
    closes = 10.0 * np.exp(np.cumsum(0.03 * rng.standard_normal((n, n_days)), axis=1))
    caps = closes * rng.uniform(1.0, 50.0, (n, 1))
    if tie == "caps":  # equal market caps, distinct prices
        caps = np.tile(caps[0], (n, 1))
    elif tie == "closes":  # equal prices, distinct caps
        closes = np.tile(closes[0], (n, 1))
    panel = make_panel(closes, caps)
    r = cd.log_returns(panel)
    vol = cd.rolling_volatility(r, S)
    inc = cd.inconsistency_norms(r, vol)
    assert np.all(inc.nu_MR >= 0.0) and np.all(inc.nu_MSigma >= 0.0)
    # the same per-window features through one N×N matrix pair per window
    cap_means, ret_sums, sigmas = _window_feature_tracks(r, vol)
    for got, feature in ((inc.nu_MR, ret_sums), (inc.nu_MSigma, sigmas)):
        np.testing.assert_allclose(got, reference.affinity_gap_norms(cap_means, feature),
                                   rtol=0.0, atol=1e-14)
    # and straight from the raw panel, in plain Python
    for t in range(S, r.n_days + 1):
        want_mr, want_ms = reference.inconsistency_at(closes, caps, t, S)
        assert math.isclose(inc.nu_MR[t - S], want_mr, abs_tol=1e-10)
        assert math.isclose(inc.nu_MSigma[t - S], want_ms, abs_tol=1e-10)
