import datetime as dt
import math

import numpy as np
import pytest

import cryptodynamics as cd
from cryptodynamics.simulate import (
    DEFAULT_PHASES,
    PhaseSpec,
    calibrated_loadings,
    entry_pool_moments,
)

from conftest import SMALL_PERIODS, SMALL_PHASES, small_market


def test_same_arguments_reproduce_the_same_panel():
    a = small_market()
    b = small_market()
    np.testing.assert_array_equal(a.closes, b.closes)
    np.testing.assert_array_equal(a.market_caps, b.market_caps)
    assert a.dates == b.dates and a.tickers == b.tickers


def test_different_seeds_differ():
    a = small_market(seed=7)
    b = small_market(seed=8)
    assert not np.array_equal(a.closes, b.closes)


def test_entry_pool_moments_match_naive_pool():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        a = rng.uniform(0.05, 0.95, n)
        m = np.outer(a, a)
        np.fill_diagonal(m, 1.0)
        pool = m.ravel()
        mu, sd = entry_pool_moments(a)
        assert math.isclose(mu, pool.mean(), abs_tol=1e-12)
        assert math.isclose(sd, pool.std(), abs_tol=1e-12)


def test_calibrated_loadings_hit_requested_moments():
    for n, mean, std in ((6, 0.438, 0.308), (52, 0.456, 0.164),
                         (52, 0.784, 0.166), (52, 0.383, 0.135)):
        a = calibrated_loadings(n, mean, std)
        assert a.shape == (n,)
        assert np.all(a > 0.0) and np.all(a < 1.0)
        assert np.all(np.diff(a) <= 0.0)  # descending: big caps load hardest
        mu, sd = entry_pool_moments(a)
        assert math.isclose(mu, mean, abs_tol=1e-4)
        assert math.isclose(sd, std, abs_tol=1e-4)


def test_unreachable_moments_raise():
    # with 8 assets the unit diagonal alone forces the pool std above 0.164
    with pytest.raises(cd.ConfigError):
        calibrated_loadings(8, 0.456, 0.164)


def test_caps_are_supply_times_price():
    panel = small_market()
    supply = panel.market_caps[:, 0] / panel.closes[:, 0]
    np.testing.assert_allclose(panel.market_caps,
                               supply[:, None] * panel.closes, rtol=1e-12)


def test_initial_caps_follow_the_power_law():
    panel = small_market()
    w = (1.0 + np.arange(panel.n_assets)) ** -1.7
    w /= w.sum()
    np.testing.assert_allclose(panel.market_caps[:, 0], 2.5e11 * w, rtol=1e-12)


def test_panel_span_and_tickers(sim_panel):
    assert sim_panel.dates[0] == dt.date(2019, 1, 1)
    assert sim_panel.dates[-1] == dt.date(2021, 6, 30)
    assert sim_panel.n_days == 912
    assert sim_panel.n_assets == 52
    assert sim_panel.tickers[0] == "BTC"


def test_extra_assets_get_generated_tickers():
    # 54 assets over 45 days: every block is too short for the factor
    # construction, so this exercises only naming and the noise path
    periods = cd.PeriodPartition((
        cd.Period("calm", dt.date(2020, 6, 1), dt.date(2020, 7, 15)),))
    panel = cd.simulated_market(seed=1, n_assets=54,
                                start=dt.date(2020, 6, 1), end=dt.date(2020, 7, 15),
                                periods=periods,
                                phases={"calm": SMALL_PHASES["calm"]})
    assert panel.tickers[-2:] == ("X000", "X001")
    assert np.all(np.isfinite(panel.closes)) and np.all(panel.closes > 0.0)


def test_missing_phase_parameters_raise():
    with pytest.raises(cd.ConfigError):
        cd.simulated_market(seed=1, n_assets=4, start=dt.date(2019, 6, 1),
                            end=dt.date(2019, 12, 31), periods=SMALL_PERIODS,
                            phases={"calm": SMALL_PHASES["calm"]})


def test_short_phase_blocks_fall_back_to_noise():
    periods = cd.PeriodPartition((
        cd.Period("calm", dt.date(2019, 6, 1), dt.date(2019, 8, 31)),
        cd.Period("blip", dt.date(2019, 9, 1), dt.date(2019, 9, 3)),
        cd.Period("storm", dt.date(2019, 9, 4), dt.date(2019, 12, 31)),
    ))
    phases = dict(SMALL_PHASES)
    phases["blip"] = PhaseSpec(0.438, 0.308, 0.0, 0.01, 0.0)
    panel = cd.simulated_market(seed=3, n_assets=6, start=dt.date(2019, 6, 1),
                                end=dt.date(2019, 12, 31), periods=periods,
                                phases=phases)
    assert panel.n_days == 214  # the 3-day blip cannot host a factor block


def test_default_phases_cover_default_periods():
    assert set(p.label for p in cd.default_periods()) == set(DEFAULT_PHASES)


def test_write_simulated_dataset_round_trips(tmp_path):
    p = tmp_path / "price.csv"
    c = tmp_path / "marketcap.csv"
    panel = cd.write_simulated_dataset(p, c, seed=7, n_assets=6,
                                       start=dt.date(2019, 6, 1),
                                       end=dt.date(2019, 12, 31),
                                       periods=SMALL_PERIODS, phases=SMALL_PHASES)
    loaded = cd.load_panel_with_report(p, c, dt.date(2019, 6, 1), dt.date(2019, 12, 31))[0]
    np.testing.assert_array_equal(loaded.closes, panel.closes)
    np.testing.assert_array_equal(loaded.market_caps, panel.market_caps)
