import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import maximum_filter1d, minimum_filter1d

import cryptodynamics as cd
from cryptodynamics.turning_points import (
    DEFAULT_PARAMS,
    _detect,
    _log_gradient_pass,
    _peak_ratio_pass,
    _window_conditions,
)

import reference


def test_params_are_validated():
    with pytest.raises(cd.ConfigError):
        cd.TurningPointParams(l=0)
    with pytest.raises(cd.ConfigError):
        cd.TurningPointParams(delta=0.0)
    with pytest.raises(cd.ConfigError):
        cd.TurningPointParams(delta=1.5)
    with pytest.raises(cd.ConfigError):
        cd.TurningPointParams(epsilon=0.0)
    assert DEFAULT_PARAMS == cd.TurningPointParams(17, 0.2, 0.01)


def test_short_series_rejected():
    for short in (np.arange(34.0), []):  # need > 2*17
        with pytest.raises(cd.InputError, match="too short"):
            cd.find_turning_points(short)
    cd.find_turning_points(np.arange(36.0))


@pytest.mark.parametrize("series", [np.arange(80.0).reshape(2, 40), [[1.0] * 40]])
def test_series_that_is_not_1d_rejected(series):
    with pytest.raises(cd.InputError, match=r"1-d series, got shape \((2, 40|1, 40)\)"):
        cd.find_turning_points(series)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1.0]),
                       min_size=1, max_size=120),
       l=st.integers(1, 40))
@example(values=[0.0, -0.0, 0.0], l=1)     # ties, with a negative zero
@example(values=[3.0, 1.0, 2.0], l=40)    # every window clamped at both ends
def test_window_conditions_match_scipy_filters(values, l):
    y = np.asarray(values)
    is_max, is_min = _window_conditions(y, l)
    size = 2 * l + 1
    np.testing.assert_array_equal(is_max, y == maximum_filter1d(y, size, mode="nearest"))
    np.testing.assert_array_equal(is_min, y == minimum_filter1d(y, size, mode="nearest"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_series_rejected(bad):
    y = np.arange(40.0)
    y[20] = bad
    with pytest.raises(cd.InputError, match="finite"):
        cd.find_turning_points(y)


def test_constant_series_has_no_turning_points():
    seq = cd.find_turning_points(np.full(60, 0.7))
    assert len(seq) == 0


def test_monotone_ramp_is_trough_then_peak():
    seq = cd.find_turning_points(np.arange(50.0), cd.TurningPointParams(l=5))
    assert [(p.index, p.kind) for p in seq] == [(0, "trough"), (49, "peak")]
    assert seq.points[1].value == 49.0


def test_small_peak_pruned_by_height_ratio():
    # second peak at 15% of the first dies, taking the higher trough with it
    y = np.interp(np.arange(33), [0, 8, 16, 24, 32], [0.0, 8.0, 0.4, 1.2, 0.0])
    seq = cd.find_turning_points(y, cd.TurningPointParams(l=3))
    assert [(p.index, p.kind) for p in seq] == [
        (0, "trough"), (8, "peak"), (32, "trough")]


def test_flat_log_gradient_removes_the_pair():
    # the (12, 22) pair climbs only |ln(2.2/2)|/10 ≈ 0.0095 < epsilon per day
    y = np.interp(np.arange(37), [0, 6, 12, 22, 30, 36],
                  [0.0, 5.0, 2.0, 2.2, 0.5, 3.0])
    seq = cd.find_turning_points(y, cd.TurningPointParams(l=3))
    assert [(p.index, p.kind) for p in seq] == [
        (0, "trough"), (6, "peak"), (30, "trough"), (36, "peak")]


def test_log_gradient_prunes_strictly_below_epsilon():
    # The (12, 22) pair of the series above survives at epsilon equal to
    # its own gradient, computed as the pass computes it, and goes one ulp
    # above; every other pair is steeper.
    y = np.interp(np.arange(37), [0, 6, 12, 22, 30, 36],
                  [0.0, 5.0, 2.0, 2.2, 0.5, 3.0])
    adjusted = y - y.min()
    g = abs(math.log(adjusted[22]) - math.log(adjusted[12])) / (22 - 12)
    full = [(0, "trough"), (6, "peak"), (12, "trough"), (22, "peak"), (30, "trough"),
            (36, "peak")]
    for epsilon, want in ((g, full), (np.nextafter(g, np.inf), full[:2] + full[4:])):
        seq = cd.find_turning_points(y, cd.TurningPointParams(l=3, epsilon=epsilon))
        assert [(p.index, p.kind) for p in seq] == want, epsilon


def test_reported_values_come_from_the_unadjusted_series():
    y = np.interp(np.arange(33), [0, 8, 16, 24, 32], [2.0, 10.0, 2.4, 3.2, 2.0])
    seq = cd.find_turning_points(y, cd.TurningPointParams(l=3))
    assert seq.points[1].value == 10.0  # not the min-adjusted 8.0


def test_dates_attach_to_points(small_returns):
    ns = cd.rolling_norm_series(small_returns, 30).with_smoothed(11, 2)
    seq = cd.find_turning_points(ns.smoothed, cd.TurningPointParams(l=5),
                                 dates=ns.dates)
    for p in seq:
        assert p.date == ns.dates[p.index]
    with pytest.raises(cd.InputError):
        cd.find_turning_points(ns.smoothed, dates=ns.dates[:-1])


def test_sequence_validates_alternation_and_dominance():
    mk = cd.TurningPoint
    with pytest.raises(cd.InputError):
        cd.TurningPointSequence((mk(3, None, 1.0, "peak"), mk(7, None, 2.0, "peak")))
    with pytest.raises(cd.InputError):
        cd.TurningPointSequence((mk(3, None, 1.0, "peak"), mk(7, None, 2.0, "trough")))
    with pytest.raises(cd.InputError):
        cd.TurningPointSequence((mk(7, None, 1.0, "peak"), mk(3, None, 0.5, "trough")))
    with pytest.raises(cd.InputError, match="strictly increase"):
        cd.TurningPointSequence((mk(3, None, 1.0, "peak"), mk(3, None, 0.5, "trough")))
    for pair in ((mk(3, None, 1.0, "peak"), mk(7, None, 1.0, "trough")),
                 (mk(3, None, 1.0, "trough"), mk(7, None, 1.0, "peak"))):
        with pytest.raises(cd.InputError, match="not above"):
            cd.TurningPointSequence(pair)


def _series_family(seed):
    """Varied shapes: walks, noisy waves, tie-heavy plateaus, norm-like bands."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 320))
    kind = seed % 4
    if kind == 0:
        return np.cumsum(rng.standard_normal(n))
    if kind == 1:
        t = np.arange(n)
        return (np.sin(t / rng.uniform(5.0, 30.0)) * rng.uniform(0.5, 3.0)
                + 0.1 * np.cumsum(rng.standard_normal(n)))
    if kind == 2:
        return np.round(np.cumsum(rng.standard_normal(n)), 1)
    base = rng.uniform(0.3, 0.6) + 0.2 * np.sin(np.arange(n) / 17.0)
    return np.clip(base + 0.05 * rng.standard_normal(n), 0.0, 1.0)


def test_matches_reference_on_100_seeded_series():
    for seed in range(100):
        y = _series_family(seed)
        got = [(p.index, p.kind) for p in cd.find_turning_points(y)]
        want = reference.turning_points(y, l=17, delta=0.2, epsilon=0.01)
        assert got == want, f"seed {seed}"


def test_matches_reference_with_other_parameters():
    params = cd.TurningPointParams(l=5, delta=0.35, epsilon=0.02)
    for seed in range(40):
        y = _series_family(seed + 1000)
        got = [(p.index, p.kind) for p in cd.find_turning_points(y, params)]
        want = reference.turning_points(y, l=5, delta=0.35, epsilon=0.02)
        assert got == want, f"seed {seed}"


def test_refinement_is_idempotent():
    def refine(pairs, y):
        pairs = _peak_ratio_pass(pairs, y, DEFAULT_PARAMS.delta)
        return _log_gradient_pass(pairs, y, DEFAULT_PARAMS.epsilon)

    for seed in range(30):
        y = _series_family(seed)
        y = y - y.min()
        pairs = refine(_detect(y, DEFAULT_PARAMS.l), y)
        assert refine(pairs, y) == pairs


def test_structural_invariants_hold():
    for seed in range(50):
        y = _series_family(seed + 5000)
        seq = cd.find_turning_points(y)
        idx = [p.index for p in seq]
        assert idx == sorted(idx)
        kinds = [p.kind for p in seq]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        adjusted = y - y.min()
        for a, b in zip(seq.points, seq.points[1:]):
            hi, lo = (a, b) if a.kind == "peak" else (b, a)
            assert adjusted[hi.index] > adjusted[lo.index]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), l=st.integers(1, 20),
       delta=st.floats(0.0, 1.0, exclude_min=True),
       epsilon=st.floats(1e-4, 0.5),
       offset=st.sampled_from([0.0, -7.0, 1e3]))
def test_matches_reference_under_random_parameters_and_ties(data, l, delta, epsilon, offset):
    # integer values tie often: equal window extrema, equal peaks, zero log-gradients
    values = data.draw(st.lists(st.integers(0, 6), min_size=2 * l + 1, max_size=250))
    y = np.asarray(values, dtype=float) + offset
    seq = cd.find_turning_points(y, cd.TurningPointParams(l, delta, epsilon))
    assert [(p.index, p.kind) for p in seq] == \
        reference.turning_points(y, l=l, delta=delta, epsilon=epsilon)
    assert all(p.value == y[p.index] for p in seq)
