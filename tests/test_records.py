"""The array contract every analysis record shares.

Each array field of each record is converted by ``errors.frozen_array``:
input that is not numeric, holds a NaN or infinity, or has the wrong
shape raises InputError; what is stored is a read-only, C-contiguous
float64 array, and a C-contiguous float64 input is stored as it is, not
copied (a panel's (N, T) blocks would double otherwise).
"""

import datetime as dt

import numpy as np
import pytest

import cryptodynamics as cd


def days(n):
    return tuple(dt.date(2021, 1, 1) + dt.timedelta(days=k) for k in range(n))


TICKERS = ("A", "B")
CLOSES = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
RETURNS = [[0.1, -0.2, 0.0], [0.3, 0.1, -0.1]]
NORMS = [0.2, 0.4]

# "Record.field": (record built around the given array, a valid array, the
# index where a NaN or infinity goes).
CASES = {
    "ReturnsPanel.returns": (
        lambda a: cd.ReturnsPanel(days(3), TICKERS, a, CLOSES), RETURNS, (1, 2)),
    "ReturnsPanel.market_caps": (
        lambda a: cd.ReturnsPanel(days(3), TICKERS, RETURNS, a), CLOSES, (0, 1)),
    "CorrelationMatrix.matrix": (
        lambda a: cd.CorrelationMatrix((1, 3), a), [[1.0, 0.5], [0.5, 1.0]], (1, 1)),
    "NormSeries.raw": (lambda a: cd.NormSeries(days(2), a), NORMS, (1,)),
    "NormSeries.smoothed": (lambda a: cd.NormSeries(days(2), NORMS, a), NORMS, (1,)),
    "PeriodEntryStats.density_x": (
        lambda a: cd.correlation.PeriodEntryStats("p", *days(2), 2, 0.1, 0.2, a,
                                                  [0.5, 1.0, 0.5]),
        [-1.0, 0.0, 1.0], (2,)),
    "PeriodEntryStats.density_y": (
        lambda a: cd.correlation.PeriodEntryStats("p", *days(2), 2, 0.1, 0.2,
                                                  [-1.0, 0.0, 1.0], a),
        [0.5, 1.0, 0.5], (2,)),
    "SpectralSeries.lambda1": (lambda a: cd.SpectralSeries(days(2), a, 2), [0.6, 0.9], (0,)),
    "MarketSizeSeries.values": (lambda a: cd.MarketSizeSeries(days(2), a), [1.0, 2.0], (1,)),
    "VolatilityPanel.sigmas": (
        lambda a: cd.VolatilityPanel(days(3), a, 2), [[0.1, 0.2, 0.3], [0.2, 0.1, 0.0]],
        (0, 1)),
    "InconsistencySeries.nu_MR": (
        lambda a: cd.InconsistencySeries(days(2), a, NORMS), NORMS, (0,)),
    "InconsistencySeries.nu_MSigma": (
        lambda a: cd.InconsistencySeries(days(2), NORMS, a), NORMS, (1,)),
    "Dendrogram.merges": (
        lambda a: cd.Dendrogram(days(3), a), [[0, 1, 0.1, 2], [2, 3, 0.2, 3]], (1, 2)),
    "VarianceSeries.values": (
        lambda a: cd.dispersion.VarianceSeries(days(2), a), [0.01, 0.02], (0,)),
    "PricePanel.closes": (
        lambda a: cd.PricePanel(days(3), TICKERS, a, CLOSES), CLOSES, (0, 2)),
    "PricePanel.market_caps": (
        lambda a: cd.PricePanel(days(3), TICKERS, CLOSES, a), CLOSES, (1, 0)),
}


def bad_array(kind, valid, index):
    valid = np.array(valid, dtype=float)
    if kind == "text":
        return np.full(valid.shape, "a", dtype=object).tolist()
    if kind == "extra axis":
        return np.stack([valid, valid])
    if kind == "short":
        return valid[..., :-1]
    valid[index] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return valid


@pytest.mark.parametrize("kind", ["text", "nan", "inf", "-inf", "extra axis", "short"])
@pytest.mark.parametrize("field", CASES)
def test_bad_arrays_are_input_errors(field, kind):
    build, valid, index = CASES[field]
    build(valid)  # the valid array passes
    with pytest.raises(cd.InputError):
        build(bad_array(kind, valid, index))


@pytest.mark.parametrize("field", CASES)
def test_arrays_are_read_only_float64_and_not_copied(field):
    build, valid, _ = CASES[field]
    attr = field.split(".")[1]
    given = np.array(valid, dtype=float)
    stored = getattr(build(given), attr)
    assert np.shares_memory(stored, given)
    from_lists = getattr(build(valid), attr)
    for array in (stored, from_lists):
        assert array.dtype == np.float64 and array.flags.c_contiguous
        assert not array.flags.writeable
        np.testing.assert_array_equal(array, np.asarray(valid, dtype=float))


@pytest.mark.parametrize("record", ["PricePanel", "ReturnsPanel"])
def test_negative_market_caps_are_input_errors(record):
    build = CASES[f"{record}.market_caps"][0]
    build([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])  # a zero cap passes
    with pytest.raises(cd.InputError, match="market caps must be non-negative"):
        build([[0.0, 1.0, 2.0], [3.0, -5e-324, 5.0]])
