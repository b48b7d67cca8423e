"""Deterministic synthetic daily market with planted, exactly-known structure.

The generator plants, per named phase, an exact cross-correlation
structure, a common drift, and per-asset volatility levels, and derives
prices and market caps from the resulting log returns. It exists so every
pipeline in this package can be exercised end-to-end against known ground
truth without external data.

Exactness: within each phase the returns are built from an orthonormalized
common factor f and per-asset idiosyncratic factors e_i (QR of demeaned
Gaussians, columns rescaled to zero mean and unit population variance),
as R_i = drift + s_i·(a_i f + √(1−a_i²) e_i). The population Pearson
correlation of assets i and j over the phase is then a_i·a_j up to
floating-point, regardless of drift and scale, so the phase's
correlation-entry mean and standard deviation can be calibrated in closed
form through the loadings a.

Structural choices mirror stylized crypto-market facts: market caps follow
a power law; per-asset volatility is affine in initial cap weight (so the
size and volatility similarity structures agree); the crash phase has
volatilities several times higher and much more uniform than quiet
phases, which makes crash windows dominate rolling statistics within a
few days and produces the planted dip in intra-volatility variance.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InputError
from .panel import (
    DEFAULT_TICKERS,
    PeriodPartition,
    PricePanel,
    default_periods,
    write_panel,
)

DEFAULT_SEED = 20210630
DEFAULT_N_ASSETS = 52
DEFAULT_START = dt.date(2019, 1, 1)
DEFAULT_END = dt.date(2021, 6, 30)

CAP_POWER_LAW_EXPONENT = 1.7
INITIAL_TOTAL_CAP = 2.5e11


@dataclass(frozen=True)
class PhaseSpec:
    """Planted per-phase structure.

    entry_mean / entry_std: targeted mean and population std of the phase's
    N² correlation-matrix entries (diagonal included).
    drift: common daily log-return drift.
    vol_base / vol_slope: per-asset volatility s_i = vol_base + vol_slope·w_i,
    with w_i the asset's initial cap weight.
    """

    entry_mean: float
    entry_std: float
    drift: float
    vol_base: float
    vol_slope: float


DEFAULT_PHASES = {
    "Pre-COVID": PhaseSpec(0.456, 0.164, +0.0015, 0.0030, 0.0300),
    "Peak COVID": PhaseSpec(0.784, 0.166, -0.0085, 0.0375, 0.0200),
    "Post-COVID": PhaseSpec(0.421, 0.182, +0.0025, 0.0036, 0.0280),
    "Bull": PhaseSpec(0.383, 0.135, +0.0040, 0.0033, 0.0260),
    "Bear": PhaseSpec(0.421, 0.182, -0.0060, 0.0054, 0.0280),
}

# Days covered by no phase (the 2020-02-29 gap in the default partition,
# or anything outside a custom partition) get quiet uncorrelated noise.
GAP_VOL_BASE = 0.0030
GAP_VOL_SLOPE = 0.0300


def entry_pool_moments(loadings):
    """Mean and population std of the N² entries of the planted matrix.

    The planted correlation matrix has off-diagonal entries a_i·a_j and a
    unit diagonal, so both moments reduce to power sums of the loadings.
    """
    a = np.asarray(loadings, dtype=float)
    n = a.size
    p1 = a.sum()
    p2 = (a * a).sum()
    p4 = (a ** 4).sum()
    mean = (n + p1 * p1 - p2) / n ** 2
    second = (n + p2 * p2 - p4) / n ** 2
    return mean, math.sqrt(max(second - mean * mean, 0.0))


@lru_cache(maxsize=None)
def calibrated_loadings(n_assets, entry_mean, entry_std):
    """Loadings a_1 ≥ … ≥ a_N in (0,1) hitting the requested entry moments.

    Parametrized as a_i = hi − span·v_i^β on v = linspace(0,1) and solved
    by least squares on the closed-form moments; raises ConfigError when
    the residual shows the target is out of reach for this family.
    """
    n = int(n_assets)
    if n < 2:
        raise ConfigError("need at least 2 assets to calibrate correlations")
    v = np.linspace(0.0, 1.0, n)

    def build(x):
        hi, frac, beta = x
        span = frac * (hi - 0.01)
        return hi - span * v ** beta

    def residual(x):
        mean, std = entry_pool_moments(build(x))
        return [100.0 * (mean - entry_mean), 100.0 * (std - entry_std)]

    # imported here so that importing the package skips its import cost
    from scipy.optimize import least_squares

    x0 = (min(0.95, math.sqrt(max(entry_mean, 0.05)) + 0.2), 0.7, 1.5)
    fit = least_squares(residual, x0=x0,
                        bounds=((0.2, 0.05, 0.3), (0.995, 0.999, 6.0)))
    worst = float(np.abs(fit.fun).max()) / 100.0
    if worst > 1e-4:
        raise ConfigError(
            f"cannot plant entry moments ({entry_mean}, {entry_std}) "
            f"for N={n}: residual {worst:.2e}"
        )
    a = build(fit.x)
    a.flags.writeable = False
    return a


def _orthonormal_factors(rng, length, count):
    """``count`` mutually orthogonal vectors with zero mean and unit
    population variance, of the given length (requires length ≥ count+1)."""
    g = rng.standard_normal((length, count))
    g -= g.mean(axis=0, keepdims=True)
    q, _ = np.linalg.qr(g)
    return q * math.sqrt(length)


def _phase_block(rng, n, length, loadings, drift, scales):
    """(n, length) return block with corr(R_i, R_j) = a_i·a_j exactly."""
    factors = _orthonormal_factors(rng, length, n + 1)
    f = factors[:, 0]
    e = factors[:, 1:]
    a = np.asarray(loadings, dtype=float)
    x = f[:, None] * a[None, :] + e * np.sqrt(1.0 - a * a)[None, :]
    return (drift + scales[None, :] * x).T


def _noise_block(rng, n, length, drift, scales):
    """Uncorrelated fallback for blocks too short to orthonormalize."""
    return drift + scales[:, None] * rng.standard_normal((n, length))


def _tickers(n):
    base = list(DEFAULT_TICKERS)
    if n <= len(base):
        return base[:n]
    return base + [f"X{k:03d}" for k in range(n - len(base))]


def _label_runs(dates, periods):
    """Contiguous runs of equal phase label (None for uncovered days)."""
    def label_of(day):
        for p in periods:
            if p.start <= day <= p.end:
                return p.label
        return None

    labels = [label_of(d) for d in dates]
    runs = []
    start = 0
    for k in range(1, len(labels) + 1):
        if k == len(labels) or labels[k] != labels[start]:
            runs.append((labels[start], start, k))
            start = k
    return runs


def simulated_market(seed=DEFAULT_SEED, n_assets=DEFAULT_N_ASSETS,
                     start=DEFAULT_START, end=DEFAULT_END,
                     periods: PeriodPartition | None = None,
                     phases=None) -> PricePanel:
    """Generate a synthetic daily close/market-cap panel.

    Identical arguments always produce the identical panel. Phases whose
    run is shorter than n_assets+2 days fall back to uncorrelated noise
    (the factor construction needs that many days of headroom).
    """
    if end <= start:
        raise InputError("need at least two days")
    n = int(n_assets)
    if n < 1:
        raise InputError("n_assets must be >= 1")
    periods = default_periods() if periods is None else periods
    phases = DEFAULT_PHASES if phases is None else phases
    missing = [p.label for p in periods if p.label not in phases]
    if missing:
        raise ConfigError(f"no phase parameters for periods: {missing}")

    rng = np.random.default_rng(seed)
    weights = (1.0 + np.arange(n)) ** -CAP_POWER_LAW_EXPONENT
    weights /= weights.sum()
    initial_caps = INITIAL_TOTAL_CAP * weights
    initial_prices = 10.0 ** rng.uniform(-1.5, 4.5, n)

    n_days = (end - start).days + 1
    dates = tuple(start + dt.timedelta(days=k) for k in range(n_days))
    return_dates = dates[1:]

    returns = np.empty((n, n_days - 1))
    for label, lo, hi in _label_runs(return_dates, periods):
        length = hi - lo
        if label is None:
            scales = GAP_VOL_BASE + GAP_VOL_SLOPE * weights
            returns[:, lo:hi] = _noise_block(rng, n, length, 0.0, scales)
            continue
        spec = phases[label]
        scales = spec.vol_base + spec.vol_slope * weights
        if length >= n + 2 and n >= 2:
            loadings = calibrated_loadings(n, spec.entry_mean, spec.entry_std)
            returns[:, lo:hi] = _phase_block(rng, n, length, loadings,
                                             spec.drift, scales)
        else:
            returns[:, lo:hi] = _noise_block(rng, n, length, spec.drift, scales)

    log_paths = np.cumsum(returns, axis=1)
    closes = np.empty((n, n_days))
    closes[:, 0] = initial_prices
    closes[:, 1:] = initial_prices[:, None] * np.exp(log_paths)
    supply = initial_caps / initial_prices
    caps = supply[:, None] * closes

    return PricePanel(dates, _tickers(n), closes, caps)


def write_simulated_dataset(price_csv_path, marketcap_csv_path, **kwargs):
    """Generate and persist a synthetic dataset; returns the panel."""
    panel = simulated_market(**kwargs)
    write_panel(panel, price_csv_path, marketcap_csv_path)
    return panel
