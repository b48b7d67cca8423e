"""Log returns, windowed correlation matrices, and the rolling L1-norm series.

The central object is the Pearson correlation matrix of N assets over a
trailing window of S return days, standardized with the *population*
standard deviation (divisor S) so that the matrix form (1/S)·Z Zᵀ of the
standardized returns agrees with the entrywise Pearson formula exactly.

Every rolling statistic comes from one kernel, ``window_chunks``. It walks
the W = T−S+1 windows in chunks of c windows, c sized so that a chunk's
(c, N, N) stack, or its (c, N, S) standardized returns Z, takes about
``_CHUNK_BYTES``. Per chunk it computes each window's two-pass mean and
variance, then Z, then the stack. ``rolling_statistics`` is the one loop
over those chunks: it takes ν(t), λ₁ (solving the S×S Gram matrices
ZᵀZ/S instead of the stack when S < N) and σ from the same pass, so
memory is O(c·N·max(N, S) + W·N) rather than the O(W·N²) of a full
stack. A chunk holds one (c, N, S) array, into which the windows are
centred and which is then scaled in place into Z, plus its stack or Gram
matrices. Neither
is symmetrised: numpy computes A·Aᵀ and Aᵀ·A by BLAS ``syrk`` and copies
one triangle onto the other (its no-BLAS loop sums each entry and its
mirror in the same order), so the products are exactly symmetric and
0.5·(A + Aᵀ) would return them unchanged. ``correlation_matrix`` relies
on the same. ``rolling_norm_series`` (here), ``spectral.lambda1_series``
and ``inconsistency.rolling_volatility`` wrap its results, or take a
result computed once for several of them.

``period_entry_stats`` describes each named period by the density of its
correlation entries: a Gaussian kernel-density estimate with Silverman's
bandwidth, computed in numpy rather than by ``scipy.stats``, whose import
would dominate the start-up of every run. Equal entries share one kernel
weighted by their count, and the grid is evaluated in blocks of about
``_CHUNK_BYTES``.

Day indices follow the return-series convention used throughout: return
day ``t`` runs 1..T, where return t is ln(close(t)/close(t−1)).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import polynomial as npoly

from .errors import ConfigError, DegenerateDataError, InputError, NumericalError
from .panel import PeriodPartition, PricePanel

DEFAULT_WINDOW_DAYS = 90
DEFAULT_SG_WINDOW = 31
DEFAULT_SG_DEGREE = 3
# Bytes of (c, N, N) stack, or of (c, N, S) Z, that one kernel chunk holds;
# also the size of one (grid block, centres) array of the period KDE.
_CHUNK_BYTES = 4 << 20
# Eigenvalues below minus this are an error; those above it are clamped to 0.
NEGATIVE_EIGENVALUE_TOL = 1e-10
STATISTICS = ("norm", "lambda1", "spectra", "sigma")


@dataclass(frozen=True)
class ReturnsPanel:
    """N×T matrix of daily log returns, dated t = 1..T."""

    dates: tuple
    assets: tuple
    returns: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        assets = tuple(self.assets)
        matrix = np.ascontiguousarray(self.returns, dtype=float)
        if matrix.shape != (len(assets), len(dates)):
            raise InputError(
                f"returns shape {matrix.shape} does not match "
                f"{len(assets)} assets x {len(dates)} dates"
            )
        if not np.all(np.isfinite(matrix)):
            raise InputError("returns must be finite")
        matrix.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "returns", matrix)

    @property
    def n_assets(self):
        return len(self.assets)

    @property
    def n_days(self):
        return len(self.dates)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Correlation matrix over return days [a, b] (1-based, inclusive)."""

    window: tuple
    matrix: np.ndarray

    def __post_init__(self):
        a, b = self.window
        if b < a:
            raise InputError(f"bad window [{a}:{b}]")
        m = np.ascontiguousarray(self.matrix, dtype=float)
        n = m.shape[0]
        if m.shape != (n, n):
            raise InputError(f"correlation matrix must be square, got {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise InputError("correlation matrix must be symmetric")
        if np.any(np.abs(m) > 1.0 + 1e-12):
            raise InputError("correlation entries must lie in [-1, 1]")
        m.flags.writeable = False
        object.__setattr__(self, "window", (int(a), int(b)))
        object.__setattr__(self, "matrix", m)

    @property
    def n_assets(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class NormSeries:
    """Normalized L1-norm of the rolling correlation matrix, per window end date."""

    dates: tuple
    raw: np.ndarray
    smoothed: np.ndarray | None = None

    def __post_init__(self):
        dates = tuple(self.dates)
        raw = np.ascontiguousarray(self.raw, dtype=float)
        if raw.shape != (len(dates),):
            raise InputError("raw series length must match dates")
        if not np.all((raw >= -1e-9) & (raw <= 1.0 + 1e-9)):
            raise InputError("raw norm values must be finite and lie in [0, 1]")
        smoothed = self.smoothed
        if smoothed is not None:
            smoothed = np.ascontiguousarray(smoothed, dtype=float)
            if smoothed.shape != raw.shape:
                raise InputError("smoothed series length must match raw")
            if not np.all(np.isfinite(smoothed)):
                raise InputError("smoothed norm values must be finite")
            smoothed.flags.writeable = False
        raw.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "smoothed", smoothed)

    def with_smoothed(self, sg_window=DEFAULT_SG_WINDOW, sg_degree=DEFAULT_SG_DEGREE):
        return NormSeries(self.dates, self.raw,
                          smooth_series(self.raw, sg_window, sg_degree))


@dataclass(frozen=True)
class PeriodEntryStats:
    """Mean/std of correlation entries over one named period, with a KDE curve.

    ``density_x``/``density_y`` are empty when the entries are all identical
    (zero variance), in which case no kernel-density estimate exists.
    """

    label: str
    start: dt.date
    end: dt.date
    n_days: int
    mean: float
    std: float
    density_x: np.ndarray
    density_y: np.ndarray


def log_returns(panel: PricePanel) -> ReturnsPanel:
    """Daily log returns ln(c(t)/c(t−1)) for every asset; dates shift to t=1..T."""
    if panel.n_days < 2:
        raise InputError("need at least two days of prices to form returns")
    matrix = np.diff(np.log(panel.closes), axis=1)
    return ReturnsPanel(panel.dates[1:], panel.assets, matrix)


def correlation_matrix(returns: ReturnsPanel, a: int, b: int) -> CorrelationMatrix:
    """Pearson correlation of all asset pairs over return days [a, b].

    Standardization uses the population standard deviation (divisor
    S = b−a+1), so the result is identical to (1/S)·Z Zᵀ for the
    standardized return matrix Z.

    Raises DegenerateDataError if any asset is constant on the window.
    """
    T = returns.n_days
    a, b = int(a), int(b)
    if not 1 <= a <= b <= T:
        raise InputError(f"window [{a}:{b}] out of range 1..{T}")
    S = b - a + 1
    if S < 2:
        raise InputError("correlation window must span at least 2 days")
    X = returns.returns[:, a - 1:b]
    centered = X - X.mean(axis=1, keepdims=True)
    var = np.einsum("it,it->i", centered, centered) / S
    dead = np.flatnonzero(var <= 0.0)
    if dead.size:
        ticker = returns.assets[dead[0]].ticker
        raise DegenerateDataError(
            f"asset {ticker!r} has zero variance on return days [{a}:{b}]"
        )
    Z = centered / np.sqrt(var)[:, None]
    m = Z @ Z.T
    m /= S
    np.fill_diagonal(m, 1.0)
    return CorrelationMatrix((a, b), m)


def _moments(X, S, lo, hi):
    """Centered returns (hi−lo, N, S) and population variances (N, hi−lo) of windows lo..hi−1."""
    windows = sliding_window_view(X[:, lo:hi + S - 1], S, axis=1)
    centered = np.empty((hi - lo, X.shape[0], S))
    np.subtract(windows.transpose(1, 0, 2), windows.mean(axis=2).T[:, :, None],
                out=centered)
    return centered, np.einsum("wns,wns->nw", centered, centered) / S


def _raise_dead(returns, S, lo, step):
    """Raise for the lowest-index asset that is constant on a window >= lo.

    Names that asset's first such window, the same pick as scanning the
    full (N, W) variance array in row-major order.
    """
    W = returns.n_days - S + 1
    dead = []
    for a in range(lo, W, step):
        _, var = _moments(returns.returns, S, a, min(a + step, W))
        dead.extend((int(i), a + int(w)) for i, w in np.argwhere(var <= 0.0))
    i, w = min(dead)
    t = w + S
    raise DegenerateDataError(
        f"asset {returns.assets[i].ticker!r} has zero variance on return days "
        f"[{t - S + 1}:{t}] (window ending {returns.dates[t - 1]})"
    )


def chunk_windows(n_assets, window_days):
    """Windows per kernel chunk: about _CHUNK_BYTES of stack or of Z."""
    return max(1, _CHUNK_BYTES // (8 * n_assets * max(n_assets, int(window_days))))


def window_chunks(returns: ReturnsPanel, window_days=DEFAULT_WINDOW_DAYS,
                  standardize=True, stacks=True):
    """Walk the trailing S-day windows, dated t = S..T, in fixed-size chunks.

    Yields ``(rows, var, Z, stack)`` per chunk: ``rows`` is the slice of
    window indices it covers, ``var`` the (N, c) population variances,
    ``Z`` the (c, N, S) standardized returns and ``stack`` the (c, N, N)
    correlation matrices. ``Z`` is None unless ``standardize`` (which also
    rejects constant assets), ``stack`` is None unless ``stacks`` too.
    """
    S = int(window_days)
    if S < 2:
        raise ConfigError(f"rolling window must be >= 2 days, got {S}")
    T = returns.n_days
    if T < S:
        raise InputError(f"need at least {S} return days, have {T}")
    W = T - S + 1
    step = chunk_windows(returns.n_assets, S)
    idx = np.arange(returns.n_assets)
    for lo in range(0, W, step):
        hi = min(lo + step, W)
        centered, var = _moments(returns.returns, S, lo, hi)
        Z = stack = None
        if standardize:
            if np.any(var <= 0.0):
                _raise_dead(returns, S, lo, step)
            Z = centered
            Z /= np.sqrt(var).T[:, :, None]
            if stacks:
                stack = Z @ Z.transpose(0, 2, 1)
                stack /= S
                stack[:, idx, idx] = 1.0
        yield slice(lo, hi), var, Z, stack


def chunk_norms(stack):
    """ν of each matrix in a (c, N, N) stack."""
    n = stack.shape[1]
    return np.abs(stack).sum(axis=(1, 2)) / (n * n)


def chunk_spectra(Z, stack, dates):
    """Ascending, zero-clamped eigenvalues (c, N) of one kernel chunk's windows.

    With S >= N these come from the (c, N, N) ``stack``. With S < N they
    come from the S×S Gram matrices ZᵀZ/S, whose nonzero
    spectrum is the correlation matrix's; the N−S missing eigenvalues are
    zeros. ``dates`` dates the chunk's windows for the error message.
    """
    _, n, S = Z.shape
    if S < n:
        stack = Z.transpose(0, 2, 1) @ Z
        stack /= S
    try:
        values = np.linalg.eigvalsh(stack)  # ascending, per window
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from None
    if values.min() < -NEGATIVE_EIGENVALUE_TOL:
        w = int(np.argwhere(values < -NEGATIVE_EIGENVALUE_TOL)[0][0])
        raise NumericalError(
            f"window ending {dates[w]} has eigenvalue {values[w].min()} < "
            f"-{NEGATIVE_EIGENVALUE_TOL}"
        )
    values = np.clip(values, 0.0, None)
    if S < n:
        values = np.pad(values, ((0, 0), (n - S, 0)))
    return values


def rolling_statistics(returns: ReturnsPanel, window_days=DEFAULT_WINDOW_DAYS,
                       wanted=("norm",)):
    """Rolling statistics at one window length, from one pass of the kernel.

    ``wanted`` names any of ``STATISTICS``: "norm" gives ν per window (W,),
    "lambda1" the largest eigenvalue λ₁ per window (W,), "spectra" every
    window's eigenvalues, non-increasing (W, N), together with "lambda1",
    and "sigma" the population volatilities (N, W). Returns a dict keyed by
    those names. ν and λ₁ share each chunk's stack when S >= N. Running
    out of memory raises MemoryError with the estimated working set.
    """
    wanted = set(wanted)
    if not wanted or not wanted <= set(STATISTICS):
        raise InputError(f"wanted must name some of {STATISTICS}, got {sorted(wanted)}")
    S, n = int(window_days), returns.n_assets
    norm, sigma, spectra = "norm" in wanted, "sigma" in wanted, "spectra" in wanted
    eig = spectra or "lambda1" in wanted
    stacks = norm or (eig and S >= n)
    dates = returns.dates[S - 1:]
    parts = {key: [] for key in STATISTICS}
    try:
        for rows, var, Z, stack in window_chunks(returns, S, standardize=norm or eig,
                                                 stacks=stacks):
            if norm:
                parts["norm"].append(chunk_norms(stack))
            if eig:
                values = chunk_spectra(Z, stack, dates[rows])
                parts["lambda1"].append(values[:, -1])
                if spectra:
                    parts["spectra"].append(values[:, ::-1])
            if sigma:
                parts["sigma"].append(np.sqrt(var))
    except MemoryError:
        # Per chunk: one (c, N, S) array, centred then scaled into Z, and a
        # stack (or Gram matrices); plus the (N, W) results.
        W = returns.n_days - S + 1
        side = n if stacks else (S if eig else 0)
        need = 8 * (min(chunk_windows(n, S), W) * (n * S + side * side) + W * n)
        raise MemoryError(
            f"estimated kernel working set {need / 2**20:.1f} MiB "
            f"(N={n}, S={S}, W={W})"
        ) from None
    return {key: np.concatenate(chunks, axis=1 if key == "sigma" else 0)
            for key, chunks in parts.items() if chunks}


def rolling_norm_series(returns: ReturnsPanel, window_days=DEFAULT_WINDOW_DAYS,
                        stats=None) -> NormSeries:
    """ν(t) = normalized L1 norm of the trailing S-day correlation matrix, t = S..T.

    Window w (0-based) covers return days [w+1, w+S] and is dated by its
    last day; its matrix equals correlation_matrix(returns, t−S+1, t).
    ``stats``, a ``rolling_statistics`` result for the same window length
    that holds "norm", stands in for the kernel pass.
    """
    if stats is None:
        stats = rolling_statistics(returns, window_days, ("norm",))
    return NormSeries(returns.dates[int(window_days) - 1:], stats["norm"])


def smooth_series(raw, sg_window=DEFAULT_SG_WINDOW, sg_degree=DEFAULT_SG_DEGREE):
    """Savitzky-Golay smoothing by explicit per-point least-squares polynomial fits.

    Each output value is the degree-``sg_degree`` polynomial least-squares
    fit over the window of ``sg_window`` points centered on that index,
    evaluated at the index itself. Edge windows are truncated rather than
    padded, so the output has the input's length and no boundary artifacts
    from invented data.

    Parameters
    ----------
    raw : array_like
        Input series.
    sg_window : int
        Odd window width, at most the series length.
    sg_degree : int
        Polynomial degree, strictly less than ``sg_window``.
    """
    y = np.asarray(raw, dtype=float)
    w, d = int(sg_window), int(sg_degree)
    if w < 1 or w % 2 == 0:
        raise ConfigError(f"sg_window must be a positive odd integer, got {sg_window}")
    if d < 0 or d >= w:
        raise ConfigError(f"sg_degree must satisfy 0 <= degree < window, got {sg_degree}")
    n = y.size
    if n < w:
        raise ConfigError(f"series length {n} shorter than sg_window {w}")
    half = w // 2
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n - 1, i + half)
        x = np.arange(lo, hi + 1, dtype=float) - i  # centered for conditioning
        deg = min(d, hi - lo)
        coeffs = npoly.polyfit(x, y[lo:hi + 1], deg)
        out[i] = coeffs[0]  # value of the fit at x = 0
    return out


def _entry_pool(matrix, exclude_diagonal):
    m = matrix.matrix if isinstance(matrix, CorrelationMatrix) else np.asarray(matrix)
    if not exclude_diagonal:
        return m.ravel()
    n = m.shape[0]
    return m[~np.eye(n, dtype=bool)]


def _gaussian_density(pool, grid, bw):
    """Gaussian kernel-density estimate of ``pool`` at each ``grid`` point.

    Equal entries share one kernel weighted by their count (a symmetric
    matrix holds each off-diagonal entry twice). The grid is evaluated in
    blocks whose (block, centres) temporary stays within ``_CHUNK_BYTES``.
    """
    centres, counts = np.unique(pool, return_counts=True)
    step = max(1, _CHUNK_BYTES // (8 * centres.size))
    density = np.empty(grid.size)
    for lo in range(0, grid.size, step):
        # exp(-½((g − c)/bw)²) in place: one temporary per block
        u = grid[lo:lo + step, None] - centres
        u /= bw
        u *= u
        u *= -0.5
        density[lo:lo + step] = np.exp(u, out=u) @ counts
    return density / (pool.size * bw * math.sqrt(2.0 * math.pi))


def period_entry_stats(returns: ReturnsPanel, periods: PeriodPartition,
                       exclude_diagonal=False, density_points=256):
    """Per-period correlation-entry statistics and kernel-density curves.

    For each period, one correlation matrix is built over every return day
    falling inside the period (periods are intersected with the return
    series' date range, which starts one day after the price panel).
    Reported are the signed mean and population standard deviation of all
    N² entries (or the N²−N off-diagonal entries when
    ``exclude_diagonal``), plus a Gaussian kernel-density estimate of the
    same pool on ``density_points`` points spanning the pool's range
    widened by 3 bandwidths on each side. The bandwidth is Silverman's,
    (3n/4)^(−1/5) times the pool's sample standard deviation for a pool
    of n entries. The estimate is computed in numpy: one kernel per
    distinct entry weighted by its count, evaluated over blocks of grid
    points so that memory stays bounded at large N.
    """
    first, last = returns.dates[0], returns.dates[-1]
    results = []
    for period in periods:
        lo = max(period.start, first)
        hi = min(period.end, last)
        n_days = (hi - lo).days + 1
        if n_days < 2:
            raise InputError(
                f"period {period.label!r} covers fewer than 2 return days "
                f"of {first}..{last}"
            )
        a = (lo - first).days + 1
        b = (hi - first).days + 1
        m = correlation_matrix(returns, a, b)
        pool = _entry_pool(m, exclude_diagonal)
        if pool.size == 0:
            raise InputError(
                "cannot pool off-diagonal entries of a single-asset panel"
            )
        mean = float(pool.mean())
        std = float(pool.std())
        if std > 0.0:
            bw = (0.75 * pool.size) ** -0.2 * float(pool.std(ddof=1))
            grid = np.linspace(pool.min() - 3.0 * bw, pool.max() + 3.0 * bw,
                               int(density_points))
            density = _gaussian_density(pool, grid, bw)
        else:
            grid = np.empty(0)
            density = np.empty(0)
        results.append(PeriodEntryStats(period.label, lo, hi, n_days,
                                        mean, std, grid, density))
    return results
