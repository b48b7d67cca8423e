"""Log returns, windowed correlation matrices, and the rolling L1-norm series.

The central object is the Pearson correlation matrix of N assets over a
trailing window of S return days, standardized with the *population*
standard deviation (divisor S) so that the matrix form (1/S)·Z Zᵀ of the
standardized returns agrees with the entrywise Pearson formula exactly.

Every rolling statistic comes from one kernel, ``rolling_statistics``.
``window_chunks`` splits the W = T−S+1 windows into chunks of c windows.
A worker holds one (c, N, S) array, into which the windows are centred
and which is then scaled in place into the standardized returns Z, plus
its (c, N, N) stack and/or (c, S, S) Gram matrices, as the statistics
asked for need them (``_window_shapes``). c is sized so that the chunks
in flight, one per worker, hold about ``_CHUNK_BYTES`` of all those
buffers between them, except that no chunk but the last holds fewer
than ``_MIN_CHUNK_WINDOWS`` windows. ``fill_chunk`` computes each window's
two-pass mean and variance, then Z, then the stack, into buffers its
caller allocated. ``rolling_statistics`` takes ν(t), λ₁ (solving the S×S
Gram matrices ZᵀZ/S instead of the stack when S < N) and σ from the same
pass, so memory is O(c·N·(N + S) + W·N) per worker rather than the
O(W·N²) of a full stack; ν takes |stack| in place, after the eigensolver.
Neither product is symmetrised: numpy computes A·Aᵀ and Aᵀ·A by BLAS
``syrk`` and copies one triangle onto the other (its no-BLAS loop sums
each entry and its mirror in the same order), so the products are
exactly symmetric and 0.5·(A + Aᵀ) would return them unchanged.
A pass returns each statistic as its record, dated by ``window_length``:
a ``NormSeries`` of ν, a ``SpectralSeries`` of λ₁/N and a
``VolatilityPanel`` of σ. ``rolling_norm_series`` (here),
``spectral.lambda1_series`` and ``inconsistency.rolling_volatility`` each
make a pass for their one statistic.

``correlation_matrix`` runs its one window through ``fill_chunk``, so
every correlation matrix takes one path. A constant asset raises
``DegenerateDataError`` for the series' earliest window holding one,
whatever the chunking: ``fill_chunk`` names its chunk's earliest, and
``_map_chunks`` raises the earliest failing chunk's error.

A pass runs its chunks on one thread per CPU the process may use, the
calling thread among them (``_map_chunks``), and holds numpy's OpenBLAS
at one thread meanwhile, restoring the previous count after
(``_blas_held``). At these matrix sizes BLAS threads buy nothing, and
threads of both kinds would fight over the cores. Where no OpenBLAS
thread setter is found the pass runs on the calling thread and leaves
BLAS alone. No window's arithmetic depends on its chunk or its thread,
so the results do not depend on the CPU count.

``period_entry_stats`` describes each named period by the density of its
correlation entries: a Gaussian kernel-density estimate with Silverman's
bandwidth, computed in numpy rather than by ``scipy.stats``, whose import
would dominate the start-up of every run. Equal entries share one kernel
weighted by their count, and each grid point sums only the centres
within ``_KDE_REACH`` bandwidths, whose kernels are normal doubles. The
grid blocks of all periods run like the kernel's chunks: on the same
threads, in buffers the calling thread allocates that share
``_CHUNK_BYTES``, under one hold of OpenBLAS for the whole call, with
values that do not depend on the worker count.

Day indices follow the return-series convention used throughout: return
day ``t`` runs 1..T, where return t is ln(close(t)/close(t−1)).
"""

from __future__ import annotations

import contextlib
import ctypes
import datetime as dt
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigError, DegenerateDataError, InputError, NumericalError,
                     frozen_array, set_fields)
from .panel import PeriodPartition, PricePanel

DEFAULT_WINDOW_DAYS = 90
DEFAULT_SG_WINDOW = 31
DEFAULT_SG_DEGREE = 3
# Bytes of buffers that the kernel's chunks in flight hold together, one
# per worker: every window's Z, stack and Gram matrices that the pass needs
# (``_window_shapes``). Also the 8-byte (grid point, centre) terms that the
# period KDE's blocks in flight cover together.
_CHUNK_BYTES = 2 << 20
# Fewest windows in any kernel chunk but the last, whatever the budget
# allows. Shorter chunks cost more in per-chunk calls than they save: a
# pass over 200 assets at S = 90 on two workers (2-vCPU VM) took
# 500–610 ms in chunks of 3 windows against 290–355 ms in chunks of 6.
# From about N = 135 at S = 90 the floor, not the budget, sets the chunk;
# at N = 400 six windows of Z, stack and Gram take 9.8 MB per worker.
_MIN_CHUNK_WINDOWS = 6
# Bandwidths beyond which a kernel term exp(-u²/2) falls below the smallest
# normal double, 2.2e-308; numpy's exp takes a slow path there, so the
# period KDE leaves those terms out. About 37.64.
_KDE_REACH = math.sqrt(-2.0 * math.log(sys.float_info.min))
# (prefix, suffix) of the OpenBLAS thread-count calls: numpy >= 2 wheels,
# numpy 1.2x wheels, then an OpenBLAS linked without symbol renaming.
_OPENBLAS_SYMBOLS = (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))
# Held for a whole kernel pass or period KDE, so that concurrent passes
# cannot interleave the hold and restore of the OpenBLAS thread count.
_PASS_LOCK = threading.Lock()
# Eigenvalues below minus this are an error; rounding leaves smaller ones.
NEGATIVE_EIGENVALUE_TOL = 1e-10
# Grid points of each period's kernel-density curve.
_DENSITY_POINTS = 256
STATISTICS = ("norm", "lambda1", "sigma")


@dataclass(frozen=True)
class ReturnsPanel:
    """N×T daily log returns and market caps, one row per ticker, dated t = 1..T.

    ``market_caps[:, t-1]`` is each asset's cap at the close of return day
    t; ``log_returns`` aligns them, so the analyses that window caps beside
    returns read both from here.
    """

    dates: tuple
    tickers: tuple
    returns: np.ndarray
    market_caps: np.ndarray

    def __post_init__(self):
        dates = tuple(self.dates)
        tickers = tuple(self.tickers)
        if not all(tickers):
            raise InputError("asset ticker must be non-empty")
        shape = (len(tickers), len(dates))
        caps = frozen_array(self.market_caps, "market caps", shape)
        if np.any(caps < 0):
            raise InputError("market caps must be non-negative")
        set_fields(self, dates=dates, tickers=tickers,
                   returns=frozen_array(self.returns, "returns", shape), market_caps=caps)

    @property
    def n_assets(self):
        return len(self.tickers)

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
        m = frozen_array(self.matrix, "correlation matrix", (None, None))
        if m.shape[0] != m.shape[1]:
            raise InputError(f"correlation matrix must be square, got {m.shape}")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
            raise InputError("correlation matrix must be symmetric")
        if np.any(np.abs(m) > 1.0 + 1e-12):
            raise InputError("correlation entries must lie in [-1, 1]")
        set_fields(self, window=(int(a), int(b)), matrix=m)

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
        raw = frozen_array(self.raw, "raw norm values", (len(dates),))
        if np.any((raw < -1e-9) | (raw > 1.0 + 1e-9)):
            raise InputError("raw norm values must lie in [0, 1]")
        smoothed = self.smoothed
        if smoothed is not None:
            smoothed = frozen_array(smoothed, "smoothed norm values", raw.shape)
        set_fields(self, dates=dates, raw=raw, smoothed=smoothed)

    def with_smoothed(self, sg_window=DEFAULT_SG_WINDOW, sg_degree=DEFAULT_SG_DEGREE):
        return NormSeries(self.dates, self.raw,
                          smooth_series(self.raw, sg_window, sg_degree))


@dataclass(frozen=True)
class SpectralSeries:
    """λ̃₁ per window end date."""

    dates: tuple
    lambda1: np.ndarray
    n_assets: int

    def __post_init__(self):
        dates = tuple(self.dates)
        n = int(self.n_assets)
        if n < 1:
            raise InputError("n_assets must be >= 1")
        lam = frozen_array(self.lambda1, "lambda1 values", (len(dates),))
        if np.any((lam < 1.0 / n - 1e-9) | (lam > 1.0 + 1e-9)):
            raise InputError(f"lambda1 values must lie in [1/{n}, 1]")
        set_fields(self, dates=dates, lambda1=lam, n_assets=n)


@dataclass(frozen=True)
class VolatilityPanel:
    """Per-asset trailing-window population volatilities, dated t = S..T."""

    dates: tuple
    sigmas: np.ndarray
    window_days: int

    def __post_init__(self):
        dates = tuple(self.dates)
        if not dates:
            raise InputError("volatility panel needs at least one date")
        sigmas = frozen_array(self.sigmas, "volatilities", (None, len(dates)))
        if np.any(sigmas < 0.0):
            raise InputError("volatilities must be non-negative")
        S = _whole(self.window_days)
        if S is None:
            raise InputError(f"window_days must be an integer, got {self.window_days!r}")
        if S < 2:
            raise InputError("window_days must be >= 2")
        set_fields(self, dates=dates, sigmas=sigmas, window_days=S)

    @property
    def n_assets(self):
        return self.sigmas.shape[0]


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

    def __post_init__(self):
        x = frozen_array(self.density_x, "density grid", (None,))
        set_fields(self, density_x=x,
                   density_y=frozen_array(self.density_y, "density values", x.shape))


def log_returns(panel: PricePanel) -> ReturnsPanel:
    """Daily log returns ln(c(t)/c(t−1)) for every asset; dates shift to t=1..T.

    Each return day t keeps the caps at its own close, panel day t.
    """
    if panel.n_days < 2:
        raise InputError("need at least two days of prices to form returns")
    matrix = np.diff(np.log(panel.closes), axis=1)
    return ReturnsPanel(panel.dates[1:], panel.tickers, matrix, panel.market_caps[:, 1:])


def correlation_matrix(returns: ReturnsPanel, a: int, b: int) -> CorrelationMatrix:
    """Pearson correlation of all asset pairs over return days [a, b].

    Standardization uses the population standard deviation (divisor
    S = b−a+1), so the result is identical to (1/S)·Z Zᵀ for the
    standardized return matrix Z. ``fill_chunk`` computes it as a chunk of
    one window.

    Raises DegenerateDataError if any asset is constant on the window.
    """
    T = returns.n_days
    ends = [_whole(a), _whole(b)]
    if None in ends:
        raise InputError(f"window [{a!r}:{b!r}] must have whole-day ends")
    a, b = ends
    if not 1 <= a <= b <= T:
        raise InputError(f"window [{a}:{b}] out of range 1..{T}")
    S = b - a + 1
    if S < 2:
        raise InputError("correlation window must span at least 2 days")
    n = returns.n_assets
    stack = np.empty((1, n, n))
    fill_chunk(returns, S, slice(a - 1, a), np.empty((1, n, S)), stack)
    return CorrelationMatrix((a, b), stack[0])


def _whole(value):
    """``value`` as an int, or None if ``int`` cannot read it or would change it."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value else None


def window_length(returns: ReturnsPanel, window_days):
    """S as an int, and the dates t = S..T of the trailing S-day windows.

    Every rolling series takes its windows and dates by this rule: an S
    that ``int`` cannot read or would change (30.7, "30") or S < 2 is a
    ConfigError, fewer than S return days an InputError.
    """
    S = _whole(window_days)
    if S is None:
        raise ConfigError(f"rolling window must be a whole number of days, got {window_days!r}")
    if S < 2:
        raise ConfigError(f"rolling window must be >= 2 days, got {S}")
    T = returns.n_days
    if T < S:
        raise InputError(f"need at least {S} return days, have {T}")
    return S, returns.dates[S - 1:]


def _window_shapes(n_assets, window_days, wanted):
    """The shapes of the buffers a kernel pass for ``wanted`` holds per window.

    In order: the (N, S) centred returns, scaled into Z; the (N, N) stack,
    for ν, and for λ₁ when S >= N; the (S, S) Gram matrix, for λ₁ when
    S < N. None stands for a buffer the pass does not hold.
    """
    n, S = n_assets, int(window_days)
    norm, eig = "norm" in wanted, "lambda1" in wanted
    return [(n, S), (n, n) if norm or (eig and S >= n) else None,
            (S, S) if eig and S < n else None]


def _window_bytes(shapes):
    """Bytes of float64 buffers of ``_window_shapes``, for one window."""
    return 8 * sum(a * b for a, b in filter(None, shapes))


def window_chunks(returns: ReturnsPanel, window_days, workers, wanted):
    """The trailing S-day windows, dated t = S..T, as row slices of one chunk each.

    Window w (0-based) covers return days [w+1, w+S]. All chunks but the
    last hold c windows: as many as let ``workers`` chunks share
    ``_CHUNK_BYTES`` of the buffers a pass for ``wanted`` holds
    (``_window_shapes``), but at least ``_MIN_CHUNK_WINDOWS``.
    """
    S, dates = window_length(returns, window_days)
    W = len(dates)
    per_window = _window_bytes(_window_shapes(returns.n_assets, S, wanted))
    step = max(_MIN_CHUNK_WINDOWS, _CHUNK_BYTES // (per_window * workers))
    return [slice(lo, min(lo + step, W)) for lo in range(0, W, step)]


def fill_chunk(returns: ReturnsPanel, window_days, rows, centered, stack=None, gram=None):
    """Compute one chunk of windows into the caller's buffers; return its variances.

    ``rows`` is a slice of window indices and ``centered`` a (c, N, S)
    buffer for them, which receives the centred returns. Given a ``stack``
    (c, N, N) or a ``gram`` (c, S, S) buffer, a constant asset raises
    DegenerateDataError, naming the chunk's earliest window holding one and
    the lowest such asset there; otherwise ``centered`` is scaled in place
    into the standardized returns Z, ``stack`` filled with the correlation
    matrices ZZᵀ/S and ``gram`` with the Gram matrices ZᵀZ/S. Returns the
    (N, c) population variances.
    """
    S = int(window_days)
    windows = sliding_window_view(returns.returns[:, rows.start:rows.stop + S - 1], S, axis=1)
    np.subtract(windows.transpose(1, 0, 2), windows.mean(axis=2).T[:, :, None],
                out=centered)
    var = np.einsum("wns,wns->nw", centered, centered) / S
    if stack is None and gram is None:
        return var
    dead = np.argwhere(var.T <= 0.0)  # (window, asset), earliest window first
    if dead.size:
        w, i = dead[0]
        t = rows.start + int(w) + S
        raise DegenerateDataError(
            f"asset {returns.tickers[i]!r} has zero variance on return days "
            f"[{t - S + 1}:{t}] (window ending {returns.dates[t - 1]})"
        )
    Z = centered
    Z /= np.sqrt(var).T[:, :, None]
    if stack is not None:
        np.matmul(Z, Z.transpose(0, 2, 1), out=stack)
        stack /= S
        idx = np.arange(returns.n_assets)
        stack[:, idx, idx] = 1.0
    if gram is not None:
        np.matmul(Z.transpose(0, 2, 1), Z, out=gram)
        gram /= S
    return var


def chunk_norms(stack):
    """ν of each matrix in a (c, N, N) stack, which is left holding |stack|."""
    n = stack.shape[1]
    return np.abs(stack, out=stack).sum(axis=(1, 2)) / (n * n)


def chunk_lambda1(matrices, dates):
    """λ₁ of each of one kernel chunk's windows (c,), dated by ``dates``.

    ``matrices`` are the (c, N, N) correlation matrices or, with S < N,
    the S×S Gram matrices ZᵀZ/S, which have the same λ₁.
    """
    try:
        values = np.linalg.eigvalsh(matrices)  # ascending, per window
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from None
    if values.min() < -NEGATIVE_EIGENVALUE_TOL:
        w = int(np.argwhere(values < -NEGATIVE_EIGENVALUE_TOL)[0][0])
        raise NumericalError(
            f"window ending {dates[w]} has eigenvalue {values[w].min()} < "
            f"-{NEGATIVE_EIGENVALUE_TOL}"
        )
    return values[:, -1]


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of numpy's OpenBLAS, or None.

    ``dlsym`` on numpy's linalg extension also searches the libraries it
    links, so this finds the OpenBLAS bundled in numpy's wheels. Other
    BLAS libraries (MKL, Accelerate, BLIS) and Windows give None.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in _OPENBLAS_SYMBOLS:
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def _worker_count():
    """Threads a pass runs on: one per CPU, or one without an OpenBLAS setter."""
    return _cpu_count() if _openblas_threads() else 1


@contextlib.contextmanager
def _blas_held():
    """Hold numpy's OpenBLAS at one thread; restore the previous count on exit.

    The count comes back also when the body raises. ``_PASS_LOCK`` keeps
    concurrent holders from interleaving the hold and the restore; it is
    not reentrant, so a hold must never nest. Without an OpenBLAS thread
    setter BLAS is left alone.
    """
    get, put = _openblas_threads() or (lambda: None, lambda count: None)
    with _PASS_LOCK:
        before = get()
        put(1)
        try:
            yield
        finally:
            put(before)


def _map_chunks(work, chunks, buffers):
    """Call ``work(chunk, bufs)`` for every chunk, on one thread per buffer set.

    The calling thread is one of the threads. Chunks are claimed in list
    order and none is claimed once one has failed, so every chunk before
    the first failure runs and the earliest failing chunk's error is raised.
    """
    todo = iter(enumerate(chunks))
    claim = threading.Lock()
    failed = []

    def drain(bufs):
        while True:
            with claim:
                item = None if failed else next(todo, None)
            if item is None:
                return
            index, chunk = item
            try:
                work(chunk, bufs)
            except BaseException as exc:  # re-raised below, earliest chunk first
                with claim:
                    failed.append((index, exc))

    helpers = [threading.Thread(target=drain, args=(bufs,)) for bufs in buffers[1:]]
    for thread in helpers:
        thread.start()
    try:
        drain(buffers[0])
    finally:
        for thread in helpers:
            thread.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def rolling_statistics(returns: ReturnsPanel, window_days=DEFAULT_WINDOW_DAYS,
                       wanted=("norm",)):
    """Rolling statistics at one window length, from one pass of the kernel.

    ``wanted`` names any of ``STATISTICS``. Returns each one's record,
    keyed by its name and dated t = S..T: "norm" a ``NormSeries`` of ν,
    "lambda1" a ``SpectralSeries`` of λ₁/N and "sigma" a
    ``VolatilityPanel`` of the (N, W) population volatilities. ν and λ₁
    share each chunk's stack when S >= N. Running out of memory raises
    MemoryError with the estimated working set.

    The chunks run on one thread per CPU, with numpy's OpenBLAS held at
    one thread for the pass; without a way to set OpenBLAS threads the
    pass runs on the calling thread alone. The results are the same
    either way.
    """
    wanted = set(wanted)
    if not wanted or not wanted <= set(STATISTICS):
        raise InputError(f"wanted must name some of {STATISTICS}, got {sorted(wanted)}")
    S, dates = window_length(returns, window_days)
    n = returns.n_assets
    norm, eig, sigma = "norm" in wanted, "lambda1" in wanted, "sigma" in wanted
    workers = _worker_count()
    chunks = window_chunks(returns, S, workers, wanted)
    workers = min(workers, len(chunks))
    W, c = chunks[-1].stop, chunks[0].stop
    # Per worker, c windows of each buffer. The calling thread allocates
    # them all, so that no worker thread's heap keeps a freed chunk.
    shapes = _window_shapes(n, S, wanted)

    def work(rows, bufs):
        centered, stack, gram = (b if b is None else b[:rows.stop - rows.start]
                                 for b in bufs)
        var = fill_chunk(returns, S, rows, centered, stack, gram)
        if sigma:
            np.sqrt(var, out=out["sigma"][:, rows])
        if eig:
            out["lambda1"][rows] = chunk_lambda1(gram if S < n else stack, dates[rows])
        if norm:  # after the eigensolver: this overwrites the stack
            out["norm"][rows] = chunk_norms(stack)

    try:
        buffers = [[shape if shape is None else np.empty((c,) + shape)
                    for shape in shapes] for _ in range(workers)]
        out = {key: np.empty((n, W) if key == "sigma" else W)
               for key in STATISTICS if key in wanted}
        with _blas_held():
            _map_chunks(work, chunks, buffers)
    except MemoryError:
        # Every worker's buffers, plus the (N, W) results.
        need = workers * c * _window_bytes(shapes) + 8 * W * n
        raise MemoryError(
            f"estimated kernel working set {need / 2**20:.1f} MiB "
            f"(N={n}, S={S}, W={W})"
        ) from None
    records = {"norm": lambda nu: NormSeries(dates, nu),
               "lambda1": lambda lam: SpectralSeries(dates, lam / n, n),
               "sigma": lambda sigmas: VolatilityPanel(dates, sigmas, S)}
    return {key: records[key](values) for key, values in out.items()}


def rolling_norm_series(returns: ReturnsPanel,
                        window_days=DEFAULT_WINDOW_DAYS) -> NormSeries:
    """ν(t) = normalized L1 norm of the trailing S-day correlation matrix, t = S..T.

    Window w (0-based) covers return days [w+1, w+S] and is dated by its
    last day; its matrix equals correlation_matrix(returns, t−S+1, t).
    """
    return rolling_statistics(returns, window_days, ("norm",))["norm"]


def _fit_weights(x, degree):
    """Weights whose dot product with y is the least-squares polynomial fit at x = 0.

    The fit is of degree ``degree`` to the points (x, y); x is scaled to
    [-1, 1] first, which leaves the value at 0 unchanged and keeps the
    Vandermonde matrix well conditioned.
    """
    x = x / max(1.0, float(np.abs(x).max()))
    return np.linalg.pinv(np.vander(x, degree + 1, increasing=True))[0]


def smooth_series(raw, sg_window=DEFAULT_SG_WINDOW, sg_degree=DEFAULT_SG_DEGREE):
    """Savitzky-Golay smoothing: a least-squares polynomial fit around every point.

    Each output value is the degree-``sg_degree`` polynomial least-squares
    fit over the window of ``sg_window`` points centered on that index,
    evaluated at the index itself. Edge windows are truncated rather than
    padded, so the output has the input's length and no boundary artifacts
    from invented data. A fit's value is linear in y, so every interior
    point is one correlation with the same weights, and each of the
    2·(sg_window // 2) edge points has weights of its own, fitted with
    degree at most its truncated window's length minus one.

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
    out[half:n - half] = np.correlate(y, _fit_weights(np.arange(-half, half + 1.0), d),
                                      "valid")
    for i in range(half):
        # Point i fits y[0 .. i+half]; point n−1−i is its mirror image.
        weights = _fit_weights(np.arange(-i, half + 1.0), min(d, i + half))
        out[i] = weights @ y[:i + half + 1]
        out[n - 1 - i] = weights[::-1] @ y[n - 1 - i - half:]
    return out


def _entry_pool(m, exclude_diagonal):
    if not exclude_diagonal:
        return m.ravel()
    n = m.shape[0]
    return m[~np.eye(n, dtype=bool)]


def _gaussian_densities(estimates):
    """Gaussian kernel-density estimates, one per ``(pool, grid, bw)``.

    An empty grid gets an empty density. Equal entries share one kernel weighted by their count (a symmetric
    matrix holds each off-diagonal entry twice). A grid point sums, in one
    ``ndarray.dot``, the kernels of the centres within ``_KDE_REACH``
    bandwidths of it, a window of the sorted centres found by
    ``searchsorted``. A skipped term is at most about 2.2e-308 before
    weighting, so a density differs from the dense sum over every centre
    only where that whole sum is below about 1e-285.

    The grid points of all estimates are cut into blocks, which run on the
    kernel's threads (``_map_chunks``). Each worker fills a buffer that
    the calling thread allocated, and the buffers share ``_CHUNK_BYTES``:
    a block's (point, centre) terms span its first point's window to its
    last point's. Where every point's window is that span, the block is
    exponentiated at once; otherwise each point exponentiates its own
    window only, since numpy's ``exp`` is slow where its result would be
    subnormal or zero. No point's arithmetic depends on its block or its
    thread, so the values do not depend on the worker count. Call this
    with OpenBLAS held at one thread (``_blas_held``), or a long ``dot``
    may split its sum over BLAS threads.
    """
    terms = []
    for pool, grid, bw in estimates:
        centres, counts = np.unique(pool, return_counts=True)
        terms.append((grid, centres, counts.astype(float), bw,
                      np.searchsorted(centres, grid - _KDE_REACH * bw),
                      np.searchsorted(centres, grid + _KDE_REACH * bw, side="right"),
                      pool.size * bw * math.sqrt(2.0 * math.pi), np.empty(grid.size)))
    if not terms:
        return []
    widest = max(t[1].size for t in terms)
    workers = _worker_count()
    step = max(1, _CHUNK_BYTES // (8 * widest * workers))
    blocks = [(t, slice(lo, min(lo + step, t[0].size)))
              for t in terms for lo in range(0, t[0].size, step)]

    def work(block, buf):
        (grid, centres, counts, bw, window_lo, window_hi, norm, density), rows = block
        starts, stops = window_lo[rows].tolist(), window_hi[rows].tolist()
        lo, hi = starts[0], stops[-1]
        u = buf[:len(starts) * (hi - lo)].reshape(len(starts), hi - lo)
        # exp(-½((g − c)/bw)²) in place
        np.subtract(grid[rows, None], centres[lo:hi], out=u)
        u /= bw
        u *= u
        u *= -0.5
        whole = starts[-1] == lo and stops[0] == hi  # every window is [lo, hi)
        if whole:
            np.exp(u, out=u)
        sums = density[rows]
        for k, (row, a, b) in enumerate(zip(u, starts, stops)):
            window = row[a - lo:b - lo]
            if not whole:
                np.exp(window, out=window)
            sums[k] = window.dot(counts[a:b])
        sums /= norm

    if blocks:  # none if every grid is empty
        buffers = [np.empty(step * widest) for _ in range(min(workers, len(blocks)))]
        _map_chunks(work, blocks, buffers)
    return [t[-1] for t in terms]


def period_entry_stats(returns: ReturnsPanel, periods: PeriodPartition,
                       exclude_diagonal=False):
    """Per-period correlation-entry statistics and kernel-density curves.

    One record per period covering at least 2 return days, in order; a
    period with fewer has no correlation matrix and is skipped (the return
    series starts one day after the price panel). Each period's matrix is
    built over the return days it covers. Reported are the signed mean and
    population standard deviation of all N² entries (or the N²−N
    off-diagonal entries when ``exclude_diagonal``), plus a Gaussian
    kernel-density estimate of the same pool on ``_DENSITY_POINTS`` (256)
    points spanning the pool's range widened by 3 bandwidths on each side.
    The bandwidth is Silverman's, (3n/4)^(−1/5) times the pool's sample
    standard deviation for a pool of n entries. The estimates are computed
    in numpy by ``_gaussian_densities``, all periods' grids together on one
    thread per CPU. OpenBLAS is held at one thread for the whole call, the
    correlation matrices included, so the results depend neither on the
    CPU count nor on ``OPENBLAS_NUM_THREADS``.
    """
    first, last = returns.dates[0], returns.dates[-1]
    summaries, estimates = [], []
    with _blas_held():
        for period in periods:
            lo = max(period.start, first)
            hi = min(period.end, last)
            n_days = (hi - lo).days + 1
            if n_days < 2:
                continue
            a = (lo - first).days + 1
            b = (hi - first).days + 1
            pool = _entry_pool(correlation_matrix(returns, a, b).matrix, exclude_diagonal)
            if pool.size == 0:
                raise InputError(
                    "cannot pool off-diagonal entries of a single-asset panel"
                )
            std = float(pool.std())
            grid, bw = np.empty(0), 0.0
            if std > 0.0:
                bw = (0.75 * pool.size) ** -0.2 * float(pool.std(ddof=1))
                grid = np.linspace(pool.min() - 3.0 * bw, pool.max() + 3.0 * bw,
                                   _DENSITY_POINTS)
            summaries.append((period.label, lo, hi, n_days, float(pool.mean()), std, grid))
            estimates.append((pool, grid, bw))
        densities = _gaussian_densities(estimates)
    return [PeriodEntryStats(*summary, density)
            for summary, density in zip(summaries, densities)]
