"""The chunked window kernel against per-window oracles.

The chunk length and the worker count are forced here, so windows
straddle chunk boundaries and chunks run on several threads; in
production the chunk is sized from bytes, most test panels would fit in
one chunk, and there is one worker per CPU.
"""

import datetime as dt
import math
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cryptodynamics as cd
from cryptodynamics import correlation
from cryptodynamics.correlation import chunk_lambda1

import reference
from test_correlation import make_returns


def chunked(c, workers=1):
    """Patch the kernel so that it walks c windows per chunk on ``workers`` threads.

    With no byte budget the floor alone sets the chunk length, whatever
    buffers a pass holds. Without an OpenBLAS setter the kernel runs one
    worker whatever the CPU count, still with c windows per chunk.
    """
    if not correlation._openblas_threads():
        workers = 1
    return mock.patch.multiple(correlation, _cpu_count=lambda: workers,
                               _CHUNK_BYTES=0, _MIN_CHUNK_WINDOWS=c)


def arrays(records):
    """The values of a kernel pass's records, keyed by statistic."""
    fields = {"norm": "raw", "lambda1": "lambda1", "sigma": "sigmas"}
    return {key: getattr(record, fields[key]) for key, record in records.items()}


def blas_threads():
    """numpy's OpenBLAS thread count, or skip the test without a setter."""
    blas = correlation._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS thread-count setter in this numpy")
    return blas


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), S=st.integers(2, 12), W=st.integers(1, 30),
       c=st.integers(1, 12), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(n=1, S=2, W=5, c=2, k=1, seed=0)
@example(n=2, S=2, W=7, c=3, k=2, seed=1)    # W not a multiple of the chunk
@example(n=5, S=3, W=4, c=10, k=3, seed=2)   # W smaller than one chunk, S < N
@example(n=4, S=9, W=12, c=4, k=3, seed=3)   # S >= N, W a multiple of the chunk
def test_kernel_matches_per_window_oracles(n, S, W, c, k, seed):
    X = np.random.default_rng(seed).standard_normal((n, S + W - 1))
    r = make_returns(X)
    stack = reference.correlation_stack(X, S)
    with chunked(c, k):
        chunks = correlation.window_chunks(r, S, correlation._cpu_count(), ("norm",))
        assert [rows.stop - rows.start for rows in chunks[:-1]] == [c] * (len(chunks) - 1)
        assert 1 <= chunks[-1].stop - chunks[-1].start <= c
        nu = cd.rolling_norm_series(r, S)
        lam = cd.lambda1_series(r, S)
        vol = cd.rolling_volatility(r, S)

    assert nu.dates == lam.dates == vol.dates == r.dates[S - 1:]
    want_nu = [reference.abs_entry_mean(m) for m in stack]
    np.testing.assert_allclose(nu.raw, want_nu, rtol=0.0, atol=1e-12)

    want_lam = np.linalg.eigvalsh(stack)[:, -1] / n
    np.testing.assert_allclose(lam.lambda1, want_lam, rtol=0.0, atol=1e-12)

    np.testing.assert_allclose(vol.sigmas, reference.rolling_std(X, S),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("wrapper,statistic", [(cd.rolling_norm_series, "norm"),
                                               (cd.lambda1_series, "lambda1"),
                                               (cd.rolling_volatility, "sigma")])
@pytest.mark.parametrize("S", [0, 1, 21])
def test_a_bad_window_fails_alike_with_or_without_a_pass(wrapper, statistic, S):
    # window_length checks S and dates every series, so a wrapper and a
    # pass made directly for its statistic raise the same error and text.
    r = make_returns(np.random.default_rng(4).standard_normal((3, 20)))
    if S < 2:
        error, message = cd.ConfigError, f"rolling window must be >= 2 days, got {S}"
    else:
        error, message = cd.InputError, "need at least 21 return days, have 20"
    for call in (wrapper, lambda *args: correlation.rolling_statistics(*args, (statistic,))):
        with pytest.raises(cd.InputError) as info:
            call(r, S)
        assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("days", [30.7, 2.99, "30", "5", "abc", None, math.nan, math.inf])
def test_a_window_that_int_would_change_is_rejected(days):
    # Truncating 30.7 to 30 or reading "30" as 30 would silently analyse
    # another window, and "abc" would escape as int's own ValueError; a
    # whole float or a numpy integer is still a length.
    r = make_returns(np.random.default_rng(4).standard_normal((3, 40)))
    message = f"rolling window must be a whole number of days, got {days!r}"
    for call in (cd.rolling_norm_series, cd.lambda1_series, cd.rolling_volatility,
                 cd.rolling_market_size, correlation.window_length):
        with pytest.raises(cd.ConfigError) as info:
            call(r, days)
        assert str(info.value) == message
    for days in (30.0, np.int64(30)):
        S, dates = correlation.window_length(r, days)
        assert (type(S), S, dates) == (int, 30, r.dates[29:])
        assert cd.rolling_volatility(r, days).window_days == 30


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), S=st.integers(2, 12), W=st.integers(1, 30),
       c=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(n=4, S=9, W=12, c=4, seed=3)   # stack route
@example(n=7, S=2, W=9, c=2, seed=4)    # Gram route
def test_products_are_exactly_symmetric(n, S, W, c, seed):
    # The kernel never symmetrises A·Aᵀ or Aᵀ·A, so both must come out of
    # the matrix product symmetric bit for bit.
    X = np.random.default_rng(seed).standard_normal((n, S + W - 1))
    r = make_returns(X)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        solved.append(a.copy())
        return eigvalsh(a)

    products = []
    with chunked(c, 2), mock.patch.object(np.linalg, "eigvalsh", recording):
        for rows in correlation.window_chunks(r, S, correlation._cpu_count(),
                                              correlation.STATISTICS):
            m = rows.stop - rows.start
            stack, gram = np.empty((m, n, n)), np.empty((m, S, S))
            correlation.fill_chunk(r, S, rows, np.empty((m, n, S)), stack, gram)
            products += [stack, gram]
        cd.lambda1_series(r, S)
    assert len(products) == 2 * len(solved) == 2 * -(-W // c)
    assert all(m.shape[1:] == (min(n, S),) * 2 for m in solved)
    single = cd.correlation_matrix(r, W, W + S - 1).matrix
    for m in products + solved + [single[None]]:
        np.testing.assert_array_equal(m, m.transpose(0, 2, 1))


@pytest.mark.parametrize("n, S", [(4, 9), (8, 5)])  # stack route, Gram route
def test_shared_pass_equals_separate_passes(n, S):
    X = np.random.default_rng(4).standard_normal((n, 60))
    r = make_returns(X)
    with chunked(7):
        shared = correlation.rolling_statistics(r, S, ("sigma", "norm", "lambda1"))
        separate = {"norm": cd.rolling_norm_series(r, S), "lambda1": cd.lambda1_series(r, S),
                    "sigma": cd.rolling_volatility(r, S)}
    assert list(shared) == ["norm", "lambda1", "sigma"]
    kinds = {"norm": cd.NormSeries, "lambda1": cd.SpectralSeries, "sigma": cd.VolatilityPanel}
    for key, record in shared.items():
        assert type(record) is type(separate[key]) is kinds[key]
        assert record.dates == separate[key].dates == r.dates[S - 1:]
        np.testing.assert_array_equal(arrays(shared)[key], arrays(separate)[key])
    assert shared["lambda1"].n_assets == separate["lambda1"].n_assets == n
    assert shared["sigma"].window_days == separate["sigma"].window_days == S


def test_rolling_statistics_rejects_unknown_names():
    r = make_returns(np.random.default_rng(7).standard_normal((3, 20)))
    for wanted in ((), ("norm", "mean"), ("spectra",)):
        with pytest.raises(cd.InputError, match="wanted must name some of"):
            correlation.rolling_statistics(r, 5, wanted)


def test_zero_variance_names_lowest_asset_and_its_first_window():
    # A2 dies in the first window, A1 only in the last chunk: the error
    # names the earliest degenerate window, however the windows are chunked
    # and on however many threads. Once A1 is also constant on that window,
    # the error names A1, the lowest constant asset there.
    X = np.random.default_rng(6).standard_normal((3, 40))
    X[2, 0:6] = 0.5
    X[1, 30:36] = -0.25
    X[1, 34:40] = -0.25
    S = 5
    both = X.copy()
    both[1, 0:5] = 0.125
    for panel, ticker in ((X, "A2"), (both, "A1")):
        r = make_returns(panel)
        for c, k in ((1, 1), (4, 1), (100, 1), (1, 3), (4, 2), (100, 2)):
            with chunked(c, k):
                with pytest.raises(cd.DegenerateDataError) as info:
                    cd.rolling_norm_series(r, S)
            assert str(info.value) == (
                f"asset {ticker!r} has zero variance on return days [1:5] "
                f"(window ending {r.dates[4]})"
            )


def near_constant_panel(n, S, W, kind):
    """Random returns with asset A1 constant at 0.25 up to a tiny change.

    "spike" moves A1 by 1e-12 on return day S only, which every window
    holds while W <= S; "noise" adds 1e-12-sized noise on every day.
    """
    rng = np.random.default_rng(10)
    X = 0.02 * rng.standard_normal((n, S + W - 1))
    X[1] = 0.25
    if kind == "spike":
        X[1, S - 1] += 1e-12
    else:
        X[1] += 1e-12 * rng.standard_normal(S + W - 1)
    return X


@pytest.mark.parametrize("n, S", [(4, 9), (8, 5)])  # stack route, Gram route
@pytest.mark.parametrize("kind", ["spike", "noise"])
def test_near_constant_asset_matches_reference(n, S, kind):
    X = near_constant_panel(n, S, S, kind)
    r = make_returns(X)
    with chunked(3):
        nu = cd.rolling_norm_series(r, S).raw
        lam = cd.lambda1_series(r, S).lambda1
    assert np.all((nu >= 0.0) & (nu <= 1.0))
    assert np.all((lam >= 1.0 / n) & (lam <= 1.0))
    stack = reference.correlation_stack(X, S)
    want_nu = [reference.abs_entry_mean(m) for m in stack]
    np.testing.assert_allclose(nu, want_nu, rtol=0.0, atol=1e-12)
    want_lam = np.linalg.eigvalsh(stack)[:, -1] / n
    np.testing.assert_allclose(lam, want_lam, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, S", [(4, 9), (8, 5)])
def test_exactly_constant_window_still_raises(n, S):
    X = near_constant_panel(n, S, S + 1, "spike")  # the last window misses the move
    r = make_returns(X)
    for fn in (cd.rolling_norm_series, cd.lambda1_series):
        with pytest.raises(cd.DegenerateDataError, match=(
                rf"asset 'A1' has zero variance on return days \[{S + 1}:{2 * S}\]")):
            fn(r, S)


def test_zero_variance_does_not_stop_volatility():
    X = np.random.default_rng(8).standard_normal((2, 20))
    X[0, 3:10] = 1.0
    vol = cd.rolling_volatility(make_returns(X), 5)
    assert vol.sigmas[0, 3] == 0.0 and np.all(vol.sigmas[1] > 0.0)


def test_negative_eigenvalue_names_the_window_date():
    dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
    stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(cd.NumericalError, match="window ending 2020-01-02"):
        chunk_lambda1(stack, dates)


def test_eigenvalues_down_to_minus_the_tolerance_pass():
    # An eigenvalue of exactly −tol passes; the error names the first window
    # below it, not an earlier one at it or a later one below it.
    tol = correlation.NEGATIVE_EIGENVALUE_TOL
    dates = tuple(dt.date(2020, 1, day) for day in (1, 2, 3, 4))
    stack = np.array([np.diag([v, 2.0]) for v in (-tol, 0.5, -tol, 0.5)])
    assert chunk_lambda1(stack, dates).tolist() == [2.0] * 4
    stack[2, 0, 0] = stack[3, 0, 0] = -2 * tol
    with pytest.raises(cd.NumericalError, match="window ending 2020-01-03 has"):
        chunk_lambda1(stack, dates)


def test_without_an_openblas_setter_a_pass_runs_one_worker():
    setter = (lambda: 1, lambda count: None)
    for blas, workers in ((None, 1), (setter, 4)):
        with mock.patch.multiple(correlation, _openblas_threads=lambda: blas,
                                 _cpu_count=lambda: 4):
            assert correlation._worker_count() == workers


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity call")
def test_the_worker_count_reads_this_threads_cpus():
    # One worker per CPU this thread may run on, pinned to one (as by
    # taskset) or not, however many CPUs the machine or its first process has.
    cpus = os.sched_getaffinity(0)
    assert correlation._cpu_count() == len(cpus)
    try:
        os.sched_setaffinity(0, {min(cpus)})
        assert correlation._cpu_count() == 1
    finally:
        os.sched_setaffinity(0, cpus)


def test_every_buffer_set_gets_its_own_thread():
    # Three chunks on three buffer sets: the three threads that hold them
    # meet at a barrier, which two threads alone could never pass.
    barrier = threading.Barrier(3, timeout=5)
    seen = []

    def work(chunk, bufs):
        barrier.wait()
        seen.append((chunk, bufs, threading.get_ident()))

    correlation._map_chunks(work, [0, 1, 2], ["a", "b", "c"])
    assert sorted(chunk for chunk, _, _ in seen) == [0, 1, 2]
    assert len({bufs for _, bufs, _ in seen}) == len({t for _, _, t in seen}) == 3


def test_kernel_memory_does_not_grow_with_window_count():
    X = np.random.default_rng(9).standard_normal((60, 3000))
    r = make_returns(X)
    S = 30
    W = X.shape[1] - S + 1
    tracemalloc.start()
    try:
        cd.rolling_norm_series(r, S)
        cd.lambda1_series(r, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < W * 60 * 60 * 8 / 4


def chunk_lengths(n, S, W, workers, wanted):
    """Windows per chunk that ``window_chunks`` plans for an N-asset, W-window panel."""
    r = make_returns(np.zeros((n, S + W - 1)))
    return [rows.stop - rows.start for rows in
            correlation.window_chunks(r, S, workers, wanted)]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 400), S=st.integers(2, 120), W=st.integers(1, 40),
       workers=st.integers(1, 4), budget=st.integers(0, 4 << 20),
       wanted=st.sampled_from([("norm",), ("lambda1",), ("sigma",), correlation.STATISTICS]))
@example(n=3, S=5, W=5, workers=1, budget=0, wanted=("norm",))     # W below the floor
@example(n=3, S=5, W=6, workers=1, budget=0, wanted=("norm",))     # W at the floor
@example(n=3, S=5, W=7, workers=1, budget=0, wanted=("norm",))     # one window over it
def test_every_chunk_but_the_last_holds_the_floor(n, S, W, workers, budget, wanted):
    floor = correlation._MIN_CHUNK_WINDOWS
    with mock.patch.object(correlation, "_CHUNK_BYTES", budget):
        lengths = chunk_lengths(n, S, W, workers, wanted)
    assert sum(lengths) == W
    assert all(length == lengths[0] >= floor for length in lengths[:-1])
    assert 1 <= lengths[-1] <= lengths[0]
    if W <= floor:
        assert lengths == [W]


def test_production_chunk_lengths():
    # 2 MiB of every buffer a pass holds, shared by two workers, floored at
    # six windows: (N, S, statistics) of the benchmark's kernel passes.
    assert correlation._MIN_CHUNK_WINDOWS == 6
    everything = correlation.STATISTICS
    assert chunk_lengths(52, 90, 100, 2, everything)[0] == 17   # Z + stack
    assert chunk_lengths(40, 120, 100, 2, ("lambda1",))[0] == 20
    assert chunk_lengths(52, 90, 100, 2, ("sigma",))[0] == 28   # Z alone
    # Where the budget allows fewer windows than the floor, the floor
    # decides: 3.4 windows at N = 135, 1.98 at N = 200, 0.64 at N = 400.
    for n in (135, 200, 400):
        lengths = chunk_lengths(n, 90, 1005, 2, everything)
        assert lengths == [6] * 167 + [3], n


@pytest.mark.parametrize("n, S, wanted, per_window", [
    (8, 5, ("norm", "lambda1", "sigma"), 8 * 5 + 8 * 8 + 5 * 5),  # Z, stack, Gram
    (8, 5, ("norm",), 8 * 5 + 8 * 8),                             # Z, stack
    (8, 5, ("lambda1",), 8 * 5 + 5 * 5),                          # Z, Gram (S < N)
    (5, 5, ("lambda1",), 5 * 5 + 5 * 5),                          # Z, stack (S = N)
    (8, 5, ("sigma",), 8 * 5),                                    # Z alone
])
def test_chunk_length_and_allocation_count_the_same_buffers(n, S, wanted, per_window):
    # The budget for exactly 10 windows per worker gives 10, one byte less
    # gives 9, and each worker's buffers hold that many windows of exactly
    # those buffers. Without an OpenBLAS setter the pass runs one worker.
    W = 60
    workers = 2 if correlation._openblas_threads() else 1
    r = make_returns(np.random.default_rng(15).standard_normal((n, S + W - 1)))
    budget = 8 * per_window * workers * 10
    with mock.patch.multiple(correlation, _MIN_CHUNK_WINDOWS=1, _CHUNK_BYTES=budget - 1):
        assert chunk_lengths(n, S, W, workers, wanted)[0] == 9
    allocated = []
    fill = correlation.fill_chunk

    def recording(returns, days, rows, centered, stack=None, gram=None):
        allocated.append(sum(b.base.size for b in (centered, stack, gram) if b is not None))
        return fill(returns, days, rows, centered, stack, gram)

    with mock.patch.multiple(correlation, _MIN_CHUNK_WINDOWS=1, _CHUNK_BYTES=budget,
                             _cpu_count=lambda: workers, fill_chunk=recording):
        assert chunk_lengths(n, S, W, workers, wanted)[0] == 10
        correlation.rolling_statistics(r, S, wanted)
    assert len(allocated) == 6 and set(allocated) == {10 * per_window}


def test_out_of_memory_estimates_every_buffer():
    # One worker, chunks of 34 windows (2 MiB // 60800 bytes) of Z, stack
    # and Gram at N = 60, S = 40, plus the (N, W) results.
    n, S, W = 60, 40, 3000
    r = make_returns(np.random.default_rng(16).standard_normal((n, S + W - 1)))

    def exhausted(stack):
        raise MemoryError

    with mock.patch.multiple(correlation, _cpu_count=lambda: 1, chunk_norms=exhausted):
        with pytest.raises(MemoryError) as info:
            correlation.rolling_statistics(r, S, correlation.STATISTICS)
    need = 8 * (34 * (60 * 40 + 60 * 60 + 40 * 40) + 3000 * 60) / 2**20
    assert str(info.value) == (f"estimated kernel working set {need:.1f} MiB "
                               "(N=60, S=40, W=3000)")


def test_negative_eigenvalue_in_a_pass_names_its_window():
    # The second chunk's second window fails: the error names its end date.
    S = 5
    r = make_returns(np.random.default_rng(17).standard_normal((3, 30)))
    eigvalsh, calls = np.linalg.eigvalsh, []

    def shifted(a):
        values = eigvalsh(a)
        calls.append(None)
        if len(calls) == 2:
            values[1] -= 2.0
        return values

    with chunked(4), mock.patch.object(np.linalg, "eigvalsh", shifted):
        with pytest.raises(cd.NumericalError, match=f"window ending {r.dates[S - 1 + 5]} "):
            cd.lambda1_series(r, S)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 9), S=st.integers(2, 12), W=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, S=9, W=30, seed=3)   # stack route
@example(n=9, S=4, W=30, seed=4)   # Gram route
def test_worker_count_does_not_change_results(n, S, W, seed):
    # Bit for bit: a window's arithmetic depends neither on its chunk nor
    # on the thread that runs it, so outputs do not depend on the CPUs.
    r = make_returns(np.random.default_rng(seed).standard_normal((n, S + W - 1)))
    wanted = ("norm", "lambda1", "sigma")
    with chunked(W):
        want = arrays(correlation.rolling_statistics(r, S, wanted))
    for k in (1, 2, 3):
        for c in (1, 2, 5):
            with chunked(c, k):
                got = arrays(correlation.rolling_statistics(r, S, wanted))
            assert sorted(got) == sorted(want)
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])


def test_earliest_failing_chunk_wins():
    # Every chunk fails, the first one last: its error is still the one
    # raised, as in a serial pass.
    X = np.random.default_rng(13).standard_normal((3, 30))
    r = make_returns(X)
    lambda1 = correlation.chunk_lambda1

    def failing(matrices, dates):
        if dates[0] == r.dates[4]:
            time.sleep(0.2)
        lambda1(matrices, dates)
        raise cd.NumericalError(f"window ending {dates[0]}")

    for k in (1, 3):
        with chunked(2, k), mock.patch.object(correlation, "chunk_lambda1", failing):
            with pytest.raises(cd.NumericalError, match=f"window ending {r.dates[4]}$"):
                cd.lambda1_series(r, 5)


def test_pass_holds_blas_at_one_thread_and_restores_it():
    get, put = blas_threads()
    X = np.random.default_rng(11).standard_normal((4, 40))
    r = make_returns(X.copy())
    X[2, 10:15] = 0.5  # constant on window 10 (return days 11..15): chunk 2
    dead = make_returns(X)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        seen.append(get())
        return eigvalsh(a)

    before = get()
    try:
        put(3)
        with chunked(8, 2), mock.patch.object(np.linalg, "eigvalsh", recording):
            cd.lambda1_series(r, 5)
            assert get() == 3
            with pytest.raises(cd.DegenerateDataError, match=r"'A2'.*\[11:15\]"):
                cd.lambda1_series(dead, 5)
            assert get() == 3
    finally:
        put(before)
    assert seen and set(seen) == {1}


def test_openblas_builds_resolve_the_thread_setter():
    # A renamed symbol must fail here, not quietly leave the kernel serial.
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        pytest.skip("numpy before 1.26 cannot report its BLAS as a dict")
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {blas.get('name')}, not scipy-openblas")
    get, put = correlation._openblas_threads()
    before = get()
    try:
        put(1)
        assert get() == 1
    finally:
        put(before)
    assert get() == before


def test_concurrent_passes_share_the_cores_safely():
    # More workers than cores, threads switching every microsecond, and
    # two callers at once: every window is filled exactly as a serial
    # pass fills it, and the OpenBLAS thread count ends where it began.
    X = np.random.default_rng(12).standard_normal((6, 120))
    r = make_returns(X)
    with chunked(113):
        want = arrays(correlation.rolling_statistics(r, 8, ("norm", "lambda1")))
    blas = correlation._openblas_threads()
    before = blas[0]() if blas else None
    results, interval = [], sys.getswitchinterval()

    def caller():
        for _ in range(5):
            results.append(arrays(correlation.rolling_statistics(r, 8, ("norm", "lambda1"))))

    sys.setswitchinterval(1e-6)
    try:
        with chunked(1, 8):
            callers = [threading.Thread(target=caller) for _ in range(2)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 10
    for got in results:
        np.testing.assert_array_equal(got["norm"], want["norm"])
        np.testing.assert_array_equal(got["lambda1"], want["lambda1"])
    if blas:
        assert blas[0]() == before


def test_overlapping_passes_restore_the_blas_count():
    # Pass B starts while pass A holds BLAS at one thread and would end
    # after it. Unless B waits for A, B saves the held count of 1 and
    # restores that last.
    get, put = blas_threads()
    r = make_returns(np.random.default_rng(14).standard_normal((3, 30)))
    norms = correlation.chunk_norms
    naps = {"A": 0.2, "B": 0.4}

    def slow(stack):
        time.sleep(naps[threading.current_thread().name])
        return norms(stack)

    before = get()
    try:
        put(3)
        with chunked(26), mock.patch.object(correlation, "chunk_norms", slow):
            passes = {name: threading.Thread(target=cd.rolling_norm_series, args=(r, 5),
                                             name=name) for name in naps}
            passes["A"].start()
            time.sleep(0.1)
            passes["B"].start()
            for thread in passes.values():
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in passes.values())
        assert get() == 3
    finally:
        put(before)
