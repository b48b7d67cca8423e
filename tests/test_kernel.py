"""The chunked window kernel against per-window oracles.

The chunk length and the worker count are forced here, so windows
straddle chunk boundaries and chunks run on several threads; in
production the chunk is sized from bytes, most test panels would fit in
one chunk, and there is one worker per CPU.
"""

import datetime as dt
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


def chunked(n, S, c, workers=1):
    """Patch the kernel so that it walks c windows per chunk on ``workers`` threads.

    Without an OpenBLAS setter the kernel runs one worker whatever the CPU
    count, still with c windows per chunk.
    """
    if not correlation._openblas_threads():
        workers = 1
    return mock.patch.multiple(correlation, _cpu_count=lambda: workers,
                               _CHUNK_BYTES=8 * n * max(n, S) * c * workers)


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
    with chunked(n, S, c, k):
        chunks = correlation.window_chunks(r, S, correlation._cpu_count())
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
    with chunked(n, S, c, 2), mock.patch.object(np.linalg, "eigvalsh", recording):
        for rows in correlation.window_chunks(r, S, correlation._cpu_count()):
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
    with chunked(n, S, 7):
        stats = correlation.rolling_statistics(r, S, ("norm", "lambda1", "sigma"))
        nu = cd.rolling_norm_series(r, S)
        lam = cd.lambda1_series(r, S)
        vol = cd.rolling_volatility(r, S)
    assert sorted(stats) == ["lambda1", "norm", "sigma"]
    np.testing.assert_array_equal(cd.rolling_norm_series(r, S, stats).raw, nu.raw)
    shared = cd.lambda1_series(r, S, stats=stats)
    np.testing.assert_array_equal(shared.lambda1, lam.lambda1)
    np.testing.assert_array_equal(cd.rolling_volatility(r, S, stats).sigmas, vol.sigmas)


def test_rolling_statistics_rejects_unknown_names():
    r = make_returns(np.random.default_rng(7).standard_normal((3, 20)))
    for wanted in ((), ("norm", "mean"), ("spectra",)):
        with pytest.raises(cd.InputError, match="wanted must name some of"):
            correlation.rolling_statistics(r, 5, wanted)


def test_zero_variance_names_lowest_asset_and_its_first_window():
    # A2 dies in the first chunk, A1 only in the last: the error names A1,
    # as a scan of the whole (N, W) variance array in row-major order would.
    X = np.random.default_rng(6).standard_normal((3, 40))
    X[2, 0:6] = 0.5
    X[1, 30:36] = -0.25
    X[1, 34:40] = -0.25
    r = make_returns(X)
    S = 5
    for c, k in ((1, 1), (4, 1), (100, 1), (1, 3), (4, 2), (100, 2)):
        with chunked(3, S, c, k):
            with pytest.raises(cd.DegenerateDataError) as info:
                cd.rolling_norm_series(r, S)
        assert str(info.value) == (
            f"asset 'A1' has zero variance on return days [31:35] "
            f"(window ending {r.dates[34]})"
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
    with chunked(n, S, 3):
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
    with chunked(n, S, W):
        want = correlation.rolling_statistics(r, S, wanted)
    for k in (1, 2, 3):
        for c in (1, 2, 5):
            with chunked(n, S, c, k):
                got = correlation.rolling_statistics(r, S, wanted)
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
        with chunked(3, 5, 2, k), mock.patch.object(correlation, "chunk_lambda1", failing):
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
        with chunked(4, 5, 8, 2), mock.patch.object(np.linalg, "eigvalsh", recording):
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
    with chunked(6, 8, 113):
        want = correlation.rolling_statistics(r, 8, ("norm", "lambda1"))
    blas = correlation._openblas_threads()
    before = blas[0]() if blas else None
    results, interval = [], sys.getswitchinterval()

    def caller():
        for _ in range(5):
            results.append(correlation.rolling_statistics(r, 8, ("norm", "lambda1")))

    sys.setswitchinterval(1e-6)
    try:
        with chunked(6, 8, 1, 8):
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
        with chunked(3, 5, 26), mock.patch.object(correlation, "chunk_norms", slow):
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
