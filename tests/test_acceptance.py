"""End-to-end acceptance gate.

Each test checks one release criterion against the bundled synthetic
market (whose per-period correlation structure, crash regime and
volatility shapes are planted, hence exactly known) or against
data-independent mathematical facts, and prints a single
``ACCEPTANCE <n> PASS|FAIL`` line outside pytest's capture so the
verdicts are visible in any test log.
"""

import datetime as dt
import json
import time

import numpy as np

import cryptodynamics as cd
from cryptodynamics import cli, correlation, dispersion, inconsistency, spectral
from cryptodynamics.inconsistency import VolatilityPanel
from cryptodynamics.simulate import DEFAULT_PHASES

import reference
from test_dispersion import columns
from test_turning_points import _series_family

PEAK_START, PEAK_END = dt.date(2020, 3, 1), dt.date(2020, 5, 30)


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance criterion {number}: {detail}"


def test_1_period_entry_statistics(sim_dataset_dir, tmp_path, capsys):
    """cmd_correlation recovers every planted period mean/std within ±0.03
    (the noisiest, shortest final period within ±0.06) in under a minute."""
    t0 = time.perf_counter()
    out = tmp_path / "out"
    code = cli.main(["correlation", "--data-dir", str(sim_dataset_dir),
                     "--out-dir", str(out)])
    elapsed = time.perf_counter() - t0
    stats = {s["period"]: s for s in
             json.loads((out / "period_stats.json").read_text())}
    worst = 0.0
    ok = code == 0 and elapsed < 60.0 and set(stats) == set(DEFAULT_PHASES)
    for label, phase in DEFAULT_PHASES.items():
        tolerance = 0.06 if label == "Bear" else 0.03
        dev = max(abs(stats[label]["mean"] - phase.entry_mean),
                  abs(stats[label]["std"] - phase.entry_std))
        worst = max(worst, dev)
        ok = ok and dev <= tolerance
    _report(capsys, 1, ok,
            f"five period entry means/stds recovered from the synthetic "
            f"dataset (max deviation {worst:.4f}, {elapsed:.1f} s)")


def test_2_turning_point_equivalence(capsys):
    """Detection + refinement agrees exactly with the independent list-based
    reimplementation on 100 seeded series of varied shape."""
    mismatches = 0
    for seed in range(100):
        y = _series_family(seed)
        got = [(p.index, p.kind) for p in cd.find_turning_points(y)]
        want = reference.turning_points(y, l=17, delta=0.2, epsilon=0.01)
        mismatches += got != want
    _report(capsys, 2, mismatches == 0,
            f"turning-point sequences match the independent oracle on "
            f"{100 - mismatches}/100 seeded series")


def kernel_trace_deviations(returns, S):
    """|sum of eigenvalues − N| of every window's matrix as the kernel builds it.

    ``fill_chunk`` builds the N×N correlation matrices when S >= N and the
    S×S Gram matrices ZᵀZ/S when S < N; the eigenvalues are taken here.
    """
    n = returns.n_assets
    side = min(n, S)
    devs = []
    for rows in correlation.window_chunks(returns, S, 1, ("lambda1",)):
        c = rows.stop - rows.start
        matrices = np.empty((c, side, side))
        correlation.fill_chunk(returns, S, rows, np.empty((c, n, S)),
                               *((matrices, None) if S >= n else (None, matrices)))
        devs.append(np.abs(np.linalg.eigvalsh(matrices).sum(axis=1) - n))
    return np.concatenate(devs)


def test_3_market_mode_and_identities(sim_returns, capsys):
    """Market size and market mode anticorrelate in the planted band; the
    operator-norm identity holds on every rolling window of the lambda1
    series the CLI writes, and the trace identity on every matrix the
    kernel solves, on the stack route (S = 90) and the Gram route (S = 30)."""
    lam = spectral.lambda1_series(sim_returns, 90)
    size = spectral.rolling_market_size(sim_returns, 90)
    rho = spectral.series_correlation(size.values, lam.lambda1)
    ok_rho = -0.20 <= rho <= -0.05

    n = sim_returns.n_assets
    stack = reference.correlation_stack(sim_returns.returns, 90)
    op_dev = max(abs(lam.lambda1[w] - reference.power_iteration(stack[w]) / n)
                 for w in range(stack.shape[0]))
    stack_devs = kernel_trace_deviations(sim_returns, 90)
    gram_devs = kernel_trace_deviations(sim_returns, 30)
    assert len(stack_devs) == stack.shape[0] and 30 < n
    trace_dev = float(max(stack_devs.max(), gram_devs.max()))
    ok = ok_rho and op_dev < 1e-8 and trace_dev < 1e-8
    _report(capsys, 3, ok,
            f"rho(size, lambda1)={rho:.4f} in [-0.20,-0.05]; worst operator-"
            f"norm dev {op_dev:.1e} over {stack.shape[0]} windows, worst trace "
            f"dev {trace_dev:.1e} over {len(stack_devs)} + {len(gram_devs)} "
            f"kernel matrices (S = 90, 30)")


def test_4_inconsistency_ordering(sim_returns, capsys):
    """Size-vs-volatility disagreement stays below size-vs-returns on >95%
    of dates; clone panels show exactly zero disagreement."""
    vol = inconsistency.rolling_volatility(sim_returns, 90)
    series = inconsistency.inconsistency_norms(sim_returns, vol)
    frac = float(np.mean(series.nu_MSigma < series.nu_MR))

    rng = np.random.default_rng(4)
    path = 50.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(200)))
    days = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(200))
    tickers = tuple(f"A{k}" for k in range(4))
    clones = cd.PricePanel(days, tickers, np.tile(path, (4, 1)),
                           np.tile(7.0 * path, (4, 1)))
    cret = cd.log_returns(clones)
    cvol = inconsistency.rolling_volatility(cret, 90)
    cseries = inconsistency.inconsistency_norms(cret, cvol)
    zero = (np.all(cseries.nu_MR == 0.0) and np.all(cseries.nu_MSigma == 0.0))

    ok = frac > 0.95 and zero
    _report(capsys, 4, ok,
            f"nu_MSigma < nu_MR on {100 * frac:.1f}% of {len(series.dates)} "
            f"dates; clone panel gives exact zeros: {zero}")


def test_5_distribution_propositions(capsys):
    """Variance and transport-distance bounds, their equality cases, and the
    sorted-difference Wasserstein against a brute-force matching oracle,
    all through variance_series and the distances hierarchical_cluster
    clusters."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20210630)
    ok = True
    for n in range(2, 9):
        P = rng.dirichlet(np.ones(n), size=10_000)
        w_bound = (2.0 / n) * (1.0 - 1.0 / n)
        for lo in range(0, len(P), 1_000):  # 10^3 x 10^3 blocks of distances
            dists, variances = columns(P[lo:lo + 1_000])
            ok &= bool(np.all(variances >= 0.0)
                       and np.all(variances <= 1.0 - 1.0 / n ** 2))
            ok &= bool(np.all(dists >= 0.0) and np.all(dists <= w_bound))

        uniform = np.full(n, 1.0 / n)
        dists, variances = columns(np.vstack([uniform, np.eye(n)]))
        ok &= abs(variances[0]) <= 1e-12
        ok &= bool(np.all(np.abs(dists[0, 1:] - w_bound) <= 1e-12))
        ok &= bool(np.all(np.abs(variances[1:] - (1.0 - 1.0 / n)) <= 1e-12))

        if n <= 6:
            pairs = rng.dirichlet(np.ones(n), size=800)
            dists, _ = columns(pairs)
            for k in range(0, 800, 2):
                ok &= abs(dists[k, k + 1] - reference.wasserstein_by_matching(
                    pairs[k], pairs[k + 1])) <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, ok and elapsed < 30.0,
            f"bounds, equality cases and transport oracle hold for "
            f"N=2..8 x 10^4 distributions ({elapsed:.1f} s)")


def test_6_dispersion_clustering(sim_returns, capsys):
    """The two-cluster cut isolates the planted crash regime and its
    variance dip; a noise-free two-regime panel is split perfectly."""
    vol = inconsistency.rolling_volatility(sim_returns, 90)
    dendro = dispersion.hierarchical_cluster(vol)
    labels = dispersion.two_cluster_cut(dendro)
    counts = np.bincount(labels, minlength=2)
    minority = int(np.argmin(counts))
    dates = np.array(dendro.dates)
    in_peak = (dates >= PEAK_START) & (dates <= PEAK_END)
    frac_peak = float(np.mean(labels[in_peak] == minority))

    variances = dispersion.variance_series(vol)
    vdates = np.array(variances.dates)
    vpeak = (vdates >= PEAK_START) & (vdates <= PEAK_END)
    v2019 = vdates <= dt.date(2019, 12, 31)
    dip = float(variances.values[vpeak].mean()) < float(variances.values[v2019].mean())

    rng = np.random.default_rng(6)
    n, w, split = 8, 60, 35
    shape_a = np.linspace(1.0, 3.0, n)
    shape_b = np.linspace(3.0, 1.0, n) ** 2
    sigmas = np.empty((n, w))
    for j in range(w):
        shape = shape_a if j < split else shape_b
        sigmas[:, j] = (shape * rng.uniform(0.5, 2.0)
                        * (1.0 + 0.01 * rng.standard_normal(n)))
    days = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=k) for k in range(w))
    planted = dispersion.two_cluster_cut(dispersion.hierarchical_cluster(
        VolatilityPanel(days, sigmas, 30)))
    exact = (len(set(planted[:split])) == 1 and len(set(planted[split:])) == 1
             and planted[0] != planted[-1])

    ok = frac_peak > 0.60 and dip and exact
    _report(capsys, 6, ok,
            f"{100 * frac_peak:.0f}% of crash-regime dates in the minority "
            f"cluster; variance dip: {dip}; planted two-regime split exact: "
            f"{exact}")


def test_7_determinism_and_round_trip(sim_dataset_dir, sim_panel, tmp_path,
                                      capsys):
    """Re-running the full pipeline is byte-identical; panel persistence is
    an exact round-trip."""
    t0 = time.perf_counter()
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["all", "--data-dir", str(sim_dataset_dir),
                         "--out-dir", str(out)])
        assert code == 0
        outs.append(out)
    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    identical = names == sorted(p.name for p in b.iterdir()) and all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in names if name != "resolved_config.txt")

    again = cd.load_panel_with_report(sim_dataset_dir / "price.csv",
                                      sim_dataset_dir / "marketcap.csv",
                                      sim_panel.dates[0], sim_panel.dates[-1])[0]
    cd.write_panel(again, tmp_path / "price2.csv", tmp_path / "marketcap2.csv")
    round_trip = (
        (tmp_path / "price2.csv").read_bytes()
        == (sim_dataset_dir / "price.csv").read_bytes()
        and (tmp_path / "marketcap2.csv").read_bytes()
        == (sim_dataset_dir / "marketcap.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = identical and round_trip
    _report(capsys, 7, ok,
            f"two full runs byte-identical across {len(names)} outputs: "
            f"{identical}; panel CSV round-trip exact: {round_trip} "
            f"({elapsed:.1f} s)")
