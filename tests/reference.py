"""Slow reference implementations that the package is checked against.

Everything here favours obviousness over speed: plain Python loops,
explicit window slicing, distances recomputed from scratch. Nothing in
this module imports the package under test.
"""

import csv
import datetime as dt
import itertools
import math
import re
from fractions import Fraction

import numpy as np


def pearson_matrix(X):
    """Pair-at-a-time Pearson correlations with population normalization."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            xi = X[i] - X[i].mean()
            xj = X[j] - X[j].mean()
            denom = math.sqrt((xi * xi).mean()) * math.sqrt((xj * xj).mean())
            out[i, j] = (xi * xj).mean() / denom
    return out


def correlation_stack(X, S):
    """(W, N, N) correlation matrices of every length-S window, one at a time.

    Population standardization, unit diagonal; window w covers columns
    w..w+S-1 of X.
    """
    X = np.asarray(X, dtype=float)
    n, T = X.shape
    out = np.empty((T - S + 1, n, n))
    for w in range(T - S + 1):
        seg = X[:, w:w + S]
        z = (seg - seg.mean(axis=1, keepdims=True)) / seg.std(axis=1, keepdims=True)
        out[w] = z @ z.T / S
        np.fill_diagonal(out[w], 1.0)
    return out


def power_iteration(matrix, max_iter=100_000, tol=1e-12):
    """Largest eigenvalue of a symmetric PSD matrix by plain power iteration.

    Independent of the LAPACK eigensolver, so the two routes can be
    checked against each other. Deterministic start vector; converges on
    the Rayleigh quotient with a residual-norm criterion.
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    v = 1.0 + np.arange(n) / (7.0 + n)  # fixed, generic start
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        w = m @ v
        rayleigh = float(v @ w)
        residual = np.linalg.norm(w - rayleigh * v)
        if residual <= tol * max(1.0, abs(rayleigh)):
            return rayleigh
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0  # the matrix annihilates the iterate
        v = w / norm
    raise ArithmeticError(f"power iteration did not converge in {max_iter} steps")


def abs_entry_mean(M, exclude_diagonal=False):
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    total, count = 0.0, 0
    for i in range(n):
        for j in range(n):
            if exclude_diagonal and i == j:
                continue
            total += abs(M[i, j])
            count += 1
    return total / count


def rolling_std(X, S):
    """Two-pass population std of every length-S window of every row."""
    X = np.asarray(X, dtype=float)
    n, T = X.shape
    out = np.empty((n, T - S + 1))
    for i in range(n):
        for w in range(T - S + 1):
            seg = X[i, w:w + S]
            m = seg.mean()
            out[i, w] = math.sqrt(((seg - m) ** 2).mean())
    return out


def savgol_by_polyfit(raw, window, degree):
    """Savitzky-Golay smoothing by one polynomial fit per point.

    Each value is the degree-``degree`` least-squares fit over the
    ``window`` points centred on it, truncated at the edges, evaluated at
    the point itself; the degree drops to the truncated window's length
    minus one where that is lower.
    """
    y = np.asarray(raw, dtype=float)
    n = y.size
    half = window // 2
    out = np.empty(n)
    for i in range(n):
        lo = max(0, i - half)
        hi = min(n - 1, i + half)
        x = np.arange(lo, hi + 1, dtype=float) - i  # centered for conditioning
        coeffs = np.polynomial.polynomial.polyfit(x, y[lo:hi + 1], min(degree, hi - lo))
        out[i] = coeffs[0]  # value of the fit at x = 0
    return out


def gaussian_density(pool, grid, bw):
    """Gaussian kernel-density estimate of ``pool`` at every ``grid`` point.

    The dense sum: every grid point against every distinct entry, each
    kernel weighted by the entry's count, in one (grid, centres) array.
    """
    centres, counts = np.unique(pool, return_counts=True)
    u = grid[:, None] - centres
    u /= bw
    u *= u
    u *= -0.5
    return np.exp(u) @ counts / (pool.size * bw * math.sqrt(2.0 * math.pi))


def turning_points(y, l=17, delta=0.2, epsilon=0.01):
    """Full turning-point extraction; returns a list of (index, kind).

    Same procedure as the package — min-adjust, clamped-window extremum
    scan with inductive alternation, then the peak-ratio and the
    log-gradient prunes, each restarted from the left after any removal —
    but written over plain lists with explicit slices.
    """
    y = [float(v) for v in np.asarray(y, dtype=float) - np.min(y)]
    n = len(y)
    seq = []
    for t in range(n):
        window = y[max(0, t - l): t + l + 1]
        at_max = y[t] == max(window)
        at_min = y[t] == min(window)
        if at_max == at_min:
            continue
        kind = "peak" if at_max else "trough"
        if not seq:
            seq.append((t, kind))
            continue
        pt, pk = seq[-1]
        improves = y[t] > y[pt] if kind == "peak" else y[t] < y[pt]
        if kind == pk:
            if improves:
                seq[-1] = (t, kind)
        elif improves:
            seq.append((t, kind))

    # rule one: a later peak under delta times the earlier one is noise
    while True:
        peaks = [s for s, (_, k) in enumerate(seq) if k == "peak"]
        fired = False
        for s1, s3 in zip(peaks, peaks[1:]):
            v1, v3 = y[seq[s1][0]], y[seq[s3][0]]
            if v1 > 0.0 and v3 / v1 < delta:
                del seq[s3]
                if s3 < len(seq):  # two troughs collided; keep the lower
                    va, vb = y[seq[s3 - 1][0]], y[seq[s3][0]]
                    del seq[s3 - 1 if va > vb else s3]
                fired = True
                break
        if not fired:
            break

    # rule two: adjacent points connected by a flat log-slope are noise
    while True:
        fired = False
        for s in range(len(seq) - 1):
            v1, v2 = y[seq[s][0]], y[seq[s + 1][0]]
            if v1 <= 0.0 or v2 <= 0.0:
                continue
            if abs(math.log(v2 / v1)) / (seq[s + 1][0] - seq[s][0]) < epsilon:
                at_end = s + 1 == len(seq) - 1
                del seq[s + 1]
                if not at_end:
                    del seq[s]
                fired = True
                break
        if not fired:
            break
    return seq


def wasserstein_by_matching(p, q):
    """Brute-force optimal transport between equal-weight atom sets."""
    p = [float(v) for v in p]
    q = [float(v) for v in q]
    n = len(p)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(abs(p[i] - q[perm[i]]) for i in range(n)) / n
        if cost < best:
            best = cost
    return best


def sorted_l1_distances(P):
    """Condensed Wasserstein distances: mean |sorted p − sorted q| over pairs of rows."""
    rows = [sorted(float(v) for v in p) for p in P]
    return [sum(abs(a - b) for a, b in zip(rows[i], rows[j])) / len(rows[i])
            for i in range(len(rows)) for j in range(i + 1, len(rows))]


def agglomerate(D, linkage):
    """Naive agglomeration recomputing every cluster distance from scratch.

    Returns [(id_a, id_b, height, size), ...] with scipy-style ids (leaves
    0..w-1, merged cluster at step s gets id w+s). Assumes no exact ties.
    """
    D = np.asarray(D, dtype=float)
    w = D.shape[0]
    clusters = {i: [i] for i in range(w)}
    merges = []
    for step in range(w - 1):
        best = None
        for a, b in itertools.combinations(sorted(clusters), 2):
            cross = [D[x, y] for x in clusters[a] for y in clusters[b]]
            if linkage == "single":
                d = min(cross)
            elif linkage == "complete":
                d = max(cross)
            else:
                d = sum(cross) / len(cross)
            if best is None or d < best[0]:
                best = (d, a, b)
        d, a, b = best
        leaves = clusters.pop(a) + clusters.pop(b)
        clusters[w + step] = leaves
        merges.append((a, b, d, len(leaves)))
    return merges


def cut_partition(merges, w, k):
    """Partition of leaves 0..w-1 left after replaying the first w-k merges.

    ``merges`` holds (id_a, id_b) pairs with scipy-style ids. Every leaf
    starts in its own set; each merge unions the two sets holding its
    children's leaves. Returns a set of frozensets.
    """
    sets = [{i} for i in range(w)]
    for a, b in merges[:w - k]:
        sets.append(sets[a] | sets[b])
        sets[a] = sets[b] = None
    return {frozenset(s) for s in sets if s is not None}


def inconsistency_at(closes, caps, t, S):
    """(nu_MR, nu_MSigma) for the window of return days [t-S+1, t].

    Works straight off the raw panel arrays (N, T+1); day 0 is the price
    base, return day d compares panel columns d and d-1.
    """
    n = closes.shape[0]
    cap_mean, ret_sum, sigma = [], [], []
    for i in range(n):
        rets = [math.log(closes[i, d] / closes[i, d - 1])
                for d in range(t - S + 1, t + 1)]
        cap_mean.append(sum(caps[i, d] for d in range(t - S + 1, t + 1)) / S)
        ret_sum.append(sum(rets))
        mu = sum(rets) / S
        sigma.append(math.sqrt(sum((x - mu) ** 2 for x in rets) / S))

    def affinity(feature):
        D = [[abs(feature[i] - feature[j]) for j in range(n)] for i in range(n)]
        top = max(max(row) for row in D)
        if top == 0.0:
            return [[1.0] * n for _ in range(n)]
        return [[1.0 - D[i][j] / top for j in range(n)] for i in range(n)]

    a_m = affinity(cap_mean)
    a_r = affinity(ret_sum)
    a_s = affinity(sigma)
    nu_mr = sum(abs(a_m[i][j] - a_r[i][j]) for i in range(n) for j in range(n)) / n**2
    nu_ms = sum(abs(a_m[i][j] - a_s[i][j]) for i in range(n) for j in range(n)) / n**2
    return nu_mr, nu_ms


def affinity(feature):
    """A = 1 − D/max(D) for D = |fᵢ − fⱼ|; an all-zero D maps to all ones.

    The all-ones convention is the limit of vanishing distances: assets
    that cannot be told apart are maximally similar.
    """
    d = np.abs(feature[:, None] - feature[None, :])
    top = d.max()
    return np.ones_like(d) if top == 0.0 else 1.0 - d / top


def affinity_gap_norms(cap_means, feature):
    """mean |A^M − A^X| per window of (N, W) feature tracks.

    One pair of N×N affinity matrices per window, built and reduced in a
    plain loop.
    """
    n, n_windows = cap_means.shape
    out = np.empty(n_windows)
    for w in range(n_windows):
        gap = affinity(cap_means[:, w]) - affinity(feature[:, w])
        out[w] = np.abs(gap).sum() / (n * n)
    return out


def affinity_gap_norm_exact(cap_mean, feature):
    """mean |A^M − A^X| of one window in exact rational arithmetic.

    The float inputs are taken as exact rationals; only the result is
    rounded.
    """
    def affinity_rows(values):
        f = [Fraction(float(v)) for v in values]
        top = max(f) - min(f)
        return [[1 - abs(a - b) / top if top else Fraction(1) for b in f] for a in f]

    a_m, a_x = affinity_rows(cap_mean), affinity_rows(feature)
    n = len(a_m)
    total = sum(abs(p - q) for row_m, row_x in zip(a_m, a_x)
                for p, q in zip(row_m, row_x))
    return float(total / (n * n))


def intra_variance(p):
    p = [float(v) for v in p]
    n = len(p)
    return sum((v - 1.0 / n) ** 2 for v in p)


def _read_table(path):
    """{date: {ticker: float or None}} and the header tickers of one CSV.

    Every cell of every row is converted; a blank cell is None. Structural
    faults and unparseable cells anywhere in the file raise ValueError.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0].strip().lower() != "date":
            raise ValueError("first column must be 'date'")
        tickers = [h.strip() for h in header[1:]]
        rows = {}
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", row[0].strip()):
                raise ValueError(f"date not written YYYY-MM-DD: {row[0]!r}")
            date = dt.date.fromisoformat(row[0].strip())
            if date in rows:
                raise ValueError(f"duplicate date {date}")
            if len(row) != len(tickers) + 1:
                raise ValueError(f"expected {len(tickers) + 1} cells, got {len(row)}")
            values = {}
            for ticker, cell in zip(tickers, row[1:]):
                cell = cell.strip()
                values[ticker] = float(cell) if cell else None
            rows[date] = values
    return tickers, rows


def load_reference(price_path, cap_path, start, end):
    """The drop-and-report load, one asset and one day at a time.

    Returns (days, kept tickers, closes, caps, drops): closes and caps are
    lists of per-asset lists over the days of [start, end], and drops are
    (ticker, reason, date) tuples in price-header order, then the tickers
    with no price column in cap-header order. An asset's first
    failing day is reported with the first reason that applies: missing,
    non-finite, non-positive close, negative cap.
    """
    price_tickers, price_rows = _read_table(price_path)
    cap_tickers, cap_rows = _read_table(cap_path)
    days = [start + dt.timedelta(days=k) for k in range((end - start).days + 1)]
    if any(d not in price_rows or d not in cap_rows for d in days):
        raise ValueError("a day of the range is missing")
    drops, kept = [], []
    for ticker in price_tickers:
        if ticker not in cap_tickers:
            drops.append((ticker, "missing market-cap column", start))
            continue
        bad = None
        for day in days:
            close = price_rows[day][ticker]
            cap = cap_rows[day][ticker]
            if close is None or cap is None:
                bad = "missing value"
            elif not (math.isfinite(close) and math.isfinite(cap)):
                bad = "non-finite value"
            elif close <= 0:
                bad = "non-positive close"
            elif cap < 0:
                bad = "negative market cap"
            if bad is not None:
                drops.append((ticker, bad, day))
                break
        if bad is None:
            kept.append(ticker)
    drops += [(ticker, "missing price column", start)
              for ticker in cap_tickers if ticker not in price_tickers]
    closes = [[price_rows[d][t] for d in days] for t in kept]
    caps = [[cap_rows[d][t] for d in days] for t in kept]
    return days, kept, closes, caps, drops
