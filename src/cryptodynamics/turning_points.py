"""Two-step turning-point extraction for smoothed norm series.

Step one (detection) walks the series once, collecting indices whose value
is the exact maximum (peak) or minimum (trough) of a clamped ±l window,
and enforces alternation inductively: an opposite-kind candidate is
appended only if it strictly improves on the last point (non-triviality);
a same-kind candidate replaces the last point only if strictly better.
Indices whose window is flat (both conditions fire) carry no information
and are skipped, so a constant series yields no turning points.

Step two (refinement) prunes insignificant structure: consecutive peaks
whose later/earlier height ratio falls below ``delta`` lose the later
peak (resolving the resulting double trough by dropping the larger), and
adjacent points whose absolute log-gradient per day falls below
``epsilon`` are removed pairwise. Both rules re-scan to a fixpoint, which
restores the peak-dominance invariant after every removal.

All refinement arithmetic happens on the minimum-adjusted series (global
minimum shifted to zero); a zero-valued turning point makes the
log-gradient infinite, so the global minimum always survives rule two.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, InputError

PEAK = "peak"
TROUGH = "trough"


@dataclass(frozen=True)
class TurningPointParams:
    l: int = 17
    delta: float = 0.2
    epsilon: float = 0.01

    def __post_init__(self):
        if int(self.l) != self.l or self.l < 1:
            raise ConfigError(f"l must be an integer >= 1, got {self.l}")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"delta must lie in (0, 1], got {self.delta}")
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "l", int(self.l))


DEFAULT_PARAMS = TurningPointParams()


@dataclass(frozen=True)
class TurningPoint:
    index: int
    date: dt.date | None
    value: float
    kind: str

    def __post_init__(self):
        if self.kind not in (PEAK, TROUGH):
            raise InputError(f"kind must be {PEAK!r} or {TROUGH!r}, got {self.kind!r}")


@dataclass(frozen=True)
class TurningPointSequence:
    """Alternating peaks and troughs with strictly increasing indices.

    Every peak is strictly higher than the troughs adjacent to it in the
    sequence; both detection and refinement maintain this by construction
    and the constructor re-checks it.
    """

    points: tuple

    def __post_init__(self):
        points = tuple(self.points)
        for prev, cur in zip(points, points[1:]):
            if cur.index <= prev.index:
                raise InputError("turning-point indices must strictly increase")
            if cur.kind == prev.kind:
                raise InputError("turning-point kinds must alternate")
            hi, lo = (prev, cur) if prev.kind == PEAK else (cur, prev)
            if not hi.value > lo.value:
                raise InputError(
                    f"peak at {hi.index} ({hi.value}) not above adjacent "
                    f"trough at {lo.index} ({lo.value})"
                )
        object.__setattr__(self, "points", points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def _require_finite(values):
    if not np.all(np.isfinite(values)):
        raise InputError("turning points need a finite series")


def min_adjust(series):
    """Shift a series so its global minimum becomes exactly 0."""
    values = np.asarray(series, dtype=float)
    if values.size == 0:
        raise InputError("cannot min-adjust an empty series")
    _require_finite(values)
    return values - values.min()


def _window_conditions(values, l):
    """Boolean masks: value equals the max / min of its clamped ±l window.

    The windows run over the series padded with l copies of each edge
    value, which coincides with truncating the window at the array bounds
    because the replicated value already lies inside the truncated window.
    """
    windows = sliding_window_view(np.pad(values, l, mode="edge"), 2 * l + 1)
    return values == windows.max(axis=1), values == windows.min(axis=1)


def detect_candidates(series, params: TurningPointParams = DEFAULT_PARAMS
                      ) -> TurningPointSequence:
    """Alternating window-extremum candidates of a min-adjusted series."""
    values = np.asarray(series, dtype=float)
    _require_finite(values)
    n = values.size
    if n <= 2 * params.l:
        raise InputError(
            f"series of length {n} too short for l={params.l} (need > {2 * params.l})"
        )
    is_max, is_min = _window_conditions(values, params.l)
    seq = []
    for t in range(n):
        peak_fires, trough_fires = is_max[t], is_min[t]
        if peak_fires == trough_fires:
            continue  # neither, or a flat window satisfying both
        kind = PEAK if peak_fires else TROUGH
        value = values[t]
        if not seq:
            seq.append(TurningPoint(t, None, float(value), kind))
            continue
        last = seq[-1]
        if kind == last.kind:
            better = value > last.value if kind == PEAK else value < last.value
            if better:
                seq[-1] = TurningPoint(t, None, float(value), kind)
        else:
            nontrivial = value < last.value if kind == TROUGH else value > last.value
            if nontrivial:
                seq.append(TurningPoint(t, None, float(value), kind))
    return TurningPointSequence(tuple(seq))


def _peak_ratio_pass(points, values, delta):
    pts = list(points)
    while True:
        peak_slots = [k for k, p in enumerate(pts) if p.kind == PEAK]
        for k1, k3 in zip(peak_slots, peak_slots[1:]):
            v1 = values[pts[k1].index]
            v3 = values[pts[k3].index]
            if v1 > 0.0 and v3 / v1 < delta:
                del pts[k3]
                if k3 < len(pts):  # troughs now adjacent at k3-1, k3
                    v2 = values[pts[k3 - 1].index]
                    v4 = values[pts[k3].index]
                    del pts[k3 - 1 if v2 > v4 else k3]
                break
        else:
            return pts


def _log_gradient_pass(points, values, epsilon):
    pts = list(points)
    while True:
        for k in range(len(pts) - 1):
            v1 = values[pts[k].index]
            v2 = values[pts[k + 1].index]
            if v1 <= 0.0 or v2 <= 0.0:
                continue  # gradient through zero is +inf, never below epsilon
            gradient = abs(math.log(v2) - math.log(v1)) / (pts[k + 1].index - pts[k].index)
            if gradient < epsilon:
                is_final = k + 1 == len(pts) - 1
                del pts[k + 1]
                if not is_final:
                    del pts[k]
                break
        else:
            return pts


def refine(seq: TurningPointSequence, series,
           params: TurningPointParams = DEFAULT_PARAMS) -> TurningPointSequence:
    """Prune a candidate sequence by the peak-ratio and log-gradient rules.

    ``series`` must be the same min-adjusted series the candidates were
    detected on. Each rule re-scans from the left after every removal
    until nothing fires. Idempotent on already-refined sequences.
    """
    values = np.asarray(series, dtype=float)
    pts = _peak_ratio_pass(list(seq.points), values, params.delta)
    pts = _log_gradient_pass(pts, values, params.epsilon)
    return TurningPointSequence(tuple(pts))


def find_turning_points(series, params: TurningPointParams = DEFAULT_PARAMS,
                        dates=None) -> TurningPointSequence:
    """Min-adjust, detect and refine in one call.

    Parameters
    ----------
    series : array_like
        The (smoothed) norm series; min-adjustment happens internally.
    params : TurningPointParams
        Neighborhood half-width l, peak-ratio delta, log-gradient epsilon.
    dates : sequence of date, optional
        When given, must match the series length; reported points carry
        the date at their index.

    Returns points valued on the *original* series (the min-adjustment is
    internal to the algorithm).
    """
    values = np.asarray(series, dtype=float)
    if dates is not None and len(dates) != values.size:
        raise InputError("dates length must match series length")
    adjusted = min_adjust(values)
    seq = refine(detect_candidates(adjusted, params), adjusted, params)
    points = tuple(
        TurningPoint(p.index, dates[p.index] if dates is not None else None,
                     float(values[p.index]), p.kind)
        for p in seq
    )
    return TurningPointSequence(points)
