"""Two-step turning-point extraction for smoothed norm series.

Both steps work on a list of ``(index, kind)`` pairs over the
minimum-adjusted series (global minimum shifted to zero); only the points
that survive them become ``TurningPoint`` records.

Step one (detection) walks the indices whose value is the exact maximum
(peak) or minimum (trough) of a clamped ±l window. A candidate that
improves on the last kept point (strictly higher for a peak, strictly
lower for a trough) replaces it when it has the same kind and follows it
otherwise; a candidate that does not improve is dropped. Indices whose
window is flat (both conditions fire) carry no information and are
skipped, so a constant series yields no turning points.

Step two (refinement) prunes insignificant structure: consecutive peaks
whose later/earlier height ratio falls below ``delta`` lose the later
peak (resolving the resulting double trough by dropping the larger), and
adjacent points whose absolute log-gradient per day falls below
``epsilon`` are removed pairwise. Both rules re-scan from the left after
every removal until nothing fires, which restores the peak-dominance
invariant. A zero-valued turning point makes the log-gradient infinite,
so the global minimum always survives rule two.
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


def _window_conditions(values, l):
    """Boolean masks: value equals the max / min of its clamped ±l window.

    The windows run over the series padded with l copies of each edge
    value, which coincides with truncating the window at the array bounds
    because the replicated value already lies inside the truncated window.
    """
    windows = sliding_window_view(np.pad(values, l, mode="edge"), 2 * l + 1)
    return values == windows.max(axis=1), values == windows.min(axis=1)


def _detect(values, l):
    """Alternating ``(index, kind)`` window extrema of a min-adjusted series."""
    is_max, is_min = _window_conditions(values, l)
    pairs = []
    for t in np.flatnonzero(is_max != is_min).tolist():
        kind = PEAK if is_max[t] else TROUGH
        if pairs:
            last, last_kind = pairs[-1]
            improves = values[t] > values[last] if kind == PEAK else values[t] < values[last]
            if not improves:
                continue
            if kind == last_kind:
                pairs.pop()
        pairs.append((t, kind))
    return pairs


def _peak_ratio_pass(pairs, values, delta):
    pairs = list(pairs)
    while True:
        peak_slots = [k for k, (_, kind) in enumerate(pairs) if kind == PEAK]
        for k1, k3 in zip(peak_slots, peak_slots[1:]):
            v1 = values[pairs[k1][0]]
            v3 = values[pairs[k3][0]]
            if v1 > 0.0 and v3 / v1 < delta:
                del pairs[k3]
                if k3 < len(pairs):  # troughs now adjacent at k3-1, k3
                    v2 = values[pairs[k3 - 1][0]]
                    v4 = values[pairs[k3][0]]
                    del pairs[k3 - 1 if v2 > v4 else k3]
                break
        else:
            return pairs


def _log_gradient_pass(pairs, values, epsilon):
    pairs = list(pairs)
    while True:
        for k in range(len(pairs) - 1):
            (t1, _), (t2, _) = pairs[k], pairs[k + 1]
            v1, v2 = values[t1], values[t2]
            if v1 <= 0.0 or v2 <= 0.0:
                continue  # gradient through zero is +inf, never below epsilon
            if abs(math.log(v2) - math.log(v1)) / (t2 - t1) < epsilon:
                is_final = k + 1 == len(pairs) - 1
                del pairs[k + 1]
                if not is_final:
                    del pairs[k]
                break
        else:
            return pairs


def find_turning_points(series, params: TurningPointParams = DEFAULT_PARAMS,
                        dates=None) -> TurningPointSequence:
    """Min-adjust, detect and refine in one call.

    Detection and both refinement rules work on ``(index, kind)`` pairs
    over the min-adjusted series; one ``TurningPoint`` is built per point
    that survives them.

    Parameters
    ----------
    series : array_like
        The (smoothed) norm series, 1-d, finite and longer than 2·l;
        min-adjustment happens internally.
    params : TurningPointParams
        Neighborhood half-width l, peak-ratio delta, log-gradient epsilon.
    dates : sequence of date, optional
        When given, must match the series length; reported points carry
        the date at their index.

    Returns points valued on the *original* series (the min-adjustment is
    internal to the algorithm).
    """
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise InputError(f"turning points need a 1-d series, got shape {values.shape}")
    n = values.size
    if dates is not None and len(dates) != n:
        raise InputError("dates length must match series length")
    if not np.all(np.isfinite(values)):
        raise InputError("turning points need a finite series")
    if n <= 2 * params.l:
        raise InputError(
            f"series of length {n} too short for l={params.l} (need > {2 * params.l})"
        )
    adjusted = values - values.min()
    pairs = _detect(adjusted, params.l)
    pairs = _peak_ratio_pass(pairs, adjusted, params.delta)
    pairs = _log_gradient_pass(pairs, adjusted, params.epsilon)
    return TurningPointSequence(tuple(
        TurningPoint(t, None if dates is None else dates[t], float(values[t]), kind)
        for t, kind in pairs
    ))
