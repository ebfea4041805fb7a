"""Symbolic prediction sets and their materialization in label space.

A descriptor records the *shape* of a prediction set (thresholds on a
last-point score); membership, intervals, and Lebesgue measure are
obtained by pushing it through the score's sublevel-set inverter at the
test covariates.  A set of several pieces evaluates the score at the test
covariates once (``score.at``) and inverts each piece's threshold on it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .scores import Intervals, LastPointScore

__all__ = [
    "ThresholdSet",
    "CutoffPiecewiseSet",
    "IntervalUnionSet",
    "total_length",
]


def total_length(intervals: Intervals) -> float:
    return float(sum(hi - lo for lo, hi in intervals))


def _clip(intervals: Intervals, lo: float, hi: float) -> Intervals:
    """The pieces of ``intervals`` within [lo, hi] that hold a finite label."""
    out = []
    for a, b in intervals:
        a2, b2 = max(a, lo), min(b, hi)
        if a2 <= b2 and a2 < math.inf and b2 > -math.inf:
            out.append((a2, b2))
    return tuple(out)


@dataclass(frozen=True)
class ThresholdSet:
    """{y : v(x, y) <= threshold}; threshold may be +-inf.

    Tie-randomized calibration can exclude the boundary, giving the open
    form {v < threshold}; that changes membership at exact-boundary labels
    only, never the materialized intervals' measure.
    """

    threshold: float
    inclusive: bool = True

    def contains(self, y: float, score: LastPointScore, x: np.ndarray) -> bool:
        v = score.of_point(x, y)
        return v <= self.threshold if self.inclusive else v < self.threshold

    def intervals(self, score: LastPointScore, x: np.ndarray) -> Intervals:
        return score.sublevel(x, self.threshold)

    def measure(self, score: LastPointScore, x: np.ndarray) -> float:
        return total_length(self.intervals(score, x))


@dataclass(frozen=True)
class CutoffPiecewiseSet:
    """One threshold on each side of a cutoff c:
    {y > c : v <= q_above} union {y <= c : v <= q_below}."""

    cutoff: float
    q_above: float
    q_below: float

    def contains(self, y: float, score: LastPointScore, x: np.ndarray) -> bool:
        q = self.q_below if y <= self.cutoff else self.q_above
        return score.of_point(x, y) <= q

    def intervals(self, score: LastPointScore, x: np.ndarray) -> Intervals:
        at = score.at(x)
        below = _clip(at.sublevel(self.q_below), -math.inf, self.cutoff)
        above = _clip(at.sublevel(self.q_above), self.cutoff, math.inf)
        return below + above

    def measure(self, score: LastPointScore, x: np.ndarray) -> float:
        return total_length(self.intervals(score, x))


@dataclass(frozen=True)
class IntervalUnionSet:
    """Per-interval thresholds over a partition of the label line.

    ``breakpoints`` are the sorted partition boundaries; open interval
    ``j`` runs between boundary ``j-1`` and ``j`` (with +-inf at the ends)
    and carries ``thresholds[j]``.  Whether each boundary point itself
    belongs to the set is recorded explicitly.
    """

    breakpoints: tuple[float, ...]
    thresholds: tuple[float, ...]
    boundary_included: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.thresholds) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one threshold per open interval")
        if len(self.boundary_included) != len(self.breakpoints):
            raise ValueError("need one membership flag per boundary point")
        if any(self.breakpoints[i] > self.breakpoints[i + 1] for i in range(len(self.breakpoints) - 1)):
            raise ValueError("breakpoints must be sorted")

    def contains(self, y: float, score: LastPointScore, x: np.ndarray) -> bool:
        # exact boundary values are decided by their recorded membership
        lo = bisect.bisect_left(self.breakpoints, y)
        hi = bisect.bisect_right(self.breakpoints, y)
        if lo != hi:
            return self.boundary_included[lo]
        return score.of_point(x, y) <= self.thresholds[lo]

    def intervals(self, score: LastPointScore, x: np.ndarray) -> Intervals:
        pieces: list[tuple[float, float]] = []
        at = score.at(x)
        bounds = (-math.inf, *self.breakpoints, math.inf)
        for j, tau in enumerate(self.thresholds):
            pieces.extend(_clip(at.sublevel(tau), bounds[j], bounds[j + 1]))
        for b, inc in zip(self.breakpoints, self.boundary_included):
            if inc:
                pieces.append((b, b))
        pieces.sort()
        merged: list[list[float]] = []
        for a, b in pieces:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return tuple((a, b) for a, b in merged)

    def measure(self, score: LastPointScore, x: np.ndarray) -> float:
        return total_length(self.intervals(score, x))
