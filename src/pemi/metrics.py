"""Evaluation metrics over experiment event logs.

An event records one (replication, time, method) triple at which a set
was issued.  Per-time coverage is the ratio estimator
#covered / #selected; set size uses the lower median so that the median
is infinite exactly when more than half the selected sets are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Event", "MetricsRow", "FcrReport", "summarize", "fcr_report", "lower_median"]


@dataclass(frozen=True)
class Event:
    rep: int
    t: int
    method: str
    covered: int
    size: float

    @property
    def infinite(self) -> bool:
        return math.isinf(self.size)


@dataclass(frozen=True)
class MetricsRow:
    method: str
    t: int
    selected: int
    covered: int
    coverage: float
    median_size: float
    infinite_fraction: float


@dataclass(frozen=True)
class FcrReport:
    method: str
    n_runs: int
    fcr: float


def lower_median(values: Sequence[float]) -> float:
    """The ceil(n/2)-th smallest value; infinite iff > half are infinite."""
    v = sorted(values)
    if not v:
        return math.nan
    return v[(len(v) + 1) // 2 - 1]


def summarize(events: Iterable[Event]) -> list[MetricsRow]:
    """Per-(method, t) aggregation, sorted for stable output."""
    groups: dict[tuple[str, int], list[Event]] = {}
    for e in events:
        groups.setdefault((e.method, e.t), []).append(e)
    rows = []
    for (method, t), evs in sorted(groups.items()):
        sel = len(evs)
        cov = sum(e.covered for e in evs)
        sizes = [e.size for e in evs]
        rows.append(
            MetricsRow(
                method=method,
                t=t,
                selected=sel,
                covered=cov,
                coverage=cov / sel,
                median_size=lower_median(sizes),
                infinite_fraction=sum(e.infinite for e in evs) / sel,
            )
        )
    return rows


def fcr_report(events: Iterable[Event], method: str, n_runs: int) -> FcrReport:
    """Mean over runs of (#selected-and-missed / max(1, #selected))."""
    sel_by_rep: dict[int, int] = {}
    miss_by_rep: dict[int, int] = {}
    for e in events:
        if e.method != method:
            continue
        sel_by_rep[e.rep] = sel_by_rep.get(e.rep, 0) + 1
        miss_by_rep[e.rep] = miss_by_rep.get(e.rep, 0) + (1 - e.covered)
    total = 0.0
    for rep in range(n_runs):
        sel = sel_by_rep.get(rep, 0)
        total += miss_by_rep.get(rep, 0) / max(1, sel)
    return FcrReport(method=method, n_runs=n_runs, fcr=total / n_runs)
