import math

import pytest

from pemi.metrics import Event, fcr_report, lower_median, summarize


def _ev(rep, t, method, covered, size):
    return Event(rep=rep, t=t, method=method, covered=covered, size=size)


def test_lower_median_semantics():
    assert lower_median([3.0, 1.0, 2.0]) == 2.0
    assert lower_median([1.0, math.inf]) == 1.0  # half infinite: still finite
    assert lower_median([1.0, math.inf, math.inf]) == math.inf
    assert math.isnan(lower_median([]))


def test_summarize_ratio_estimator():
    events = [
        _ev(0, 3, "m", 1, 2.0),
        _ev(1, 3, "m", 0, math.inf),
        _ev(2, 3, "m", 1, 4.0),
        _ev(0, 5, "m", 1, 1.0),
    ]
    rows = summarize(events)
    r3 = next(r for r in rows if r.t == 3)
    assert r3.selected == 3 and r3.covered == 2
    assert r3.coverage == pytest.approx(2 / 3)
    assert r3.median_size == 4.0  # middle of {2, 4, inf}
    assert r3.infinite_fraction == pytest.approx(1 / 3)
    r5 = next(r for r in rows if r.t == 5)
    assert r5.selected == 1 and r5.coverage == 1.0


def test_fcr_report_guards_empty_runs():
    events = [
        _ev(0, 1, "m", 0, 1.0),
        _ev(0, 2, "m", 1, 1.0),
        # rep 1 never selects
        _ev(2, 1, "m", 1, 1.0),
    ]
    rep = fcr_report(events, "m", n_runs=3)
    # rep0: 1 miss of 2 -> 0.5; rep1: 0/max(1,0) -> 0; rep2: 0/1 -> 0
    assert rep.fcr == pytest.approx(0.5 / 3)


def test_fcr_never_select_is_zero():
    rep = fcr_report([], "m", n_runs=5)
    assert rep.fcr == 0.0
