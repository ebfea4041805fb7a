"""Closed-form prediction sets that avoid per-label enumeration.

Four structures make this possible:

* label-free (covariate-only) rules — one reference set for every
  candidate label, so the set is a single score threshold;
* cutoff rules, p-value and e-value selection alike — the imputed label
  enters only through its side of the test cutoff, so one form gives one
  threshold per side for both;
* earlier-outcome rules — the label enters only through its side of the
  last slot's prediction, so the engine's references at a label below
  and at one above every prediction split the label line at the sorted
  past predictions into intervals on which the reference set is
  constant, plus the boundary points themselves;
* label-free multi-test rules — one reference for the selected test
  index, so again a single threshold.

The single-test constructors share one front end, ``_observed``: it
checks the permutations against the sequence, gets the observed
arguments of ``decide`` from ``rule.replay(data)`` as the generic engine
does (which is where a rule's needs, such as cutoffs or an offline block,
are enforced), checks that the rule selects the observed point, and takes
the score each sampled row carries into the test slot from the engine's
memo (``_carried``), so a closed form and the engine's p-values of one
step score the labeled points once between them.
Every construction builds a selection-preserving reference mask and then
takes one calibration step, ``_calibration``: the rank-
``ceil((1-alpha)*ref_size)`` score among the members that moved a labeled
point into the test slot (``CalibrationDetail.threshold``).  The
earlier-outcome form stacks the references of all its intervals and
reads every interval's rank from one sort, through the same
``kth_smallest_or_inf`` and ``coverage_rank``.  Each path is
verified against the generic engine by the test suite; the arithmetic
routes through the rules' own kernels, never a copy of a rule's formula,
so both routes see identical floating-point values.  ``_closed_form`` is
the one place that picks the construction for a rule.

The deterministic and the tie-randomized set of a step are two
calibrations of one label-free reference, so ``_covariate_reference``
builds it once per identity of its arguments and keeps the last one in a
one-slot memo, the helper the engine's label-free replay also uses.  A
slot, not a reference handed in by the caller, keeps ``covariate_set``
and ``covariate_set_randomized`` the functions that return the sets,
with their signatures, looked up by name: replacing one by name still
reaches every caller, and a tracer that wraps them still times every set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import MultiTestRule, _carried, _check_domain, _one_slot_memo, _single_test
from .engine import pemi_pvalue, reference_mask
from .errors import ConfigurationError, DomainError, PreconditionError
from .quantiles import coverage_rank, kth_smallest_or_inf
from .rules import (
    CovariateRule,
    CutoffRule,
    EarlierOutcomeRule,
    SelectionRule,
    SelectionTaxonomy,
    _sides,
)
from .scores import LastPointScore
from .sets import CutoffPiecewiseSet, IntervalUnionSet, ThresholdSet
from .types import DataSequence, MultiTestData, PermutationSample

__all__ = [
    "covariate_set",
    "covariate_set_randomized",
    "conformal_pvalue_set",
    "elond_set",
    "earlier_outcome_set",
    "multi_test_threshold_set",
]


@dataclass(frozen=True)
class CalibrationDetail:
    """Reference-set diagnostics behind a closed-form threshold: the size
    of the selection-preserving reference (identity included) and the
    scores of its members that moved a labeled point into the final slot."""

    ref_size: int
    moved_scores: np.ndarray

    def threshold(self, alpha: float, u: float | None = None) -> ThresholdSet:
        """The score sublevel set calibrated on this reference: the
        rank-``ceil((1-alpha)*ref_size)`` moved-in score (+inf past the end),
        or with a tie-break uniform ``u`` the inverted tie-randomized p-value."""
        if u is None:
            k = coverage_rank(alpha, self.ref_size)
            return ThresholdSet(kth_smallest_or_inf(k, self.moved_scores))
        if not 0 <= u <= 1:
            raise DomainError(f"tie-break uniform must be in [0,1], got {u}")
        q, inclusive = _randomized_threshold(self.moved_scores, self.ref_size, alpha, u)
        return ThresholdSet(q, inclusive=inclusive)


def _observed(
    data: DataSequence, rule: SelectionRule, score: LastPointScore, perms: PermutationSample
) -> tuple[tuple, tuple[np.ndarray, np.ndarray]]:
    """The observed ``decide`` arguments and the scores the sampled rows
    carry into the test slot (the engine's ``_carried``, read-only), once
    ``perms`` acts on ``data``, the rule can run on it and the rule
    selects the observed point."""
    _check_domain(data, perms)
    observed = rule.replay(data)
    if not rule.decide(*observed):
        raise PreconditionError("the observed point was not selected")
    return observed, _carried(data, score, perms)


def _calibration(carried: tuple[np.ndarray, np.ndarray], sel: np.ndarray) -> CalibrationDetail:
    """The reference of the sampled rows ``sel`` plus the identity; rows
    keeping the test point in the last slot add no score, the others the
    labeled score they carry there (``carried``, from ``_observed``)."""
    scores, moved = carried
    return CalibrationDetail(ref_size=1 + int(np.count_nonzero(sel)), moved_scores=scores[sel & moved])


def _closed_form(
    data: DataSequence,
    rule: SelectionRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
    u: float | None = None,
    taxonomy: SelectionTaxonomy | None = None,
):
    """The closed-form set for ``rule``: tie-randomized with the uniform
    ``u`` and trajectory-restricted by ``taxonomy`` when given, both for
    label-free rules only."""
    # Private, and looks the constructors up at call time: wrapping or replacing one by name reaches every caller.
    if isinstance(rule, CovariateRule):
        if u is None:
            return covariate_set(data, rule, score, perms, alpha, taxonomy)
        return covariate_set_randomized(data, rule, score, perms, alpha, u, taxonomy)
    if u is not None or taxonomy is not None:
        raise ConfigurationError("randomized and trajectory-pinned sets need a label-free rule")
    if isinstance(rule, CutoffRule):
        return conformal_pvalue_set(data, rule, score, perms, alpha)
    if isinstance(rule, EarlierOutcomeRule):
        return earlier_outcome_set(data, rule, score, perms, alpha)
    raise ConfigurationError(f"no closed form for rule {type(rule).__name__}")


@_one_slot_memo
def _covariate_reference(
    data: DataSequence,
    rule: CovariateRule,
    score: LastPointScore,
    perms: PermutationSample,
    taxonomy: SelectionTaxonomy | None,
) -> CalibrationDetail:
    """The label-free reference behind the single-threshold sets.

    Built once per identity of the five arguments (``engine._one_slot_memo``):
    a call with the very objects of the last one returns its detail,
    read-only.  The detail lives in a module slot, not a parameter, so the
    two set constructors keep the signatures and the lookup by name
    through which a replacement or a tracer reaches them.  A rule that
    does not select the observed point raises on every call.
    """
    (values, *_), carried = _observed(data, rule, score, perms)
    permuted = values[perms.matrix]
    if taxonomy is None:
        sel = rule.select_values_batch(permuted)
    else:
        # trajectories are indexed by online steps: the batched replay's offline columns drop out
        traj = rule.trajectory_values_batch(permuted)[:, data.n_offline :]
        sel = taxonomy.mask(traj)
    detail = _calibration(carried, sel)
    detail.moved_scores.setflags(write=False)
    return detail


def covariate_set(
    data: DataSequence,
    rule: CovariateRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
    taxonomy: SelectionTaxonomy | None = None,
) -> ThresholdSet:
    """Single-threshold set for label-free rules.

    The threshold is the rank-``ceil((1-alpha)*ref_size)`` element of the
    scores carried by selection-preserving permutations that move a
    labeled point into the final slot; past the end it is +inf (the whole
    label space — exactly the vacuous sets reported for tiny references).
    """
    return _covariate_reference(data, rule, score, perms, taxonomy).threshold(alpha)


def covariate_set_randomized(
    data: DataSequence,
    rule: CovariateRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
    u: float,
    taxonomy: SelectionTaxonomy | None = None,
) -> ThresholdSet:
    """Exact-coverage variant: invert the tie-randomized p-value.

    At a candidate score level ``v`` the randomized p-value is
    ``(u * (stay + ties_at(v)) + strictly_above(v)) / ref_size`` — every
    selection-preserving permutation that keeps the test point in place
    ties with the candidate by construction, so ``u`` moves the threshold
    globally, not just across the tie block at the deterministic rank.
    The p-value is non-increasing in ``v``, so the set is a score
    sublevel set; the boundary score itself may be excluded, in which
    case the open form is returned.
    """
    return _covariate_reference(data, rule, score, perms, taxonomy).threshold(alpha, u)


def _randomized_threshold(
    scores_moved: np.ndarray, ref_size: int, alpha: float, u: float
) -> tuple[float, bool]:
    """Largest score class still inside {p_randomized > alpha}.

    Walks the distinct moved-in scores from the top: first the open region
    above each value (ties = stay count only), then the value itself
    (ties also count its multiplicity).  Returns (threshold, inclusive);
    (-inf, False) encodes the empty set, (+inf, True) the full space.
    """
    stay = int(ref_size) - scores_moved.shape[0]  # identity plus stay-in-place members
    values, counts = np.unique(scores_moved, return_counts=True)
    a, b = float(alpha).as_integer_ratio()
    c, d = float(u).as_integer_ratio()
    bar = a * d * int(ref_size)

    def exceeds(strict: int, ties: int) -> bool:
        """``exceeds_level``'s exact strict + u * ties > alpha * ref_size, its ratios taken once per call."""
        return b * (d * strict + c * ties) > bar

    strictly_above = 0
    if exceeds(strictly_above, stay):
        return math.inf, True
    for value, count in zip(values[::-1].tolist(), counts[::-1].tolist()):
        if exceeds(strictly_above, stay + count):
            return value, True
        strictly_above += count
        if exceeds(strictly_above, stay):
            return value, False
    return -math.inf, False


def conformal_pvalue_set(
    data: DataSequence,
    rule: CutoffRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
) -> CutoffPiecewiseSet:
    """Two-threshold set for any cutoff rule: p-value thresholding on online
    slots and e-value selection against an offline block alike.

    For each side ``k`` of the test cutoff the test point's side indicator
    is fixed to ``k``, and ``rule.selects_last`` decides on the permuted
    scores and indicators of every slot, the offline block included, which
    permutations re-select; the usual quantile calibration then applies.
    """
    (fhat, labels, cutoffs, n_offline), carried = _observed(data, rule, score, perms)
    ind = _sides(labels, cutoffs)
    fp = fhat[perms.matrix]
    q = []
    for k in (0, 1):
        ind[-1] = k
        sel = rule.selects_last(fp, ind[perms.matrix], n_offline)
        q.append(_calibration(carried, sel).threshold(alpha).threshold)
    return CutoffPiecewiseSet(cutoff=float(data.test_cutoff), q_above=q[0], q_below=q[1])


# e-value selection is a cutoff rule: its name binds the same closed form.
elond_set = conformal_pvalue_set


def earlier_outcome_set(
    data: DataSequence,
    rule: EarlierOutcomeRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
) -> IntervalUnionSet:
    """Interval-partition set for selection by past-label quantiles.

    The imputed label enters only through its side of the prediction in
    the last slot, so the engine's reference at a label below every
    prediction and at one above every prediction gives both sides of every
    row.  Between consecutive sorted past predictions each moved-in row's
    side is constant, so each open interval gets one threshold; all of
    them come from one stacked pass, each interval's rank read from its
    row of moved-in scores.  The partition boundaries themselves are
    decided by direct p-value evaluation.
    """
    (mu_points, *_), (carried, moved) = _observed(data, rule, score, perms)
    t = data.t
    if t == 1:
        return IntervalUnionSet((), (math.inf,), ())
    breakpoints = np.sort(mu_points[: t - 1])
    mu_last = mu_points[perms.matrix[:, -1]]
    below, above = (reference_mask(y, data, rule, perms) for y in (-math.inf, math.inf))
    # row i: the reference on the interval above lows[i]; a row keeping the
    # test point in place never reads its label, so there below == above
    lows = np.concatenate(([-math.inf], breakpoints))
    sel = np.where(mu_last <= lows[:, None], above, below)
    ref_sizes = 1 + np.count_nonzero(sel, axis=1)
    ranks = np.array([coverage_rank(alpha, r) for r in ref_sizes.tolist()])
    # non-members read +inf, past every member's score
    thresholds = kth_smallest_or_inf(ranks, np.where(sel & moved, carried, math.inf))
    included = tuple(pemi_pvalue(float(b), data, rule, score, perms).exceeds(alpha) for b in breakpoints)
    return IntervalUnionSet(
        breakpoints=tuple(float(b) for b in breakpoints),
        thresholds=tuple(thresholds),
        boundary_included=included,
    )


def multi_test_threshold_set(
    data: MultiTestData,
    j: int,
    rule: MultiTestRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
) -> ThresholdSet:
    """Single-threshold set for rules whose selection ignores labels."""
    if not rule.covariate_only:
        raise ConfigurationError("threshold form needs a label-free multi-test rule")
    seq, single = _single_test(data, j, rule)
    sel = reference_mask(0.0, seq, single, perms)  # imputed label unused
    return _calibration(_carried(seq, score, perms), sel).threshold(alpha)
