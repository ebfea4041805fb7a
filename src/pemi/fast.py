"""Closed-form prediction sets that avoid per-label enumeration.

Three structures make this possible:

* label-free (covariate-only) rules — one reference set for every
  candidate label, so the set is a single score threshold;
* cutoff rules — the imputed label enters only through its side of the
  test cutoff, giving one threshold per side;
* earlier-outcome rules — the label line splits at the sorted past
  predictions into intervals on which the reference set is constant,
  plus the boundary points themselves.

Each path is verified against the generic engine by the test suite; the
arithmetic below deliberately routes through the same kernels the rules
use so both routes see identical floating-point values.  ``_closed_form``
is the one place that picks the construction for a rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import pemi_pvalue, pemi_pvalue_randomized
from .errors import ConfigurationError, DomainError, PreconditionError
from .quantiles import coverage_rank, kth_smallest_or_inf
from .rules import (
    ConformalPValueRule,
    CovariateRule,
    EarlierOutcomeRule,
    ELondRule,
    SelectionRule,
    SelectionTaxonomy,
    elond_selection_profile,
    weighted_pvalue_history,
)
from .scores import LastPointScore, score_each_point
from .sets import CutoffPiecewiseSet, IntervalUnionSet, ThresholdSet
from .types import DataSequence, PermutationSample

__all__ = [
    "CalibrationDetail",
    "covariate_calibration",
    "covariate_set",
    "covariate_set_randomized",
    "conformal_pvalue_set",
    "elond_set",
    "earlier_outcome_set",
]


@dataclass(frozen=True)
class CalibrationDetail:
    """Reference-set diagnostics behind a closed-form threshold: the size
    of the selection-preserving reference (identity included) and the
    scores of its members that moved a labeled point into the final slot."""

    ref_size: int
    moved_scores: np.ndarray

    @property
    def moved_count(self) -> int:
        return int(self.moved_scores.shape[0])


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
    if isinstance(rule, ConformalPValueRule):
        return conformal_pvalue_set(data, rule, score, perms, alpha)
    if isinstance(rule, ELondRule):
        return elond_set(data, rule, score, perms, alpha)
    if isinstance(rule, EarlierOutcomeRule):
        return earlier_outcome_set(data, rule, score, perms, alpha)
    raise ConfigurationError(f"no closed form for rule {type(rule).__name__}")


def _taxonomy_mask(traj: np.ndarray, taxonomy: SelectionTaxonomy) -> np.ndarray:
    if taxonomy.trajectories is not None and len(taxonomy.trajectories) == 1:
        (target,) = taxonomy.trajectories
        return traj[:, -1] & np.all(traj == np.asarray(target, dtype=bool), axis=1)
    keep = np.array([taxonomy.contains(tuple(int(v) for v in row)) for row in traj])
    return traj[:, -1] & keep


def _covariate_reference(
    data: DataSequence,
    rule: CovariateRule,
    perms: PermutationSample,
    taxonomy: SelectionTaxonomy | None,
) -> tuple[np.ndarray, np.ndarray]:
    """(selected mask, per-point rule values); precondition S_t = 1."""
    if not rule.covariate_only:
        raise ConfigurationError("single-threshold calibration needs a label-free rule")
    if perms.n_points != data.n_slots:
        raise DomainError("permutation domain does not match the sequence")
    if taxonomy is not None and data.n_offline:
        # trajectories are indexed by online steps; the batched replay below
        # walks raw slots, so the two only coincide without an offline block
        raise ConfigurationError("trajectory-restricted references need a plain online sequence")
    values = rule.point_values(data.full_x())
    if not rule.select_values(values):
        raise PreconditionError("the observed point was not selected")
    permuted = values[perms.matrix]
    if perms.m == 0:
        return np.zeros(0, dtype=bool), values
    if taxonomy is None:
        sel = rule.select_values_batch(permuted)
    else:
        sel = _taxonomy_mask(rule.trajectory_values_batch(permuted), taxonomy)
    return sel, values


def _moved_scores(
    data: DataSequence, score: LastPointScore, perms: PermutationSample, sel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    test_slot = data.n_slots - 1
    last = perms.matrix[:, -1] if perms.m else np.empty(0, dtype=np.int64)
    moved = sel & (last != test_slot)
    point_scores = score_each_point(score, data.full_x(), data.full_y())
    return moved, point_scores[last[moved]]


def covariate_calibration(
    data: DataSequence,
    rule: CovariateRule,
    score: LastPointScore,
    perms: PermutationSample,
    taxonomy: SelectionTaxonomy | None = None,
) -> CalibrationDetail:
    """The label-free reference behind the single-threshold sets."""
    sel, _ = _covariate_reference(data, rule, perms, taxonomy)
    _, scores_moved = _moved_scores(data, score, perms, sel)
    return CalibrationDetail(ref_size=1 + int(sel.sum()), moved_scores=scores_moved)


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
    cal = covariate_calibration(data, rule, score, perms, taxonomy)
    k = coverage_rank(alpha, cal.ref_size)
    return ThresholdSet(kth_smallest_or_inf(k, cal.moved_scores))


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
    if not 0 <= u <= 1:
        raise DomainError(f"tie-break uniform must be in [0,1], got {u}")
    cal = covariate_calibration(data, rule, score, perms, taxonomy)
    q, inclusive = _randomized_threshold(cal.moved_scores, cal.ref_size, alpha, u)
    return ThresholdSet(q, inclusive=inclusive)


def _randomized_threshold(
    scores_moved: np.ndarray, ref_size: int, alpha: float, u: float
) -> tuple[float, bool]:
    """Largest score class still inside {p_randomized > alpha}.

    Walks the distinct moved-in scores from the top: first the open region
    above each value (ties = stay count only), then the value itself
    (ties also count its multiplicity).  Returns (threshold, inclusive);
    (-inf, False) encodes the empty set, (+inf, True) the full space.
    """
    stay = ref_size - scores_moved.shape[0]  # identity plus stay-in-place members
    bar = alpha * ref_size
    values, counts = np.unique(scores_moved, return_counts=True)
    strictly_above = 0
    if u * stay + strictly_above > bar:
        return math.inf, True
    for idx in range(values.shape[0] - 1, -1, -1):
        if u * (stay + counts[idx]) + strictly_above > bar:
            return float(values[idx]), True
        strictly_above += int(counts[idx])
        if u * stay + strictly_above > bar:
            return float(values[idx]), False
    return -math.inf, False


def _two_sided_thresholds(
    data: DataSequence,
    score: LastPointScore,
    perms: PermutationSample,
    sel_by_side: dict[int, np.ndarray],
    alpha: float,
) -> CutoffPiecewiseSet:
    qs = {}
    for k, sel in sel_by_side.items():
        moved, scores_moved = _moved_scores(data, score, perms, sel)
        ref_size = 1 + int(sel.sum())
        rank = coverage_rank(alpha, ref_size)
        qs[k] = kth_smallest_or_inf(rank, scores_moved)
    return CutoffPiecewiseSet(cutoff=float(data.test_cutoff), q_above=qs[0], q_below=qs[1])


def conformal_pvalue_set(
    data: DataSequence,
    rule: ConformalPValueRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
) -> CutoffPiecewiseSet:
    """Two-threshold set for p-value-threshold selection.

    For each side of the test cutoff the whole permuted p-value history is
    rebuilt with the imputed indicator fixed to that side, the adaptive
    level is replayed on it, and the usual quantile calibration applies to
    the permutations that re-select.
    """
    if data.cutoffs is None or data.test_cutoff is None:
        raise ConfigurationError("p-value selection needs per-point cutoffs")
    if data.n_offline:
        raise ConfigurationError("p-value thresholding runs on online slots only")
    if perms.n_points != data.n_slots:
        raise DomainError("permutation domain does not match the sequence")
    t = data.t
    full_c = data.full_cutoffs()
    fhat = np.asarray(rule.f_score(data.full_x(), full_c), dtype=float)
    ind_true = np.zeros(t)
    ind_true[: t - 1] = data.y <= data.cutoffs
    weights = rule.weights(t)

    # precondition: the observed point was selected
    p_obs = weighted_pvalue_history(fhat, ind_true, weights)
    if not p_obs[-1] <= rule.engine.alphas(p_obs)[-1]:
        raise PreconditionError("the observed point was not selected")

    sel_by_side: dict[int, np.ndarray] = {}
    for k in (0, 1):
        if perms.m == 0:
            sel_by_side[k] = np.zeros(0, dtype=bool)
            continue
        ind = ind_true.copy()
        ind[t - 1] = k
        fp = fhat[perms.matrix]
        ip = ind[perms.matrix]
        pvals = weighted_pvalue_history(fp, ip, weights)
        alphas = rule.engine.alphas_batch(pvals)
        sel_by_side[k] = pvals[:, -1] <= alphas[:, -1]
    return _two_sided_thresholds(data, score, perms, sel_by_side, alpha)


def elond_set(
    data: DataSequence,
    rule: ELondRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
) -> CutoffPiecewiseSet:
    """Two-threshold set for e-value selection with an offline block.

    Per side, both leave-one-out p-value streams are rebuilt under every
    permutation of the full (offline + online) slot range — the imputed
    indicator participates only when the test point lands in an offline
    slot — and the discovery-count and e-value recursions are replayed to
    decide which permutations re-select.
    """
    if data.n_offline < 1:
        raise ConfigurationError("e-value selection needs a non-empty offline block")
    if data.cutoffs is None or data.test_cutoff is None or data.offline_cutoffs is None:
        raise ConfigurationError("e-value selection needs cutoffs on every point")
    if perms.n_points != data.n_slots:
        raise DomainError("permutation domain does not match the sequence")
    n_off = data.n_offline
    t = data.t
    n_slots = data.n_slots
    fhat = np.asarray(rule.f_score(data.full_x(), data.full_cutoffs()), dtype=float)
    ind_true = np.zeros(n_slots)
    ind_true[:n_off] = data.offline_y <= data.offline_cutoffs
    ind_true[n_off : n_slots - 1] = data.y <= data.cutoffs

    ident = np.arange(n_slots, dtype=np.int64).reshape(1, -1)
    if not bool(_elond_last_selection(rule, fhat, ind_true, ident, n_off, t)[0]):
        raise PreconditionError("the observed point was not selected")

    sel_by_side: dict[int, np.ndarray] = {}
    for k in (0, 1):
        if perms.m == 0:
            sel_by_side[k] = np.zeros(0, dtype=bool)
            continue
        ind = ind_true.copy()
        ind[n_slots - 1] = k
        sel_by_side[k] = _elond_last_selection(rule, fhat, ind, perms.matrix, n_off, t)
    return _two_sided_thresholds(data, score, perms, sel_by_side, alpha)


def _elond_last_selection(
    rule: ELondRule,
    fhat: np.ndarray,
    ind: np.ndarray,
    orders: np.ndarray,
    n_off: int,
    t: int,
) -> np.ndarray:
    fp = fhat[orders]
    ip = ind[orders]
    f_off, i_off = fp[:, :n_off], ip[:, :n_off]
    counts = np.empty((orders.shape[0], t))
    for j in range(t):
        counts[:, j] = ((f_off >= fp[:, n_off + j][:, None]) * i_off).sum(axis=1)
    p_minus = counts / (n_off + 1)
    p_plus = (counts + 1) / (n_off + 1)
    profile = elond_selection_profile(p_minus, p_plus, rule.alpha, rule.gamma, rule.randomize_u)
    return profile[:, -1]


def earlier_outcome_set(
    data: DataSequence,
    rule: EarlierOutcomeRule,
    score: LastPointScore,
    perms: PermutationSample,
    alpha: float,
    boundary_u: float | None = None,
) -> IntervalUnionSet:
    """Interval-partition set for selection by past-label quantiles.

    Between consecutive sorted past predictions the imputed label's
    comparison with every moved-in prediction is constant, so each open
    interval gets one threshold; the partition boundaries themselves are
    decided by direct p-value evaluation (deterministic by default,
    tie-randomized with ``boundary_u``).
    """
    if data.n_offline:
        raise ConfigurationError("the partition form is defined on plain online sequences")
    if perms.n_points != data.n_slots:
        raise DomainError("permutation domain does not match the sequence")
    t = data.t
    if t == 1:
        return IntervalUnionSet((), (math.inf,), ())
    mu_points = np.asarray(rule.mu(data.full_x()), dtype=float)
    mu_t = mu_points[-1]
    weights = rule.weights(t - 1)
    total = float(weights.sum())
    if total <= 0:
        raise ConfigurationError("weights sum to zero")
    if not float(weights @ (data.y > mu_t)) <= rule.beta_sel * total:
        raise PreconditionError("the observed point was not selected")

    breakpoints = np.sort(mu_points[: t - 1])
    full_y = data.full_y()
    point_scores = score_each_point(score, data.full_x(), full_y)
    test_slot = t - 1

    P = perms.matrix
    if perms.m:
        last = P[:, -1]
        mu_last = mu_points[last]
        in_prefix = P[:, :-1] == test_slot
        w_l = in_prefix @ weights  # weight of the slot holding the test point, 0 if none
        y_perm = full_y[P[:, :-1]]
        base = ((y_perm > mu_last[:, None]) * weights).sum(axis=1)  # NaN test slot drops out
        p0 = base / total
        p1 = (base + w_l) / total
        stay = last == test_slot
        sel_stay = stay & (p0 <= rule.beta_sel)
    else:
        last = np.empty(0, dtype=np.int64)
        mu_last = p0 = p1 = np.empty(0)
        stay = sel_stay = np.zeros(0, dtype=bool)

    thresholds = []
    for j in range(t):
        mask = sel_stay.copy()
        if perms.m:
            if j >= 1:
                mask |= ~stay & (mu_last <= breakpoints[j - 1]) & (p1 <= rule.beta_sel)
            if j <= t - 2:
                mask |= ~stay & (mu_last >= breakpoints[j]) & (p0 <= rule.beta_sel)
        ref_size = 1 + int(mask.sum())
        moved = mask & ~stay
        scores_moved = point_scores[last[moved]]
        rank = coverage_rank(alpha, ref_size)
        thresholds.append(kth_smallest_or_inf(rank, scores_moved))

    included = []
    for b in breakpoints:
        if boundary_u is None:
            p = pemi_pvalue(float(b), data, rule, score, perms)
        else:
            p = pemi_pvalue_randomized(float(b), data, rule, score, perms, boundary_u)
        included.append(p.exceeds(alpha))
    return IntervalUnionSet(
        breakpoints=tuple(float(b) for b in breakpoints),
        thresholds=tuple(thresholds),
        boundary_included=tuple(included),
    )
