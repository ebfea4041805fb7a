"""Test-only references built on exhaustive enumeration.

Exact p-values over all orderings, the classic full-conformal permutation
p-value, and the swap-based construction that single-point symmetric
selection reduces to.  They check the sampled engine and the closed forms;
``pemi.oracle.all_orders_sample`` supplies the orderings and its size
guard.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from pemi.engine import MultiTestRule, SelectionPValue, _single_test, pemi_pvalue, pemi_set_grid, reference_mask
from pemi.errors import PreconditionError
from pemi.oracle import all_orders_sample
from pemi.quantiles import coverage_rank, kth_smallest_or_inf
from pemi.rules import SelectionRule
from pemi.scores import ConformityScore, LastPointScore
from pemi.sets import ThresholdSet
from pemi.types import DataSequence, MultiTestData, PermutationSample


def full_pemi_pvalue(
    y: float,
    data: DataSequence,
    rule: SelectionRule,
    score: ConformityScore,
) -> SelectionPValue:
    """Exact p-value with the reference set drawn from all t! orderings."""
    perms = all_orders_sample(data.n_slots, 1 - data.n_offline, skip_identity=True)
    return pemi_pvalue(y, data, rule, score, perms)


def full_pemi_set_grid(
    grid: Sequence[float],
    data: DataSequence,
    rule: SelectionRule,
    score: ConformityScore,
    alpha: float,
) -> np.ndarray:
    perms = all_orders_sample(data.n_slots, 1 - data.n_offline, skip_identity=True)
    return pemi_set_grid(grid, data, rule, score, perms, alpha)


def permutation_fcp_pvalue(
    y: float,
    data: DataSequence,
    score: ConformityScore,
) -> float:
    """Unrestricted permutation-test p-value of the imputed sequence:
    the fraction of all orderings whose score reaches the identity's.

    Admits order-sensitive scores; with a symmetric last-point score it
    collapses to the classic rank form (1 + #{v_i >= v_t}) / t.
    """
    n = data.n_slots
    orders = all_orders_sample(n).matrix
    full_x = data.full_x()
    full_y = data.full_y()
    full_y = np.where(np.isnan(full_y), y, full_y)
    if isinstance(score, LastPointScore):
        point_scores = score.of_points(full_x, full_y)
        v0 = point_scores[n - 1]
        count = 0
        for order in orders:
            count += point_scores[order[n - 1]] >= v0
        return count / math.factorial(n)
    v0 = score.of_sequence(full_x, full_y)
    count = 0
    for order in orders:
        count += score.of_sequence(full_x[order], full_y[order]) >= v0
    return count / math.factorial(n)


# ---------------------------------------------------------------------------
# swap-based construction for symmetric rules
# ---------------------------------------------------------------------------


def _assert_symmetric(rule: SelectionRule, data: DataSequence, n_checks: int = 20) -> None:
    """Empirically reject rules that are sensitive to prefix order."""
    rng = np.random.default_rng(7)
    n = data.n_slots
    shuffles = [np.concatenate([rng.permutation(n - 1), [n - 1]]) for _ in range(n_checks)]
    mask = reference_mask(0.0, data, rule, PermutationSample(np.array(shuffles), seed=0, n_points=n))
    if np.any(mask != rule.select(data)):
        raise PreconditionError("rule is not permutation-invariant in the labeled prefix")


def jomi_reference(
    y: float, data: DataSequence, rule: SelectionRule, check_symmetry: bool = True
) -> list[int]:
    """Slots whose point, swapped with the test point, keeps the selection.

    Only meaningful for rules that ignore the order of the labeled prefix.
    Returns 0-based labeled slots.
    """
    if data.n_offline:
        raise PreconditionError("swap construction is defined on plain online sequences")
    if check_symmetry:
        _assert_symmetric(rule, data)
    n = data.n_slots
    swaps, i = np.tile(np.arange(n), (n - 1, 1)), np.arange(n - 1)
    swaps[i, i], swaps[i, -1] = n - 1, i
    mask = reference_mask(y, data, rule, PermutationSample(swaps, seed=0, n_points=n))
    return np.flatnonzero(mask).tolist()


def jomi_set_symmetric(
    data: DataSequence,
    rule: SelectionRule,
    score: LastPointScore,
    alpha: float,
    check_symmetry: bool = True,
) -> ThresholdSet:
    """Swap-calibrated threshold set for a symmetric, label-free rule.

    The threshold is the rank-``coverage_rank(alpha, n + 1)`` score of the
    ``n`` swap-stable points (+inf past the end): the reference is those
    swaps plus the identity, ranked as ``CalibrationDetail.threshold``
    ranks a closed form's.  Requires a rule whose reference does not
    depend on the imputed label, i.e. a covariate-based rule.
    """
    if not rule.covariate_only:
        raise PreconditionError("single-threshold swap set needs a label-free rule")
    ref = jomi_reference(0.0, data, rule, check_symmetry)
    scores = score.of_points(data.full_x()[ref], data.full_y()[ref]) if ref else np.empty(0)
    return ThresholdSet(kth_smallest_or_inf(coverage_rank(alpha, len(ref) + 1), scores))


def jomi_multi_test_set(
    data: MultiTestData,
    j: int,
    rule: MultiTestRule,
    score: LastPointScore,
    alpha: float,
) -> ThresholdSet:
    """Swap-based set for a selected test index under a symmetric rule."""
    if not (rule.symmetric_in_calibration and rule.covariate_only):
        raise PreconditionError("swap construction needs a symmetric, label-free rule")
    seq, single = _single_test(data, j, rule)
    return jomi_set_symmetric(seq, single, score, alpha, check_symmetry=False)
