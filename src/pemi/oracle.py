"""Brute-force ground truth by exhaustive permutation enumeration.

Everything here exists to verify the sampled engine and the closed-form
paths: exact p-values over all orderings, the classic full-conformal
permutation p-value, and the swap-based construction that single-point
symmetric selection reduces to.  A hard size guard keeps runs fast.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

import numpy as np

from .engine import MultiTestRule, SelectionPValue, _single_test, reference_mask
from .errors import GuardError, PreconditionError
from .quantiles import inflated_quantile
from .rules import SelectionRule
from .scores import ConformityScore, LastPointScore
from .sets import ThresholdSet
from .types import DataSequence, MultiTestData, PermutationSample

__all__ = [
    "iter_all_orders",
    "all_orders_sample",
    "full_pemi_pvalue",
    "full_pemi_set_grid",
    "permutation_fcp_pvalue",
    "jomi_reference",
    "jomi_set_symmetric",
    "jomi_multi_test_set",
]

MAX_ENUM_SIZE = 8


def _guard(n: int) -> None:
    if n > MAX_ENUM_SIZE:
        raise GuardError(
            f"full enumeration of {n}! = {math.factorial(n)} permutations exceeds the cap "
            f"of {MAX_ENUM_SIZE} points"
        )


def iter_all_orders(n: int) -> Iterator[tuple[int, ...]]:
    """All n! slot orders in lexicographic order."""
    _guard(n)
    return itertools.permutations(range(n))


def all_orders_sample(
    n_points: int, index_start: int = 1, skip_identity: bool = False
) -> PermutationSample:
    """The complete permutation set packaged like a Monte-Carlo sample.

    With ``skip_identity`` the identity row is left out, which matches the
    set semantics of exhaustive reference sets: downstream p-values append
    the identity exactly once themselves.
    """
    _guard(n_points)
    rows = [o for o in itertools.permutations(range(n_points))]
    if skip_identity:
        rows = [o for o in rows if o != tuple(range(n_points))]
    return PermutationSample(
        matrix=np.array(rows, dtype=np.int64).reshape(len(rows), n_points),
        seed=0,
        n_points=n_points,
        index_start=index_start,
    )


def full_pemi_pvalue(
    y: float,
    data: DataSequence,
    rule: SelectionRule,
    score: ConformityScore,
) -> SelectionPValue:
    """Exact p-value with the reference set drawn from all t! orderings."""
    from .engine import pemi_pvalue

    perms = all_orders_sample(data.n_slots, 1 - data.n_offline, skip_identity=True)
    return pemi_pvalue(y, data, rule, score, perms)


def full_pemi_set_grid(
    grid: Sequence[float],
    data: DataSequence,
    rule: SelectionRule,
    score: ConformityScore,
    alpha: float,
) -> np.ndarray:
    from .engine import pemi_set_grid

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
    _guard(n)
    full_x = data.full_x()
    full_y = data.full_y()
    full_y = np.where(np.isnan(full_y), y, full_y)
    if isinstance(score, LastPointScore):
        point_scores = score.of_points(full_x, full_y)
        v0 = point_scores[n - 1]
        count = 0
        for order in itertools.permutations(range(n)):
            count += point_scores[order[n - 1]] >= v0
        return count / math.factorial(n)
    v0 = score.of_sequence(full_x, full_y)
    count = 0
    for order in itertools.permutations(range(n)):
        idx = np.array(order)
        count += score.of_sequence(full_x[idx], full_y[idx]) >= v0
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

    The threshold is the (1-alpha) calibration quantile of the swap-stable
    points' scores (with the usual +inf augmentation).  Requires a rule
    whose reference does not depend on the imputed label, i.e. a
    covariate-based rule.
    """
    if not rule.covariate_only:
        raise PreconditionError("single-threshold swap set needs a label-free rule")
    ref = jomi_reference(0.0, data, rule, check_symmetry)
    scores = score.of_points(data.full_x()[ref], data.full_y()[ref]) if ref else np.empty(0)
    return ThresholdSet(inflated_quantile(1 - alpha, scores))


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
