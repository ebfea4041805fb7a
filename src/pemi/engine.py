"""Generic selection-calibrated permutation inference.

For a candidate label ``y``, the reference set collects the sampled
permutations under which the imputed, permuted sequence would still be
selected (the identity is always a member, with multiplicity one); the
p-value compares the identity's conformity score against the scores over
that reference set.  Everything here works for arbitrary rules and
scores by direct evaluation — the closed-form module reproduces these
answers without enumerating candidate labels.

A rule's point values depend on each point alone and read no label, so
the label-free part of a replay is built once per sequence, rule and
sample (``rule.replay`` on the whole sample: one gather of every sampled
row's arguments with the test label NaN, and where each row keeps it) and
kept in a one-slot memo, as are, per sequence and score, the test
point's score as a function of its label (``score.at``), and, per
sequence, score and sample, the labeled score each sampled row carries
into the test slot and whether it moved a point there (``_carried``,
which scores every labeled point once), which the closed forms of
``pemi.fast`` read too.
Each candidate label then only writes itself into the test label's
places, the one place a label is imputed, and decides every row in one
``rule.decide_rows`` call (the cutoff and earlier-outcome kernels take
the whole batch), so every label is still decided by the rule itself;
its score is the test point's ``of`` at that label, which calls no
model, and is counted against the carried scores of the members that
moved a point into the test slot, the other members tying with it.  The
earlier-outcome closed form reads its two side masks from
``reference_mask`` itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .quantiles import exceeds_level
from .rules import SelectionRule, SelectionTaxonomy
from .scores import ConformityScore, LastPointScore, PointScore
from .types import DataSequence, MultiTestData, PermutationSample

__all__ = [
    "SelectionPValue",
    "pemi_pvalue",
    "pemi_set_grid",
    "reference_mask",
    "MultiTestRule",
    "TopPredictionRule",
    "multi_test_pvalue",
]


@dataclass(frozen=True)
class SelectionPValue:
    """A permutation p-value over a selection-preserving reference set.

    ``value = exceed_count / ref_size`` for the deterministic form; the
    randomized form stores the strict-exceedance and tie counts plus the
    uniform draw that mixed them, ``value = (exceed_count + u * tie_count)
    / ref_size``.  ``exceeds`` decides on the counts, never on ``value``.
    """

    value: float
    ref_size: int
    exceed_count: int
    tie_count: int | None = None
    u: float | None = None

    def exceeds(self, alpha: float) -> bool:
        """p > alpha: exact count arithmetic on the binary values of alpha
        and ``u``, the comparison the closed form's threshold search makes."""
        return exceeds_level(self.exceed_count, self.ref_size, alpha, self.tie_count or 0, self.u or 0.0)


def _check_domain(data: DataSequence, perms: PermutationSample) -> None:
    if perms.n_points != data.n_slots:
        raise DomainError(
            f"permutations act on {perms.n_points} slots but the sequence has {data.n_slots}"
        )


def _one_slot_memo(build: Callable) -> Callable:
    """``build`` remembering its last result by the identity of its arguments.

    A call with the very objects (``is``) of the last call returns its
    result again; any other call, one with equal but distinct objects
    included, builds anew and takes the slot.  The arguments must be
    immutable values (frozen, with read-only arrays), and are held
    strongly, so no id is reused while they are remembered.  Only a
    finished build is kept, so a build that raises raises on every call.
    The slot is the wrapper's ``last`` attribute.
    """

    @functools.wraps(build)
    def memo(*args):
        last = memo.last
        if last is not None and len(last[0]) == len(args) and all(a is b for a, b in zip(last[0], args)):
            return last[1]
        result = build(*args)
        memo.last = (args, result)
        return result

    memo.last = None
    return memo


@_one_slot_memo
def _replayed(data: DataSequence, rule: SelectionRule, perms: PermutationSample) -> tuple:
    """Every sampled row's ``decide`` arguments, the test label NaN, and
    the flat positions in the row-stacked labels that hold it: all of a
    replay that no candidate label changes, read-only.  ``point_values``
    reads no label, so the values and cutoffs are those of any label."""
    _check_domain(data, perms)
    values, labels, cutoffs, n_offline = rule.replay(data, perms.matrix)
    at_test = np.flatnonzero(perms.matrix[:, :-1] == data.n_slots - 1)
    for a in (values, labels, cutoffs, at_test):
        if a is not None:
            a.setflags(write=False)
    return values, labels, cutoffs, n_offline, at_test


@_one_slot_memo
def _test_point(data: DataSequence, score: LastPointScore) -> PointScore:
    """The test point's score as a function of its label."""
    return score.at(data.full_x()[-1])


@_one_slot_memo
def _carried(data: DataSequence, score: LastPointScore, perms: PermutationSample) -> tuple[np.ndarray, np.ndarray]:
    """Per sampled row, the labeled score it carries into the test slot and
    whether it moved a labeled point there, read-only.  A row that keeps
    the test point in place carries the test point's own score, which
    depends on the label: its entry is NaN and never read."""
    _check_domain(data, perms)
    test_slot = data.n_slots - 1
    last = perms.matrix[:, -1]
    moved = last != test_slot
    carried = np.full(perms.m, math.nan)
    if test_slot:
        # every labeled point scored once, in slot order, then gathered per row
        labeled = score.of_points(data.full_x()[:test_slot], data.full_y()[:test_slot])
        carried[moved] = labeled[last[moved]]
    for a in (carried, moved):
        a.setflags(write=False)
    return carried, moved


def reference_mask(
    y: float,
    data: DataSequence,
    rule: SelectionRule,
    perms: PermutationSample,
    taxonomy: SelectionTaxonomy | None = None,
) -> np.ndarray:
    """Which sampled permutations preserve the selection event at ``y``.

    With a taxonomy, membership additionally requires the whole permuted
    selection trajectory to stay inside it.  The identity is not part of
    the sample and is accounted for separately by the p-value functions.
    Every row's arguments come from the label-free replay of ``data``,
    ``rule`` and ``perms`` (built once for those very objects), with ``y``
    written where a row holds the test label.  Without a taxonomy one
    ``rule.decide_rows`` call decides every row; with one, each row
    replays ``rule.decide_trajectory`` and ``taxonomy.mask`` keeps the
    stacked trajectories it admits.  A NaN label is a ``DomainError``;
    ±inf are labels below and above every other.
    """
    if math.isnan(y):
        raise DomainError("a candidate label must not be NaN")
    values, labels, cutoffs, n_offline, at_test = _replayed(data, rule, perms)
    labels = labels.copy()
    np.put(labels, at_test, y)
    if taxonomy is None:
        return rule.decide_rows(values, labels, cutoffs, n_offline)
    cut = [None] * perms.m if cutoffs is None else cutoffs
    traj = [rule.decide_trajectory(*row, n_offline) for row in zip(values, labels, cut)]
    return taxonomy.mask(np.array(traj, dtype=bool).reshape(perms.m, data.t))


def _scores_for(
    y: float,
    data: DataSequence,
    score: ConformityScore,
    perms: PermutationSample,
    mask: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Conformity score of the identity and of each permuted sequence of the
    rows ``mask`` keeps, but for a last-point score only of the rows that
    moved a labeled point into the test slot: the others score as the
    identity does."""
    if isinstance(score, LastPointScore):
        carried, moved = _carried(data, score, perms)
        return _test_point(data, score).of(y), carried[mask & moved]
    # order-sensitive score: materialize each permuted labeled sequence
    full_x = data.full_x()
    full_y = data.full_y()
    full_y = np.where(np.isnan(full_y), y, full_y)
    v0 = float(score.of_sequence(full_x, full_y))
    vals = np.array(
        [score.of_sequence(full_x[order], full_y[order]) for order in perms.matrix[mask]]
    )
    return v0, vals


def pemi_pvalue(
    y: float,
    data: DataSequence,
    rule: SelectionRule,
    score: ConformityScore,
    perms: PermutationSample,
    taxonomy: SelectionTaxonomy | None = None,
    u: float | None = None,
) -> SelectionPValue:
    """Selection-calibrated p-value for candidate ``y``.

    Deterministic by default: the identity and every reference member
    scoring at least as high count as exceedances.  With a tie-break
    uniform ``u`` it is randomized: strict exceedances plus ``u`` times
    the ties, the identity included.  One draw is shared by every
    candidate label of a time step; at ``u = 1`` the value coincides with
    the deterministic form.  Handles plain online sequences and
    sequences with an offline block alike: the permutations simply act on
    every slot the sequence has.  A NaN ``y`` is a ``DomainError``.
    """
    if u is not None and not 0 <= u <= 1:
        raise DomainError(f"tie-break uniform must be in [0,1], got {u}")
    mask = reference_mask(y, data, rule, perms, taxonomy)
    v0, vals = _scores_for(y, data, score, perms, mask)
    members = int(np.count_nonzero(mask))
    ref_size = 1 + members
    # the identity and the members ``vals`` leaves out (they kept the test point in place) score v0
    same = 1 + members - vals.shape[0]
    if u is None:
        exceed = same + int(np.count_nonzero(v0 <= vals))
        return SelectionPValue(value=exceed / ref_size, ref_size=ref_size, exceed_count=exceed)
    strict = int(np.count_nonzero(v0 < vals))
    ties = same + int(np.count_nonzero(v0 == vals))
    return SelectionPValue(
        value=(strict + u * ties) / ref_size,
        ref_size=ref_size,
        exceed_count=strict,
        tie_count=ties,
        u=u,
    )


def pemi_set_grid(
    grid: Sequence[float],
    data: DataSequence,
    rule: SelectionRule,
    score: ConformityScore,
    perms: PermutationSample,
    alpha: float,
    u: float | None = None,
    taxonomy: SelectionTaxonomy | None = None,
) -> np.ndarray:
    """Per-grid-point membership 1{p(y) > alpha}; a verification utility."""
    g = np.asarray(grid, dtype=float)
    if np.isnan(g).any() or np.any(np.diff(g) < 0):
        raise DomainError("grid must be sorted, with no NaN")
    out = np.zeros(g.shape[0], dtype=bool)
    for i, y in enumerate(g):
        out[i] = pemi_pvalue(float(y), data, rule, score, perms, taxonomy, u).exceeds(alpha)
    return out


# ---------------------------------------------------------------------------
# multiple test points
# ---------------------------------------------------------------------------


class MultiTestRule:
    """Selects a subset of test indices given calibration data.

    Subclasses set ``covariate_only`` when the decision never reads
    calibration labels and ``symmetric_in_calibration`` when it is
    invariant to reordering the calibration rows.
    """

    covariate_only: bool = False
    symmetric_in_calibration: bool = False

    def select(
        self, calib_x: np.ndarray, calib_y: np.ndarray, test_x: np.ndarray
    ) -> frozenset[int]:
        raise NotImplementedError


@dataclass(frozen=True)
class TopPredictionRule(MultiTestRule):
    """Pick the k test points with the highest predicted values."""

    mu: Callable[[np.ndarray], np.ndarray]
    k: int = 1

    covariate_only = True
    symmetric_in_calibration = True

    def select(self, calib_x, calib_y, test_x) -> frozenset[int]:
        preds = np.asarray(self.mu(test_x), dtype=float)
        order = np.argsort(-preds, kind="stable")
        return frozenset(int(i) for i in order[: self.k])


class _TestSlotRule(SelectionRule):
    """A multi-test rule seen from test index ``j``: the final slot stands in
    for test row ``j``, the prefix for the calibration points, and the other
    test rows stay fixed."""

    def __init__(self, rule: MultiTestRule, j: int, test_x: np.ndarray) -> None:
        self.rule, self.j, self.test_x = rule, j, test_x
        self.covariate_only = rule.covariate_only

    def decide(self, values: np.ndarray, labels: np.ndarray, cutoffs, n_offline: int) -> bool:
        test_x = self.test_x.copy()
        test_x[self.j] = values[-1]
        return self.j in self.rule.select(values[:-1], labels, test_x)


@_one_slot_memo
def _single_test(data: MultiTestData, j: int, rule: MultiTestRule) -> tuple[DataSequence, SelectionRule]:
    """Test index ``j`` as a single-test problem: the calibration points are
    the labeled history and test point ``j`` the test slot.  Built once per
    identity of its arguments, so a label grid replays one sequence and rule."""
    if not 0 <= j < data.m:
        raise DomainError(f"test index {j} outside 0..{data.m - 1}")
    seq = DataSequence(x=data.calib_x, y=data.calib_y, test_x=data.test_x[j])
    return seq, _TestSlotRule(rule, j, data.test_x)


def multi_test_pvalue(
    y: float,
    data: MultiTestData,
    j: int,
    rule: MultiTestRule,
    score: LastPointScore,
    perms: PermutationSample,
    require_selected: bool = True,
) -> SelectionPValue:
    """Selection-calibrated p-value for selected test index ``j``.

    Permutations act on the calibration points plus test point ``j``; the
    other test covariates are held fixed.  Precondition: ``j`` is in the
    observed selection (checked unless ``require_selected=False``).
    """
    seq, single = _single_test(data, j, rule)
    if require_selected and j not in rule.select(data.calib_x, data.calib_y, data.test_x):
        raise PreconditionError(f"test index {j} was not selected on the observed data")
    return pemi_pvalue(y, seq, single, score, perms)
