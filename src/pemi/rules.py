"""Online selection rules: who gets a prediction set, and when.

A rule reads each point through one value, ``point_values(X, cutoffs)``:
a model output that depends on that point alone (the covariates
themselves by default).  ``decide`` is the readable reference decision on
slot-ordered values plus the labels and cutoffs of the labeled prefix.
``replay(data, order)`` is the one step from a ``DataSequence`` to those
arguments: it checks what the rule needs, computes the values once and
gives the arguments with the slots in ``order`` (observed by default),
the test label NaN wherever it lands.  ``select`` and ``trajectory``, the
generic engine (all permuted rows at once, through ``decide_rows``, each
candidate label written where the rows hold the test label) and the
closed forms' front end all use it.  A covariate rule
(``covariate_only``: the decision never reads labels) decides from the
values alone: ``select_values`` is its reference, and one batched kernel
over an ``(R, T)`` array of permuted values serves the closed forms in
``pemi.fast``, which pick their construction by rule type.
A cutoff rule reads each label only through its side of its cutoff:
``CutoffRule.selects_last`` on side indicators is both its reference and
its batched kernel, and so is ``EarlierOutcomeRule.decide_rows``.  Every
weighted statistic accumulates through one ``_weighted_sum``, so a row
decides alike on its own and inside a batch; with unit weights it counts
the indicators instead of multiplying them by 1.0.

Rules are immutable and pure; evaluation on permuted sequences happens by
indexing the permuted order, never by mutating state.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .scores import ModelFn
from .thresholds import ThresholdEngine, _gamma_array, _lond_levels, default_gamma
from .types import DataSequence

__all__ = [
    "SelectionRule",
    "CovariateRule",
    "CutoffRule",
    "CutoffScoreFromModel",
    "AlwaysSelectRule",
    "NeverSelectRule",
    "DecisionDrivenRule",
    "WeightedPredictionRule",
    "UncertaintyBudgetRule",
    "ConformalPValueRule",
    "ELondRule",
    "EarlierOutcomeRule",
    "SelectionTaxonomy",
    "recency_weights",
    "weighted_pvalue_history",
]


@functools.lru_cache(maxsize=256)
def recency_weights(n: int, decay: float | None) -> np.ndarray:
    """Slot weights w_1..w_n; geometric decay gives w_i = decay^(n-i).

    Equal weights when ``decay`` is None.  Only weight ratios ever matter
    downstream, so anchoring the geometric profile at the last slot keeps
    magnitudes bounded.  The result is read-only and shared between calls
    with equal ``(n, decay)``.
    """
    _check_decay(decay)
    w = np.ones(n) if decay is None else decay ** np.arange(n - 1, -1, -1, dtype=float)
    w.setflags(write=False)
    return w


def _check_decay(decay: float | None) -> None:
    """The one check of a recency decay, made where a rule is built and where weights are."""
    if decay is not None and not decay > 0:
        raise ConfigurationError(f"decay must be positive, got {decay}")


@functools.lru_cache(maxsize=256)
def _weights_and_total(n: int, decay: float | None) -> tuple[np.ndarray | None, float]:
    """``recency_weights`` and their sum, for references replayed once per
    permuted row; unit weights (``decay`` None) are ``None`` with total ``n``."""
    if decay is None:
        return None, float(n)
    w = recency_weights(n, decay)
    return w, w.sum()


def _weighted_sum(x: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """The one accumulation of every weighted statistic along the last axis:
    a row gives the same float on its own as inside a batch (``w @ x`` and
    ``x @ w`` do not).  Unit weights (``w`` None) are summed without the
    product, as ``x * 1.0`` is ``x``: indicators are counted."""
    return x.sum(axis=-1) if w is None else (x * w).sum(axis=-1)


class SelectionRule(abc.ABC):
    """Deterministic map from an ordered sequence to a select/skip bit.

    Class constants state what a rule family needs: ``covariate_only``
    (the decision never reads labels), ``needs_cutoffs`` (every point
    carries a cutoff), ``needs_offline`` (a non-empty offline block) and
    ``online_only`` (no offline block).  ``decide_rows`` runs ``decide``
    on each row of a batch; a rule whose one kernel is its reference
    (``CutoffRule``, ``EarlierOutcomeRule``) overrides it.

    A rule is an immutable value, and ``point_values`` reads no label: the
    engine builds a replay's values, gathered rows and cutoffs once per
    identity of the sequence, rule and sample, and only the test label
    changes between candidate labels.
    """

    covariate_only: ClassVar[bool] = False
    needs_cutoffs: ClassVar[bool] = False
    needs_offline: ClassVar[bool] = False
    online_only: ClassVar[bool] = False

    def point_values(self, X: np.ndarray, cutoffs: np.ndarray | None = None) -> np.ndarray:
        """One entry per covariate row, depending on that row (and its cutoff) alone."""
        return X

    @abc.abstractmethod
    def decide(self, values: np.ndarray, labels: np.ndarray, cutoffs, n_offline: int) -> bool:
        """Reference decision on slot-ordered values (test slot last) and the labeled slots' labels and cutoffs."""

    def decide_rows(self, values: np.ndarray, labels: np.ndarray, cutoffs, n_offline: int) -> np.ndarray:
        """(R,) bools, ``decide`` on each row of (R, n) slot-ordered arrays; an override gives the same bits."""
        cut = [None] * values.shape[0] if cutoffs is None else cutoffs
        return np.array([self.decide(*row, n_offline) for row in zip(values, labels, cut)], dtype=bool)

    def decide_trajectory(self, values, labels, cutoffs, n_offline: int) -> tuple[int, ...]:
        """``decide`` on every online prefix of the same slot-ordered arrays."""
        return tuple(
            int(self.decide(values[: k + 1], labels[:k], None if cutoffs is None else cutoffs[:k], n_offline))
            for k in range(n_offline, values.shape[0])
        )

    def replay(self, data: DataSequence, order: np.ndarray | None = None) -> tuple:
        """The arguments of ``decide`` for ``data`` with its slots in ``order``,
        after checking that the rule can run on ``data``.

        ``order`` is an int64 permutation (unchecked), or ``None`` for the
        observed order, which indexes nothing; an (R, n) matrix of orders
        gives the row-stacked arguments of ``decide_rows``.  The point values
        are evaluated once, and a point's value depends on that point alone,
        so reordering only indexes the slot-order values, labels and
        cutoffs.  No label is imputed: the test label stays NaN, as
        ``full_y`` holds it, wherever ``order`` puts it.  A NaN point value
        is a ``DomainError``; ±inf are values like any other (a cutoff
        score at an infinite cutoff).
        """
        cut = data.full_cutoffs()
        n_offline = data.n_offline
        if self.needs_cutoffs and cut is None:
            raise ConfigurationError("this rule needs per-point cutoffs on the sequence")
        if self.needs_offline and not n_offline:
            raise ConfigurationError("this rule needs a non-empty offline block")
        if self.online_only and n_offline:
            raise ConfigurationError("this rule runs on online slots only")
        values = self.point_values(data.full_x(), cut)
        if np.isnan(values).any():
            raise DomainError("a point value of the selection rule (its model output) is NaN")
        labels = data.full_y()
        if order is None:
            return values, labels[:-1], None if cut is None else cut[:-1], n_offline
        # whole rows gather faster than the strided heads ``order[..., :-1]``
        return values[order], labels[order][..., :-1], None if cut is None else cut[order][..., :-1], n_offline

    def select(self, data: DataSequence) -> bool:
        """``decide`` on ``data`` in its observed order."""
        return bool(self.decide(*self.replay(data)))

    def trajectory(self, data: DataSequence) -> tuple[int, ...]:
        """Decisions at every online step of ``data`` in its observed order."""
        return self.decide_trajectory(*self.replay(data))


# ---------------------------------------------------------------------------
# covariate-only rules: decisions from one scalar per point
# ---------------------------------------------------------------------------


class CovariateRule(SelectionRule):
    """A rule that reads each point only through one covariate-based scalar.

    ``point_values`` maps covariate rows to those scalars (computed once
    per underlying point); ``select_values`` decides from the scalars in
    sequence order and is the reference.  Each subclass also overrides
    exactly one batched kernel, ``select_values_batch`` or
    ``trajectory_values_batch``; this class derives the other from it.
    """

    covariate_only: ClassVar[bool] = True

    @abc.abstractmethod
    def select_values(self, values: np.ndarray) -> bool:
        """Decision from per-slot scalars; the last entry is the test slot."""

    def decide(self, values: np.ndarray, labels: np.ndarray, cutoffs, n_offline: int) -> bool:
        return self.select_values(values)

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        """``select_values`` on every row of an (R, T) batch."""
        return self.trajectory_values_batch(values)[:, -1]

    def trajectory_values_batch(self, values: np.ndarray) -> np.ndarray:
        """(R, T) decisions; column j decides on the first j + 1 slots of each row."""
        return np.stack(
            [self.select_values_batch(values[:, : j + 1]) for j in range(values.shape[1])], axis=1
        )


@dataclass(frozen=True)
class AlwaysSelectRule(CovariateRule):
    """Select every point (no selection effect)."""

    def point_values(self, X: np.ndarray, cutoffs: np.ndarray | None = None) -> np.ndarray:
        return np.zeros(X.shape[0])

    def select_values(self, values: np.ndarray) -> bool:
        return True

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        return np.ones(values.shape[0], dtype=bool)


@dataclass(frozen=True)
class NeverSelectRule(CovariateRule):
    def point_values(self, X: np.ndarray, cutoffs: np.ndarray | None = None) -> np.ndarray:
        return np.zeros(X.shape[0])

    def select_values(self, values: np.ndarray) -> bool:
        return False

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        return np.zeros(values.shape[0], dtype=bool)


@dataclass(frozen=True)
class DecisionDrivenRule(CovariateRule):
    """Select when the prediction clears a bar that rises with past picks:
    s_j = 1{ mu(x_j) >= tau1 + (#past selections) / tau0 }."""

    tau0: float
    tau1: float
    mu: ModelFn

    def __post_init__(self) -> None:
        if self.tau0 <= 0:
            raise ConfigurationError(f"tau0 must be positive, got {self.tau0}")

    def point_values(self, X: np.ndarray, cutoffs: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(self.mu(X), dtype=float)

    def select_values(self, values: np.ndarray) -> bool:
        picked = 0
        for v in values.tolist():
            selected = v >= self.tau1 + picked / self.tau0
            picked += selected
        return selected

    def trajectory_values_batch(self, values: np.ndarray) -> np.ndarray:
        # bars[k] = tau1 + k / tau0 takes the scalar loop's operations, so an
        # integer pick count only indexes it; the walk runs over slot-major columns.
        cols = np.ascontiguousarray(values.T)
        bars = self.tau1 + np.arange(cols.shape[0]) / self.tau0
        out = np.empty(cols.shape, dtype=bool)
        picked = np.zeros(cols.shape[1], dtype=np.intp)
        for j in range(cols.shape[0]):
            np.greater_equal(cols[j], bars[picked], out=out[j])
            picked += out[j]
        return out.T


@dataclass(frozen=True)
class WeightedPredictionRule(CovariateRule):
    """Select when the prediction beats a weighted summary of past ones.

    quantile mode: mu_t > weighted q-th upper quantile of past predictions
    (strict), evaluated exactly as sum_i w_i 1{mu_i < mu_t} >= (1-q) W.
    average mode: mu_t > weighted average of past predictions (strict).
    """

    mu: ModelFn
    mode: str = "quantile"
    q_sel: float = 0.1
    decay: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("quantile", "average"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.mode == "quantile" and not 0 < self.q_sel < 1:
            raise ConfigurationError(f"q_sel must be in (0,1), got {self.q_sel}")
        _check_decay(self.decay)

    def point_values(self, X: np.ndarray, cutoffs: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(self.mu(X), dtype=float)

    def select_values(self, values: np.ndarray) -> bool:
        past, v_t = values[:-1], values[-1]
        if past.shape[0] == 0:
            return False
        w, total = _weights_and_total(past.shape[0], self.decay)
        if self.mode == "average":
            return bool(v_t > _weighted_sum(past, w) / total)
        return bool(_weighted_sum(past < v_t, w) >= (1 - self.q_sel) * total)

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        past, v_t = values[:, :-1], values[:, -1:]
        if past.shape[1] == 0:
            return np.zeros(values.shape[0], dtype=bool)
        w, total = _weights_and_total(past.shape[1], self.decay)
        if self.mode == "average":
            return _weighted_sum(past, w) / total < v_t[:, 0]
        return _weighted_sum(past < v_t, w) >= (1 - self.q_sel) * total


@dataclass(frozen=True)
class UncertaintyBudgetRule(CovariateRule):
    """Select high model-disagreement points under a throughput budget.

    Each point's scalar is the variance of the member-model predictions.
    The admission threshold maximizes the admitted past variance subject
    to admitting at most a ``gamma`` fraction of past points; with
    non-negative variances this is the smallest threshold whose admitted
    count fits the budget.
    """

    models: tuple[ModelFn, ...]
    gamma: float

    def __post_init__(self) -> None:
        if not 0 < self.gamma <= 1:
            raise ConfigurationError(f"gamma must be in (0,1], got {self.gamma}")
        if len(self.models) < 2:
            raise ConfigurationError("need at least two models to measure disagreement")

    def point_values(self, X: np.ndarray, cutoffs: np.ndarray | None = None) -> np.ndarray:
        preds = np.stack([np.asarray(m(X), dtype=float) for m in self.models])
        return preds.var(axis=0)

    @staticmethod
    def _threshold(past: np.ndarray, budget: float) -> float:
        """Smallest past value tau with #{past >= tau} <= budget; +inf if none fits."""
        return min((v for v in past.tolist() if np.count_nonzero(past >= v) <= budget), default=math.inf)

    def select_values(self, values: np.ndarray) -> bool:
        past, v_t = values[:-1], float(values[-1])
        budget = self.gamma * past.shape[0]
        return v_t >= self._threshold(past, budget)

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        # With k = floor(budget), a past value d is an admissible threshold
        # iff it exceeds the (k+1)-th largest past value (any d when k covers
        # the whole past), and v_t clears the smallest admissible d iff some
        # admissible d lies at or below v_t.
        past, v_t = values[:, :-1], values[:, -1:]
        n_past = past.shape[1]
        if n_past == 0:
            return np.zeros(values.shape[0], dtype=bool)
        k = math.floor(self.gamma * n_past)
        if k >= n_past:
            return v_t[:, 0] >= past.min(axis=1)
        kth_largest = np.sort(past, axis=1)[:, n_past - 1 - k : n_past - k]
        return np.any((past > kth_largest) & (past <= v_t), axis=1)


# ---------------------------------------------------------------------------
# cutoff-based (conformal testing) rules
# ---------------------------------------------------------------------------


def weighted_pvalue_history(
    fhat: np.ndarray, indicators: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Running weighted clipped conformal p-values along the last axis.

    p_j = (w_j + sum_{i<j} w_i * ind_i * 1{fhat_i >= fhat_j}) / sum_{i<=j} w_i.
    ``indicators`` holds 1{y_i <= c_i} per slot; the slot whose label is
    hypothetical carries the caller's imputed bit.  Works on (T,) vectors
    and (R, T) batches alike.
    """
    f, wi, w, denom = _pvalue_operands(fhat, indicators, weights)
    out = np.empty_like(f)
    for j in range(f.shape[-1]):
        out[..., j] = _pvalue_column(f, wi, w, denom, j)
    return out


def _pvalue_operands(
    fhat: np.ndarray, indicators: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    f = np.asarray(fhat, dtype=float)
    ind = np.asarray(indicators, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != (f.shape[-1],):
        raise DomainError("need one weight per slot")
    denom = np.cumsum(w)
    if denom[-1] <= 0:
        raise DomainError("total weight must be positive")
    return f, w * ind, w, denom


def _pvalue_column(
    f: np.ndarray, wi: np.ndarray, w: np.ndarray, denom: np.ndarray, j: int
) -> np.ndarray:
    """Column ``j`` of ``weighted_pvalue_history``; the one place its p-value is computed."""
    if j == 0:
        num = w[0] * np.ones(f.shape[:-1])
    else:
        exceed = f[..., :j] >= f[..., j : j + 1]
        num = w[j] + np.sum(wi[..., :j] * exceed, axis=-1)
    return num / denom[j]


@dataclass(frozen=True)
class CutoffScoreFromModel:
    """F(x, c) = mu(x) - c, the canonical monotone cutoff score."""

    mu: ModelFn

    def __call__(self, X: np.ndarray, c: np.ndarray) -> np.ndarray:
        return np.asarray(self.mu(X), dtype=float) - np.asarray(c, dtype=float)


class CutoffRule(SelectionRule):
    """A rule that reads each label only through its side of its own cutoff.

    ``point_values`` is the cutoff score ``f_score(X, cutoffs)``.  ``decide``
    turns the labeled slots into side indicators ``labels <= cutoffs``
    (the test slot carries 0, which no decision reads) and hands them to
    ``selects_last``, the one kernel for an ``(n,)`` history or every row of
    an ``(R, n)`` batch; ``decide_rows`` hands it the whole batch in one
    call, and the two-sided closed form calls it with the test point's
    indicator fixed to either side.
    """

    needs_cutoffs: ClassVar[bool] = True

    def point_values(self, X: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
        return np.asarray(self.f_score(X, cutoffs), dtype=float)

    @abc.abstractmethod
    def selects_last(self, fhat: np.ndarray, indicators: np.ndarray, n_offline: int) -> np.ndarray:
        """Whether the last slot is selected, on one (n,) history or on every row of an (R, n) batch."""

    def decide(self, values: np.ndarray, labels: np.ndarray, cutoffs, n_offline: int) -> bool:
        return bool(self.selects_last(values, _sides(labels, cutoffs), n_offline))

    def decide_rows(self, values: np.ndarray, labels: np.ndarray, cutoffs, n_offline: int) -> np.ndarray:
        return self.selects_last(values, _sides(labels, cutoffs), n_offline)


def _sides(labels: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Side indicators of the labeled slots followed by a 0 for the test slot, along the last axis."""
    indicators = np.zeros(labels.shape[:-1] + (labels.shape[-1] + 1,))
    indicators[..., :-1] = labels <= cutoffs
    return indicators


@dataclass(frozen=True)
class ConformalPValueRule(CutoffRule):
    """Select when the weighted clipped conformal p-value clears the
    (fixed or adaptive) per-step testing level."""

    f_score: Callable[[np.ndarray, np.ndarray], np.ndarray]
    engine: ThresholdEngine
    decay: float | None = None

    online_only: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _check_decay(self.decay)

    def selects_last(self, fhat: np.ndarray, indicators: np.ndarray, n_offline: int) -> np.ndarray:
        """When the engine's last level does not read the earlier p-values,
        only the last p-value is computed."""
        T = fhat.shape[-1]
        weights = recency_weights(T, self.decay)
        level = self.engine.history_free_level(T)
        if level is not None:
            return _pvalue_column(*_pvalue_operands(fhat, indicators, weights), T - 1) <= level
        p = weighted_pvalue_history(fhat, indicators, weights)
        return p[..., -1] <= self.engine.alphas(p)[..., -1]


_COUNT_BLOCK = 4096  # entries of e-LOND's count temporary


@dataclass(frozen=True)
class ELondRule(CutoffRule):
    """Select by thresholding conformal e-values with discovery-scaled
    levels, calibrating the underlying p-values against an offline block.

    For online step j, two leave-one-out p-values count the offline
    points whose cutoff score exceeds the step's and whose label clears
    its own cutoff; discovery-count replays on the two streams set the
    levels that define the e-value, and the selection level at step t is
    ``alpha * gamma_t * (selections so far + 1)``.
    """

    f_score: Callable[[np.ndarray, np.ndarray], np.ndarray]
    alpha: float
    gamma: Callable[[int], float] = default_gamma

    needs_offline: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must be in (0,1), got {self.alpha}")

    def selects_last(self, fhat: np.ndarray, indicators: np.ndarray, n_offline: int) -> np.ndarray:
        return self._profile(fhat, indicators, n_offline)[..., -1]

    def decide_trajectory(self, values, labels, cutoffs, n_offline: int) -> tuple[int, ...]:
        return tuple(self._profile(values, _sides(labels, cutoffs), n_offline).astype(int).tolist())

    def _profile(self, fhat: np.ndarray, indicators: np.ndarray, n_offline: int) -> np.ndarray:
        """Selections at every online slot.  Step j counts the offline slots
        whose label clears its cutoff and whose score reaches step j's.  The
        steps are compared in blocks whose (rows, steps, offline slots)
        temporary stays within ``_COUNT_BLOCK`` entries: a single history
        mostly fits one block, a batch of permuted rows goes step by step.
        The counts are integers, so every block size gives the same bits."""
        f_off, i_off = fhat[..., None, :n_offline], indicators[..., None, :n_offline]
        f_on = fhat[..., n_offline:, None]
        counts = np.empty(f_on.shape[:-1])
        step = max(1, _COUNT_BLOCK // max(f_off.size, 1))
        for j in range(0, counts.shape[-1], step):
            counts[..., j : j + step] = (i_off * (f_off >= f_on[..., j : j + step, :])).sum(axis=-1)
        p_minus, p_plus = counts / (n_offline + 1), (counts + 1) / (n_offline + 1)
        return elond_selection_profile(p_minus, p_plus, self.alpha, self.gamma)


def elond_selection_profile(
    p_minus: np.ndarray,
    p_plus: np.ndarray,
    alpha: float,
    gamma: Callable[[int], float],
) -> np.ndarray:
    """Selections of the e-value procedure given both leave-one-out streams,
    along the last axis of (T,) vectors or (R, T) batches alike.  Step i's
    e-value is ``1{p_plus_i <= level_plus_i} / level_minus_i``, each level
    from LOND's replay ``_lond_levels`` on its stream; step i is selected when
    it reaches ``1 / (alpha * gamma_i * (selections before i + 1))``."""
    pm, pp = np.asarray(p_minus, dtype=float), np.asarray(p_plus, dtype=float)
    g = _gamma_array(gamma, pm.shape[-1])
    lvl_minus, lvl_plus = _lond_levels(pm, alpha, g), _lond_levels(pp, alpha, g)
    evalue = (pp <= lvl_plus) / lvl_minus
    picked = np.zeros(pm.shape[:-1], dtype=np.int64)
    out = np.empty(pm.shape, dtype=bool)
    for i in range(pm.shape[-1]):
        out[..., i] = evalue[..., i] >= 1.0 / (alpha * g[i] * (picked + 1))
        picked += out[..., i]
    return out


@dataclass(frozen=True)
class EarlierOutcomeRule(SelectionRule):
    """Select when the prediction reaches the weighted upper quantile of
    the earlier labels: mu(x_t) >= wQ(1 - beta_sel; {y_i}), evaluated
    exactly as sum_i w_i 1{y_i > mu_t} <= beta_sel * W (vacuous with no
    earlier label).  ``decide_rows`` is the one kernel, on one history or
    every row of a batch, and ``decide`` is that kernel on one row."""

    mu: ModelFn
    beta_sel: float
    decay: float | None = None

    online_only: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not 0 < self.beta_sel < 1:
            raise ConfigurationError(f"beta_sel must be in (0,1), got {self.beta_sel}")
        _check_decay(self.decay)

    def point_values(self, X: np.ndarray, cutoffs: np.ndarray | None = None) -> np.ndarray:
        return np.asarray(self.mu(X), dtype=float)

    def decide(self, values: np.ndarray, labels: np.ndarray, cutoffs, n_offline: int) -> bool:
        return bool(self.decide_rows(values, labels, cutoffs, n_offline))

    def decide_rows(self, values: np.ndarray, labels: np.ndarray, cutoffs, n_offline: int) -> np.ndarray:
        w, total = _weights_and_total(labels.shape[-1], self.decay)
        return _weighted_sum(labels > values[..., -1:], w) <= self.beta_sel * total


# ---------------------------------------------------------------------------
# taxonomies over selection trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionTaxonomy:
    """A pre-specified family of admissible selection trajectories.

    Pinning the whole observed trajectory (the singleton taxonomy) upgrades
    per-step conditional coverage to sequence-level error-rate control
    whenever later selection decisions are independent of the current
    set's coverage given the trajectory so far.  That holds by
    construction for decision-driven rules (the decisions are a function
    of the trajectory and covariates) and is not checkable mechanically
    for arbitrary rules.
    """

    trajectories: frozenset[tuple[int, ...]] | None = None
    predicate: Callable[[tuple[int, ...]], bool] | None = None

    def mask(self, traj: np.ndarray) -> np.ndarray:
        """Which rows of an ``(R, n)`` batch of online trajectories select
        their last step and lie in the taxonomy: every row is compared at
        once with the member trajectories of length ``n``, or the predicate
        is called once per row."""
        traj = np.asarray(traj)
        if self.trajectories is not None:
            n = traj.shape[1]
            members = np.array([m for m in self.trajectories if len(m) == n], dtype=int).reshape(-1, n)
            inside = np.any(np.all(traj[:, None, :] == members, axis=2), axis=1)
        elif self.predicate is not None:
            inside = np.array([bool(self.predicate(tuple(int(v) for v in row))) for row in traj], dtype=bool)
        else:
            inside = np.ones(traj.shape[0], dtype=bool)
        return (traj[:, -1] == 1) & inside

    @staticmethod
    def singleton(trajectory: Sequence[int]) -> "SelectionTaxonomy":
        return SelectionTaxonomy(trajectories=frozenset({tuple(int(v) for v in trajectory)}))
