"""Online selection rules: who gets a prediction set, and when.

A rule maps an ordered sequence (labeled prefix plus final-slot
covariates) to a binary decision.  ``select`` is the readable reference
that the generic engine and the oracle replay one permutation at a time.
A covariate rule (``covariate_only``: the decision never reads labels)
decides from one scalar per point: ``select_values`` is its reference
decision, and one batched kernel over an ``(R, T)`` array of permuted
scalars serves the closed forms in ``pemi.fast``, which pick their
construction by rule type.

Rules are immutable and pure; evaluation on permuted sequences happens by
materializing the permuted order, never by mutating state.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError
from .scores import ModelFn
from .thresholds import ThresholdEngine, default_gamma
from .types import OrderedSequence

__all__ = [
    "SelectionRule",
    "CovariateRule",
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
    "prediction_minus_cutoff",
]


def recency_weights(
    n: int, decay: float | None, weight_fn: Callable[[int, int], float] | None = None
) -> np.ndarray:
    """Slot weights w_1..w_n; geometric decay gives w_i = decay^(n-i).

    Equal weights when both parameters are None.  Only weight ratios ever
    matter downstream, so anchoring the geometric profile at the last slot
    keeps magnitudes bounded.
    """
    if weight_fn is not None:
        w = np.array([weight_fn(i, n) for i in range(1, n + 1)], dtype=float)
    elif decay is None:
        w = np.ones(n)
    else:
        if decay <= 0:
            raise ConfigurationError(f"decay must be positive, got {decay}")
        w = decay ** np.arange(n - 1, -1, -1, dtype=float)
    if np.any(w < 0):
        raise ConfigurationError("weights must be non-negative")
    return w


class SelectionRule(abc.ABC):
    """Deterministic map from an ordered sequence to a select/skip bit."""

    covariate_only: ClassVar[bool] = False

    @abc.abstractmethod
    def select(self, seq: OrderedSequence) -> bool: ...

    def trajectory(self, seq: OrderedSequence) -> tuple[int, ...]:
        """Decisions on every online prefix of ``seq`` (length-i prefixes)."""
        return tuple(int(self.select(seq.prefix(i))) for i in range(1, seq.online_length + 1))


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
    def point_values(self, X: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def select_values(self, values: np.ndarray) -> bool:
        """Decision from per-slot scalars; the last entry is the test slot."""

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        """``select_values`` on every row of an (R, T) batch."""
        return self.trajectory_values_batch(values)[:, -1]

    def trajectory_values_batch(self, values: np.ndarray) -> np.ndarray:
        """(R, T) decisions; column j decides on the first j + 1 slots of each row."""
        return np.stack(
            [self.select_values_batch(values[:, : j + 1]) for j in range(values.shape[1])], axis=1
        )

    def select(self, seq: OrderedSequence) -> bool:
        stacked = np.concatenate([seq.prefix_x, seq.final_x.reshape(1, -1)], axis=0)
        return bool(self.select_values(self.point_values(stacked)))


@dataclass(frozen=True)
class AlwaysSelectRule(CovariateRule):
    """Select every point (no selection effect)."""

    def point_values(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(X.shape[0])

    def select_values(self, values: np.ndarray) -> bool:
        return True

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        return np.ones(values.shape[0], dtype=bool)


@dataclass(frozen=True)
class NeverSelectRule(CovariateRule):
    def point_values(self, X: np.ndarray) -> np.ndarray:
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

    def point_values(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.mu(X), dtype=float)

    def select_values(self, values: np.ndarray) -> bool:
        picked = 0
        for v in values.tolist():
            selected = v >= self.tau1 + picked / self.tau0
            picked += selected
        return selected

    def trajectory_values_batch(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(values.shape, dtype=bool)
        picked = np.zeros(values.shape[0])
        for j in range(values.shape[1]):
            out[:, j] = values[:, j] >= self.tau1 + picked / self.tau0
            picked += out[:, j]
        return out


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
    weight_fn: Callable[[int, int], float] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("quantile", "average"):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.mode == "quantile" and not 0 < self.q_sel < 1:
            raise ConfigurationError(f"q_sel must be in (0,1), got {self.q_sel}")

    def point_values(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.mu(X), dtype=float)

    def _weights(self, n_past: int) -> np.ndarray:
        return recency_weights(n_past, self.decay, self.weight_fn)

    def select_values(self, values: np.ndarray) -> bool:
        past, v_t = values[:-1], values[-1]
        if past.shape[0] == 0:
            return False
        w = self._weights(past.shape[0])
        total = w.sum()
        if total <= 0:
            raise ConfigurationError("past weights sum to zero")
        if self.mode == "average":
            return bool(v_t > float(w @ past) / total)
        return bool(float(w @ (past < v_t)) >= (1 - self.q_sel) * total)

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        past, v_t = values[:, :-1], values[:, -1:]
        if past.shape[1] == 0:
            return np.zeros(values.shape[0], dtype=bool)
        w = self._weights(past.shape[1])
        total = w.sum()
        if total <= 0:
            raise ConfigurationError("past weights sum to zero")
        if self.mode == "average":
            return (past @ w) / total < v_t[:, 0]
        return (past < v_t) @ w >= (1 - self.q_sel) * total


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

    def point_values(self, X: np.ndarray) -> np.ndarray:
        preds = np.stack([np.asarray(m(X), dtype=float) for m in self.models])
        return preds.var(axis=0)

    @staticmethod
    def _threshold(past: np.ndarray, budget: float) -> float:
        """Smallest value tau with #{past >= tau} <= budget; +inf if none fits."""
        if past.shape[0] == 0:
            return math.inf
        desc = np.sort(past)[::-1]
        uniq, start = np.unique(-desc, return_index=True)
        # counts of >= each distinct value, descending value order
        values = -uniq
        cum_counts = np.array(
            [start[i + 1] if i + 1 < len(start) else desc.shape[0] for i in range(len(start))]
        )
        feasible = cum_counts <= budget
        if not feasible.any():
            return math.inf
        return float(values[np.nonzero(feasible)[0][-1]])

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


def prediction_minus_cutoff(mu: ModelFn) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The canonical cutoff score F(x, c) = mu(x) - c (non-increasing in c)."""
    def f(X: np.ndarray, c: np.ndarray) -> np.ndarray:
        return np.asarray(mu(X), dtype=float) - np.asarray(c, dtype=float)
    return f


def weighted_pvalue_history(
    fhat: np.ndarray, indicators: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Running weighted clipped conformal p-values along the last axis.

    p_j = (w_j + sum_{i<j} w_i * ind_i * 1{fhat_i >= fhat_j}) / sum_{i<=j} w_i.
    ``indicators`` holds 1{y_i <= c_i} per slot; the slot whose label is
    hypothetical carries the caller's imputed bit.  Works on (T,) vectors
    and (R, T) batches alike.
    """
    f = np.asarray(fhat, dtype=float)
    ind = np.asarray(indicators, dtype=float)
    w = np.asarray(weights, dtype=float)
    T = f.shape[-1]
    if w.shape != (T,):
        raise DomainError("need one weight per slot")
    denom = np.cumsum(w)
    if denom[-1] <= 0:
        raise DomainError("total weight must be positive")
    out = np.empty_like(f)
    wi = w * ind
    for j in range(T):
        if j == 0:
            num = w[0] * np.ones(f.shape[:-1])
        else:
            exceed = f[..., :j] >= f[..., j : j + 1]
            num = w[j] + np.sum(wi[..., :j] * exceed, axis=-1)
        out[..., j] = num / denom[j]
    return out


def _sequence_fhat_indicators(
    seq: OrderedSequence, f_score
) -> tuple[np.ndarray, np.ndarray]:
    if seq.prefix_cutoffs is None or seq.final_cutoff is None:
        raise ConfigurationError("this rule needs per-point cutoffs on the sequence")
    X = np.concatenate([seq.prefix_x, seq.final_x.reshape(1, -1)], axis=0)
    c = np.concatenate([seq.prefix_cutoffs, [seq.final_cutoff]])
    fhat = np.asarray(f_score(X, c), dtype=float)
    ind = np.zeros(X.shape[0])
    ind[:-1] = seq.prefix_y <= seq.prefix_cutoffs
    return fhat, ind


@dataclass(frozen=True)
class ConformalPValueRule(SelectionRule):
    """Select when the weighted clipped conformal p-value clears the
    (fixed or adaptive) per-step testing level."""

    f_score: Callable[[np.ndarray, np.ndarray], np.ndarray]
    engine: ThresholdEngine
    decay: float | None = None
    weight_fn: Callable[[int, int], float] | None = None

    def weights(self, n: int) -> np.ndarray:
        return recency_weights(n, self.decay, self.weight_fn)

    def pvalue_history(self, seq: OrderedSequence) -> np.ndarray:
        fhat, ind = _sequence_fhat_indicators(seq, self.f_score)
        return weighted_pvalue_history(fhat, ind, self.weights(fhat.shape[0]))

    def select(self, seq: OrderedSequence) -> bool:
        if seq.n_offline:
            raise ConfigurationError("p-value thresholding runs on online slots only")
        p = self.pvalue_history(seq)
        return bool(p[-1] <= self.engine.alphas(p)[-1])

    def trajectory(self, seq: OrderedSequence) -> tuple[int, ...]:
        p = self.pvalue_history(seq)
        return tuple(int(v) for v in (p <= self.engine.alphas(p)))


@dataclass(frozen=True)
class ELondRule(SelectionRule):
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
    randomize_u: tuple[float, ...] | None = None

    def _streams(self, seq: OrderedSequence) -> tuple[np.ndarray, np.ndarray]:
        if seq.n_offline < 1:
            raise ConfigurationError("this rule needs a non-empty offline block")
        fhat, ind = _sequence_fhat_indicators(seq, self.f_score)
        n_off = seq.n_offline
        f_off, ind_off = fhat[:n_off], ind[:n_off]
        f_on = fhat[n_off:]
        counts = (ind_off[None, :] * (f_off[None, :] >= f_on[:, None])).sum(axis=1)
        p_minus = counts / (n_off + 1)
        p_plus = (counts + 1) / (n_off + 1)
        return p_minus, p_plus

    def selections(self, seq: OrderedSequence) -> np.ndarray:
        p_minus, p_plus = self._streams(seq)
        return elond_selection_profile(
            p_minus, p_plus, self.alpha, self.gamma, self.randomize_u
        )

    def select(self, seq: OrderedSequence) -> bool:
        return bool(self.selections(seq)[-1])

    def trajectory(self, seq: OrderedSequence) -> tuple[int, ...]:
        return tuple(int(v) for v in self.selections(seq))


def elond_selection_profile(
    p_minus: np.ndarray,
    p_plus: np.ndarray,
    alpha: float,
    gamma: Callable[[int], float],
    randomize_u: tuple[float, ...] | None = None,
) -> np.ndarray:
    """Selections of the e-value procedure given both leave-one-out streams.

    Supports (T,) vectors and (R, T) batches.  Step i's e-value is
    ``1{p_plus_i <= level_plus_i} / level_minus_i`` where the two levels
    come from discovery-count replays on the respective streams over
    steps < i.
    """
    pm = np.atleast_2d(np.asarray(p_minus, dtype=float))
    pp = np.atleast_2d(np.asarray(p_plus, dtype=float))
    R, T = pm.shape
    g = np.array([gamma(i) for i in range(1, T + 1)])
    rej_minus = np.zeros(R, dtype=np.int64)
    rej_plus = np.zeros(R, dtype=np.int64)
    picked = np.zeros(R, dtype=np.int64)
    out = np.zeros((R, T), dtype=bool)
    for i in range(T):
        lvl_minus = alpha * g[i] * (rej_minus + 1)
        lvl_plus = alpha * g[i] * (rej_plus + 1)
        evalue = (pp[:, i] <= lvl_plus) / lvl_minus
        bar = 1.0 / (alpha * g[i] * (picked + 1))
        if randomize_u is not None:
            bar = bar * randomize_u[i]
        out[:, i] = evalue >= bar
        picked += out[:, i]
        rej_minus += pm[:, i] <= lvl_minus
        rej_plus += pp[:, i] <= lvl_plus
    return out[0] if np.asarray(p_minus).ndim == 1 else out


@dataclass(frozen=True)
class EarlierOutcomeRule(SelectionRule):
    """Select when the prediction reaches the weighted upper quantile of
    the earlier labels: mu(x_t) >= wQ(1 - beta_sel; {y_i}), evaluated
    exactly as sum_i w_i 1{y_i > mu_t} <= beta_sel * W."""

    mu: ModelFn
    beta_sel: float
    decay: float | None = None
    weight_fn: Callable[[int, int], float] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.beta_sel < 1:
            raise ConfigurationError(f"beta_sel must be in (0,1), got {self.beta_sel}")

    def weights(self, n_past: int) -> np.ndarray:
        return recency_weights(n_past, self.decay, self.weight_fn)

    def select(self, seq: OrderedSequence) -> bool:
        if seq.prefix_y.shape[0] == 0:
            return True  # empty quantile constraint is vacuous
        mu_t = float(self.mu(seq.final_x.reshape(1, -1))[0])
        w = self.weights(seq.prefix_y.shape[0])
        total = w.sum()
        if total <= 0:
            raise ConfigurationError("weights sum to zero")
        return bool(float(w @ (seq.prefix_y > mu_t)) <= self.beta_sel * total)


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

    def contains(self, trajectory: tuple[int, ...]) -> bool:
        traj = tuple(int(v) for v in trajectory)
        if self.trajectories is not None:
            return traj in self.trajectories
        if self.predicate is not None:
            return bool(self.predicate(traj))
        return True

    @staticmethod
    def singleton(trajectory: Sequence[int]) -> "SelectionTaxonomy":
        return SelectionTaxonomy(trajectories=frozenset({tuple(int(v) for v in trajectory)}))

    @staticmethod
    def everything() -> "SelectionTaxonomy":
        return SelectionTaxonomy()
