"""Random-instance consistency battery: closed form vs direct evaluation.

For each rule family this draws random selected instances, computes the
closed-form prediction set, and compares its membership on a label grid
(plus all partition boundary points) against the generic engine's per-y
decisions with the same permutation sample — and, when asked, against
exhaustive enumeration with the sample replaced by all orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fast
from .engine import pemi_set_grid
from .errors import PemiError
from .oracle import all_orders_sample
from .permutations import sample_permutations
from .rules import (
    ConformalPValueRule,
    CutoffScoreFromModel,
    DecisionDrivenRule,
    EarlierOutcomeRule,
    ELondRule,
    SelectionRule,
    WeightedPredictionRule,
)
from .scores import AbsoluteResidualScore, LinearModel
from .thresholds import FixedThreshold, LondEngine
from .types import DataSequence, PermutationSample

__all__ = ["Instance", "CrosscheckReport", "run_crosscheck", "FAMILIES", "draw_instance", "check_instance"]

FAMILIES = (
    "covariate",
    "covariate_randomized",
    "conformal_fixed",
    "conformal_adaptive",
    "elond",
    "earlier_outcome",
)
# Each instance draws its horizon t and sample size M from these; the
# all-orderings check runs where offline block plus t fits FULL_ENUM_MAX_T.
T_CHOICES = (3, 4, 5, 6, 7)
M_CHOICES = (0, 5, 20)
FULL_ENUM_MAX_T = 5


@dataclass(frozen=True)
class GeometricGamma:
    """gamma_t = base^t; heavy early mass keeps tiny-t tests alive."""

    base: float = 0.6

    def __call__(self, t: int) -> float:
        return self.base**t


@dataclass(frozen=True)
class Instance:
    family: str
    data: DataSequence
    rule: SelectionRule
    score: AbsoluteResidualScore
    alpha: float
    u: float


def _random_linear(rng: np.random.Generator, d: int) -> LinearModel:
    return LinearModel(
        intercept=float(rng.normal()), coef=tuple(float(c) for c in rng.normal(size=d))
    )


def draw_instance(family: str, rng: np.random.Generator, t: int) -> Instance:
    """A random instance whose observed point is selected (rejection-sampled)."""
    d = 2
    alpha = float(rng.uniform(0.15, 0.6))
    u = float(rng.uniform(0.0, 1.0))
    mu_model = _random_linear(rng, d)
    score = AbsoluteResidualScore(model=_random_linear(rng, d))

    for attempt in range(500):
        X = rng.normal(size=(t, d))
        Y = np.asarray(mu_model(X)) + rng.normal(size=t)
        if family in ("covariate", "covariate_randomized"):
            if rng.random() < 0.5:
                mu_t = float(mu_model(X[-1].reshape(1, -1))[0])
                rule: SelectionRule = DecisionDrivenRule(
                    tau0=float(rng.uniform(20, 100)), tau1=mu_t - 0.5, mu=mu_model
                )
            else:
                rule = WeightedPredictionRule(
                    mu=mu_model,
                    mode="quantile" if rng.random() < 0.5 else "average",
                    q_sel=float(rng.uniform(0.2, 0.6)),
                    decay=None if rng.random() < 0.5 else 0.5,
                )
            data = DataSequence(x=X[:-1], y=Y[:-1], test_x=X[-1])
        elif family in ("conformal_fixed", "conformal_adaptive"):
            cuts = np.quantile(Y, 0.5) + rng.normal(scale=0.3, size=t)
            data = DataSequence(
                x=X[:-1], y=Y[:-1], test_x=X[-1], cutoffs=cuts[:-1], test_cutoff=float(cuts[-1])
            )
            if family == "conformal_fixed":
                engine = FixedThreshold(float(rng.uniform(0.3, 0.7)))
                decay = None if rng.random() < 0.5 else 0.5
            else:
                engine = LondEngine(alpha=float(rng.uniform(0.7, 0.95)), gamma=GeometricGamma(0.6))
                decay = 2.0  # heavy old points allow small p-values at small t
            rule = ConformalPValueRule(
                f_score=CutoffScoreFromModel(mu_model),
                engine=engine,
                decay=decay,
            )
        elif family == "elond":
            n_off = int(rng.integers(2, 4))
            Xo = rng.normal(size=(n_off, d))
            Yo = np.asarray(mu_model(Xo)) + rng.normal(size=n_off)
            c_all = np.concatenate([Yo, Y]).mean() + rng.normal(scale=0.3, size=n_off + t)
            data = DataSequence(
                x=X[:-1],
                y=Y[:-1],
                test_x=X[-1],
                offline_x=Xo,
                offline_y=Yo,
                cutoffs=c_all[n_off:-1],
                test_cutoff=float(c_all[-1]),
                offline_cutoffs=c_all[:n_off],
            )
            rule = ELondRule(
                f_score=CutoffScoreFromModel(mu_model),
                alpha=float(rng.uniform(0.7, 0.95)),
                gamma=GeometricGamma(0.7),
            )
        elif family == "earlier_outcome":
            rule = EarlierOutcomeRule(
                mu=mu_model,
                beta_sel=float(rng.uniform(0.25, 0.6)),
                decay=None if rng.random() < 0.5 else 0.5,
            )
            data = DataSequence(x=X[:-1], y=Y[:-1], test_x=X[-1])
        else:
            raise PemiError(f"unknown family {family!r}")
        if rule.select(data):
            return Instance(family=family, data=data, rule=rule, score=score, alpha=alpha, u=u)
    raise PemiError(f"could not draw a selected {family} instance after 500 tries")


def _label_grid(inst: Instance, n_points: int) -> np.ndarray:
    data = inst.data
    anchor = [float(v) for v in data.y] + [0.0]
    if data.test_cutoff is not None and math.isfinite(data.test_cutoff):
        anchor.append(data.test_cutoff)
    lo, hi = min(anchor) - 2.0, max(anchor) + 2.0
    grid = np.linspace(lo, hi, n_points)
    if isinstance(inst.rule, EarlierOutcomeRule):
        mu_past = inst.rule.point_values(data.x)
        grid = np.unique(np.concatenate([grid, mu_past]))
    return grid


def check_instance(
    inst: Instance, perms: PermutationSample, grid_points: int = 100
) -> int:
    """Number of grid labels on which the closed form and the generic
    engine disagree (0 means fully consistent)."""
    grid = _label_grid(inst, grid_points)
    u = inst.u if inst.family == "covariate_randomized" else None
    dset = fast._closed_form(inst.data, inst.rule, inst.score, perms, inst.alpha, u)
    generic = pemi_set_grid(grid, inst.data, inst.rule, inst.score, perms, inst.alpha, u=u)
    fast_membership = np.array(
        [dset.contains(float(y), inst.score, inst.data.test_x) for y in grid]
    )
    return int(np.sum(fast_membership != generic))


@dataclass
class CrosscheckReport:
    lines: list[str] = field(default_factory=list)
    mismatches: int = 0


def run_crosscheck(
    instances: int = 8,
    seed: int = 0,
    grid_points: int = 40,
    full_enum: bool = False,
) -> CrosscheckReport:
    report = CrosscheckReport()
    rng = np.random.default_rng(seed)
    for family in FAMILIES:
        bad = 0
        bad_full = 0
        for i in range(instances):
            t = int(rng.choice(T_CHOICES))
            M = int(rng.choice(M_CHOICES))
            inst = draw_instance(family, rng, t)
            perms = sample_permutations(
                t, M, seed=int(rng.integers(2**63)), n_offline=inst.data.n_offline
            )
            bad += check_instance(inst, perms, grid_points)
            if full_enum and t + inst.data.n_offline <= FULL_ENUM_MAX_T:
                full = all_orders_sample(
                    inst.data.n_slots, 1 - inst.data.n_offline, skip_identity=True
                )
                bad_full += check_instance(inst, full, grid_points)
        status = "ok" if bad + bad_full == 0 else "FAIL"
        line = f"{status}: {family}: {instances} instances, {bad} grid mismatches"
        if full_enum:
            line += f", {bad_full} full-enumeration mismatches"
        report.lines.append(line)
        report.mismatches += bad + bad_full
    return report
