import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pemi import fast
from pemi.engine import pemi_set_grid
from pemi.rules import CovariateRule
from pemi.scores import AbsoluteResidualScore, LinearModel
from pemi.types import DataSequence

settings.register_profile(
    "pkg", deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=50
)
settings.load_profile("pkg")


@dataclasses.dataclass(frozen=True)
class NeverSelectRule(CovariateRule):
    """Selects no point: every reference holds the identity alone."""

    def point_values(self, X: np.ndarray, cutoffs: np.ndarray | None = None) -> np.ndarray:
        return np.zeros(X.shape[0])

    def select_values(self, values: np.ndarray) -> bool:
        return False

    def select_values_batch(self, values: np.ndarray) -> np.ndarray:
        return np.zeros(values.shape[0], dtype=bool)


def make_sequence(rng: np.random.Generator, t: int, d: int = 2, cutoffs: bool = False,
                  n_offline: int = 0) -> DataSequence:
    """A small random sequence; labels are a noisy linear signal."""
    coef = rng.normal(size=d)
    X = rng.normal(size=(t, d))
    Y = X @ coef + rng.normal(size=t)
    kw = {}
    if n_offline:
        Xo = rng.normal(size=(n_offline, d))
        kw.update(offline_x=Xo, offline_y=Xo @ coef + rng.normal(size=n_offline))
    if cutoffs:
        kw.update(cutoffs=rng.normal(size=t - 1), test_cutoff=float(rng.normal()))
        if n_offline:
            kw.update(offline_cutoffs=rng.normal(size=n_offline))
    return DataSequence(x=X[:-1], y=Y[:-1], test_x=X[-1], **kw)


def prefix(data: DataSequence, i: int) -> DataSequence:
    """The sequence visible at online step ``i``: the offline block, the first
    ``i - 1`` online points labeled and online point ``i`` as the test point."""
    if i == data.t:
        return data
    cut = {}
    if data.cutoffs is not None:
        cut = dict(cutoffs=data.cutoffs[: i - 1], test_cutoff=float(data.cutoffs[i - 1]))
    return dataclasses.replace(data, x=data.x[: i - 1], y=data.y[: i - 1], test_x=data.x[i - 1], **cut)


def permuted(data: DataSequence, order: np.ndarray, y: float) -> DataSequence:
    """``data`` with ``y`` imputed as the test label and slot ``s`` holding the
    point of slot ``order[s]``, built as a new sequence; the leading slots stay
    offline and the label that lands in the last slot is dropped."""
    n_off = data.n_offline
    x = data.full_x()[order]
    labels = np.append(data.full_y()[:-1], y)[order]
    kw = {}
    if n_off:
        kw.update(offline_x=x[:n_off], offline_y=labels[:n_off])
    cut = data.full_cutoffs()
    if cut is not None:
        cut = cut[order]
        kw.update(cutoffs=cut[n_off:-1], test_cutoff=float(cut[-1]))
        if n_off:
            kw.update(offline_cutoffs=cut[:n_off])
    return DataSequence(x=x[n_off:-1], y=labels[n_off:-1], test_x=x[-1], **kw)


def weighted_quantile(beta: float, values, weights) -> float:
    """inf{z : the weight of the values at most z reaches ``beta`` of the
    total}, from the cumulative weights in sorted order: a reference for the
    rules' weighted-quantile selections that shares no code with them."""
    v, w = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    order = np.argsort(v, kind="stable")
    idx = int(np.searchsorted(np.cumsum(w[order]), beta * w.sum(), side="left"))
    return float(v[order][min(idx, v.size - 1)])  # float slack at beta == 1


def closed_form_is_the_engine(data, rule, score, perms, alpha, u, y_obs) -> bool:
    """Whether the closed-form set and the generic engine agree on a label
    grid around the labels and on every finite end of the set's intervals,
    its cutoff and its breakpoints."""
    dset = fast._closed_form(data, rule, score, perms, alpha, u)
    ends = [b for piece in dset.intervals(score, data.test_x) for b in piece]
    ends += [getattr(dset, "cutoff", math.inf), *getattr(dset, "breakpoints", ())]
    bounds = [b for b in ends if math.isfinite(b)]
    anchor = [*data.y.tolist(), y_obs, *bounds]
    grid = np.union1d(np.linspace(min(anchor) - 2, max(anchor) + 2, 41), bounds)
    want = pemi_set_grid(grid, data, rule, score, perms, alpha, u=u)
    return [dset.contains(float(y), score, data.test_x) for y in grid] == want.tolist()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def residual_score(rng) -> AbsoluteResidualScore:
    return AbsoluteResidualScore(model=LinearModel(intercept=0.3, coef=(0.7, -1.1)))
