"""Conformity scores and the models they wrap.

A score is order-sensitive in general (``of_sequence``).  The closed-form
prediction-set paths additionally require a *last-point* score ``v(x, y)``
together with its sublevel-set inverter ``{y : v(x, y) <= tau}`` returned
as a finite union of closed intervals.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ConformityScore",
    "LastPointScore",
    "AbsoluteResidualScore",
    "LinearModel",
    "fit_linear_model",
]

Intervals = tuple[tuple[float, float], ...]

# A model maps an (n, d) covariate matrix to n real predictions.
ModelFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LinearModel:
    """Affine prediction model; picklable, deterministic."""

    intercept: float
    coef: tuple[float, ...]

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        # Column by column: a BLAS matrix-vector product can round a row differently in batches
        # of different sizes, and the closed forms and the engine score a point in different ones.
        dot = np.zeros(X.shape[0])
        for j, c in enumerate(self.coef):
            dot += X[:, j] * c
        return self.intercept + dot


def fit_linear_model(X: np.ndarray, y: np.ndarray) -> LinearModel:
    """Least-squares affine fit."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    design = np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)
    beta, *_ = np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)
    return LinearModel(intercept=float(beta[0]), coef=tuple(float(b) for b in beta[1:]))


class ConformityScore(abc.ABC):
    """Order-sensitive real-valued score of an ordered labeled sequence."""

    @abc.abstractmethod
    def of_sequence(self, xs: np.ndarray, ys: np.ndarray) -> float:
        """Score of the full ordered sequence (last entry = test point)."""


class LastPointScore(ConformityScore):
    """A score that reads only the final data point.

    Subclasses provide the pointwise value and the exact sublevel set in
    label space; batch evaluation has a generic fallback.  A score is an
    immutable value whose points score alone: the engine scores a
    sequence's labeled points once per identity of the sequence and score,
    and only the test point once per candidate label.
    """

    @abc.abstractmethod
    def of_point(self, x: np.ndarray, y: float) -> float: ...

    @abc.abstractmethod
    def sublevel(self, x: np.ndarray, tau: float) -> Intervals:
        """{y : v(x, y) <= tau} as a finite union of closed intervals."""

    def of_points(self, X: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return np.array([self.of_point(x, float(y)) for x, y in zip(X, ys)])

    def of_sequence(self, xs: np.ndarray, ys: np.ndarray) -> float:
        return self.of_point(xs[-1], float(ys[-1]))


@dataclass(frozen=True)
class AbsoluteResidualScore(LastPointScore):
    """v(x, y) = |y - model(x)|; sublevel sets are symmetric intervals."""

    model: ModelFn

    def of_point(self, x: np.ndarray, y: float) -> float:
        return abs(y - float(self.model(np.asarray(x).reshape(1, -1))[0]))

    def of_points(self, X: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if X.shape[0] == 0:
            return np.empty(0)
        return np.abs(np.asarray(ys, dtype=float) - self.model(X))

    def sublevel(self, x: np.ndarray, tau: float) -> Intervals:
        if tau < 0 or math.isnan(tau):
            return ()
        if math.isinf(tau):
            return ((-math.inf, math.inf),)
        mu = float(self.model(np.asarray(x).reshape(1, -1))[0])
        return ((mu - tau, mu + tau),)


def score_each_point(score: LastPointScore, X: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Per-point last-point scores; NaN where the label is unknown."""
    vals = np.full(ys.shape[0], np.nan)
    known = np.isfinite(np.asarray(ys, dtype=float))
    if known.any():
        vals[known] = score.of_points(np.asarray(X)[known], np.asarray(ys)[known])
    return vals
