"""Conformity scores and the models they wrap.

A score is order-sensitive in general (``of_sequence``).  The closed-form
prediction-set paths additionally require a *last-point* score ``v(x, y)``
together with its sublevel-set inverter ``{y : v(x, y) <= tau}`` returned
as a finite union of closed intervals.  At a fixed covariate row a
last-point score is a function of the label alone: ``at(x)`` evaluates the
model once and returns that function (a ``PointScore``), whose ``of`` and
``sublevel`` then read no model.  A model output that is not finite is a
``DomainError`` where it enters.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "ConformityScore",
    "LastPointScore",
    "PointScore",
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


class PointScore(abc.ABC):
    """A last-point score at one fixed covariate row: a function of the label alone."""

    @abc.abstractmethod
    def of(self, y: float) -> float: ...

    @abc.abstractmethod
    def sublevel(self, tau: float) -> Intervals:
        """{y : of(y) <= tau} as a finite union of closed intervals."""


class LastPointScore(ConformityScore):
    """A score that reads only the final data point.

    Subclasses provide ``at(x)``, the score at covariate row ``x`` as a
    function of the label, from which the pointwise value and the exact
    sublevel set in label space are read, and ``of_points``, the scores of
    many labeled rows.  A score is an immutable value whose points score
    alone: the engine scores a sequence's labeled points once and evaluates
    the test point's ``at`` once per identity of the sequence and score,
    and each candidate label then only reads ``of``.
    """

    @abc.abstractmethod
    def at(self, x: np.ndarray) -> PointScore:
        """The score at covariate row ``x``, with the model evaluated once."""

    @abc.abstractmethod
    def of_points(self, X: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The score of each labeled row ``(X[i], ys[i])``."""

    def of_sequence(self, xs: np.ndarray, ys: np.ndarray) -> float:
        return self.at(xs[-1]).of(float(ys[-1]))


_NOT_FINITE = "the score's model output must be finite"


def _finite_output(pred: np.ndarray) -> np.ndarray:
    if not np.isfinite(pred).all():
        raise DomainError(_NOT_FINITE)
    return pred


@dataclass(frozen=True)
class ResidualAt(PointScore):
    """|y - mu| at a row whose model output is ``mu``; sublevel sets are symmetric intervals."""

    mu: float

    def of(self, y: float) -> float:
        return abs(y - self.mu)

    def sublevel(self, tau: float) -> Intervals:
        if tau < 0 or math.isnan(tau):
            return ()
        if math.isinf(tau):
            return ((-math.inf, math.inf),)
        return ((self.mu - tau, self.mu + tau),)


@dataclass(frozen=True)
class AbsoluteResidualScore(LastPointScore):
    """v(x, y) = |y - model(x)|."""

    model: ModelFn

    def at(self, x: np.ndarray) -> ResidualAt:
        # one (1, d) row, as every caller scores a single point: a row sliced from a
        # batch evaluation of another shape can round differently
        mu = float(self.model(np.asarray(x).reshape(1, -1))[0])
        if not math.isfinite(mu):
            raise DomainError(_NOT_FINITE)
        return ResidualAt(mu)

    def of_points(self, X: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if X.shape[0] == 0:
            return np.empty(0)
        return np.abs(np.asarray(ys, dtype=float) - _finite_output(self.model(X)))
