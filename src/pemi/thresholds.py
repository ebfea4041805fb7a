"""Adaptive significance-threshold engines for online testing.

Every engine computes the level ``alpha_j`` for step ``j`` as a
deterministic function of the step index, the realized p-value history
``p_1..p_{j-1}``, and its own hyper-parameters — the one interface the
p-value-thresholding selection rules need.  State is always rebuilt from
the supplied history, never mutated in place, so engines can be replayed
on permuted histories.

Two engines are provided: a fixed level and the discovery-count (LOND)
procedure, whose per-step level is ``lond_threshold`` with the summable
``default_gamma`` weights.  Each engine has a scalar ``alphas`` and a
row-batched ``alphas_batch``; the closed forms call the batched one.
An engine whose level at a step reads no earlier p-value says so through
``history_free_level``, so a caller deciding that one step computes one
p-value instead of the whole history.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "default_gamma",
    "lond_threshold",
    "ThresholdEngine",
    "FixedThreshold",
    "LondEngine",
]


def default_gamma(t: int) -> float:
    """The standard summable discovery-weight sequence 6 / (pi^2 t^2)."""
    return 6.0 / (math.pi**2 * t * t)


def lond_threshold(alpha: float, gamma_t: float, rejections: int) -> float:
    """Per-step level alpha * gamma_t * (rejections + 1)."""
    if gamma_t < 0:
        raise ConfigurationError(f"gamma must be >= 0, got {gamma_t}")
    if rejections < 0:
        raise ConfigurationError("rejection count must be >= 0")
    return alpha * gamma_t * (rejections + 1)


def _gamma_array(gamma: Callable[[int], float], T: int) -> np.ndarray:
    g = np.array([gamma(j) for j in range(1, T + 1)], dtype=float)
    if (g < 0).any():  # the method skips np.any's dispatch, a fixed cost on every replayed row
        raise ConfigurationError("gamma sequence must be non-negative")
    return g


class ThresholdEngine(abc.ABC):
    """alpha_j = G(j; p_1..p_{j-1}, theta), replayable on any history."""

    @abc.abstractmethod
    def alphas(self, pvals: np.ndarray) -> np.ndarray:
        """Thresholds for steps 1..T given the p-values of those steps.

        ``alpha_j`` may depend on ``pvals[:j-1]`` only; the j-th entry of
        the input is never read when computing the j-th output.
        """

    @abc.abstractmethod
    def alphas_batch(self, pvals: np.ndarray) -> np.ndarray:
        """``alphas`` on every row of an (R, T) batch."""

    def history_free_level(self, T: int) -> float | None:
        """The level of step ``T`` when it reads no earlier p-value, else None.

        A number lets a caller that decides only step ``T`` skip the
        p-values of steps before it.
        """
        return None


@dataclass(frozen=True)
class FixedThreshold(ThresholdEngine):
    q: float

    def __post_init__(self) -> None:
        if not 0 < self.q < 1:
            raise ConfigurationError(f"fixed threshold must be in (0,1), got {self.q}")

    def alphas(self, pvals: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(pvals).shape[-1], self.q)

    def alphas_batch(self, pvals: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(pvals).shape, self.q)

    def history_free_level(self, T: int) -> float:
        return self.q


@dataclass(frozen=True)
class LondEngine(ThresholdEngine):
    """Level alpha * gamma_j * (discoveries so far + 1)."""

    alpha: float
    gamma: Callable[[int], float] = default_gamma

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ConfigurationError(f"alpha must be in (0,1), got {self.alpha}")

    def alphas(self, pvals: np.ndarray) -> np.ndarray:
        p = np.asarray(pvals, dtype=float)
        g = _gamma_array(self.gamma, p.shape[0])
        out = np.empty(p.shape[0])
        d = 0
        for j in range(p.shape[0]):
            out[j] = self.alpha * g[j] * (d + 1)
            d += int(p[j] <= out[j])
        return out

    def alphas_batch(self, pvals: np.ndarray) -> np.ndarray:
        p = np.asarray(pvals, dtype=float)
        g = _gamma_array(self.gamma, p.shape[1])
        out = np.empty(p.shape)
        d = np.zeros(p.shape[0], dtype=np.int64)
        for j in range(p.shape[1]):
            out[:, j] = self.alpha * g[j] * (d + 1)
            d += p[:, j] <= out[:, j]
        return out
