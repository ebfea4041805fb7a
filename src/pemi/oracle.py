"""Exhaustive permutation enumeration, the ground truth of the checks.

``all_orders_sample`` packages every ordering of a sequence's slots like a
Monte-Carlo sample, so the engine and the closed forms run on it
unchanged: the ``oracle`` experiment method and the consistency battery's
enumeration check do.  A hard size guard, ``MAX_ENUM_SIZE``, keeps runs
fast.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import GuardError
from .types import PermutationSample

__all__ = ["all_orders_sample"]

MAX_ENUM_SIZE = 8


def _guard(n: int) -> None:
    if n > MAX_ENUM_SIZE:
        raise GuardError(
            f"full enumeration of {n}! = {math.factorial(n)} permutations exceeds the cap "
            f"of {MAX_ENUM_SIZE} points"
        )


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
