"""Core data model: online sequences and permutation samples.

Conventions used throughout the package:

* A data sequence at online time ``t`` consists of an optional *offline*
  block of labeled points (collected before the online process started),
  the online labeled history (times ``1 .. t-1``), and the covariates of
  the test point at time ``t`` whose label is unknown.
* Internally all points live in one array in *slot order*:
  ``[offline..., online..., test]``.  Slots are 0-based; the test point
  always occupies the last slot.  The classic 1-based time indices
  (offline points carry indices ``-n_off+1 .. 0``) are recorded as a
  sample's ``index_start`` for reporting only.
* A permutation is stored as ``order`` with ``order[s] = p`` meaning the
  point originally in slot ``p`` now occupies slot ``s``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import DomainError

__all__ = [
    "DataSequence",
    "PermutationSample",
    "MultiTestData",
]


def _as_matrix(x, name: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DomainError(f"{name} must be a (n, d) array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class DataSequence:
    """The data available when deciding whether to issue a set at time t.

    ``x``/``y`` hold the online labeled history (times ``1..t-1``),
    ``test_x`` the covariates of the test point (time ``t``).  An offline
    block, when present, precedes the online points.  Cutoffs are only
    required by cutoff-based selection rules and travel with their points:
    beside history cutoffs, a non-empty offline block carries its own.
    """

    x: np.ndarray
    y: np.ndarray
    test_x: np.ndarray
    offline_x: np.ndarray | None = None
    offline_y: np.ndarray | None = None
    cutoffs: np.ndarray | None = None
    test_cutoff: float | None = None
    offline_cutoffs: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = _as_matrix(self.x, "x") if np.size(self.x) else np.zeros((0, np.size(self.test_x)))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        test_x = np.asarray(self.test_x, dtype=float).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise DomainError(f"x has {x.shape[0]} rows but y has {y.shape[0]} entries")
        if x.shape[0] and x.shape[1] != test_x.shape[0]:
            raise DomainError("feature dimension differs between history and test point")
        if not np.all(np.isfinite(y)):
            raise DomainError("labels must be finite")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(test_x))):
            raise DomainError("covariates must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "test_x", test_x)
        if (self.offline_x is None) != (self.offline_y is None):
            raise DomainError("offline covariates and labels must be given together")
        if self.offline_x is not None:
            ox = _as_matrix(self.offline_x, "offline_x")
            oy = np.asarray(self.offline_y, dtype=float).reshape(-1)
            if ox.shape[0] != oy.shape[0]:
                raise DomainError("offline x/y length mismatch")
            if ox.shape[0] and ox.shape[1] != test_x.shape[0]:
                raise DomainError("offline feature dimension differs from test point")
            if not (np.all(np.isfinite(ox)) and np.all(np.isfinite(oy))):
                raise DomainError("offline covariates and labels must be finite")
            object.__setattr__(self, "offline_x", ox)
            object.__setattr__(self, "offline_y", oy)
        if self.cutoffs is None and (self.test_cutoff is not None or self.offline_cutoffs is not None):
            raise DomainError("test and offline cutoffs need the history cutoffs")
        if self.cutoffs is not None:
            c = np.asarray(self.cutoffs, dtype=float).reshape(-1)
            if c.shape[0] != y.shape[0]:
                raise DomainError("cutoffs length must match the labeled history")
            if self.test_cutoff is None:
                raise DomainError("test_cutoff required when history cutoffs are given")
            if np.any(np.isnan(c)) or np.isnan(float(self.test_cutoff)):
                raise DomainError("cutoffs must not be NaN")
            if self.n_offline and self.offline_cutoffs is None:
                raise DomainError("offline block present but offline cutoffs missing")
            object.__setattr__(self, "cutoffs", c)
        if self.offline_cutoffs is not None:
            oc = np.asarray(self.offline_cutoffs, dtype=float).reshape(-1)
            if self.offline_y is None or oc.shape[0] != self.offline_y.shape[0]:
                raise DomainError("offline cutoffs length mismatch")
            if np.any(np.isnan(oc)):
                raise DomainError("cutoffs must not be NaN")
            object.__setattr__(self, "offline_cutoffs", oc)
        # The engine reads the slot-order arrays once per permutation: build them once, read-only.
        off_x, off_y = ([self.offline_x], [self.offline_y]) if self.n_offline else ([], [])
        full_x = np.concatenate(off_x + [x, test_x.reshape(1, -1)], axis=0)
        full_y = np.concatenate(off_y + [y, [np.nan]])
        full_c = None
        if self.cutoffs is not None:
            off_c = [self.offline_cutoffs] if self.n_offline else []
            full_c = np.concatenate(off_c + [self.cutoffs, [float(self.test_cutoff)]])
        for name, arr in (("_full_x", full_x), ("_full_y", full_y), ("_full_cutoffs", full_c)):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- geometry -----------------------------------------------------

    @property
    def n_offline(self) -> int:
        return 0 if self.offline_y is None else int(self.offline_y.shape[0])

    @property
    def t(self) -> int:
        """Online time index of the test point."""
        return int(self.y.shape[0]) + 1

    @property
    def n_slots(self) -> int:
        return self.n_offline + self.t

    def full_x(self) -> np.ndarray:
        """Covariates in slot order (read-only)."""
        return self._full_x

    def full_y(self) -> np.ndarray:
        """Labels in slot order; the unknown test label is NaN (read-only)."""
        return self._full_y

    def full_cutoffs(self) -> np.ndarray | None:
        """Cutoffs in slot order (read-only); None for a sequence without cutoffs."""
        return self._full_cutoffs


@dataclass(frozen=True)
class PermutationSample:
    """A Monte-Carlo batch of permutations of one slot range.

    ``matrix`` has one permutation per row; rows were drawn i.i.d. uniform
    (with replacement, so duplicates carry multiplicity).  Reference sets
    append the identity on top of the sample; a sampled row that happens
    to equal it still counts as an ordinary draw.
    """

    matrix: np.ndarray
    n_points: int
    index_start: int = 1

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.int64)
        if m.ndim != 2 or m.shape[1] != self.n_points:
            raise DomainError(f"permutation matrix must be (M, {self.n_points})")
        if m.size and not np.array_equal(np.sort(m, axis=1), np.tile(np.arange(self.n_points), (m.shape[0], 1))):
            raise DomainError("a row of the permutation matrix is not a bijection")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def m(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class MultiTestData:
    """Calibration data plus several unlabeled test points, held as read-only copies."""

    calib_x: np.ndarray
    calib_y: np.ndarray
    test_x: np.ndarray

    def __post_init__(self) -> None:
        cx = _as_matrix(self.calib_x, "calib_x")
        cy = np.asarray(self.calib_y, dtype=float).reshape(-1)
        tx = _as_matrix(self.test_x, "test_x")
        if cx.shape[0] != cy.shape[0]:
            raise DomainError("calibration x/y length mismatch")
        if cx.shape[1] != tx.shape[1]:
            raise DomainError("feature dimension differs between calibration and test")
        if not all(np.all(np.isfinite(a)) for a in (cx, cy, tx)):
            raise DomainError("calibration and test data must be finite")
        # The engine keeps what it builds from this data by the data's identity: own read-only copies.
        for name, arr in (("calib_x", cx), ("calib_y", cy), ("test_x", tx)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(self.calib_y.shape[0])

    @property
    def m(self) -> int:
        return int(self.test_x.shape[0])
