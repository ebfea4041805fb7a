"""CSV ingestion for data streams.

Schema (header row required, UTF-8, '.' decimal):

* label column ``y`` (required);
* either raw feature columns ``x_0..x_{d-1}`` or a prediction column
  ``mu_hat``, optionally with extra model columns ``f1..fk``;
* optional per-point cutoff column ``c``.

Row order is stream order.  Every cell must be a number; ``nan`` is
rejected everywhere, and ``inf``, the literal for infinite values, is
accepted in the cutoff column only.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError

__all__ = ["StreamData", "load_dataset"]

_X_COL = re.compile(r"^x_(\d+)$")
_F_COL = re.compile(r"^f(\d+)$")


@dataclass(frozen=True)
class StreamData:
    """A loaded stream: features (raw or prediction columns), labels,
    optional cutoffs.  ``feature_names`` records the column layout."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    cutoffs: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.y.shape[0])


def _parse_float(text: str, path: Path, line: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}:{line}: column {col!r}: cannot parse {text!r}") from None
    if math.isnan(value) or (math.isinf(value) and col != "c"):
        raise ParseError(f"{path}:{line}: column {col!r}: {text!r} is not a finite number")
    return value


def load_dataset(path: str | Path) -> StreamData:
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "y" not in header:
            raise SchemaError(f"{path}: missing required column 'y'")
        x_cols = sorted(
            (int(m.group(1)), h) for h in header if (m := _X_COL.match(h))
        )
        f_cols = sorted(
            (int(m.group(1)), h) for h in header if (m := _F_COL.match(h))
        )
        if x_cols and "mu_hat" in header:
            raise SchemaError(f"{path}: give either x_* columns or mu_hat, not both")
        if x_cols:
            feature_names = tuple(h for _, h in x_cols)
            if [i for i, _ in x_cols] != list(range(len(x_cols))):
                raise SchemaError(f"{path}: x_* columns must be contiguous from x_0")
        elif "mu_hat" in header:
            feature_names = ("mu_hat",) + tuple(h for _, h in f_cols)
        else:
            raise SchemaError(f"{path}: need feature columns x_0.. or a mu_hat column")
        col_idx = {h: i for i, h in enumerate(header)}
        has_cut = "c" in header

        feats, labels, cuts = [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}")
            feats.append(
                [_parse_float(row[col_idx[h]], path, line_no, h) for h in feature_names]
            )
            labels.append(_parse_float(row[col_idx["y"]], path, line_no, "y"))
            if has_cut:
                cuts.append(_parse_float(row[col_idx["c"]], path, line_no, "c"))
    return StreamData(
        X=np.asarray(feats, dtype=float).reshape(len(labels), len(feature_names)),
        y=np.asarray(labels, dtype=float),
        feature_names=feature_names,
        cutoffs=np.asarray(cuts, dtype=float) if has_cut else None,
    )
