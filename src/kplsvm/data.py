"""Dataset loading, label mapping, normalization, and splitting."""

from __future__ import annotations

import contextlib
import csv
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_integer

__all__ = [
    "Dataset",
    "NormalizationTransform",
    "load_csv",
    "load_libsvm",
    "load_dataset",
    "fit_normalizer",
    "split_dataset",
    "as_rows",
    "default_seed",
]


def default_seed() -> int:
    """Split seed, overridable through the KPLSVM_SEED variable."""
    raw = os.environ.get("KPLSVM_SEED", "")
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise DataError(f"KPLSVM_SEED must be an integer, got {raw!r}") from exc


@dataclass
class Dataset:
    """Feature matrix with +-1 labels and the original-label mapping."""

    X: np.ndarray
    y: np.ndarray
    name: str = ""
    label_map: dict | None = None   # original label -> -1.0 / +1.0
    split: tuple | None = None      # optional (train_idx, test_idx)

    def __post_init__(self):
        self.X, self.y = as_labelled(self.X, self.y)
        if self.split is not None:
            if not hasattr(self.split, "__len__") or len(self.split) != 2:
                raise DataError("split must be a (train, test) pair")
            tr, te = (_row_numbers(s, self.y.size, name)
                      for s, name in zip(self.split, ("train", "test")))
            if np.isin(tr, te).any():
                raise DataError("split indices overlap")
            self.split = (tr, te)

    def __len__(self) -> int:
        return self.y.size


def _row_numbers(rows, l: int, name: str) -> np.ndarray:
    """``rows`` as a 1-d integer array of row numbers in [0, l), an empty
    list being none.  As for ``check_integer``, a float, a bool or a string
    is no row number, even when it holds one; none is rewritten."""
    try:
        a = np.asarray(rows) if len(rows) else np.arange(0)
    except (TypeError, ValueError):             # no length, or ragged
        a = np.asarray(None)
    if (a.ndim != 1 or a.dtype.kind not in "iu"
            or {bool, np.bool_} & set(map(type, rows))):
        raise DataError(f"{name} indices must be a 1-d array of integers, "
                        f"got {rows!r}")
    if a.size and (a.min() < 0 or a.max() >= l):
        raise DataError(f"{name} indices out of range")
    return a


def _map_labels(raw_labels: list) -> tuple[np.ndarray, dict]:
    """Deterministically remap two raw label values onto -1/+1.

    The numerically (or, failing that, lexicographically) smaller
    original label becomes -1.  Covers 0/1, 1/2, and +-1 conventions.
    """
    if any(v != v for v in raw_labels):         # NaN, equal to no label
        raise DataError("a label is NaN")
    uniq = sorted(set(raw_labels), key=lambda v: (isinstance(v, str), v))
    if len(uniq) != 2:
        raise DataError(
            f"expected exactly 2 label values, found {len(uniq)}: {uniq[:5]}")
    mapping = {uniq[0]: -1.0, uniq[1]: 1.0}
    return np.array([mapping[v] for v in raw_labels]), mapping


def _parse_label(tok: str):
    """The number ``tok`` holds, an int when whole, else ``tok`` itself."""
    try:
        f = float(tok)
        return int(f) if f.is_integer() else f
    except ValueError:
        return tok


@contextlib.contextmanager
def open_text(path):
    """The UTF-8 text file ``path`` opened for reading, without the one
    leading byte-order mark some editors write; bytes that do not decode
    raise DataError naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def write_rows(path, rows):
    """Write ``rows`` as CSV, UTF-8 with LF line ends, to the file ``path``,
    or to stdout when it is None: the one writer of every table kplsvm
    outputs.  Build the rows first, so that a refused table makes no file."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def load_csv(path, label_col: int = 0, name: str | None = None) -> Dataset:
    """Load a delimited text file.

    The first row is a header, and skipped, when any feature field of it
    is non-numeric.  Malformed rows raise DataError with the offending
    line number.
    """
    with open_text(path) as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not lines:
        raise DataError(f"{path}: empty file")
    first = [t.strip() for t in lines[0][1].split(",")]
    lc0 = label_col % len(first) if -len(first) <= label_col < len(first) \
        else None
    start = int(any(isinstance(_parse_label(tok), str)
                    for j, tok in enumerate(first) if j != lc0))
    width = None
    labels, feats = [], []
    for lineno, ln in lines[start:]:
        toks = [t.strip() for t in ln.split(",")]
        if width is None:
            width = len(toks)
            if not -width <= label_col < width:
                raise DataError(
                    f"{path}: label column {label_col} out of range "
                    f"for width {width}")
        elif len(toks) != width:
            raise DataError(
                f"{path}:{lineno}: expected {width} fields, got {len(toks)}")
        lc = label_col % width
        labels.append(_parse_label(toks[lc]))
        try:
            feats.append([float(t) for j, t in enumerate(toks) if j != lc])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric feature") from exc
    y, mapping = _map_labels(labels)
    ds_name = name if name is not None else os.path.basename(path)
    return Dataset(np.array(feats, dtype=float), y, name=ds_name,
                   label_map=mapping)


def load_libsvm(path, name: str | None = None) -> Dataset:
    """Load sparse index:value rows; indices are 1-based, output dense."""
    labels, entries = [], []
    max_idx = 0
    with open_text(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            toks = ln.split()
            labels.append(_parse_label(toks[0]))
            row = {}
            for tok in toks[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx, val = int(idx_s), float(val_s)
                    if idx < 1:
                        raise ValueError
                except ValueError as exc:
                    raise DataError(
                        f"{path}:{lineno}: bad feature token {tok!r}"
                    ) from exc
                row[idx - 1] = val
                max_idx = max(max_idx, idx)
            entries.append(row)
    if not labels:
        raise DataError(f"{path}: empty file")
    X = np.zeros((len(labels), max_idx))
    for i, row in enumerate(entries):
        for j, v in row.items():
            X[i, j] = v
    y, mapping = _map_labels(labels)
    ds_name = name if name is not None else os.path.basename(path)
    return Dataset(X, y, name=ds_name, label_map=mapping)


def load_dataset(path, fmt: str = "csv", label_col: int = 0,
                 name: str | None = None) -> Dataset:
    if fmt == "csv":
        return load_csv(path, label_col=label_col, name=name)
    if fmt == "libsvm":
        return load_libsvm(path, name=name)
    raise DataError(f"unknown dataset format {fmt!r}")


@dataclass
class NormalizationTransform:
    """Per-feature affine map onto [-1, 1] fitted on training data.

    x' = 2 (x - min) / (max - min) - 1.  Constant features map to 0.
    Applied to unseen data the output may leave [-1, 1]; it is not
    clipped.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def apply(self, X) -> np.ndarray:
        """Each row of X mapped; X passes ``as_rows`` at the fit's width."""
        X = as_rows(X, self.mins.size)
        span = self.maxs - self.mins
        # in place, in the order of 2 (x - min) / span - 1
        out = X - self.mins
        out *= 2.0
        out /= np.where(span > 0, span, 1.0)
        out -= 1.0
        out[:, span <= 0] = 0.0
        return out


def fit_normalizer(X) -> NormalizationTransform:
    X = _floats(X, DataError)
    if X.ndim != 2 or len(X) == 0:          # here 1-d is not one sample
        raise DataError("normalizer needs a nonempty 2-d sample block")
    X = as_rows(X)
    return NormalizationTransform(mins=X.min(axis=0), maxs=X.max(axis=0))


def _floats(values, error: type) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:     # a bad string, a ragged row
        raise error(f"not an array of real numbers: {exc}") from exc


def as_rows(X, features: int | None = None) -> np.ndarray:
    """X as a finite float block of sample rows, a 1-d X being one row,
    with ``features`` columns if given; anything else raises DataError:
    the one rule for rows entering a kernel, the normalizer or predict."""
    X = _floats(X, DataError)
    X = X[None, :] if X.ndim == 1 else X
    if X.ndim != 2:
        raise DataError(f"expected 2-d sample array, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("non-finite feature values")
    if features is not None and X.shape[1] != features:
        raise DataError(f"expected {features} features, got {X.shape[1]}")
    return X


def as_labelled(X, y, error: type = DataError):
    """(X, y) as float arrays: the one rule for samples that train or score
    a model.  X must be a finite 2-d (l, n) block (a 1-d X is refused) and
    y hold one -1.0 or +1.0 label per row; anything else raises ``error``."""
    X, y = _floats(X, error), _floats(y, error)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise error(f"X must be (l, n), a 2-d block, and y 1-d, with equal "
                    f"row counts; got X {X.shape} and y {y.shape}")
    if not np.isfinite(X).all():
        raise error("non-finite feature values")
    if not (np.abs(y) == 1.0).all():
        raise error(f"labels must be +-1, got {np.unique(y).tolist()[:5]}")
    return X, y


def split_dataset(dataset: Dataset, n_train: int, seed: int | None = 0,
                  predefined: bool = False):
    """(train_idx, test_idx) partition of the dataset rows.

    Predefined splits take the first ``n_train`` rows in file order
    (for corpora whose files already encode the official split);
    otherwise rows are permuted by a seeded generator first.
    """
    l = len(dataset)
    check_integer(n_train, 1, DataError, f"n_train must be in (0, {l})")
    if n_train >= l:
        raise DataError(f"n_train must be in (0, {l}), got {n_train}")
    if predefined:
        idx = np.arange(l)
    else:
        seed = default_seed() if seed is None else seed
        check_integer(seed, 0, DataError, "split seed must be non-negative")
        idx = np.random.default_rng(seed).permutation(l)
    return idx[:n_train], idx[n_train:]

