import numpy as np
import pytest

from kplsvm import datasets
from kplsvm.data import Dataset, split_dataset


def load_standin(name, corpus_seed=0, split_seed=0):
    """The synthetic stand-in for a corpus data set, split as the corpus is.

    ``corpus_seed`` is the seed ``kplsvm make-data`` draws the rows
    with, and ``split_seed`` the seed of the train/test permutation.
    """
    row = next(r for r in datasets.CORPUS_TABLE if r.name == name)
    X, y01 = datasets.make_standin(name, row.rows, row.features,
                                   seed=corpus_seed, binary=row.binary)
    ds = Dataset(X, y01 * 2.0 - 1.0, name=name)
    ds.split = split_dataset(ds, row.n_train, seed=split_seed)
    return ds


def monk_arrays(which):
    """(X_train, y_train, X_test, y_test) of Monk problem ``which``, with
    the 0/1 labels mapped to -1/+1."""
    Xtr, ytr01, Xte, yte01 = datasets.make_monk(which)
    return Xtr, ytr01 * 2.0 - 1.0, Xte, yte01 * 2.0 - 1.0


def monk_dataset(which):
    """Monk problem ``which`` as one Dataset whose split is its own
    training and test rows."""
    Xtr, ytr, Xte, yte = monk_arrays(which)
    n = len(ytr)
    return Dataset(np.vstack([Xtr, Xte]), np.concatenate([ytr, yte]),
                   name=f"monk{which}",
                   split=(np.arange(n), np.arange(n, n + len(yte))))


@pytest.fixture
def standin():
    """``standin(name, corpus_seed=0, split_seed=0)`` loads a stand-in."""
    return load_standin
