"""Kernel functions and Gram matrices.

Two RBF variants are provided.  ``squared-distance`` is the standard
Gaussian kernel exp(-||x-y||^2 / (2 q^2)) and is the default.
``plain-distance`` uses the unsquared Euclidean distance in the
exponent, exp(-||x-y|| / (2 q^2)).  ``train`` takes either (``kplsvm
train --rbf-form``) and the model file records it; the grid search,
replay and ``bench`` always use the default.

Every RBF block, ``gram``, ``cross_gram`` and ``cross_gram_dot`` (a
model's scores), is one matrix product of augmented factors,

    P = [s a, t ||a||^2, 1],   Q = [b, 1, t ||b||^2],

with s = 1/q^2, t = -1/(2 q^2) for ``squared-distance``, whose product
is the exponent itself, and s = -2, t = 1 for ``plain-distance``, whose
product is ||a-b||^2.  ``gram`` of one set then gives both entries of
each pair their smaller value, so the training Gram matrix is exactly
symmetric, and sets its diagonal to k(x, x) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_rows
from .errors import DataError, check_real

__all__ = [
    "KernelSpec",
    "KERNEL_KINDS",
    "RBF_FORMS",
    "gram",
    "cross_gram",
    "cross_gram_dot",
]

KERNEL_KINDS = ("linear", "rbf")
RBF_FORMS = ("squared-distance", "plain-distance")


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "linear"
    q: float = 1.0
    rbf_form: str = "squared-distance"

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise DataError(f"unknown kernel kind {self.kind!r}")
        if self.rbf_form not in RBF_FORMS:
            raise DataError(f"unknown rbf form {self.rbf_form!r}")
        check_real(self.q, DataError, "kernel width q must be finite (and "
                   "positive for rbf)", positive=self.kind == "rbf")


# Cross-Gram entries per row block of ``cross_gram_dot``: 2**18 doubles,
# 2 MB, reused by every block, so scoring works in a cache-sized set
# whatever its row count.
_PREDICT_BLOCK_ENTRIES = 1 << 18


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Gram matrix of one sample set, which passes ``data.as_rows``.

    It is exactly symmetric: numpy forms X X' as one symmetric rank-k
    update, and an RBF matrix takes the smaller entry of each pair and a
    unit diagonal.
    """
    X = as_rows(X)
    if spec.kind == "linear":
        return X @ X.T
    G = _rbf(spec, _factor(spec, X) @ _factor(spec, X, support=True).T)
    np.minimum(G, G.T, out=G)
    np.fill_diagonal(G, 1.0)
    return G


def cross_gram(spec: KernelSpec, A, B) -> np.ndarray:
    """Gram block k(A_i, B_j), shape (len(A), len(B)).

    A and B are 1-d (one row) or 2-d, finite and of one width, else
    DataError (``data.as_rows``).  The exactly symmetric Gram matrix of
    one set is ``gram``.
    """
    A = as_rows(A)
    B = as_rows(B, A.shape[1])
    if spec.kind == "linear":
        return A @ B.T
    return _rbf(spec, _factor(spec, A) @ _factor(spec, B, support=True).T)


def cross_gram_dot(spec: KernelSpec, A, B, v) -> np.ndarray:
    """K(A, B) v for a vector v of len(B); A and B as in ``cross_gram``,
    A checked at B's width.

    A linear kernel computes A (B'v) and forms no block.  An RBF kernel
    builds B's factor once and fills the result in row blocks of at most
    ``_PREDICT_BLOCK_ENTRIES`` entries, each one matrix product into the
    same buffer, then one product with v.
    """
    B = as_rows(B)
    A = as_rows(A, B.shape[1])
    if spec.kind == "linear":
        return A @ (B.T @ v)
    Q = _factor(spec, B, support=True).T
    rows = max(1, _PREDICT_BLOCK_ENTRIES // max(1, len(B)))
    block = np.empty((min(rows, len(A)), len(B)))
    f = np.empty(len(A))
    for i in range(0, len(A), rows):
        P = _factor(spec, A[i:i + rows])
        f[i:i + len(P)] = _rbf(spec, np.matmul(P, Q, out=block[:len(P)])) @ v
    return f


def _factor(spec: KernelSpec, X: np.ndarray, support: bool = False):
    """The module docstring's P of the rows X, or Q when ``support``."""
    squared = spec.rbf_form == "squared-distance"
    t = -0.5 / (spec.q * spec.q) if squared else 1.0
    s = 1.0 if support else (-2.0 * t if squared else -2.0)
    F = np.ones((X.shape[0], X.shape[1] + 2))
    np.multiply(X, s, out=F[:, :-2])
    F[:, -1 if support else -2] = t * np.einsum("ij,ij->i", X, X)
    return F


def _rbf(spec: KernelSpec, E: np.ndarray) -> np.ndarray:
    """The RBF block from the factor product E, in place: the exponent,
    clipped at 0 from above, or the squared distance, clipped at 0 from
    below, then square-rooted and scaled."""
    if spec.rbf_form == "squared-distance":
        np.minimum(E, 0.0, out=E)
    else:
        np.maximum(E, 0.0, out=E)
        np.sqrt(E, out=E)
        E /= -(2.0 * spec.q * spec.q)  # equals (-E) / (2 q^2) bit for bit
    return np.exp(E, out=E)
