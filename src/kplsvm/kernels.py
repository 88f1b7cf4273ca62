"""Kernel functions and Gram matrices.

Two RBF variants are provided.  ``squared-distance`` is the standard
Gaussian kernel exp(-||x-y||^2 / (2 q^2)) and is the default.
``plain-distance`` uses the unsquared Euclidean distance in the
exponent, exp(-||x-y|| / (2 q^2)).  ``train`` takes either (``kplsvm
train --rbf-form``) and the model file records it; the grid search,
replay and ``bench`` always use the default.
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
    "kernel_value",
    "gram",
    "cross_gram",
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


def kernel_value(spec: KernelSpec, x, y) -> float:
    """k(x, y) for single vectors."""
    return float(cross_gram(spec, x, y)[0, 0])


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Gram matrix of one sample set.

    It is exactly symmetric: the product X X' is formed as one
    symmetric rank-k update, and the RBF forms add the squared norms
    symmetrically.
    """
    return cross_gram(spec, X, X)


def cross_gram(spec: KernelSpec, A, B) -> np.ndarray:
    """Gram block k(A_i, B_j), shape (len(A), len(B)).

    A and B are 1-d (one row) or 2-d, finite and of one width, else
    DataError (``data.as_rows``).  One object passed as both converts
    once, so ``gram`` multiplies one array by its own transpose.
    """
    same = B is A
    A = as_rows(A)
    B = A if same else as_rows(B, A.shape[1])
    if spec.kind == "linear":
        return A @ B.T
    # in place, in the same order of operations as the textbook formula
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :]
    AB = A @ B.T
    AB *= 2.0
    sq -= AB
    np.maximum(sq, 0.0, out=sq)
    if spec.rbf_form == "plain-distance":
        np.sqrt(sq, out=sq)
    sq /= -(2.0 * spec.q * spec.q)     # equals (-sq) / (2 q^2) bit for bit
    return np.exp(sq, out=sq)
