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

from .errors import DataError

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
        if not np.isfinite(self.q):
            raise DataError("kernel width q must be finite")
        if self.kind == "rbf" and not self.q > 0:
            raise DataError("rbf width q must be positive")


def _as_2d(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DataError(f"expected 2-d sample array, got shape {arr.shape}")
    return arr


def kernel_value(spec: KernelSpec, x, y) -> float:
    """k(x, y) for single vectors."""
    return float(cross_gram(spec, _as_2d(x), _as_2d(y))[0, 0])


def gram(spec: KernelSpec, X) -> np.ndarray:
    """Gram matrix of one sample set.

    It is exactly symmetric: the product X X' is formed as one
    symmetric rank-k update, and the RBF forms add the squared norms
    symmetrically.
    """
    X = _as_2d(X)
    return cross_gram(spec, X, X)


def cross_gram(spec: KernelSpec, A, B) -> np.ndarray:
    """Gram block k(A_i, B_j), shape (len(A), len(B))."""
    A = _as_2d(A)
    B = _as_2d(B)
    if A.shape[1] != B.shape[1]:
        raise DataError(
            f"feature dimensions differ: {A.shape[1]} vs {B.shape[1]}")
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
