import math

import numpy as np
import pytest

from kplsvm import kernels
from kplsvm.errors import DataError


def test_linear_dot_product():
    spec = kernels.KernelSpec(kind="linear")
    assert kernels.kernel_value(spec, [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_rbf_default_form_is_squared_distance():
    assert kernels.KernelSpec(kind="rbf", q=1.0).rbf_form == "squared-distance"


def test_rbf_squared_distance_value():
    spec = kernels.KernelSpec(kind="rbf", q=1.0)
    got = kernels.kernel_value(spec, [1.0, 2.0], [3.0, 4.0])
    assert got == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_rbf_plain_distance_value():
    spec = kernels.KernelSpec(kind="rbf", q=1.0, rbf_form="plain-distance")
    got = kernels.kernel_value(spec, [1.0, 2.0], [3.0, 4.0])
    assert got == pytest.approx(math.exp(-math.sqrt(8.0) / 2.0), rel=1e-12)


def test_rbf_diagonal_is_one():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(7, 3))
    for form in kernels.RBF_FORMS:
        G = kernels.gram(kernels.KernelSpec(kind="rbf", q=0.7, rbf_form=form), X)
        np.testing.assert_allclose(np.diag(G), 1.0, atol=1e-14)


def test_gram_symmetric_and_psd():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 4))
    for spec in (
        kernels.KernelSpec(kind="linear"),
        kernels.KernelSpec(kind="rbf", q=1.3),
        kernels.KernelSpec(kind="rbf", q=1.3, rbf_form="plain-distance"),
    ):
        G = kernels.gram(spec, X)
        np.testing.assert_array_equal(G, G.T)
        w = np.linalg.eigvalsh(G)
        assert w.min() >= -1e-9 * max(1.0, w.max())


def test_cross_gram_consistent_with_kernel_value():
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    spec = kernels.KernelSpec(kind="rbf", q=2.0, rbf_form="plain-distance")
    G = kernels.cross_gram(spec, A, B)
    for i in range(4):
        for j in range(5):
            assert G[i, j] == pytest.approx(
                kernels.kernel_value(spec, A[i], B[j]), rel=1e-12)


def test_rejects_bad_configs():
    with pytest.raises(DataError):
        kernels.KernelSpec(kind="poly")
    with pytest.raises(DataError):
        kernels.KernelSpec(kind="rbf", q=0.0)
    with pytest.raises(DataError):
        kernels.KernelSpec(kind="rbf", rbf_form="other")
    with pytest.raises(DataError):
        kernels.cross_gram(
            kernels.KernelSpec(), np.ones((2, 3)), np.ones((2, 4)))


def test_rbf_width_must_be_finite():
    # an infinite width would make the Gram matrix all ones
    with pytest.raises(DataError, match="finite"):
        kernels.KernelSpec(kind="rbf", q=float("inf"))


@pytest.mark.parametrize("q", [float("inf"), float("-inf"), float("nan")])
def test_linear_width_must_be_finite(q):
    # a linear kernel ignores q, but a model file must stay strict JSON
    with pytest.raises(DataError, match="finite"):
        kernels.KernelSpec(kind="linear", q=q)


def test_linear_width_may_be_nonpositive():
    # files written before q was checked for a linear kernel stay loadable
    assert kernels.KernelSpec(kind="linear", q=0.0).q == 0.0
    assert kernels.KernelSpec(kind="linear", q=-1.0).q == -1.0
