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


def test_gram_of_a_list_is_exactly_symmetric():
    # numpy forms X X' as one symmetric update only when both operands
    # are one array; X @ copy(X).T is asymmetric by ~1e-15 at 300 rows
    X = np.random.default_rng(0).normal(size=(300, 5)).tolist()
    for spec in (kernels.KernelSpec(), kernels.KernelSpec("rbf", q=2.0)):
        G = kernels.gram(spec, X)
        np.testing.assert_array_equal(G, G.T)


SPECS = [kernels.KernelSpec(), kernels.KernelSpec(kind="rbf", q=0.7),
         kernels.KernelSpec(kind="rbf", q=0.7, rbf_form="plain-distance")]
SPEC_IDS = ["linear", "rbf-squared", "rbf-plain"]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("bad, match", [
    ([[np.nan, 1.0], [2.0, 3.0]], "non-finite"),
    ([[np.inf, 0.0], [1.0, 2.0]], "non-finite"),
    ([[1.0, -np.inf]], "non-finite"),
    (np.zeros((2, 2, 1)), "2-d"),
    (np.zeros((1, 2, 2)), "2-d"),
], ids=["nan", "inf", "-inf", "rank3", "rank3-one-row"])
def test_gram_rejects_bad_rows(spec, bad, match):
    # a non-finite row once gave a NaN Gram matrix and a RuntimeWarning
    with pytest.raises(DataError, match=match):
        kernels.gram(spec, bad)
    good = np.ones((2, 2))
    with pytest.raises(DataError, match=match):
        kernels.cross_gram(spec, bad, good)
    with pytest.raises(DataError, match=match):
        kernels.cross_gram(spec, good, bad)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@pytest.mark.parametrize("A, B", [
    (np.ones((2, 2)), np.ones((2, 3))),
    ([1.0, 2.0], np.ones((3, 3))),
    (np.ones((0, 2)), np.ones((1, 3))),
], ids=["2-d", "1-d", "empty"])
def test_cross_gram_width_must_match(spec, A, B):
    with pytest.raises(DataError, match="expected 2 features, got 3"):
        kernels.cross_gram(spec, A, B)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_one_d_is_one_row_and_empty_blocks_score(spec):
    rng = np.random.default_rng(6)
    A, B = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
    np.testing.assert_array_equal(kernels.cross_gram(spec, A[1], B),
                                  kernels.cross_gram(spec, A[1:2], B))
    np.testing.assert_array_equal(kernels.cross_gram(spec, A, B[2]),
                                  kernels.cross_gram(spec, A, B[2:3]))
    assert kernels.cross_gram(spec, np.zeros((0, 3)), B).shape == (0, 5)
    assert kernels.cross_gram(spec, A, np.zeros((0, 3))).shape == (4, 0)
    assert kernels.gram(spec, np.zeros((0, 3))).shape == (0, 0)
    assert kernels.gram(spec, A[0]).shape == (1, 1)


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
    # an infinite width would make the Gram matrix all ones; a string, a
    # None or a bool is no width at all
    for q in (float("inf"), "2", None, True):
        with pytest.raises(DataError, match="finite"):
            kernels.KernelSpec(kind="rbf", q=q)


@pytest.mark.parametrize("q", [float("inf"), float("-inf"), float("nan"),
                               "2", None, True])
def test_linear_width_must_be_finite(q):
    # a linear kernel ignores q, but a model file must stay strict JSON
    with pytest.raises(DataError, match="finite"):
        kernels.KernelSpec(kind="linear", q=q)


def test_linear_width_may_be_nonpositive():
    # files written before q was checked for a linear kernel stay loadable
    assert kernels.KernelSpec(kind="linear", q=0.0).q == 0.0
    assert kernels.KernelSpec(kind="linear", q=-1.0).q == -1.0


@pytest.mark.parametrize("form", kernels.RBF_FORMS)
def test_factor_block_matches_direct_reference(form):
    # one product of augmented factors against exp(-sum (a-b)^2 / (2 q^2))
    # (or its unsquared form) from the differences themselves; the product
    # rounds at eps times the norms, so the bound on the exponent scales
    # with them, and through the square root for the plain form
    rng = np.random.default_rng(8)
    A = rng.uniform(-1.0, 1.0, size=(30, 5))
    B = np.vstack([rng.uniform(-1.0, 1.0, size=(20, 5)), A[:5],
                   A[5:10] + rng.normal(scale=1e-3, size=(5, 5))])
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    eps = np.finfo(float).eps
    err_d2 = 64 * eps * np.add.outer((A * A).sum(axis=1),
                                                     (B * B).sum(axis=1))
    for j in range(-7, 8):
        q = 2.0 ** j
        spec = kernels.KernelSpec("rbf", q=q, rbf_form=form)
        if form == "squared-distance":
            exponent, err = d2, err_d2
        else:
            exponent = np.sqrt(d2)
            err = np.minimum(np.sqrt(err_d2),
                             err_d2 / np.maximum(exponent, 1e-300))
        with np.errstate(under="ignore"):
            want = np.exp(-exponent / (2.0 * q * q))
        err = err / (2.0 * q * q)
        got = kernels.cross_gram(spec, A, B)
        assert (got <= 1.0).all()
        # and exp itself rounds, in both
        bound = (np.expm1(err) + 4 * eps) * np.maximum(got, want) + 1e-300
        assert (np.abs(got - want) <= bound).all(), q


@pytest.mark.parametrize("form", kernels.RBF_FORMS)
@pytest.mark.parametrize("q", [0.7, 1.0, 4.0])
def test_cross_gram_of_a_copy_is_clipped(form, q):
    # rounding leaves the product of a point's factors a few ulps from 0
    # on either side; the clip keeps every entry at or below 1.  The plain
    # form's square root turns those ulps into about 1e-8
    X = np.random.default_rng(9).uniform(-1.0, 1.0, size=(200, 8))
    G = kernels.cross_gram(kernels.KernelSpec("rbf", q=q, rbf_form=form),
                           X, X.copy())
    assert G.max() <= 1.0
    atol = 1e-14 if form == "squared-distance" else 1e-7 / (2.0 * q * q)
    np.testing.assert_allclose(np.diag(G), 1.0, rtol=0.0, atol=atol)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_cross_gram_dot_is_the_block_times_v(spec):
    rng = np.random.default_rng(10)
    A, B = rng.normal(size=(7, 3)), rng.normal(size=(5, 3))
    v = rng.normal(size=5)
    np.testing.assert_allclose(kernels.cross_gram_dot(spec, A, B, v),
                               kernels.cross_gram(spec, A, B) @ v,
                               rtol=0.0, atol=1e-14)
    assert kernels.cross_gram_dot(spec, A[0], B, v).shape == (1,)
    assert kernels.cross_gram_dot(spec, np.zeros((0, 3)), B, v).shape == (0,)
    with pytest.raises(DataError, match="expected 3 features, got 2"):
        kernels.cross_gram_dot(spec, np.ones((2, 2)), B, v)
