import dataclasses
import importlib.util
import io
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from conftest import monk_arrays, monk_dataset
from hypothesis import assume, example, given, settings, strategies as st

from kplsvm import blas, kernels, loss, qp, trainer
from kplsvm.data import Dataset
from kplsvm.datasets import make_standin
from kplsvm.errors import DataError, TrainingError
from kplsvm.kernels import KernelSpec
from kplsvm.loss import LossSpec
from kplsvm.trainer import TrainParams, train

# perfbench's certificate shares no code with kplsvm
_spec = importlib.util.spec_from_file_location(
    "certify", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "certify.py"))
certify = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify)


def blob_pair(seed=3, n_per=8, gap=2.0):
    rng = np.random.default_rng(seed)
    Xp = rng.normal(loc=(gap, gap), size=(n_per, 2))
    Xn = rng.normal(loc=(-gap, -gap), size=(n_per, 2))
    X = np.vstack([Xp, Xn])
    y = np.concatenate([np.ones(n_per), -np.ones(n_per)])
    return X, y


def primal_objective_in_b(model, X, y, C, b):
    """Loss term of the primal objective in b alone, w frozen at the model's."""
    u = 1.0 - y * (model.decision_function(X) - model.bias + b)
    return float(C @ loss.eval_loss(model.loss, u))


@pytest.mark.skipif(not blas.thread_counts(),
                    reason="no loaded OpenBLAS exports "
                           "openblas_set_num_threads_local")
class TestBlasThreadCap:
    @pytest.fixture
    def two_threads(self):
        saved = blas.thread_counts()
        for fn in blas._setters():
            fn(2)
        yield [2] * len(saved)
        for fn, n in zip(blas._setters(), saved):
            fn(n)

    @pytest.fixture
    def solve_counts(self, monkeypatch):
        seen, real = [], qp.solve

        def recording(*args, **kwargs):
            seen.append(blas.thread_counts())
            return real(*args, **kwargs)

        monkeypatch.setattr(qp, "solve", recording)
        return seen

    def test_one_thread_inside_train_and_restored_after(
            self, two_threads, solve_counts):
        X, y = blob_pair()
        params = TrainParams(loss=loss.hinge(), c0=1.0)
        train(X, y, params)
        assert solve_counts == [[1] * len(two_threads)]
        assert blas.thread_counts() == two_threads
        with pytest.raises(TrainingError):
            train(X, np.ones_like(y), params)
        assert blas.thread_counts() == two_threads

    def test_train_on_worker_threads_keeps_main_count(
            self, two_threads, solve_counts):
        X, y = blob_pair()
        params = TrainParams(loss=loss.hinge(), c0=1.0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(train, X, y, params).result(timeout=60)
        assert blas.thread_counts() == two_threads
        # overlapping trains, as a library caller that trains on its own
        # threads: every solve still sees one thread and the last one out
        # restores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(train, X, y, params)
                           for _ in range(16)]
                for fut in futures:
                    fut.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert solve_counts == [[1] * len(two_threads)] * 17
        assert blas.thread_counts() == two_threads


class TestBlasFallback:
    """Where no loaded OpenBLAS exports the entry point, the cap does
    nothing: training and the thread counts still work."""

    @pytest.fixture(autouse=True)
    def fresh_setters(self):
        blas._setters.cache_clear()
        yield
        blas._setters.cache_clear()

    def check_no_cap(self):
        assert blas._setters() == ()
        assert blas.thread_counts() == []
        X, y = blob_pair()
        train(X, y, TrainParams(loss=loss.hinge(), c0=1.0))

    def test_unreadable_process_maps(self, monkeypatch):
        def unreadable(path, *args, **kwargs):
            raise PermissionError(f"cannot open {path}")

        monkeypatch.setattr(blas, "open", unreadable, raising=False)
        self.check_no_cap()

    def test_copies_without_the_entry_point_are_skipped(self, monkeypatch):
        maps = ("7f00-7f10 r-xp 0 08:01 11 /lib/libopenblas.so.0\n"
                "7f20-7f30 r-xp 0 08:01 12 /lib/libmkl_blas.so\n"
                "7f40-7f50 r-xp 0 08:01 13 /lib/libc.so.6\n")
        monkeypatch.setattr(blas, "open", lambda path: io.StringIO(maps),
                            raising=False)
        opened = []

        def cdll(path, mode=0):
            opened.append(path)
            if "mkl" in path:
                raise OSError(f"{path}: cannot load")
            return object()     # no openblas_set_num_threads_local

        monkeypatch.setattr(blas.ctypes, "CDLL", cdll)
        self.check_no_cap()
        assert opened == ["/lib/libmkl_blas.so", "/lib/libopenblas.so.0"]


class TestParamsValidation:
    def test_c0_must_be_positive(self):
        with pytest.raises(TrainingError):
            TrainParams(loss=loss.hinge(), c0=0.0)

    def test_c0_must_be_finite(self):
        # an infinite cap would train into numerical_failure; a string, a
        # None or a bool is no real number
        for bad in (float("inf"), "1", None, True):
            with pytest.raises(TrainingError, match="finite"):
                TrainParams(loss=loss.hinge(), c0=bad)

    def test_threshold_range(self):
        for bad in (1.0, "0.1"):
            with pytest.raises(TrainingError, match="active_threshold"):
                TrainParams(loss=loss.hinge(), c0=1.0, active_threshold=bad)

    def test_qp_tol_positive(self):
        for bad in (0.0, float("inf"), "1e-8"):
            with pytest.raises(TrainingError):
                TrainParams(loss=loss.hinge(), c0=1.0, qp_tol=bad)

    @pytest.mark.parametrize("bad", [0, -3, float("inf"), 2.5,
                                     np.float64(3.0), True])
    def test_max_iter_at_least_one(self, bad):
        # no iteration would leave the solver without an iterate to return,
        # and a float once reached range() as a bare TypeError
        with pytest.raises(TrainingError, match="max_iter"):
            TrainParams(loss=loss.hinge(), c0=1.0, max_iter=bad)

    def test_numpy_integer_max_iter_trains(self):
        X, y = blob_pair()
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1.0,
                                    max_iter=np.int64(50)))
        assert m.diagnostics["qp_status"] == "optimal"

    def test_identity_only_loss_rejected(self):
        with pytest.raises(TrainingError):
            TrainParams(loss=LossSpec(taus=(), epsilons=()), c0=1.0)


class TestTrainBasics:
    def test_symmetric_two_point_pair(self):
        # hard-margin pair on the axis: boundary at 0, zero bias
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=10.0),
                  normalize=False)
        assert m.bias == pytest.approx(0.0, abs=1e-9)
        assert m.predict(X).tolist() == [-1.0, 1.0]
        # boundary sits midway: scores antisymmetric around x=0
        s = m.decision_function(np.array([[-0.5], [0.5]]))
        assert s[0] == pytest.approx(-s[1], abs=1e-9)
        assert s[0] < 0 < s[1]

    @pytest.mark.parametrize("X, y, match", [
        (np.zeros(4), [1.0, -1.0, 1.0, -1.0], "must be \\(l, n\\)"),
        (np.zeros((4, 1)), [[1.0, -1.0, 1.0, -1.0]], "must be \\(l, n\\)"),
        (np.zeros((3, 1)), [1.0, -1.0, 1.0, -1.0], "must be \\(l, n\\)"),
        (np.zeros((1, 1)), [1.0], "at least two"),
        ([["a"], ["b"]], [1.0, -1.0], "real numbers"),
        ([[0.0], [1.0, 2.0]], [1.0, -1.0], "real numbers"),
    ])
    def test_malformed_training_arrays_rejected(self, X, y, match):
        with pytest.raises(TrainingError, match=match):
            train(X, y, TrainParams(loss=loss.hinge(), c0=1.0))

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(TrainingError):
            train(X, np.ones(4), TrainParams(loss=loss.hinge(), c0=1.0))

    def test_bad_labels_rejected(self):
        X, _ = blob_pair()
        y = np.zeros(16)
        with pytest.raises(TrainingError):
            train(X, y, TrainParams(loss=loss.hinge(), c0=1.0))

    def test_nonfinite_features_rejected(self):
        X, y = blob_pair()
        X[0, 0] = np.nan
        with pytest.raises(TrainingError):
            train(X, y, TrainParams(loss=loss.hinge(), c0=1.0))

    def test_predict_dimension_mismatch(self):
        X, y = blob_pair()
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1.0))
        with pytest.raises(DataError):
            m.predict(np.zeros((2, 5)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_predict_nonfinite_features_rejected(self, value):
        # as train rejects them; the score would be NaN, read as -1
        X, y = blob_pair()
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1.0))
        X[3, 1] = value
        with pytest.raises(DataError, match="non-finite"):
            m.predict(X)
        with pytest.raises(DataError, match="non-finite"):
            m.decision_function(X[3])

    def test_score_tie_is_positive(self):
        X, y = blob_pair()
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1.0))
        m.beta = np.zeros_like(m.beta)
        m.bias = 0.0
        assert (m.predict(X) == 1.0).all()

    def test_deterministic_retrain(self):
        X, y = blob_pair(seed=11)
        p = TrainParams(loss=LossSpec(taus=(0.5,), epsilons=(0.3,)), c0=2.0)
        a, b = train(X, y, p), train(X, y, p)
        assert a.bias == b.bias
        assert (a.beta == b.beta).all()

    def test_class_caps_balance(self):
        y = np.array([1.0, 1.0, 1.0, -1.0])
        C = trainer._class_caps(y, 2.0, balance=True)
        assert C.tolist() == [2.0, 2.0, 2.0, 6.0]    # p = 3/1
        C = trainer._class_caps(y, 2.0, balance=False)
        assert C.tolist() == [2.0] * 4

    def test_normalizer_applied_inside_model(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3)) * np.array([1.0, 50.0, 0.01])
        y = np.sign(X[:, 0] + rng.normal(scale=0.1, size=20))
        y[y == 0] = 1.0
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1.0),
                  normalize=True)
        Xn = m.normalizer.apply(X)
        manual = kernels.cross_gram(m.kernel, Xn, m.support_x) @ m.beta + m.bias
        np.testing.assert_allclose(m.decision_function(X), manual, atol=1e-12)
        # support rows are stored normalized: each is a row of Xn
        rows = {tuple(r) for r in Xn}
        assert all(tuple(r) in rows for r in m.support_x)


class TestSolverStatus:
    def test_stall_is_reported_as_stalled(self):
        # no iterate can meet a tolerance of 1e-30: the residuals reach
        # rounding level and stop improving long before the budget ends
        rng = np.random.default_rng(11)
        l = 20
        y = np.where(np.arange(l) % 2 == 0, 1.0, -1.0)
        X = rng.normal(size=(l, 3))
        problem = qp.assemble_dual(y[:, None] * X, y,
                                   rng.uniform(0.5, 2.0, size=l),
                                   LossSpec(taus=(0.4, -0.3),
                                            epsilons=(0.5, 1.5)))
        sol = qp.solve(problem, tol=1e-30, max_iter=200)
        assert sol.status == "stalled"
        assert sol.iterations < 50
        assert max(sol.kkt_residuals.values()) <= 1e-14
        assert all(type(v) is float for v in sol.kkt_residuals.values())

    def test_failed_train_names_plain_residuals(self):
        X, y = blob_pair()
        with pytest.raises(TrainingError, match="max_iter") as err:
            # the polish verifies from this iterate at the default qp_tol;
            # no face meets 1e-30, so the train keeps its max_iter exit
            train(X, y, TrainParams(loss=loss.hinge(), c0=1.0, max_iter=2,
                                    qp_tol=1e-30))
        assert "np.float64" not in str(err.value)
        # the residuals carry the names of the model's own KKT report
        assert "'complementarity_max'" in str(err.value)

    def test_polish_verifies_from_the_start_point(self):
        # max_iter = 1 returns the interior point's start point; the
        # ratio-test polish still reaches the optimal face from it
        X, y = blob_pair()
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1.0, max_iter=1))
        assert m.diagnostics["qp_status"] == "optimal"
        assert m.diagnostics["kkt_max_residual"] <= 1e-6

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_non_finite_first_residuals_fail_as_training_error(self, scale):
        # H overflows, so the first residuals are already not finite and
        # the solve has no finite iterate to return
        X, y = blob_pair()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="numerical_failure"):
                train(X * scale, y, TrainParams(loss=loss.hinge(), c0=1.0),
                      normalize=False)

    def test_haberman_c0_128_cell_certifies(self, standin):
        # haberman stand-in (corpus seed 0, split seed 0, l = 150): this
        # cell ended `stalled` after 15 iterations while complementarity
        # was the mean product; as the largest product it falls steadily,
        # and the solve certifies in 19 iterations
        ds = standin("haberman")
        tr, _ = ds.split
        assert tr.size == 150
        params = TrainParams(loss=LossSpec(taus=(-0.8, 0.0),
                                           epsilons=(0.0, -1.0)),
                             c0=128.0, max_iter=200)
        m = train(ds.X[tr], ds.y[tr], params)
        assert m.diagnostics["qp_status"] == "optimal"
        assert m.diagnostics["kkt_max_residual"] <= 1e-6
        assert m.diagnostics["duality_gap_rel"] <= 1e-5

    @pytest.mark.parametrize("name, corpus_seed, split_seed, taus, eps, c0, q", [
        # labelled optimal by a solver that stopped on its own measure of
        # complementarity, yet over the model's own KKT bound
        ("echocardiogram", 0, 0, (-0.6, -0.8, -0.8), (-3.5, -2.0, -4.0),
         16.0, None),
        ("pima", 2, 0, (0.0,), (1.0,), 64.0, 1.0),
        ("votes", 0, 0, (0.0, 1.0), (-2.5, 5.0), 64.0, None),
        # stopped as `stalled` by the stall counter while still converging
        ("ecoil", 0, 0, (-0.4, -0.4, 0.0), (3.5, -1.5, 2.5), 128.0, None),
        ("australian", 0, 0, (0.0, -0.6), (2.0, -4.0), 128.0, None),
        ("haberman", 1, 0, (0.0,), (0.0,), 128.0, None),     # hinge
        ("haberman", 1, 1, (0.0,), (0.0,), 64.0, None),
    ], ids=["echocardiogram", "pima-seed2-rbf", "votes", "ecoil",
            "australian", "haberman-seed1-split0", "haberman-seed1-split1"])
    def test_standin_cell_certifies(self, standin, name, corpus_seed,
                                    split_seed, taus, eps, c0, q):
        ds = standin(name, corpus_seed=corpus_seed, split_seed=split_seed)
        tr, _ = ds.split
        kernel = KernelSpec() if q is None else KernelSpec(kind="rbf", q=q)
        m = train(ds.X[tr], ds.y[tr],
                  TrainParams(loss=LossSpec(taus=taus, epsilons=eps),
                              c0=c0, kernel=kernel))
        assert m.diagnostics["qp_status"] == "optimal"
        assert m.diagnostics["kkt_max_residual"] <= 1e-6
        assert m.diagnostics["duality_gap_rel"] <= 1e-5

    def test_certificate_sweep(self, standin):
        # 320 seeded draws of k = 3 or 4 pieces, C0 = 2^-7..2^7 and about
        # half RBF kernels over eight stand-ins: every train certifies
        names = ("echocardiogram", "pima", "bupa", "ionosphere",
                 "australian", "votes", "sonar", "ecoil")
        data = {name: standin(name) for name in names}
        tau_grid = np.round(np.linspace(-1.0, 1.0, 11), 10)
        eps_grid = np.linspace(-5.0, 5.0, 21)
        rng = np.random.default_rng(7)
        failed, missed = [], []
        for _ in range(320):
            ds = data[names[rng.integers(8)]]
            k = int(rng.integers(3, 5))
            spec = LossSpec(
                taus=tuple(float(t) for t in rng.choice(tau_grid, k - 1)),
                epsilons=tuple(float(e) for e in rng.choice(eps_grid, k - 1)))
            c0 = 2.0 ** int(rng.integers(-7, 8))
            kernel = (KernelSpec(kind="rbf", q=2.0 ** int(rng.integers(-3, 4)))
                      if rng.random() < 0.5 else KernelSpec())
            cell = (ds.name, spec, c0, kernel)
            tr, _ = ds.split
            try:
                m = train(ds.X[tr], ds.y[tr],
                          TrainParams(loss=spec, c0=c0, kernel=kernel))
            except TrainingError as err:
                failed.append((cell, str(err)))
                continue
            if (m.diagnostics["kkt_max_residual"] > 1e-6
                    or m.diagnostics["duality_gap_rel"] > 1e-5):
                missed.append((cell, m.diagnostics["kkt_report"]))
        assert failed == []
        assert missed == []

    def test_narrow_plain_rbf_cell_certifies_independently(self, standin):
        # the Gram diagonal once missed k(x, x) = 1 by 6e-5 at this width,
        # through the square root of a rounded ||x - x||^2: the model met
        # its own bounds, but the certificate's gap read 9.8e-4
        ds = standin("sonar")
        tr, _ = ds.split
        params = TrainParams(loss=LossSpec((-0.4, 0.4), (0.5, -1.0)),
                             c0=16.0, kernel=KernelSpec(
                                 "rbf", q=2.0 ** -5, rbf_form="plain-distance"))
        m = train(ds.X[tr], ds.y[tr], params)
        assert m.diagnostics["kkt_max_residual"] <= 1e-6
        assert m.diagnostics["duality_gap_rel"] <= 1e-5
        cert = certify.certificate(m, ds.X[tr], ds.y[tr], params.c0)
        assert certify.certified(cert), cert


class TestFactorChoice:
    @pytest.mark.parametrize("kind, n, calls", [
        ("linear", 3, 0),       # thin exact factor diag(y) X
        ("linear", 12, 1),      # n = l: no thinner factor
        ("linear", 15, 1),
        ("rbf", 3, 1),
    ])
    def test_gram_factor_only_without_thin_factor(self, monkeypatch, kind,
                                                  n, calls):
        seen = []
        real = qp.gram_factor

        def counting(H):
            seen.append(H.shape)
            return real(H)

        monkeypatch.setattr(qp, "gram_factor", counting)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, n))
        y = np.where(X[:, 0] + rng.normal(scale=0.5, size=12) > 0, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0
        m = train(X, y, TrainParams(loss=LossSpec((0.4, -0.3), (0.5, 1.5)),
                                    c0=1.0, kernel=KernelSpec(kind)))
        assert seen == [(12, 12)] * calls
        assert m.diagnostics["kkt_max_residual"] <= 1e-6
        assert m.diagnostics["duality_gap_rel"] <= 1e-5

    def test_rbf_train_memory_peak(self):
        # G, W and one Newton matrix K, factored in place: 3.28 l^2 doubles
        # at l = 500.  A copy for dpotrf, or y * W into a fresh array, adds
        # an l^2; holding the last iteration's factor, or an np.triu copy
        # of W to test it for a triangle, adds one more.
        X, y01 = make_standin("spambase", 4601, 56, seed=0)
        l = 500
        params = TrainParams(loss=LossSpec((-0.4, 0.4), (0.5, -1.0)), c0=1.0,
                             kernel=KernelSpec("rbf", q=1.0))
        tracemalloc.start()
        try:
            train(X[:l], np.where(y01[:l] == 1, 1.0, -1.0), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.35 * 8 * l * l


class TestSupportPruning:
    def test_prunes_non_support_points(self):
        X, y = blob_pair(seed=3, gap=3.0)
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=10.0),
                  normalize=False)
        assert m.diagnostics["support_count"] < len(y)
        assert m.support_x.shape[0] == m.diagnostics["support_count"]

    def test_pruning_preserves_scores(self):
        X, y = blob_pair(seed=9, gap=3.0)
        pruned = train(X, y, TrainParams(loss=loss.hinge(), c0=10.0),
                       normalize=False)
        full = train(X, y, TrainParams(loss=loss.hinge(), c0=10.0,
                                       active_threshold=1e-14),
                     normalize=False)
        np.testing.assert_allclose(pruned.decision_function(X),
                                   full.decision_function(X), atol=1e-6)


class TestPredict:
    """A linear model scores through w, an RBF model in row blocks."""

    @staticmethod
    def random_model(kernel, support=300, n=4):
        rng = np.random.default_rng(0)
        return trainer.TrainedModel(
            kernel=kernel, loss=loss.hinge(), c0=1.0,
            support_x=rng.uniform(-1.0, 1.0, size=(support, n)),
            beta=rng.normal(size=support), bias=0.3)

    @pytest.mark.parametrize("kernel", [
        KernelSpec("linear"), KernelSpec("rbf", q=0.7),
        KernelSpec("rbf", q=0.7, rbf_form="plain-distance"),
    ], ids=["linear", "rbf-squared", "rbf-plain"])
    def test_block_boundaries(self, kernel):
        model = self.random_model(kernel)
        rows = kernels._PREDICT_BLOCK_ENTRIES // model.beta.size
        tol = 1e-12 * (1.0 + np.abs(model.beta).sum())
        rng = np.random.default_rng(1)
        for m in (0, 1, rows - 1, rows, rows + 1, 2 * rows + 3):
            X = rng.uniform(-1.0, 1.0, size=(m, 4))
            full = kernels.cross_gram(kernel, X, model.support_x)
            f = model.decision_function(X)
            assert f.shape == (m,)
            np.testing.assert_allclose(f, full @ model.beta + model.bias,
                                       rtol=0.0, atol=tol)

    def test_linear_predict_skips_cross_gram(self, monkeypatch):
        X, y = blob_pair()
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1.0))
        real = kernels.cross_gram
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "cross_gram", counting)
        f = m.decision_function(X)
        assert calls == []
        full = real(m.kernel, m.normalizer.apply(X), m.support_x)
        np.testing.assert_allclose(f, full @ m.beta + m.bias, rtol=0.0,
                                   atol=1e-12 * (1.0 + np.abs(m.beta).sum()))

    @pytest.mark.parametrize("form", ["squared-distance", "plain-distance"])
    def test_rbf_predict_builds_the_support_factor_once(self, form,
                                                        monkeypatch):
        model = self.random_model(KernelSpec("rbf", q=0.7, rbf_form=form))
        rows = kernels._PREDICT_BLOCK_ENTRIES // model.beta.size
        X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2 * rows + 3, 4))
        real = kernels._factor
        sides = []

        def counting(spec, A, support=False):
            sides.append(support)
            return real(spec, A, support)

        monkeypatch.setattr(kernels, "_factor", counting)
        assert model.decision_function(X).shape == (2 * rows + 3,)
        assert sides == [True, False, False, False]

    def test_rbf_predict_memory_is_one_block(self):
        # the full 20,000 x 400 cross-Gram and its distance array: 2 x 64 MB
        model = self.random_model(KernelSpec("rbf", q=0.7), support=400, n=3)
        X = np.random.default_rng(2).uniform(-1.0, 1.0, size=(20_000, 3))
        block_bytes = 8 * kernels._PREDICT_BLOCK_ENTRIES
        tracemalloc.start()
        try:
            f = model.decision_function(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.shape == (20_000,)
        assert peak < 3 * block_bytes

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_input_must_be_one_or_two_d(self, kind, normalize):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1.0,
                                    kernel=KernelSpec(kind)),
                  normalize=normalize)
        for shape in [(2, 3, 1), (2, 1, 3), (1, 2, 3)]:
            with pytest.raises(DataError, match="2-d"):
                m.predict(np.zeros(shape))
        assert m.decision_function(np.zeros((0, 3))).shape == (0,)
        assert m.predict(np.zeros((0, 3))).shape == (0,)
        np.testing.assert_array_equal(m.decision_function(X[5]),
                                      m.decision_function(X[5:6]))
        for bad, match in [(np.full((2, 3), np.nan), "non-finite"),
                           (np.array([1.0, np.inf, 0.0]), "non-finite"),
                           (np.zeros((2, 4)), "expected 3 features, got 4"),
                           (np.zeros(2), "expected 3 features, got 2"),
                           (np.zeros((0, 4)), "expected 3 features, got 4"),
                           ([[0.0, 1.0, "x"]], "real numbers"),
                           ([[0.0, 1.0, 2.0], [0.0]], "real numbers")]:
            with pytest.raises(DataError, match=match):
                m.decision_function(bad)


def phi_at(scores_wo_b, spec, y, C, b):
    return float(C @ loss.eval_loss(spec, 1.0 - y * (scores_wo_b + b)))


def phi_exact(scores_wo_b, spec, y, C, b):
    """phi(b) in exact rational arithmetic on the float inputs."""
    pieces = [(Fraction(a), Fraction(t))
              for a, t in zip(loss.slopes(spec), loss.intercepts(spec))]
    total = Fraction(0)
    for c, yi, g in zip(C, y, scores_wo_b):
        u = 1 - Fraction(yi) * (Fraction(g) + Fraction(b))
        total += Fraction(c) * max(a * u + t for a, t in pieces)
    return total


def bias_line_search(scores_wo_b, spec, y, C):
    """Oracle: evaluate phi(b) at every breakpoint and keep the best.

    phi(b) = sum_i C_i L(1 - y_i (score_i + b)).  The kinks are the
    crossings on the envelope; breakpoints where phi takes its least
    value are optimal, and a flat tail, probed one step beyond the
    extreme breakpoints, extends the optimal set to infinity.  phi is
    evaluated exactly: a tie band in floating point would admit a
    breakpoint a rounding error above the least value, and it can lie
    nearer zero than the unique minimizer.
    """
    _, _, u, value = loss.crossings(spec)
    top = loss.eval_loss(spec, u)
    kinks = np.unique(u[value >= top - 1e-9 * (1.0 + np.abs(top))])
    if not kinks.size:
        return 0.0
    bps = np.unique(np.concatenate(
        [y * (1.0 - u) - scores_wo_b for u in kinks]))

    def phi(b):
        return phi_exact(scores_wo_b, spec, y, C, b)

    vals = [phi(b) for b in bps]
    vmin = min(vals)
    opt = [b for b, v in zip(bps, vals) if v == vmin]
    lo, hi = float(min(opt)), float(max(opt))
    step = 1.0 + (bps.max() - bps.min())
    if phi(bps[0] - step) == vals[0] == vmin:
        lo = -np.inf
    if phi(bps[-1] + step) == vals[-1] == vmin:
        hi = np.inf
    if lo <= 0.0 <= hi:
        return 0.0
    return hi if hi < 0.0 else lo


@st.composite
def bias_problems(draw):
    """(spec, y, C, scores) with k <= 4 and a feasible balance row.

    tau = -1 is parallel to the identity and taus repeat; intercepts of
    about 1e-300 and scores rounded to one decimal make breakpoints
    coincide.
    """
    m = draw(st.integers(1, 3))
    taus = draw(st.tuples(*[st.sampled_from(
        (-1.0, -0.8, -0.5, 0.0, 0.3, 0.8, 1.7))] * m))
    epss = draw(st.tuples(*[st.one_of(
        st.sampled_from((0.0, 1e-300, -1e-300, 9.1e-180)),
        st.floats(-3.0, 3.0).map(lambda v: round(v, 2)))] * m))
    spec = LossSpec(taus=taus, epsilons=epss)
    l = draw(st.integers(2, 12))
    y = np.array([1.0, -1.0] + draw(st.lists(
        st.sampled_from((1.0, -1.0)), min_size=l - 2, max_size=l - 2)))
    C = trainer._class_caps(y, draw(st.sampled_from(
        [2.0 ** p for p in range(-7, 8)])), draw(st.booleans()))
    s = loss.slopes(spec)
    pos, neg = C[y > 0].sum(), C[y < 0].sum()
    assume(max(s.min() * pos - s.max() * neg,
               s.min() * neg - s.max() * pos) <= 0.0)
    score = st.floats(-5.0, 5.0)
    scores = np.array(draw(st.lists(
        st.one_of(score, score.map(lambda v: round(v, 1))),
        min_size=l, max_size=l)))
    return spec, y, C, scores


class TestBiasRecovery:
    @given(bias_problems())
    @example((LossSpec(taus=(0.0, 0.0), epsilons=(0.0, 9.1e-180)),
              np.array([1.0, -1.0, 1.0, -1.0, -1.0]),
              trainer._class_caps(np.array([1.0, -1.0, 1.0, -1.0, -1.0]),
                                  0.05, True),
              np.array([0.3, -0.7, 1.2, 0.1, -0.7])))
    # phi is a rounding error higher at the breakpoint nearer zero, which
    # a floating-point tie band admitted as a minimizer
    @example((LossSpec(taus=(-1.0, -1.0, 0.3), epsilons=(0.0, 0.0, 0.0)),
              np.array([1.0, -1.0, 1.0]), np.full(3, 2.0 ** -7),
              np.array([2.0, -2.9751205174502186e-12, 2.0])))
    @example((LossSpec(taus=(-1.0, 0.0), epsilons=(0.0, 0.0)),
              np.array([1.0, -1.0, 1.0, 1.0]), np.full(4, 2.0 ** -7),
              np.array([0.0, 0.0, 0.0, 6.8434506e-11])))
    @settings(max_examples=300, deadline=None)
    def test_sweep_is_no_worse_than_evaluating_every_breakpoint(
            self, problem):
        spec, y, C, scores = problem
        b = trainer.recover_bias(scores, spec, y, C)
        ob = bias_line_search(scores, spec, y, C)
        phi, ophi = (phi_at(scores, spec, y, C, v) for v in (b, ob))
        tol = 1e-12 * (1.0 + abs(ophi))
        assert phi <= ophi + tol
        if abs(phi - ophi) <= tol:
            # the oracle's tolerance may admit a breakpoint a few ulps
            # nearer zero than the exact minimizer
            assert abs(b) <= abs(ob) + 1e-12 * (1.0 + abs(ob))

    def test_hinge_margin_vector_formula(self):
        # Case A with tau=0, eps=0 degenerates to b = y_j - sum beta k(.,x_j)
        X, y = blob_pair(seed=3)
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=10.0),
                  normalize=False)
        g = m.decision_function(X) - m.bias
        C = trainer._class_caps(y, 10.0, True)
        G = kernels.gram(KernelSpec(), X)
        H = G * np.outer(y, y)
        sol = qp.solve(qp.assemble_dual(qp.gram_factor(H), y, C,
                                        loss.hinge()))
        blocks = sol.z.reshape(2, y.size)
        interior = (blocks > 1e-6 * C).all(axis=0)
        assert interior.any()
        for j in np.flatnonzero(interior):
            assert y[j] - g[j] == pytest.approx(m.bias, abs=1e-6)

    def test_case_a_and_case_b_agree(self):
        # 2 identity+piece and 1 piece+piece complementary-slackness
        # candidates at this frozen instance; every one must equal the
        # bias, which must be the primal minimizer in b
        X = np.array([
            [0.18905338, -0.52274844],
            [-0.41306354, -2.44146738],
            [1.79970738, 1.14416587],
            [-0.32542284, 0.77380659],
            [0.28121067, -0.55382284],
            [0.97756745, -0.31055655],
        ])
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        spec = LossSpec(taus=(2.0, -0.5), epsilons=(1.0, 0.2))
        c0 = 2.0
        m = train(X, y, TrainParams(loss=spec, c0=c0), normalize=False)

        C = trainer._class_caps(y, c0, True)
        G = kernels.gram(KernelSpec(), X)
        H = G * np.outer(y, y)
        sol = qp.solve(qp.assemble_dual(qp.gram_factor(H), y, C, spec))
        blocks = sol.z.reshape(3, 6)
        active = blocks > 1e-6 * C
        g = m.decision_function(X) - m.bias

        case_a, case_b = [], []
        for j in range(6):
            for mm, (tau, eps) in enumerate(zip(spec.taus, spec.epsilons)):
                if active[0, j] and active[mm + 1, j]:
                    case_a.append(y[j] * (1 - eps / (1 + tau)) - g[j])
            if active[1, j] and active[2, j]:
                u = (spec.epsilons[1] - spec.epsilons[0]) / (
                    spec.taus[1] - spec.taus[0])
                case_b.append(y[j] * (1 - u) - g[j])
        assert len(case_a) >= 2 and len(case_b) >= 1
        for cand in case_a + case_b:
            assert cand == pytest.approx(m.bias, abs=1e-6)

        # brute-force primal cross-check: no b beats the recovered one
        bs = m.bias + np.linspace(-0.5, 0.5, 2001)
        vals = [primal_objective_in_b(m, X, y, C, b) for b in bs]
        assert primal_objective_in_b(m, X, y, C, m.bias) <= min(vals) + 1e-8

    def test_fallback_line_search_when_saturated(self):
        # C so small every multiplier caps out: no sample sits at a kink,
        # and the bias must still be the exact primal minimizer
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 2))
        y = np.array([1.0] * 5 + [-1.0] * 5)
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1e-4),
                  normalize=False)
        C = trainer._class_caps(y, 1e-4, True)
        g = m.decision_function(X) - m.bias
        assert m.bias == bias_line_search(g, loss.hinge(), y, C)
        bs = np.linspace(-3, 3, 6001)
        vals = np.array([primal_objective_in_b(m, X, y, C, b) for b in bs])
        assert primal_objective_in_b(m, X, y, C, m.bias) <= vals.min() + 1e-12

    def test_fallback_prefers_zero_on_flat_optimum(self):
        scores = np.array([5.0, -5.0])   # both margins saturated either way
        y = np.array([1.0, -1.0])
        b = trainer.recover_bias(scores, loss.hinge(), y,
                                 np.array([1.0, 1.0]))
        assert b == 0.0

    def test_no_kink_gives_zero(self):
        # the piece is parallel to the identity within the crossing
        # tolerance, so the loss table has no kink, yet its slope differs
        spec = LossSpec(taus=(-1.0 + 1e-10,), epsilons=(0.5,))
        assert loss.kinks(spec)[0].size == 0
        y = np.array([1.0, -1.0, 1.0, -1.0, -1.0])
        C = trainer._class_caps(y, 1.0, True)
        scores = np.array([0.3, -0.7, 1.2, 0.1, -0.7])
        assert trainer.recover_bias(scores, spec, y, C) == 0.0


class TestKktReport:
    def fit_with_internals(self, spec, c0, seed=3):
        X, y = blob_pair(seed=seed)
        C = trainer._class_caps(y, c0, True)
        G = kernels.gram(KernelSpec(), X)
        problem = qp.assemble_dual(qp.gram_factor(G * np.outer(y, y)), y,
                                   C, loss.canonical(spec))
        sol = qp.solve(problem)
        s = problem.combined(sol.z)
        scores = G @ (s * y)
        b = trainer.recover_bias(scores, loss.canonical(spec), y, C)
        return sol, problem, loss.canonical(spec), y, C, scores, b

    def test_clean_fit_passes_thresholds(self):
        sol, problem, spec, y, _, scores, b = self.fit_with_internals(
            loss.hinge(), 5.0)
        report = trainer.verify_kkt(sol, problem, spec, y, scores, b)
        assert max(report.values()) <= 1e-6
        assert report["stationarity_xi"] <= 1e-8    # per-sample cap rows

    def test_perturbation_is_detected(self):
        sol, problem, spec, y, C, scores, b = self.fit_with_internals(
            LossSpec(taus=(0.5,), epsilons=(0.2,)), 2.0)
        z_bad = sol.z.copy()
        z_bad[0] += 0.1
        # the scores G(s o y) = y o (H s) that the perturbed point implies
        scores_bad = y * problem.h_mul(problem.combined(z_bad))
        report = trainer.verify_kkt(dataclasses.replace(sol, z=z_bad),
                                    problem, spec, y, scores_bad, b)
        assert report["complementarity_max"] > 1e-3

    def test_residuals_match_per_piece_loop(self):
        sol, problem, spec, y, C, _, b = self.fit_with_internals(
            LossSpec(taus=(0.5, -0.3), epsilons=(0.2, 1.0)), 2.0)
        l = y.size
        rng = np.random.default_rng(11)
        for block in range(spec.k):
            # one large block dominates the complementarity residual
            z = rng.uniform(0.0, 1e-3, spec.k * l)
            z[block * l:(block + 1) * l] = rng.uniform(0.5, 1.5, l)
            z[block] = -0.01
            scores = rng.normal(size=l)
            report = trainer.verify_kkt(dataclasses.replace(sol, z=z),
                                        problem, spec, y, scores, b)
            # oracle: the identity piece, then one loop pass per piece
            blocks = z.reshape(spec.k, l)
            u = 1.0 - y * (scores + b)
            xi = loss.eval_loss(spec, u)
            comp = np.abs(blocks[0] * (xi - u)) / (1.0 + C)
            feas = 0.0
            for m, (tau, eps) in enumerate(zip(spec.taus, spec.epsilons)):
                piece = -tau * u + eps
                comp = np.maximum(
                    comp, np.abs(blocks[m + 1] * (xi - piece)) / (1.0 + C))
                feas = max(feas, float((piece - xi).max()))
            assert report["complementarity_max"] == float(comp.max())
            assert report["primal_feasibility_max"] == max(0.0, feas, 0.01)

    def test_xi_is_loss_at_margin(self):
        X, y = blob_pair(seed=5)
        spec = LossSpec(taus=(0.5,), epsilons=(0.3,))
        m = train(X, y, TrainParams(loss=spec, c0=1.0), normalize=False)
        # the primal's slacks are the loss at the model's own margins
        C = trainer._class_caps(y, 1.0, True)
        norm_w_sq = m.beta @ (m.decision_function(m.support_x) - m.bias)
        xi = loss.eval_loss(spec, 1.0 - y * m.decision_function(X))
        assert m.diagnostics["primal_objective"] == pytest.approx(
            0.5 * norm_w_sq + C @ xi, rel=1e-12)

    def test_duality_gap_small_on_monk(self):
        Xtr, ytr, _, _ = monk_arrays(3)
        m = train(Xtr, ytr, TrainParams(loss=loss.hinge(), c0=0.125))
        assert m.diagnostics["duality_gap_rel"] <= 1e-5
        assert m.diagnostics["kkt_max_residual"] <= 1e-6


class TestReductionEquivalence:
    def test_zeros_spec_equals_hinge_on_monk1(self):
        rep = trainer.reduction_equivalence(monk_dataset(1), 0.0625)
        assert rep["hinge_predictions_match"]
        assert rep["hinge_objective_reldiff"] <= 1e-6

    def test_pinball_embedding_on_monk2(self):
        rep = trainer.reduction_equivalence(monk_dataset(2), 0.0078,
                                            tau=-0.6)
        assert rep["pinball_predictions_match"]
        assert rep["pinball_objective_reldiff"] <= 1e-6

    def test_requires_split(self):
        ds = Dataset(X=np.zeros((4, 2)),
                     y=np.array([1.0, 1.0, -1.0, -1.0]), name="nosplit")
        with pytest.raises(TrainingError):
            trainer.reduction_equivalence(ds, 1.0)


class TestReferenceAccuracies:
    """Frozen-draw counterparts of the published linear-kernel rows."""

    def accuracy(self, which, spec, c0):
        Xtr, ytr, Xte, yte = monk_arrays(which)
        m = train(Xtr, ytr, TrainParams(loss=spec, c0=c0))
        return 100.0 * (m.predict(Xte) == yte).mean()

    def test_monk3_hinge(self):
        assert self.accuracy(3, loss.hinge(), 0.125) == pytest.approx(
            82.639, abs=2.0)

    def test_monk3_three_piece(self):
        spec = LossSpec(taus=(-0.4, 1.0), epsilons=(0.5, -3.5))
        assert self.accuracy(3, spec, 0.125) == pytest.approx(88.889, abs=2.0)

    def test_monk1_three_piece(self):
        spec = LossSpec(taus=(1.0, -0.6), epsilons=(1.5, 1.0))
        assert self.accuracy(1, spec, 0.0625) == pytest.approx(70.139, abs=2.0)


class TestRobustnessBound:
    def test_outlier_coefficient_is_capped(self):
        rng = np.random.default_rng(0)
        X, y = blob_pair(seed=0, n_per=10)
        X[0] = (100.0, 100.0)    # far outlier, label stays +1
        spec = LossSpec(taus=(0.5, -0.8), epsilons=(0.4, 1.0))
        c0 = 2.0
        C = trainer._class_caps(y, c0, True)
        G = kernels.gram(KernelSpec(), X)
        H = G * np.outer(y, y)
        sol = qp.solve(qp.assemble_dual(qp.gram_factor(H), y, C, spec))
        s = np.abs(sol.z.reshape(3, y.size) * 0
                   + sol.z.reshape(3, y.size))
        combined = np.array([1.0, -0.5, 0.8]) @ sol.z.reshape(3, y.size)
        bound = C * max(1.0, *(abs(t) for t in spec.taus))
        assert (np.abs(combined) <= bound + 1e-9).all()


@st.composite
def loss_specs(draw):
    k = draw(st.integers(min_value=1, max_value=2))
    taus = draw(st.lists(
        st.floats(min_value=-0.95, max_value=3.0), min_size=k, max_size=k))
    epss = draw(st.lists(
        st.floats(min_value=-1.0, max_value=2.0), min_size=k, max_size=k))
    return LossSpec(taus=tuple(taus), epsilons=tuple(epss))


class TestTrainProperties:
    @given(spec=loss_specs(),
           seed=st.integers(min_value=0, max_value=50),
           c0=st.sampled_from([0.05, 0.5, 5.0]))
    # two kinks 9.1e-180 apart: a bias rule that gave each kink the whole
    # subgradient width would count the slope change twice
    @example(spec=LossSpec(taus=(0.0, 0.0), epsilons=(0.0, 9.1e-180)),
             seed=0, c0=0.05)
    @settings(max_examples=25, deadline=None)
    def test_trained_model_is_certified(self, spec, seed, c0):
        rng = np.random.default_rng(seed)
        l = int(rng.integers(4, 12))
        X = rng.normal(size=(l, 2))
        y = np.where(rng.random(l) < 0.5, 1.0, -1.0)
        y[0], y[1] = 1.0, -1.0          # both classes always present
        m = train(X, y, TrainParams(loss=spec, c0=c0), normalize=False)
        assert m.diagnostics["kkt_max_residual"] <= 1e-6
        assert m.diagnostics["duality_gap_rel"] <= 1e-5
        assert np.isfinite(m.bias)
        C = trainer._class_caps(y, c0, True)
        bound = C * max([1.0] + [abs(t) for t in spec.taus])
        # model keeps only support rows; bound applies to each coefficient
        assert (np.abs(m.beta) <= bound.max() + 1e-9).all()
        assert set(np.unique(m.predict(X))) <= {-1.0, 1.0}
