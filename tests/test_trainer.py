import dataclasses
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kplsvm import blas, datasets, kernels, loss, qp, trainer
from kplsvm.data import Dataset, split_dataset
from kplsvm.errors import DataError, TrainingError
from kplsvm.kernels import KernelSpec
from kplsvm.loss import LossSpec
from kplsvm.trainer import TrainParams, train


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


def monk_arrays(which):
    Xtr, ytr01, Xte, yte01 = datasets.make_monk(which)
    return (Xtr, np.where(ytr01 == 0, -1.0, 1.0),
            Xte, np.where(yte01 == 0, -1.0, 1.0))


def monk_dataset(which):
    Xtr, ytr, Xte, yte = monk_arrays(which)
    ntr = len(ytr)
    return Dataset(X=np.vstack([Xtr, Xte]), y=np.concatenate([ytr, yte]),
                   name=f"monk{which}",
                   split=(np.arange(ntr), np.arange(ntr, ntr + len(yte))))


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
        # overlapping trains, as modelsel runs them with jobs > 1: every
        # solve still sees one thread and the last one out restores
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


class TestParamsValidation:
    def test_c0_must_be_positive(self):
        with pytest.raises(TrainingError):
            TrainParams(loss=loss.hinge(), c0=0.0)

    def test_threshold_range(self):
        with pytest.raises(TrainingError):
            TrainParams(loss=loss.hinge(), c0=1.0, active_threshold=1.0)

    def test_qp_tol_positive(self):
        with pytest.raises(TrainingError):
            TrainParams(loss=loss.hinge(), c0=1.0, qp_tol=0.0)

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


class TestSolverStatus:
    def test_stall_is_reported_as_stalled(self):
        # haberman stand-in (corpus seed 0, split seed 0, l = 150): the
        # interior point stops improving after 15 iterations, far below
        # its 200-iteration budget, so the failure is a stall
        row = next(r for r in datasets.CORPUS_TABLE if r.name == "haberman")
        X, y01 = datasets.make_standin("haberman", row.rows, row.features,
                                       seed=0, binary=row.binary)
        y = y01 * 2.0 - 1.0
        tr, _ = split_dataset(Dataset(X, y), row.n_train, seed=0)
        assert tr.size == 150
        params = TrainParams(loss=LossSpec(taus=(-0.8, 0.0),
                                           epsilons=(0.0, -1.0)),
                             c0=128.0, max_iter=200)
        with pytest.raises(TrainingError, match="'stalled'"):
            train(X[tr], y[tr], params)


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


def recover_bias_per_sample(z, scores_wo_b, spec, y, C, threshold, mu=None):
    """Oracle: the per-sample candidate loop with its two formulas."""
    l, k = y.size, spec.k
    blocks = z.reshape(k, l)
    active = blocks > threshold * C[None, :]
    if mu is not None:
        active &= blocks > mu.reshape(k, l)
    taus, epss = spec.taus, spec.epsilons
    cands = []
    for j in range(l):
        if active[0, j]:
            for m in range(k - 1):
                if active[m + 1, j] and abs(1.0 + taus[m]) >= 1e-9:
                    u = epss[m] / (1.0 + taus[m])
                    cands.append(y[j] * (1.0 - u) - scores_wo_b[j])
        for m1, m2 in itertools.combinations(range(k - 1), 2):
            if active[m1 + 1, j] and active[m2 + 1, j] \
                    and abs(taus[m2] - taus[m1]) >= 1e-9:
                u = (epss[m2] - epss[m1]) / (taus[m2] - taus[m1])
                cands.append(y[j] * (1.0 - u) - scores_wo_b[j])
    if cands:
        return float(np.mean(cands)), len(cands), False
    return trainer._bias_line_search(scores_wo_b, spec, y, C), 0, True


class TestBiasRecovery:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_per_sample_oracle_bit_for_bit(self, k):
        # tau = -1 is parallel to the identity; repeated taus are parallel
        # to each other.  A candidate mean sums in order, so a change of
        # candidate order shows in the last bits.
        rng = np.random.default_rng(100 + k)
        routes = set()
        for _ in range(60):
            l = int(rng.integers(3, 12))
            spec = LossSpec(
                taus=tuple(rng.choice([-1.0, -0.5, 0.0, 0.3, 0.3, 1.7], k - 1)),
                epsilons=tuple(rng.uniform(-2.0, 2.0, k - 1)))
            y = np.where(rng.random(l) < 0.5, 1.0, -1.0)
            y[:2] = (1.0, -1.0)
            C = rng.uniform(0.5, 2.0, l)
            z = rng.uniform(0.0, 1.0, (k, l)) * C
            z[rng.random((k, l)) < rng.uniform(0.2, 0.9)] = 0.0
            mu = (None if rng.random() < 0.3
                  else rng.uniform(0.0, 0.4, (k, l)).ravel())
            scores = rng.normal(size=l)
            args = (z.ravel(), scores, spec, y, C, 1e-6, mu)
            b, n, fallback = trainer.recover_bias(*args)
            ob, on, ofallback = recover_bias_per_sample(*args)
            assert (b.hex(), n, fallback) == (ob.hex(), on, ofallback)
            routes.add("fallback" if fallback else min(n, 2))
        assert routes == {"fallback", 1, 2}

    def test_hinge_margin_vector_formula(self):
        # Case A with tau=0, eps=0 degenerates to b = y_j - sum beta k(.,x_j)
        X, y = blob_pair(seed=3)
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=10.0),
                  normalize=False)
        g = m.decision_function(X) - m.bias
        C = trainer._class_caps(y, 10.0, True)
        G = kernels.gram(KernelSpec(), X)
        H = G * np.outer(y, y)
        sol = qp.solve(qp.assemble_dual(H, y, C, loss.hinge()))
        blocks = sol.z.reshape(2, y.size)
        interior = (blocks > 1e-6 * C).all(axis=0)
        assert interior.any()
        for j in np.flatnonzero(interior):
            assert y[j] - g[j] == pytest.approx(m.bias, abs=1e-6)

    def test_case_a_and_case_b_agree(self):
        # 2 identity+piece candidates and 1 piece+piece candidate at this
        # frozen instance; every one must equal the averaged bias, and the
        # average must be the primal minimizer in b
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
        sol = qp.solve(qp.assemble_dual(G * np.outer(y, y), y, C, spec))
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
        assert m.diagnostics["bias_candidates_used"] == len(case_a) + len(case_b)

        # brute-force primal cross-check: no b beats the recovered one
        bs = m.bias + np.linspace(-0.5, 0.5, 2001)
        vals = [primal_objective_in_b(m, X, y, C, b) for b in bs]
        assert primal_objective_in_b(m, X, y, C, m.bias) <= min(vals) + 1e-8

    def test_fallback_line_search_when_saturated(self):
        # C so small every multiplier caps out: no candidate exists and the
        # fallback must still return the exact primal minimizer
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 2))
        y = np.array([1.0] * 5 + [-1.0] * 5)
        m = train(X, y, TrainParams(loss=loss.hinge(), c0=1e-4),
                  normalize=False)
        assert m.diagnostics["bias_fallback"]
        assert m.diagnostics["bias_candidates_used"] == 0
        C = trainer._class_caps(y, 1e-4, True)
        bs = np.linspace(-3, 3, 6001)
        vals = np.array([primal_objective_in_b(m, X, y, C, b) for b in bs])
        assert primal_objective_in_b(m, X, y, C, m.bias) <= vals.min() + 1e-12

    def test_fallback_prefers_zero_on_flat_optimum(self):
        scores = np.array([5.0, -5.0])   # both margins saturated either way
        y = np.array([1.0, -1.0])
        b = trainer._bias_line_search(scores, loss.hinge(), y,
                                      np.array([1.0, 1.0]))
        assert b == 0.0


class TestKktReport:
    def fit_with_internals(self, spec, c0, seed=3):
        X, y = blob_pair(seed=seed)
        C = trainer._class_caps(y, c0, True)
        G = kernels.gram(KernelSpec(), X)
        problem = qp.assemble_dual(G * np.outer(y, y), y, C,
                                   loss.canonical(spec))
        sol = qp.solve(problem)
        s = problem.combined(sol.z)
        scores = G @ (s * y)
        b, _, _ = trainer.recover_bias(sol.z, scores, loss.canonical(spec),
                                       y, C, 1e-6)
        return sol, problem, loss.canonical(spec), y, C, scores, b

    def test_clean_fit_passes_thresholds(self):
        args = self.fit_with_internals(loss.hinge(), 5.0)
        report = trainer.verify_kkt(*args)
        assert report.max_residual <= 1e-6
        assert report.stationarity_xi <= 1e-8       # per-sample cap rows
        assert np.isfinite(report.xi).all()
        assert (report.xi >= -1e-12).all()

    def test_perturbation_is_detected(self):
        sol, problem, spec, y, C, scores, b = self.fit_with_internals(
            LossSpec(taus=(0.5,), epsilons=(0.2,)), 2.0)
        z_bad = sol.z.copy()
        z_bad[0] += 0.1
        report = trainer.verify_kkt(sol, problem, spec, y, C, scores, b,
                                    z_override=z_bad)
        assert report.complementarity_max > 1e-3

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
                                        problem, spec, y, C, scores, b)
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
            assert report.complementarity_max == float(comp.max())
            assert report.primal_feasibility_max == max(0.0, feas, 0.01)
            np.testing.assert_array_equal(report.xi, xi)

    def test_xi_is_loss_at_margin(self):
        X, y = blob_pair(seed=5)
        spec = LossSpec(taus=(0.5,), epsilons=(0.3,))
        m = train(X, y, TrainParams(loss=spec, c0=1.0), normalize=False)
        report = m.diagnostics["kkt_report"]
        u = 1.0 - y * m.decision_function(X)
        np.testing.assert_allclose(report.xi, loss.eval_loss(spec, u),
                                   atol=1e-12)

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
        sol = qp.solve(qp.assemble_dual(G * np.outer(y, y), y, C, spec))
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
