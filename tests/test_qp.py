import numpy as np
import pytest
import scipy.optimize

from kplsvm import kernels, loss, qp, trainer
from kplsvm.data import fit_normalizer
from kplsvm.errors import InfeasibleError, SolverError, TrainingError


def dense_qa(problem):
    """Dense Q and A of the dual, built from its definition.

    With D the (k*l, l) stack of block_coeffs[m] * I and W the factor
    of H, Q = D (W W') D' + reg I; A stacks the balance row y'D' over the
    l simplex rows [I, ..., I].
    """
    l, coeffs = problem.y.size, problem.block_coeffs
    D = np.kron(coeffs[:, None], np.eye(l))
    Q = D @ (problem.W @ problem.W.T) @ D.T
    Q += problem.reg * np.eye(Q.shape[0])
    A = np.vstack([(D @ problem.y)[None, :],
                   np.tile(np.eye(l), coeffs.size)])
    return Q, A


def assert_kkt_certificate(problem, sol, tol=1e-6):
    """Independently certify optimality from the returned triple.

    For a convex QP, near-zero KKT residuals are a proof of
    near-optimality, so this recomputation (dense, from scratch) is a
    solver-independent oracle.
    """
    Q, A = dense_qa(problem)
    z, nu, mu = sol.z, sol.nu, sol.mu
    scale = 1.0 + np.abs(Q @ z).max() + np.abs(problem.c).max()
    assert z.min() >= -1e-9
    assert mu.min() >= -1e-9
    assert np.abs(A @ z - problem.b).max() <= tol * (1 + np.abs(problem.b).max())
    assert np.abs(Q @ z + problem.c - A.T @ nu - mu).max() <= tol * scale
    assert abs(z @ mu) <= tol * z.size * (1 + abs(sol.objective))


def slsqp_objective(problem, seed=0):
    """Reference objective from a generic NLP solver (independent route)."""
    Q, A = dense_qa(problem)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(3):
        x0 = np.abs(rng.normal(size=problem.n))
        res = scipy.optimize.minimize(
            lambda z: 0.5 * z @ Q @ z + problem.c @ z,
            x0,
            jac=lambda z: Q @ z + problem.c,
            bounds=[(0, None)] * problem.n,
            constraints={"type": "eq", "fun": lambda z: A @ z - problem.b},
            method="SLSQP",
            options={"maxiter": 400, "ftol": 1e-12},
        )
        if res.success:
            best = min(best, res.fun)
    return best


def toy_dual(spec, y, C, X=None, seed=0):
    y = np.asarray(y, dtype=float)
    if X is None:
        X = np.random.default_rng(seed).normal(size=(y.size, 2))
    H = (X @ X.T) * np.outer(y, y)
    return qp.assemble_dual(qp.gram_factor(H), y,
                            np.asarray(C, dtype=float), spec)


class TestStructuredAssembly:
    def test_hinge_cost_vector_blocks(self):
        problem = toy_dual(loss.hinge(), y=[1, -1], C=[1.0, 1.0])
        np.testing.assert_array_equal(problem.c[:2], [-1.0, -1.0])
        np.testing.assert_array_equal(problem.c[2:], [0.0, 0.0])

    def test_single_sample_q_block_structure(self):
        tau = 0.7
        spec = loss.LossSpec(taus=(tau,), epsilons=(0.3,))
        y = np.array([1.0])
        H = np.array([[2.5]])
        problem = qp.assemble_dual(qp.gram_factor(H), y, np.array([1.0]), spec)
        Q, _ = dense_qa(problem)
        expected = 2.5 * np.array([[1.0, -tau], [-tau, tau * tau]])
        np.testing.assert_allclose(Q - np.diag(np.diag(Q) - np.diag(expected)),
                                   expected)
        # regularization only touches the diagonal and stays tiny
        assert np.abs(np.diag(Q) - np.diag(expected)).max() <= 1e-9

    def test_equality_rows(self):
        problem = toy_dual(loss.pinball(0.5), y=[1, -1, 1], C=[2.0, 1.0, 2.0])
        _, A = dense_qa(problem)
        assert A.shape == (4, 6)
        np.testing.assert_array_equal(A[0], [1, -1, 1, -0.5, 0.5, -0.5])
        np.testing.assert_array_equal(A[1:, :3], np.eye(3))
        np.testing.assert_array_equal(A[1:, 3:], np.eye(3))
        np.testing.assert_array_equal(problem.b, [0.0, 2.0, 1.0, 2.0])

    def test_infeasible_combination_raises(self):
        # all block coefficients positive + imbalanced caps: the
        # balance row cannot be met
        with pytest.raises(InfeasibleError) as err:
            toy_dual(loss.pinball(-0.5), y=[1, 1, 1, -1], C=[10, 10, 10, 1])
        assert err.value.certificate > 0

    @pytest.mark.parametrize("W, C, match", [
        (np.ones((3, 2)), [1.0] * 4, "inconsistent"),      # W rows
        (np.ones(4), [1.0] * 4, "inconsistent"),           # W 1-d
        (np.ones((4, 2)), [1.0] * 3, "inconsistent"),      # C size
        (np.ones((4, 2)), [1.0, 1.0, 0.0, 1.0], "positive"),
        (np.ones((4, 2)), [1.0, -2.0, 1.0, 1.0], "positive"),
    ])
    def test_malformed_inputs_raise(self, W, C, match):
        with pytest.raises(ValueError, match=match):
            qp.assemble_dual(W, [1.0, -1.0, 1.0, -1.0], C, loss.hinge())

    def test_matrix_free_operators_match_dense(self):
        rng = np.random.default_rng(5)
        spec = loss.LossSpec(taus=(0.3, -0.6), epsilons=(1.0, -0.5))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        X = rng.normal(size=(5, 3))
        H = (X @ X.T) * np.outer(y, y)
        problem = qp.assemble_dual(qp.gram_factor(H), y, np.full(5, 2.0), spec)
        z = rng.normal(size=problem.n)
        w = rng.normal(size=problem.m_eq)
        Q, A = dense_qa(problem)
        np.testing.assert_allclose(problem.q_mul(z), Q @ z, atol=1e-10)
        np.testing.assert_allclose(problem.a_mul(z), A @ z, atol=1e-12)
        np.testing.assert_allclose(problem.at_mul(w), A.T @ w, atol=1e-12)


class TestNewtonFactor:
    @pytest.mark.parametrize("k_extra", [1, 2, 3])
    @pytest.mark.parametrize("thin", [True, False], ids=["thin", "square"])
    def test_step_solves_dense_newton_system(self, k_extra, thin):
        # the block elimination against the dense Newton system, with
        # d = mu/z over four decades; each row's residual is measured
        # against that row's scale (a backward error)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            l = 12
            spec = loss.LossSpec(taus=tuple(rng.uniform(-0.9, 1.0, k_extra)),
                                 epsilons=tuple(rng.uniform(-2, 2, k_extra)))
            y = np.where(np.arange(l) % 2 == 0, 1.0, -1.0)
            X = rng.normal(size=(l, 3))
            if thin:
                W = y[:, None] * X
            else:
                G = kernels.gram(kernels.KernelSpec("rbf"), X)
                W = qp.gram_factor(G * np.outer(y, y))
            problem = qp.assemble_dual(W, y, rng.uniform(0.5, 2.0, size=l),
                                       spec)
            d = 10.0 ** rng.uniform(-2, 2, size=problem.n)
            r1 = rng.normal(size=problem.n)
            r2 = rng.normal(size=problem.m_eq)
            dz, dnu = qp._factorize(problem, d)(r1, r2)

            Q, A = dense_qa(problem)
            M = np.block([[Q + np.diag(d), -A.T],
                          [A, np.zeros((problem.m_eq, problem.m_eq))]])
            x = np.concatenate((dz, dnu))
            rhs = np.concatenate((r1, r2))
            res = np.abs(M @ x - rhs)
            scale = np.abs(M).max(axis=1) * np.abs(x).max() + np.abs(rhs)
            assert (res / scale).max() <= 1e-9


class TestTriangularFactor:
    """A lower-triangular W forms K from its triangle (dlauum, dsyr)."""

    @staticmethod
    def rbf_problem(k_extra, rotate=False, seed=0, l=15):
        rng = np.random.default_rng(seed)
        spec = loss.LossSpec(taus=tuple(rng.uniform(-0.9, 1.0, k_extra)),
                             epsilons=tuple(rng.uniform(-2, 2, k_extra)))
        y = np.where(np.arange(l) % 3 == 0, 1.0, -1.0)
        G = kernels.gram(kernels.KernelSpec("rbf"), rng.normal(size=(l, 3)))
        W = y[:, None] * qp.gram_factor(G)
        if rotate:      # H = WQ(WQ)' is unchanged; WQ is not triangular
            W = W @ np.linalg.qr(rng.normal(size=(l, l)))[0]
        C = rng.uniform(0.5, 2.0, size=l)
        return qp.assemble_dual(W, y, C, spec), rng

    @pytest.mark.parametrize("k_extra", [1, 2])
    def test_triangle_matches_general_product(self, k_extra):
        for seed in range(3):
            tri, rng = self.rbf_problem(k_extra, seed=seed)
            rot, _ = self.rbf_problem(k_extra, rotate=True, seed=seed)
            assert tri.lower and not rot.lower
            d = 10.0 ** rng.uniform(-2, 2, size=tri.n)
            r1 = rng.normal(size=tri.n)
            r2 = rng.normal(size=tri.m_eq)
            dz, dnu = qp._factorize(tri, d)(r1, r2)
            dz_ref, dnu_ref = qp._factorize(rot, d)(r1, r2)
            scale = np.abs(np.concatenate((dz_ref, dnu_ref))).max()
            assert np.abs(dz - dz_ref).max() <= 1e-10 * scale
            assert np.abs(dnu - dnu_ref).max() <= 1e-10 * scale

    def test_lower_is_derived_from_w(self):
        assert self.rbf_problem(1)[0].lower
        assert not self.rbf_problem(1, rotate=True)[0].lower
        y = np.array([1.0, -1.0, 1.0])
        X = np.arange(6.0).reshape(3, 2)
        assert not qp.assemble_dual(y[:, None] * X, y, np.ones(3),
                                    loss.hinge()).lower

    def test_only_a_triangular_factor_calls_dlauum(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return lauum(*args, **kwargs)

        lauum = qp._lauum
        monkeypatch.setattr(qp, "_lauum", counting)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=30) > 0, 1.0, -1.0)
        spec = loss.LossSpec(taus=(0.4,), epsilons=(0.5,))
        trainer.train(X, y, trainer.TrainParams(loss=spec, c0=1.0))
        assert calls == []
        trainer.train(X, y, trainer.TrainParams(
            loss=spec, c0=1.0, kernel=kernels.KernelSpec("rbf")))
        assert len(calls) >= 1


class TestGramFactor:
    @pytest.fixture
    def potrf_infos(self, monkeypatch):
        """The info of each dpotrf call ``gram_factor`` makes."""
        infos, real = [], qp._potrf

        def counted(*args, **kwargs):
            out = real(*args, **kwargs)
            infos.append(out[1])
            return out

        monkeypatch.setattr(qp, "_potrf", counted)
        return infos

    def test_slightly_indefinite_matrix_needs_one_escalation(self,
                                                             potrf_infos):
        # one eigenvalue at -1e-11 trace/l: the first jitter, 1e-12 trace/l,
        # leaves it negative, and the second, 1e-10 trace/l, lifts it
        rng = np.random.default_rng(0)
        l = 40
        Q, _ = np.linalg.qr(rng.normal(size=(l, l)))
        lam = rng.uniform(1.0, 2.0, size=l)
        lam[0] = -1e-11 * lam[1:].sum() / l
        G = (Q * lam) @ Q.T
        G = (G + G.T) / 2
        L = qp.gram_factor(G)
        assert len(potrf_infos) == 2
        assert potrf_infos[0] > 0 and potrf_infos[1] == 0
        assert not np.triu(L, 1).any()
        delta = 1e-10 * np.trace(G) / l
        np.testing.assert_allclose(L @ L.T, G + delta * np.eye(l),
                                   rtol=0, atol=1e-12)

    def test_matrix_far_from_psd_is_a_solver_error(self, potrf_infos):
        # negative trace: no jitter up to 100 * 1e-8 factors -I
        with pytest.raises(SolverError, match="not positive semidefinite"):
            qp.gram_factor(-np.eye(4))
        assert len(potrf_infos) == 8 and min(potrf_infos) > 0


class TestCholesky:
    def test_indefinite_matrix_raises(self):
        # dpotrf returns a partial factor with info > 0 here
        with pytest.raises(np.linalg.LinAlgError):
            qp._cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_failed_factorization_is_a_numerical_failure(self, monkeypatch):
        def indefinite(A):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(qp, "_cholesky", indefinite)
        problem = toy_dual(loss.hinge(), [1.0, 1.0, -1.0, -1.0], [1.0] * 4)
        sol = qp.solve(problem)
        assert sol.status == "numerical_failure"
        assert sol.iterations == 1

    def test_failed_dlauum_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(qp, "_lauum", lambda c, **kwargs: (c, -1))
        problem = toy_dual(loss.hinge(), [1.0, 1.0, -1.0, -1.0], [1.0] * 4)
        assert problem.lower
        # the interior point stops; the polish may still verify its start
        *_, iterations, status = qp._interior_point(problem, 1e-8, 200)
        assert status == "numerical_failure"
        assert iterations == 1


class TestFaceSolve:
    """The crossover's face solve against the dense face KKT system."""

    @staticmethod
    def face_problem(rng, taus, thin, l=12):
        # samples come in (+1, -1) pairs with one cap each, so a face
        # that puts a pair on one block meets the balance row; a tau = -1
        # piece gets eps = 0, which repeats the identity
        spec = loss.LossSpec(taus=taus, epsilons=tuple(
            0.0 if t == -1.0 else rng.uniform(-2, 2) for t in taus))
        y = np.where(np.arange(l) % 2 == 0, 1.0, -1.0)
        X = rng.normal(size=(l, 3))
        if thin:
            W = y[:, None] * X
        else:
            G = kernels.gram(kernels.KernelSpec("rbf"), X)
            W = qp.gram_factor(G * np.outer(y, y))
        C = np.repeat(rng.uniform(0.5, 2.0, size=l // 2), 2)
        return qp.assemble_dual(W, y, C, spec)

    @staticmethod
    def random_face(rng, problem):
        # every sample keeps at least one free coordinate
        k, l = problem.k, problem.l
        free = rng.random(problem.n) < 0.5
        free[rng.integers(k, size=l) * l + np.arange(l)] = True
        return free

    @staticmethod
    def solve_and_check(problem, free):
        """(nu, gradient on the face) after checking the face KKT system."""
        idx = np.flatnonzero(free)
        with np.errstate(all="raise"):
            z, nu, qz = qp._solve_face(problem, free)
        assert np.all(z[~free] == 0.0)
        np.testing.assert_array_equal(qz, problem.q_mul(z))
        Q, A = dense_qa(problem)
        m = problem.m_eq
        K = np.block([[Q[idx], -A.T[idx]], [A, np.zeros((m, m))]])
        x = np.concatenate((z, nu))
        rhs = np.concatenate((-problem.c[idx], problem.b))
        res = np.abs(K @ x - rhs)
        scale = np.abs(K).max(axis=1) * np.abs(x).max() + np.abs(rhs)
        assert (res / scale).max() <= 1e-9
        return nu, Q[idx] @ z + problem.c[idx]

    @pytest.mark.parametrize("k_extra", [1, 2, 3])
    @pytest.mark.parametrize("thin", [True, False], ids=["thin", "square"])
    def test_random_faces_solve_the_dense_kkt_system(self, k_extra, thin):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            taus = tuple(rng.uniform(-0.9, 1.0, k_extra))
            problem = self.face_problem(rng, taus, thin)
            self.solve_and_check(problem, self.random_face(rng, problem))

    @pytest.mark.parametrize("taus, one_per_sample", [
        ((0.3, -0.6), True),        # p = 0
        ((-1.0,), False),           # every slope equal
        ((-1.0, -1.0), False),
    ], ids=["p=0", "tau=-1", "tau=-1,-1"])
    def test_free_balance_multiplier_takes_least_norm(self, taus,
                                                      one_per_sample):
        # the balance row leaves nu_0 free on these faces; the solve
        # returns the least-norm multipliers
        rng = np.random.default_rng(3)
        problem = self.face_problem(rng, taus, thin=True)
        k, l = problem.k, problem.l
        if one_per_sample:
            free = np.zeros(problem.n, dtype=bool)
            blocks = np.repeat(rng.integers(k, size=l // 2), 2)
            free[blocks * l + np.arange(l)] = True
        else:
            free = self.random_face(rng, problem)
        nu, grad = self.solve_and_check(problem, free)
        _, A = dense_qa(problem)
        least = np.linalg.lstsq(A[:, free].T, grad, rcond=None)[0]
        np.testing.assert_allclose(nu, least, rtol=1e-10, atol=1e-12)


class TestCrossover:
    @pytest.mark.parametrize("i", [0, 4])
    def test_uncovered_sample_frees_its_largest_coordinate(self, i,
                                                          monkeypatch):
        # mu0 > z0 on every block of sample i leaves its simplex row with
        # no free coordinate; the polish frees the largest before its
        # first face, and the face solve reads the mask without writing it
        problem = TestFaceSolve.face_problem(np.random.default_rng(0),
                                             (0.3, -0.6), thin=True)
        k, l = problem.k, problem.l
        z, _, mu, *_ = qp._interior_point(problem, 1e-8, 200)
        mu0 = mu.reshape(k, l).copy()
        mu0[:, i] = z.reshape(k, l)[:, i] + 1.0
        faces, solve_face = [], qp._solve_face

        def spy(problem, free):
            faces.append(free.copy())
            out = solve_face(problem, free)
            assert np.array_equal(free, faces[-1])
            return out

        monkeypatch.setattr(qp, "_solve_face", spy)
        polished = qp._crossover(problem, z, mu0.ravel(), 1e-8)
        assert polished is not None
        top = z.reshape(k, l)[:, i].argmax()
        np.testing.assert_array_equal(faces[0].reshape(k, l)[:, i],
                                      np.arange(k) == top)
        z, nu, mu, obj, res = polished
        assert max(res.values()) <= 1e-8
        assert_kkt_certificate(
            problem, qp.QpSolution(z, obj, res, 0, "optimal", nu, mu))

    @pytest.mark.parametrize("taus, epsilons", [
        ((0.4,), (5.0,)),
        ((-0.8, -0.4), (1.0, 2.0)),
    ])
    def test_degenerate_haberman_cell_keeps_its_polish(self, standin, taus,
                                                       epsilons):
        # haberman stand-in (corpus seed 0, split seed 0), normalized rows,
        # linear kernel, balanced caps, C0 = 0.125: dropping every negative
        # coordinate and adding every negative multiplier at once revisits
        # a face here; releasing one multiplier per face, with a ratio test
        # after it, reaches the optimum
        ds = standin("haberman")
        tr, _ = ds.split
        X, y = ds.X[tr], ds.y[tr]
        Xn = fit_normalizer(X).apply(X)
        problem = qp.assemble_dual(
            y[:, None] * Xn, y, trainer._class_caps(y, 0.125, True),
            loss.canonical(loss.LossSpec(taus=taus, epsilons=epsilons)))
        z, _, mu, *_ = qp._interior_point(problem, 1e-8, 200)
        polished = qp._crossover(problem, z, mu, 1e-8)
        assert polished is not None
        z, nu, mu, obj, res = polished
        assert max(res.values()) <= 1e-8
        assert_kkt_certificate(
            problem, qp.QpSolution(z, obj, res, 0, "optimal", nu, mu))


    def test_more_than_6000_free_coordinates_are_not_polished(self,
                                                              monkeypatch):
        # a thin problem with l = 3,001 and k = 3, every coordinate free:
        # the reduced dimension p = k*l - l = 6,002 is over the guard, so
        # the polish gives up before its first face solve
        rng = np.random.default_rng(0)
        l = 3001
        y = np.where(np.arange(l) % 2, 1.0, -1.0)
        problem = qp.assemble_dual(
            rng.normal(size=(l, 3)) * y[:, None], y, np.ones(l),
            loss.LossSpec(taus=(0.3, -0.6), epsilons=(1.0, -0.5)))
        assert problem.k == 3

        def no_face(problem, free):
            raise AssertionError("a face was solved")

        monkeypatch.setattr(qp, "_solve_face", no_face)
        z = np.full(problem.n, 1.0 / problem.k)
        assert qp._crossover(problem, z, np.zeros(problem.n), 1e-8) is None


class TestInteriorPoint:
    @pytest.mark.parametrize("max_iter", [0, -3, float("inf"), 2.5,
                                          np.float64(3.0)])
    def test_max_iter_below_one_rejected(self, max_iter):
        # as TrainParams does; the loop would run no iteration
        problem = toy_dual(loss.hinge(), [1.0, 1.0, -1.0, -1.0], [1.0] * 4)
        with pytest.raises(TrainingError, match="max_iter must be at least 1"):
            qp.solve(problem, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("inf"), float("nan"),
                                     "1"])
    def test_tol_must_be_finite_and_positive(self, tol):
        # an infinite tol would stop at the first iterate as "optimal"
        problem = toy_dual(loss.hinge(), [1.0, 1.0, -1.0, -1.0], [1.0] * 4)
        with pytest.raises(TrainingError, match="tol must be finite"):
            qp.solve(problem, tol=tol)

    def test_two_point_hinge_toy(self):
        spec = loss.hinge()
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        H = (X @ X.T) * np.outer(y, y)
        problem = qp.assemble_dual(qp.gram_factor(H),
                                   y, np.array([10.0, 10.0]), spec)
        sol = qp.solve(problem)
        assert sol.status == "optimal"
        s = problem.combined(sol.z)
        np.testing.assert_allclose(s, [0.5, 0.5], atol=1e-6)
        assert sol.objective == pytest.approx(-0.5, abs=1e-6)
        assert_kkt_certificate(problem, sol)

    def test_hard_margin_square(self):
        # (+-1, +-1) labeled by the first coordinate: the separator is
        # x1 = 0, all four points support it, and the interior-point
        # limit (analytic center of the optimal face) puts alpha = 1/4
        # on each.
        X = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        H = (X @ X.T) * np.outer(y, y)
        problem = qp.assemble_dual(qp.gram_factor(H),
                                   y, np.full(4, 10.0), loss.hinge())
        sol = qp.solve(problem, tol=1e-10)
        assert sol.status == "optimal"
        alpha = sol.z[:4]
        np.testing.assert_allclose(alpha, 0.25, atol=1e-5)
        s = problem.combined(sol.z)
        w = (s * y) @ X
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-6)
        assert sol.objective == pytest.approx(-0.5, abs=1e-7)

    def test_tau_minus_one_forces_saturated_coefficients(self):
        # pinball tau = -1 makes every block coefficient one, so
        # s_i = C_i on the whole feasible set; the equality rows are
        # rank deficient and the solver must still converge.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        C = np.full(6, 2.0)
        H = (X @ X.T) * np.outer(y, y)
        problem = qp.assemble_dual(qp.gram_factor(H), y, C, loss.pinball(-1.0))
        sol = qp.solve(problem)
        np.testing.assert_allclose(problem.combined(sol.z), C,
                                   atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_duals_certified_optimal(self, seed):
        rng = np.random.default_rng(seed)
        l = int(rng.integers(3, 9))
        k_extra = int(rng.integers(1, 3))
        taus = tuple(rng.uniform(-0.9, 1.0, size=k_extra))
        eps = tuple(rng.uniform(-2.0, 2.0, size=k_extra))
        spec = loss.LossSpec(taus=taus, epsilons=eps)
        y = rng.choice([-1.0, 1.0], size=l)
        y[0], y[1] = 1.0, -1.0
        X = rng.normal(size=(l, 2))
        H = (X @ X.T) * np.outer(y, y)
        # class-balanced caps keep the balance row attainable for any
        # slope configuration
        c0 = float(rng.uniform(0.5, 3.0))
        ratio = (y > 0).sum() / (y < 0).sum()
        C = np.where(y > 0, c0, ratio * c0)
        problem = qp.assemble_dual(qp.gram_factor(H), y, C, spec)
        sol = qp.solve(problem)
        assert sol.status == "optimal"
        assert_kkt_certificate(problem, sol)
        ref = slsqp_objective(problem, seed)
        if np.isfinite(ref):
            assert sol.objective <= ref + 1e-5 * (1 + abs(ref))

    def test_l20_solve_certified_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        spec = loss.LossSpec(taus=(0.4, -0.3), epsilons=(0.5, 1.5))
        l = 20
        y = np.where(np.arange(l) % 2 == 0, 1.0, -1.0)
        X = rng.normal(size=(l, 3))
        H = (X @ X.T) * np.outer(y, y)
        C = rng.uniform(0.5, 2.0, size=l)
        problem = qp.assemble_dual(qp.gram_factor(H), y, C, spec)
        sol = qp.solve(problem)
        assert sol.status == "optimal"
        assert_kkt_certificate(problem, sol)
        ref = slsqp_objective(problem)
        assert np.isfinite(ref)
        assert sol.objective <= ref + 1e-5 * (1 + abs(ref))

    def test_best_iterate_is_returned(self):
        # at tol = 1e-30 the polish never verifies, so each record is the
        # interior point's best iterate; on this dual the raw iterates'
        # worst residual rises at iterations 2 and 5, where returning the
        # last iterate would make the sequence below rise too
        problem = toy_dual(loss.LossSpec(taus=(0.4,), epsilons=(0.5,)),
                           [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0],
                           [1.0] * 8, seed=2)
        worst = []
        for max_iter in range(1, 7):
            sol = qp.solve(problem, tol=1e-30, max_iter=max_iter)
            assert sol.status in ("optimal", "stalled", "max_iter",
                                  "numerical_failure")
            assert sol.status == "max_iter"
            assert sol.iterations == max_iter
            worst.append(max(sol.kkt_residuals.values()))
        assert all(b <= a for a, b in zip(worst, worst[1:])), worst

    def test_degenerate_gram_handled(self):
        # duplicated points make H rank deficient
        X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        H = (X @ X.T) * np.outer(y, y)
        problem = qp.assemble_dual(qp.gram_factor(H),
                                   y, np.full(4, 1.0), loss.hinge())
        sol = qp.solve(problem)
        assert sol.status == "optimal"
        assert_kkt_certificate(problem, sol)


class TestResiduals:
    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_means_every_model_residual_meets_tol(self, seed):
        rng = np.random.default_rng(seed)
        l = 30
        y = np.where(np.arange(l) % 3 == 0, 1.0, -1.0)
        X = rng.normal(size=(l, 2)) + y[:, None]
        spec = loss.LossSpec(taus=(-0.6, 0.4), epsilons=(2.0, -1.0))
        C = np.where(y > 0, 8.0, 4.0)       # class-balanced caps
        problem = qp.assemble_dual(y[:, None] * X, y, C, spec)
        tol = 1e-8
        sol = qp.solve(problem, tol=tol)
        assert sol.status == "optimal"
        assert max(sol.kkt_residuals.values()) <= tol
        scores = y * problem.h_mul(problem.combined(sol.z))
        b = trainer.recover_bias(scores, spec, y, C)
        report = trainer.verify_kkt(sol, problem, spec, y, scores, b)
        assert sol.kkt_residuals.keys() == report.keys()
