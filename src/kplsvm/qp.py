"""Convex QP solver for the piecewise-linear SVM dual.

For l samples and a k-piece loss the dual is

    minimize    0.5 z'Qz + c'z
    subject to  Az = b,  z >= 0

where z stacks k blocks of length l (one multiplier block per piece),
Q = D'HD + reg*I with D = [I, -tau_1*I, ...] and H_ij = y_i y_j k(x_i, x_j),
and the equalities are one global balance row y'Dz = 0 plus l per-sample
simplex rows (block sums equal the per-sample cap C_i).  Block m of c
is -(slope_m + intercept_m) of piece m (``loss.slopes``/``intercepts``).

The problem holds H only as a factor W (l x r) with H = WW' and
W = diag(y) F, where FF' = G is the Gram matrix.  A linear kernel with
fewer features than samples has the exact thin factor F = X; any other
Gram matrix uses F = ``gram_factor(G)``, its jittered Cholesky factor
(r = l).  Every product with H is W(W'.).

``solve`` runs a primal-dual interior-point method with Mehrotra's
predictor-corrector steps.  Its Newton system is solved by block
elimination down to one r x r Cholesky factorization per iteration.
Forming its matrix K costs l*r^2 flops for a thin factor; a Cholesky
factor W is lower triangular, and K is formed from its triangle in r^3/3
(LAPACK dlauum).  Factoring K costs r^3/3 more.  Each direction is one
solve over that factor, not refined (``_factorize`` says why).
An active-set crossover, with bulk pins in phase 1 and ratio tests
after, polishes the last iterate onto an exact face.  It solves each
face in the null space of its simplex rows, by Cholesky too.

At small r (a linear kernel has r = n features) an iteration costs
its numpy and LAPACK calls, not its flops.  So both factorizations go
through ``_cholesky``, which calls LAPACK's dpotrf/dpotrs directly, not
scipy's checking wrappers, and the Newton loop avoids numpy's wrappers.

Optimality has one definition, ``residuals``, the five scaled KKT
residuals a model reports: the interior point stops on them, and the
polish is kept only when it meets ``tol`` on them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import loss
from .errors import (InfeasibleError, SolverError, TrainingError,
                     check_integer, check_real)
from .loss import LossSpec

__all__ = [
    "QpProblem",
    "QpSolution",
    "assemble_dual",
    "gram_factor",
    "residuals",
    "solve",
]

# Relative slack allowed on the balance row's attainable-interval test.
_FEAS_TOL = 1e-9

# fetched through scipy.linalg: importing scipy.linalg.lapack ahead of the
# rest of scipy.linalg cost a fresh process about 0.05 s more system time
_potrf, _potrs, _lauum = scipy.linalg.get_lapack_funcs(
    ("potrf", "potrs", "lauum"), dtype=np.float64)
_syr, = scipy.linalg.get_blas_funcs(("syr",), dtype=np.float64)


@dataclass
class QpProblem:
    """The structured SVM dual (see module docstring)."""

    W: np.ndarray                  # l x r factor, H = W W'
    y: np.ndarray                  # l, +-1
    C: np.ndarray                  # l, positive caps
    block_coeffs: np.ndarray       # k, loss.slopes(spec)
    c: np.ndarray                  # k*l, linear cost
    b: np.ndarray                  # l+1, (0, C)
    reg: float                     # diagonal regularization of Q

    @property
    def l(self) -> int:
        return self.y.size

    @property
    def k(self) -> int:
        return self.block_coeffs.size

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m_eq(self) -> int:
        return self.b.size

    @cached_property
    def lower(self) -> bool:
        """W is square and lower triangular, as ``gram_factor`` gives it;
        tested in place, with no l x l temporary."""
        W = self.W
        return W.shape[0] == W.shape[1] and scipy.linalg.bandwidth(W)[1] == 0

    def combined(self, z: np.ndarray) -> np.ndarray:
        """s = Dz, the per-sample combined coefficients."""
        Z = z.reshape(self.k, self.l)
        return self.block_coeffs @ Z

    def h_mul(self, s: np.ndarray) -> np.ndarray:
        """H @ s = W (W' s)."""
        return self.W @ (self.W.T @ s)

    def q_mul(self, z: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
        """Q @ z without materializing Q; s is Dz if the caller has it."""
        Hs = self.h_mul(self.combined(z) if s is None else s)
        return np.multiply.outer(self.block_coeffs, Hs).ravel() + self.reg * z

    def a_mul(self, z: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
        """A @ z; s is Dz if the caller has it."""
        out = np.empty(self.m_eq)
        out[0] = self.y @ (self.combined(z) if s is None else s)
        z.reshape(self.k, self.l).sum(axis=0, out=out[1:])
        return out

    def at_mul(self, w: np.ndarray) -> np.ndarray:
        base = self.y * w[0]
        return (np.multiply.outer(self.block_coeffs, base) + w[1:]).ravel()


@dataclass
class QpSolution:
    """One ``solve``, built only there: the polish when it verifies, else
    the interior point's best iterate and the status that stopped it."""

    z: np.ndarray
    objective: float
    kkt_residuals: dict[str, float]
    iterations: int                 # interior-point iterations
    status: str     # optimal | stalled | max_iter | numerical_failure
    nu: np.ndarray                  # equality multipliers
    mu: np.ndarray                  # bound multipliers


def gram_factor(G: np.ndarray) -> np.ndarray:
    """Cholesky factor L of G + delta*I with the smallest workable jitter.

    This is the factor F = L of a Gram matrix that has no thinner exact
    one.  The dual then uses H + delta*I in every view (objective,
    residuals, Newton system), so the jitter never biases a Newton
    direction against the residuals being measured.

    delta starts at 1e-12 * max(trace(G)/l, 1e-8) and grows 100-fold
    while dpotrf fails; no kernel's Gram matrix measured has needed a
    second try.  SolverError if the eighth fails: G is far from PSD.
    """
    l = G.shape[0]
    scale = max(np.trace(G) / l, 1e-8)
    delta = 1e-12 * scale
    for _ in range(8):
        A = np.array(G, dtype=float, order="C")
        A.flat[::l + 1] += delta
        # A is symmetric, so A' is the same matrix in Fortran order:
        # dpotrf factors it in place as U'U, U zeroed below, and the
        # transpose U' = L is C-ordered, as the solver's products want W
        U, info = _potrf(A.T, lower=0, clean=1, overwrite_a=1)
        if info == 0:
            return U.T
        delta *= 100.0
    raise SolverError("Gram matrix is not positive semidefinite")


def assemble_dual(
    W: np.ndarray,
    y: np.ndarray,
    C: np.ndarray,
    spec: LossSpec,
) -> QpProblem:
    """Build the structured dual QP for one training configuration.

    W is any l x r factor of the problem's H = WW' (see the module
    docstring for the choice of W).

    Feasibility is certified up front: each sample's combined
    coefficient s_i ranges over C_i * [min block coeff, max block
    coeff], so the balance row is satisfiable iff the attainable
    interval of the positive class overlaps that of the negative
    class.  Raises InfeasibleError (with the gap width as certificate)
    otherwise.
    """
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float)
    C = np.asarray(C, dtype=float)
    l = y.size
    if W.ndim != 2 or W.shape[0] != l or C.size != l:
        raise ValueError("W, y, C sizes are inconsistent")
    if np.any(C <= 0):
        raise ValueError("per-sample caps must be positive")

    coeffs = loss.slopes(spec)
    lo, hi = coeffs.min(), coeffs.max()
    pos_total = float(C[y > 0].sum())
    neg_total = float(C[y < 0].sum())
    gap = max(lo * pos_total - hi * neg_total,
              lo * neg_total - hi * pos_total)
    if gap > _FEAS_TOL * (1.0 + pos_total + neg_total):
        raise InfeasibleError(
            "balance row unattainable for this loss/cap combination",
            certificate=float(gap),
        )

    c = np.repeat(-(coeffs + loss.intercepts(spec)), l)
    b = np.concatenate(([0.0], C))
    reg = 1e-10 * float(np.einsum("ij,ij->", W, W)) / l    # trace(H) / l
    return QpProblem(W=W, y=y, C=C, block_coeffs=coeffs, c=c, b=b, reg=reg)


# ---------------------------------------------------------------------------
# interior-point method


def solve(problem: QpProblem, tol: float = 1e-8,
          max_iter: int = 200) -> QpSolution:
    """Solve until every ``residuals`` entry is <= ``tol``; see QpSolution."""
    check_real(tol, TrainingError, "tol must be finite and positive",
               positive=True)
    check_integer(max_iter, 1, TrainingError,
                  "max_iter must be at least 1 (int)")
    z, nu, mu, obj, res, its, status = _interior_point(problem, tol, max_iter)
    polished = _crossover(problem, z, mu, tol)
    if polished is not None:
        (z, nu, mu, obj, res), status = polished, "optimal"
    return QpSolution(z, obj, res, its, status, nu, mu)


def residuals(problem: QpProblem, z: np.ndarray, nu: np.ndarray,
              mu: np.ndarray | None = None,
              slack: np.ndarray | None = None):
    """(scaled KKT residuals, objective, r_d, r_p, mu) of one dual point.

    mu defaults to max(Qz + c - A'nu, 0), the bound multipliers that
    (z, nu) imply; complementarity pairs z with ``slack``, by default mu.
    stationarity_w is |Qz + c - A'nu - mu| over 1 + |c| + |Qz|;
    stationarity_b the balance row |y's| / (1 + |s|_1), s = Dz;
    stationarity_xi the simplex rows |sum_m z_mi - C_i| / (1 + C_i);
    complementarity_max |z_mi slack_mi| / (1 + C_i); and
    primal_feasibility_max max(0, -min z).
    """
    s = problem.combined(z)
    qz = problem.q_mul(z, s)
    r_d = qz + problem.c - problem.at_mul(nu)
    if mu is None:
        mu = np.maximum(r_d, 0.0)
    r_d -= mu
    r_p = problem.a_mul(z, s) - problem.b
    obj = float(0.5 * z @ qz + problem.c @ z)
    pairs = (z * (mu if slack is None else slack)).reshape(problem.k, -1)
    scale = 1.0 + problem.C
    res = {
        "stationarity_w": float(np.abs(r_d).max() / (
            1.0 + np.abs(problem.c).max() + np.abs(qz).max())),
        "stationarity_b": float(
            abs(r_p[0]) / (1.0 + np.abs(s).sum())),
        "stationarity_xi": float((np.abs(r_p[1:]) / scale).max()),
        "complementarity_max": float((np.abs(pairs) / scale).max()),
        "primal_feasibility_max": float(max(0.0, -z.min())),
    }
    return res, obj, r_d, r_p, mu


def _interior_point(problem: QpProblem, tol: float, max_iter: int):
    """(z, nu, mu, objective, residuals) of the iterate with the least
    worst residual, held by reference (a step rebinds z, nu and mu, never
    writes them), then the iteration count and the stop status."""
    n, m = problem.n, problem.m_eq
    z = np.maximum(np.tile(problem.C / problem.k, problem.k), 1e-8)
    g0 = problem.q_mul(z) + problem.c
    mu = np.maximum(g0, 0.0) + 0.1 * (1.0 + np.abs(g0).mean())
    nu = np.zeros(m)

    best, best_worst = None, np.inf
    status = "max_iter"
    stall, anchor = 0, np.inf
    for it in range(1, max_iter + 1):
        res, obj, r_d, r_p, _ = residuals(problem, z, nu, mu)
        gap = float(z @ mu) / n
        if not all(map(math.isfinite, res.values())):
            status = "numerical_failure"
            if best is None:    # no finite iterate to fall back on
                best = (z, nu, mu, obj, res)
            break
        worst = max(res.values())
        if worst < best_worst:
            best, best_worst = (z, nu, mu, obj, res), worst
        if worst < 0.9 * anchor:
            anchor, stall = worst, 0
        else:
            stall += 1
        if worst <= tol:
            status = "optimal"
            break
        if stall >= 12:
            # converged as far as the arithmetic allows; grinding on only
            # shrinks the complementarity pairs into denormals
            status = "stalled"
            break

        d = mu / np.maximum(z, 1e-280)
        factor = None           # free the last factor before the next
        try:
            factor = _factorize(problem, d)
            # predictor (affine scaling) direction
            dz_a, dnu_a = factor(-r_d - mu, -r_p)
            dmu_a = -mu - d * dz_a
            ap = _max_step(z, dz_a)
            ad = _max_step(mu, dmu_a)
            gap_aff = float((z + ap * dz_a) @ (mu + ad * dmu_a)) / n
            sigma = (max(gap_aff, 0.0) / gap) ** 3 if gap > 0 else 0.1
            sigma = min(max(sigma, 1e-8), 0.99)
            # corrector with centering
            comp = (dz_a * dmu_a - sigma * gap) / z
            dz, dnu = factor(-r_d - mu - comp, -r_p)
            dmu = -mu - comp - d * dz
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        eta = min(0.99995, max(0.99, 1.0 - gap / (1.0 + abs(obj))))
        ap = eta * _max_step(z, dz)
        ad = eta * _max_step(mu, dmu)
        z = z + ap * dz
        nu = nu + ad * dnu
        mu = mu + ad * dmu

    return (*best, it, status)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return float(min(1.0, (-v[neg] / dv[neg]).min()))


# ---------------------------------------------------------------------------
# active-set polish (crossover)


def _crossover(problem: QpProblem, z: np.ndarray, mu0: np.ndarray,
               tol: float):
    """Polish an interior-point iterate onto an exact face.

    Interior-point complementarity pairs only vanish in the limit; the
    surviving O(tol) products get amplified wherever later work divides
    by a small multiplier (bias candidates most of all).  A primal
    active-set method (Nocedal & Wright, 2nd ed., 16.5) zeroes them.
    Phase 1 pins at once the free coordinates that a face takes below
    -1e-9(1 + max|z|), from the guessed face on.  At a face that takes
    none, z is the face clipped at 0: it stops there unless a pinned
    multiplier is negative, and frees the most negative.  After that, a
    face that takes one gets a ratio test: z steps towards the face until
    a coordinate reaches 0, and pins it (a face's simplex row sums to
    C_i > 0, so no pin empties a row).  Returns the face's (z, nu, mu,
    objective, residuals), mu as ``residuals``' default, or None on a
    singular face, p > 6000, 60 face solves, or a miss of ``tol``.
    """
    k, l = problem.k, problem.l
    free = z > np.maximum(mu0, 0.0)
    # a simplex row with no free coordinate frees its largest
    top = z.reshape(k, l).argmax(axis=0) * l + np.arange(l)
    free[top[~free.reshape(k, l).any(axis=0)]] = True
    c_scale = 1.0 + np.abs(problem.c).max()
    released = False
    for _ in range(60):
        if np.count_nonzero(free) - l > 6000:   # p, the reduced dimension
            return None
        try:
            face, nu, qz = _solve_face(problem, free)
        except np.linalg.LinAlgError:
            return None
        low = np.flatnonzero(free & (face < -1e-9 * (1.0 + z.max())))
        if low.size and released:   # ratio test: pin the first to reach 0
            ratio = z[low] / (z[low] - face[low])
            z = np.maximum(z + ratio.min() * (face - z), 0.0)
            free[low[ratio.argmin()]] = False
            continue
        z = np.maximum(face, 0.0)
        if low.size:                # phase 1: pin them all at once
            free[low] = False
            continue
        mu = np.where(free, np.inf, qz + problem.c - problem.at_mul(nu))
        if not mu.min() < -1e-9 * (c_scale + np.abs(qz).max()):
            break
        free[mu.argmin()] = released = True
    else:
        return None

    res, obj, _, _, mu = residuals(problem, z, nu)
    if not all(v <= tol for v in res.values()):
        return None
    return z, nu, mu, obj, res


def _solve_face(problem: QpProblem, free: np.ndarray):
    """Exact KKT solve with the coordinates off the boolean mask ``free``
    pinned to zero; the mask is read, not written.

    Returns (z, nu, Qz) with z full-length.  Precondition, not checked: every
    simplex row holds a free coordinate, as ``_crossover`` keeps them.
    Null-space method (Nocedal & Wright, 2nd ed., 16.2): sample i's
    first free coordinate j0 is its pivot, z = z0 + Nw with
    z0 = C_i on the pivots, and each other free (j, i) is a column
    e_j - e_j0 of N, so DN has the one entry c_j - c_j0 in row i.  The
    SPD R = N'QN = M'M + reg(I + S), M = W'(DN), S[a, b] = 1 within a
    sample, is bordered by the balance row y'(DN); nu_0 comes from its
    scalar Schur complement, refined against R, and nu_i from the pivot's
    stationarity.  With no border nu_0 is free: nu is the least-norm one.
    """
    l, y, coeffs = problem.l, problem.y, problem.block_coeffs
    piv = free.reshape(problem.k, l).argmax(axis=0) * l + np.arange(l)
    idx = np.flatnonzero(free)
    rest = idx[idx != piv[idx % l]]     # the free coordinates but pivots
    rs = rest % l
    a = coeffs[piv // l] * y            # the pivots' balance coefficients
    delta = coeffs[rest // l] - coeffs[piv[rs] // l]
    border = delta * y[rs]
    M = (problem.W[rs] * delta[:, None]).T
    R = M.T @ M + problem.reg * (np.eye(rs.size) + (rs[:, None] == rs))
    R_solve = _cholesky(R)      # factors a copy: the refinement reads R
    Rb = R_solve(border)
    schur = border @ Rb

    def bordered_solve(g, h):
        Rg = R_solve(g)
        nu0 = (h - border @ Rg) / schur if schur > 0 else 0.0
        return Rg + Rb * nu0, nu0

    z = np.zeros(problem.n)
    z[piv] = problem.C
    grad = problem.q_mul(z) + problem.c
    g = grad[piv[rs]] - grad[rest]      # -N'(Q z0 + c)
    h = -(a @ problem.C)
    w, nu0 = bordered_solve(g, h)
    for _ in range(2):
        ew, enu0 = bordered_solve(g - R @ w + border * nu0, h - border @ w)
        w, nu0 = w + ew, nu0 + enu0
    z[rest] = w
    z[piv] -= np.bincount(rs, weights=w, minlength=l)
    qz = problem.q_mul(z)
    grad_piv = (qz + problem.c)[piv]
    if not schur > 0:
        nu0 = (a @ grad_piv) / (1.0 + a @ a)
    return z, np.concatenate(([nu0], grad_piv - a * nu0)), qz


def _factorize(problem: QpProblem, d: np.ndarray):
    """Factor the Newton system for diagonal d = mu/z.

    Returns a callable (r1, r2) -> (dz, dnu) solving

        (Q + diag(d)) dz - A' dnu = r1
        A dz                      = r2

    reusable for the predictor and corrector right-hand sides.  The
    solve is not refined: ``_interior_point`` recomputes its residuals
    from scratch every iteration and stops only on them, so an inexact
    direction costs at most another iteration, never accuracy.

    Block elimination reduces it to one r x r Cholesky, using H = WW'.
    With P = reg + d (positive diagonal, viewed per block) and
    v = W'D'dz, the first block row gives dz = P^{-1}(r1 - DWv + A'dnu).
    The equality block T = A P^{-1} A' is an arrowhead (corner sum(g),
    border y*t, diagonal r) and is solved in O(l).  Eliminating dnu
    through T leaves one SPD system in v,

        K = I + W' diag(Gamma) W - p p'/sigma,   p = W'(y*Gamma),

    with Gamma_i = sum_m P^{-1}_mi (c_m - t_i/r_i)^2 the spread of sample
    i's block coefficients and sigma = sum(Gamma) T's corner Schur
    complement.  diag(Gamma) - (y*Gamma)(y*Gamma)'/sigma is PSD, so K >= I.

    W'diag(Gamma)W costs l*r^2 flops as a general product, and r^3/3 by
    dlauum from the triangle of a lower-triangular W (``QpProblem.lower``);
    factoring K costs r^3/3 more.
    """
    W, y = problem.W, problem.y
    l, k = problem.l, problem.k
    coeffs = problem.block_coeffs
    pinv = 1.0 / (problem.reg + d)
    Pinv = pinv.reshape(k, l)

    g = (coeffs[:, None] ** 2 * Pinv).sum(axis=0)      # D P^-1 D'
    t = (coeffs[:, None] * Pinv).sum(axis=0)           # D P^-1 E'
    r = Pinv.sum(axis=0)                               # E P^-1 E'
    gamma = (Pinv * (coeffs[:, None] - t / r) ** 2).sum(axis=0)
    # the shift keeps T regular when every piece has the same slope
    sigma = gamma.sum() + 1e-12 * (1.0 + g.sum())
    gy, yt = g * y, y * t
    ytr = yt / r

    def T_solve(h):
        e = np.empty(h.size)
        e[0] = nu0 = (h[0] - ytr @ h[1:]) / sigma
        np.divide(h[1:] - yt * nu0, r, out=e[1:])
        return e

    p = W.T @ (y * gamma)
    Wg = W * np.sqrt(gamma)[:, None]
    # K is Fortran-ordered, so dpotrf factors it in place from the triangle
    # that holds it: no l x l copy
    if problem.lower:
        # Wg' is upper triangular and Fortran-ordered: dlauum overwrites
        # its upper triangle with Wg'Wg, and dsyr subtracts pp'/sigma there
        U, info = _lauum(Wg.T, lower=0, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dlauum failed with info = {info}")
        K, triangle = _syr(-1.0 / sigma, p, lower=0, a=U, overwrite_a=1), 0
    else:
        # Wg'Wg is exactly symmetric, so the lower triangle of K' holds
        # Wg'Wg - p (p/sigma)', the products in that order
        K = Wg.T @ Wg
        K -= np.multiply.outer(p / sigma, p)
        K, triangle = K.T, 1
    K.flat[::K.shape[0] + 1] += 1.0
    K_solve = _cholesky(K, triangle, overwrite=1)

    def solve_kkt(r1: np.ndarray, r2: np.ndarray):
        u = pinv * r1
        su = problem.combined(u)
        h2 = r2 - problem.a_mul(u, su)
        e = T_solve(h2)
        v = K_solve(W.T @ (su + gy * e[0] + t * e[1:]))
        Wv = W @ v
        h2[0] += gy @ Wv
        h2[1:] += t * Wv
        dnu = T_solve(h2)
        dz = pinv * (r1 + problem.at_mul(dnu)
                     - np.multiply.outer(coeffs, Wv).ravel())
        return dz, dnu

    return solve_kkt


def _cholesky(A: np.ndarray, lower: int = 1, overwrite: int = 0):
    """v -> A^-1 v for the SPD A: dpotrs over the Cholesky factor of A's
    lower (or upper) triangle, and an empty v passed through, as dpotrs
    rejects it.  dpotrf factors into a copy, or in A itself when
    ``overwrite`` and A is Fortran-ordered.  LinAlgError unless dpotrf's
    info is 0: A not positive definite, or an illegal argument."""
    F, info = _potrf(A, lower=lower, clean=0, overwrite_a=overwrite)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf failed with info = {info}")
    return lambda v: _potrs(F, v, lower=lower)[0] if v.size else v
