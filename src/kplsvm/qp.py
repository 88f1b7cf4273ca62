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
elimination down to one r x r Cholesky factorization per iteration, so
an iteration costs O(k*l + l*r^2 + r^3).
An active-set crossover then polishes the last iterate onto an exact
face and is kept when it lowers the residuals.  It solves each face in
the null space of its simplex rows, through a Cholesky factorization too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import loss
from .errors import InfeasibleError
from .loss import LossSpec

__all__ = [
    "QpProblem",
    "QpSolution",
    "assemble_dual",
    "gram_factor",
    "solve",
]

# Relative slack allowed on the balance row's attainable-interval test.
_FEAS_TOL = 1e-9


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

    def combined(self, z: np.ndarray) -> np.ndarray:
        """s = Dz, the per-sample combined coefficients."""
        Z = z.reshape(self.k, self.l)
        return self.block_coeffs @ Z

    def h_mul(self, s: np.ndarray) -> np.ndarray:
        """H @ s = W (W' s)."""
        return self.W @ (self.W.T @ s)

    def q_mul(self, z: np.ndarray) -> np.ndarray:
        """Q @ z without materializing Q."""
        Hs = self.h_mul(self.combined(z))
        return np.multiply.outer(self.block_coeffs, Hs).ravel() + self.reg * z

    def a_mul(self, z: np.ndarray) -> np.ndarray:
        Z = z.reshape(self.k, self.l)
        return np.concatenate(([self.y @ self.combined(z)], Z.sum(axis=0)))

    def at_mul(self, w: np.ndarray) -> np.ndarray:
        base = self.y * w[0]
        return (np.multiply.outer(self.block_coeffs, base) + w[1:]).ravel()

    def feasible_start(self) -> np.ndarray:
        return np.tile(self.C / self.k, self.k)


@dataclass
class QpSolution:
    z: np.ndarray
    objective: float
    kkt_residuals: dict[str, float]
    iterations: int
    status: str     # optimal | stalled | max_iter | numerical_failure
    nu: np.ndarray                  # equality multipliers
    mu: np.ndarray                  # bound multipliers


def gram_factor(G: np.ndarray) -> np.ndarray:
    """Cholesky factor L of G + delta*I with the smallest workable jitter.

    This is the factor F = L of a Gram matrix that has no thinner exact
    one.  The dual then uses H + delta*I in every view (objective,
    residuals, Newton system), so the jitter never biases a Newton
    direction against the residuals being measured.
    """
    l = G.shape[0]
    scale = max(np.trace(G) / l, 1e-8)
    delta = 1e-12 * scale
    for _ in range(8):
        try:
            return np.linalg.cholesky(G + delta * np.eye(l))
        except np.linalg.LinAlgError:
            delta *= 100.0
    raise InfeasibleError("Gram matrix is not positive semidefinite")


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
    """Solve the QP to the requested scaled KKT tolerance."""
    sol = _interior_point(problem, tol=tol, max_iter=max_iter)
    polished = _crossover(problem, sol, tol)
    if polished is not None and _max_residual(polished) < _max_residual(sol):
        sol = polished
    return sol


def _max_residual(sol: QpSolution) -> float:
    return max(sol.kkt_residuals.values())


def _residuals(problem: QpProblem, z: np.ndarray, nu: np.ndarray,
               mu: np.ndarray):
    """(scaled KKT residuals, objective, r_d, r_p) of one iterate."""
    qz = problem.q_mul(z)
    r_d = qz + problem.c - problem.at_mul(nu) - mu
    r_p = problem.a_mul(z) - problem.b
    obj = float(0.5 * z @ qz + problem.c @ z)
    res = {
        "primal_eq": float(np.abs(r_p).max()
                           / (1.0 + np.abs(problem.b).max())),
        "dual_stationarity": float(np.abs(r_d).max() / (
            1.0 + np.abs(problem.c).max() + np.abs(qz).max())),
        # the largest pair, as the certificate measures it, not the mean
        "complementarity": float((z * mu).max()) / (1.0 + abs(obj)),
    }
    return res, obj, r_d, r_p


def _interior_point(problem: QpProblem, tol: float, max_iter: int) -> QpSolution:
    n, m = problem.n, problem.m_eq
    z = np.maximum(problem.feasible_start(), 1e-8)
    g0 = problem.q_mul(z) + problem.c
    mu = np.maximum(g0, 0.0) + 0.1 * (1.0 + np.abs(g0).mean())
    nu = np.zeros(m)

    best: QpSolution | None = None
    status = "max_iter"
    it = 0
    stall = 0
    for it in range(1, max_iter + 1):
        res, obj, r_d, r_p = _residuals(problem, z, nu, mu)
        gap = float(z @ mu) / n
        if not all(np.isfinite(v) for v in res.values()):
            status = "numerical_failure"
            break
        cur = QpSolution(z.copy(), obj, res, it - 1, "running",
                         nu.copy(), mu.copy())
        if best is None:
            best = cur
            anchor = _max_residual(cur)
            stall = 0
        else:
            if _max_residual(cur) < _max_residual(best):
                best = cur
            if _max_residual(cur) < 0.9 * anchor:
                anchor = _max_residual(cur)
                stall = 0
            else:
                stall += 1
        if max(res.values()) <= tol:
            status = "optimal"
            best = cur
            break
        if stall >= 12:
            # converged as far as the arithmetic allows; grinding on only
            # shrinks the complementarity pairs into denormals
            status = "stalled"
            break

        d = mu / np.maximum(z, 1e-280)
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
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
            status = "numerical_failure"
            break

        eta = min(0.99995, max(0.99, 1.0 - gap / (1.0 + abs(obj))))
        ap = eta * _max_step(z, dz)
        ad = eta * _max_step(mu, dmu)
        if max(ap, ad) < 1e-13:
            status = "numerical_failure"
            break
        z = z + ap * dz
        nu = nu + ad * dnu
        mu = mu + ad * dmu

    assert best is not None
    best.status = status
    best.iterations = it
    return best


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not np.any(neg):
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


# ---------------------------------------------------------------------------
# active-set polish (crossover)


def _crossover(problem: QpProblem, sol: QpSolution,
               tol: float) -> QpSolution | None:
    """Polish an interior-point iterate onto an exact face.

    Interior-point complementarity pairs only vanish in the limit; the
    surviving O(tol) products get amplified wherever later work divides
    by a small multiplier (bias candidates most of all).  Fixing the
    active set suggested by the iterate and solving the reduced
    equality-constrained KKT system makes the products exactly zero up
    to linear-algebra precision.  Coordinates are swapped while sign
    conditions fail; returns None if no verified improvement emerges
    within the pivot budget.
    """
    if not np.all(np.isfinite(sol.z)):
        return None
    z0 = sol.z
    free = z0 > np.maximum(sol.mu, 0.0)
    k, l = problem.k, problem.l

    def guard(free: np.ndarray, z: np.ndarray) -> None:
        # every simplex row needs at least one free coordinate
        covered = free.reshape(k, l).any(axis=0)
        top = z.reshape(k, l).argmax(axis=0) * l + np.arange(l)
        free[top[~covered]] = True

    guard(free, z0)
    c_scale = 1.0 + np.abs(problem.c).max()
    z_scale = 1.0 + np.abs(z0).max()
    # any feasible coordinate obeys its simplex row, so a face solution
    # beyond the cap scale means the face system was effectively singular
    z_cap = 10.0 * (1.0 + np.abs(problem.b).sum())

    seen: set[bytes] = set()
    for _ in range(60):
        idx = np.flatnonzero(free)
        if idx.size - l > 6000:         # p, the face's reduced dimension
            return None
        key = np.packbits(free).tobytes()
        if key in seen:            # cycling over degenerate faces
            return None
        seen.add(key)
        try:
            z, nu = _solve_face(problem, idx)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            return None
        if np.abs(z).max() > z_cap or not np.all(np.isfinite(nu)):
            return None
        qz = problem.q_mul(z)
        mu = qz + problem.c - problem.at_mul(nu)
        drop = free & (z < -1e-9 * z_scale)
        add = ~free & (mu < -1e-9 * (c_scale + np.abs(qz).max()))
        if not drop.any() and not add.any():
            break
        free[drop] = False
        free[add] = True
        guard(free, np.maximum(z, 0.0))
    else:
        return None

    z = np.maximum(z, 0.0)
    # mu = max(Qz + c - A'nu, 0) leaves only the negative part in r_d
    mu = np.maximum(problem.q_mul(z) + problem.c - problem.at_mul(nu), 0.0)
    res, obj, _, _ = _residuals(problem, z, nu, mu)
    if not all(np.isfinite(v) for v in res.values()):
        return None
    status = "optimal" if max(res.values()) <= tol else sol.status
    return QpSolution(z, obj, res, sol.iterations, status, nu.copy(), mu)


def _solve_face(problem: QpProblem, idx: np.ndarray):
    """Exact KKT solve with inactive coordinates pinned to zero.

    Returns (z, nu) with z full-length; every simplex row needs a free
    coordinate.  Null-space method (Nocedal & Wright, 2nd ed., 16.2):
    sample i's first free coordinate j0 is its pivot, z = z0 + Nw with
    z0 = C_i on the pivots, and each other free (j, i) is a column
    e_j - e_j0 of N, so DN has the one entry c_j - c_j0 in row i.  The
    SPD R = N'QN = M'M + reg(I + S), M = W'(DN), S[a, b] = 1 within a
    sample, is bordered by the balance row y'(DN); nu_0 comes from its
    scalar Schur complement, refined against R, and nu_i from the pivot's
    stationarity.  With no border nu_0 is free: nu is the least-norm one.
    """
    l, y, coeffs = problem.l, problem.y, problem.block_coeffs
    piv = idx[np.unique(idx % l, return_index=True)[1]]  # sample i's pivot
    rest = np.setdiff1d(idx, piv, assume_unique=True)
    rs = rest % l
    a = coeffs[piv // l] * y            # the pivots' balance coefficients
    delta = coeffs[rest // l] - coeffs[piv[rs] // l]
    border = delta * y[rs]
    M = (problem.W[rs] * delta[:, None]).T
    R = M.T @ M + problem.reg * (np.eye(rs.size) + (rs[:, None] == rs))
    R_chol = scipy.linalg.cho_factor(R, lower=True, check_finite=False)
    Rb = scipy.linalg.cho_solve(R_chol, border, check_finite=False)
    schur = border @ Rb

    def bordered_solve(g, h):
        Rg = scipy.linalg.cho_solve(R_chol, g, check_finite=False)
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
    grad_piv = (problem.q_mul(z) + problem.c)[piv]
    if not schur > 0:
        nu0 = (a @ grad_piv) / (1.0 + a @ a)
    return z, np.concatenate(([nu0], grad_piv - a * nu0))


def _factorize(problem: QpProblem, d: np.ndarray):
    """Factor the Newton system for diagonal d = mu/z.

    Returns a callable (r1, r2) -> (dz, dnu) solving

        (Q + diag(d)) dz - A' dnu = r1
        A dz                      = r2

    reusable for the predictor and corrector right-hand sides.

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

    def T_solve(h):
        nu0 = (h[0] - (yt / r) @ h[1:]) / sigma
        return np.concatenate(([nu0], (h[1:] - yt * nu0) / r))

    p = W.T @ (y * gamma)
    Wg = W * np.sqrt(gamma)[:, None]
    K = Wg.T @ Wg
    K -= np.outer(p, p / sigma)
    K[np.diag_indices_from(K)] += 1.0
    K_chol = scipy.linalg.cho_factor(K, lower=True, overwrite_a=True,
                                     check_finite=False)

    def solve_kkt(r1: np.ndarray, r2: np.ndarray):
        u = pinv * r1
        h2 = r2 - problem.a_mul(u)
        e = T_solve(h2)
        v = scipy.linalg.cho_solve(
            K_chol, W.T @ (problem.combined(u) + gy * e[0] + t * e[1:]),
            check_finite=False)
        Wv = W @ v
        dnu = T_solve(h2 + np.concatenate(([gy @ Wv], t * Wv)))
        dz = pinv * (r1 + problem.at_mul(dnu)
                     - np.multiply.outer(coeffs, Wv).ravel())
        return dz, dnu

    def refined(r1: np.ndarray, r2: np.ndarray):
        # iterative refinement; the Schur pieces scale like 1/reg near
        # convergence and eat ~8 digits without it
        dz, dnu = solve_kkt(r1, r2)
        scale = 1.0 + max(np.abs(r1).max(), np.abs(r2).max())
        prev = np.inf
        for _ in range(3):
            rr1 = r1 - (problem.q_mul(dz) + d * dz - problem.at_mul(dnu))
            rr2 = r2 - problem.a_mul(dz)
            err = max(np.abs(rr1).max(), np.abs(rr2).max())
            if err <= 1e-13 * scale or err >= 0.5 * prev:
                break
            prev = err
            ez, enu = solve_kkt(rr1, rr2)
            dz, dnu = dz + ez, dnu + enu
        return dz, dnu

    return refined
