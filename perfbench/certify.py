"""Weak-duality certificate for a trained model, in plain numpy.

The checker shares no code with kplsvm: it rebuilds the feature scaling,
the kernel, the per-sample caps and the loss from the model's stored
fields and the training data, then evaluates

    P(w, b) = 1/2 beta' K beta + sum_i C_i L(1 - y_i f(x_i))
    D(s)    = sum_i s_i - 1/2 beta' K beta - sum_i C_i L*(s_i / C_i)

with s_i = beta_i y_i on the support rows and 0 elsewhere.  L is the
maximum of the affine pieces a_m u + b_m (a = 1, -tau_m; b = 0, eps_m),
and its conjugate L* on [min a, max a] is the lower convex hull of the
points (a_m, -b_m).  For a dual-feasible s (sum_i s_i y_i = 0 and every
s_i / C_i inside the slope range) weak duality gives P >= D, with
equality at the optimum, so a small (P - D) / (1 + |D|) certifies that
the model is optimal for the problem it claims to solve.
"""

from __future__ import annotations

import numpy as np

# (P - D) / (1 + |D|) accepted as optimal: the bound the acceptance tests
# put on the trainer's own duality gap.  A 0.1 shift of the bias or a 1%
# scaling of beta moves the gap to 1e-3..1e-2.
GAP_TOL = 1e-5
FEAS_TOL = 1e-6         # dual feasibility, relative to the caps
_ROW_MATCH_TOL = 1e-9   # a support row equals its training row


def scale_features(X, mins, maxs):
    """x' = 2 (x - min) / (max - min) - 1 per feature; constant ones to 0."""
    X = np.asarray(X, dtype=float)
    span = maxs - mins
    out = np.zeros_like(X)
    nz = span > 0
    out[:, nz] = 2.0 * (X[:, nz] - mins[nz]) / span[nz] - 1.0
    return out


def kernel_matrix(kind, q, rbf_form, A, B, chunk=16):
    """k(A_i, B_j), with RBF distances summed from explicit differences."""
    if kind == "linear":
        return A @ B.T
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(0, A.shape[0], chunk):
        diff = A[i:i + chunk, None, :] - B[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        dist = sq if rbf_form == "squared-distance" else np.sqrt(sq)
        out[i:i + chunk] = np.exp(-dist / (2.0 * q * q))
    return out


def caps(y, c0):
    """C_i = c0, with the negative class scaled by n_pos / n_neg."""
    C = np.full(y.size, float(c0))
    C[y < 0] *= (y > 0).sum() / (y < 0).sum()
    return C


def loss_pieces(taus, epsilons):
    """(slopes, intercepts) of the pieces, identity first."""
    a = np.concatenate(([1.0], -np.asarray(taus, dtype=float)))
    b = np.concatenate(([0.0], np.asarray(epsilons, dtype=float)))
    return a, b


def conjugate(a, b, v):
    """L*(v) for L(u) = max_m a_m u + b_m, at v inside [min a, max a].

    L*(v) = min { -sum lam_m b_m : lam in the simplex, sum lam_m a_m = v },
    the lower convex hull of the points (a_m, -b_m) read at v.
    """
    best = {}
    for slope, intercept in zip(a, b):
        best[slope] = min(best.get(slope, np.inf), -intercept)
    pts = sorted(best.items())
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    return np.interp(np.clip(v, hx[0], hx[-1]), hx, hy)


def _support_rows(Xs, S):
    """Training-row index of each support row; support keeps row order."""
    idx = np.empty(S.shape[0], dtype=int)
    i = 0
    for j, row in enumerate(S):
        while i < Xs.shape[0] and np.abs(Xs[i] - row).max() > _ROW_MATCH_TOL:
            i += 1
        if i == Xs.shape[0]:
            raise ValueError(f"support row {j} is not a training row")
        idx[j] = i
        i += 1
    return idx


def certificate(model, X, y, c0):
    """Primal and dual values and feasibility of ``model`` on (X, y).

    The model was trained with class-balanced caps (kplsvm's default).

    ``model`` needs ``kernel`` (kind, q, rbf_form), ``loss`` (taus,
    epsilons), ``support_x``, ``beta``, ``bias`` and, when features were
    scaled, ``normalizer`` (mins, maxs).  Returns a dict with ``primal``,
    ``dual``, ``gap_rel``, ``balance_rel`` and ``slope_violation``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if model.normalizer is not None:
        mins, maxs = X.min(axis=0), X.max(axis=0)
        Xs = scale_features(X, mins, maxs)
    else:
        Xs = X
    S = np.asarray(model.support_x, dtype=float)
    beta = np.asarray(model.beta, dtype=float)
    kern = model.kernel
    a, b = loss_pieces(model.loss.taus, model.loss.epsilons)
    C = caps(y, c0)

    f = kernel_matrix(kern.kind, kern.q, kern.rbf_form, Xs, S) @ beta \
        + model.bias
    u = 1.0 - y * f
    losses = (a[None, :] * u[:, None] + b[None, :]).max(axis=1)
    Kss = kernel_matrix(kern.kind, kern.q, kern.rbf_form, S, S)
    quad = float(beta @ Kss @ beta)
    primal = 0.5 * quad + float(C @ losses)

    s = np.zeros(y.size)
    rows = _support_rows(Xs, S)
    s[rows] = beta * y[rows]
    v = s / C
    slope_violation = float(max(0.0, a.min() - v.min(), v.max() - a.max()))
    balance_rel = float(abs(beta.sum()) / (1.0 + np.abs(beta).sum()))
    dual = float(s.sum()) - 0.5 * quad - float(C @ conjugate(a, b, v))
    return {
        "primal": primal,
        "dual": dual,
        "gap_rel": (primal - dual) / (1.0 + abs(dual)),
        "balance_rel": balance_rel,
        "slope_violation": slope_violation,
    }


def certified(cert):
    """True when the model is dual feasible and its relative gap is small.

    A gap below -GAP_TOL would contradict weak duality and fails too.
    """
    return (cert["balance_rel"] <= FEAS_TOL
            and cert["slope_violation"] <= FEAS_TOL
            and abs(cert["gap_rel"]) <= GAP_TOL)
