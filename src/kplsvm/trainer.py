"""End-to-end model training: dual assembly, bias recovery, verification.

The decision function is f(x) = sign(sum_i beta_i k(x_i, x) + b) with
beta_i = s_i y_i, where s is the combined multiplier vector of the dual.
The bias is the exact minimizer of the primal objective in b with w
fixed, a convex piecewise-linear function, taking the optimal point
closest to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas, kernels, loss, qp
from .data import (NormalizationTransform, as_labelled, as_rows,
                   fit_normalizer)
from .errors import TrainingError, check_integer, check_real
from .kernels import KernelSpec
from .loss import LossSpec

__all__ = [
    "TrainParams",
    "TrainedModel",
    "train",
    "recover_bias",
    "verify_kkt",
    "reduction_equivalence",
]


@dataclass(frozen=True)
class TrainParams:
    """One training configuration.

    ``active_threshold`` only prunes support rows: a sample whose
    combined multiplier is at most ``active_threshold * c0`` is left out
    of the model, unless that would move a training score by more than
    1e-6.  ``canonicalize`` trains ``loss.canonical(loss)``, the same
    loss without the pieces that never top its envelope, so the dual has
    no inert blocks; the model still stores ``loss`` as given.  The form
    is idempotent, so a canonical spec trains as it is; ``False`` is for
    solving the larger dual on purpose.
    """

    loss: LossSpec
    c0: float
    kernel: KernelSpec = field(default_factory=KernelSpec)
    balance_classes: bool = True
    qp_tol: float = 1e-8
    max_iter: int = 200
    active_threshold: float = 1e-6
    canonicalize: bool = True

    def __post_init__(self):
        check_real(self.c0, TrainingError, "c0 must be finite and positive",
                   positive=True)
        check_real(self.qp_tol, TrainingError,
                   "qp_tol must be finite and positive", positive=True)
        check_integer(self.max_iter, 1, TrainingError,
                      "max_iter must be at least 1 (int)")
        in_range = "active_threshold must lie in (0, 1)"
        if check_real(self.active_threshold, TrainingError, in_range,
                      positive=True) >= 1:
            raise TrainingError(f"{in_range}, got {self.active_threshold!r}")
        if self.loss.k < 2:
            raise TrainingError("loss must have at least one non-identity piece")


# Cross-Gram entries per row block of an RBF predict: 2**18 doubles, 2 MB.
# ``cross_gram`` holds the block and one product of its size, so a predict
# works in about 4 MB, a cache-sized working set, whatever its row count.
_PREDICT_BLOCK_ENTRIES = 1 << 18


@dataclass
class TrainedModel:
    kernel: KernelSpec
    loss: LossSpec
    c0: float
    support_x: np.ndarray
    beta: np.ndarray
    bias: float
    normalizer: NormalizationTransform | None = None
    diagnostics: dict = field(default_factory=dict)

    def decision_function(self, X) -> np.ndarray:
        """f(x) = sum_i beta_i k(x_i, x) + b for each row of X, which passes
        ``data.as_rows`` at the model's width (through its normalizer).

        Memory beyond X and f does not grow with the row count: a linear
        model scores through w = support_x' beta, derived on each call,
        and an RBF model fills f in row blocks of at most 2**18
        cross-Gram entries.
        """
        X = (self.normalizer.apply(X) if self.normalizer is not None
             else as_rows(X, self.support_x.shape[1]))
        if self.kernel.kind == "linear":
            return X @ (self.support_x.T @ self.beta) + self.bias
        rows = max(1, _PREDICT_BLOCK_ENTRIES // max(1, self.beta.size))
        f = np.empty(X.shape[0])
        for i in range(0, X.shape[0], rows):
            f[i:i + rows] = kernels.cross_gram(
                self.kernel, X[i:i + rows], self.support_x) @ self.beta
        f += self.bias
        return f

    def predict(self, X) -> np.ndarray:
        # score exactly 0 maps to +1
        return np.where(self.decision_function(X) >= 0.0, 1.0, -1.0)


def _class_caps(y: np.ndarray, c0: float, balance: bool) -> np.ndarray:
    pos = int((y > 0).sum())
    neg = int((y < 0).sum())
    if pos == 0 or neg == 0:
        raise TrainingError("training data must contain both classes")
    C = np.full(y.size, c0)
    if balance:
        C[y < 0] = (pos / neg) * c0
    return C


def train(X, y, params: TrainParams, normalize: bool = True) -> TrainedModel:
    """Fit a piecewise-linear-loss kernel machine.

    ``normalize`` fits the [-1, 1] feature transform on X and stores it in
    the model; pass False when features are already scaled.  The linear
    algebra runs with one BLAS thread (see ``kplsvm.blas``).
    """
    with blas.single_thread():
        return _train(X, y, params, normalize)


def _train(X, y, params: TrainParams, normalize: bool) -> TrainedModel:
    X, y = as_labelled(X, y, TrainingError)
    if y.size < 2:
        raise TrainingError("need at least two training points")

    normalizer = fit_normalizer(X) if normalize else None
    Xn = normalizer.apply(X) if normalizer else X

    spec = loss.canonical(params.loss) if params.canonicalize else params.loss
    C = _class_caps(y, params.c0, params.balance_classes)
    G = kernels.gram(params.kernel, Xn)
    thin = params.kernel.kind == "linear" and Xn.shape[1] < y.size
    W = y[:, None] * (Xn if thin else qp.gram_factor(G))   # WW' = (yy') o G

    problem = qp.assemble_dual(W, y, C, spec)
    sol = qp.solve(problem, tol=params.qp_tol, max_iter=params.max_iter)
    if sol.status != "optimal":
        raise TrainingError(
            f"dual solve ended with status {sol.status!r} after "
            f"{sol.iterations} iterations "
            f"(residuals {sol.kkt_residuals})")

    s = problem.combined(sol.z)
    beta = s * y
    scores_wo_b = G @ beta          # sum_i beta_i k(x_i, x_j), no bias

    b = recover_bias(scores_wo_b, spec, y, C)

    report = verify_kkt(sol, problem, spec, y, scores_wo_b, b)

    dual_value = -sol.objective     # maximized dual of the original problem
    norm_w_sq = float(beta @ scores_wo_b)
    xi = loss.eval_loss(spec, 1.0 - y * (scores_wo_b + b))
    primal_value = 0.5 * norm_w_sq + float(C @ xi)
    gap_rel = abs(primal_value - dual_value) / (1.0 + abs(dual_value))

    keep = np.abs(s) > params.active_threshold * params.c0
    if not keep.any() or np.abs(G[:, ~keep] @ beta[~keep]).max() > 1e-6:
        keep = np.ones(y.size, dtype=bool)

    diagnostics = {
        "kkt_max_residual": max(report.values()),
        "duality_gap_rel": gap_rel,
        "primal_objective": primal_value,
        "dual_objective": dual_value,
        "qp_iterations": sol.iterations,
        "qp_status": sol.status,
        "support_count": int(keep.sum()),
        "class_ratio": float((y > 0).sum() / (y < 0).sum()),
        "balanced": bool(params.balance_classes),
        "kkt_report": report,
    }
    return TrainedModel(kernel=params.kernel, loss=params.loss,
                        c0=params.c0, support_x=Xn[keep],
                        beta=beta[keep], bias=b, normalizer=normalizer,
                        diagnostics=diagnostics)


def recover_bias(scores_wo_b: np.ndarray, spec: LossSpec, y: np.ndarray,
                 C: np.ndarray) -> float:
    """Exact minimizer of phi(b) = sum_i C_i L(1 - y_i (score_i + b)).

    phi is convex piecewise-linear; sample i's margin crosses kink u of
    the loss at b = y_i (1 - u) - score_i, where phi's slope rises by
    C_i times the kink's jump (``loss.kinks``).  One sorted sweep from
    the slope at -infinity, C @ where(y > 0, -max slope, min slope),
    gives the slope right of every breakpoint, and the minimizers lie
    where it changes sign.  The sweep needs slope(-inf) <= 0 <=
    slope(+inf), which is the feasibility of the dual's balance row.
    Among minimizers the one closest to zero is returned (zero when phi
    is flat there); a slope within 1e-12 of its terms' scale counts as
    flat, which absorbs the rounding of the running sum.
    """
    u, jump = loss.kinks(spec)
    if not u.size:
        return 0.0      # phi is linear, and the balance row makes it flat
    s = loss.slopes(spec)
    bps = (y[:, None] * (1.0 - u) - scores_wo_b[:, None]).ravel()
    order = np.argsort(bps)
    t = np.concatenate(([-np.inf], bps[order], [np.inf]))
    left = C @ np.where(y > 0, -s.max(), s.min())
    rise = (C[:, None] * jump).ravel()[order]
    slope = np.concatenate(([left], left + np.cumsum(rise), [np.inf]))
    tol = 1e-12 * C.sum() * np.abs(s).max()
    lo = t[np.argmax(slope >= -tol)]
    hi = t[np.argmax(slope > tol)]
    if lo <= 0.0 <= hi:
        return 0.0
    return float(hi if hi < 0.0 else lo)


def verify_kkt(sol: qp.QpSolution, problem: qp.QpProblem, spec: LossSpec,
               y, scores_wo_b, b) -> dict[str, float]:
    """The model's scaled KKT residuals, recomputed from the raw solution.

    These are ``qp.residuals`` of (z, nu), the solver's own definition,
    with the primal slacks xi_i - piece_m(u_i) as the complementarity
    slack: u = 1 - y*(scores_wo_b + b) is the margin at the recovered
    bias and xi_i = L(u_i) its loss, which satisfies every piece by
    construction.  The residual scales use the problem's caps.
    """
    u = 1.0 - y * (scores_wo_b + b)
    values = np.multiply.outer(loss.slopes(spec), u) \
        + loss.intercepts(spec)[:, None]
    slack = values.max(axis=0) - values
    return qp.residuals(problem, sol.z, sol.nu, slack=slack.ravel())[0]


def reduction_equivalence(dataset, c0: float,
                          kernel: KernelSpec | None = None,
                          tau: float = -0.6, qp_tol: float = 1e-8) -> dict:
    """Check the hinge and pinball special cases coincide with embeddings.

    Trains (i) the 3-piece all-zero spec against the hinge spec and
    (ii) the pinball spec against its 3-piece embedding (tau, 0, 0, 0) on
    the dataset's training half, comparing predictions on both halves and
    dual objectives.
    """
    kernel = kernel or KernelSpec()
    if dataset.split is None:
        raise TrainingError("dataset needs a train/test split")
    tr, te = dataset.split
    Xtr, ytr = dataset.X[tr], dataset.y[tr]
    X_all = np.vstack([dataset.X[tr], dataset.X[te]])

    pairs = {
        "hinge": (loss.hinge(),
                  LossSpec(taus=(0.0, 0.0), epsilons=(0.0, 0.0))),
        "pinball": (loss.pinball(tau),
                    LossSpec(taus=(tau, 0.0), epsilons=(0.0, 0.0))),
    }
    report = {"tau": tau}
    for name, (small, embedded) in pairs.items():
        models = []
        for sp, canon in ((small, True), (embedded, False)):
            # the embedded spec keeps its redundant piece so the check
            # really solves the larger dual rather than a renamed copy
            params = TrainParams(loss=sp, c0=c0, kernel=kernel,
                                 qp_tol=qp_tol, canonicalize=canon)
            models.append(train(Xtr, ytr, params))
        pred = [m.predict(X_all) for m in models]
        obj = [m.diagnostics["dual_objective"] for m in models]
        report[f"{name}_predictions_match"] = bool((pred[0] == pred[1]).all())
        report[f"{name}_objective_reldiff"] = abs(obj[0] - obj[1]) / (
            1.0 + abs(obj[0]))
    return report
