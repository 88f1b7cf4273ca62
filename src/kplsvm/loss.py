"""k-piecewise-linear convex margin losses.

A loss in this family is the pointwise maximum of the identity piece
``u`` and ``k - 1`` affine pieces ``-tau_m * u + eps_m``::

    L(u) = max(u, -tau_1 * u + eps_1, ..., -tau_{k-1} * u + eps_{k-1})

``k = 2`` with ``tau = eps = 0`` is the hinge loss; ``k = 2`` with
``eps = 0`` and a free slope is the pinball loss.  Being a maximum of
affine functions, every member is convex regardless of parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RepresentationError

__all__ = [
    "LossSpec",
    "AffinePiece",
    "LossPropertyReport",
    "hinge",
    "pinball",
    "pieces",
    "slopes",
    "intercepts",
    "crossings",
    "kinks",
    "eval_loss",
    "eval_subgradient",
    "fit_from_pieces",
    "check_properties",
    "canonical",
]

# Two pieces are treated as parallel, and so as never crossing, below
# this slope difference.
_PARALLEL_TOL = 1e-9


@dataclass(frozen=True)
class LossSpec:
    """Parameters (tau_m, eps_m) of the non-identity pieces.

    ``k`` equals ``len(taus) + 1``; ``k = 1`` is the bare identity loss,
    which the loss functions accept even though the trainer refuses it.
    """

    taus: tuple[float, ...]
    epsilons: tuple[float, ...]

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        epsilons = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "epsilons", epsilons)
        if len(taus) != len(epsilons):
            raise RepresentationError(
                f"taus and epsilons must have equal length, "
                f"got {len(taus)} and {len(epsilons)}"
            )
        for v in taus + epsilons:
            if not math.isfinite(v):
                raise RepresentationError("loss parameters must be finite")

    @property
    def k(self) -> int:
        return len(self.taus) + 1


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece ``slope * u + intercept``."""

    slope: float
    intercept: float


@dataclass(frozen=True)
class LossPropertyReport:
    """Outcome of the analytic property checks for one spec.

    ``nonnegativity_pieces_skipped`` counts pieces with ``tau = -1``
    that the non-negativity criterion cannot evaluate (their crossing
    with the identity piece is at infinity); the criterion is reported
    over the remaining pieces.
    """

    lipschitz_constant: float
    derivative_condition_holds: bool
    nonnegativity_condition_holds: bool
    influence_lower: float
    influence_upper: float
    nonnegativity_pieces_skipped: int = 0


def hinge() -> LossSpec:
    """The hinge loss max(u, 0) as the all-zero member of the family."""
    return LossSpec(taus=(0.0,), epsilons=(0.0,))


def pinball(tau: float) -> LossSpec:
    """The pinball loss max(u, -tau*u), the zero-intercept k=2 member."""
    return LossSpec(taus=(float(tau),), epsilons=(0.0,))


def pieces(spec: LossSpec) -> list[AffinePiece]:
    """All affine pieces, identity first, in parameter order."""
    out = [AffinePiece(1.0, 0.0)]
    out.extend(
        AffinePiece(-t, e) for t, e in zip(spec.taus, spec.epsilons)
    )
    return out


def slopes(spec: LossSpec) -> np.ndarray:
    """Slope of every piece: 1 for the identity, then -tau_m."""
    return np.concatenate(([1.0], -np.asarray(spec.taus, dtype=float)))


def intercepts(spec: LossSpec) -> np.ndarray:
    """Intercept of every piece: 0 for the identity, then eps_m."""
    return np.concatenate(([0.0], np.asarray(spec.epsilons, dtype=float)))


def crossings(spec: LossSpec):
    """Where two pieces cross: arrays ``(a, b, u, value)``.

    One entry per pair of piece indices ``a < b`` (identity = 0) whose
    slopes differ, in ``itertools.combinations`` order; pieces ``a`` and
    ``b`` both equal ``value`` at ``u``.  With the identity written as
    tau = -1, eps = 0, ``u = (eps_b - eps_a) / (tau_b - tau_a)``.
    """
    s, e = slopes(spec), intercepts(spec)
    a, b = np.triu_indices(s.size, k=1)
    ds = s[a] - s[b]
    keep = np.abs(ds) >= _PARALLEL_TOL
    a, b, ds = a[keep], b[keep], ds[keep]
    u = (e[b] - e[a]) / ds
    return a, b, u, s[a] * u + e[a]


def kinks(spec: LossSpec):
    """Where the envelope's slope jumps: arrays ``(u, jump)``, u ascending.

    The kinks are the crossings that reach the envelope.  Each jump is the
    envelope's slope right of its kink less the slope left of it, read off
    the top piece between neighbouring kinks, so near-coincident kinks
    share one jump and the jumps add up to max slope - min slope.
    """
    _, _, u, value = crossings(spec)
    top = eval_loss(spec, u)
    u = np.unique(u[value >= top - 1e-9 * (1.0 + np.abs(top))])
    if not u.size:
        return u, u
    s = slopes(spec)
    mid = np.multiply.outer(0.5 * (u[:-1] + u[1:]), s) + intercepts(spec)
    jump = np.diff(
        np.concatenate(([s.min()], s[mid.argmax(axis=1)], [s.max()])))
    return u[jump > 0], jump[jump > 0]


def eval_loss(spec: LossSpec, u):
    """Evaluate the loss at ``u`` (scalar or ndarray, any shape)."""
    u_arr = np.asarray(u, dtype=float)
    a = slopes(spec)
    b = intercepts(spec)
    vals = a * u_arr[..., None] + b
    out = vals.max(axis=-1)
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


def eval_subgradient(spec: LossSpec, u: float) -> tuple[float, float]:
    """Subdifferential of the loss at scalar ``u`` as an interval.

    Away from kinks the interval is degenerate (the active slope);
    at a kink it spans the slopes of all active pieces.
    """
    a = slopes(spec)
    b = intercepts(spec)
    vals = a * float(u) + b
    top = vals.max()
    active = vals >= top - 1e-12 * (1.0 + abs(top))
    return float(a[active].min()), float(a[active].max())


def fit_from_pieces(piece_list) -> LossSpec:
    """Recover a LossSpec from affine pieces.

    Exact duplicate pieces are collapsed first.  Exactly one of the
    remaining pieces must be the identity (slope 1, intercept 0); the
    others map to ``tau = -slope``, ``eps = intercept`` in input order.
    """
    seen: list[tuple[float, float]] = []
    for p in piece_list:
        if isinstance(p, AffinePiece):
            key = (float(p.slope), float(p.intercept))
        else:
            slope, intercept = p
            key = (float(slope), float(intercept))
        if key not in seen:
            seen.append(key)
    identity = [p for p in seen if p == (1.0, 0.0)]
    if len(identity) != 1:
        raise RepresentationError(
            "piece list must contain the identity piece (slope 1, "
            f"intercept 0) exactly once, found {len(identity)}"
        )
    rest = [p for p in seen if p != (1.0, 0.0)]
    return LossSpec(
        taus=tuple(-s for s, _ in rest),
        epsilons=tuple(c for _, c in rest),
    )


def canonical(spec: LossSpec) -> LossSpec:
    """Sorted spec with exact duplicate (tau, eps) pairs removed.

    Duplicate pieces are mathematically inert: they add redundant dual
    blocks without changing the loss.  The canonical form is used for
    cache keys and to keep dual problems minimal.
    """
    pairs = sorted(set(zip(spec.taus, spec.epsilons)))
    return LossSpec(
        taus=tuple(t for t, _ in pairs),
        epsilons=tuple(e for _, e in pairs),
    )


def check_properties(spec: LossSpec) -> LossPropertyReport:
    """Analytic property report for a spec.

    * ``lipschitz_constant``: max(1, |tau_m|) over all pieces.
    * ``derivative_condition_holds``: eps_m != tau_m for every piece
      with tau_m != 0, and the right-derivative at u = 1, measured
      directly on the piece set, is strictly positive.  The direct
      check catches configurations the algebraic ratio test misses.
    * ``nonnegativity_condition_holds``: every ``crossings`` value is
      >= 0.  A piece with tau = -1 never crosses the identity; such
      pieces are skipped and counted.
    * ``influence_lower`` / ``influence_upper``: min and max over the
      slope set {1, -tau_1, ..., -tau_{k-1}}, bracketing every
      subgradient the loss can produce.
    """
    taus = np.asarray(spec.taus, dtype=float)
    eps = np.asarray(spec.epsilons, dtype=float)

    lipschitz = float(max(1.0, np.abs(taus).max() if taus.size else 1.0))

    algebraic_ok = True
    for t, e in zip(taus, eps):
        if t != 0.0 and e == t:
            algebraic_ok = False
            break
    _, right_deriv = eval_subgradient(spec, 1.0)
    derivative_ok = algebraic_ok and right_deriv > 0.0

    a, _, _, value = crossings(spec)
    s = slopes(spec)
    return LossPropertyReport(
        lipschitz_constant=lipschitz,
        derivative_condition_holds=derivative_ok,
        nonnegativity_condition_holds=bool((value >= 0.0).all()),
        influence_lower=float(s.min()),
        influence_upper=float(s.max()),
        nonnegativity_pieces_skipped=int(taus.size - (a == 0).sum()),
    )
