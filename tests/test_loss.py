import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kplsvm import loss
from kplsvm.errors import RepresentationError


def specs(taus=st.floats(-3.0, 3.0, allow_nan=False),
          epsilons=st.floats(-10.0, 10.0, allow_nan=False)):
    """Strategy over loss specs with k <= 4, including k = 1 (identity only)."""
    return st.integers(0, 3).flatmap(
        lambda m: st.tuples(
            st.tuples(*[taus] * m), st.tuples(*[epsilons] * m)
        ).map(lambda te: loss.LossSpec(taus=te[0], epsilons=te[1]))
    )


class TestEval:
    def test_hinge_values(self):
        spec = loss.hinge()
        assert loss.eval_loss(spec, -3.0) == 0.0
        assert loss.eval_loss(spec, 0.0) == 0.0
        assert loss.eval_loss(spec, 0.5) == 0.5
        assert loss.eval_loss(spec, 2.0) == 2.0

    def test_pinball_values(self):
        spec = loss.pinball(0.5)
        assert loss.eval_loss(spec, -2.0) == 1.0
        assert loss.eval_loss(spec, 0.0) == 0.0
        assert loss.eval_loss(spec, 3.0) == 3.0

    def test_three_piece_value_at_10(self):
        spec = loss.LossSpec(taus=(-0.45, 0.50), epsilons=(0.0, -7.0))
        # pieces at u=10: (10, 4.5, -12)
        assert loss.eval_loss(spec, 10.0) == 10.0

    def test_three_piece_value_at_minus_1(self):
        spec = loss.LossSpec(taus=(0.4, 0.0), epsilons=(0.0, 0.0))
        # pieces at u=-1: (-1, 0.4, 0)
        assert loss.eval_loss(spec, -1.0) == pytest.approx(0.4)

    def test_identity_only_spec(self):
        spec = loss.LossSpec(taus=(), epsilons=())
        assert spec.k == 1
        assert loss.eval_loss(spec, -5.0) == -5.0

    def test_vectorized_matches_scalar(self):
        spec = loss.LossSpec(taus=(-0.3, 0.8), epsilons=(1.0, -2.0))
        u = np.linspace(-4, 4, 41)
        vec = loss.eval_loss(spec, u)
        scalar = np.array([loss.eval_loss(spec, x) for x in u])
        np.testing.assert_allclose(vec, scalar)

    def test_scalar_input_returns_float(self):
        assert isinstance(loss.eval_loss(loss.hinge(), 1.0), float)


class TestSubgradient:
    def test_hinge_kink(self):
        assert loss.eval_subgradient(loss.hinge(), 0.0) == (0.0, 1.0)

    def test_hinge_smooth_regions(self):
        assert loss.eval_subgradient(loss.hinge(), 1.0) == (1.0, 1.0)
        assert loss.eval_subgradient(loss.hinge(), -1.0) == (0.0, 0.0)

    def test_pinball_kink(self):
        assert loss.eval_subgradient(loss.pinball(0.5), 0.0) == (-0.5, 1.0)


# tau = -1 (parallel to the identity) and repeated taus come up often
CROSSING_TAUS = st.one_of(
    st.sampled_from((-1.0, -0.5, 0.0, 0.4, 2.0)),
    st.floats(-3.0, 3.0, allow_subnormal=False))
CROSSING_EPS = st.one_of(
    st.sampled_from((0.0, 1.0)), st.floats(-10.0, 10.0, allow_subnormal=False))
# a dyadic grid keeps distinct kinks far apart and exactly representable
GRID_TAUS = st.sampled_from(tuple(-1.0 + 0.25 * i for i in range(13)))
GRID_EPS = st.sampled_from(tuple(-4.0 + 0.5 * i for i in range(17)))


class TestCrossings:
    def test_slopes_and_intercepts_put_the_identity_first(self):
        spec = loss.LossSpec(taus=(0.5, -2.0), epsilons=(1.0, 3.0))
        assert loss.slopes(spec).tolist() == [1.0, -0.5, 2.0]
        assert loss.intercepts(spec).tolist() == [0.0, 1.0, 3.0]

    def test_hinge_crosses_at_zero(self):
        a, b, u, value = loss.crossings(loss.hinge())
        assert (a.tolist(), b.tolist(), u.tolist(), value.tolist()) == (
            [0], [1], [0.0], [0.0])

    @given(specs(CROSSING_TAUS, CROSSING_EPS))
    @example(loss.LossSpec(taus=(-1.0, -1.0, 0.4), epsilons=(0.0, 2.0, 1.0)))
    @example(loss.LossSpec(taus=(0.4, 0.4, -1.0), epsilons=(1.0, -3.0, 0.5)))
    @settings(max_examples=200, deadline=None)
    def test_every_non_parallel_pair_crosses_at_value(self, spec):
        s, e = loss.slopes(spec), loss.intercepts(spec)
        a, b, u, value = loss.crossings(spec)
        found = list(zip(a.tolist(), b.tolist()))
        # at most once each, in combinations order
        assert found == sorted(set(found))
        for i, j in itertools.combinations(range(spec.k), 2):
            if (i, j) not in found:
                assert abs(s[i] - s[j]) <= 1e-9, (i, j)
                continue
            n = found.index((i, j))
            # relative to the size of the terms that cancel at the crossing
            scale = sum(abs(s[p] * u[n]) + abs(e[p]) for p in (i, j))
            for p in (i, j):
                assert abs(s[p] * u[n] + e[p] - value[n]) <= 1e-12 * scale


class TestEnvelopeKinks:
    @given(specs(GRID_TAUS, GRID_EPS))
    @settings(max_examples=200, deadline=None)
    def test_kinks_are_where_the_subgradient_jumps(self, spec):
        kinks, _ = loss.kinks(spec)
        for u in kinks:
            lo, hi = loss.eval_subgradient(spec, u)
            assert lo < hi, u
        # on this grid every crossing lies within |u| <= 32
        for u in np.linspace(-40.0, 40.0, 641):
            if all(abs(u - kink) > 1e-6 for kink in kinks):
                lo, hi = loss.eval_subgradient(spec, u)
                assert lo == hi, u

    @given(specs(CROSSING_TAUS, CROSSING_EPS))
    @example(loss.LossSpec(taus=(0.0, 0.0), epsilons=(0.0, 9.1e-180)))
    @example(loss.LossSpec(taus=(0.0, 0.0), epsilons=(1e-300, 0.0)))
    @example(loss.LossSpec(taus=(-1.0, 0.4), epsilons=(2.0, 1.0)))
    @settings(max_examples=300, deadline=None)
    def test_jumps_add_up_to_the_slope_range(self, spec):
        u, jump = loss.kinks(spec)
        s = loss.slopes(spec)
        assert u.shape == jump.shape
        assert (np.diff(u) > 0).all()
        assert (jump > 0).all()
        if u.size:
            # near-coincident kinks share one jump rather than each
            # counting the whole subgradient width
            assert jump.sum() == pytest.approx(s.max() - s.min(),
                                               rel=1e-12, abs=1e-12)
        else:
            assert s.max() - s.min() < 1e-9 * spec.k


class TestFitFromPieces:
    def test_recovers_parameters(self):
        got = loss.fit_from_pieces(
            [loss.AffinePiece(1.0, 0.0),
             loss.AffinePiece(0.45, 0.0),
             loss.AffinePiece(-0.5, -7.0)]
        )
        assert got.taus == (-0.45, 0.5)
        assert got.epsilons == (0.0, -7.0)

    def test_tuples_accepted(self):
        got = loss.fit_from_pieces([(1.0, 0.0), (0.0, 0.0)])
        assert got == loss.hinge()

    def test_duplicate_pieces_collapse(self):
        got = loss.fit_from_pieces(
            [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
        )
        assert got == loss.hinge()

    def test_missing_identity_rejected(self):
        with pytest.raises(RepresentationError):
            loss.fit_from_pieces([(0.5, 1.0), (-0.5, 0.0)])

    def test_round_trip(self):
        spec = loss.LossSpec(taus=(0.4, -0.9), epsilons=(2.5, -1.0))
        assert loss.fit_from_pieces(loss.pieces(spec)) == spec

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_matches_pointwise(self, spec):
        back = loss.fit_from_pieces(loss.pieces(spec))
        u = np.linspace(-12, 12, 97)
        np.testing.assert_allclose(
            loss.eval_loss(back, u), loss.eval_loss(spec, u), rtol=0, atol=0
        )


class TestCanonical:
    def test_dedupes_and_sorts(self):
        spec = loss.LossSpec(taus=(0.0, 0.0), epsilons=(0.0, 0.0))
        assert loss.canonical(spec) == loss.hinge()

    def test_sort_order(self):
        spec = loss.LossSpec(taus=(0.5, -0.5), epsilons=(1.0, 2.0))
        got = loss.canonical(spec)
        assert got.taus == (-0.5, 0.5)
        assert got.epsilons == (2.0, 1.0)

    def test_canonical_preserves_loss(self):
        spec = loss.LossSpec(taus=(0.3, 0.3, -0.2), epsilons=(1.0, 1.0, 0.5))
        u = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(
            loss.eval_loss(loss.canonical(spec), u), loss.eval_loss(spec, u)
        )


class TestProperties:
    def test_hinge_report(self):
        rep = loss.check_properties(loss.hinge())
        assert rep.lipschitz_constant == 1.0
        assert rep.derivative_condition_holds
        assert rep.nonnegativity_condition_holds
        assert (rep.influence_lower, rep.influence_upper) == (0.0, 1.0)
        assert rep.nonnegativity_pieces_skipped == 0

    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 1.0])
    def test_pinball_reports(self, tau):
        rep = loss.check_properties(loss.pinball(tau))
        assert rep.lipschitz_constant == max(1.0, abs(tau))
        assert rep.derivative_condition_holds
        assert rep.nonnegativity_condition_holds
        assert (rep.influence_lower, rep.influence_upper) == (
            min(1.0, -tau), max(1.0, -tau))

    def test_steep_piece_lipschitz_and_influence(self):
        rep = loss.check_properties(
            loss.LossSpec(taus=(-2.0,), epsilons=(0.0,)))
        assert rep.lipschitz_constant == 2.0
        assert (rep.influence_lower, rep.influence_upper) == (1.0, 2.0)

    def test_tau_minus_one_skipped(self):
        rep = loss.check_properties(loss.pinball(-1.0))
        assert rep.nonnegativity_pieces_skipped == 1
        assert rep.nonnegativity_condition_holds

    def test_negative_crossing_fails_nonnegativity(self):
        # max(u, -0.5u - 1) dips to -2/3 at u = -2/3
        rep = loss.check_properties(
            loss.LossSpec(taus=(0.5,), epsilons=(-1.0,)))
        assert not rep.nonnegativity_condition_holds
        assert loss.eval_loss(
            loss.LossSpec(taus=(0.5,), epsilons=(-1.0,)), -2.0 / 3.0
        ) == pytest.approx(-2.0 / 3.0)

    def test_pairwise_crossing_term(self):
        # pieces -0.5u + 1 and 0.5u + 2 cross at u = -1, value 1.5 >= 0
        rep = loss.check_properties(
            loss.LossSpec(taus=(0.5, -0.5), epsilons=(1.0, 2.0)))
        assert rep.nonnegativity_condition_holds

    def test_direct_derivative_check_vetoes(self):
        # -u + 3 dominates at u = 1, so the right-derivative is -1 even
        # though eps/tau = 3 passes the ratio test.
        rep = loss.check_properties(
            loss.LossSpec(taus=(1.0,), epsilons=(3.0,)))
        assert not rep.derivative_condition_holds

    def test_ratio_test_vetoes(self):
        rep = loss.check_properties(
            loss.LossSpec(taus=(0.5,), epsilons=(0.5,)))
        assert not rep.derivative_condition_holds

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(RepresentationError):
            loss.LossSpec(taus=(0.1,), epsilons=())

    def test_nonfinite_rejected(self):
        with pytest.raises(RepresentationError):
            loss.LossSpec(taus=(float("nan"),), epsilons=(0.0,))


class TestFamilyInvariants:
    @given(specs(), st.floats(-50, 50), st.floats(-50, 50),
           st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_convexity(self, spec, u, v, lam):
        mid = lam * u + (1 - lam) * v
        lhs = loss.eval_loss(spec, mid)
        rhs = lam * loss.eval_loss(spec, u) + (1 - lam) * loss.eval_loss(spec, v)
        assert lhs <= rhs + 1e-8 * (1 + abs(rhs))

    @given(specs(), st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=150, deadline=None)
    def test_lipschitz_bound(self, spec, u, v):
        lip = loss.check_properties(spec).lipschitz_constant
        gap = abs(loss.eval_loss(spec, u) - loss.eval_loss(spec, v))
        assert gap <= lip * abs(u - v) + 1e-8 * (1 + gap)

    @given(specs(), st.floats(-50, 50))
    @settings(max_examples=150, deadline=None)
    def test_subgradients_within_influence_interval(self, spec, u):
        rep = loss.check_properties(spec)
        lo, hi = loss.eval_subgradient(spec, u)
        assert rep.influence_lower <= lo + 1e-12
        assert hi <= rep.influence_upper + 1e-12

    @given(specs())
    @settings(max_examples=60, deadline=None)
    def test_loss_dominates_identity_piece(self, spec):
        u = np.linspace(-20, 20, 81)
        assert np.all(loss.eval_loss(spec, u) >= u - 1e-12)
