"""Wronskian structure, identities, and the interlacing equivalence."""

import math

import pytest

from cylfn.interlace import check_interlaced
from cylfn.special_fn import CylinderSpec, EvalKind, bessel_j, bessel_y
from cylfn.wronskian import (
    DegenerateSpecError,
    check_derivative_identity,
    interlace_wronskian_equivalence,
    wronskian_asymptote,
    wronskian_profile,
    wronskian_value,
    xi,
    xi_prime,
)
from cylfn.zeros import find_zeros

HALF_PI = math.pi / 2
TWO_OVER_PI = 0.6366197723675814


def _spec(nu, delta):
    return CylinderSpec.of(nu, delta)


class TestValue:
    def test_self_wronskian_vanishes(self):
        s = _spec(2.0, 0.7)
        for x in (1.0, 10.0, 50.0):
            assert wronskian_value(s, s, x) == 0.0

    def test_j_vs_minus_y_constant(self):
        # equal orders make W' vanish identically; W = -2/pi everywhere
        a = _spec(1.5, 0.0)
        b = _spec(1.5, HALF_PI)
        for x in (1.0, 10.0, 100.0):
            assert wronskian_value(a, b, x) == pytest.approx(-TWO_OVER_PI, abs=1e-10)

    def test_antisymmetry(self):
        a = _spec(1.0, 0.3)
        b = _spec(4.2, 2.0)
        for x in (2.0, 17.0):
            assert wronskian_value(a, b, x) == -wronskian_value(b, a, x)

    def test_asymptote_reached_at_300(self):
        a = _spec(1.0, 0.0)
        b = _spec(4.0, 0.0)
        ref = wronskian_asymptote(a, b)
        assert ref == pytest.approx(-TWO_OVER_PI, abs=1e-12)
        assert abs(wronskian_value(a, b, 300.0) - ref) <= 1e-2

    def test_xi_definitions(self):
        s = _spec(3.0, 1.0)
        x = 7.7
        h = 1e-5
        num = (xi(s, x + h) - xi(s, x - h)) / (2 * h)
        assert xi_prime(s, x) == pytest.approx(num, abs=1e-8)


class TestDerivativeIdentity:
    def test_equal_orders_zero_rhs(self):
        assert check_derivative_identity(_spec(2.0, 0.1), _spec(2.0, 1.2), 5.0) <= 1e-6

    def test_sample_pair(self):
        assert check_derivative_identity(_spec(1.0, 0.0), _spec(2.0, 0.0), 5.0) <= 1e-6

    @pytest.mark.parametrize("x", (1e-4, 5e-5, 0.0))
    def test_rejects_a_difference_reaching_x_le_0(self, x):
        # the centered difference steps 1e-4 either side of x
        with pytest.raises(ValueError, match="need x > 0.0001"):
            check_derivative_identity(_spec(1.0, 0.0), _spec(2.0, 0.0), x)

    @pytest.mark.parametrize("x", (400.0, 399.99995))
    def test_rejects_a_difference_reaching_past_x_max(self, x):
        # named by the x given, not by the x + 1e-4 that would leave the box
        with pytest.raises(ValueError, match=f"need x <= 400 - 0.0001, got {x!r}"):
            check_derivative_identity(_spec(1.0, 0.0), _spec(2.0, 0.0), x)

    def test_extremum_at_zero_of_xi(self):
        a = _spec(1.0, 0.0)
        b = _spec(2.0, 0.0)
        z = find_zeros(a, EvalKind.FUNCTION, 1).zeros[0]
        h = 1e-6
        wprime = (wronskian_value(a, b, z + h) - wronskian_value(a, b, z - h)) / (2 * h)
        assert abs(wprime) <= 1e-6


class TestProfile:
    def test_interlaced_pair_uniform_sign(self):
        # the extremum sequence keeps one sign; which sign depends on which
        # function owns the first zero (the asymptote has the same sign)
        p = wronskian_profile(_spec(1.0, 0.0), _spec(2.0, 0.0), 15)
        assert p.sign_changes == 0
        vals = [v for (_, v, t) in p.extrema if t != "coincident"]
        assert all(v > 0 for v in vals)
        assert p.asymptote > 0

    def test_canonical_orientation_every_extremum_negative(self):
        # with the second argument owning the smaller first zero, every
        # extremum value is negative
        p = wronskian_profile(_spec(2.0, 0.0), _spec(1.0, 0.0), 15)
        assert p.sign_changes == 0
        assert all(v < 0 for (_, v, t) in p.extrema if t != "coincident")
        assert p.asymptote < 0

    def test_broken_pair_changes_sign(self):
        p = wronskian_profile(_spec(1.0, 0.0), _spec(4.5, 0.0), 20)
        assert p.sign_changes >= 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpecError):
            wronskian_profile(_spec(1.0, 0.0), _spec(1.0, 0.0), 5)

    def test_extrema_sit_on_merged_zeros(self):
        a = _spec(0.5, 0.0)
        b = _spec(2.5, 0.0)
        n = 6
        za = find_zeros(a, EvalKind.FUNCTION, n).zeros
        zb = find_zeros(b, EvalKind.FUNCTION, n).zeros
        p = wronskian_profile(a, b, n)
        merged = sorted(list(za) + list(zb))
        assert [z for (z, _, _) in p.extrema] == merged

    def test_closed_form_matches_direct_value(self):
        # each extremum value is W at the zero, where it is the closed form
        a = _spec(1.0, math.pi / 4)
        b = _spec(3.3, 1.9)
        p = wronskian_profile(a, b, 8)
        for z, v, tag in p.extrema:
            if tag == "coincident":
                continue
            assert v == wronskian_value(a, b, z)
            closed = -xi_prime(a, z) * xi(b, z) if tag == "A-zero" else xi(a, z) * xi_prime(b, z)
            assert v == pytest.approx(closed, rel=1e-12)

    def test_monotone_between_extrema(self):
        p = wronskian_profile(_spec(1.0, 0.0), _spec(2.0, 0.0), 6)
        a = _spec(1.0, 0.0)
        b = _spec(2.0, 0.0)
        for (z0, _, _), (z1, _, _) in zip(p.extrema, p.extrema[1:]):
            ts = [z0 + (z1 - z0) * k / 8.0 for k in range(9)]
            ws = [wronskian_value(a, b, t) for t in ts]
            diffs = [w1 - w0 for w0, w1 in zip(ws, ws[1:])]
            assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)


class TestCoincidentZero:
    """C_b = cos(d) J_2 - sin(d) Y_2 with tan d = J_2(z)/Y_2(z) vanishes at
    z = j_{1,3}, a zero of J_1: the two functions share a zero there."""

    def _pair(self):
        a = _spec(1.0, 0.0)
        z = find_zeros(a, EvalKind.FUNCTION, 3).zeros[2]
        return a, _spec(2.0, math.atan2(bessel_j(2.0, z), bessel_y(2.0, z))), z

    def test_profile_merges_the_shared_zero(self):
        a, b, z = self._pair()
        p = wronskian_profile(a, b, 6)
        assert p.coincident is True
        assert len(p.extrema) == 11  # 12 zeros, two of them merged
        (hit,) = [e for e in p.extrema if e[2] == "coincident"]
        assert hit[0] == pytest.approx(z, rel=1e-12) and hit[1] == 0.0

    def test_two_evaluations_per_extremum_none_at_the_pair(self, monkeypatch):
        # W at each extremum from one (C, C') pair per side, 2 more for the
        # tail, and nothing at the coincident pair, whose value is 0
        import cylfn.wronskian as wr

        a, b, z = self._pair()
        xs = []

        def counted(spec, x, fn=wr.cylinder_and_prime):
            xs.append(x)
            return fn(spec, x)

        monkeypatch.setattr(wr, "cylinder_and_prime", counted)
        p = wronskian_profile(a, b, 6)
        assert len(xs) == 2 * (len(p.extrema) - 1) + 2
        assert all(abs(x - z) > 1e-6 for x in xs)

    def test_interlacing_and_equivalence(self):
        a, b, _ = self._pair()
        rep = check_interlaced(find_zeros(a, EvalKind.FUNCTION, 6), find_zeros(b, EvalKind.FUNCTION, 6))
        assert rep.coincident is True and rep.interlaced is False
        eq = interlace_wronskian_equivalence(a, b, 6)
        assert eq.passed
        assert eq.details == {"sign_changes": 1, "interlaced": False}


class TestEquivalence:
    def test_interlaced_case(self):
        rep = interlace_wronskian_equivalence(_spec(2.0, 0.0), _spec(3.5, 0.0), 20)
        assert rep.passed
        assert rep.details["interlaced"] is True
        assert rep.details["sign_changes"] == 0

    def test_broken_case(self):
        rep = interlace_wronskian_equivalence(_spec(1.0, 0.0), _spec(4.5, 0.0), 25)
        assert rep.passed
        assert rep.details["interlaced"] is False
        assert rep.details["sign_changes"] >= 1

    def test_j_vs_y_breakdown_regime(self):
        # J-vs-Y breakdown regime: J order above Y order, gap 1.5, proviso
        # y_{mu,1} < j_{nu,1} holds; both sides come out false together
        j = _spec(2.5, 0.0)
        y = _spec(1.0, HALF_PI)
        y1 = find_zeros(y, EvalKind.FUNCTION, 1).zeros[0]
        j1 = find_zeros(j, EvalKind.FUNCTION, 1).zeros[0]
        assert y1 < j1
        rep = interlace_wronskian_equivalence(j, y, 15)
        assert rep.passed
        assert rep.details["interlaced"] is False
        assert rep.details["sign_changes"] >= 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSpecError):
            interlace_wronskian_equivalence(_spec(2.0, 1.0), _spec(2.0, 1.0), 5)

    def test_disagreement_counterexample(self, monkeypatch):
        import cylfn.wronskian as wr
        from cylfn.interlace import InterlaceReport

        # an interlaced pair (no sign change) judged broken
        monkeypatch.setattr(wr, "check_interlaced", lambda a, b: InterlaceReport(False, (1, 2), 1, False, "A"))
        rep = interlace_wronskian_equivalence(_spec(1.0, 0.0), _spec(2.0, 0.0), 15)
        assert rep.passed is False
        assert list(rep.counterexample) == ["sign_changes", "interlaced", "first_violation", "window_hi"]
        za = find_zeros(_spec(1.0, 0.0), EvalKind.FUNCTION, 15).zeros
        zb = find_zeros(_spec(2.0, 0.0), EvalKind.FUNCTION, 15).zeros
        assert rep.counterexample == {
            "sign_changes": 0, "interlaced": False, "first_violation": (1, 2), "window_hi": min(za[-1], zb[-1]),
        }
        assert rep.worst_residual == 0.0
