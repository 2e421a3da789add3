"""Evaluation accuracy and identity checks for the core function layer."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylfn.special_fn import (
    CylinderSpec,
    DomainError,
    MixingAngle,
    Order,
    asymptotic_cylinder,
    bessel_j,
    bessel_y,
    cylinder,
    cylinder_and_prime,
    cylinder_prime,
    sign_at_origin,
)
from oracle import oracle_cylinder, oracle_cylinder_prime, oracle_j, oracle_y

# values frozen after reproduction by the in-repo reference implementation
J_1_AT_1 = 0.4400505857449335
Y_0_AT_1 = 0.0882569642156769
Y_HALF_AT_PI = 0.45015815807855303
CYL_1_QUARTER_AT_2 = 0.4834893805928750
JP_HALF_AT_HALFPI = -0.2026423672846755


class TestFrozenAnchors:
    def test_j_series_limit_at_origin(self):
        assert abs(bessel_j(0.0, 1e-12) - 1.0) <= 1e-12

    def test_j_half_closed_form(self):
        assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-14)

    def test_j_1_at_1(self):
        assert bessel_j(1.0, 1.0) == pytest.approx(J_1_AT_1, abs=1e-14)

    def test_y_half_at_pi(self):
        assert bessel_y(0.5, math.pi) == pytest.approx(Y_HALF_AT_PI, abs=1e-13)

    def test_y_0_at_1(self):
        assert bessel_y(0.0, 1.0) == pytest.approx(Y_0_AT_1, abs=1e-13)

    def test_mixed_cylinder_at_2(self):
        spec = CylinderSpec.of(1.0, math.pi / 4)
        assert cylinder(spec, 2.0) == pytest.approx(CYL_1_QUARTER_AT_2, abs=1e-13)

    def test_jprime_is_minus_j1(self):
        spec = CylinderSpec.of(0.0, 0.0)
        assert cylinder_prime(spec, 1.0) == pytest.approx(-J_1_AT_1, abs=1e-14)

    def test_jprime_half_at_half_pi(self):
        spec = CylinderSpec.of(0.5, 0.0)
        assert cylinder_prime(spec, math.pi / 2) == pytest.approx(
            JP_HALF_AT_HALFPI, abs=1e-13
        )


class TestDomainValidation:
    def test_order_bounds(self):
        with pytest.raises(DomainError):
            Order(-0.1)
        with pytest.raises(DomainError):
            Order(30.0001)

    def test_x_bounds(self):
        spec = CylinderSpec.of(1.0, 0.0)
        for bad in (0.0, -1.0, 400.0001):
            with pytest.raises(DomainError):
                cylinder(spec, bad)

    def test_bessel_j_extended_order_window(self):
        bessel_j(-0.5, 1.0)
        bessel_j(31.0, 1.0)
        with pytest.raises(DomainError):
            bessel_j(-1.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(31.5, 1.0)

    def test_bessel_y_order_window(self):
        with pytest.raises(DomainError):
            bessel_y(-0.5, 1.0)
        with pytest.raises(DomainError):
            bessel_y(30.5, 1.0)


class TestAccuracyContract:
    # absolute error <= 1e-10 * max(1, |f| * 1e3), relative <= 1e-9 away
    # from zeros, across the (nu, x) box, judged against the reference
    # implementation
    GRID = [
        (0.0, 0.3), (0.0, 12.0), (0.0, 29.5), (0.0, 120.0), (0.0, 400.0),
        (0.5, 1.0), (1.0, 2.0), (2.7, 8.5), (5.0, 30.5), (7.3, 55.0),
        (13.6, 13.6), (20.0, 95.0), (25.5, 26.0), (30.0, 1.0), (30.0, 31.0),
        (30.0, 400.0), (11.0, 350.0), (0.25, 399.5),
    ]

    def _check(self, got, ref):
        err = abs(got - ref)
        assert err <= 1e-10 * max(1.0, abs(ref) * 1e3)
        if abs(ref) > 1e-3:
            assert err <= 1e-9 * abs(ref)

    def test_j_on_box(self):
        for nu, x in self.GRID:
            self._check(bessel_j(nu, x), float(oracle_j(nu, x)))

    def test_y_on_box(self):
        for nu, x in self.GRID:
            if x < 0.5 and nu >= 25:
                continue  # |Y| astronomically large; covered by sign test
            self._check(bessel_y(nu, x), float(oracle_y(nu, x)))

    def test_mixed_angles_on_box(self):
        for nu, x in ((0.7, 3.0), (3.3, 29.0), (3.3, 31.0), (12.0, 200.0)):
            for delta in (math.pi / 6, math.pi / 3, 2.5):
                got = cylinder(CylinderSpec.of(nu, delta), x)
                self._check(got, float(oracle_cylinder(nu, delta, x)))

    def test_regime_seams_are_continuous(self):
        # series/backward-recurrence handoff near x = 30: values on both
        # sides of the seam agree with the reference at full contract
        for nu in (0.4, 3.0, 17.2, 29.9):
            for x in (29.95, 30.0, 30.05):
                self._check(bessel_j(nu, x), float(oracle_j(nu, x)))
                self._check(bessel_y(nu, x), float(oracle_y(nu, x)))

    def test_y_near_integer_orders(self):
        # orders within 1e-7 of an integer, where Y by the reflection
        # formula would divide a cancelled difference by sin(nu pi)
        for nu in (1e-12, 1.0 - 1e-9, 2.0 + 1e-7, 27.0 - 1e-9):
            for x in (0.5, 12.35, 29.0):
                self._check(bessel_y(nu, x), float(oracle_y(nu, x)))

    def test_large_x_value_and_derivative(self):
        # past x = 30 one path serves J, Y and mixed angles, for C and C'
        # alike: the seam band, with orders up to the turning point, and the
        # far end of the box
        for nu, x in (
            (0.0, 30.05), (12.5, 33.0), (25.0, 31.7), (29.4, 36.0), (30.0, 40.0),
            (3.7, 200.0), (26.5, 280.0), (17.25, 399.9),
        ):
            for delta in (0.0, math.pi / 2, 2.2):
                c, cp = cylinder_and_prime(CylinderSpec.of(nu, delta), x)
                self._check(c, float(oracle_cylinder(nu, delta, x)))
                self._check(cp, float(oracle_cylinder_prime(nu, delta, x)))

    def test_j_order_window_past_seam(self):
        for nu in (-0.7, -0.3, 31.0):
            for x in (30.05, 37.5, 250.0, 400.0):
                self._check(bessel_j(nu, x), float(oracle_j(nu, x)))


class TestIdentities:
    def test_normal_form_ode_residual(self):
        # |x^2 (xi'' + xi) - (nu^2 - 1/4) xi| <= 1e-5 max(1, |xi|)
        h = 1e-4
        eps = 2.220446049250313e-16
        for nu, delta in ((0.0, 0.0), (1.5, 0.0), (4.2, math.pi / 3), (9.0, math.pi / 2)):
            spec = CylinderSpec.of(nu, delta)

            def xi(t):
                return math.sqrt(t) * cylinder(spec, t)

            x = 1.0
            while x <= 50.0:
                second = (xi(x + h) - 2.0 * xi(x) + xi(x - h)) / (h * h)
                val = xi(x)
                resid = abs(x * x * (second + val) - (nu * nu - 0.25) * val)
                # the second difference itself injects rounding noise of
                # order eps*(x/h)^2, which dominates the budget past x ~ 15
                tol = (1e-5 + 16.0 * eps * (x / h) ** 2) * max(1.0, abs(val))
                assert resid <= tol, (nu, delta, x, resid)
                x += 3.7

    def test_reflection_consistency(self):
        # base orders in (0, 1): the public J window is [-1, 31]; higher
        # orders reach Y through recurrence and are covered by the accuracy
        # contract tests
        for nu in (0.3, 0.45, 0.8):
            for x in (1.0, 6.0, 22.0):
                lhs = bessel_y(nu, x)
                rhs = (bessel_j(nu, x) * math.cos(nu * math.pi) - bessel_j(-nu, x)) / math.sin(
                    nu * math.pi
                )
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_half_integer_closed_forms(self):
        x = 0.5
        while x <= 50.0:
            amp = math.sqrt(2.0 / (math.pi * x))
            assert abs(bessel_j(0.5, x) - amp * math.sin(x)) <= 1e-12 * max(1.0, amp)
            assert abs(bessel_y(0.5, x) + amp * math.cos(x)) <= 1e-12 * max(1.0, amp)
            x += 1.83

    def test_prime_against_five_point_stencil(self):
        h = 1e-3
        w = (1.0, -8.0, 8.0, -1.0)
        for nu, delta in ((0.0, 0.0), (2.5, math.pi / 4), (6.0, math.pi / 2)):
            spec = CylinderSpec.of(nu, delta)
            x = 1.0
            while x <= 50.0:
                pts = (x - 2 * h, x - h, x + h, x + 2 * h)
                num = sum(wi * cylinder(spec, t) for wi, t in zip(w, pts)) / (12.0 * h)
                # absolute where the value is O(1), relative where Y-type
                # growth near the origin makes absolutes meaningless
                tol = max(1e-6, 1e-9 * abs(num))
                assert abs(cylinder_prime(spec, x) - num) <= tol, (nu, delta, x)
                x += 5.11

    def test_derivative_sum_rule(self):
        # C'_{nu+1} = (C_nu - C_{nu+2}) / 2 at (nu, delta, x) = (1, pi/3, 5)
        delta = math.pi / 3
        lhs = cylinder_prime(CylinderSpec.of(2.0, delta), 5.0)
        rhs = 0.5 * (
            cylinder(CylinderSpec.of(1.0, delta), 5.0)
            - cylinder(CylinderSpec.of(3.0, delta), 5.0)
        )
        assert abs(lhs - rhs) <= 1e-10

    def test_cylinder_and_prime_consistent(self):
        spec = CylinderSpec.of(3.3, 1.1)
        c, cp = cylinder_and_prime(spec, 14.0)
        assert c == cylinder(spec, 14.0)
        assert cp == cylinder_prime(spec, 14.0)


class TestMixingAngle:
    def test_normalization_window(self):
        assert MixingAngle(0.0).delta == 0.0
        assert MixingAngle(math.pi).delta == pytest.approx(0.0, abs=1e-15)
        assert MixingAngle(-math.pi / 4).delta == pytest.approx(3 * math.pi / 4)

    def test_flip_changes_only_the_sign(self):
        # C(delta + pi) = -C(delta); the normalized representative keeps the
        # zero set and flips the stored sign convention
        raw = -math.pi / 4
        spec = CylinderSpec.of(2.0, raw)
        assert spec.delta == pytest.approx(3 * math.pi / 4)
        direct = math.cos(raw) * bessel_j(2.0, 5.0) - math.sin(raw) * bessel_y(2.0, 5.0)
        assert cylinder(spec, 5.0) == pytest.approx(-direct, rel=1e-12)

    @given(
        delta=st.floats(0.0, math.pi, exclude_max=True),
        nu=st.floats(0.1, 10.0),
        x=st.floats(0.5, 50.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_periodicity_property(self, delta, nu, x):
        # delta + pi normalizes back to delta with the overall sign absorbed,
        # so the library returns the same representative (same zero set)
        a = cylinder(CylinderSpec.of(nu, delta), x)
        b = cylinder(CylinderSpec.of(nu, delta + math.pi), x)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


class TestSignAtOrigin:
    def test_cases(self):
        assert sign_at_origin(CylinderSpec.of(2.0, math.pi / 4)) == 1
        assert sign_at_origin(CylinderSpec.of(2.0, 0.0)) == 1
        # raw -pi/4 normalizes to 3pi/4 where sin > 0
        assert sign_at_origin(CylinderSpec.of(2.0, -math.pi / 4)) == 1
        assert math.copysign(1.0, cylinder(CylinderSpec.of(2.0, math.pi / 4), 1e-3)) == 1.0
        assert math.copysign(1.0, cylinder(CylinderSpec.of(2.0, math.pi / 2), 1e-3)) == 1.0

    def test_y_negative_near_origin(self):
        for nu in (0.5, 2.0, 11.0):
            assert bessel_y(nu, 1e-3) < 0.0


class TestAsymptotic:
    def test_half_integer_exactness(self):
        for x in (10.0, 55.5, 200.0):
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert asymptotic_cylinder(CylinderSpec.of(0.5, 0.0), x) == pytest.approx(ref)

    def test_j1_at_100(self):
        got = asymptotic_cylinder(CylinderSpec.of(1.0, 0.0), 100.0)
        assert abs(got - bessel_j(1.0, 100.0)) < 1e-3

    def test_precondition(self):
        with pytest.raises(DomainError):
            asymptotic_cylinder(CylinderSpec.of(5.0, 0.0), 10.0)
