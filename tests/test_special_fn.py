"""Evaluation accuracy and identity checks for the core function layer."""

import math
import random
import sys

import mpmath as mp
import pytest

from cylfn.special_fn import (
    CylinderSpec,
    DomainError,
    MixingAngle,
    Order,
    bessel_j,
    bessel_y,
    cylinder,
    cylinder_and_prime,
    cylinder_prime,
)
from cylfn.special_fn import _X_SERIES, _hankel_pq
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
        # the one seam, continued fractions up to x = 24 and Hankel sums
        # past it, for every order: J, Y, C and C' on both sides agree with
        # the reference at full contract; and x = 30, the top order's
        # turning point
        for nu in (0.4, 3.0, 17.2, 29.9):
            for x in (23.95, 24.0, 24.05, 29.95, 30.0, 30.05):
                self._check(bessel_j(nu, x), float(oracle_j(nu, x)))
                self._check(bessel_y(nu, x), float(oracle_y(nu, x)))
                for delta in (0.0, math.pi / 2, 2.2):
                    c, cp = cylinder_and_prime(CylinderSpec.of(nu, delta), x)
                    self._check(c, float(oracle_cylinder(nu, delta, x)))
                    self._check(cp, float(oracle_cylinder_prime(nu, delta, x)))

    def test_y_near_integer_orders(self):
        # orders within 1e-7 of an integer, where Y by the reflection
        # formula would divide a cancelled difference by sin(nu pi)
        for nu in (1e-12, 1.0 - 1e-9, 2.0 + 1e-7, 27.0 - 1e-9):
            for x in (0.5, 12.35, 29.0):
                self._check(bessel_y(nu, x), float(oracle_y(nu, x)))

    def test_large_x_value_and_derivative(self):
        # J, Y and mixed angles, for C and C' alike, from the one-pass
        # continued fractions up to x = 24 (20 <= x <= 24 with orders on
        # both sides of the turning point) and from the Hankel sums past it
        # (24 < x <= 40 with orders on both sides of the turning point, and
        # the far end of the box)
        for nu, x in (
            (0.0, 20.0), (0.0, 23.2), (7.5, 24.0), (19.9, 20.0), (25.0, 25.0),
            (29.0, 29.5), (3.3, 30.0), (20.5, 20.0), (29.0, 28.5), (1.2, 19.99),
            (0.0, 30.05), (12.5, 33.0), (25.0, 31.7), (29.4, 36.0), (30.0, 40.0),
            (3.7, 200.0), (26.5, 280.0), (17.25, 399.9),
        ):
            for delta in (0.0, math.pi / 2, 2.2):
                c, cp = cylinder_and_prime(CylinderSpec.of(nu, delta), x)
                self._check(c, float(oracle_cylinder(nu, delta, x)))
                self._check(cp, float(oracle_cylinder_prime(nu, delta, x)))

    def test_base_order_range_ends_past_the_seam(self):
        # one pass of the Hankel sums serves both base orders frac(nu) and
        # frac(nu) + 1: frac(nu) at 0, just below 1, and at and near 1/2,
        # where the order-frac(nu) terms stop first; x just past the seam
        # (the longest sums), just past 30 and at 400 (the shortest).  J and
        # Y at nu and nu + 1 give C and C' = -C_{nu+1} + (nu/x) C_nu at
        # every angle.
        for nu in (7.0, 7.5, 7.5 + 1e-12, 8.0 - 2.0**-40, 29.5):
            for x in (math.nextafter(24.0, math.inf), math.nextafter(30.0, math.inf), 400.0):
                jy = [(oracle_j(n, x), oracle_y(n, x)) for n in (nu, nu + 1.0)]
                for delta in (0.0, math.pi / 2, 2.2):
                    with mp.workdps(60):
                        c, s = mp.cos(mp.mpf(delta)), mp.sin(mp.mpf(delta))
                        c0, c1 = (c * j - s * y for j, y in jy)
                        ref = (c0, -c1 + (mp.mpf(nu) / mp.mpf(x)) * c0)
                    got = cylinder_and_prime(CylinderSpec.of(nu, delta), x)
                    for g, r in zip(got, ref):
                        self._check(g, float(r))

    def test_tiny_angle_keeps_the_y_part(self):
        # delta = 1e-16 weighs Y by 1e-16, yet Y' outgrows J' like 1/x as
        # x -> 0: at x = 1e-10 the Y part moves C' by 1e-6 relative, and C'
        # changes sign near x = delta
        nu, delta, x = 0.5, 1e-16, 1e-10
        c, cp = cylinder_and_prime(CylinderSpec.of(nu, delta), x)
        self._check(c, float(oracle_cylinder(nu, delta, x)))
        self._check(cp, float(oracle_cylinder_prime(nu, delta, x)))

    # orders about -1/2, where the mixing angle of J_{-m} switches from m pi
    # to (m - 1) pi, and just above -1
    BOUNDARY_ORDERS = (-0.5, -(0.5 + 1e-9), -(0.5 - 1e-9), -(1.0 - 1e-9))

    def test_j_order_window_past_seam(self):
        for nu in (-1.0, -0.7, -0.3, 31.0) + self.BOUNDARY_ORDERS:
            for x in (math.nextafter(24.0, math.inf), 24.05, 26.5, 30.0, 30.05, 37.5, 250.0, 400.0):
                self._check(bessel_j(nu, x), float(oracle_j(nu, x)))

    def test_j_order_window_below_seam(self):
        # J_{-m} = cos(m pi) J_m - sin(m pi) Y_m = C_m(x; m pi), from the
        # same paths as every C_m: the one-pass J, Y up to x = 24, the
        # Hankel sums above; order 31 through CF1 throughout
        for nu in (-1.0, -0.7, -0.3, 31.0) + self.BOUNDARY_ORDERS:
            for x in (1e-3, 0.5, 1.99, 2.0, 7.3, 19.99, 20.0, 23.95, 24.0):
                self._check(bessel_j(nu, x), float(oracle_j(nu, x)))

    def _check_or_overflow(self, got, ref):
        try:
            v = got()
        except OverflowError:
            # the value, or an intermediate order, is past the double range
            assert abs(ref) > 1e300
            return
        assert math.isfinite(v)
        self._check(v, float(ref))

    @pytest.mark.parametrize("x", (1e-300, 1e-100, 1e-20, 1e-10))
    @pytest.mark.parametrize("nu", (0.0, 0.25, 0.45, 0.5, 10.0, 30.0))
    def test_tiny_x_is_correct_or_overflows(self, nu, x):
        # J is finite and within contract (underflow to 0 included); Y, C
        # and C' are within contract or raise OverflowError: never NaN,
        # never ZeroDivisionError
        j = bessel_j(nu, x)
        assert math.isfinite(j)
        self._check(j, float(oracle_j(nu, x)))
        self._check_or_overflow(lambda: bessel_y(nu, x), oracle_y(nu, x))
        for delta in (0.0, math.pi / 2, 2.2):
            spec = CylinderSpec.of(nu, delta)
            self._check_or_overflow(lambda: cylinder(spec, x), oracle_cylinder(nu, delta, x))
            self._check_or_overflow(
                lambda: cylinder_and_prime(spec, x)[1], oracle_cylinder_prime(nu, delta, x)
            )

    def test_derivative_where_j_underflows(self):
        # J'_nu is nu/x times larger than J_nu as x -> 0: on 13 orders from 0
        # to 2.4 and x = 1e-150 to 1e-300, it keeps 1e-9 relative wherever
        # it is a normal double, J underflowing or not (J'_2.4(1e-150) =
        # 1.5253e-211 read 0, and J'_1.4(1e-230) 3.95e-93 for 4.27e-93)
        checked = 0
        for nu in (0.2 * i for i in range(13)):
            spec = CylinderSpec.of(nu, 0.0)
            for k in range(150, 301, 10):
                x = 10.0 ** -k
                ref = float(oracle_cylinder_prime(nu, 0, x))
                if sys.float_info.min <= abs(ref) <= sys.float_info.max:
                    got = cylinder_and_prime(spec, x)[1]
                    assert abs(got - ref) <= 1e-9 * abs(ref), (nu, x, got, ref)
                    checked += 1
        assert checked >= 150

    def test_half_integer_orders_at_half_pi(self):
        # mu = nu - round(nu) = -1/2, and J_{-1/2}(x) = sqrt(2/(pi x)) cos x
        # is 4e-17 at the double nearest pi/2: x < 2 takes no ratio over J_mu.
        # Reference: J_{n+1/2} = sqrt(2x/pi) j_n, j_n by upward recurrence
        x = math.pi / 2
        with mp.workdps(80):
            t = mp.mpf(x)
            j = [mp.sin(t) / t, mp.sin(t) / t**2 - mp.cos(t) / t]
            for n in range(1, 30):
                j.append((2 * n + 1) / t * j[n] - j[n - 1])
            ref = [float(mp.sqrt(2 * t / mp.pi) * v) for v in j]
        for n in range(31):
            self._check(bessel_j(n + 0.5, x), ref[n])

    # doubles next to a zero of J_mu, mu = nu - round(nu) in (-1/2, 0), at
    # nu = mu + k, where a ratio over J_mu would divide by zero
    NEAR_J_MU_ZERO = (
        (0.5362181433337714, 1.6371689163662888), (1.5362181433337714, 1.6371689163662888),
        (4.536218143333771, 1.6371689163662888), (0.6828444584562927, 1.8938656510666776),
        (1.6828444584562927, 1.8938656510666776), (4.682844458456293, 1.8938656510666776),
    )
    # x >= 2 next to a zero of J_{mu+k}, mu = nu - round(nu): a recurrence
    # down round(nu) orders would divide by zero; the base order
    # nu - int(nu - x + 1.5) keeps every order above x - 1.5, below its first zero
    PAST_TWO = (
        (2.6366764217701624, 14.266865163000432), (5.150070973914072, 21.03724912904016),
        (4.266287886410407, 13.379952857156773), (6.160131587985637, 6.575695191789013),
        (5.496808772952906, 7.720782818347449), (2.151322565841182, 4.034449218253029),
        (5.0369566006716235, 5.182471789124472), (2.5356248557128502, 3.1920021315993963),
        (6.100929799475923, 2.5588553300912644),
    )

    @pytest.mark.parametrize("points", (NEAR_J_MU_ZERO, PAST_TWO), ids=("below-2", "past-2"))
    def test_recurrence_next_to_a_zero_of_j(self, points):
        for nu, x in points:
            c, cp = cylinder_and_prime(CylinderSpec.of(nu, 0.0), x)
            self._check(c, float(oracle_j(nu, x)))
            self._check(cp, float(oracle_cylinder_prime(nu, 0.0, x)))
            self._check(bessel_y(nu, x), float(oracle_y(nu, x)))


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
        # one ulp below pi is J up to sign, as its shift by pi (2 pi) is
        assert MixingAngle(3.1415926535897927).delta == 0.0

    def test_flip_changes_only_the_sign(self):
        # C(delta + pi) = -C(delta); the normalized representative keeps the
        # zero set and flips the stored sign convention
        raw = -math.pi / 4
        spec = CylinderSpec.of(2.0, raw)
        assert spec.delta == pytest.approx(3 * math.pi / 4)
        direct = math.cos(raw) * bessel_j(2.0, 5.0) - math.sin(raw) * bessel_y(2.0, 5.0)
        assert cylinder(spec, 5.0) == pytest.approx(-direct, rel=1e-12)

    def test_periodicity_property(self):
        # d2 and d2 - pi normalize to one angle with the overall sign
        # absorbed, so the library returns the same representative (same
        # zero set); d2 - pi is exact by Sterbenz's lemma, where delta itself
        # would differ from it by the rounding of delta + pi
        rng = random.Random(20261019)
        cases = [
            (3.1415926535897927, 1.0, 2.0),  # one ulp below pi: delta + pi rounds to 2 pi
            (1e-10, 10.0, 0.5),  # |Y| >> |J|: delta + pi keeps only a multiple of 4.4e-16 of delta
        ] + [(0.0, nu, x) for nu in (0.1, 10.0) for x in (0.5, 50.0)]  # the corners of the ranges
        cases += [(rng.uniform(0.0, math.pi), rng.uniform(0.1, 10.0), rng.uniform(0.5, 50.0)) for _ in range(30)]
        for delta, nu, x in cases:
            d2 = delta + math.pi
            a = cylinder(CylinderSpec.of(nu, d2 - math.pi), x)
            b = cylinder(CylinderSpec.of(nu, d2), x)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12), (delta, nu, x)


def _hankel_pq_at(mu, x):
    # (P, Q) at one order, term by term, each term's sign and slot worked
    # out from k, and the index of the term it stopped at (None where no
    # term of the 59 fell below 1e-20): the reference for the one pass over
    # both base orders
    mu4 = 4.0 * mu * mu
    p, q, a = 1.0, 0.0, 1.0
    for k in range(1, 60):
        a *= (mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        sgn = -1.0 if (k // 2) & 1 else 1.0
        if k & 1:
            q += sgn * a
        else:
            p += sgn * a
        if abs(a) < 1e-20:
            return p, q, k
    return p, q, None


def _one_pass_reference(mu, x):
    # (P, Q) at orders mu and mu + 1, as _hankel_pq must return them
    return _hankel_pq_at(mu, x)[:2] + _hankel_pq_at(mu + 1.0, x)[:2]


class TestHankelSums:
    def test_one_pass_matches_each_order_bit_for_bit(self):
        # a term added past either order's cutoff, or a pass cut short at
        # the first order's, moves Q at orders near 1/2 (Q ~ 1e-18 there),
        # not C past its contract: only an exact comparison sees it
        rng = random.Random(20261026)
        for i in range(4000):
            if i % 2:
                mu = rng.random()
            else:
                mu = 0.5 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -1.0)
            x = 24.0 + 10.0 ** rng.uniform(-14.0, math.log10(376.0))
            assert repr(_hankel_pq(mu, x)) == repr(_one_pass_reference(mu, x)), (mu, x)
        for mu in (0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(1.0, 0.0)):
            for x in (math.nextafter(24.0, math.inf), math.nextafter(30.0, math.inf), 400.0):
                assert repr(_hankel_pq(mu, x)) == repr(_one_pass_reference(mu, x)), (mu, x)

    def test_every_order_stops_just_past_the_seam(self):
        # the seam's lower limit: just past it, every base order mu in
        # [0, 1) and mu + 1 reaches the 1e-20 stop before the last of the
        # 59 terms, and within 32 (16 of the pass's 30 pairs).  Below x
        # ~ 22.3 some orders never reach it
        x = math.nextafter(_X_SERIES, math.inf)
        ulps = (math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0))
        mus = [k / 2048.0 for k in range(2048)] + list(ulps)
        stops = [_hankel_pq_at(order, x)[2] for mu in mus for order in (mu, mu + 1.0)]
        assert None not in stops
        assert max(stops) <= 32


class TestSignAtOrigin:
    def test_cases(self):
        assert math.copysign(1.0, cylinder(CylinderSpec.of(2.0, math.pi / 4), 1e-3)) == 1.0
        assert math.copysign(1.0, cylinder(CylinderSpec.of(2.0, math.pi / 2), 1e-3)) == 1.0

    def test_y_negative_near_origin(self):
        for nu in (0.5, 2.0, 11.0):
            assert bessel_y(nu, 1e-3) < 0.0

