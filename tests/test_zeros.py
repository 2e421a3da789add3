"""Zero enumeration and trajectory tests."""

import bisect
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest

import corpus
from cylfn.special_fn import (
    CylinderSpec,
    DomainError,
    EvalKind,
    MixingAngle,
    bessel_j,
    bessel_y,
    cylinder,
    cylinder_and_prime,
)
from cylfn import zeros
from cylfn.zeros import IterationError, Trajectory, find_zeros, zero_count, zero_trajectory
from oracle import (
    bisect_zero_log,
    certify_sign_change,
    oracle_cylinder,
    oracle_cylinder_prime,
    oracle_j,
    oracle_y,
    oracle_zeros,
)

# frozen after reproduction by the reference bisection (tests/oracle.py)
J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013)
J1_FIRST = 3.831705970207512
# the first three zeros of C' at an angle 1e-3 below delta_c(nu) =
# pi/2 - arg(J'_nu(nu) + i Y'_nu(nu)), where C' has a double zero at x = nu
STRADDLING = {
    (5.0, 0.460552): (4.9422067579283037, 5.0580155764549347, 9.9870089648062816),
    (30.0, 0.503288): (29.897677741122536, 30.102436767833276, 37.81769201116492),
}


def _spec(nu, delta):
    return CylinderSpec.of(nu, delta)


class TestAnchors:
    def test_j0_first_three(self):
        seq = find_zeros(_spec(0.0, 0.0), EvalKind.FUNCTION, 3)
        for got, ref in zip(seq.zeros, J0_ZEROS):
            assert abs(got - ref) <= 1e-9

    def test_j_half_zeros_are_multiples_of_pi(self):
        seq = find_zeros(_spec(0.5, 0.0), EvalKind.FUNCTION, 5)
        for s, z in enumerate(seq.zeros, start=1):
            assert abs(z - s * math.pi) <= 1e-10

    def test_neg_y_half_zeros(self):
        # C = -Y_{1/2} is proportional to cos x
        seq = find_zeros(_spec(0.5, math.pi / 2), EvalKind.FUNCTION, 3)
        for s, z in enumerate(seq.zeros, start=1):
            assert abs(z - (s - 0.5) * math.pi) <= 1e-10

    def test_oracle_cross_check_mixed_angle(self):
        got = find_zeros(_spec(1.3, math.pi / 4), EvalKind.FUNCTION, 4).zeros
        ref = oracle_zeros(1.3, math.pi / 4, 4)
        for g, r in zip(got, ref):
            assert abs(g - float(r)) <= 1e-11


class TestStructure:
    def test_strictly_increasing_and_simple(self):
        spec = _spec(3.5, 1.0)
        seq = find_zeros(spec, EvalKind.FUNCTION, 12)
        zs = seq.zeros
        assert all(a < b for a, b in zip(zs, zs[1:]))
        for z in zs:
            assert certify_sign_change(lambda t: oracle_cylinder(3.5, 1.0, t), z)

    def test_asymptotic_pi_spacing(self):
        zs = find_zeros(_spec(2.0, 0.3), EvalKind.FUNCTION, 30).zeros
        gaps = [b - a for a, b in zip(zs, zs[1:])]
        assert all(0.0 < g < 2.0 * math.pi for g in gaps)
        assert abs(gaps[-1] - math.pi) < 0.01

    def test_derivative_zero_convention_at_origin(self):
        seq = find_zeros(_spec(0.0, 0.0), EvalKind.DERIVATIVE, 3)
        assert seq.zeros[0] == 0.0
        assert abs(seq.zeros[1] - 3.831705970207512) <= 1e-9  # J'_0 = -J_1

    def test_derivative_first_zero_lower_bound(self):
        # nu <= j'_{nu,1} for the J-type derivative sequence
        for nu in (1.0, 4.5, 11.0):
            z1 = find_zeros(_spec(nu, 0.0), EvalKind.DERIVATIVE, 1).zeros[0]
            assert z1 >= nu

    def test_residual_small_at_zeros(self):
        spec = _spec(7.2, 2.0)
        for z in find_zeros(spec, EvalKind.FUNCTION, 8).zeros:
            # local scale ~ amplitude of the oscillation
            assert abs(cylinder(spec, z)) <= 1e-9 * math.sqrt(2.0 / (math.pi * z))

    @pytest.mark.parametrize("nu, n", ((11.03302818263548, 2), (3.714982139983484, 50)))
    def test_y_type_zeros_where_y_vanishes_at_the_base_order(self, nu, n):
        # Newton lands on zeros of Y_nu; with no recurrence steps there the
        # continued fractions see Y_mu = 0 exactly, and a Y'/Y quotient
        # would divide by zero
        spec = _spec(nu, math.pi / 2)
        zs = find_zeros(spec, EvalKind.FUNCTION, n).zeros
        assert len(zs) == n
        for z in zs:
            assert certify_sign_change(
                lambda t: oracle_cylinder(nu, math.pi / 2, t), z, eps=mp.mpf(z) * mp.mpf("1e-12")
            )

    def test_refined_to_is_achieved_tolerance(self):
        assert find_zeros(_spec(0.0, 0.0), EvalKind.FUNCTION, 3).refined_to == zeros.REL_TOL

    def test_refined_to_reports_bracket_fallback(self, monkeypatch):
        # a phase rate of 0 makes every step a bisection, and 32 of them end
        # on a bracket below 1e-9 but above REL_TOL: the fallback midpoint
        target = zeros._target

        def flat_rate(spec, kind):
            phase = target(spec, kind)

            def flat(x):
                u, _, *rest = phase(x)
                return (u, 0.0, *rest)

            return flat

        monkeypatch.setattr(zeros, "_target", flat_rate)
        monkeypatch.setattr(zeros, "_MAX_ITER", 32)
        zeros._find_zeros_cached.cache_clear()
        try:
            seq = find_zeros(_spec(0.0, 0.0), EvalKind.FUNCTION, 3)
        finally:
            zeros._find_zeros_cached.cache_clear()
        assert zeros.REL_TOL < seq.refined_to <= 1e-9
        for got, ref in zip(seq.zeros, J0_ZEROS):
            assert abs(got - ref) <= seq.refined_to * max(1.0, ref) + 1e-15

    def test_preconditions(self):
        with pytest.raises(DomainError):
            find_zeros(_spec(1.0, 0.0), EvalKind.FUNCTION, 0)
        with pytest.raises(DomainError):
            find_zeros(_spec(30.0, 0.0), EvalKind.FUNCTION, 200)


class TestCountArgument:
    """A count of zeros or a zero's index is an integer >= 1: 3.0 is 3, and
    2.7 raises instead of being truncated to 2."""

    @staticmethod
    def _calls(k):
        from cylfn.interlace import verify_chain

        return (
            lambda: find_zeros(_spec(1.0, 0.0), EvalKind.FUNCTION, k),
            lambda: zero_trajectory(MixingAngle(0.0), EvalKind.FUNCTION, k, [1.0, 2.0]),
            lambda: verify_chain(1.0, 0.5, k),
        )

    @pytest.mark.parametrize("k", (2.7, 1.9, 2.9, 0.5, math.nan, math.inf))
    def test_non_integer_raises(self, k):
        for call in self._calls(k):
            with pytest.raises(DomainError, match=f"an integer, got {k!r}"):
                call()

    def test_integral_float_accepted(self):
        for whole, exact in zip(self._calls(3.0), self._calls(3)):
            assert whole() == exact()
        assert self._calls(3.0)[2]().name == "chain(nu=1, c=0.5, n=3)"

    @pytest.mark.parametrize("k", (2**63 - 1, 2**63, 10**19))
    def test_count_beyond_maxsize_gets_the_box_message(self, k):
        # sys.maxsize = 2**63 - 1: a larger count is refused for the box, like any count too large
        for call in self._calls(k):
            with pytest.raises(DomainError, match="would leave the box x <= 400"):
                call()


class TestNoSkippedZero:
    @pytest.mark.parametrize("nu, delta", sorted(STRADDLING))
    def test_derivative_zeros_straddling_the_order(self, nu, delta):
        # one zero on each side of x = nu, closer together than a scan step
        zs = find_zeros(_spec(nu, delta), EvalKind.DERIVATIVE, 3).zeros
        assert len(zs) == 3
        for got, ref in zip(zs, STRADDLING[nu, delta]):
            assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("nu, delta, kind", (
        (0.0, math.pi - 0.1, EvalKind.FUNCTION),
        (0.0, math.pi - 0.01, EvalKind.FUNCTION),
        (0.2, 1e-3, EvalKind.DERIVATIVE),
        (0.5, 1e-10, EvalKind.DERIVATIVE),
        (0.5, 1e-16, EvalKind.DERIVATIVE),
        (0.0, math.pi - 1e-14, EvalKind.DERIVATIVE),  # J'_0 = -J_1 < 0: C' at delta -> pi-
        (1e-13, 0.0, EvalKind.DERIVATIVE),  # J'_nu's own zero, near sqrt(2 nu)
    ))
    def test_zero_below_the_scan_start(self, nu, delta, kind):
        # the first zero lies below x = 1e-6, the second above it
        f = oracle_cylinder if kind is EvalKind.FUNCTION else oracle_cylinder_prime
        zs = find_zeros(_spec(nu, delta), kind, 2).zeros
        ref = bisect_zero_log(lambda t: f(nu, delta, t), mp.mpf("1e-80"), mp.mpf("1e-6"))
        assert abs(zs[0] - ref) <= 1e-9 * ref
        assert certify_sign_change(
            lambda t: f(nu, delta, t), zs[1], eps=mp.mpf(zs[1]) * mp.mpf("1e-12")
        )

    @pytest.mark.parametrize("nu", (1.0, 2.5, 7.0, 10.0, 15.0, 30.0))
    @pytest.mark.parametrize("eps", (1e-15, 1e-14, 1e-12, 1e-9, 1e-6))
    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_first_zero_at_a_small_effective_angle(self, nu, eps, kind):
        # C' at delta -> 0+ and C at delta -> pi-: the first zero's phase
        # crossing is too flat for the phase's rounding
        delta = eps if kind is EvalKind.DERIVATIVE else math.pi - eps
        spec = _spec(nu, delta)
        f = oracle_cylinder if kind is EvalKind.FUNCTION else oracle_cylinder_prime
        seq = find_zeros(spec, kind, 2)
        z = seq[0]
        assert certify_sign_change(
            lambda t: f(spec.nu, spec.delta, t), z, eps=mp.mpf(z) * mp.mpf("1e-12")
        )
        assert seq.refined_to == zeros.REL_TOL

    @staticmethod
    def _start_orders():
        # three orders below 1e-6, 40 random ones, and four in the Hankel
        # band (24, 30], where x0 = nu is evaluated by the Hankel sums and C
        # and H = J + iY no longer come from the same J and Y
        rng = random.Random(20261027)
        return [0.0, 1e-12, 1e-7] + [30.0 * (1.0 - rng.random()) for _ in range(40)] + [
            24.372412471096418, math.nextafter(24.0, math.inf), 27.5, 30.0]

    def test_first_zero_on_the_start(self):
        # C's zero put on x0 = max(nu, 1e-6), at angles a few ulps apart:
        # the start index reads u's side of 1 from the sign test's own f, so
        # the first zero is found once, neither repeated nor skipped
        for nu in self._start_orders():
            x0 = max(nu, zeros._START)
            d0 = math.atan2(bessel_j(nu, x0), bessel_y(nu, x0)) % math.pi  # C(x0) = 0
            for k in range(-3, 4):
                spec = _spec(nu, d0 + k * 2.2e-16 * max(1.0, d0))
                zs = find_zeros(spec, EvalKind.FUNCTION, 3).zeros
                assert all(a < b for a, b in zip(zs, zs[1:])), (spec, zs)
                z = zs[0]
                assert abs(z - x0) <= 1e-12 * x0, (spec, zs)
                assert certify_sign_change(
                    lambda t: oracle_cylinder(nu, spec.delta, t), z, eps=mp.mpf(z) * mp.mpf("1e-12")
                )
                # x0 itself is not probed: either count is right within rounding of the zero
                assert zero_count(spec, EvalKind.FUNCTION, x0 * (1.0 - 1e-9)) == 0, spec
                assert zero_count(spec, EvalKind.FUNCTION, x0 * (1.0 + 1e-9)) == 1, spec

    def test_derivative_zeros_on_the_start(self):
        # C''s zero put on x0 = nu, where its phase turns (phi' = 0): a
        # double zero, which angles a few ulps off split into two zeros
        # about 1e-8 nu either side of nu, or remove.  The start index reads
        # u's side of 1 from the sign test's own f, so the walk and
        # zero_count find both halves or neither, and the next zero after
        # (checked against the reference at the outer angles)
        kind = EvalKind.DERIVATIVE
        for nu in self._start_orders()[3:]:
            jp = cylinder_and_prime(_spec(nu, 0.0), nu)[1]
            yp = -cylinder_and_prime(_spec(nu, math.pi / 2), nu)[1]
            d0 = math.atan2(jp, yp)  # C'(nu) = 0, with J', Y' > 0 at nu
            for k in range(-3, 4):
                spec = _spec(nu, d0 + k * 2.2e-16)
                zs = find_zeros(spec, kind, 3).zeros
                assert all(a < b for a, b in zip(zs, zs[1:])), (spec, zs)
                pair = sum(abs(z - nu) <= 1e-6 * nu for z in zs)
                assert pair in (0, 2), (spec, zs)
                assert zero_count(spec, kind, nu * (1.0 - 1e-6)) == 0, spec
                assert zero_count(spec, kind, nu * (1.0 + 1e-6)) == pair, spec
                z = zs[pair]
                assert abs(k) < 3 or certify_sign_change(
                    lambda t: oracle_cylinder_prime(nu, spec.delta, t), z, eps=mp.mpf(z) * mp.mpf("1e-12")
                )

    def test_zero_below_the_double_range_raises(self):
        # C_0's first zero, where J_0/(-Y_0) = tan(pi - delta), lies below
        # x = 1e-300 for pi - delta < 2e-3: a search that ends on the floor
        # raises, and never returns the floor as a zero
        rng = random.Random(20261024)
        for eps in [1e-3] + [10.0 ** rng.uniform(-14.0, -3.0) for _ in range(100)]:
            with pytest.raises(IterationError):
                find_zeros(_spec(0.0, math.pi - eps), EvalKind.FUNCTION, 3)

    @pytest.mark.parametrize("nu, delta, error", (
        (0.5, 1e-250, OverflowError),  # the zero lies where |Y'| overflows
        (0.001, 1e-5, IterationError),  # at about x = 1e-5000
    ))
    def test_extreme_angle_error_class(self, nu, delta, error):
        # an evaluation that leaves the double range is never read as a zero
        with pytest.raises(error):
            find_zeros(_spec(nu, delta), EvalKind.DERIVATIVE, 2)


class TestPhasePremises:
    # the facts the zero finder's index and brackets rest on, on a coarse grid
    XS = [0.05 * 1.06**k for k in range(155)]  # 0.05 to 390

    def test_function_phase_rate(self):
        # theta' = 2/(pi x (J^2 + Y^2)) (Nicholson's formula, Watson 13.73):
        # at most 1 and non-decreasing (theta convex) for nu >= 1/2, at
        # least 1 and non-increasing (theta concave) below
        for nu in (0.0, 0.1, 0.25, 0.4, 0.49, 0.5, 0.75, 1.0, 2.5, 7.0, 15.5, 30.0):
            phase = zeros._target(_spec(nu, 0.0), EvalKind.FUNCTION)
            rate = [math.pi * phase(x)[1] for x in self.XS]
            if nu >= 0.5:
                assert max(rate) <= 1.0 + 1e-12, nu
                assert all(b >= a * (1.0 - 1e-12) for a, b in zip(rate, rate[1:])), nu
            else:
                assert min(rate) >= 1.0 - 1e-12, nu
                assert all(b <= a * (1.0 + 1e-12) for a, b in zip(rate, rate[1:])), nu

    def test_derivative_phase_rate_above_the_order(self):
        # phi' = 2 (1 - nu^2/x^2) / (pi x (J'^2 + Y'^2)) <= 1 for x > nu
        for k in range(0, 101, 4):
            nu = 0.3 * k
            j, y = _spec(nu, 0.0), _spec(nu, math.pi / 2)
            for x in self.XS:
                if x > nu:
                    jp = cylinder_and_prime(j, x)[1]
                    yp = -cylinder_and_prime(y, x)[1]
                    assert 2.0 * (1.0 - (nu / x) ** 2) / (math.pi * x * (jp * jp + yp * yp)) <= 1.0

    def test_derivatives_positive_up_to_the_order(self):
        # J_nu, -Y_nu, J'_nu and Y'_nu > 0 on (0, nu]: at most one zero of C
        # or C' below max(nu, 1e-6)
        for nu in (0.1, 0.5, 1.0, 3.3, 12.0, 30.0):
            for x in (nu * k / 16.0 for k in range(1, 17)):
                assert cylinder(_spec(nu, 0.0), x) > 0.0
                assert cylinder(_spec(nu, math.pi / 2), x) > 0.0
                assert cylinder_and_prime(_spec(nu, 0.0), x)[1] > 0.0
                assert cylinder_and_prime(_spec(nu, math.pi / 2), x)[1] < 0.0

    @staticmethod
    def _grid(nu):
        # x -> 0 geometrically, then step 0.25, refined to 0.02 in the
        # turning region, at the regime seam x = 24, and at x = 20 and 30
        xs = [1e-6 * 1.25**k for k in range(62)]
        x = 1.0
        while x < 400.0:
            fine = abs(x - nu) < 0.3 * nu + 0.5 or any(abs(x - c) < 0.5 for c in (20.0, 24.0, 30.0))
            x = min(400.0, x + (0.02 if fine else 0.25))
            xs.append(x)
        return xs

    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_branch_rule_follows_the_phase(self, kind):
        # the phase evaluator's branch of arg is the continuous one: from
        # x = 1e-6, where the principal value is it (theta -> -pi/2, phi ->
        # pi/2 as x -> 0+), unwrapped step by step; steps are small enough
        # that the phase moves by less than pi between them.  At x = 400
        # u - x/pi is near its limit kappa.
        for nu in (0.0, 0.1, 0.25, 0.5, 1.0, 2.5, 7.3, 12.5, 20.0, 29.5, 30.0):
            phase = zeros._target(_spec(nu, 0.0), kind)
            ref = None
            for x in self._grid(nu):
                u = phase(x)[0]
                if ref is None:
                    assert -0.5 < u <= 1.5
                    ref = u
                else:
                    ref += (u - ref + 1.0) % 2.0 - 1.0
                assert abs(u - ref) <= 1e-9, (nu, x, u, ref)
            kappa = 0.25 - 0.5 * nu + (0.5 if kind is EvalKind.DERIVATIVE else 0.0)
            assert abs(u - 400.0 / math.pi - kappa) < 0.5, nu

    @pytest.mark.parametrize("nu, delta, kind, c", (
        (0.0, 0.0, EvalKind.FUNCTION, -0.25),
        (0.25, 2.5, EvalKind.FUNCTION, -0.25),
        (7.5, 1.0, EvalKind.FUNCTION, -0.25),
        (20.0, math.pi / 2, EvalKind.FUNCTION, -0.25),
        (0.0, 0.0, EvalKind.DERIVATIVE, -0.75),  # j'_{0,1} = 0 by convention
        (5.0, 0.0, EvalKind.DERIVATIVE, -0.75),
        (12.0, math.pi / 2, EvalKind.DERIVATIVE, 0.25),  # Y': (s + nu/2 - 1/4) pi
        (20.0, 2.0, EvalKind.DERIVATIVE, 0.25),
        (8.0, 0.05, EvalKind.DERIVATIVE, -1.75),  # one more zero below nu
    ))
    def test_last_of_110_zeros_near_mcmahon(self, nu, delta, kind, c):
        # beta = (s + nu/2 + c) pi - delta, within pi/4 at s = 110: no index
        # is skipped or repeated over the whole box
        z = find_zeros(_spec(nu, delta), kind, 110).zeros[-1]
        assert abs(z - ((110 + 0.5 * nu + c) * math.pi - delta)) < math.pi / 4

    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_curvature_its_riccati_equation_and_the_bounds_on_q(self, kind):
        # the phase pass's kappa is half the log-derivative of u', and obeys
        # kappa' = Q + kappa^2 - (pi u')^2 (module docstring), where the
        # certified halt rests on it, with Q from _riccati_q as the module
        # docstring first writes it: against central differences of step
        # 1e-5 x, from next to nu to the end of the box.  And |Q| <= q, |Q'|
        # <= q1 of _reach on an interval from just below x, up to the
        # difference's rounding
        derivative = kind is EvalKind.DERIVATIVE
        for nu in (0.0, 0.3, 0.5, 2.5, 7.3, 15.0, 30.0):
            phase = zeros._target(_spec(nu, 0.0), kind)
            for x in (1.02 * nu + 0.05, 1.3 * nu + 0.7, 2.0 * nu + 3.0, 31.0, 120.0, 390.0):
                h = 1e-5 * x
                (_, du, _, k), (_, lo, _, k_lo), (_, hi, _, k_hi) = map(phase, (x, x - h, x + h))
                n2, w2 = nu * nu, (math.pi * du) ** 2
                q = zeros._riccati_q(nu, derivative, x)
                if derivative:
                    t = (3 * x**4 + 10 * n2 * x**2 - n2 * n2) / (4 * x**2 * (x**2 - n2) ** 2)
                    assert abs(q - (1.0 - n2 / x**2 - t)) <= 1e-13 * (1.0 + t), (nu, x)
                else:
                    assert q == 1.0 - (n2 - 0.25) / (x * x)
                assert abs(k - math.log(hi / lo) / (4.0 * h)) <= 1e-6 * (abs(k) + 1.0 / x), (nu, x)
                assert abs((k_hi - k_lo) / (2.0 * h) - (q + k * k - w2)) <= 1e-6 * (abs(q) + w2), (nu, x)
                dq = (zeros._riccati_q(nu, derivative, x + h) - zeros._riccati_q(nu, derivative, x - h)) / (2.0 * h)
                _, q_max, q1_max, _ = zeros._reach(nu, derivative, x + 1e-9 * x, 5e-10 * x, 0.0, 0.0)
                assert abs(q) <= q_max and abs(dq) <= q1_max * (1.0 + 1e-6) + 1e-15 * abs(q) / h, (nu, x)

    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_complex_path_matches_the_real_path(self, kind):
        # the phase's f/|H|, from H = J + iY (H' for C'), is the C (C') that
        # users see over hypot(J, Y) (hypot(J', Y')): ties the zero finder's
        # H and H' to the real values, mostly where x > 24
        rng = random.Random(20261025)
        for i in range(600):
            nu, delta = rng.uniform(0.0, 30.0), rng.uniform(0.0, math.pi)
            x = rng.uniform(1.0, 24.0) if i % 10 == 0 else rng.uniform(24.0, 400.0)
            spec = _spec(nu, delta)
            got = zeros._target(spec, kind)(x)[2]
            if kind is EvalKind.FUNCTION:
                ref = cylinder(spec, x) / math.hypot(bessel_j(nu, x), bessel_y(nu, x))
            else:
                jp = cylinder_and_prime(_spec(nu, 0.0), x)[1]
                yp = cylinder_and_prime(_spec(nu, math.pi / 2), x)[1]
                ref = cylinder_and_prime(spec, x)[1] / math.hypot(jp, yp)
            assert abs(got - ref) <= 4e-15, (nu, delta, x)


class TestPassCount:
    # phase passes and _cyl calls come from corpus.count_walk, the counter of
    # bench/corpus.py's zeros-cold child; calls of other zeros names from
    # _count_calls

    @staticmethod
    def _count_calls(monkeypatch, *names):
        # a Counter of the calls of the named zeros functions, through wrappers that call through
        calls = Counter()
        for name in names:
            def counted(*args, name=name, fn=getattr(zeros, name), **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(zeros, name, counted)
        return calls

    @staticmethod
    def _mix(rng, sizes):
        # (spec, kind, n) with the zeros-cold mix for each n of sizes: J, Y
        # and a mixed angle, for C and C'
        out = []
        for n in sizes:
            for delta in (0.0, math.pi / 2, None):
                for kind in EvalKind:
                    d = math.pi * rng.random() if delta is None else delta
                    out.append((_spec(30.0 * rng.random(), d), kind, n))
        return out

    def test_phase_passes_per_zero(self):
        # a seeded block with the zeros-cold mix and every n in {2, 6, 20,
        # 50, 110}.  A count, not a timing, so that it holds on any machine
        walks = corpus.count_walk(self._mix(random.Random(20261018), (2, 6, 20, 50, 110)))
        found = sum(len(seq) for seq, *_ in walks)
        assert sum(sum(passes) for _, passes, *_ in walks) <= 1.12 * found

    def test_phase_passes_for_the_4th_to_12th_zeros(self):
        # the 4th to 12th zeros above the start, seeded from the Debye phase
        # through its U_3 (V_3) term, where the cubic Hermite interpolant
        # misses by up to 3.5e-3 relative: passes per zero on a seeded n = 20
        # block with the zeros-cold mix
        walks = corpus.count_walk(self._mix(random.Random(20261031), (20,) * 20))
        block = [p for _, passes, *_ in walks for p in passes[3:12]]
        assert len(block) >= 9 * 100
        assert sum(block) <= 1.03 * len(block)

    def test_capped_debye_search_returns_the_one_term_root(self, monkeypatch):
        # C' first zeros above the start whose Debye right side t = pi (m -
        # omega - nu/2) lies in (0.3, 0.9): there the two-term equation has
        # no root for most, and a search that runs out of its steps returns
        # _debye's one-term root.  Their passes, start pass included, are no
        # more than with that root as the seed
        rng = random.Random(20261032)
        requests = []
        for _ in range(200):
            t = rng.uniform(0.3, 0.9)  # at m = 1 where t < pi/4, else at m = 2
            requests.append((_spec(rng.uniform(1.0, 30.0), (math.pi / 4 - t) % math.pi), EvalKind.DERIVATIVE, 3))

        def first_passes():
            walks = corpus.count_walk(requests)
            assert all(passes for _, passes, *_ in walks)  # every request has a zero above the start
            return sum(passes[0] for _, passes, *_ in walks)

        seeded = first_passes()
        monkeypatch.setattr(zeros, "_debye2", lambda nu, t, *_: zeros._debye(nu, t))
        assert seeded <= first_passes()

    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_phase_passes_for_the_first_zero(self, kind):
        # the first zero above the start, seeded from the Debye term: no
        # zero before it gives the inverse phase's slope
        rng = random.Random(20261023)
        requests = []
        for _ in range(300):
            d = rng.choice((0.0, math.pi / 2, math.pi * rng.random()))
            requests.append((_spec(30.0 * rng.random(), d), kind, 1))
        assert sum(sum(passes) for _, passes, *_ in corpus.count_walk(requests)) <= 3.4 * 300

    def test_phase_passes_for_the_first_three_zeros(self):
        # the first three zeros above the start, seeded from the two-term
        # Debye phase, nearest the turning point: their passes per request,
        # the start pass included, on a seeded n = 6 block with the
        # zeros-cold mix
        walks = corpus.count_walk(self._mix(random.Random(20261027), (6,) * 50))
        assert sum(sum(passes[:3]) for _, passes, *_ in walks) <= 5.9 * len(walks)

    def test_no_phase_pass_once_the_nth_zero_is_found(self, monkeypatch):
        # the per-zero counts rest on this: J'_0's first zero is x = 0, with
        # no sign test and no pass; C's only zero below the start at nu =
        # 0.2 takes the sign test alone, and the next zero adds the start
        # pass and its own (count_walk raises on a pass after the last zero)
        tests = self._count_calls(monkeypatch, "cylinder", "cylinder_and_prime")
        below = _spec(0.2, math.pi - 1e-3)
        cases = (
            ((_spec(0.0, 0.0), EvalKind.DERIVATIVE, 1), [], 0),
            ((below, EvalKind.FUNCTION, 1), [], 1),
            ((below, EvalKind.FUNCTION, 2), [3], 1),
        )
        for request, passes, signs in cases:
            tests.clear()
            [(seq, got, *_)] = corpus.count_walk([request])
            assert (got, tests.total()) == (passes, signs), request
            assert seq[0] < max(request[0].nu, zeros._START)

    def test_a_first_zero_computes_the_one_term_root_once(self, monkeypatch):
        # a capped first-zero search returns its start, _debye's root, and
        # does not compute it again: C' first zeros next to nu, where most
        # searches are capped, and the zeros-cold mix, each walked again to
        # its first zero above the start
        calls = self._count_calls(monkeypatch, "_debye")
        rng = random.Random(20261101)
        requests = self._mix(rng, (3,) * 10)
        for _ in range(60):
            t = rng.uniform(0.3, 0.9)
            requests.append((_spec(rng.uniform(1.0, 30.0), (math.pi / 4 - t) % math.pi), EvalKind.DERIVATIVE, 3))
        most = 0
        for seq, passes, *_ in corpus.count_walk(requests):
            calls.clear()
            corpus.count_walk([(seq.spec, seq.kind, len(seq) - len(passes) + 1)])
            most = max(most, calls["_debye"])
        assert most == 1

    def test_seed_fallbacks_reach_1e_12(self, monkeypatch):
        # requests that reach the Newton-step seed or the bracket's top: C'
        # started at x = nu, where u' = 0; nu < 1/2, started at x = 1e-6; C
        # at delta -> pi-; n = 2, where no zero has two before it; first
        # zeros where the Debye equation's right side is not positive.  It
        # counts the first zeros above the start that call _debye, each on a
        # walk that ends there: the next eleven zeros call it where their
        # Newton-step seed is not above nu
        calls = self._count_calls(monkeypatch, "_debye")
        rng = random.Random(20261024)
        requests = []
        for _ in range(5):
            requests += [
                (rng.uniform(1.0, 30.0), math.pi * rng.random(), EvalKind.DERIVATIVE, rng.choice((2, 4))),
                (rng.uniform(0.0, 0.5), math.pi * rng.random(), rng.choice(tuple(EvalKind)), 3),
                (rng.uniform(0.0, 30.0), math.pi - 10.0 ** rng.uniform(-12.0, -1.0), EvalKind.FUNCTION, 2),
                # C at 3 pi/4 < delta < pi with its first zero above the start
                (rng.uniform(0.0, 30.0), math.pi - rng.uniform(0.3, 0.75), EvalKind.FUNCTION, 2),
            ]
        walks = corpus.count_walk([(_spec(nu, delta), kind, n) for nu, delta, kind, n in requests])
        for seq, *_ in walks:
            spec = seq.spec
            f = oracle_cylinder if seq.kind is EvalKind.FUNCTION else oracle_cylinder_prime
            for z in seq:
                if z > max(spec.nu, zeros._START):
                    eps = mp.mpf(1e-12 * max(1.0, z))
                    assert certify_sign_change(lambda t: f(spec.nu, spec.delta, t), z, eps=eps), (spec, seq.kind, z)
        debye = 0
        for seq, passes, *_ in walks:
            calls.clear()
            corpus.count_walk([(seq.spec, seq.kind, len(seq) - len(passes) + 1)])
            debye += calls["_debye"] > 0
        assert 0 < debye < len(requests)  # some first zeros take the fallback

    def test_one_evaluation_of_f_per_request(self, monkeypatch):
        # every zero above the start comes from the phase, flat crossings at
        # a small effective angle included: f itself is evaluated once per
        # request, for the sign test at max(nu, 1e-6)
        calls = self._count_calls(monkeypatch, "cylinder", "cylinder_and_prime")
        zeros._find_zeros_cached.cache_clear()
        rng = random.Random(20261019)
        requests = 0
        for n in (2, 6, 20):
            for kind in EvalKind:
                for small in (True, True, False):
                    eps = 10.0 ** rng.uniform(-14.0, -2.0) if small else rng.uniform(0.0, math.pi)
                    delta = eps if kind is EvalKind.DERIVATIVE else math.pi - eps
                    seq = find_zeros(_spec(rng.uniform(2.0, 30.0), delta), kind, n)
                    assert seq[0] > zeros._START
                    requests += 1
        assert calls.total() == requests

    @staticmethod
    def _origin_requests(rng, count):
        # (spec, kind) with the first zero from the origin: below the start
        # (C at delta -> pi-, C' at delta -> 0+, nu <= 0.3) or C''s below nu
        out = []
        for i in range(count):
            if i % 3 == 0:
                nu, delta = rng.uniform(0.05, 0.3), math.pi - 10.0 ** rng.uniform(-4.0, -1.5)
                out.append((_spec(nu, delta), EvalKind.FUNCTION))
            else:
                nu = rng.uniform(0.05, 0.3) if i % 3 == 1 else rng.uniform(2.0, 30.0)
                out.append((_spec(nu, 10.0 ** rng.uniform(-12.0, -2.0)), EvalKind.DERIVATIVE))
        return out

    def test_every_zero_from_one_solver(self, monkeypatch):
        # the zero below the start and C's or C''s below nu come from the
        # same Newton loop as every other zero: one _refine call per zero,
        # and one _origin call per zero below max(nu, 1e-6)
        calls = self._count_calls(monkeypatch, "_refine", "_origin")
        zeros._find_zeros_cached.cache_clear()
        rng = random.Random(20261023)
        below_c = [
            (_spec(rng.uniform(2.0, 30.0), math.pi - 10.0 ** rng.uniform(-12.0, -0.5)), EvalKind.FUNCTION)
            for _ in range(200)
        ]
        found = below = below_nu = below_nu_c = 0
        for spec, kind in self._origin_requests(random.Random(20261020), 600) + below_c:
            seq = find_zeros(spec, kind, 2)
            found += len(seq)
            below += seq[0] < zeros._START
            below_nu += zeros._START < seq[0] < spec.nu
            below_nu_c += zeros._START < seq[0] < spec.nu and kind is EvalKind.FUNCTION
        assert below >= 300 and below_nu >= 150 and below_nu_c >= 100
        assert calls == {"_refine": found, "_origin": below + below_nu}

    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_phase_passes_for_the_zero_below_the_order(self, kind):
        # C's first zero as delta -> pi-, C''s as delta -> 0+: log(J/-Y) and
        # log(J'/Y') are near linear in log x, where the phase creeps in x.
        # Its _cyl calls per request, _origin's passes included
        rng = random.Random(20261021)
        function = kind is EvalKind.FUNCTION
        requests = []
        for _ in range(600):
            nu = rng.uniform(2.0 if function else 0.3, 30.0)
            eps = 10.0 ** rng.uniform(-12.0, math.log10(0.32))
            requests.append((_spec(nu, math.pi - eps if function else eps), kind, 1))
        counts = [cyl for _, _, cyl, _ in corpus.count_walk(requests)]
        assert sum(counts) <= 8 * len(counts)
        assert max(counts) <= 12

    def test_one_evaluation_per_origin_pass(self, monkeypatch):
        # J'_nu's zero below 1e-6 (nu < 5e-13) is sought at delta = 0, on
        # J_{nu+1} / J_nu: J_{nu+1} comes from the pass that gives J_nu and
        # J'_nu, so each _origin pass is one _cyl call
        counts = {"passes": 0, "_cyl": 0}
        inside = [False]
        cyl, refine, origin = zeros._cyl, zeros._refine, zeros._origin

        def counted_cyl(*args, **kwargs):
            counts["_cyl"] += inside[0]
            return cyl(*args, **kwargs)

        def counted_refine(phase, *args):
            def counted(t):
                counts["passes"] += inside[0]
                return phase(t)

            return refine(counted, *args)

        def counted_origin(*args):
            inside[0] = True
            try:
                return origin(*args)
            finally:
                inside[0] = False

        for name, fn in (("_cyl", counted_cyl), ("_refine", counted_refine), ("_origin", counted_origin)):
            monkeypatch.setattr(zeros, name, fn)
        zeros._find_zeros_cached.cache_clear()
        rng = random.Random(7)
        for _ in range(100):
            seq = find_zeros(_spec(10.0 ** rng.uniform(-16.0, -12.4), 0.0), EvalKind.DERIVATIVE, 2)
            assert seq[0] < zeros._START
        assert counts["passes"] >= 100
        assert counts["_cyl"] == counts["passes"]

    def test_one_evaluation_of_f_below_the_start(self, monkeypatch):
        # the zero below x = 1e-6 costs no evaluation of f past the sign test
        calls = self._count_calls(monkeypatch, "cylinder", "cylinder_and_prime")
        zeros._find_zeros_cached.cache_clear()
        below = 0
        for spec, kind in self._origin_requests(random.Random(20261022), 90):
            calls.clear()
            if find_zeros(spec, kind, 3)[0] < zeros._START:
                assert calls.total() == 1
                below += 1
        assert below >= 45


def _polynomial(*parts):
    # {power of p: Fraction}, the sum of the terms (j, c) = c p^j of parts
    out = {}
    for j, c in (term for part in parts for term in part):
        out[j] = out.get(j, 0) + c
    return {j: c for j, c in out.items() if c}


def _debye_polynomials(k_max):
    # U_k and V_k of DLMF 10.41.10-11 for k <= k_max, from U_0 = V_0 = 1:
    # U_{k+1} = p^2 (1 - p^2) U_k'/2 + (1/8) int_0^p (1 - 5t^2) U_k(t) dt and
    # V_{k+1} = U_{k+1} - p (1 - p^2) U_k/2 - p^2 (1 - p^2) U_k'
    us, vs = [{0: Fraction(1)}], [{0: Fraction(1)}]
    for _ in range(k_max):
        u = us[-1].items()
        du = [(j - 1, j * c) for j, c in u if j]
        un = _polynomial([(j + 2, c / 2) for j, c in du], [(j + 4, -c / 2) for j, c in du],
                         [(j + 1, c / (8 * (j + 1))) for j, c in u], [(j + 3, -5 * c / (8 * (j + 3))) for j, c in u])
        vs.append(_polynomial(un.items(), [(j + 1, -c / 2) for j, c in u], [(j + 3, c / 2) for j, c in u],
                              [(j + 2, -c) for j, c in du], [(j + 4, c) for j, c in du]))
        us.append(un)
    return us, vs


class TestDebyeSeed:
    def test_the_polynomials_as_dlmf_lists_them(self):
        us, vs = _debye_polynomials(3)
        assert us[1] == {1: Fraction(3, 24), 3: Fraction(-5, 24)}
        assert vs[1] == {1: Fraction(-9, 24), 3: Fraction(7, 24)}
        assert us[2] == {2: Fraction(81, 1152), 4: Fraction(-462, 1152), 6: Fraction(385, 1152)}
        assert vs[3][9] == Fraction(475475, 414720)

    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_the_seed_constants_are_debyes_terms(self, kind):
        # S = sum_k U_k(p)/nu^k (V_k for C') at p = -i nu/r: the k-th term is
        # y^k times sum_l c_{k+2l} (-i)^(k+2l) q^l, y = 1/r and q = nu^2/r^2,
        # imaginary for odd k, real for even; zeros.py keeps its integers
        # over 24, 1152 and 414720 (425425/414720 is 85085/82944)
        us, vs = _debye_polynomials(3)
        polys = vs if kind is EvalKind.DERIVATIVE else us
        sign = (1, -1, -1, 1)  # by j mod 4: Re (-i)^j for even j, Im (-i)^j for odd j
        table = zeros._DEBYE[kind is EvalKind.DERIVATIVE]
        for k, over, ints in zip((1, 2, 3), (24, 1152, 414720), table):
            expect = [sign[(k + 2 * l) % 4] * polys[k].get(k + 2 * l, 0) for l in range(k + 1)]
            assert [Fraction(n, over) for n in ints] == expect, k

    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_the_seed_lies_next_to_the_4th_to_12th_zeros(self, kind):
        # the root of the Debye phase through U_3 (V_3), from the zero itself
        # and from 1% off it: within 2e-7 relative of the 4th zero above the
        # start and 2e-10 of the 12th, closer at each zero than at the one
        # before (the cubic Hermite seed misses by a median 1.2e-3 at the 4th)
        derivative = kind is EvalKind.DERIVATIVE
        for nu, delta in ((0.0, 0.0), (0.5, 2.0), (5.0, 0.3), (20.0, 1.0), (30.0, 3.0)):
            spec = _spec(nu, delta)
            zs = [z for z in find_zeros(spec, kind, 14) if z > max(nu, zeros._START)]
            omega = 0.25 - 0.5 * nu + delta / math.pi + (0.5 if derivative else 0.0)
            first = zeros._level(*zeros._target(spec, kind)(max(nu, zeros._START))[::2]) + 1
            errors = []
            for i in range(4, 13):
                z, t = zs[i - 1], math.pi * (first + i - 1 - omega - 0.5 * nu)
                seeds = (zeros._debye2(nu, t, zeros._DEBYE[derivative], x) for x in (z, 1.01 * z))
                errors.append(max(abs(x - z) / z for x in seeds))
            assert errors[0] <= 2e-7 and errors[-1] <= 2e-10, (nu, delta, errors)
            assert all(b < a for a, b in zip(errors, errors[1:])), (nu, delta, errors)


class TestHermiteSeed:
    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_the_cubic_seed_lies_next_to_the_zeros_from_the_13th_on(self, kind):
        # the cubic Hermite interpolant of x(u) through the phase passes at
        # the zeros m - 2 and m - 1 above the start, at u = m, against zero
        # m: within 8e-6 relative at the 13th to 20th zeros and 8e-7 past
        # them (2.7e-6 and 2.6e-7 at most over both kinds), on this kind's
        # requests of a seeded block with the zeros-cold mix and n in {50, 110}
        worst = {"13-20": 0.0, "21-": 0.0}
        for spec, k, n in TestPassCount._mix(random.Random(20261102), (50, 110) * 10):
            if k is not kind:
                continue
            phase = zeros._target(spec, kind)
            zs = [z for z in find_zeros(spec, kind, n) if z > max(spec.nu, zeros._START)]
            passes = [phase(z)[:2] for z in zs]
            for i in range(12, len(zs)):
                (u0, d0), (u1, d1) = passes[i - 2], passes[i - 1]
                seed = zeros._hermite(zs[i - 2], u0, d0, zs[i - 1], u1, d1, round(phase(zs[i])[0]))
                group = "13-20" if i < 20 else "21-"
                worst[group] = max(worst[group], abs(seed - zs[i]) / zs[i])
        assert worst["13-20"] <= 8e-6 and worst["21-"] <= 8e-7, worst


class TestCertifiedHalt:
    # the third-order halt of the module docstring, on a seeded block: both
    # kinds; J, Y, mixed angles and delta within 1e-12 to 1e-2 of 0 or pi; n
    # up to 110
    @staticmethod
    def _block(rng):
        for n in (2, 6, 20, 50, 110):
            for kind in EvalKind:
                for angle in ("j", "y", "mixed", "near 0", "near pi") * 3:
                    eps = 10.0 ** rng.uniform(-12.0, -2.0)
                    delta = {
                        "j": 0.0, "y": math.pi / 2, "mixed": rng.uniform(0.0, math.pi),
                        "near 0": eps, "near pi": math.pi - eps,
                    }[angle]
                    yield _spec(rng.uniform(0.0, 30.0), delta), kind, n

    @staticmethod
    def _correction(phase, x):
        # the Newton correction (u - m)/u' at x, for the nearest integer m,
        # with u - m read as _refine reads it; and m
        u, du, s, _ = phase(x)
        m = round(u)
        return math.asin(-s if m & 1 else s) / math.pi / du, m

    @staticmethod
    def _exact_step(spec, kind, x, m):
        # the same correction in the oracle's arithmetic
        nu, x = spec.nu, mp.mpf(x)
        j, y = oracle_j(nu, x), oracle_y(nu, x)
        g = 1
        if kind is EvalKind.DERIVATIVE:
            j, y = nu / x * j - oracle_j(nu + 1, x), nu / x * y - oracle_y(nu + 1, x)
            g = 1 - (nu / x) ** 2
        hh = j * j + y * y
        f = (mp.cos(spec.delta) * j - mp.sin(spec.delta) * y) / mp.sqrt(hh)
        return mp.asin(-f if m & 1 else f) / mp.pi * (mp.pi**2 * x * hh) / (2 * g)

    @staticmethod
    def _exact_cubic(spec, kind, x, m):
        # the third-order step d = s0 - kappa s0^2 + (4 kappa^2 - kappa') s0^3/3
        # of the pass at x in the oracle's arithmetic, kappa' = Q + kappa^2 -
        # w^2 with Q as the module docstring first writes it
        nu, x = spec.nu, mp.mpf(x)
        j, y = oracle_j(nu, x), oracle_y(nu, x)
        jp, yp = nu / x * j - oracle_j(nu + 1, x), nu / x * y - oracle_y(nu + 1, x)
        n2 = mp.mpf(nu) ** 2
        if kind is EvalKind.FUNCTION:
            g, hh = 1, j * j + y * y
            kappa = -1 / (2 * x) - (j * jp + y * yp) / hh
            q = 1 - (n2 - mp.mpf(1) / 4) / x**2
        else:
            g, hh = 1 - n2 / x**2, jp * jp + yp * yp
            kappa = 1 / (2 * x) + g * (j * jp + y * yp) / hh + n2 / (x**3 * g)
            q = g - (3 * x**4 + 10 * n2 * x**2 - n2 * n2) / (4 * x**2 * (x**2 - n2) ** 2)
        w2 = (2 * g / (mp.pi * x * hh)) ** 2
        s0 = -TestCertifiedHalt._exact_step(spec, kind, x, m)
        return s0 - kappa * s0**2 + (3 * kappa**2 + w2 - q) * s0**3 / 3

    def test_third_order_halts_within_the_certified_bound(self, monkeypatch):
        # every zero's Newton correction is at most 4e-15 max(1, z), and at
        # least 95% of the zeros end on the third-order step: from the 2nd
        # zero on a seed misses by more than REL_TOL, and the certified bound
        # ends the search on its first pass.  From the halting pass at x, the
        # exact third-order step lands within the recorded bound of a sign
        # change of f
        halts = {}

        def recorded(nu, derivative, x, s, kappa, dw, fn=zeros._cubic_bound):
            bound, z = fn(nu, derivative, x, s, kappa, dw)
            if bound <= zeros._ROUNDING * max(1.0, x):
                halts[z] = (x, bound)  # the zero _refine returns
            return bound, z

        monkeypatch.setattr(zeros, "_cubic_bound", recorded)
        zeros._find_zeros_cached.cache_clear()
        rng = random.Random(20261026)
        found, halted = 0, []
        for spec, kind, n in self._block(rng):
            halts.clear()
            phase = zeros._target(spec, kind)
            for z in find_zeros(spec, kind, n):
                if z <= zeros._START:
                    continue
                found += 1
                corr, _ = self._correction(phase, z)
                assert abs(corr) <= 4e-15 * max(1.0, z), (spec, kind, z, corr)
                if z in halts:
                    halted.append((spec, kind, z) + halts[z])
        assert found >= 5000 and len(halted) >= 0.95 * found
        for spec, kind, z, x, bound in rng.sample(halted, 12):
            f = oracle_cylinder if kind is EvalKind.FUNCTION else oracle_cylinder_prime
            with mp.workdps(60):
                _, m = self._correction(zeros._target(spec, kind), x)
                xn = mp.mpf(x) + self._exact_cubic(spec, kind, x, m)
                assert certify_sign_change(lambda t: f(spec.nu, spec.delta, t), xn, eps=mp.mpf(bound))
                assert abs(xn - z) <= 4e-15 * max(1.0, z)


class TestZeroCount:
    @staticmethod
    def _cases(rng, count):
        # (spec, kind) over both kinds, nu uniform, integer, below 1e-3, 1e-13
        # and 0 (J'_0 at delta = 0), delta at 0, pi/2, uniform and near 0 or pi
        for _ in range(count):
            nu = rng.choice((rng.uniform(0.0, 30.0), float(rng.randint(0, 30)),
                             rng.uniform(0.0, 1e-3), 1e-13, 0.0))
            near = 10.0 ** rng.uniform(-12.0, -1.0)
            delta = rng.choice((0.0, math.pi / 2, rng.uniform(0.0, math.pi), near, math.pi - near))
            for kind in EvalKind:
                yield _spec(nu, delta), kind

    def test_count_matches_enumeration(self):
        # N(x) is the number of enumerated zeros in (0, x], J'_0's zero at
        # x = 0 included, at probes x0/2, x0 = max(nu, 1e-6), either side of
        # the first zero, uniform in (x0, 400] and at 400; the box holds
        # exactly N(400) zeros
        rng = random.Random(20261025)
        probes = 0
        for spec, kind in self._cases(rng, 30):
            total = zero_count(spec, kind, 400.0)
            try:
                zs = find_zeros(spec, kind, total).zeros
            except IterationError:  # the first zero lies below 1e-300
                continue
            with pytest.raises(DomainError, match="would leave the box"):
                find_zeros(spec, kind, total + 1)
            x0 = max(spec.nu, zeros._START)
            first = next(z for z in zs if z > 0.0)
            xs = [0.5 * x0, x0, first * (1.0 - 1e-9), first * (1.0 + 1e-9), 400.0]
            xs += [rng.uniform(x0, 400.0) for _ in range(10)]
            for x in xs:
                assert zero_count(spec, kind, x) == bisect.bisect_right(zs, x), (spec, kind, x)
            probes += len(xs)
        assert probes > 600

    def test_count_next_to_a_zero_of_j_mu(self):
        # x = pi/2 is next to a zero of J_{-1/2}; J_{3/2}'s first zero is at 4.49
        assert zero_count(_spec(1.5, 0.0), EvalKind.FUNCTION, math.pi / 2) == 0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9: two zeros of C' below 1e-6 are missed")
    def test_two_derivative_zeros_below_the_start(self):
        # for 0 < nu < 1e-6 the phase of C' falls through 1 on (0, nu] and
        # rises back on (nu, 1e-6]; the oracle gives C' the sign - at 1e-20,
        # + at 1e-10 and at 1e-7, and - at 5e-7
        spec = _spec(1e-7, 1.5707925749095e-07)
        assert zero_count(spec, EvalKind.DERIVATIVE, 1e-6) == 2
        assert all(z < 1e-6 for z in find_zeros(spec, EvalKind.DERIVATIVE, 2))

    @pytest.mark.parametrize("x", (0.0, -1.0, 400.5, math.inf, math.nan))
    def test_rejects_x_outside_the_box(self, x):
        with pytest.raises(DomainError):
            zero_count(_spec(1.0, 0.0), EvalKind.FUNCTION, x)

    @pytest.mark.parametrize("kind", tuple(EvalKind))
    def test_overflow_below_the_start_raises(self, kind):
        # the sign test evaluates f at x itself, as evaluation would raise
        with pytest.raises(OverflowError):
            zero_count(_spec(30.0, 0.3), kind, 1e-9)

    @pytest.mark.parametrize("nu, kind, total", (
        (0.0, EvalKind.FUNCTION, 127),
        (0.0, EvalKind.DERIVATIVE, 128),
        (30.0, EvalKind.FUNCTION, 112),
        (30.0, EvalKind.DERIVATIVE, 113),
    ))
    def test_every_zero_in_the_box_is_found(self, nu, kind, total):
        # the n-th zero is returned exactly when it lies at x <= 400; the
        # last one lies in (380, 400], past what the bound n pi + nu + 20 <=
        # 400 once allowed (120, 120, 111 and 111 zeros)
        spec = _spec(nu, 0.0)
        assert zero_count(spec, kind, 400.0) == total
        z = find_zeros(spec, kind, total)[-1]
        assert 380.0 < z <= 400.0
        f = oracle_cylinder if kind is EvalKind.FUNCTION else oracle_cylinder_prime
        assert certify_sign_change(lambda t: f(nu, 0.0, t), z, eps=mp.mpf(z) * mp.mpf("1e-12"))
        with pytest.raises(DomainError, match="would leave the box"):
            find_zeros(spec, kind, total + 1)


class TestTrajectory:
    def test_first_zero_increases_from_order_0_to_1(self):
        tr = zero_trajectory(MixingAngle(0.0), EvalKind.FUNCTION, 1, [0.0, 1.0])
        assert tr.samples[0][1] == pytest.approx(J0_ZEROS[0], abs=1e-9)
        assert tr.samples[1][1] == pytest.approx(J1_FIRST, abs=1e-9)
        assert tr.is_strictly_increasing()

    def test_y_type_first_zeros_increase(self):
        tr = zero_trajectory(MixingAngle(math.pi / 2), EvalKind.FUNCTION, 1, [0.5, 1.5])
        assert tr.is_strictly_increasing()

    def test_single_point_trajectory(self):
        tr = zero_trajectory(MixingAngle(0.0), EvalKind.FUNCTION, 2, [3.0])
        assert isinstance(tr, Trajectory)
        assert len(tr.samples) == 1
        assert tr.is_strictly_increasing()

    def test_monotone_dense_grid(self):
        grid = [0.5 + 0.25 * k for k in range(9)]
        tr = zero_trajectory(MixingAngle(1.0), EvalKind.FUNCTION, 3, grid)
        assert tr.is_strictly_increasing()
        assert tr.max_slope() < 5.0

    @pytest.mark.parametrize("s, grid, match", (
        (0, [1.0, 2.0], "zero index must be >= 1"),
        (1, [1.0, 3.0, 2.0], "strictly increasing"),
        (1, [1.0, 1.0], "strictly increasing"),
    ))
    def test_rejects_bad_index_or_grid(self, s, grid, match):
        with pytest.raises(DomainError, match=match):
            zero_trajectory(MixingAngle(0.0), EvalKind.FUNCTION, s, grid)
