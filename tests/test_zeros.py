"""Zero enumeration and trajectory tests."""

import math

import pytest

from cylfn.special_fn import CylinderSpec, DomainError, EvalKind, MixingAngle, cylinder
from cylfn import zeros
from cylfn.zeros import Trajectory, find_zeros, zero_trajectory
from oracle import certify_sign_change, oracle_cylinder, oracle_zeros

# frozen after reproduction by the reference bisection (tests/oracle.py)
J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013)
J1_FIRST = 3.831705970207512


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

    def test_refined_to_is_achieved_tolerance(self):
        assert find_zeros(_spec(0.0, 0.0), EvalKind.FUNCTION, 3).refined_to == zeros.REL_TOL

    def test_refined_to_reports_bracket_fallback(self, monkeypatch):
        # a derivative of 0 makes every step a bisection, and 32 of them end
        # on a bracket below 1e-9 but above REL_TOL: the fallback midpoint
        def target(spec, kind):
            def f(x):
                return cylinder(spec, x)

            return f, lambda x: 0.0

        monkeypatch.setattr(zeros, "_target", target)
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
