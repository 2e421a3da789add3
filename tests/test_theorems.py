"""Recurrence, theorem, transitivity, and breakdown-atlas harness tests."""

import math
import re

import pytest

from cylfn.special_fn import CylinderSpec, DomainError, EvalKind
from cylfn.theorems import (
    Family,
    breakdown_scan,
    verify_recurrences,
    verify_theorem1,
    verify_theorem3,
    verify_transitivity,
)

GRID = [0.5, 1.0, 5.0, 20.0, 100.0]


class TestRecurrences:
    def test_pass_at_zero_angle(self):
        rep = verify_recurrences(0.5, 0.0, GRID)
        assert rep.passed
        assert rep.worst_residual <= 1e-9
        assert rep.checks == 6 * len(GRID)

    def test_pass_at_mixed_angle(self):
        rep = verify_recurrences(2.5, math.pi / 3, GRID)
        assert rep.passed, rep.counterexample

    def test_large_arguments(self):
        rep = verify_recurrences(7.0, math.pi / 2, [250.0, 399.0])
        assert rep.passed, rep.counterexample

    def test_residual_outside_the_double_range_raises(self):
        # (x^2 - nu(nu+1)) C'_32 overflows at x = 1.2e-8, so the derivative
        # three-term residual is inf - inf; a NaN residual must not pass
        with pytest.raises(OverflowError, match="derivative-three-term"):
            verify_recurrences(30.0, math.pi / 2, [1.2e-8])

    @pytest.mark.parametrize("nu, grid", ((-5.0, GRID), (35.0, GRID), (1.0, [1.0, 500.0])))
    def test_inputs_outside_the_box_rejected(self, nu, grid):
        with pytest.raises(DomainError):
            verify_recurrences(nu, 0.0, grid)

    @pytest.mark.parametrize("nu, x", ((1.0, 1e-150), (5.0, 1e-60), (0.0, 1e-200), (29.0, 1e-30)))
    def test_terms_below_the_normal_range_raise(self, nu, x):
        # J_{nu+2} underflows (to 0 at nu = 29) while (nu + 2)/x J_{nu+2}
        # does not: the residuals would read false counterexamples, or 0
        # where every term is 0
        with pytest.raises(OverflowError, match=re.escape(f"nu={nu!r}, x={x!r}")):
            verify_recurrences(nu, 0.0, GRID + [x])


class TestTheorem1:
    def test_sample_orders(self):
        rep = verify_theorem1(1.5, 2.0, 1.0, 1.0, 10)
        assert rep.passed, rep.counterexample
        assert rep.checks > 100

    def test_parameter_bounds(self):
        with pytest.raises(DomainError):
            verify_theorem1(1.0, 2.5, 1.0, 1.0, 10)
        with pytest.raises(DomainError):
            verify_theorem1(1.0, 2.0, 1.0, 1.2, 10)
        with pytest.raises(DomainError, match="order must lie in"):
            verify_theorem1(-0.5, 2.0, 1.0, 1.0, 10)


class TestTheorem3:
    def test_inside_region_agrees(self):
        rep = verify_theorem3(1.0, 2.5, Family.CYLINDER, math.pi / 4, 15)
        assert rep.passed
        assert rep.details == {"interlaced": True, "predicate": True}

    def test_outside_region_agrees(self):
        rep = verify_theorem3(1.0, 3.2, Family.JPRIME, n=30)
        assert rep.passed
        assert rep.details == {"interlaced": False, "predicate": False}

    def test_boundary_cells(self):
        on = verify_theorem3(1.0, 3.0, Family.CYLINDER, n=30)
        off = verify_theorem3(1.0, 3.1, Family.CYLINDER, n=30)
        assert on.passed and on.details["interlaced"] is True
        assert off.passed and off.details["interlaced"] is False

    def test_identical_orders_excluded(self):
        rep = verify_theorem3(2.0, 2.0, Family.CYLINDER)
        assert rep.passed
        assert rep.details.get("excluded") is True
        assert rep.checks == 0

    @pytest.mark.parametrize("n", (0, -2, 2.5))
    @pytest.mark.parametrize("mu", (1.0, 2.0))
    def test_count_checked_at_every_cell(self, mu, n):
        # also at nu == mu, where no zero is sought
        with pytest.raises(DomainError, match="need n >= 1"):
            verify_theorem3(1.0, mu, Family.CYLINDER, n=n)


class TestTransitivity:
    F = CylinderSpec.of(1.0, 0.0)
    G = CylinderSpec.of(2.0, 0.0)
    H = CylinderSpec.of(3.0, 0.0)

    def test_function_triple(self):
        rep = verify_transitivity(self.F, self.G, self.H, EvalKind.FUNCTION, (5.0, 60.0))
        assert rep.passed
        assert rep.details["status"] == "ok"

    def test_derivative_triple_clear_of_coefficient_roots(self):
        rep = verify_transitivity(self.F, self.G, self.H, EvalKind.DERIVATIVE, (4.0, 60.0))
        assert rep.passed
        assert rep.details["status"] == "ok"

    def test_coefficient_root_in_probe_is_premise_failure(self):
        # sqrt(nu(nu+1)) = sqrt(2) sits inside (1, 60): no conclusion claimed
        rep = verify_transitivity(self.F, self.G, self.H, EvalKind.DERIVATIVE, (1.0, 60.0))
        assert rep.passed
        assert rep.details["status"] == "premise-failure"

    @pytest.mark.parametrize("kind", (EvalKind.FUNCTION, EvalKind.DERIVATIVE))
    @pytest.mark.parametrize("nu", (0.5, 1.0, 2.5))
    def test_premise_fails_exactly_on_a_root_inside(self, nu, kind):
        # the C' coefficients change sign at these roots only; the C ones never
        roots = [math.sqrt(nu * (nu + 1)), math.sqrt(nu * (nu + 2)), math.sqrt((nu + 1) * (nu + 2))]
        specs = [CylinderSpec.of(nu + k, 0.0) for k in range(3)]
        straddling = [(r - 0.1, r + 0.1) for r in roots] + [(roots[0] - 0.1, roots[2] + 0.1)]
        clear = [(0.05, roots[0] - 0.1), (roots[0] + 0.05, roots[1] - 0.05), (roots[2] + 0.1, 60.0)]
        for lo, hi in straddling + clear:
            rep = verify_transitivity(*specs, kind, (lo, hi))
            inside = [r for r in roots if lo < r < hi and kind is EvalKind.DERIVATIVE]
            assert rep.passed
            if inside:
                assert rep.details == {"status": "premise-failure", "coefficient_root": inside[0]}
            else:
                assert "coefficient_root" not in rep.details
        # clear of every root, with zeros to judge, the premises and the
        # conclusion hold
        assert verify_transitivity(*specs, kind, clear[-1]).details == {"status": "ok"}

    def test_probe_up_to_the_last_zero_in_the_box(self):
        # the window holds the first zero_count(spec, kind, hi) zeros: any
        # probe inside the box is judged, one past it is refused
        specs = [CylinderSpec.of(5.0 + k, 0.0) for k in range(3)]
        for hi in (370.0, 390.0, 399.0):
            assert verify_transitivity(*specs, EvalKind.FUNCTION, (5.0, hi)).details == {
                "status": "ok"
            }
        with pytest.raises(DomainError, match="probe interval must satisfy"):
            verify_transitivity(*specs, EvalKind.FUNCTION, (5.0, 410.0))

    def test_probe_below_every_zero_is_premise_failure(self):
        # at nu = 28 a probe ending at 5 asks for no zeros at all
        specs = [CylinderSpec.of(28.0 + k, 0.0) for k in range(3)]
        rep = verify_transitivity(*specs, EvalKind.FUNCTION, (1.0, 5.0))
        assert rep.details == {"status": "premise-failure", "zero_counts": {"f": 0, "g": 0, "h": 0}}

    def test_too_few_window_zeros_is_premise_failure(self):
        # C_1, C_2, C_3 at delta = 0.3 have no zero in (0.5, 3): nothing to
        # judge, so no conclusion claimed
        specs = [CylinderSpec.of(k, 0.3) for k in (1.0, 2.0, 3.0)]
        rep = verify_transitivity(*specs, EvalKind.FUNCTION, (0.5, 3.0))
        assert rep.passed
        assert rep.details == {"status": "premise-failure", "zero_counts": {"f": 0, "g": 0, "h": 0}}

    def test_rejects_non_consecutive_triple(self):
        with pytest.raises(DomainError):
            verify_transitivity(
                self.F, CylinderSpec.of(2.5, 0.0), self.H, EvalKind.FUNCTION, (5.0, 60.0)
            )

    def test_rejects_triple_at_different_angles(self):
        with pytest.raises(DomainError, match="share the mixing angle"):
            verify_transitivity(
                self.F, CylinderSpec.of(2.0, 0.5), self.H, EvalKind.FUNCTION, (5.0, 60.0)
            )


class TestBreakdownScan:
    def test_cylinder_large_gaps_all_broken(self):
        m = breakdown_scan(Family.CYLINDER, 1.0, [2.1, 3.0, 5.0], n=25)
        assert all(not c.interlaced for c in m.cells)
        assert all(c.sign_changes >= 1 for c in m.cells)
        assert m.consistent()

    def test_cylinder_small_gaps_interlaced(self):
        m = breakdown_scan(Family.CYLINDER, 1.0, [0.5, 1.0, 2.0], n=25)
        assert all(c.interlaced for c in m.cells)
        assert m.consistent()

    def test_jvsy_proviso_and_verdicts(self):
        m = breakdown_scan(Family.JVSY, 1.0, [0.8, 1.5], n=20)
        small, big = m.cells
        assert small.proviso is True and small.interlaced
        assert big.proviso is True and not big.interlaced
        assert m.consistent()

    def test_zero_gap_cell_excluded(self):
        m = breakdown_scan(Family.YPRIME, 2.0, [0.0, 1.0], n=15)
        assert m.cells[0].excluded
        assert not m.cells[1].excluded

    @pytest.mark.parametrize("n", (0, -4, 2.5))
    def test_count_checked_on_an_all_zero_gap_grid(self, n):
        with pytest.raises(DomainError, match="need n >= 1"):
            breakdown_scan(Family.CYLINDER, 1.0, [0.0], n=n)

    @pytest.mark.parametrize("family", (Family.JPRIME, Family.YPRIME, Family.JVSY))
    def test_fixed_angle_family_rejects_delta(self, family):
        # these families fix their angles; delta = pi normalizes to 0
        with pytest.raises(DomainError):
            breakdown_scan(family, 1.0, [0.0, 1.0], delta=0.7, n=5)
        with pytest.raises(DomainError):
            verify_theorem3(1.0, 1.0, family, delta=0.7, n=5)
        assert breakdown_scan(family, 1.0, [1.0], delta=math.pi, n=5).delta == 0.0


class TestCounterexamples:
    """Report shapes of failed checks, reached by fault injection on the
    names the harness calls."""

    @staticmethod
    def _broken(real, when=lambda a, b: True):
        # check_interlaced, failing (first_violation (1, 2)) where when(a, b)
        from cylfn.interlace import InterlaceReport

        return lambda a, b: InterlaceReport(False, (1, 2), 1, False, "A") if when(a, b) else real(a, b)

    def test_recurrence_counterexample(self, monkeypatch):
        import cylfn.theorems as th

        # C = C' = 1 at every order breaks the three-term recurrence first
        monkeypatch.setattr(th, "_cyl", lambda nu, delta, x: (1.0, 1.0))
        rep = verify_recurrences(0.5, 0.0, [0.5])
        assert rep.passed is False
        assert list(rep.counterexample) == ["identity", "x", "residual"]
        assert rep.counterexample["identity"] == "three-term"

    @pytest.mark.parametrize("kind, part, keys", (
        (EvalKind.FUNCTION, "a-functions", ["part", "delta", "violation"]),
        (EvalKind.DERIVATIVE, "a-jprime", ["part", "violation"]),
    ))
    def test_theorem1_part_counterexample(self, monkeypatch, kind, part, keys):
        import cylfn.theorems as th

        monkeypatch.setattr(th, "check_interlaced", self._broken(th.check_interlaced, lambda a, b: a.kind is kind))
        rep = verify_theorem1(1.0, 1.0, 0.5, 1.0, 6)
        assert rep.passed is False
        assert list(rep.counterexample) == keys
        assert rep.counterexample["part"] == part and rep.counterexample["violation"] == (1, 2)

    def test_theorem1_chain_counterexample(self, monkeypatch):
        import cylfn.theorems as th
        from cylfn.reports import VerificationReport

        bad = VerificationReport(name="chain(injected)", passed=False, checks=1, worst_residual=-1.0,
                                 counterexample={"link": "injected"})
        monkeypatch.setattr(th, "verify_chain", lambda nu, c, n: bad)
        rep = verify_theorem1(1.0, 1.0, 0.5, 1.0, 6)
        assert rep.passed is False
        assert rep.counterexample == {"part": "b-chain", "violation": {"link": "injected"}}

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError, match="unknown family 'cylinder'"):
            breakdown_scan("cylinder", 1.0, [1.0], n=5)

    def test_theorem3_disagreement_counterexample(self, monkeypatch):
        import cylfn.theorems as th

        monkeypatch.setattr(th, "check_interlaced", self._broken(th.check_interlaced))
        rep = verify_theorem3(1.0, 2.0, Family.CYLINDER, n=10)
        assert rep.passed is False
        assert rep.counterexample == {"interlaced": False, "predicate": True, "first_violation": (1, 2)}
        assert rep.worst_residual == 1.0

    def test_transitivity_premise_failure_on_a_pair(self, monkeypatch):
        import cylfn.theorems as th

        monkeypatch.setattr(th, "check_interlaced", self._broken(th.check_interlaced))
        F, G, H = TestTransitivity.F, TestTransitivity.G, TestTransitivity.H
        rep = verify_transitivity(F, G, H, EvalKind.FUNCTION, (5.0, 60.0))
        assert rep.passed is True and rep.counterexample is None
        assert rep.details == {"status": "premise-failure", "pair": "f-g", "violation": (1, 2)}

    def test_transitivity_conclusion_failure(self, monkeypatch):
        import cylfn.theorems as th

        calls = []  # f-g, g-h, then the conclusion f-h

        def third(a, b):
            calls.append(1)
            return len(calls) == 3

        monkeypatch.setattr(th, "check_interlaced", self._broken(th.check_interlaced, third))
        F, G, H = TestTransitivity.F, TestTransitivity.G, TestTransitivity.H
        rep = verify_transitivity(F, G, H, EvalKind.FUNCTION, (5.0, 60.0))
        assert rep.passed is False
        assert list(rep.counterexample) == ["conclusion", "first_violation"]
        assert rep.counterexample["first_violation"] == (1, 2)
        assert rep.details == {"status": "conclusion-failure"}
