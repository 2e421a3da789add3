"""Recurrence, theorem, transitivity, and breakdown-atlas harness tests."""

import math

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

    def test_rejects_non_consecutive_triple(self):
        with pytest.raises(DomainError):
            verify_transitivity(
                self.F, CylinderSpec.of(2.5, 0.0), self.H, EvalKind.FUNCTION, (5.0, 60.0)
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

    def test_parallel_matches_serial(self):
        gaps = [0.5, 1.5, 2.5]
        serial = breakdown_scan(Family.JPRIME, 1.5, gaps, n=15, threads=1)
        parallel = breakdown_scan(Family.JPRIME, 1.5, gaps, n=15, threads=2)
        assert serial == parallel

    def test_workers_capped_by_cells_and_cpus(self, monkeypatch):
        # a stand-in pool records the worker count and runs cells in-process,
        # so no large pool is ever started
        import concurrent.futures as cf

        asked = []

        class Pool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(cf, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        gaps = [0.5, 1.5, 2.5]
        m = breakdown_scan(Family.JPRIME, 1.5, gaps, n=15, threads=10**6)
        assert asked == [3]
        assert m == breakdown_scan(Family.JPRIME, 1.5, gaps, n=15, threads=1)
        breakdown_scan(Family.JPRIME, 1.5, gaps * 3, n=15, threads=10**6)
        assert asked == [3, 4]
