"""Contract of the public record types: construction, defaults, read-only
fields, value equality and the repr format."""

import math

import pytest

from cylfn.interlace import InterlaceReport, ShiftReport
from cylfn.reports import VerificationReport
from cylfn.special_fn import CylinderSpec, DomainError, EvalKind, MixingAngle, Order
from cylfn.theorems import BreakdownCell, BreakdownMap, Family
from cylfn.wronskian import WronskianProfile
from cylfn.zeros import Trajectory, ZeroSequence

SPEC = CylinderSpec(Order(1.5), MixingAngle(0.25))
SPEC_B = CylinderSpec(Order(2.5), MixingAngle(0.0))

# (type, field names in order, positional values, defaults of trailing fields)
RECORDS = (
    (Order, ("nu",), (1.5,), {}),
    (MixingAngle, ("delta",), (0.25,), {}),
    (CylinderSpec, ("order", "angle"), (Order(1.5), MixingAngle(0.25)), {}),
    (ZeroSequence, ("spec", "kind", "zeros", "refined_to"),
     (SPEC, EvalKind.FUNCTION, (2.0, 5.0, 8.0), 1e-12), {}),
    (Trajectory, ("s", "kind", "angle", "samples"),
     (1, EvalKind.DERIVATIVE, MixingAngle(0.0), ((0.5, 1.2), (1.0, 1.8))), {}),
    (InterlaceReport, ("interlaced", "first_violation", "pairs_checked", "coincident",
                       "violation_side"),
     (False, (2, 0), 7, True, "B"), {"coincident": False, "violation_side": None}),
    (ShiftReport, ("shift_d", "window"), (1, (2, 9)), {}),
    (WronskianProfile, ("spec_a", "spec_b", "extrema", "sign_changes", "asymptote", "window",
                        "tail_value", "coincident"),
     (SPEC, SPEC_B, ((3.0, 0.1, "A-zero"),), 0, 0.5, (3.0, 3.0), 0.4, True),
     {"coincident": False}),
    (BreakdownCell, ("nu", "mu", "interlaced", "first_violation", "sign_changes", "proviso",
                     "excluded"),
     (1.0, 2.0, True, None, 0, True, True), {"proviso": None, "excluded": False}),
    (BreakdownMap, ("family", "delta", "n", "cells"),
     (Family.CYLINDER, 0.0, 5, (BreakdownCell(1.0, 2.0, True, None, 0),)), {}),
    (VerificationReport, ("name", "passed", "checks", "worst_residual", "counterexample",
                          "details"),
     ("r", True, 3, 0.0, None, {"note": 2}), {"counterexample": None, "details": {}}),
)
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, names, values, defaults", RECORDS, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction(self, cls, names, values, defaults):
        a = cls(*values)
        b = cls(**dict(zip(names, values)))
        assert a == b
        for name, value in zip(names, values):
            assert getattr(a, name) == value

    def test_defaults(self, cls, names, values, defaults):
        required = len(names) - len(defaults)
        rec = cls(*values[:required])
        for name, value in defaults.items():
            assert getattr(rec, name) == value
        with pytest.raises(TypeError):
            cls(*values[: required - 1])

    def test_fields_are_read_only(self, cls, names, values, defaults):
        rec = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(rec, name, values[0])
        with pytest.raises(AttributeError):
            rec.undeclared = 1
        with pytest.raises(AttributeError):
            delattr(rec, names[0])

    def test_repr_names_every_field_in_order(self, cls, names, values, defaults):
        rec = cls(*values)
        fields = ", ".join(f"{n}={getattr(rec, n)!r}" for n in names)
        assert repr(rec) == f"{cls.__name__}({fields})"


class TestSpecValues:
    def test_equal_values_are_equal_keys(self):
        a = CylinderSpec.of(7.3, 0.4)
        b = CylinderSpec(Order(7.3), MixingAngle(0.4))
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert Order(2) == Order(2.0) and hash(Order(2)) == hash(Order(2.0))
        assert MixingAngle(-math.pi / 2) == MixingAngle(math.pi / 2)
        assert hash(MixingAngle(-math.pi / 2)) == hash(MixingAngle(math.pi / 2))

    def test_different_values_differ(self):
        assert CylinderSpec.of(7.3, 0.4) != CylinderSpec.of(7.3, 0.5)
        assert Order(1.0) != Order(2.0)
        assert MixingAngle(0.1) != MixingAngle(0.2)

    def test_normalized_on_construction(self):
        assert Order(3).nu == 3.0 and type(Order(3).nu) is float
        assert MixingAngle(math.pi + 0.5).delta == pytest.approx(0.5)
        assert MixingAngle(math.pi - 1e-16).delta == 0.0
        spec = CylinderSpec.of(2, -math.pi / 2)
        assert (spec.nu, spec.delta) == (2.0, math.pi / 2)

    @pytest.mark.parametrize("make, value, message", (
        (Order, -1, "order must lie in [0, 30], got -1.0"),
        (Order, 30.5, "order must lie in [0, 30], got 30.5"),
        (Order, math.nan, "order must be finite, got nan"),
        (MixingAngle, math.inf, "angle must be finite, got inf"),
    ))
    def test_validation_errors(self, make, value, message):
        with pytest.raises(DomainError) as info:
            make(value)
        assert str(info.value) == message

    @pytest.mark.parametrize("rebuild, message", (
        (lambda: Order(1.0)._replace(nu=-5.0), "order must lie in [0, 30], got -5.0"),
        (lambda: Order._make([math.nan]), "order must be finite, got nan"),
        (lambda: MixingAngle(0.5)._replace(delta=math.inf), "angle must be finite, got inf"),
        (lambda: MixingAngle._make([math.nan]), "angle must be finite, got nan"),
    ), ids=("order-replace", "order-make", "angle-replace", "angle-make"))
    def test_make_and_replace_validate(self, rebuild, message):
        with pytest.raises(DomainError) as info:
            rebuild()
        assert str(info.value) == message

    def test_make_and_replace_normalize(self):
        assert Order._make([3]).nu == 3.0 and type(Order._make([3]).nu) is float
        assert MixingAngle(0.5)._replace(delta=math.pi + 0.5).delta == pytest.approx(0.5)
        assert MixingAngle._make([-math.pi / 2]).delta == math.pi / 2

    def test_properties_are_read_only(self):
        spec = CylinderSpec.of(1.0, 0.5)
        with pytest.raises(AttributeError):
            spec.nu = 2.0
        with pytest.raises(AttributeError):
            spec.delta = 0.0


class TestVerificationReport:
    def test_details_not_shared(self):
        a = VerificationReport("a", True, 1, 0.0)
        b = VerificationReport("b", True, 1, 0.0)
        a.details["x"] = 1
        assert b.details == {}
        assert a.details is not b.details

    @pytest.mark.parametrize("passed, counterexample", ((True, {"s": 1}), (False, None)))
    def test_passed_must_match_counterexample(self, passed, counterexample):
        with pytest.raises(ValueError, match="passed must hold exactly"):
            VerificationReport("r", passed, 1, 0.0, counterexample)

    def test_make_and_replace_keep_the_rule(self):
        rep = VerificationReport("r", True, 1, 0.0)
        with pytest.raises(ValueError, match="passed must hold exactly"):
            rep._replace(passed=False)
        with pytest.raises(ValueError, match="passed must hold exactly"):
            VerificationReport._make(("r", True, 1, 0.0, {"s": 1}, {}))
        failed = rep._replace(passed=False, counterexample={"s": 1})
        assert (failed.passed, failed.counterexample, failed.checks) == (False, {"s": 1}, 1)

    def test_of_names_the_run_and_sets_passed(self):
        params = {"kind": "function", "x": 0.1 + 0.2, "n": 3, "probe": (1.0, 2.5)}
        rep = VerificationReport.of("s", params, 4, 0.0)
        assert rep == ("s(kind=function, x=0.30000000000000004, n=3, probe=(1.0, 2.5))", True, 4, 0.0, None, {})
        failed = VerificationReport.of("s", {}, 1, 1.0, {"s": 1}, {"extra": 2})
        assert failed == ("s()", False, 1, 1.0, {"s": 1}, {"extra": 2})

    def test_schema_order(self):
        rep = VerificationReport("r", False, 2, -1.0, {"s": 1}, {"extra": 3})
        assert list(rep.to_schema().items()) == [
            ("name", "r"), ("passed", False), ("checks", 2), ("worst_residual", -1.0),
            ("counterexample", {"s": 1}),
        ]


class TestZeroSequence:
    def test_len_index_and_iteration_read_the_zeros(self):
        seq = ZeroSequence(SPEC, EvalKind.FUNCTION, (2.0, 5.0, 8.0), 1e-12)
        assert len(seq) == 3
        assert seq[0] == 2.0 and seq[-1] == 8.0 and seq[1:] == (5.0, 8.0)
        assert list(seq) == [2.0, 5.0, 8.0]

    def test_value_equality_and_hash(self):
        a = ZeroSequence(SPEC, EvalKind.FUNCTION, (2.0, 5.0), 1e-12)
        b = ZeroSequence(SPEC, EvalKind.FUNCTION, (2.0, 5.0), 1e-12)
        c = ZeroSequence(SPEC, EvalKind.DERIVATIVE, (2.0, 5.0), 1e-12)
        assert a == b and hash(a) == hash(b)
        assert a != c
