"""CLI contract tests: exit codes, formats, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cylfn.cli import main, parse_angle
from cylfn.special_fn import CylinderSpec, EvalKind, cylinder_and_prime
from cylfn.theorems import BreakdownCell
from cylfn.wronskian import wronskian_profile
from cylfn.zeros import find_zeros


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAngleParsing:
    def test_fractions_of_pi(self):
        assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("-pi/3") == pytest.approx(-math.pi / 3)
        assert parse_angle("3pi/4") == pytest.approx(3 * math.pi / 4)
        assert parse_angle("2*pi/5") == pytest.approx(2 * math.pi / 5)

    def test_plain_radians(self):
        assert parse_angle("0.75") == 0.75
        assert parse_angle("0") == 0.0

    def test_garbage_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("two pies")

    @pytest.mark.parametrize("text", ("pi/0", "pi/0.0", ".pi"))
    def test_division_by_zero_and_bare_point_rejected(self, text):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle(text)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "zeros", "--nu", "0", "--n", "3")
        assert code == 0

    def test_zeros_up_to_the_last_one_in_the_box(self, capsys):
        # C_30 has 112 zeros at x <= 400, the 112th near 397.06
        assert run(capsys, "zeros", "--nu", "30", "--n", "112")[0] == 0
        code, out, err = run(capsys, "zeros", "--nu", "30", "--n", "113")
        assert (code, out) == (1, "")
        assert "would leave the box" in err

    @pytest.mark.parametrize("n", ("9000000000000000000", "10000000000000000000"))
    def test_count_beyond_maxsize_exits_1_with_the_box_message(self, capsys, n):
        code, out, err = run(capsys, "zeros", "--nu", "1", "--n", n)
        assert (code, out) == (1, "")
        assert err == f"cylfn: error: n={n} zeros at nu=1 would leave the box x <= 400\n"

    def test_usage_error_bad_domain(self, capsys):
        code, _, err = run(capsys, "zeros", "--nu", "-2")
        assert code == 1

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "zeros", "--bogus", "1")
        assert code == 1

    def test_unknown_verify_suite_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "bogus")
        assert code == 1
        assert out == ""
        assert "invalid choice" in err

    def test_computation_error_exits_2(self, capsys):
        # the first zero of C at nu = 0, delta = pi - 1e-3 lies below 1e-300
        code, out, err = run(capsys, "zeros", "--nu", "0", "--delta", "3.140592653589793")
        assert code == 2 and out == "" and "1e-300" in err

    @pytest.mark.parametrize("suite", ("theorem3", "equivalence"))
    def test_verify_without_mu_is_a_usage_error(self, capsys, suite):
        code, out, err = run(capsys, "verify", suite)
        assert code == 1
        assert out == ""
        assert f"verify {suite} requires --mu" in err

    def test_wronskian_outside_the_double_range_exits_2(self, capsys):
        # W = inf - inf at nu = 30, mu = 29.5, x = 1e-5: a computation error
        argv = ("wronskian", "--nu", "30", "--delta", "pi/2", "--delta-bar", "pi/2")
        code, out, err = run(capsys, *argv, "--mu", "29.5", "--x", "1e-5")
        assert code == 2 and out == "" and "double range" in err
        code, out, _ = run(capsys, *argv, "--mu", "20", "--x", "0.001")
        assert code == 0
        assert '"value": 1.2269687143435209e+213}' in out

    @pytest.mark.parametrize("grid, identity", (("1.2e-8", "derivative-three-term"), ("1e-8", "prime-up2")))
    def test_recurrence_term_outside_the_double_range_exits_2(self, capsys, grid, identity):
        code, out, err = run(capsys, "verify", "recurrences", "--nu", "30", "--delta", "pi/2", "--grid", grid)
        assert code == 2 and out == ""
        assert identity in err

    @pytest.mark.parametrize("nu, grid", (("1", "1e-150"), ("5", "1e-60"), ("0", "1e-200"), ("29", "1e-30")))
    def test_recurrence_term_below_the_normal_range_exits_2(self, capsys, nu, grid):
        # without the check these read false counterexamples (exit 3), or pass on all-zero terms
        code, out, err = run(capsys, "verify", "recurrences", "--nu", nu, "--grid", grid)
        assert code == 2 and out == ""
        assert "normal double range" in err and f"x={float(grid)!r}" in err

    def test_verify_disagreement_reported_as_pass(self, capsys):
        # "not interlaced, predicate false" is agreement, so exit 0
        code, out, _ = run(
            capsys, "verify", "theorem3", "--nu", "1", "--mu", "5",
            "--family", "cylinder", "--delta", "0", "--n", "30",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    @pytest.mark.parametrize("command", (
        ["sweep", "--family", "cylinder", "--nu", "1", "--gaps", "1.0"],
        ["verify", "all"],
    ))
    @pytest.mark.parametrize("threads", ("0", "-2"))
    def test_threads_below_one_rejected(self, capsys, command, threads):
        # rejected while parsing, before any work starts
        code, out, err = run(capsys, *command, "--threads", threads)
        assert code == 1
        assert out == ""
        assert "--threads" in err

    @pytest.mark.parametrize("argv", (
        ["verify", "recurrences", "--nu", "-5"],
        ["verify", "recurrences", "--nu", "35"],
        ["verify", "recurrences", "--grid", "500"],
        ["verify", "theorem3", "--family", "yprime", "--nu", "1", "--mu", "2", "--delta", "0.7"],
        ["sweep", "--family", "jvsy", "--nu", "1", "--gaps", "0.8", "--delta", "0.7"],
        ["sweep", "--family", "cylinder", "--nu", "50", "--gaps", "0"],
        # |nu - mu| <= 2 is the equal-angle predicate; J vs Y is sweep's
        ["verify", "theorem3", "--family", "jvsy", "--nu", "2.5", "--mu", "1", "--n", "30"],
        # n is checked where the cell is excluded too
        ["verify", "theorem3", "--nu", "1", "--mu", "1", "--n", "0"],
        ["verify", "theorem3", "--nu", "1", "--mu", "1", "--n", "-2"],
        ["sweep", "--family", "cylinder", "--nu", "1", "--gaps", "0", "--n", "-4", "--format", "json"],
    ), ids=(
        "recurrences-nu-5", "recurrences-nu35", "recurrences-x500", "theorem3-yprime", "sweep-jvsy",
        "sweep-nu50-gap0", "theorem3-jvsy", "theorem3-same-orders-n0", "theorem3-same-orders-n-2",
        "sweep-gap0-n-4",
    ))
    def test_domain_errors_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "cylfn: error:" in err

    @pytest.mark.parametrize("angle", ("pi/0", "pi/0.0"))
    def test_angle_over_zero_is_a_usage_error(self, capsys, angle):
        code, out, err = run(capsys, "zeros", "--nu", "1", "--delta", angle)
        assert code == 1
        assert out == ""
        assert "--delta" in err and "Traceback" not in err

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "zeros", "--nu", "1", "--out", str(target))
        assert code == 1
        assert out == ""
        assert "cylfn: error:" in err and str(target) in err
        assert not target.exists()

    @pytest.mark.parametrize("argv", (
        ["interlace", "--nu", "1", "--mu", "2", "--n", "5"],
        ["wronskian", "--nu", "1", "--mu", "2", "--x", "3"],
    ), ids=("interlace", "wronskian"))
    def test_csv_only_where_offered(self, capsys, argv):
        # interlace and wronskian write JSON only, so csv is a usage error
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 1
        assert out == ""
        assert "--format" in err
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["nu"] == 1.0

    def test_failed_suite_exits_3(self, capsys, monkeypatch):
        # fault injection: make the chain checker report a counterexample
        import cylfn.cli as cli
        from cylfn.reports import VerificationReport

        monkeypatch.setattr(
            cli,
            "verify_chain",
            lambda nu, c, n: VerificationReport(
                name="chain(injected)", passed=False, checks=1,
                worst_residual=-1.0, counterexample={"link": "injected"},
            ),
        )
        code, out, _ = run(capsys, "verify", "chain", "--nu", "1", "--n", "5")
        assert code == 3
        assert json.loads(out)["passed"] is False

    @staticmethod
    def _not_interlaced(a, b):
        from cylfn.interlace import InterlaceReport

        return InterlaceReport(False, (1, 2), 1, False, "A")

    @pytest.mark.parametrize("module, name, fake, argv, keys", (
        ("theorems", "_cyl", lambda nu, delta, x: (1.0, 1.0),
         ["recurrences", "--nu", "0.5", "--grid", "0.5"], ["identity", "x", "residual"]),
        ("theorems", "check_interlaced", _not_interlaced,
         ["theorem1", "--nu", "1", "--n", "6"], ["part", "delta", "violation"]),
        ("theorems", "check_interlaced", _not_interlaced,
         ["theorem3", "--nu", "1", "--mu", "2", "--n", "10"], ["interlaced", "predicate", "first_violation"]),
        ("wronskian", "check_interlaced", _not_interlaced,
         ["equivalence", "--nu", "1", "--mu", "2", "--n", "15"],
         ["sign_changes", "interlaced", "first_violation", "window_hi"]),
    ), ids=("recurrences", "theorem1", "theorem3", "equivalence"))
    def test_counterexample_exits_3(self, capsys, monkeypatch, module, name, fake, argv, keys):
        import importlib

        monkeypatch.setattr(importlib.import_module("cylfn." + module), name, fake)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 3
        payload = json.loads(out)
        assert payload["passed"] is False
        (rep,) = payload["reports"]
        assert rep["passed"] is False and list(rep["counterexample"]) == keys

    def test_verify_all_derivative_identity_counterexample_exits_3(self, capsys, monkeypatch):
        import cylfn.cli as cli

        monkeypatch.setattr(cli, "check_derivative_identity", lambda a, b, x: 1.0)
        code, out, _ = run(capsys, "verify", "all")
        assert code == 3
        reports = json.loads(out)["reports"]
        assert [r["passed"] for r in reports] == [True] * (len(reports) - 1) + [False]
        assert list(reports[-1]["counterexample"]) == ["nu", "mu", "delta", "delta_bar", "x", "residual"]
        assert reports[-1]["worst_residual"] == 1.0

    def test_verify_all_transitivity_conclusion_exits_3(self, capsys, monkeypatch):
        import cylfn.theorems as th

        # only verify_transitivity passes lists; its third check is the conclusion
        real, lists = th.check_interlaced, []

        def fake(a, b):
            if isinstance(a, list):
                lists.append(a)
                if len(lists) == 3:
                    return self._not_interlaced(a, b)
            return real(a, b)

        monkeypatch.setattr(th, "check_interlaced", fake)
        code, out, _ = run(capsys, "verify", "all")
        assert code == 3
        failed = [r for r in json.loads(out)["reports"] if not r["passed"]]
        assert [r["name"][:13] for r in failed] == ["transitivity("]
        assert list(failed[0]["counterexample"]) == ["conclusion", "first_violation"]

    def test_non_finite_artifact_value_exits_2(self, capsys, monkeypatch):
        import cylfn.cli as cli
        from cylfn.reports import VerificationReport

        monkeypatch.setattr(cli, "verify_chain", lambda nu, c, n: VerificationReport(
            name="chain(injected)", passed=True, checks=1, worst_residual=math.nan))
        code, out, err = run(capsys, "verify", "chain", "--nu", "1", "--n", "5")
        assert code == 2 and out == ""
        assert "non-finite value nan in artifact" in err


class TestArtifacts:
    def test_zeros_json_anchor(self, capsys):
        code, out, _ = run(
            capsys, "zeros", "--nu", "0", "--delta", "0",
            "--kind", "function", "--n", "3", "--format", "json",
        )
        assert code == 0
        vals = json.loads(out)
        refs = [2.404825557695773, 5.520078110286311, 8.653727912911013]
        assert all(abs(a - b) < 1e-9 for a, b in zip(vals, refs))

    def test_eval_json(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--nu", "1", "--delta", "pi/4", "--x", "2", "--kind", "function"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.4834893805928750, abs=1e-12)

    def test_interlace_json(self, capsys):
        code, out, _ = run(
            capsys, "interlace", "--nu", "1", "--mu", "4.5", "--n", "25"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["interlaced"] is False
        assert payload["shift_d"] == 1

    def test_wronskian_point_value(self, capsys):
        code, out, _ = run(
            capsys, "wronskian", "--nu", "1.5", "--mu", "1.5",
            "--delta", "0", "--delta-bar", "pi/2", "--x", "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(-2.0 / math.pi, abs=1e-10)

    def test_sweep_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "cylinder", "--nu", "1",
            "--gaps", "1.0,3.0", "--n", "12", "--format", "csv", "--threads", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "family,nu,mu,delta,delta_bar,n,interlaced,first_violation,sign_changes,proviso"
        )
        assert len(lines) == 3
        assert lines[1].startswith("cylinder,1,2,")
        assert ",true," in lines[1] and ",false," in lines[2]

    def test_sweep_csv_angles_are_the_computed_ones(self, capsys):
        # a yprime cell pairs Y'_nu with Y'_mu: both at delta = pi/2
        code, out, _ = run(
            capsys, "sweep", "--family", "yprime", "--nu", "1", "--gaps", "1.0",
            "--n", "5", "--format", "csv",
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == float(row[4]) == math.pi / 2

    @pytest.mark.parametrize(
        "argv",
        (
            ("eval", "--nu", "-0", "--delta", "-0", "--x", "1"),
            ("sweep", "--family", "cylinder", "--nu", "-0", "--gaps", "1", "--n", "3", "--format", "json"),
            ("sweep", "--family", "jvsy", "--nu", "-0", "--gaps", "1", "--n", "3", "--format", "csv"),
            ("interlace", "--nu", "-0", "--mu", "1", "--delta", "-0", "--n", "3"),
            ("verify", "theorem3", "--nu", "-0", "--mu", "1", "--delta", "-0", "--n", "3"),
            ("verify", "chain", "--nu", "-0", "--c", "1", "--n", "2"),
            ("verify", "theorem1", "--nu", "-0", "--n", "2"),
        ),
    )
    def test_negative_zero_orders_and_angles_print_as_zero(self, capsys, argv):
        # an order or angle of -0.0 is stored as 0.0, so no artifact echoes
        # it, report names included
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert re.search(r"(^|[\s,\[:=])-0([\s,)}\]]|$)", out) is None, out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "zeros.json"
        code, out, _ = run(
            capsys, "zeros", "--nu", "0.5", "--n", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        vals = json.loads(target.read_text())
        assert vals[0] == pytest.approx(math.pi, abs=1e-10)


class TestArtifactFields:
    """Each artifact is written straight from its record: keys, order, values."""

    @pytest.mark.parametrize("kind", ("both", "derivative"))
    def test_eval_kinds_match_cylinder_and_prime(self, capsys, kind):
        code, out, _ = run(capsys, "eval", "--nu", "2.5", "--delta", "pi/3", "--x", "7", "--kind", kind)
        assert code == 0
        c, cp = cylinder_and_prime(CylinderSpec.of(2.5, math.pi / 3), 7.0)
        tail = {"value": c, "derivative": cp} if kind == "both" else {"kind": kind, "value": cp}
        assert json.loads(out) == {"nu": 2.5, "delta": math.pi / 3, "x": 7.0, **tail}
        assert list(json.loads(out)) == ["nu", "delta", "x", *tail]

    def test_zeros_csv(self, capsys):
        code, out, _ = run(capsys, "zeros", "--nu", "1.5", "--delta", "pi/4", "--n", "4", "--format", "csv")
        assert code == 0
        zs = find_zeros(CylinderSpec.of(1.5, math.pi / 4), EvalKind.FUNCTION, 4).zeros
        assert out == "s,zero\n" + "".join(f"{i + 1},{z:.17g}\n" for i, z in enumerate(zs))
        assert [float(r.split(",")[1]) for r in out.splitlines()[1:]] == list(zs)

    def test_wronskian_profile(self, capsys):
        code, out, _ = run(capsys, "wronskian", "--nu", "1", "--mu", "4.5", "--n", "6")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "nu", "mu", "delta", "delta_bar", "n", "sign_changes", "asymptote", "window",
            "tail_value", "extrema",
        ]
        prof = wronskian_profile(CylinderSpec.of(1.0, 0.0), CylinderSpec.of(4.5, 0.0), 6)
        assert payload["extrema"] == [[z, v, t] for z, v, t in prof.extrema]
        assert payload["window"] == list(prof.window)
        assert payload["sign_changes"] == prof.sign_changes >= 1

    def test_sweep_json_cells_are_the_records(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--family", "cylinder", "--nu", "1", "--gaps", "0,1,3.5",
            "--n", "12", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["family", "delta", "n", "consistent", "cells"]
        cells = payload["cells"]
        assert all(list(c) == list(BreakdownCell._fields) for c in cells)
        assert [c["excluded"] for c in cells] == [True, False, False]
        assert cells[1]["first_violation"] is None
        assert isinstance(cells[2]["first_violation"], list) and len(cells[2]["first_violation"]) == 2

    def test_zero_on_the_start_interlaces(self, capsys):
        # C_0.23's first zero lies on x0 = 0.23 at this angle, within rounding
        delta = "2.6677946479201045"
        code, out, _ = run(capsys, "verify", "theorem3", "--nu", "0.23", "--mu", "1.5",
                           "--family", "cylinder", "--delta", delta, "--n", "10")
        assert code == 0
        assert json.loads(out)["passed"] is True
        code, out, _ = run(capsys, "interlace", "--nu", "0.23", "--mu", "1.5", "--delta", delta,
                           "--delta-bar", delta, "--n", "10")
        assert code == 0
        assert json.loads(out)["interlaced"] is True

    @pytest.mark.parametrize("argv", (
        ["verify", "theorem1", "--nu", "1", "--n", "8"],
        ["verify", "equivalence", "--nu", "1", "--mu", "2", "--n", "10"],
    ), ids=("theorem1", "equivalence"))
    def test_verify_suites_pass(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestDeterminism:
    @pytest.mark.parametrize("argv", (
        ["verify", "all"],
        ["sweep", "--family", "jvsy", "--nu", "1", "--gaps", "0.8,1.5", "--n", "12"],
    ), ids=("verify-all", "sweep"))
    def test_threads_is_a_no_op(self, tmp_path, argv):
        # cylfn runs serially; sweep and verify accept --threads for compatibility
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main([*argv, "--threads", "1", "--out", str(a)]) == 0
        assert main([*argv, "--threads", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_schema_fields(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "chain", "--nu", "1", "--c", "0.5", "--n", "5", "--out", str(out)])
        payload = json.loads(out.read_text())
        report = payload["reports"][0]
        assert list(report.keys()) == [
            "name", "passed", "checks", "worst_residual", "counterexample",
        ]


class TestStartup:
    def test_cli_imports_no_dataclasses_typing_or_inspect(self):
        # -S keeps site's own imports out, so sys.modules shows cylfn's
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import cylfn.cli, sys; "
            "print(' '.join(m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.split() == []
