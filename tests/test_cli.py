"""CLI contract tests: exit codes, formats, determinism."""

import json
import math

import pytest

from cylfn.cli import main, parse_angle


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


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "zeros", "--nu", "0", "--n", "3")
        assert code == 0

    def test_usage_error_bad_domain(self, capsys):
        code, _, err = run(capsys, "zeros", "--nu", "-2")
        assert code == 1

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "zeros", "--bogus", "1")
        assert code == 1

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

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "zeros.json"
        code, out, _ = run(
            capsys, "zeros", "--nu", "0.5", "--n", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        vals = json.loads(target.read_text())
        assert vals[0] == pytest.approx(math.pi, abs=1e-10)


class TestDeterminism:
    def test_verify_all_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        code_a = main(["verify", "all", "--threads", "1", "--out", str(a)])
        code_b = main(["verify", "all", "--threads", "1", "--out", str(b)])
        assert code_a == 0 and code_b == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_schema_fields(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "chain", "--nu", "1", "--c", "0.5", "--n", "5", "--out", str(out)])
        payload = json.loads(out.read_text())
        report = payload["reports"][0]
        assert list(report.keys()) == [
            "name", "passed", "checks", "worst_residual", "counterexample",
        ]
