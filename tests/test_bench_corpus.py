"""The artifact corpus's diff rule, on synthetic outputs: what differs, and the
largest relative difference among the numbers; the corpus's reach over the
command line; its zeros-cold child against the walk in process, the size it
gives a hash change, and what of the child a BENCH file keeps; and the
walk's counter, `count_walk`, which leaves the walk as it found it."""

import hashlib
import itertools
import json
import math
import random
import shlex
from pathlib import Path

import pytest

import corpus
import record
from cylfn import zeros
from cylfn.cli import build_parser
from cylfn.special_fn import CylinderSpec, DomainError, EvalKind
from cylfn.theorems import Family

ROOT = Path(__file__).resolve().parents[1]


ZEROS = '{"zeros": [2.4048255576957729, 5.5200781102863106], "refined_to": 1e-12}\n'


class TestCompare:
    def test_identical_outputs(self):
        assert corpus.compare((0, ZEROS, ""), (0, ZEROS, "")) is None

    def test_ulps_in_one_number(self):
        moved = ZEROS.replace("5.5200781102863106", "5.5200781102863115")
        diff = corpus.compare((0, ZEROS, ""), (0, moved, ""))
        assert diff["differs"] == ["stdout"]
        assert diff["largest_rel"] == pytest.approx(9e-16 / 5.52, rel=1e-3)

    def test_largest_of_several_and_exponent_forms(self):
        a = "x,c\n1e-5,-0.5\n30,0.25\n"
        b = "x,c\n1.00000000000000008e-05,-0.50000000000000011\n30,0.25\n"
        diff = corpus.compare((0, a, ""), (0, b, ""))
        assert diff["largest_rel"] == pytest.approx(1.1e-16 / 0.5, rel=1e-6)

    def test_text_beyond_the_numbers(self):
        a = (1, "", "cylfn: error: need n >= 1, got 0\n")
        b = (2, "", "cylfn: computation failed: did not converge\n")
        diff = corpus.compare(a, b)
        assert diff == {"differs": ["status", "stderr"], "largest_rel": None}
        assert corpus.describe("zeros --nu 1 --n 0", diff) == "cylfn zeros --nu 1 --n 0: status, stderr differ; text"

    def test_a_number_more_is_text(self):
        longer = ZEROS.replace("5.5200781102863106]", "5.5200781102863106, 8.6537279129110125]")
        assert corpus.compare((0, ZEROS, ""), (0, longer, ""))["largest_rel"] is None

    def test_describe_gives_the_size(self):
        diff = {"differs": ["stdout"], "largest_rel": 1.6e-16}
        assert corpus.describe("zeros --nu 0 --n 5", diff) == (
            "cylfn zeros --nu 0 --n 5: stdout differ; largest relative difference 1.6e-16")


class TestReach:
    def test_every_subcommand_suite_and_sweep_family(self):
        argv = [shlex.split(line) for line in corpus.CORPUS]
        sub = build_parser()._subparsers._group_actions[0].choices
        assert set(sub) <= {a[0] for a in argv if a}
        suites = sub["verify"]._positionals._group_actions[0].choices
        assert set(suites) <= {a[1] for a in argv if a[:1] == ["verify"]}
        sweeps = {(a[a.index("--family") + 1], "--format" in a) for a in argv if a[:1] == ["sweep"]}
        assert {(f.value, fmt) for f in Family for fmt in (False, True)} <= sweeps

    def test_error_exits_included(self):
        assert "" in corpus.CORPUS  # no subcommand
        assert "zeros --nu 1 --n 10000000000000000000" in corpus.CORPUS


class TestZerosCold:
    def test_child_hashes_the_walk_and_its_counts_add_up(self, monkeypatch):
        # 4 requests at each seed hashed, the first 3 at seed 1 counted; the
        # hash is the plain walk's, so the counting wrappers call through.
        # The halt tests are the _cubic_bound calls of the same 3 requests,
        # walked here on a cleared zero cache
        got = corpus.zeros_cold(str(ROOT), requests=4, counted=3)
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        halts = [0]

        def bound(*args, fn=zeros._cubic_bound):
            halts[0] += 1
            return fn(*args)

        monkeypatch.setattr(zeros, "_cubic_bound", bound)
        zeros._find_zeros_cached.cache_clear()
        h = hashlib.sha256()
        found = {}  # n: zeros over seed 1's first 3 requests
        counted = 0  # their halt tests
        walked = []  # every hashed zero, in order
        for seed in (1, 2):
            ops = workloads.ZerosCold(random.Random(f"zeros-cold:{seed}")).ops()
            for i, (spec, kind, n) in enumerate(itertools.islice(ops, 4)):
                before = halts[0]
                seq = zeros.find_zeros(spec, kind, n)
                h.update(repr((spec, kind, n, seq.zeros, seq.refined_to)).encode())
                walked += seq.zeros
                if seed == 1 and i < 3:
                    found[n] = found.get(n, 0) + len(seq)
                    counted += halts[0] - before
        zeros._find_zeros_cached.cache_clear()
        counts = got["counts"]
        assert got["hash"] == h.hexdigest() and got["zeros"] == walked
        assert counts["requests"] == 3 and counts["zeros"] == sum(found.values())
        assert counts["halt_tests_per_zero"] * counts["zeros"] == pytest.approx(counted) and counted >= 1
        by_n = {int(n): v for n, v in counts["phase_passes_per_zero_by_n"].items()}
        assert by_n.keys() == found.keys()
        passes = sum(by_n[n] * z for n, z in found.items())
        assert passes == pytest.approx(counts["phase_passes_per_zero"] * counts["zeros"]) and passes >= 1
        assert counts["cyl_calls_per_zero"] > 0
        # by the index of the zero above the start: every zero, and every pass, in one group
        by_index, found = counts["phase_passes_per_zero_by_index"], counts["zeros_by_index"]
        assert list(by_index) == ["1", "2", "3", "4-12", "13-"][:len(by_index)] and by_index["1"] >= 1
        assert list(found) == [*by_index, "below the start"]
        assert sum(found.values()) == counts["zeros"]
        assert sum(by_index[g] * found[g] for g in by_index) == pytest.approx(passes)

    def test_count_walk_restores_the_walk_when_a_request_raises(self):
        seams = zeros._target, zeros._refine, zeros._cyl, zeros._cubic_bound
        beyond = (CylinderSpec.of(30.0, 0.0), EvalKind.FUNCTION, 113)  # the 113th zero lies past x = 400
        with pytest.raises(DomainError):
            corpus.count_walk([(CylinderSpec.of(0.0, 0.0), EvalKind.FUNCTION, 2), beyond])
        assert (zeros._target, zeros._refine, zeros._cyl, zeros._cubic_bound) == seams

    def test_a_hash_change_is_sized_from_the_same_walks(self, monkeypatch, capsys):
        # one child per checkout; where the hashes differ, how many zeros
        # moved and by how much at most, relative; nothing where they agree
        walks = {"a": {"hash": "1", "zeros": [0.0, 2.5, 5.5, 8.5]},
                 "b": {"hash": "2", "zeros": [0.0, 2.5, math.nextafter(5.5, 6.0), math.nextafter(8.5, 0.0)]},
                 "c": {"hash": "1", "zeros": [0.0, 2.5, 5.5, 8.5]}}
        calls = []
        monkeypatch.setattr(corpus, "CORPUS", ())
        monkeypatch.setattr(corpus, "zeros_cold", lambda root: calls.append(root) or walks[root])
        assert corpus.main(["--checkout", "a=a", "--checkout", "b=b"]) == 0
        assert calls == ["a", "b"]
        # the largest move is 8.5's ulp below, over 8.5
        assert capsys.readouterr().out.splitlines()[-1] == (
            "zeros-cold hashes differ: 2 of 4 zeros moved, the largest by 2.09e-16 relative")
        assert corpus.main(["--checkout", "a=a", "--checkout", "c=c"]) == 0
        assert "moved" not in capsys.readouterr().out

    def test_the_bench_file_keeps_no_zeros(self, monkeypatch, tmp_path):
        # bench/record.py takes the child's hash and counts, and leaves its zeros out
        walk = {"hash": "1", "counts": {"requests": 1}, "zeros": [2.5]}
        monkeypatch.setattr(corpus, "zeros_cold", lambda root: walk)
        for child in ("bench_run", "slow_maps", "tier1"):
            monkeypatch.setattr(record, child, lambda *args: {})
        out = tmp_path / "bench.json"
        argv = ["--checkout", f"a={tmp_path}", "--workloads", "zeros-cold", "--seeds", "1", "--out", str(out)]
        assert record.main(argv) == 0
        entry = json.loads(out.read_text(encoding="utf-8"))["checkouts"]["a"]
        assert (entry["zeros_cold_hash"], entry["zeros_cold_counts"]) == ("1", {"requests": 1})
        assert '"zeros"' not in out.read_text(encoding="utf-8")

    def test_a_failing_child_fails_the_script(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(corpus, "CORPUS", ("",))
        assert corpus.main(["--checkout", f"a={tmp_path}", "--checkout", f"b={tmp_path}"]) == 1
        assert "a zeros-cold hash {'returncode': 1" in capsys.readouterr().out
