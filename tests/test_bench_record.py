"""The BENCH recorder's summary rule, on synthetic runs: medians, quartiles and
per-seed wins against the base checkout, each metric's direction read from
BENCHMARK.json; its reading of the slow maps' worst-case lines; what it
keeps of a child that fails; and its refusal of a checkout with bytecode under
`src/`.  No benchmark or map is run."""

import json
import sys
from pathlib import Path

import pytest

import corpus
import record

ROOT = Path(__file__).resolve().parents[1]


def _run(seed, trace, **values):
    # one run's JSON line as perfbench/run.py prints it, with the seed and mode the recorder adds
    metrics = {name.replace("__", "."): {"value": v, "unit": "ms"} for name, v in values.items()}
    return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics, "seed": seed, "trace": trace}


CELL = "theorems.theorem3_cell_ms"
RUNS = {
    "parent": {"zeros-cold": [
        _run(1, 0, ops_per_s=100.0, op_p50_ms=2.0), _run(1, 1, theorems__theorem3_cell_ms=5.0),
        _run(2, 0, ops_per_s=110.0, op_p50_ms=1.8), _run(2, 1, theorems__theorem3_cell_ms=4.0),
        _run(3, 0, ops_per_s=120.0, op_p50_ms=1.6), _run(3, 1, theorems__theorem3_cell_ms=6.0),
    ]},
    "change": {"zeros-cold": [
        _run(1, 0, ops_per_s=105.0, op_p50_ms=2.1), _run(1, 1, theorems__theorem3_cell_ms=4.5),
        {"returncode": 1, "stderr": "Traceback ...", "seed": 2, "trace": 0},  # a failed run
        _run(2, 1, theorems__theorem3_cell_ms=4.5),
        _run(3, 0, ops_per_s=130.0, op_p50_ms=1.5), _run(3, 1, theorems__theorem3_cell_ms=5.0),
    ]},
}
NAMES = ["parent", "change"]
METRICS = ("ops_per_s", "op_p50_ms", CELL)


def _summary(path=None):
    better = record.directions(path) if path else record.directions()
    return record.summarise(NAMES, RUNS, {m: better[m] for m in METRICS})["zeros-cold"]


class TestDirections:
    def test_every_metric_in_benchmark_order(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        better = record.directions()
        assert list(better) == names
        assert (better["ops_per_s"], better["op_p50_ms"], better[CELL]) == ("higher", "lower", "lower")

    def test_direction_comes_from_the_file(self, tmp_path):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for m in spec["end_to_end"] + spec["per_layer"]:
            m["better"] = {"higher": "lower", "lower": "higher"}[m["better"]]
        path = tmp_path / "BENCHMARK.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        rows = _summary(str(path))
        assert [rows[m]["change"]["better_than_parent"] for m in METRICS] == ["0 of 2", "1 of 2", "1 of 3"]


class TestSummary:
    def test_medians_and_quartiles(self):
        rows = _summary()
        expect = {
            "ops_per_s": {"parent": (110.0, 105.0, 115.0), "change": (117.5, 111.25, 123.75)},
            "op_p50_ms": {"parent": (1.8, 1.7, 1.9), "change": (1.8, 1.65, 1.95)},
            CELL: {"parent": (5.0, 4.5, 5.5), "change": (4.5, 4.5, 4.75)},
        }
        for metric, sides in expect.items():
            for name, (median, q1, q3) in sides.items():
                got = rows[metric][name]
                assert (got["median"], got["q1"], got["q3"]) == pytest.approx((median, q1, q3)), (metric, name)

    def test_wins_against_the_base_in_each_direction(self):
        rows = _summary()
        # higher is better: 105 > 100 and 130 > 120; lower is better: only 1.5 < 1.6, and 4.5 < 5, 5 < 6
        assert [rows[m]["change"]["better_than_parent"] for m in METRICS] == ["2 of 2", "1 of 2", "2 of 3"]
        assert all("better_than_parent" not in rows[m]["parent"] for m in METRICS)

    def test_failed_run_is_skipped_not_counted(self):
        rows = _summary()
        assert record.by_seed(RUNS["change"]["zeros-cold"], "ops_per_s") == {1: 105.0, 3: 130.0}
        assert rows["ops_per_s"]["change"]["better_than_parent"].endswith("of 2")
        assert rows[CELL]["change"]["better_than_parent"].endswith("of 3")

    def test_every_metric_of_the_file_is_summarised(self):
        rows = record.summarise(NAMES, RUNS, record.directions())["zeros-cold"]
        assert list(rows) == list(record.directions())
        # a metric that no run reports: no median and no seed to compare
        assert rows["setup_s"] == {"parent": {"median": None},
                                   "change": {"median": None, "better_than_parent": "0 of 0",
                                              "clears_base_quartiles": False}}

    def test_clears_the_base_quartiles_in_each_direction(self):
        # ops_per_s: 117.5 > q3 115; op_p50_ms: 1.8 is not below q1 1.7; the
        # cell: 4.5 is not below q1 4.5
        rows = _summary()
        assert [rows[m]["change"]["clears_base_quartiles"] for m in METRICS] == [True, False, False]
        assert all("clears_base_quartiles" not in rows[m]["parent"] for m in METRICS)
        # a lower-is-better median below the base's q1, and one seed alone, with no quartiles
        runs = {"parent": {"w": [_run(s, 0, op_p50_ms=v) for s, v in ((1, 1.0), (2, 1.2), (3, 1.4))]},
                "change": {"w": [_run(s, 0, op_p50_ms=v) for s, v in ((1, 1.05), (2, 1.0), (3, 1.1))]}}
        row = record.summarise(NAMES, runs, {"op_p50_ms": "lower"})["w"]["op_p50_ms"]["change"]
        assert (row["median"], row["better_than_parent"], row["clears_base_quartiles"]) == (1.05, "2 of 3", True)
        runs["parent"]["w"] = runs["parent"]["w"][:1]
        row = record.summarise(NAMES, runs, {"op_p50_ms": "lower"})["w"]["op_p50_ms"]["change"]
        assert row["clears_base_quartiles"] is False


MAP_OUTPUT = """\
tests/test_zero_map.py
zero map straddle       worst error/max(1, z) 6.45e-15 at (nu, delta, kind, z) = (5.0, 0.46, 'derivative', 4.94)
zero map C below nu     worst error/max(1, z) 1.29e-16 at (nu, delta, kind, z) = (3.0, 3.1, 'function', 2.5)
zero map below the start: worst relative error 2.00e-16 at (0.1, 3.14, 'function', 1e-08)
zero map requests with a zero {'below the start': 12, 'straddling nu': 7, 'below 1e-300': 0}
.
accuracy map seam         worst error/bound 3.10e-02 at (nu, delta, x, pair) = (2.0, 0.0, 30.0, True)
.
2 passed in 90.00s
"""


class TestMapWorsts:
    def test_each_stratum_worst_and_where(self):
        got = record.map_worsts(MAP_OUTPUT)
        assert list(got) == ["zero map", "accuracy map"]
        assert list(got["zero map"]) == ["straddle", "C below nu", "below the start"]
        assert got["zero map"]["straddle"] == {
            "worst": 6.45e-15, "at": "(nu, delta, kind, z) = (5.0, 0.46, 'derivative', 4.94)"}
        assert got["zero map"]["below the start"] == {"worst": 2e-16, "at": "(0.1, 3.14, 'function', 1e-08)"}
        assert got["accuracy map"] == {"seam": {"worst": 3.1e-2, "at": "(nu, delta, x, pair) = (2.0, 0.0, 30.0, True)"}}

    def test_output_without_map_lines(self):
        assert record.map_worsts("1 failed in 2.00s\n") == {}


class TestFailure:
    def test_a_failing_command_keeps_its_status_and_the_end_of_its_stderr(self, tmp_path):
        code = "import sys; sys.stderr.write('x' * 3000 + 'the end'); sys.exit(3)"
        got = corpus.last_json([sys.executable, "-c", code], str(tmp_path))
        assert got == {"returncode": 3, "stderr": ("x" * 3000 + "the end")[-2000:]}

    def test_a_checkout_whose_children_fail_still_gets_its_file(self, tmp_path, capsys, monkeypatch):
        # an empty folder: the zeros-cold walk fails and is printed before the
        # first timed run, each run fails, and the file is written all the same
        monkeypatch.setattr(record, "slow_maps", lambda root: {})
        monkeypatch.setattr(record, "tier1", lambda root: {})
        out = tmp_path / "bench.json"
        argv = ["--checkout", f"empty={tmp_path}", "--workloads", "zeros-cold", "--seeds", "1", "--out", str(out)]
        assert record.main(argv) == 0
        entry = json.loads(out.read_text(encoding="utf-8"))["checkouts"]["empty"]
        assert entry["zeros_cold_hash"] is None
        assert entry["zeros_cold_counts"]["returncode"] == 1
        assert "ModuleNotFoundError" in entry["zeros_cold_counts"]["stderr"]
        assert [run["returncode"] for run in entry["runs"]["zeros-cold"]] == [2, 2]
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("empty: ") and "zeros_cold_hash" in first


class TestOrder:
    def test_tier1_runs_twice_per_checkout_in_the_order_a_b_b_a(self, tmp_path, monkeypatch):
        # after the timing loop, the slow maps run once per checkout, then
        # tier-1 A B B A, so that a slow spell of the machine falls on both;
        # each checkout keeps both tier-1 runs in the order they ran
        calls = []

        def stub(what):
            def run(root):
                calls.append((what, root))
                return {"wall_s": float(len(calls))}

            return run

        monkeypatch.setattr(record, "slow_maps", stub("slow_maps"))
        monkeypatch.setattr(record, "tier1", stub("tier1"))
        monkeypatch.setattr(corpus, "zeros_cold", lambda root: {})
        roots = {name: tmp_path / name for name in ("a", "b")}
        for root in roots.values():
            root.mkdir()
        out = tmp_path / "bench.json"
        argv = [arg for name, root in roots.items() for arg in ("--checkout", f"{name}={root}")]
        argv += ["--workloads", "zeros-cold", "--seeds", "1", "--seconds", "0.1", "--out", str(out)]
        assert record.main(argv) == 0
        a, b = str(roots["a"]), str(roots["b"])
        assert calls == [("slow_maps", a), ("slow_maps", b), ("tier1", a), ("tier1", b), ("tier1", b), ("tier1", a)]
        got = json.loads(out.read_text(encoding="utf-8"))["checkouts"]
        assert got["a"]["tier1"] == [{"wall_s": 3.0}, {"wall_s": 6.0}]
        assert got["b"]["tier1"] == [{"wall_s": 4.0}, {"wall_s": 5.0}]


class TestBytecode:
    @staticmethod
    def _main(tmp_path, monkeypatch, roots):
        # record.main on the given checkouts, every child stubbed: the calls it made, and its file or None
        calls = []
        monkeypatch.setattr(corpus, "zeros_cold", lambda root: calls.append(("zeros_cold", root)) or {})
        monkeypatch.setattr(record, "bench_run", lambda root, *args: calls.append(("bench_run", root)) or {})
        monkeypatch.setattr(record, "slow_maps", lambda root: calls.append(("slow_maps", root)) or {})
        monkeypatch.setattr(record, "tier1", lambda root: calls.append(("tier1", root)) or {})
        out = tmp_path / "bench.json"
        argv = [arg for name, root in roots.items() for arg in ("--checkout", f"{name}={root}")]
        argv += ["--workloads", "zeros-cold", "--seeds", "1", "--out", str(out)]
        code = record.main(argv)
        return code, calls, json.loads(out.read_text(encoding="utf-8")) if out.exists() else None

    def test_a_checkout_with_bytecode_under_src_is_refused_before_any_run(self, tmp_path, monkeypatch, capsys):
        # bytecode that a checkout brings with it spares its runs the compile:
        # exit 1, naming the folder, before any child runs and with no file
        roots = {name: tmp_path / name for name in ("parent", "change")}
        (roots["parent"] / "src" / "cylfn").mkdir(parents=True)
        stale = roots["change"] / "src" / "cylfn" / "__pycache__"
        stale.mkdir(parents=True)
        code, calls, written = self._main(tmp_path, monkeypatch, roots)
        assert (code, calls, written) == (1, [], None)
        assert str(stale) in capsys.readouterr().err

    def test_the_file_records_the_check(self, tmp_path, monkeypatch):
        roots = {name: tmp_path / name for name in ("parent", "change")}
        for root in roots.values():
            (root / "src" / "cylfn").mkdir(parents=True)
        code, calls, written = self._main(tmp_path, monkeypatch, roots)
        assert code == 0 and calls[0] == ("zeros_cold", str(roots["parent"]))
        assert written["no_pycache_under_src"] is True
