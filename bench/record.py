"""Record one BENCH file: the benchmark, zero-search counts, the slow maps, tier-1 time and size, per checkout.

    python3 bench/record.py --checkout parent=../parent --checkout change=. \\
        --workloads zeros-cold eval-small-x --seeds 1 2 3 --seconds 20 --out BENCH_20.json

Each --checkout NAME=PATH names the root of a checkout.  One loop does all
the timing: for every seed and workload, `perfbench/run.py --trace 0` runs
once in each checkout, then `--trace 1` once in each, every run from its
checkout's root, and the last stdout line of each, one JSON object, is kept.
The checkouts alternate which runs first from one seed to the next, so that
a slow spell of the machine falls on both.

The file holds, besides the machine, the arguments and each checkout's commit:

- `checkouts.NAME.runs`: every run's JSON line with its seed and trace mode;
  a run that exits non-zero keeps its exit status and the end of its stderr;
- `checkouts.NAME.zeros_cold_counts`: phase passes (calls of the phase from
  `zeros._target`) and `zeros._cyl` calls per zero, counted in process over
  the first REQUESTS = 300 requests of perfbench's `ZerosCold` at seed 1,
  fixed so that the counts compare from one BENCH file to the next, and the
  phase passes per zero for each request size n; perfbench's trace cannot
  see the phase pass;
- `checkouts.NAME.slow_maps`: the `-m slow` zero and accuracy maps' worst
  error over its bound per stratum, with where it lies, as the maps print
  them under `-s`, and pytest's summary line;
- `checkouts.NAME.tier1`: the tier-1 wall time and pytest's summary line;
- `checkouts.NAME.src_lines`: all lines of `src/**/*.py`;
- `summary.WORKLOAD.METRIC.NAME`: for every end-to-end metric (`--trace 0`)
  and every per-layer metric (`--trace 1`) of BENCHMARK.json, the median
  and quartiles over the seeds and, for each checkout after the first (the
  base), in how many seeds it did better than the base, in the direction
  that BENCHMARK.json gives.  A run that failed counts in no median and no
  win count.

Standard library only; run.py needs mpmath for its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

REQUESTS = 300  # zeros-cold requests counted in process
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

COUNT_CODE = """\
import json, random, sys
root = sys.argv[1]
sys.path[:0] = [root + "/perfbench", root + "/src", root + "/tests"]
from cylfn import zeros
import workloads
counts = {"passes": 0, "cyl": 0}
target, cyl = zeros._target, zeros._cyl
def counted_target(spec, kind):
    phase = target(spec, kind)
    def counted(x):
        counts["passes"] += 1
        return phase(x)
    return counted
def counted_cyl(*args, **kwargs):
    counts["cyl"] += 1
    return cyl(*args, **kwargs)
zeros._target, zeros._cyl = counted_target, counted_cyl
zeros._find_zeros_cached.cache_clear()
ops = workloads.ZerosCold(random.Random("zeros-cold:1")).ops()
by_n = {}  # n: [phase passes, zeros]
for _ in range(int(sys.argv[2])):
    spec, kind, n = next(ops)
    before = counts["passes"]
    row = by_n.setdefault(n, [0, 0])
    row[1] += len(zeros.find_zeros(spec, kind, n))
    row[0] += counts["passes"] - before
found = sum(z for _, z in by_n.values())
print(json.dumps({"requests": int(sys.argv[2]), "zeros": found,
                  "phase_passes_per_zero": counts["passes"] / found,
                  "cyl_calls_per_zero": counts["cyl"] / found,
                  "phase_passes_per_zero_by_n": {n: p / z for n, (p, z) in sorted(by_n.items())}}))
"""

# a worst-case line that tests/test_zero_map.py or tests/test_accuracy_map.py prints under -s
MAP_LINE = re.compile(r"^(zero map|accuracy map) (.+?):? +worst (?:error/max\(1, z\)|error/bound|relative error)"
                      r" (\S+) at (.*)$")
MAPS = ("tests/test_zero_map.py", "tests/test_accuracy_map.py")


def directions(path: str = BENCHMARK) -> dict:
    # {metric: "higher" or "lower"}, end-to-end metrics first, in BENCHMARK.json's order
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench_run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode:
        return {"returncode": out.returncode, "stderr": out.stderr[-2000:]}
    return _last_json(out.stdout)


def zero_counts(root: str) -> dict:
    out = subprocess.run([sys.executable, "-c", COUNT_CODE, os.path.abspath(root), str(REQUESTS)],
                         capture_output=True, text=True, check=True)
    return _last_json(out.stdout)


def map_worsts(text: str) -> dict:
    # {map: {stratum: {"worst": value, "at": where}}} from the maps' -s output
    out = {}
    for line in text.splitlines():
        m = MAP_LINE.match(line.strip())
        if m:
            out.setdefault(m[1], {})[m[2]] = {"worst": float(m[3]), "at": m[4]}
    return out


def _src_env() -> dict:
    # the checkout's own package first, for a process started from its root
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))


def slow_maps(root: str) -> dict:
    # the -m slow zero and accuracy maps: each stratum's worst error over its bound
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-m", "slow", "-p", "no:cacheprovider", *MAPS],
                         cwd=root, env=_src_env(), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return {"returncode": out.returncode, "summary": lines[-1] if lines else "", **map_worsts(out.stdout)}


def tier1(root: str) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"], cwd=root, env=_src_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = out.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "returncode": out.returncode, "summary": lines[-1] if lines else ""}


def src_lines(root: str) -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def commit(root: str):
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def by_seed(runs: list, metric: str) -> dict:
    # {seed: value} over the runs that report the metric; a failed run reports none
    return {r["seed"]: r["metrics"][metric]["value"] for r in runs if metric in r.get("metrics", {})}


def summarise(names: list, runs: dict, better: dict) -> dict:
    # runs[name][workload] = that checkout's runs of the workload, both trace modes
    base = names[0]
    out = {}
    for workload in runs[base]:
        rows = {}
        for metric, direction in better.items():
            per = {n: by_seed(runs[n][workload], metric) for n in names}
            row = {n: quartiles(list(values.values())) for n, values in per.items()}
            for n in names[1:]:
                seeds = [s for s in per[base] if s in per[n]]
                wins = sum((per[n][s] > per[base][s]) if direction == "higher" else (per[n][s] < per[base][s])
                           for s in seeds)
                row[n]["better_than_" + base] = f"{wins} of {len(seeds)}"
            rows[metric] = row
        out[workload] = rows
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="NAME=PATH")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = dict(spec.split("=", 1) for spec in args.checkout)
    names = list(roots)
    better = directions()

    runs = {n: {w: [] for w in args.workloads} for n in names}
    for i, seed in enumerate(args.seeds):
        order = names if i % 2 == 0 else names[::-1]
        for workload in args.workloads:
            for trace in (0, 1):
                for n in order:
                    run = bench_run(roots[n], workload, seed, args.seconds, trace)
                    run.update(seed=seed, trace=trace)
                    runs[n][workload].append(run)
                    print(f"{workload} seed {seed} trace {trace} {n}:", json.dumps(run.get("metrics", run)),
                          flush=True)

    record = {
        "harness": "bench/record.py",
        "checkout_order": names,
        "requests": REQUESTS,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "checkouts": {},
    }
    for n in names:
        root = roots[n]
        record["checkouts"][n] = {
            "commit": commit(root),
            "src_lines": src_lines(root),
            "zeros_cold_counts": zero_counts(root),
            "slow_maps": slow_maps(root),
            "tier1": tier1(root),
            "runs": runs[n],
        }
        print(f"{n}: {json.dumps({k: v for k, v in record['checkouts'][n].items() if k != 'runs'})}", flush=True)
    record["summary"] = summarise(names, runs, better)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
