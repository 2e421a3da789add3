"""Record one BENCH file: the benchmark, zero-search counts, the slow maps, tier-1 time and size, per checkout.

    python3 bench/record.py --checkout parent=../parent --checkout change=. \\
        --workloads zeros-cold eval-small-x --seeds 1 2 3 --seconds 20 --out BENCH_20.json

Each --checkout NAME=PATH names the root of a checkout.  One loop does all
the timing: for every seed and workload, `perfbench/run.py --trace 0` runs
once in each checkout, then `--trace 1` once in each, every run from its
checkout's root, and the last stdout line of each, one JSON object, is kept.
The checkouts alternate which runs first from one seed to the next, so that
a slow spell of the machine falls on both.  After the timing loop the slow
maps run once per checkout, one checkout after the other, and tier-1 twice
per checkout, in the order A B B A.

Before anything runs, the script exits 1, naming the folders, if any
checkout's `src/` holds a `__pycache__`: bytecode that a checkout brings with
it would spare its set-up runs and CLI processes the compile that a clean
checkout pays.  Then each checkout's commit, its `src/` line count and its
zeros-cold walk are taken and printed, so that a child that fails shows in
the first seconds; a failure is kept in the file, not raised.  The file
holds, besides the machine, the arguments and `no_pycache_under_src` (the
check above, passed):

- `checkouts.NAME.runs`: every run's JSON line with its seed and trace mode;
  a run that exits non-zero keeps its exit status and the end of its stderr;
- `checkouts.NAME.zeros_cold_counts` and `zeros_cold_hash`: from one
  zeros-cold child of bench/corpus.py, phase passes, `zeros._cyl` calls and
  certified-halt tests (`zeros._cubic_bound` calls) per zero over the first
  300 requests of perfbench's `ZerosCold` at seed 1,
  the phase passes per zero for each request size n and for each index of
  the zero above the start, and the hash that bench/corpus.py prints;
  perfbench's trace cannot see the phase pass;
- `checkouts.NAME.slow_maps`: the `-m slow` zero and accuracy maps' worst
  error over its bound per stratum, with where it lies, as the maps print
  them under `-s`, and pytest's summary line;
- `checkouts.NAME.tier1`: the checkout's two tier-1 runs in the order they
  ran, each with its wall time, exit status and pytest's summary line;
- `checkouts.NAME.src_lines`: all lines of `src/**/*.py`;
- `summary.WORKLOAD.METRIC.NAME`: for every end-to-end metric (`--trace 0`)
  and every per-layer metric (`--trace 1`) of BENCHMARK.json, the median
  and quartiles over the seeds and, for each checkout after the first (the
  base), in how many seeds it did better than the base, in the direction
  that BENCHMARK.json gives, and `clears_base_quartiles`: whether its median
  lies beyond the base's q3 (higher is better) or below its q1 (lower is
  better), false where either is missing.  A run that failed counts in no
  median and no win count.

Standard library only; run.py and the zeros-cold child need mpmath.
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

import corpus

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

# a worst-case line that tests/test_zero_map.py or tests/test_accuracy_map.py prints under -s
MAP_LINE = re.compile(r"^(zero map|accuracy map) (.+?):? +worst (?:error/max\(1, z\)|error/bound|relative error)"
                      r" (\S+) at (.*)$")
MAPS = ("tests/test_zero_map.py", "tests/test_accuracy_map.py")


def directions(path: str = BENCHMARK) -> dict:
    # {metric: "higher" or "lower"}, end-to-end metrics first, in BENCHMARK.json's order
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def bench_run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return corpus.last_json(cmd, root)


def map_worsts(text: str) -> dict:
    # {map: {stratum: {"worst": value, "at": where}}} from the maps' -s output
    out = {}
    for line in text.splitlines():
        m = MAP_LINE.match(line.strip())
        if m:
            out.setdefault(m[1], {})[m[2]] = {"worst": float(m[3]), "at": m[4]}
    return out


def slow_maps(root: str) -> dict:
    # the -m slow zero and accuracy maps: each stratum's worst error over its bound
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-m", "slow", "-p", "no:cacheprovider", *MAPS],
                         cwd=root, env=corpus.env("src"), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return {"returncode": out.returncode, "summary": lines[-1] if lines else "", **map_worsts(out.stdout)}


def tier1(root: str) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    out = subprocess.run(cmd, cwd=root, env=corpus.env("src"), capture_output=True, text=True)
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


def pycache(root: str) -> list:
    # every __pycache__ folder under the checkout's src/
    return [os.path.join(folder, "__pycache__") for folder, dirs, _ in os.walk(os.path.join(root, "src"))
            if "__pycache__" in dirs]


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
                mine, edge = row[n]["median"], row[base].get("q3" if direction == "higher" else "q1")
                row[n]["clears_base_quartiles"] = (mine is not None and edge is not None
                                                   and (mine > edge if direction == "higher" else mine < edge))
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
    stale = [path for root in roots.values() for path in pycache(root)]
    if stale:
        print("bytecode under a checkout's src/, remove it before timing: " + ", ".join(stale), file=sys.stderr)
        return 1
    record = {
        "harness": "bench/record.py",
        "checkout_order": names,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "no_pycache_under_src": True,
        "checkouts": {},
    }
    for n, root in roots.items():
        walk = corpus.zeros_cold(root)
        record["checkouts"][n] = entry = {"commit": commit(root), "src_lines": src_lines(root),
                                          "zeros_cold_counts": walk.get("counts", walk),
                                          "zeros_cold_hash": walk.get("hash")}
        print(f"{n}: {json.dumps(entry)}", flush=True)

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

    # the slow maps in checkout order, then tier-1 twice each, in the order A B B A
    after = {n: {"slow_maps": slow_maps(root), "tier1": []} for n, root in roots.items()}
    for n in names + names[::-1]:
        after[n]["tier1"].append(tier1(roots[n]))
    for n in names:
        print(f"{n}: {json.dumps(after[n])}", flush=True)
        record["checkouts"][n].update(after[n], runs=runs[n])
    record["summary"] = summarise(names, runs, directions())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
