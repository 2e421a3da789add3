"""Record one BENCH file: the benchmark, zero-search counts, tier-1 time and size, per checkout.

    python3 bench/record.py --checkout parent=../parent --checkout change=. \\
        --workloads zeros-cold eval-small-x --seeds 1 2 3 --seconds 20 --out BENCH_16.json

Each --checkout NAME=PATH names the root of a checkout.  For every workload
and seed, `perfbench/run.py --trace 0` runs once in each checkout, from its
root, and the last stdout line, one JSON object, is kept.  The checkouts
alternate which runs first from one seed to the next.  For each checkout the
file also holds:

- zero-search counts on the zeros-cold mix, in process: phase passes (calls
  of the phase from `zeros._target`) and `zeros._cyl` calls per zero, over
  the first REQUESTS = 300 requests of perfbench's `ZerosCold` at seed 1,
  fixed so that the counts compare from one BENCH file to the next;
- L0 µs per call of `cylinder` and of `cylinder_and_prime` in each regime
  that perfbench's `tracing.regime` names, over the eval-small-x and
  eval-large-x pools at seed 1;
- the ms of one iff cell (`verify_theorem3` on the theorem3 jobs) and of one
  scan cell (`breakdown_scan`'s time over its cells, on the sweep jobs) of
  the first CELL_CYCLES = 4 cycles of verify-jobs at seed 1, the zero cache
  cleared before each call; the L0 and cell timings are each the fastest of
  TIMING_PASSES = 5 passes, a fresh process each, with the checkouts taking
  turns from one pass to the next, so that a slow spell of the machine falls
  on both;
- the wall time of `python -m cylfn.cli verify all` as a fresh process,
  the minimum of VERIFY_ALL_RUNS = 5 runs, with its exit status;
- the tier-1 wall time and pytest's summary line;
- the `src/` line count (all lines of `src/**/*.py`).

With two or more checkouts, the first is the base: for each end-to-end metric
on each workload the file gives every checkout's median and quartiles, and
in how many seeds each later checkout did better than the base.  Standard
library only; run.py needs mpmath for its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

REQUESTS = 300  # zeros-cold requests counted in process
VERIFY_ALL_RUNS = 5  # `verify all` runs per checkout; the fastest is kept
TIMING_PASSES = 5  # passes of the L0 and cell timings per checkout; the fastest is kept
CELL_CYCLES = 4  # verify-jobs cycles whose theorem3 and sweep jobs are timed in process
BETTER = {"setup_s": "lower", "ops_per_s": "higher", "op_p50_ms": "lower", "op_tail_ms": "lower"}

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
found = sum(len(zeros.find_zeros(*next(ops))) for _ in range(int(sys.argv[2])))
print(json.dumps({"requests": int(sys.argv[2]), "zeros": found,
                  "phase_passes_per_zero": counts["passes"] / found,
                  "cyl_calls_per_zero": counts["cyl"] / found}))
"""

TIMING_CODE = """\
import json, random, sys, time, types
root, cycles = sys.argv[1], int(sys.argv[2])
sys.path[:0] = [root + "/perfbench", root + "/src", root + "/tests"]
import itertools, tracing, workloads
from cylfn import special_fn, zeros
from cylfn.cli import build_parser
from cylfn.theorems import Family, breakdown_scan, verify_theorem3

def per_call(calls, fn):
    # seconds per call of fn over calls, the zero cache cleared before each
    total = 0.0
    for args in calls:
        zeros._find_zeros_cached.cache_clear()
        t0 = time.perf_counter()
        fn(*args)
        total += time.perf_counter() - t0
    return total / len(calls)

l0 = {}
for name in ("eval-small-x", "eval-large-x"):
    for pair, spec, x in workloads.make(name, random.Random(name + ":1"), None).pool:
        fn = "cylinder_and_prime" if pair else "cylinder"
        l0.setdefault(fn, {}).setdefault(tracing.regime(spec.nu, spec.delta, x), []).append((spec, x))
l0_us = {fn: {r: {"us": round(1e6 * per_call(calls, getattr(special_fn, fn)), 3), "calls": len(calls)}
              for r, calls in sorted(regimes.items())} for fn, regimes in l0.items()}
jobs = workloads.VerifyJobs(random.Random("verify-jobs:1"), types.SimpleNamespace(nproc=1)).ops()
parser, iff, scan = build_parser(), [], []
for key, argv, _ in itertools.islice(jobs, cycles * len(workloads._CYCLE)):
    a = parser.parse_args(argv)
    if key == "verify.theorem3":
        iff.append((a.nu, a.mu, Family(a.family), a.delta, a.n))
    elif key == "sweep":
        scan.append((Family(a.family), a.nu, [float(g) for g in a.gaps.split(",")], a.delta, a.n))
cells = sum(len(s[2]) for s in scan)
print(json.dumps({"l0_us": l0_us, "cells": {
    "iff_cell_ms": round(1e3 * per_call(iff, verify_theorem3), 3), "iff_cells": len(iff),
    "scan_cell_ms": round(1e3 * per_call(scan, breakdown_scan) * len(scan) / cells, 3), "scan_cells": cells}}))
"""


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench_run(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode:
        return {"returncode": out.returncode, "stderr": out.stderr[-2000:]}
    return _last_json(out.stdout)


def zero_counts(root: str) -> dict:
    out = subprocess.run([sys.executable, "-c", COUNT_CODE, os.path.abspath(root), str(REQUESTS)],
                         capture_output=True, text=True, check=True)
    return _last_json(out.stdout)


def timing_pass(root: str) -> dict:
    out = subprocess.run([sys.executable, "-c", TIMING_CODE, os.path.abspath(root), str(CELL_CYCLES)],
                         capture_output=True, text=True, check=True)
    return _last_json(out.stdout)


def keep_min(best: dict, new: dict) -> None:
    # best holds, key by key, the smallest number seen; counts are the same in every pass
    for key, value in new.items():
        if isinstance(value, dict):
            keep_min(best.setdefault(key, {}), value)
        else:
            best[key] = min(best.get(key, value), value)


def _src_env() -> dict:
    # the checkout's own package first, for a process started from its root
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))


def verify_all(root: str) -> dict:
    walls, code = [], 0
    for _ in range(VERIFY_ALL_RUNS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "cylfn.cli", "verify", "all"], cwd=root, env=_src_env(),
                             capture_output=True)
        walls.append(time.perf_counter() - t0)
        code = code or out.returncode
    return {"min_s": round(min(walls), 4), "runs": VERIFY_ALL_RUNS, "returncode": code}


def tier1(root: str) -> dict:
    env = _src_env()
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"], cwd=root, env=env, capture_output=True, text=True)
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


def summarise(names: list, runs: dict) -> dict:
    # runs[name][workload] = [run per seed, in seed order]
    base = names[0]
    out = {}
    for workload in runs[base]:
        rows = {}
        for metric, better in BETTER.items():
            per = {n: [r["metrics"][metric]["value"] if "metrics" in r else None
                       for r in runs[n][workload]] for n in names}
            row = {n: quartiles([v for v in vals if v is not None]) for n, vals in per.items()}
            for n in names[1:]:
                pairs = [(a, b) for a, b in zip(per[base], per[n]) if a is not None and b is not None]
                wins = sum((b > a) if better == "higher" else (b < a) for a, b in pairs)
                row[n]["better_than_" + base] = f"{wins} of {len(pairs)}"
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

    runs = {n: {w: [] for w in args.workloads} for n in names}
    for i, seed in enumerate(args.seeds):
        order = names if i % 2 == 0 else names[::-1]
        for workload in args.workloads:
            for n in order:
                run = bench_run(roots[n], workload, seed, args.seconds)
                run["seed"] = seed
                runs[n][workload].append(run)
                print(f"{workload} seed {seed} {n}: {json.dumps(run.get('metrics', run))}", flush=True)

    timing = {n: {} for n in names}
    for i in range(TIMING_PASSES):
        for n in names if i % 2 == 0 else names[::-1]:
            keep_min(timing[n], timing_pass(roots[n]))

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
            **timing[n],
            "verify_all": verify_all(root),
            "tier1": tier1(root),
            "runs": runs[n],
        }
        print(f"{n}: {json.dumps({k: v for k, v in record['checkouts'][n].items() if k != 'runs'})}", flush=True)
    record["summary"] = summarise(names, runs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
