"""cylfn benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  cylfn is imported from the checkout's
src/ (never from an installed copy) and outputs are checked against
tests/oracle.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the loop runs untraced for half the
time, then replays the same ops with layer spans on, and the metrics are the
per-layer ones.  The lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import metrics
import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")

SETUP_REPEATS = 15
PROBE_EVERY_NS = 25_000_000
PROBE_REF_NS = 100_000  # reference speed: the probe kernel takes 100 us
PROBE_RUNS = 5  # kernel runs in a probe between in-process ops
PROBE_RUNS_AFTER_PROCESS = 50  # and after a fresh process
SETUP_CODE = """\
import {module}
from cylfn.special_fn import CylinderSpec, cylinder_and_prime
spec = CylinderSpec.of(2.5, 1.0)
cylinder_and_prime(spec, 1.5)
cylinder_and_prime(spec, 35.0)
print("ready", flush=True)
"""


@dataclass
class Context:
    root: str
    bench: str
    python: str
    env: dict
    nproc: int
    workdir: str


@dataclass
class Phase:
    """Ops run back to back: their inputs, outputs and start/end clocks."""

    ops: list
    outs: list
    starts: list
    ends: list
    probes: list  # (clock, ns): speed probes taken between ops

    @property
    def wall_ns(self) -> int:
        return self.ends[-1] - self.starts[0]

    @property
    def busy_ns(self) -> int:
        return sum(t1 - t0 for t0, t1 in zip(self.starts, self.ends))

    def scaled(self) -> list:
        """Each op's latency in ns at the reference speed (see probe()).

        An op is scaled by the mean of the probes just before and just after
        it, so a phase's figures do not follow the host's speed swings.
        """
        # probes are taken between ops, one always after the last: the first
        # probe after an op's start is also the first after its end
        out, j, probes = [], 0, self.probes
        for t0, t1 in zip(self.starts, self.ends):
            while probes[j + 1][0] <= t0:
                j += 1
            out.append((t1 - t0) * PROBE_REF_NS / ((probes[j][1] + probes[j + 1][1]) / 2.0))
        return out


def _freeze_heap():
    # The harness's own objects (inputs, outputs so far, mpmath, the oracle)
    # go to the permanent generation, so that the collections in a timed
    # loop scan only what the library allocates there.
    gc.collect()
    gc.freeze()


def _probe_kernel():
    # compensated summation, the shape of the library's double-double loops
    hi = lo = 0.0
    for k in range(1, 600):
        x = 1.0 / k
        s = hi + x
        b = s - hi
        lo += (hi - (s - b)) + (x - b)
        hi = s
    return hi + lo


def probe(runs: int) -> tuple:
    """(clock, ns): the median of `runs` timings of a fixed pure-Python kernel.

    The host's CPU speed swings by a third within seconds.  The kernel does
    not touch cylfn, so its time tracks only the machine; ops are scaled to
    the speed at which it takes PROBE_REF_NS.  Between in-process ops a short
    probe suffices.  After a fresh process the CPU has sat idle, and a short
    burst runs faster than the sustained load did, so a long probe is taken.
    """
    clock = time.perf_counter_ns
    ts = []
    for _ in range(runs):
        t0 = clock()
        _probe_kernel()
        ts.append(clock() - t0)
    return clock(), statistics.median(ts)


@contextlib.contextmanager
def pinned(pin: bool):
    """Keep this process on one CPU inside the block.  Each CPU's speed
    swings on its own, so an in-process op and the probes that scale it
    must run on the same one; CLI jobs start processes that may run on any."""
    home = os.sched_getaffinity(0)
    if pin:
        os.sched_setaffinity(0, {max(home)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


def closed_loop(ops, run, seconds: float, block: int, min_ops: int, probe_runs: int) -> Phase:
    """Send each op when the previous one returns, for `seconds` and at least
    min_ops, then on to the end of the block in flight: a phase holds whole
    blocks, so its mix does not hang on where in a block the deadline fell."""
    _freeze_heap()
    phase = Phase([], [], [], [], [probe(probe_runs)])
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    next_probe = phase.probes[0][0] + PROBE_EVERY_NS
    for op in ops:
        t0 = clock()
        try:
            out = run(op)
        except Exception as exc:  # counted as a failed op
            out = exc
        t1 = clock()
        phase.ops.append(op)
        phase.outs.append(out)
        phase.starts.append(t0)
        phase.ends.append(t1)
        if t1 >= next_probe:
            phase.probes.append(probe(probe_runs))
            next_probe = phase.probes[-1][0] + PROBE_EVERY_NS
        if t1 >= deadline and len(phase.ops) >= min_ops and len(phase.ops) % block == 0:
            break
    phase.probes.append(probe(probe_runs))
    return phase


def replay(ops, run, tracer) -> Phase:
    """Run the same ops again, tagging each op's spans with its index."""
    _freeze_heap()
    phase = Phase([], [], [], [], [])
    clock = time.perf_counter_ns
    for k, op in enumerate(ops):
        tracer.op = k
        t0 = clock()
        try:
            out = run(op)
        except Exception as exc:
            out = exc
        phase.ops.append(op)
        phase.outs.append(out)
        phase.starts.append(t0)
        phase.ends.append(clock())
    return phase


def throughput(phase: Phase, lat: list, block: int):
    """(ops_per_s, op_p50_ms, windows) from per-op latencies `lat` in ns.

    The ops are cut into windows of whole blocks, each at least a second of
    latency, so every window holds the same mix.  ops_per_s is the median of
    the windows' rates (ops over summed latency) and op_p50_ms the median of
    all latencies.
    """
    n_blocks = len(lat) // block
    block_ns = sum(lat[: n_blocks * block]) / n_blocks
    per = max(1, min(n_blocks, math.ceil(1e9 / block_ns)))
    size = per * block
    rates = [size / (sum(lat[w : w + size]) / 1e9) for w in range(0, n_blocks // per * size, size)]
    return statistics.median(rates), statistics.median(lat) / 1e6, len(rates)


def tail(phase: Phase, lat: list, cycled: bool, min_samples: int):
    """(ms, percentile, samples): latency at the highest percentile that has
    ten samples beyond it in a run of min_samples, between p50 and p99.9.
    Every run holds at least that many, so the percentile is the same in
    every run of a workload.

    A sample is one distinct input.  When the workload cycles a pool of
    inputs, an input's latency is the median over its repeats, so the tail
    ranks the slowest inputs rather than the moments the machine stalled.
    """
    if cycled:
        by_input = {}
        for op, ns in zip(phase.ops, lat):
            by_input.setdefault(op, []).append(ns)
        xs = sorted(statistics.median(v) for v in by_input.values())
    else:
        xs = sorted(lat)
    p = min(max(1.0 - 10.0 / min_samples, 0.5), 0.999)
    rank = max(math.ceil(p * len(xs) - 1e-9), 1)
    return xs[rank - 1] / 1e6, 100.0 * p, len(xs)


def measure_setup(ctx: Context, module: str) -> float:
    """Median time from starting a fresh interpreter until it has imported
    `module` and made its first evaluations, each start scaled to the
    reference speed by the probes taken just before and after it."""
    code = SETUP_CODE.format(module=module)
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe(PROBE_RUNS_AFTER_PROCESS)[1]
        t0 = time.perf_counter()
        with subprocess.Popen(
            [ctx.python, "-c", code], cwd=ctx.root, env=ctx.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        ) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            p.stdout.read()
        if line.strip() != "ready" or p.returncode != 0:
            raise RuntimeError(f"set-up run for {module} failed")
        after = probe(PROBE_RUNS_AFTER_PROCESS)[1]
        times.append(elapsed * PROBE_REF_NS / ((before + after) / 2.0))
    return statistics.median(times)


def context() -> Context:
    if not os.path.isfile(os.path.join(SRC, "cylfn", "__init__.py")):
        raise SystemExit(f"perfbench: no cylfn sources under {SRC}; run from a checkout")
    if not os.path.isfile(os.path.join(TESTS, "oracle.py")):
        raise SystemExit(f"perfbench: no reference implementation at {TESTS}/oracle.py")
    sys.path[:0] = [SRC, TESTS]
    import cylfn

    if os.path.dirname(os.path.dirname(os.path.abspath(cylfn.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported cylfn from {cylfn.__file__}, not {SRC}")
    env = dict(os.environ, PYTHONPATH=SRC)
    workdir = os.path.join(BENCH, ".work")
    return Context(ROOT, BENCH, sys.executable, env, len(os.sched_getaffinity(0)), workdir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    ctx = context()
    if args.workload not in metrics.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(metrics.WORKLOADS)}")
    import checks
    import workloads

    wl = workloads.make(args.workload, random.Random(f"{args.workload}:{args.seed}"), ctx)
    check_rng = random.Random(f"check:{args.workload}:{args.seed}")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": ctx.nproc, "python": platform.python_version(),
        "loop": "closed, one client", "why": wl.why, "mix": wl.mix,
    }))

    probe_runs = PROBE_RUNS if wl.in_process else PROBE_RUNS_AFTER_PROCESS
    if not args.trace:
        setup_s = measure_setup(ctx, wl.setup_module)
        with pinned(wl.in_process):
            phase = closed_loop(wl.ops(), wl.run, args.seconds, wl.block, wl.min_ops, probe_runs)
        failed = len(wl.check(phase.ops, phase.outs, check_rng))
        lat = phase.scaled()
        tail_ms, tail_p, distinct = tail(phase, lat, wl.cycled, wl.min_ops)
        ops_per_s, op_p50_ms, windows = throughput(phase, lat, wl.block)
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_p50_ms": op_p50_ms,
            "op_tail_ms": tail_ms,
        }
        attempted = len(phase.ops)
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        raw = [t1 - t0 for t0, t1 in zip(phase.starts, phase.ends)]
        raw_rate, raw_p50, _ = throughput(phase, raw, wl.block)
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
            "ops_per_s": f"median of {windows} windows; unscaled {raw_rate:.6g}",
            "op_p50_ms": f"median of {attempted} ops; unscaled {raw_p50:.6g}",
            "op_tail_ms": f"p{tail_p:.4g} of {distinct} distinct inputs"
            + (f", each the median of its repeats in {attempted} ops" if wl.cycled else ""),
        }
        speeds = sorted(ns for _, ns in phase.probes)
        print(f"  probe: {len(speeds)} probes, median {speeds[len(speeds) // 2] / 1e3:.4g} us, "
              f"range {speeds[0] / 1e3:.4g}-{speeds[-1] / 1e3:.4g} us, reference {PROBE_REF_NS / 1e3:g} us")
        for name, value in values.items():
            print(f"  {name:<12} {value:>14.6g} {units[name]:<5} {notes.get(name, '')}")
        print(f"  {'failed_ratio':<12} {failed / attempted:>14.6g} ratio {failed} of {attempted}")
    else:
        with pinned(wl.in_process):
            phase = closed_loop(wl.ops(), wl.run, args.seconds / 2.0, wl.block, wl.block, probe_runs)
            tracer = tracing.Tracer()
            wl.trace(tracing.install(tracer), tracer)
            traced = replay(phase.ops, wl.run, tracer)
        bad = wl.check(phase.ops, phase.outs, check_rng)
        same = getattr(wl, "same_output", lambda a, b: a == b)
        bad |= {k for k, (a, b) in enumerate(zip(phase.outs, traced.outs)) if not same(a, b)}
        values = tracing.layer_metrics(tracer.spans, traced.wall_ns)
        if hasattr(wl, "cli_metrics"):
            values.update(wl.cli_metrics(traced, tracer.spans))
        else:  # in-process workloads start no CLI job
            values.update({name: 0 for name, *_ in metrics.PER_LAYER if name.startswith("cli.")})
        ratios = checks.l0_err_ratios(tracer.spans, check_rng)
        values["special_fn.err_ratio_max.series"] = ratios["series"]
        values["special_fn.err_ratio_max.large"] = ratios["large"]
        values["trace.overhead_ratio"] = traced.busy_ns / phase.busy_ns
        failed = len(bad) + sum(1 for r in ratios.values() if r > 1.0)
        attempted = len(phase.ops) + len(traced.ops)
        for name, unit, _, moves in metrics.PER_LAYER:
            print(f"  {name:<34} {values[name]:>14.6g} {unit:<5} {moves}")
        units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
        values = {name: values[name] for name in units}
        print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio {failed} of {attempted}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
