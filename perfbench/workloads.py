"""The four workloads: seeded inputs, one op, and the checks of its outputs.

Every workload is a closed loop with one client: the next op is sent when
the previous one returns.  Inputs come in stratified blocks, so any run that
completes whole blocks has the same mix whatever the seed; a timed run
completes whole blocks and at least `min_ops` ops.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess

import checks
import tracing
from cylfn.special_fn import CylinderSpec, EvalKind, cylinder, cylinder_and_prime
from cylfn.zeros import find_zeros

HALF_PI = math.pi / 2.0


def _strata(rng, k):
    """k uniform draws in [0, 1), one from each of k equal strata, shuffled."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return u


class Eval:
    """`cylinder` and `cylinder_and_prime` calls at x in (x_lo, x_hi]."""

    setup_module = "cylfn.special_fn"
    in_process = True
    cycled = True  # ops repeat the pool's inputs
    block = 24  # 4 order kinds x 3 angle kinds x 2 call kinds
    pool_blocks = 200  # the loop cycles through this many blocks
    check_samples = 12

    def __init__(self, why, x_lo, x_hi, rng):
        self.why = why
        self.mix = (
            f"x uniform in ({x_lo:g}, {x_hi:g}]; orders 1/4 integer in 0..30, 3/4 real in "
            "[0, 30]; delta 1/3 each 0 (J), pi/2 (Y), uniform in [0, pi) (mixed); "
            "1/2 cylinder, 1/2 cylinder_and_prime; a Latin-hypercube pool of "
            f"{self.block * self.pool_blocks} calls, cycled"
        )
        # Latin hypercube: in each of the 24 cells the B draws of x, of the
        # order and of a mixed angle each take one of B equal strata, so the
        # pool's cost distribution, tail included, barely moves with the seed
        cells = list(itertools.product(("int", "real", "real", "real"), ("j", "y", "mixed"), (False, True)))
        B = self.pool_blocks
        draws = {(c, axis): _strata(rng, B) for c in range(len(cells)) for axis in ("x", "nu", "delta")}
        self.pool = []
        for b in range(B):
            order = list(range(len(cells)))
            rng.shuffle(order)
            for c in order:
                kind, angle, pair = cells[c]
                u_nu = draws[c, "nu"][b]
                nu = float(min(int(31 * u_nu), 30)) if kind == "int" else 30.0 * u_nu
                delta = {"j": 0.0, "y": HALF_PI, "mixed": math.pi * draws[c, "delta"][b]}[angle]
                x = x_hi - (x_hi - x_lo) * draws[c, "x"][b]
                self.pool.append((pair, CylinderSpec.of(nu, delta), x))
        self.min_ops = len(self.pool)  # every run covers the whole pool
        self._fns = {False: cylinder, True: cylinder_and_prime}

    def ops(self):
        return itertools.cycle(range(len(self.pool)))

    def run(self, i):
        pair, spec, x = self.pool[i]
        return self._fns[pair](spec, x)

    def trace(self, wrappers, tracer):
        self._fns = {False: wrappers["special_fn.c"], True: wrappers["special_fn.pair"]}

    def check(self, ops, outs, rng):
        """Failed positions: errors, repeats that differ, sampled contract misses."""
        first = {}
        failed = set()
        for k, (i, out) in enumerate(zip(ops, outs)):
            if isinstance(out, Exception) or first.setdefault(i, out) != out:
                failed.add(k)
        ok = [i for i in first if not isinstance(first[i], Exception)]
        for i in rng.sample(ok, min(self.check_samples, len(ok))):
            pair, spec, x = self.pool[i]
            if checks.l0_ratio(spec.nu, spec.delta, x, pair, first[i]) > 1.0:
                failed.update(k for k, j in enumerate(ops) if j == i)
        return failed


class ZerosCold:
    """`find_zeros` requests that never repeat, so the zero cache never answers."""

    setup_module = "cylfn.zeros"
    in_process = True
    cycled = False
    why = (
        "zero search itself (pi/8 scan, Newton, ~16 L0 calls per zero) with the cache "
        "bypassed; the no-change control for any cache change"
    )
    n_set = (2, 6, 20, 50, 110)  # 110 zeros fit the box x <= 400 at every order
    combos = tuple(itertools.product(("j", "y", "mixed"), (EvalKind.FUNCTION, EvalKind.DERIVATIVE)))
    block = len(n_set) * len(combos)
    group = 4  # blocks per Latin-hypercube group
    min_ops = group * block  # every run holds at least one whole group
    check_samples = 5
    mix = (
        "orders real uniform in [0, 30] and delta 1/3 each 0, pi/2, uniform in [0, pi); "
        "kind 1/2 function, 1/2 derivative; n from {2, 6, 20, 50, 110}; every (n, angle, "
        "kind) once per block of 30, interleaved; each cell's order and mixed angle from "
        "each quarter of their range once per 4 blocks; no request repeats"
    )

    def __init__(self, rng):
        self.rng = rng
        self._find = find_zeros

    def ops(self):
        seen = set()
        while True:
            # Latin hypercube over a group of blocks: within the group each
            # (n, angle, kind) cell draws its order, and its mixed angle, from
            # every one of `group` strata once, so the cost of each cell, and
            # with it the median and the tail, barely moves with the seed
            nu_strata = [_strata(self.rng, self.group) for _ in range(self.block)]
            delta_strata = [_strata(self.rng, self.group) for _ in range(self.block)]
            for b in range(self.group):
                n_set = list(self.n_set)
                combos = list(self.combos)
                self.rng.shuffle(n_set)
                self.rng.shuffle(combos)
                # op r pairs n_set[r % 5] with combos[r % 6]: every window of
                # five ops has each n, every window of six each (angle, kind)
                for r in range(self.block):
                    angle, kind = combos[r % len(combos)]
                    n = n_set[r % len(n_set)]
                    cell = self.n_set.index(n) * len(combos) + self.combos.index((angle, kind))
                    nu, u_delta = 30.0 * nu_strata[cell][b], delta_strata[cell][b]
                    while True:
                        delta = {"j": 0.0, "y": HALF_PI, "mixed": math.pi * u_delta}[angle]
                        spec = CylinderSpec.of(nu, delta)
                        if (spec, kind, n) not in seen:
                            break
                        nu, u_delta = 30.0 * self.rng.random(), self.rng.random()
                    seen.add((spec, kind, n))
                    yield spec, kind, n

    def run(self, op):
        return self._find(*op).zeros

    def trace(self, wrappers, tracer):
        from cylfn import zeros

        zeros._find_zeros_cached.cache_clear()  # the replay must not hit the first pass
        self._find = wrappers["zeros.find_zeros"]

    def check(self, ops, outs, rng):
        failed = set()
        for k, ((spec, kind, n), out) in enumerate(zip(ops, outs)):
            if isinstance(out, Exception) or len(out) != n or out[0] <= 0.0:
                failed.add(k)
            elif any(b <= a for a, b in zip(out, out[1:])):
                failed.add(k)
        ok = [k for k in range(len(ops)) if k not in failed]
        for k in rng.sample(ok, min(self.check_samples, len(ok))):
            spec, kind, n = ops[k]
            for s in sorted({0, rng.randrange(n)}):
                z = outs[k][s]
                if not checks.zero_certified(spec.nu, spec.delta, kind is EvalKind.DERIVATIVE, z):
                    failed.add(k)
        return failed


# Parameter sets from the acceptance criteria, whose verdicts the tests pin.
# A job's cost is set mostly by its mixing angle (a mixed angle evaluates
# both J and Y), so each slot of the cycle fixes the family and angle and
# the seed draws only orders and gaps, dealt from decks (see _deal): every
# cycle then costs about the same.
_IFF_ORDERS = (0.3, 1.0, 2.5, 7.1)
_OTHER_GAPS = (0.5, 1.0, 3.0, 5.0)
_EQUIVALENCE = ((1.0, 2.0), (0.5, 2.5), (1.0, 4.5), (2.0, 3.0))
_CYCLE = (
    ("theorem3", "cylinder", "0", 2.0),
    ("sweep", "jvsy", "0", None),
    ("theorem3", "jprime", "0", 2.1),
    ("interlace", "cylinder", "pi/4", None),
    ("zeros", None, None, None),
    ("theorem3", "cylinder", "pi/4", None),
    ("all", None, None, None),
    ("theorem3", "yprime", "0", None),
    ("equivalence", None, "0", None),
    ("sweep", "cylinder", "0", None),
    ("theorem3", "cylinder", "pi/2", None),
    ("chain", None, None, None),
)


class VerifyJobs:
    """cylfn CLI jobs, each a fresh `python -m cylfn.cli` process."""

    setup_module = "cylfn.cli"
    in_process = False  # each job is a fresh process
    cycled = False
    why = (
        "the only workload that runs theorems, interlace, wronskian, CLI start-up, JSON "
        "output and the sweep process pool, and where the zero cache is reused in a job"
    )
    block = len(_CYCLE)
    min_ops = 3 * block  # so that op_tail_ms is p72 in every run
    mix = (
        "a fixed cycle of 12 jobs: verify theorem3 --n 40 x5 (one per family and angle of "
        "the iff grid; gaps 2.0, 2.1 and three of 0.5, 1.0, 3.0, 5.0), sweep jvsy and "
        "cylinder --n 20, verify chain --n 15, verify equivalence --n 15, interlace --n 25, "
        "zeros --n 100, verify all; the seed deals orders and gaps to each slot from a "
        "shuffled deck, so a slot takes each value once per deck; --threads nproc on "
        "verify and sweep"
    )
    timeout_s = 60.0

    def __init__(self, rng, ctx):
        self.rng = rng
        self.ctx = ctx
        self.nproc = str(ctx.nproc)
        self._tracer = None
        self._decks = {}

    def _deal(self, key, values):
        """The next card of a shuffled deck of `values` kept per key.  A slot
        of the cycle draws each value once in len(values) cycles, so the
        cost of a run's few cycles barely moves with the seed."""
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def _job(self, r, slot):
        kind, family, delta, gap = slot
        rng, threads = self.rng, ["--threads", self.nproc]
        nu = self._deal((r, "nu"), _IFF_ORDERS)
        if kind == "theorem3":
            mu = nu + (gap if gap is not None else self._deal((r, "gap"), _OTHER_GAPS))
            argv = ["verify", "theorem3", "--nu", repr(nu), "--mu", repr(mu),
                    "--family", family, "--delta", delta, "--n", "40", *threads]
            return "verify.theorem3", argv, None
        if kind == "sweep":
            # interlaced iff the gap is at most 2 (cylinder) or 1 (jvsy)
            gaps, limit = ("0.5,0.8,1.5,2.5", 1.0) if family == "jvsy" else ("0.5,1.5,3.0", 2.0)
            argv = ["sweep", "--family", family, "--nu", repr(nu), "--delta", delta,
                    "--gaps", gaps, "--n", "20", "--format", "json", *threads]
            return "sweep", argv, limit
        if kind == "interlace":
            gap = self._deal((r, "gap"), _OTHER_GAPS)
            argv = ["interlace", "--nu", repr(nu), "--mu", repr(nu + gap), "--delta", delta,
                    "--delta-bar", delta, "--n", "25"]
            return "interlace", argv, gap <= 2.0
        if kind == "zeros":
            nu = 30.0 * self._deal((r, "nu.zeros"), _strata(rng, 4))
            delta = math.pi * self._deal((r, "delta"), _strata(rng, 4))
            argv = ["zeros", "--nu", repr(nu), "--delta", repr(delta), "--n", "100"]
            return "zeros", argv, (nu, delta, sorted({0, rng.randrange(100)}))
        if kind == "all":
            return "verify.all", ["verify", "all", *threads], None
        if kind == "equivalence":
            nu, mu = self._deal((r, "pair"), _EQUIVALENCE)
            argv = ["verify", "equivalence", "--nu", repr(nu), "--delta", delta, "--mu", repr(mu),
                    "--delta-bar", delta, "--n", "15", *threads]
            return "verify.equivalence", argv, None
        if kind == "chain":
            argv = ["verify", "chain", "--nu", repr(self._deal((r, "nu.chain"), (0.0, 0.3, 1.0, 3.7))),
                    "--c", self._deal((r, "c"), ("0.5", "1.0")), "--n", "15", *threads]
            return "verify.chain", argv, None
        raise ValueError(kind)

    def ops(self):
        for r, slot in itertools.cycle(enumerate(_CYCLE)):
            yield self._job(r, slot)

    def run(self, op):
        if self._tracer is None:
            cmd = [self.ctx.python, "-m", "cylfn.cli", *op[1]]
        else:
            spans_file = os.path.join(self.ctx.workdir, f"spans-{os.getpid()}.json")
            cmd = [self.ctx.python, os.path.join(self.ctx.bench, "trace_cli.py"), spans_file, *op[1]]
        p = subprocess.run(
            cmd, cwd=self.ctx.root, env=self.ctx.env, capture_output=True, text=True,
            timeout=self.timeout_s,
        )
        if self._tracer is not None:
            with open(spans_file) as fh:
                tracing.merge(self._tracer.spans, json.load(fh), self._tracer.op)
            os.remove(spans_file)
        return p.returncode, p.stdout, p.stderr

    @staticmethod
    def same_output(a, b):
        """Identical argv must give the same status and byte-identical stdout."""
        return not isinstance(a, Exception) and not isinstance(b, Exception) and a[:2] == b[:2]

    def trace(self, wrappers, tracer):
        os.makedirs(self.ctx.workdir, exist_ok=True)
        self._tracer = tracer

    def check(self, ops, outs, rng):
        failed = set()
        for k, (op, out) in enumerate(zip(ops, outs)):
            try:
                ok = not isinstance(out, Exception) and out[0] == 0 and self._verdict_ok(op, out[1])
            except (ValueError, KeyError, TypeError):  # a missing or malformed artifact
                ok = False
            if not ok:
                failed.add(k)
        return failed

    @staticmethod
    def _verdict_ok(op, stdout):
        key, argv, expect = op
        doc = json.loads(stdout)
        if key.startswith("verify."):
            return doc["passed"] is True and all(
                r["passed"] and r["counterexample"] is None for r in doc["reports"]
            )
        if key == "interlace":
            return doc["interlaced"] is expect
        if key == "sweep":
            # cylinder: interlaced iff the gap is at most 2; jvsy (J order
            # above Y order): iff at most 1, with the first-zero proviso
            cells = [c for c in doc["cells"] if not c["excluded"]]
            return doc["consistent"] is True and len(cells) > 0 and all(
                c["interlaced"] is (abs(c["mu"] - c["nu"]) <= expect)
                and (c["sign_changes"] == 0) is c["interlaced"]
                and c["proviso"] is (True if doc["family"] == "jvsy" else None)
                for c in cells
            )
        if key == "zeros":
            nu, delta, picks = expect
            zs = doc
            if len(zs) != 100 or any(b <= a for a, b in zip(zs, zs[1:])) or zs[0] <= 0.0:
                return False
            delta = CylinderSpec.of(nu, delta).delta
            return all(checks.zero_certified(nu, delta, False, zs[s]) for s in picks)
        raise ValueError(key)

    def cli_metrics(self, traced, spans) -> dict:
        """CLI-layer numbers from the traced jobs and their cli.main spans."""
        ops, starts, ends, outs = traced.ops, traced.starts, traced.ends, traced.outs
        main = {s[4]: s for s in spans if s[0] == "cli.main"}
        child_ns = {}
        for s in spans:
            if s[3] >= 0 and spans[s[3]][0] == "cli.main":
                child_ns[s[4]] = child_ns.get(s[4], 0) + s[2] - s[1]
        wall = [e - s for s, e in zip(starts, ends)]
        startup = [main[k][1] - starts[k] for k in range(len(ops)) if k in main]
        m = {
            "cli.startup_ms": sum(startup) / len(startup) / 1e6 if startup else 0.0,
            "cli.library_share": sum(child_ns.values()) / sum(wall) if wall else 0.0,
            "cli.nonzero_exits": sum(
                1 for out in outs if isinstance(out, Exception) or out[0] != 0
            ),
        }
        for job in ("zeros", "interlace", "sweep", "verify.theorem3", "verify.chain",
                    "verify.equivalence", "verify.all"):
            w = [wall[k] for k, op in enumerate(ops) if op[0] == job]
            m[f"cli.job_ms.{job}"] = sum(w) / len(w) / 1e6 if w else 0.0
        return m


def make(name: str, rng, ctx):
    if name == "eval-small-x":
        why = (
            "the double-double series path (Y by reflection, integer-order Y by the log "
            "series) does almost all the work; none of it runs in eval-large-x"
        )
        return Eval(why, 0.0, 30.0, rng)
    if name == "eval-large-x":
        why = (
            "Miller recurrence for J and Hankel plus upward recurrence for Y do all the "
            "work, seam band 30 < x < 40 included; eval-small-x is its no-change control"
        )
        return Eval(why, 30.0, 400.0, rng)
    if name == "zeros-cold":
        return ZerosCold(rng)
    if name == "verify-jobs":
        return VerifyJobs(rng, ctx)
    raise ValueError(f"unknown workload {name!r}")
