"""Run one corpus of `cylfn` argv in two checkouts and print what differs.

    python3 bench/corpus.py --checkout parent=../parent --checkout change=.

Each --checkout NAME=PATH names the root of a checkout.  Every argv of
CORPUS runs as `python -m cylfn.cli ARGV` from each checkout's root, with its
`src/` first on PYTHONPATH.  CORPUS holds every subcommand, every verify
suite, all four sweep families in CSV and JSON, the error exits, and the edge
argv that CHANGES.md and ROADMAP.md name.

For each argv whose exit status, stdout or stderr differs between the two
checkouts, one line gives the argv, what differs, and the largest relative
difference among the numbers of the two outputs, read in order; "text" in
its place means that the outputs differ in more than their numbers.  Then
one line per checkout gives its zeros-cold hash: the sha256 of repr((spec,
kind, n, zeros, refined_to)) over the first HASH_REQUESTS requests of
perfbench's `ZerosCold` at seeds 1 and 2.  An intended artifact change
needs no data edit here, only its line in CHANGES.md.  Beside the hash
stand the phase passes per zero over seed 1's first COUNTED requests, in all
and by the index of the zero above the start (the start pass counts with the
1st), and the certified halt's tests (`zeros._cubic_bound` calls) per zero.
They come from `zeros_cold`, one child that runs this file's `count_walk`,
the one counter of the walk, on the checkout's `src/`; for bench/record.py
it also counts passes per request size n and `zeros._cyl` calls.
Its counting wrappers call through, so the hash cannot move with them.  Where
the two hashes differ, a last line sizes the change from the same two walks:
how many of the hashed zeros moved, and the largest relative move.  A child
that fails prints its exit status and the end of its stderr in the hash's
place, and the script exits 1.

Standard library only; the zeros-cold child imports perfbench, which needs
mpmath.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys

HASH_REQUESTS = 600  # requests hashed at each seed
COUNTED = 300  # requests counted at seed 1, fixed so that counts compare across BENCH files

CORPUS = (
    # eval
    "eval --nu 0 --x 2.5",
    "eval --nu 2.5 --delta pi/3 --x 45 --kind both",
    "eval --nu 30 --delta pi/2 --x 0.5 --kind derivative",
    # zeros
    "zeros --nu 0 --n 5",
    "zeros --nu 2.5 --delta pi/4 --n 20 --format csv",
    "zeros --nu 7.5 --delta pi/2 --kind derivative --n 12",
    "zeros --nu 13.5 --delta 2.9 --n 110 --format csv",
    "zeros --nu 0 --kind derivative --n 4",
    "zeros --nu 30 --n 112",
    "zeros --nu 0.3 --delta 3.1 --n 3",
    "zeros --nu 0.2 --delta 1e-3 --kind derivative --n 3",
    "zeros --nu 5 --delta 0.460552 --kind derivative --n 3",
    "zeros --nu 20 --delta 2.5 --n 3",
    # interlace
    "interlace --nu 0 --mu 2 --n 15",
    "interlace --nu 1 --mu 4.5 --n 25",
    "interlace --nu 2 --mu 3 --kind derivative --n 10",
    "interlace --nu 0 --mu 30 --n 60",
    # wronskian
    "wronskian --nu 1 --mu 2 --n 10",
    "wronskian --nu 1 --mu 2.5 --delta pi/4 --delta-bar pi/3 --x 7.5",
    # every verify suite
    "verify theorem1 --nu 2",
    "verify theorem3 --nu 1 --mu 2.5",
    "verify chain --nu 1.5 --c 0.5 --n 10",
    "verify recurrences --nu 2.5",
    "verify equivalence --nu 1 --mu 2.5 --n 20",
    "verify all",
    # all four sweep families, CSV and JSON
    "sweep --family cylinder --nu 1 --gaps 0.5,1.5,2.5 --n 10",
    "sweep --family cylinder --nu 1 --gaps 0.5,1.5,2.5 --n 10 --format json",
    "sweep --family jprime --nu 2 --gaps 0.5,1.5 --n 10",
    "sweep --family jprime --nu 2 --gaps 0.5,1.5 --n 10 --format json",
    "sweep --family yprime --nu 2 --gaps 0.5,1.5 --n 10",
    "sweep --family yprime --nu 2 --gaps 0.5,1.5 --n 10 --format json",
    "sweep --family jvsy --nu 3 --gaps 0.5,1.5 --n 10",
    "sweep --family jvsy --nu 3 --gaps 0.5,1.5 --n 10 --format json",
    # error exits
    "",
    "eval --nu 1 --x 0",
    "eval --nu 31 --x 1",
    "eval --nu nan --x 1",
    "zeros --nu 1 --n 0",
    "zeros --nu 1 --n 2.5",
    "zeros --nu 1 --delta pi/0",
    "zeros --nu 30 --n 113",
    "verify chain --c 2",
    "verify theorem1 --threads 0",
    "sweep --family cylinder --nu 50 --gaps 0",
    # n checked where the orders agree; terms below the normal range at tiny x
    "verify theorem3 --nu 1 --mu 1 --n 0",
    "sweep --family cylinder --nu 1 --gaps 0 --n -4 --format json",
    "verify recurrences --nu 1 --grid 1e-150",
    "verify recurrences --nu 5 --grid 1e-60",
    "verify recurrences --nu 0 --grid 1e-200",
    "verify recurrences --nu 29 --grid 1e-30",
    # edge argv: the theorem 3 and sweep blind spots (ROADMAP item 2)
    "verify theorem3 --nu 5 --mu 7.01 --family cylinder --delta 0.3 --n 30",
    "sweep --family cylinder --nu 4 --gaps 2.5 --n 3 --format json",
    "sweep --family jvsy --nu 10 --gaps 1.5 --n 3 --format json",
    # a first zero on the start x0 = max(nu, 1e-6), once skipped or repeated
    "zeros --nu 0.23 --delta 2.6677946479201045 --n 3",
    "zeros --nu 0.02 --delta 2.800310205168121 --n 3",
    "interlace --nu 0.23 --mu 1.5 --delta 2.6677946479201045 --delta-bar 2.6677946479201045 --n 10",
    "zeros --nu 10 --delta 3.1415926535897922 --n 2",
    "zeros --nu 1.4648661834561933e-15 --kind derivative --n 2",
    # two zeros of C' below 1e-6 that the walk misses (ROADMAP item 9)
    "zeros --nu 1e-7 --delta 1.5707925749095e-07 --kind derivative --n 2",
    # a count beyond sys.maxsize
    "zeros --nu 1 --n 10000000000000000000",
    # a shift wider than 3 (ROADMAP item 11)
    "interlace --nu 0 --mu 12 --n 60",
    "wronskian --nu 30 --mu 29.5 --delta pi/2 --delta-bar pi/2 --x 1e-5",
    # x next to a zero of J_mu, mu = nu - round(nu) < 0, once a division by zero in _jy
    "eval --nu 1.5 --x 1.5707963267948966",
    "verify recurrences --nu 0.5 --grid 1.5707963267948966",
    "wronskian --nu 1 --mu 2.5 --x 1.5707963267948966",
    # false counterexamples at order gaps below about 1e-9 (ROADMAP item 14)
    "verify theorem1 --nu 1 --a 1e-10 --b 0.5 --c 0.5 --n 10",
    "verify theorem3 --nu 1 --mu 1.0000000001 --n 5",
    "verify theorem3 --nu -0 --mu 5e-324",
    "verify equivalence --nu 1 --mu 1.0000000001 --n 5",
    "interlace --nu 1 --mu 1.0000000001 --n 5",
    "sweep --family cylinder --nu 1 --gaps 1e-10 --n 5 --format json",
)

ZEROS_COLD = "import corpus, json, sys; print(json.dumps(corpus.zeros_cold_walk(*map(int, sys.argv[1:]))))"
HERE = os.path.dirname(os.path.abspath(__file__))  # the child imports this file from here, the rest from the checkout


def count_walk(requests) -> list:
    # one (ZeroSequence, passes, cyl, halts) per (spec, kind, n) of requests,
    # walked on a cleared zero cache: passes lists the phase passes of each
    # zero above the walk's start, the start pass with the first, cyl counts
    # the request's zeros._cyl calls and halts its zeros._cubic_bound calls,
    # the certified halt's tests.  The wrappers of zeros._target, _refine,
    # _cyl and _cubic_bound call through, and are restored on return, also
    # when a request raises; a pass after the last zero above the start,
    # which would count with no zero, raises RuntimeError
    from cylfn import zeros

    target, refine, cyl, bound = zeros._target, zeros._refine, zeros._cyl, zeros._cubic_bound
    passes, calls = [0], [0, 0]  # the request's passes, the last entry the next zero's; its _cyl, _cubic_bound calls

    def counted(phase):
        def call(x):
            passes[-1] += 1
            return phase(x)

        return call

    def refined(phase, m, *args):
        out = refine(phase, m, *args)
        if m > 0:  # _origin refines at m = 0, the walk at m >= 1
            passes.append(0)
        return out

    def cyl_counted(*args, **kwargs):
        calls[0] += 1
        return cyl(*args, **kwargs)

    def bound_counted(*args):
        calls[1] += 1
        return bound(*args)

    zeros._find_zeros_cached.cache_clear()
    zeros._target, zeros._refine = lambda spec, kind: counted(target(spec, kind)), refined
    zeros._cyl, zeros._cubic_bound = cyl_counted, bound_counted
    try:
        out = []
        for spec, kind, n in requests:
            passes[:], calls[:] = [0], [0, 0]
            seq = zeros.find_zeros(spec, kind, n)
            if passes.pop():
                raise RuntimeError(f"a phase pass after the last zero of {(spec, kind, n)!r}")
            out.append((seq, passes[:], *calls))
        return out
    finally:
        zeros._target, zeros._refine, zeros._cyl, zeros._cubic_bound = target, refine, cyl, bound


def zeros_cold_walk(requests: int, counted: int) -> dict:
    # the zeros-cold child's {"hash": ..., "counts": {...}, "zeros": [...]}: the
    # first `requests` of perfbench's ZerosCold at seeds 1 and 2 hashed, and
    # their zeros in order; seed 1's first `counted` counted
    import workloads

    ops = [op for seed in (1, 2)
           for op in itertools.islice(workloads.ZerosCold(random.Random(f"zeros-cold:{seed}")).ops(), requests)]
    walks = count_walk(ops)
    h = hashlib.sha256()
    for (spec, kind, n), (seq, *_) in zip(ops, walks):
        h.update(repr((spec, kind, n, seq.zeros, seq.refined_to)).encode())
    by_n = {}  # n: [phase passes, _cyl calls, halt tests, zeros]
    by_index = {}  # the i-th zero above the start, grouped: [phase passes, zeros]
    below = 0  # zeros below the start, which take no phase pass: _origin's, and x = 0 for J'_0
    for seq, passes, cyl, halts in walks[:counted]:
        row = by_n.setdefault(len(seq), [0, 0, 0, 0])
        row[0] += sum(passes)
        row[1] += cyl
        row[2] += halts
        row[3] += len(seq)
        for i, p in enumerate(passes, 1):
            group = by_index.setdefault(str(i) if i <= 3 else "4-12" if i <= 12 else "13-", [0, 0])
            group[0] += p
            group[1] += 1
        below += len(seq) - len(passes)
    passes, calls, halts, found = map(sum, zip(*by_n.values()))
    groups = by_index.items()  # in order: a walk reaches each group through the ones before
    return {"hash": h.hexdigest(), "zeros": [z for seq, *_ in walks for z in seq.zeros], "counts": {
        "requests": counted, "zeros": found,
        "phase_passes_per_zero": passes / found, "cyl_calls_per_zero": calls / found,
        "halt_tests_per_zero": halts / found,
        "phase_passes_per_zero_by_n": {n: p / z for n, (p, _, _, z) in sorted(by_n.items())},
        "phase_passes_per_zero_by_index": {g: p / z for g, (p, z) in groups},
        "zeros_by_index": {**{g: z for g, (_, z) in groups}, "below the start": below}}}


NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def moved(a, b) -> tuple:
    # (how many numbers differ, the largest relative difference) between two
    # sequences of numbers, taken in order
    rel = [abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y]
    return len(rel), max(rel, default=0.0)


def largest_rel(a: str, b: str):
    # the largest relative difference between the numbers of a and b, read
    # in order; None when they differ in more than their numbers
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    return moved(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b)))[1]


def compare(a: tuple, b: tuple):
    # a, b: (exit status, stdout, stderr) of one argv in two checkouts; None when identical
    parts = [name for name, x, y in zip(("status", "stdout", "stderr"), a, b) if x != y]
    if not parts:
        return None
    return {"differs": parts, "largest_rel": largest_rel(f"{a[0]}\n{a[1]}\n{a[2]}", f"{b[0]}\n{b[1]}\n{b[2]}")}


def describe(argv: str, diff: dict) -> str:
    rel = diff["largest_rel"]
    size = "text" if rel is None else f"largest relative difference {rel:.3g}"
    return f"cylfn {argv}: {', '.join(diff['differs'])} differ; {size}"


def env(*folders: str) -> dict:
    # the environment of a child started from a checkout's root: those folders first on PYTHONPATH
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [*folders, os.environ.get("PYTHONPATH")])))


def run(root: str, argv: str) -> tuple:
    out = subprocess.run([sys.executable, "-m", "cylfn.cli", *argv.split()], cwd=root, env=env("src"),
                         capture_output=True, text=True)
    return out.returncode, out.stdout, out.stderr


def last_json(cmd: list, root: str, **kwargs) -> dict:
    # the last stdout line of cmd, started from root, as JSON; a failure keeps
    # its exit status and the end of its stderr instead
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, **kwargs)
    if out.returncode:
        return {"returncode": out.returncode, "stderr": out.stderr[-2000:]}
    return json.loads(out.stdout.strip().splitlines()[-1])


def zeros_cold(root: str, requests: int = HASH_REQUESTS, counted: int = COUNTED) -> dict:
    # {"hash": ..., "counts": {...}, "zeros": [...]} from the checkout's own files
    return last_json([sys.executable, "-c", ZEROS_COLD, str(requests), str(counted)], root,
                     env=env("perfbench", "src", "tests", HERE))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="NAME=PATH")
    args = ap.parse_args(argv)
    roots = dict(spec.split("=", 1) for spec in args.checkout)
    if len(roots) != 2:
        ap.error("give exactly two --checkout NAME=PATH")
    (na, ra), (nb, rb) = roots.items()
    differ = 0
    for line in CORPUS:
        diff = compare(run(ra, line), run(rb, line))
        if diff:
            differ += 1
            print(describe(line, diff), flush=True)
    print(f"{differ} of {len(CORPUS)} argv differ between {na} and {nb}")
    walks = {name: zeros_cold(root) for name, root in roots.items()}
    for name, walk in walks.items():
        line = f"{name} zeros-cold hash {walk.get('hash', walk)}"
        if "counts" in walk:
            counts = walk["counts"]
            by_index = ", ".join(f"{g}: {p:.3f}" for g, p in counts["phase_passes_per_zero_by_index"].items())
            line += f"; phase passes per zero {counts['phase_passes_per_zero']:.4f} ({by_index})"
            line += f", halt tests per zero {counts['halt_tests_per_zero']:.4f}"
        print(line)
    a, b = walks.values()
    if "hash" in a and "hash" in b and a["hash"] != b["hash"]:
        count, rel = moved(a["zeros"], b["zeros"])
        print(f"zeros-cold hashes differ: {count} of {len(a['zeros'])} zeros moved, "
              f"the largest by {rel:.3g} relative")
    return int(any("hash" not in walk for walk in walks.values()))


if __name__ == "__main__":
    sys.exit(main())
