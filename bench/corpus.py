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
needs no data edit here, only its line in CHANGES.md.

Standard library only; the hash's child process imports perfbench, which
needs mpmath.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

HASH_REQUESTS = 600

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
)

HASH_CODE = """\
import hashlib, random, sys
root = sys.argv[1]
sys.path[:0] = [root + "/perfbench", root + "/src", root + "/tests"]
from cylfn import zeros
import workloads
h = hashlib.sha256()
for seed in (1, 2):
    ops = workloads.ZerosCold(random.Random(f"zeros-cold:{seed}")).ops()
    for _ in range(int(sys.argv[2])):
        spec, kind, n = next(ops)
        seq = zeros.find_zeros(spec, kind, n)
        h.update(repr((spec, kind, n, seq.zeros, seq.refined_to)).encode())
print(h.hexdigest())
"""

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def largest_rel(a: str, b: str):
    # the largest relative difference between the numbers of a and b, read
    # in order; None when they differ in more than their numbers
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    pairs = zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b)))
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y), default=0.0)


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


def run(root: str, argv: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "cylfn.cli", *argv.split()], cwd=root, env=env,
                         capture_output=True, text=True)
    return out.returncode, out.stdout, out.stderr


def zeros_cold_hash(root: str) -> str:
    out = subprocess.run([sys.executable, "-c", HASH_CODE, os.path.abspath(root), str(HASH_REQUESTS)],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


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
    for name, root in roots.items():
        print(f"{name} zeros-cold hash {zeros_cold_hash(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
