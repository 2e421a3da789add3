"""Command-line front end.

Subcommands: eval, zeros, interlace, wronskian, verify, sweep.  Artifacts go
to stdout or --out; all diagnostics go to stderr.  Exit statuses: 0 success,
1 usage error, 2 computation error, 3 verification suite failed.

Artifacts are deterministic: numbers are serialized with 17 significant
digits and fixed field order, so identical argv yields identical bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from .interlace import check_interlaced, detect_shifted, verify_chain
from .special_fn import (
    CylinderSpec,
    EvalKind,
    cylinder,
    cylinder_and_prime,
)
from .theorems import (
    Family,
    breakdown_scan,
    verify_recurrences,
    verify_theorem1,
    verify_theorem3,
    verify_transitivity,
)
from .wronskian import (
    check_derivative_identity,
    interlace_wronskian_equivalence,
    wronskian_profile,
    wronskian_value,
)
from .zeros import find_zeros

__all__ = ["main"]

_USAGE_ERROR = 1
_COMPUTE_ERROR = 2
_VERIFY_FAILED = 3

_PI_RE = re.compile(r"^([+-]?\d*\.?\d*)\*?pi(?:/(\d*\.?\d+))?$")


def parse_angle(text: str) -> float:
    """Angle in radians, or an exact rational multiple of pi like 'pi/4'."""
    s = text.strip().lower().replace(" ", "")
    m = _PI_RE.match(s)
    if m:
        coef_s, den_s = m.groups()
        if coef_s in ("", "+"):
            coef = 1.0
        elif coef_s == "-":
            coef = -1.0
        else:
            coef = float(coef_s)
        val = coef * math.pi
        if den_s:
            val /= float(den_s)
        return val
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def _fmt(value) -> str:
    # canonical serialization: 17 significant digits, fixed field order
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"non-finite value {value!r} in artifact")
        out = format(value, ".17g")
        return out
    if isinstance(value, str):
        import json

        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def emit_json(obj) -> str:
    return _fmt(obj) + "\n"


def _write(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec(nu, delta) -> CylinderSpec:
    return CylinderSpec.of(nu, delta)


def _kind(name: str) -> EvalKind:
    return EvalKind.FUNCTION if name == "function" else EvalKind.DERIVATIVE


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    spec = _spec(args.nu, args.delta)
    if args.kind == "both":
        c, cp = cylinder_and_prime(spec, args.x)
        payload = {"nu": spec.nu, "delta": spec.delta, "x": args.x, "value": c, "derivative": cp}
    else:
        kind = _kind(args.kind)
        if kind is EvalKind.FUNCTION:
            v = cylinder(spec, args.x)
        else:
            v = cylinder_and_prime(spec, args.x)[1]
        payload = {"nu": spec.nu, "delta": spec.delta, "x": args.x, "kind": args.kind, "value": v}
    _write(args, emit_json(payload))
    return 0


def _cmd_zeros(args) -> int:
    seq = find_zeros(_spec(args.nu, args.delta), _kind(args.kind), args.n)
    if args.format == "csv":
        lines = ["s,zero"] + [f"{i + 1},{z:.17g}" for i, z in enumerate(seq.zeros)]
        _write(args, "\n".join(lines) + "\n")
    else:
        _write(args, emit_json(list(seq.zeros)))
    return 0


def _cmd_interlace(args) -> int:
    kind = _kind(args.kind)
    za = find_zeros(_spec(args.nu, args.delta), kind, args.n)
    zb = find_zeros(_spec(args.mu, args.delta_bar), kind, args.n)
    rep = check_interlaced(za, zb)
    shift = detect_shifted(za, zb)
    payload = {
        "nu": args.nu,
        "mu": args.mu,
        "delta": za.spec.delta,
        "delta_bar": zb.spec.delta,
        "n": args.n,
        "interlaced": rep.interlaced,
        "first_violation": list(rep.first_violation) if rep.first_violation else None,
        "pairs_checked": rep.pairs_checked,
        "coincident": rep.coincident,
        "shift_d": shift.shift_d,
        "shift_window": list(shift.window) if shift.window else None,
    }
    _write(args, emit_json(payload))
    return 0


def _cmd_wronskian(args) -> int:
    sa = _spec(args.nu, args.delta)
    sb = _spec(args.mu, args.delta_bar)
    if args.x is not None:
        payload = {
            "nu": sa.nu,
            "mu": sb.nu,
            "delta": sa.delta,
            "delta_bar": sb.delta,
            "x": args.x,
            "value": wronskian_value(sa, sb, args.x),
        }
    else:
        prof = wronskian_profile(sa, sb, args.n)
        payload = {
            "nu": sa.nu,
            "mu": sb.nu,
            "delta": sa.delta,
            "delta_bar": sb.delta,
            "n": args.n,
            "sign_changes": prof.sign_changes,
            "asymptote": prof.asymptote,
            "window": list(prof.window),
            "tail_value": prof.tail_value,
            "extrema": [[z, v, t] for (z, v, t) in prof.extrema],
        }
    _write(args, emit_json(payload))
    return 0


def _cmd_sweep(args) -> int:
    gaps = [float(g) for g in args.gaps.split(",")]
    family = Family(args.family)
    m = breakdown_scan(family, args.nu, gaps, args.delta, args.n, threads=args.threads)
    if args.format == "csv":
        rows = ["family,nu,mu,delta,delta_bar,n,interlaced,first_violation,sign_changes,proviso"]
        for c in m.cells:
            delta_bar = math.pi / 2.0 if family is Family.JVSY else m.delta
            fv = "" if c.first_violation is None else f"{c.first_violation[0]}:{c.first_violation[1]}"
            pv = "" if c.proviso is None else str(c.proviso).lower()
            rows.append(
                f"{family.value},{c.nu:.17g},{c.mu:.17g},{m.delta:.17g},{delta_bar:.17g},"
                f"{m.n},{str(c.interlaced).lower()},{fv},{c.sign_changes},{pv}"
            )
        _write(args, "\n".join(rows) + "\n")
    else:
        payload = {
            "family": family.value,
            "delta": m.delta,
            "n": m.n,
            "consistent": m.consistent(),
            "cells": [
                {
                    "nu": c.nu,
                    "mu": c.mu,
                    "interlaced": c.interlaced,
                    "first_violation": list(c.first_violation) if c.first_violation else None,
                    "sign_changes": c.sign_changes,
                    "proviso": c.proviso,
                    "excluded": c.excluded,
                }
                for c in m.cells
            ],
        }
        _write(args, emit_json(payload))
    return 0


def _verify_all_reports(threads: int) -> list:
    import random

    rng = random.Random(20240817)
    reports = []
    reports.append(verify_recurrences(0.5, 0.0, [0.5, 1.0, 5.0, 20.0, 100.0]))
    reports.append(verify_recurrences(2.5, math.pi / 3.0, [0.5, 1.0, 5.0, 20.0, 100.0]))
    reports.append(verify_theorem1(0.3, 2.0, 1.0, 0.5, 10))
    reports.append(verify_theorem1(1.0, 1.0, 0.5, 1.0, 10))
    for nu, mu, fam in (
        (1.0, 3.0, Family.CYLINDER),
        (1.0, 3.1, Family.CYLINDER),
        (2.5, 4.5, Family.JPRIME),
        (2.5, 5.0, Family.YPRIME),
    ):
        reports.append(verify_theorem3(nu, mu, fam, 0.0, 20))
    reports.append(
        verify_transitivity(
            CylinderSpec.of(1.0, 0.0),
            CylinderSpec.of(2.0, 0.0),
            CylinderSpec.of(3.0, 0.0),
            EvalKind.FUNCTION,
            (5.0, 60.0),
        )
    )
    for nu, mu, db in ((1.0, 2.0, 0.0), (1.0, 4.5, 0.0), (2.5, 1.0, math.pi / 2.0)):
        reports.append(
            interlace_wronskian_equivalence(CylinderSpec.of(nu, 0.0), CylinderSpec.of(mu, db), 15)
        )
    # derivative identity residuals at seeded random samples
    worst = 0.0
    bad = None
    n_samples = 20
    for _ in range(n_samples):
        nu = rng.uniform(0.2, 8.0)
        mu = rng.uniform(0.2, 8.0)
        d1 = rng.uniform(0.0, math.pi)
        d2 = rng.uniform(0.0, math.pi)
        x = rng.uniform(1.0, 60.0)
        r = check_derivative_identity(CylinderSpec.of(nu, d1), CylinderSpec.of(mu, d2), x)
        if r > worst:
            worst = r
        if r > 1e-6 and bad is None:
            bad = {"nu": nu, "mu": mu, "delta": d1, "delta_bar": d2, "x": x, "residual": r}
    from .reports import VerificationReport

    reports.append(
        VerificationReport(
            name="wronskian-derivative-identity(randomized, seed=20240817)",
            passed=bad is None,
            checks=n_samples,
            worst_residual=worst,
            counterexample=bad,
        )
    )
    return reports


def _cmd_verify(args) -> int:
    suite = args.suite
    if suite == "theorem1":
        reports = [verify_theorem1(args.nu, args.a, args.b, args.c, args.n)]
    elif suite == "theorem3":
        if args.mu is None:
            print("verify theorem3 requires --mu", file=sys.stderr)
            return _USAGE_ERROR
        reports = [verify_theorem3(args.nu, args.mu, Family(args.family), args.delta, args.n)]
    elif suite == "chain":
        reports = [verify_chain(args.nu, args.c, args.n)]
    elif suite == "recurrences":
        grid = [float(v) for v in args.grid.split(",")]
        reports = [verify_recurrences(args.nu, args.delta, grid)]
    elif suite == "equivalence":
        if args.mu is None:
            print("verify equivalence requires --mu", file=sys.stderr)
            return _USAGE_ERROR
        reports = [
            interlace_wronskian_equivalence(
                _spec(args.nu, args.delta), _spec(args.mu, args.delta_bar), args.n
            )
        ]
    elif suite == "all":
        reports = _verify_all_reports(args.threads)
    else:
        print(f"unknown verify suite {suite!r}", file=sys.stderr)
        return _USAGE_ERROR
    passed = all(r.passed for r in reports)
    payload = {"passed": passed, "reports": [r.to_schema() for r in reports]}
    _write(args, emit_json(payload))
    return 0 if passed else _VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_ERROR)


def _threads(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"--threads must be >= 1, got {n}")
    return n


def _common(p, mu=False, kind=True, n_default=10):
    p.add_argument("--nu", type=float, required=True, help="order, in [0, 30]")
    p.add_argument("--delta", type=parse_angle, default=0.0, help="mixing angle (radians or 'pi/4')")
    if mu:
        p.add_argument("--mu", type=float, required=True, help="second order")
        p.add_argument("--delta-bar", dest="delta_bar", type=parse_angle, default=0.0)
    if kind:
        p.add_argument("--kind", choices=("function", "derivative"), default="function")
    p.add_argument("--n", type=int, default=n_default, help="number of zeros")
    p.add_argument("--out", default=None, help="write the artifact to PATH instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    root = _Parser(prog="cylfn", description=__doc__.splitlines()[0])
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[], help="evaluate C or C' at a point")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--delta", type=parse_angle, default=0.0)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--kind", choices=("function", "derivative", "both"), default="function")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("zeros", help="enumerate positive zeros")
    _common(p)
    p.set_defaults(handler=_cmd_zeros)

    p = sub.add_parser("interlace", help="interlacing verdict for two zero sequences")
    _common(p, mu=True, n_default=20)
    p.set_defaults(handler=_cmd_interlace)

    p = sub.add_parser("wronskian", help="Wronskian value or extremum profile")
    _common(p, mu=True, kind=False, n_default=15)
    p.add_argument("--x", type=float, default=None, help="evaluate W at x instead of profiling")
    p.set_defaults(handler=_cmd_wronskian)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("theorem1", "theorem3", "chain", "recurrences", "equivalence", "all"))
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--delta", type=parse_angle, default=0.0)
    p.add_argument("--delta-bar", dest="delta_bar", type=parse_angle, default=0.0)
    p.add_argument("--family", choices=tuple(f.value for f in Family), default="cylinder")
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--grid", default="0.5,1,5,20,100", help="x grid for recurrences (comma list)")
    p.add_argument("--threads", type=_threads, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="breakdown atlas over an order-gap grid")
    p.add_argument("--family", choices=tuple(f.value for f in Family), required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--gaps", required=True, help="comma-separated order gaps")
    p.add_argument("--delta", type=parse_angle, default=0.0)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--threads", type=_threads, default=os.cpu_count() or 1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(handler=_cmd_sweep)
    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else _USAGE_ERROR
    try:
        return args.handler(args)
    except ValueError as e:
        # domain violations (DomainError) in argument values are usage errors
        print(f"cylfn: error: {e}", file=sys.stderr)
        return _USAGE_ERROR
    except ArithmeticError as e:
        print(f"cylfn: computation failed: {e}", file=sys.stderr)
        return _COMPUTE_ERROR
    except RuntimeError as e:
        print(f"cylfn: computation failed: {e}", file=sys.stderr)
        return _COMPUTE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
