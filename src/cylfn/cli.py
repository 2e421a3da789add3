"""Command-line front end.

Subcommands: eval, zeros, interlace, wronskian, verify, sweep.  Artifacts go
to stdout or --out; all diagnostics go to stderr.  Exit statuses: 0 success,
1 usage error, 2 computation error, 3 verification suite failed.

Artifacts are deterministic: numbers are serialized with 17 significant
digits and fixed field order, so identical argv yields identical bytes.
"""

import argparse
import math
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
    try:
        if not m:
            return float(s)
        coef_s, den_s = m.groups()
        coef = {"": 1.0, "+": 1.0, "-": -1.0}.get(coef_s)
        return (float(coef_s) if coef is None else coef) * math.pi / float(den_s or 1.0)
    except (ValueError, ZeroDivisionError):  # 'pi/0' among them
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
        if not math.isfinite(value):
            raise ArithmeticError(f"non-finite value {value!r} in artifact")
        return format(value, ".17g")
    if isinstance(value, str):
        import json

        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in value.items())
        return "{" + items + "}"
    if type(value) in (list, tuple):  # not a record: those are tuples too
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv(header: str, rows) -> str:
    # a cell as _fmt writes it, but None empty and a string bare
    lines = [",".join("" if v is None else v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def _write(args, artifact):
    # a string as it is, any other artifact as canonical JSON
    text = artifact if isinstance(artifact, str) else _fmt(artifact) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:  # an --out that cannot be written is a usage error
            raise ValueError(f"cannot write {args.out!r}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    spec = CylinderSpec.of(args.nu, args.delta)
    payload = {"nu": spec.nu, "delta": spec.delta, "x": args.x}
    if args.kind == "both":
        payload["value"], payload["derivative"] = cylinder_and_prime(spec, args.x)
    elif args.kind == "function":
        payload.update(kind=args.kind, value=cylinder(spec, args.x))
    else:
        payload.update(kind=args.kind, value=cylinder_and_prime(spec, args.x)[1])
    _write(args, payload)
    return 0


def _cmd_zeros(args) -> int:
    seq = find_zeros(CylinderSpec.of(args.nu, args.delta), EvalKind(args.kind), args.n)
    _write(args, _csv("s,zero", enumerate(seq.zeros, 1)) if args.format == "csv" else seq.zeros)
    return 0


def _cmd_interlace(args) -> int:
    kind = EvalKind(args.kind)
    za = find_zeros(CylinderSpec.of(args.nu, args.delta), kind, args.n)
    zb = find_zeros(CylinderSpec.of(args.mu, args.delta_bar), kind, args.n)
    rep = check_interlaced(za, zb)
    shift = detect_shifted(za, zb)
    payload = {
        "nu": za.spec.nu,
        "mu": zb.spec.nu,
        "delta": za.spec.delta,
        "delta_bar": zb.spec.delta,
        "n": args.n,
        "interlaced": rep.interlaced,
        "first_violation": rep.first_violation,
        "pairs_checked": rep.pairs_checked,
        "coincident": rep.coincident,
        "shift_d": shift.shift_d,
        "shift_window": shift.window,
    }
    _write(args, payload)
    return 0


def _cmd_wronskian(args) -> int:
    sa = CylinderSpec.of(args.nu, args.delta)
    sb = CylinderSpec.of(args.mu, args.delta_bar)
    payload = {"nu": sa.nu, "mu": sb.nu, "delta": sa.delta, "delta_bar": sb.delta}
    if args.x is not None:
        payload.update(x=args.x, value=wronskian_value(sa, sb, args.x))
    else:
        prof = wronskian_profile(sa, sb, args.n)
        payload.update(
            n=args.n,
            sign_changes=prof.sign_changes,
            asymptote=prof.asymptote,
            window=prof.window,
            tail_value=prof.tail_value,
            extrema=prof.extrema,
        )
    _write(args, payload)
    return 0


def _cmd_sweep(args) -> int:
    gaps = [float(g) for g in args.gaps.split(",")]
    family = Family(args.family)
    m = breakdown_scan(family, args.nu, gaps, args.delta, args.n)
    if args.format == "csv":
        delta, delta_bar = m.angles()
        rows = [(family.value, c.nu, c.mu, delta, delta_bar, m.n, c.interlaced,
                 c.first_violation and "{}:{}".format(*c.first_violation), c.sign_changes, c.proviso)
                for c in m.cells]
        header = "family,nu,mu,delta,delta_bar,n,interlaced,first_violation,sign_changes,proviso"
        _write(args, _csv(header, rows))
    else:
        payload = {
            "family": family.value,
            "delta": m.delta,
            "n": m.n,
            "consistent": m.consistent(),
            "cells": [c._asdict() for c in m.cells],
        }
        _write(args, payload)
    return 0


def _verify_all_reports() -> list:
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
    if suite in ("theorem3", "equivalence") and args.mu is None:
        print(f"verify {suite} requires --mu", file=sys.stderr)
        return _USAGE_ERROR
    if suite == "theorem1":
        reports = [verify_theorem1(args.nu, args.a, args.b, args.c, args.n)]
    elif suite == "theorem3":
        reports = [verify_theorem3(args.nu, args.mu, Family(args.family), args.delta, args.n)]
    elif suite == "chain":
        reports = [verify_chain(args.nu, args.c, args.n)]
    elif suite == "recurrences":
        grid = [float(v) for v in args.grid.split(",")]
        reports = [verify_recurrences(args.nu, args.delta, grid)]
    elif suite == "equivalence":
        reports = [
            interlace_wronskian_equivalence(
                CylinderSpec.of(args.nu, args.delta), CylinderSpec.of(args.mu, args.delta_bar), args.n
            )
        ]
    else:  # "all"; argparse rejects any other suite
        reports = _verify_all_reports()
    passed = all(r.passed for r in reports)
    payload = {"passed": passed, "reports": [r.to_schema() for r in reports]}
    _write(args, payload)
    return 0 if passed else _VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_ERROR)


_THREADS_HELP = "accepted for compatibility; cylfn runs serially"


def _threads(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"--threads must be >= 1, got {n}")
    return n


def _common(p, mu=False, kind=True, n_default=10, formats=("json",)):
    p.add_argument("--nu", type=float, required=True, help="order, in [0, 30]")
    p.add_argument("--delta", type=parse_angle, default=0.0, help="mixing angle (radians or 'pi/4')")
    if mu:
        p.add_argument("--mu", type=float, required=True, help="second order")
        p.add_argument("--delta-bar", dest="delta_bar", type=parse_angle, default=0.0)
    if kind:
        p.add_argument("--kind", choices=("function", "derivative"), default="function")
    p.add_argument("--n", type=int, default=n_default, help="number of zeros")
    p.add_argument("--out", default=None, help="write the artifact to PATH instead of stdout")
    p.add_argument("--format", choices=formats, default="json")


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
    _common(p, formats=("json", "csv"))
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
    p.add_argument("--threads", type=_threads, default=1, help=_THREADS_HELP)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("sweep", help="breakdown atlas over an order-gap grid")
    p.add_argument("--family", choices=tuple(f.value for f in Family), required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--gaps", required=True, help="comma-separated order gaps")
    p.add_argument("--delta", type=parse_angle, default=0.0)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--threads", type=_threads, default=1, help=_THREADS_HELP)
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
    except (ArithmeticError, RuntimeError) as e:
        print(f"cylfn: computation failed: {e}", file=sys.stderr)
        return _COMPUTE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
