"""Executable verification harness: recurrences, interlacing theorems,
transitivity, and breakdown atlases over (nu, mu) grids."""

import math
import sys
from collections import namedtuple
from enum import Enum

from .interlace import check_interlaced, verify_chain
from .reports import VerificationReport
from .special_fn import (
    CylinderSpec,
    DomainError,
    EvalKind,
    MixingAngle,
    Order,
    X_MAX,
    _check_x,
    _cyl,
)
from .wronskian import wronskian_profile
from .zeros import _count, find_zeros, zero_count

__all__ = [
    "Family",
    "BreakdownCell",
    "BreakdownMap",
    "verify_recurrences",
    "verify_theorem1",
    "verify_theorem3",
    "verify_transitivity",
    "breakdown_scan",
]

_HALF_PI = math.pi / 2.0


class Family(Enum):
    CYLINDER = "cylinder"
    JPRIME = "jprime"
    YPRIME = "yprime"
    JVSY = "jvsy"


_CELL_FIELDS = "nu mu interlaced first_violation sign_changes proviso excluded"


class BreakdownCell(namedtuple("BreakdownCell", _CELL_FIELDS, defaults=(None, False))):
    """One (nu, mu) cell; proviso is y_{mu,1} < j_{nu,1} for the JVSY family
    and None for the others, excluded marks the nu == mu cell."""

    __slots__ = ()


class BreakdownMap(namedtuple("BreakdownMap", "family delta n cells")):
    """Per-cell interlacing verdict plus Wronskian sign-change count."""

    __slots__ = ()

    def consistent(self) -> bool:
        """Wronskian cross check: sign_changes == 0 <=> interlaced, per cell.

        interlaced is judged up to the last zero both n-term sequences reach,
        sign_changes over every merged extremum: a sign change past that
        window (cylinder nu = 4, gap 2.5, n = 3) is the true verdict.
        """
        return all(
            (c.sign_changes == 0) == c.interlaced for c in self.cells if not c.excluded
        )

    def angles(self) -> tuple:
        """Mixing angles (delta, delta_bar) of each cell's nu and mu functions."""
        return _family_angles(self.family, self.delta)[:2]


# ---------------------------------------------------------------------------
# Recurrence identities
# ---------------------------------------------------------------------------


def verify_recurrences(nu: float, delta: float, x_grid) -> VerificationReport:
    """Residuals of the six recurrence identities on a grid of arguments.

    Residuals are relative to the largest participating term; all must stay
    below 1e-9.  C'_{nu+1} = (C_nu - C_{nu+2})/2 is the derivative sum rule.
    OverflowError: a residual leaves the double range, or a C or C' at nu,
    nu + 1 or nu + 2 lies below the normal range (0 included).
    """
    nu = Order(nu).nu
    delta = MixingAngle(delta).delta
    grid = [_check_x(x) for x in x_grid]

    worst = 0.0
    counterexample = None
    checks = 0
    for x in grid:
        (c0, p0), (c1, p1), (c2, p2) = (_cyl(nu + k, delta, x) for k in (0, 1, 2))
        if any(abs(v) < sys.float_info.min for v in (c0, p0, c1, p1, c2, p2)):
            raise OverflowError(f"C or C' falls below the normal double range at nu={nu!r}, x={x!r}")
        d0 = (x * x - (nu + 1.0) * (nu + 2.0)) * p0
        d2 = (x * x - nu * (nu + 1.0)) * p2
        d1 = (2.0 * (nu + 1.0) / x) * (x * x - nu * (nu + 2.0)) * p1
        idents = {
            "three-term": (c0 - (2.0 * nu + 2.0) / x * c1 + c2, (c0, c1, c2)),
            "prime-down": (p0 + c1 - (nu / x) * c0, (p0, c1, c0)),
            "prime-halfsum": (p1 - 0.5 * (c0 - c2), (p1, c0, c2)),
            "prime-up": (p1 - c0 + ((nu + 1.0) / x) * c1, (p1, c0, c1)),
            "prime-up2": (p2 - c1 + ((nu + 2.0) / x) * c2, (p2, c1, c2)),
            "derivative-three-term": (d0 + d2 - d1, (d0, d2, d1)),
        }
        for name, (resid, terms) in idents.items():
            checks += 1
            scale = max(1e-300, max(abs(t) for t in terms))
            rel = abs(resid) / scale
            if not rel < math.inf:  # NaN fails too
                raise OverflowError(f"the {name} identity leaves the double range at nu={nu!r}, x={x!r}")
            if rel > worst:
                worst = rel
            if rel > 1e-9 and counterexample is None:
                counterexample = {"identity": name, "x": x, "residual": rel}
    return VerificationReport.of("recurrences", {"nu": nu, "delta": delta}, checks, worst, counterexample)


# ---------------------------------------------------------------------------
# Theorem harnesses
# ---------------------------------------------------------------------------


def verify_theorem1(nu: float, a: float, b: float, c: float, n: int) -> VerificationReport:
    """Known interlacing results: order gaps a (functions), b (derivatives),
    plus the inequality chain with gap c."""
    if not (0.0 < a <= 2.0 and 0.0 < b <= 1.0 and 0.0 < c <= 1.0):
        raise DomainError("require 0 < a <= 2, 0 < b <= 1, 0 < c <= 1")
    nu, n = Order(nu).nu, _count(n, "need n >= 1")
    checks = 0
    counterexample = None
    parts = [("a-functions", d, EvalKind.FUNCTION, a) for d in (0.0, math.pi / 4.0, _HALF_PI)]
    parts += [("a-jprime", 0.0, EvalKind.DERIVATIVE, b), ("a-yprime", _HALF_PI, EvalKind.DERIVATIVE, b)]
    for part, delta, kind, gap in parts:
        za = find_zeros(CylinderSpec.of(nu, delta), kind, n)
        zb = find_zeros(CylinderSpec.of(nu + gap, delta), kind, n)
        rep = check_interlaced(za, zb)
        checks += rep.pairs_checked
        if not rep.interlaced and counterexample is None:
            # only a-functions carries delta: the derivative labels name it
            angle = {"delta": delta} if kind is EvalKind.FUNCTION else {}
            counterexample = {"part": part, **angle, "violation": rep.first_violation}
    chain = verify_chain(nu, c, n)
    checks += chain.checks
    if not chain.passed and counterexample is None:
        counterexample = {"part": "b-chain", "violation": chain.counterexample}
    params = {"nu": nu, "a": a, "b": b, "c": c, "n": n}
    return VerificationReport.of("theorem1", params, checks, chain.worst_residual, counterexample)


def _family_angles(family: Family, delta: float):
    """(delta of the nu function, delta of the mu function, kind) for a
    family; only the cylinder family takes its angle from delta."""
    if family is Family.CYLINDER:
        return delta, delta, EvalKind.FUNCTION
    if MixingAngle(delta).delta != 0.0:
        raise DomainError(f"the {family.value} family fixes its angles; got delta={delta!r}")
    if family is Family.JPRIME:
        return 0.0, 0.0, EvalKind.DERIVATIVE
    if family is Family.YPRIME:
        return _HALF_PI, _HALF_PI, EvalKind.DERIVATIVE
    if family is Family.JVSY:
        return 0.0, _HALF_PI, EvalKind.FUNCTION
    raise DomainError(f"unknown family {family!r}")


def _family_specs(family: Family, nu: float, mu: float, delta: float):
    da, db, kind = _family_angles(family, delta)
    return CylinderSpec.of(nu, da), CylinderSpec.of(mu, db), kind


def verify_theorem3(
    nu: float, mu: float, family: Family, delta: float = 0.0, n: int = 30
) -> VerificationReport:
    """Interlacing verdict over the first n zeros against the predicate
    |nu - mu| <= 2, for one (nu, mu) cell of one family.  JVSY is rejected:
    J against Y breaks down past gap 1, and breakdown_scan maps that; so is
    n other than a whole number >= 1, also at nu == mu (DomainError)."""
    if family is Family.JVSY:
        raise DomainError("theorem3 judges |nu - mu| <= 2, not J vs Y; use sweep --family jvsy")
    nu, mu, n = Order(nu).nu, Order(mu).nu, _count(n, "need n >= 1")
    params = {"family": family.value, "nu": nu, "mu": mu, "delta": MixingAngle(delta).delta, "n": n}
    sa, sb, kind = _family_specs(family, nu, mu, delta)
    if nu == mu:
        details = {"excluded": True, "reason": "identical orders"}
        return VerificationReport.of("theorem3", params, 0, 0.0, details=details)
    rep = check_interlaced(find_zeros(sa, kind, n), find_zeros(sb, kind, n))
    predicate = abs(nu - mu) <= 2.0
    agree = rep.interlaced == predicate
    counterexample = None
    if not agree:
        counterexample = {
            "interlaced": rep.interlaced,
            "predicate": predicate,
            "first_violation": rep.first_violation,
        }
    return VerificationReport.of(
        "theorem3", params, rep.pairs_checked, float(not agree), counterexample,
        {"interlaced": rep.interlaced, "predicate": predicate},
    )


def verify_transitivity(
    fspec: CylinderSpec,
    gspec: CylinderSpec,
    hspec: CylinderSpec,
    kind: EvalKind,
    coeff_probe,
) -> VerificationReport:
    """Conditional transitivity of interlacing through a three-term relation.

    Premises (coefficient signs constant on the probe interval, read off the
    coefficients' roots; f-g and g-h interlaced there) are confirmed first;
    premise failure is reported as such, with no conclusion asserted.  A
    confirmed-premise conclusion failure would falsify the transitivity lemma
    and fails loudly.  Every zero in the probe (lo, hi), 0 < lo < hi <= 400, is judged.
    """
    lo, hi = float(coeff_probe[0]), float(coeff_probe[1])
    if not 0.0 < lo < hi <= X_MAX:
        raise DomainError(f"probe interval must satisfy 0 < lo < hi <= {X_MAX:g}")
    nu = fspec.nu
    if abs(gspec.nu - nu - 1.0) > 1e-12 or abs(hspec.nu - nu - 2.0) > 1e-12:
        raise DomainError("triple must have orders nu, nu+1, nu+2")
    if not (fspec.delta == gspec.delta == hspec.delta):
        raise DomainError("triple must share the mixing angle")
    params = {"nu": nu, "delta": fspec.delta, "kind": kind.value, "probe": (lo, hi)}

    def premise_failure(checks, **details):
        details = {"status": "premise-failure", **details}
        return VerificationReport.of("transitivity", params, checks, 0.0, details=details)

    # premise 1: coefficient signs constant on (lo, hi).  For C they are 1,
    # -(2nu+2)/x and 1, of fixed sign on x > 0; for C' they are x^2 - const
    # and -(2(nu+1)/x)(x^2 - nu(nu+2)), which change sign only at these roots
    if kind is EvalKind.DERIVATIVE:
        for r in map(math.sqrt, (nu * (nu + 1.0), nu * (nu + 2.0), (nu + 1.0) * (nu + 2.0))):
            if lo < r < hi:
                return premise_failure(0, coefficient_root=r)

    def window_zeros(spec):
        n = zero_count(spec, kind, hi)
        return [z for z in (find_zeros(spec, kind, n).zeros if n else ()) if lo < z < hi]

    zf = window_zeros(fspec)
    zg = window_zeros(gspec)
    zh = window_zeros(hspec)
    # premise 2 needs two zeros of each function in the window to judge
    counts = {"f": len(zf), "g": len(zg), "h": len(zh)}
    if min(counts.values()) < 2:
        return premise_failure(0, zero_counts=counts)
    checks = 0
    for name2, a_, b_ in (("f-g", zf, zg), ("g-h", zg, zh)):
        rep = check_interlaced(a_, b_)
        checks += rep.pairs_checked
        if not rep.interlaced:
            return premise_failure(checks, pair=name2, violation=rep.first_violation)
    conclusion = check_interlaced(zf, zh)
    checks += conclusion.pairs_checked
    counterexample = None
    if not conclusion.interlaced:
        counterexample = {
            "conclusion": "f-h not interlaced despite premises",
            "first_violation": conclusion.first_violation,
        }
    status = "ok" if counterexample is None else "conclusion-failure"
    return VerificationReport.of("transitivity", params, checks, 0.0, counterexample, {"status": status})


# ---------------------------------------------------------------------------
# Breakdown atlas
# ---------------------------------------------------------------------------


def _scan_cell(family: Family, nu: float, gap: float, delta: float, n: int) -> BreakdownCell:
    if gap == 0.0:
        return BreakdownCell(nu, nu, True, None, 0, None, excluded=True)
    if family is Family.JVSY:
        # the breakdown regime has the J order above the Y order: the cell
        # pairs J_{nu+gap} with Y_nu, so cell.nu is the J order
        nu, mu = nu + gap, nu
    else:
        mu = nu + gap
    sa, sb, kind = _family_specs(family, nu, mu, delta)
    za, zb = find_zeros(sa, kind, n), find_zeros(sb, kind, n)
    rep = check_interlaced(za, zb)
    # the Wronskian equivalence concerns the functions themselves; for
    # derivative families the associated functions sit one order higher
    if kind is EvalKind.DERIVATIVE:
        wa = CylinderSpec.of(sa.nu + 1.0, sa.delta)
        wb = CylinderSpec.of(sb.nu + 1.0, sb.delta)
    else:
        wa, wb = sa, sb
    prof = wronskian_profile(wa, wb, n)
    # the JVSY proviso y_{mu,1} < j_{nu,1}, from the sequences already found
    proviso = zb[0] < za[0] if family is Family.JVSY else None
    return BreakdownCell(
        nu=nu,
        mu=mu,
        interlaced=rep.interlaced,
        first_violation=rep.first_violation,
        sign_changes=prof.sign_changes,
        proviso=proviso,
    )


def breakdown_scan(
    family: Family, nu: float, gap_grid, delta: float = 0.0, n: int = 30
) -> BreakdownMap:
    """Interlacing/Wronskian verdicts for cells (nu, nu + gap) over gap_grid.

    For the JVSY family the roles are swapped: the cell pairs J_{nu+gap}
    against Y_nu, since breakdown there needs the J order above the Y order.
    Only the cylinder family takes delta; the others fix their angles and
    reject a nonzero one; n must be whole and >= 1 even if every gap is 0
    (DomainError).  Cells run in grid order, sharing the zero cache.
    """
    nu, n = Order(nu).nu, _count(n, "need n >= 1")  # checked here: an all-zero gap grid builds no spec
    delta = MixingAngle(delta).delta
    _family_angles(family, delta)  # rejects a delta the family does not take
    cells = tuple(_scan_cell(family, nu, float(g), delta, n) for g in gap_grid)
    return BreakdownMap(family=family, delta=delta, n=n, cells=cells)
