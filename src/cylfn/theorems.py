"""Executable verification harness: recurrences, interlacing theorems,
transitivity, and breakdown atlases over (nu, mu) grids."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

from .interlace import check_interlaced, verify_chain
from .reports import VerificationReport
from .special_fn import (
    CylinderSpec,
    DomainError,
    EvalKind,
    MixingAngle,
    _cyl_and_prime_raw,
    _cyl_raw,
)
from .wronskian import wronskian_profile
from .zeros import find_zeros

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


@dataclass(frozen=True)
class BreakdownCell:
    nu: float
    mu: float
    interlaced: bool
    first_violation: tuple | None
    sign_changes: int
    proviso: bool | None = None  # y_{mu,1} < j_{nu,1}, JVSY family only
    excluded: bool = False  # nu == mu cell


@dataclass(frozen=True)
class BreakdownMap:
    """Per-cell interlacing verdict plus Wronskian sign-change count."""

    family: Family
    delta: float
    n: int
    cells: tuple

    def consistent(self) -> bool:
        """Wronskian cross check: sign_changes == 0 <=> interlaced, per cell."""
        return all(
            (c.sign_changes == 0) == c.interlaced for c in self.cells if not c.excluded
        )


# ---------------------------------------------------------------------------
# Recurrence identities
# ---------------------------------------------------------------------------


def verify_recurrences(nu: float, delta: float, x_grid) -> VerificationReport:
    """Residuals of the six recurrence identities on a grid of arguments.

    Residuals are relative to the largest participating term; all must stay
    below 1e-9.  The derivative sum rule C'_{nu+1} = (C_nu - C_{nu+2})/2 is
    used in its correct half-sum form.
    """
    nu = float(nu)
    delta = MixingAngle(delta).delta
    grid = [float(x) for x in x_grid]

    def C(k, x):
        return _cyl_raw(nu + k, delta, x)

    def Cp(k, x):
        return _cyl_and_prime_raw(nu + k, delta, x)[1]

    worst = 0.0
    counterexample = None
    checks = 0
    for x in grid:
        c0, c1, c2 = C(0, x), C(1, x), C(2, x)
        p0, p1, p2 = Cp(0, x), Cp(1, x), Cp(2, x)
        idents = {
            "three-term": (c0 - (2.0 * nu + 2.0) / x * c1 + c2, (c0, c1, c2)),
            "prime-down": (p0 + c1 - (nu / x) * c0, (p0, c1, c0)),
            "prime-halfsum": (p1 - 0.5 * (c0 - c2), (p1, c0, c2)),
            "prime-up": (p1 - c0 + ((nu + 1.0) / x) * c1, (p1, c0, c1)),
            "prime-up2": (p2 - c1 + ((nu + 2.0) / x) * c2, (p2, c1, c2)),
            "derivative-three-term": (
                (x * x - (nu + 1.0) * (nu + 2.0)) * p0
                + (x * x - nu * (nu + 1.0)) * p2
                - (2.0 * (nu + 1.0) / x) * (x * x - nu * (nu + 2.0)) * p1,
                (
                    (x * x - (nu + 1.0) * (nu + 2.0)) * p0,
                    (x * x - nu * (nu + 1.0)) * p2,
                    (2.0 * (nu + 1.0) / x) * (x * x - nu * (nu + 2.0)) * p1,
                ),
            ),
        }
        for name, (resid, terms) in idents.items():
            checks += 1
            scale = max(1e-300, max(abs(t) for t in terms))
            rel = abs(resid) / scale
            if rel > worst:
                worst = rel
            if rel > 1e-9 and counterexample is None:
                counterexample = {"identity": name, "x": x, "residual": rel}
    return VerificationReport(
        name=f"recurrences(nu={nu:g}, delta={delta:g})",
        passed=counterexample is None,
        checks=checks,
        worst_residual=worst,
        counterexample=counterexample,
    )


# ---------------------------------------------------------------------------
# Theorem harnesses
# ---------------------------------------------------------------------------


def verify_theorem1(nu: float, a: float, b: float, c: float, n: int) -> VerificationReport:
    """Known interlacing results: order gaps a (functions), b (derivatives),
    plus the inequality chain with gap c."""
    nu = float(nu)
    if not (0.0 < a <= 2.0 and 0.0 < b <= 1.0 and 0.0 < c <= 1.0):
        raise DomainError("require 0 < a <= 2, 0 < b <= 1, 0 < c <= 1")
    if nu < 0.0:
        raise DomainError("require nu >= 0")
    checks = 0
    counterexample = None
    for delta in (0.0, math.pi / 4.0, _HALF_PI):
        za = find_zeros(CylinderSpec.of(nu, delta), EvalKind.FUNCTION, n)
        zb = find_zeros(CylinderSpec.of(nu + a, delta), EvalKind.FUNCTION, n)
        rep = check_interlaced(za, zb)
        checks += rep.pairs_checked
        if not rep.interlaced and counterexample is None:
            counterexample = {"part": "a-functions", "delta": delta, "violation": rep.first_violation}
    for delta, label in ((0.0, "a-jprime"), (_HALF_PI, "a-yprime")):
        za = find_zeros(CylinderSpec.of(nu, delta), EvalKind.DERIVATIVE, n)
        zb = find_zeros(CylinderSpec.of(nu + b, delta), EvalKind.DERIVATIVE, n)
        rep = check_interlaced(za, zb)
        checks += rep.pairs_checked
        if not rep.interlaced and counterexample is None:
            counterexample = {"part": label, "violation": rep.first_violation}
    chain = verify_chain(nu, c, n)
    checks += chain.checks
    if not chain.passed and counterexample is None:
        counterexample = {"part": "b-chain", "violation": chain.counterexample}
    return VerificationReport(
        name=f"theorem1(nu={nu:g}, a={a:g}, b={b:g}, c={c:g}, n={n})",
        passed=counterexample is None,
        checks=checks,
        worst_residual=chain.worst_residual,
        counterexample=counterexample,
    )


def _family_specs(family: Family, nu: float, mu: float, delta: float):
    if family is Family.CYLINDER:
        return (CylinderSpec.of(nu, delta), CylinderSpec.of(mu, delta), EvalKind.FUNCTION)
    if family is Family.JPRIME:
        return (CylinderSpec.of(nu, 0.0), CylinderSpec.of(mu, 0.0), EvalKind.DERIVATIVE)
    if family is Family.YPRIME:
        return (CylinderSpec.of(nu, _HALF_PI), CylinderSpec.of(mu, _HALF_PI), EvalKind.DERIVATIVE)
    if family is Family.JVSY:
        return (CylinderSpec.of(nu, 0.0), CylinderSpec.of(mu, _HALF_PI), EvalKind.FUNCTION)
    raise DomainError(f"unknown family {family!r}")


def verify_theorem3(
    nu: float, mu: float, family: Family, delta: float = 0.0, n: int = 30
) -> VerificationReport:
    """Interlacing verdict over the first n zeros against the predicate
    |nu - mu| <= 2, for one (nu, mu) cell of one family."""
    nu = float(nu)
    mu = float(mu)
    name = f"theorem3({family.value}, nu={nu:g}, mu={mu:g}, delta={delta:g}, n={n})"
    if nu == mu:
        return VerificationReport(
            name=name,
            passed=True,
            checks=0,
            worst_residual=0.0,
            counterexample=None,
            details={"excluded": True, "reason": "identical orders"},
        )
    sa, sb, kind = _family_specs(family, nu, mu, delta)
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
    return VerificationReport(
        name=name,
        passed=agree,
        checks=rep.pairs_checked,
        worst_residual=0.0 if agree else 1.0,
        counterexample=counterexample,
        details={"interlaced": rep.interlaced, "predicate": predicate},
    )


def _coefficients(kind: EvalKind, nu: float):
    # a f + b g + c h = 0 for the triple at orders nu, nu+1, nu+2
    if kind is EvalKind.FUNCTION:
        roots = ()

        def coeffs(x):
            return 1.0, -(2.0 * nu + 2.0) / x, 1.0

    else:
        roots = (
            math.sqrt(nu * (nu + 1.0)),
            math.sqrt(nu * (nu + 2.0)),
            math.sqrt((nu + 1.0) * (nu + 2.0)),
        )

        def coeffs(x):
            return (
                x * x - (nu + 1.0) * (nu + 2.0),
                -(2.0 * (nu + 1.0) / x) * (x * x - nu * (nu + 2.0)),
                x * x - nu * (nu + 1.0),
            )

    return coeffs, roots


def verify_transitivity(
    fspec: CylinderSpec,
    gspec: CylinderSpec,
    hspec: CylinderSpec,
    kind: EvalKind,
    coeff_probe,
) -> VerificationReport:
    """Conditional transitivity of interlacing through a three-term relation.

    Premises (coefficient sign constancy on the probe interval, f-g and g-h
    interlaced there) are confirmed numerically first; premise failure is
    reported as such, with no conclusion asserted.  A confirmed-premise
    conclusion failure would falsify the transitivity lemma and fails loudly.
    """
    lo, hi = float(coeff_probe[0]), float(coeff_probe[1])
    if not 0.0 < lo < hi:
        raise DomainError("probe interval must satisfy 0 < lo < hi")
    nu = fspec.nu
    if abs(gspec.nu - nu - 1.0) > 1e-12 or abs(hspec.nu - nu - 2.0) > 1e-12:
        raise DomainError("triple must have orders nu, nu+1, nu+2")
    if not (fspec.delta == gspec.delta == hspec.delta):
        raise DomainError("triple must share the mixing angle")
    name = f"transitivity(nu={nu:g}, delta={fspec.delta:g}, kind={kind.value}, probe=({lo:g}, {hi:g}))"
    coeffs, roots = _coefficients(kind, nu)
    # premise 1: coefficient signs constant on (lo, hi)
    for r in roots:
        if lo < r < hi:
            return VerificationReport(
                name=name,
                passed=True,
                checks=0,
                worst_residual=0.0,
                counterexample=None,
                details={"status": "premise-failure", "coefficient_root": r},
            )
    samples = [lo + (hi - lo) * k / 16.0 for k in range(17)]
    base = [math.copysign(1.0, v) for v in coeffs(samples[0])]
    for x in samples:
        for s0, v in zip(base, coeffs(x)):
            if v == 0.0 or math.copysign(1.0, v) != s0:
                return VerificationReport(
                    name=name,
                    passed=True,
                    checks=0,
                    worst_residual=0.0,
                    counterexample=None,
                    details={"status": "premise-failure", "x": x},
                )

    def window_zeros(spec):
        n_max = int((hi + 20.0 - spec.nu) / math.pi)
        zs = find_zeros(spec, kind, n_max).zeros
        return [z for z in zs if lo < z < hi]

    zf = window_zeros(fspec)
    zg = window_zeros(gspec)
    zh = window_zeros(hspec)
    checks = 0
    for name2, a_, b_ in (("f-g", zf, zg), ("g-h", zg, zh)):
        rep = check_interlaced(a_, b_)
        checks += rep.pairs_checked
        if not rep.interlaced:
            return VerificationReport(
                name=name,
                passed=True,
                checks=checks,
                worst_residual=0.0,
                counterexample=None,
                details={"status": "premise-failure", "pair": name2, "violation": rep.first_violation},
            )
    conclusion = check_interlaced(zf, zh)
    checks += conclusion.pairs_checked
    counterexample = None
    if not conclusion.interlaced:
        counterexample = {
            "conclusion": "f-h not interlaced despite premises",
            "first_violation": conclusion.first_violation,
        }
    return VerificationReport(
        name=name,
        passed=counterexample is None,
        checks=checks,
        worst_residual=0.0,
        counterexample=counterexample,
        details={"status": "ok" if counterexample is None else "conclusion-failure"},
    )


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
    rep = check_interlaced(find_zeros(sa, kind, n), find_zeros(sb, kind, n))
    # the Wronskian equivalence concerns the functions themselves; for
    # derivative families the associated functions sit one order higher
    if kind is EvalKind.DERIVATIVE:
        wa = CylinderSpec.of(sa.nu + 1.0, sa.delta)
        wb = CylinderSpec.of(sb.nu + 1.0, sb.delta)
    else:
        wa, wb = sa, sb
    prof = wronskian_profile(wa, wb, n)
    proviso = None
    if family is Family.JVSY:
        y1 = find_zeros(sb, EvalKind.FUNCTION, 1).zeros[0]
        j1 = find_zeros(sa, EvalKind.FUNCTION, 1).zeros[0]
        proviso = y1 < j1
    return BreakdownCell(
        nu=nu,
        mu=mu,
        interlaced=rep.interlaced,
        first_violation=rep.first_violation,
        sign_changes=prof.sign_changes,
        proviso=proviso,
    )


def breakdown_scan(
    family: Family, nu: float, gap_grid, delta: float = 0.0, n: int = 30, threads: int = 1
) -> BreakdownMap:
    """Interlacing/Wronskian verdicts for cells (nu, nu + gap) over gap_grid.

    For the JVSY family the roles are swapped: the cell pairs J_{nu+gap}
    against Y_nu, since breakdown there needs the J order above the Y order.
    Cells are independent; with threads > 1 they are evaluated in worker
    processes, at most one per cell and per CPU, and reassembled in grid
    order.
    """
    nu = float(nu)
    delta = MixingAngle(delta).delta
    gaps = [float(g) for g in gap_grid]
    workers = min(threads, len(gaps), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as ex:
            cells = list(ex.map(_scan_cell, [family] * len(gaps), [nu] * len(gaps), gaps, [delta] * len(gaps), [n] * len(gaps)))
    else:
        cells = [_scan_cell(family, nu, g, delta, n) for g in gaps]
    return BreakdownMap(family=family, delta=delta, n=n, cells=tuple(cells))
