"""Enumeration of positive zeros of cylinder functions and their derivatives.

Zeros are located by a sign-change scan with step pi/8 and refined by Newton
iteration safeguarded by a bisection bracket.  The scan skips no zero.  With
theta = arg(J + iY) and phi = arg(J' + iY'), C = |J + iY| cos(theta + delta)
and C' = |J' + iY'| cos(phi + delta), so:

- C, nu >= 1/2: theta' = 2/(pi x (J^2 + Y^2)) <= 1 (Nicholson's formula,
  Watson 13.73), so zeros are at least pi apart.
- C, nu < 1/2: theta' is non-increasing in x, so the gaps between zeros
  grow.  theta rises by at most pi up to the first zero, so theta' >= pi/g
  there for a first gap g, which puts the first zero below g; the second
  lies past j_{nu,1} > 2.4, so g > 1.2.
- C': J' and Y' are positive on (0, nu], so phi decreases there and at most
  one zero lies below nu.  Above nu, phi' = 2(1 - nu^2/x^2)/(pi x (J'^2 +
  Y'^2)) <= 1, so zeros there are at least pi apart.  x = nu is a scan
  node, since two zeros may straddle it arbitrarily close together.
- As x -> 0+, C > 0, and C' < 0 except for C' = J'_nu > 0 with nu > 0.
  So at most one zero lies below the scan start, exactly when f there has
  the other sign.  It is bracketed by stepping down geometrically and
  bisected in log x; a zero below 1e-300 raises IterationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

from .special_fn import (
    CylinderSpec,
    DomainError,
    EvalKind,
    MixingAngle,
    X_MAX,
    cylinder,
    cylinder_and_prime,
)

__all__ = ["ZeroSequence", "Trajectory", "IterationError", "find_zeros", "zero_trajectory"]

SCAN_STEP = math.pi / 8.0
REL_TOL = 1e-12
_MAX_ITER = 80
_X_FLOOR = 1e-300  # a zero below the scan start is sought down to here


class IterationError(RuntimeError):
    """Zero refinement failed to converge."""


@dataclass(frozen=True)
class ZeroSequence:
    """The first positive zeros of C or C', in increasing order.

    For spec (nu=0, delta=0) with kind DERIVATIVE the leading entry is 0.0:
    x = 0 is counted as the first zero of J'_0 by convention.  refined_to is
    the worst relative tolerance achieved over the zeros: REL_TOL, unless a
    refinement fell back to a bisection bracket.
    """

    spec: CylinderSpec
    kind: EvalKind
    zeros: tuple
    refined_to: float

    def __len__(self):
        return len(self.zeros)

    def __getitem__(self, i):
        return self.zeros[i]


@dataclass(frozen=True)
class Trajectory:
    """Samples (nu, s-th zero) of one zero tracked across orders."""

    s: int
    kind: EvalKind
    angle: MixingAngle
    samples: tuple  # of (nu, zero) pairs

    def is_strictly_increasing(self) -> bool:
        zs = [z for _, z in self.samples]
        return all(a < b for a, b in zip(zs, zs[1:]))

    def max_slope(self) -> float:
        """Empirical continuity modulus: max |dz/dnu| over adjacent samples."""
        out = 0.0
        for (n0, z0), (n1, z1) in zip(self.samples, self.samples[1:]):
            if n1 != n0:
                out = max(out, abs((z1 - z0) / (n1 - n0)))
        return out


def _target(spec: CylinderSpec, kind: EvalKind):
    # f for the scan, and fdf(x) = (f(x), f'(x)) from one L0 call for Newton;
    # cylinder == cylinder_and_prime[0] bitwise, so the two f agree exactly
    if kind is EvalKind.FUNCTION:
        return partial(cylinder, spec), partial(cylinder_and_prime, spec)
    nu = spec.nu

    def f(x):
        return cylinder_and_prime(spec, x)[1]

    def fdf(x):
        # C'' from the Bessel equation: x^2 C'' + x C' + (x^2 - nu^2) C = 0
        c, cp = cylinder_and_prime(spec, x)
        return cp, -cp / x - (1.0 - (nu * nu) / (x * x)) * c

    return f, fdf


def _refine(fdf, lo, hi, flo, fhi):
    # Newton with a maintained bracket; bisects whenever Newton misbehaves.
    # Returns (zero, relative tolerance achieved).
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        fx, d = fdf(x)
        if fx == 0.0:
            return x, REL_TOL
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        if d != 0.0:
            step = fx / d
            if abs(step) <= REL_TOL * max(1.0, abs(x)):
                return x - step, REL_TOL
            xn = x - step
            if not (lo < xn < hi):
                xn = 0.5 * (lo + hi)
        else:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= REL_TOL * max(1.0, abs(xn)):
            return xn, REL_TOL
        x = xn
    if hi - lo <= 1e-9 * max(1.0, hi):
        # bracket midpoint: off the zero by at most half the bracket
        return 0.5 * (lo + hi), 0.5 * (hi - lo) / max(1.0, hi)
    raise IterationError(f"zero refinement did not converge in {_MAX_ITER} steps on [{lo}, {hi}]")


def _below_start(f, hi, fhi):
    # the one zero below the scan start: step down geometrically to a
    # bracket, then bisect in log x, so that a zero at 1e-69 still gets a
    # relative tolerance.  No Newton: C'' can overflow there, and x * x
    # underflows.
    lo, flo = hi, fhi
    while (flo > 0.0) == (fhi > 0.0):
        if lo == _X_FLOOR:
            raise IterationError(f"the first zero lies below x = {_X_FLOOR:g}")
        hi, fhi = lo, flo
        lo = max(lo * 1e-4, _X_FLOOR)
        flo = f(lo)
    a, b = math.log(lo), math.log(hi)
    while b - a > REL_TOL:
        m = 0.5 * (a + b)
        if (f(math.exp(m)) > 0.0) == (fhi > 0.0):
            b = m
        else:
            a = m
    return math.exp(0.5 * (a + b))


@lru_cache(maxsize=4096)
def _find_zeros_cached(spec: CylinderSpec, kind: EvalKind, n: int):
    # (zeros, worst relative tolerance achieved over them)
    derivative = kind is EvalKind.DERIVATIVE
    prepend_origin = derivative and spec.nu == 0.0 and spec.delta == 0.0
    want = n - 1 if prepend_origin else n
    zeros = []
    tol = REL_TOL
    if want > 0:
        f, fdf = _target(spec, kind)
        if derivative and spec.delta == 0.0:
            start = max(spec.nu * (1.0 - 1e-9), 1e-6)  # nu <= j'_{nu,1}
        else:
            start = 1e-6
        # two zeros of C' with delta > 0 may straddle nu closer than a step
        node = spec.nu if derivative and spec.delta > 0.0 else 0.0
        x0 = start
        f0 = f(x0)
        # the sign as x -> 0+: C > 0; C' < 0, but J'_nu > 0 for nu > 0
        if (f0 > 0.0) != (not derivative or (spec.delta == 0.0 and spec.nu > 0.0)):
            zeros.append(_below_start(f, x0, f0))
        while len(zeros) < want:
            x1 = x0 + SCAN_STEP
            if x0 < node < x1:
                x1 = node
            if x1 > X_MAX:
                raise DomainError("scan exceeded the supported box x <= 400")
            f1 = f(x1)
            if f1 == 0.0:
                zeros.append(x1)
                x1 += 1e-9
                f1 = f(x1)
            elif (f0 > 0.0) != (f1 > 0.0):
                z, ztol = _refine(fdf, x0, x1, f0, f1)
                zeros.append(z)
                tol = max(tol, ztol)
            x0, f0 = x1, f1
    if prepend_origin:
        zeros = [0.0] + zeros
    return tuple(zeros), tol


def find_zeros(spec: CylinderSpec, kind: EvalKind, n: int) -> ZeroSequence:
    """Return the first n positive zeros of C (or C') for the given spec.

    Requires n >= 1 and n*pi + nu + 20 <= 400 so that the scan stays inside
    the evaluation box.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if n * math.pi + spec.nu + 20.0 > X_MAX:
        raise DomainError(
            f"n={n} zeros at nu={spec.nu:g} would leave the box x <= {X_MAX:g}"
        )
    zs, tol = _find_zeros_cached(spec, kind, n)
    return ZeroSequence(spec=spec, kind=kind, zeros=zs, refined_to=tol)


def zero_trajectory(angle: MixingAngle, kind: EvalKind, s: int, nu_grid) -> Trajectory:
    """Track the s-th zero as a function of the order over nu_grid."""
    s = int(s)
    if s < 1:
        raise DomainError(f"zero index must be >= 1, got {s}")
    grid = [float(v) for v in nu_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("nu_grid must be strictly increasing")
    samples = []
    for nu in grid:
        seq = find_zeros(CylinderSpec.of(nu, angle.delta), kind, s)
        samples.append((nu, seq.zeros[s - 1]))
    return Trajectory(s=s, kind=kind, angle=angle, samples=tuple(samples))
