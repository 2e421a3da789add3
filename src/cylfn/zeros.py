"""Enumeration of positive zeros of cylinder functions and their derivatives.

Zeros are located by a sign-change scan with step pi/8 (consecutive zeros in
the supported box are empirically more than pi/2 apart after the first, so the
scan cannot skip a pair) and refined by Newton iteration safeguarded by a
bisection bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    nu = spec.nu
    if kind is EvalKind.FUNCTION:
        def f(x):
            return cylinder(spec, x)

        def fprime(x):
            return cylinder_and_prime(spec, x)[1]
    else:
        def f(x):
            return cylinder_and_prime(spec, x)[1]

        def fprime(x):
            # C'' from the Bessel equation: x^2 C'' + x C' + (x^2 - nu^2) C = 0
            c, cp = cylinder_and_prime(spec, x)
            return -cp / x - (1.0 - (nu * nu) / (x * x)) * c
    return f, fprime


def _refine(f, fprime, lo, hi, flo, fhi):
    # Newton with a maintained bracket; bisects whenever Newton misbehaves.
    # Returns (zero, relative tolerance achieved).
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x, REL_TOL
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        d = fprime(x)
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


@lru_cache(maxsize=4096)
def _find_zeros_cached(spec: CylinderSpec, kind: EvalKind, n: int):
    # (zeros, worst relative tolerance achieved over them)
    prepend_origin = (
        kind is EvalKind.DERIVATIVE and spec.nu == 0.0 and spec.delta == 0.0
    )
    want = n - 1 if prepend_origin else n
    zeros = []
    tol = REL_TOL
    if want > 0:
        f, fprime = _target(spec, kind)
        if kind is EvalKind.DERIVATIVE and spec.delta == 0.0:
            start = max(spec.nu * (1.0 - 1e-9), 1e-6)  # nu <= j'_{nu,1}
        else:
            start = 1e-6
        x0 = start
        f0 = f(x0)
        while len(zeros) < want:
            x1 = x0 + SCAN_STEP
            if x1 > X_MAX:
                raise DomainError("scan exceeded the supported box x <= 400")
            f1 = f(x1)
            if f1 == 0.0:
                zeros.append(x1)
                x1 += 1e-9
                f1 = f(x1)
            elif (f0 > 0.0) != (f1 > 0.0):
                z, ztol = _refine(f, fprime, x0, x1, f0, f1)
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
