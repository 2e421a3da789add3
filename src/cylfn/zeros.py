"""Enumeration of positive zeros of cylinder functions and their derivatives.

Newton's method on the phase (Heitman, Bremer and Rokhlin, J. Comput. Phys.
290, 2015).  With theta = arg(J + iY), C = |J + iY| cos(theta + delta) and
theta' = 2/(pi x (J^2 + Y^2)) > 0 (DLMF 10.18); C' likewise with phi = arg(J'
+ iY') and phi' = 2(1 - nu^2/x^2)/(pi x (J'^2 + Y'^2)).  Each zero is an
integer crossing of u = (theta + delta)/pi + 1/2 (phi for C'), so it is
sought at a known index and none is skipped.  For C, u rises from delta/pi
at 0+.  For C', u falls from 1 + delta/pi while J', Y' > 0, on (0, nu], so
through 1 at most once, then rises.  The branch of arg is the one nearest
the Debye term sqrt(x^2 - nu^2) - nu arccos(nu/x) - pi/4 (-pi/4 for x <= nu;
+ pi/2 for phi): within pi/4 below nu, and tested above.

By Nicholson's formula (Watson 13.73), theta' <= 1 with theta convex for nu
>= 1/2, theta' >= 1 with theta concave below, and u - x/pi -> omega = 1/4 -
nu/2 + delta/pi.  So the zero at u = m lies between x + pi (m - u(x)), for
any x below it, and pi (m - omega); for C' above nu too, with omega + 1/2, as
phi' <= 1 there.  Iterates fall from the right of a convex phase and rise
from the left of a concave one; a step that leaves the bracket bisects it.
u is rounded to about 2e-16 absolute, which moves x by that over x u': too
far where the crossing is flat (the first zero of C' as delta -> 0+, of C as
delta -> pi-).  So near an integer m the offset is read from f = |H| sin(pi
u) instead, as u - m = asin((-1)^m f/|H|)/pi, with f = cos(delta) Re H -
sin(delta) Im H from the same H: f's rounding scales with its own small
terms, not with |H|.  Every integer level floor(u), the walk's first index
included, is read the same way: within a quarter of m, u >= m where (-1)^m f
>= 0.

The inverse phase x(u) is nonoscillatory and smooth, and a pass gives x' =
1/u' on it.  So each zero from the 13th above the start on is seeded at u = m
on the cubic Hermite interpolant of x(u) through the last passes of the two
zeros before.  Nearer the turning point x = nu, where the interpolant misses
by a median 1.2e-3 relative at the 4th zero, the first twelve are seeded
from the Debye expansions (DLMF 10.19.6, 10.19.8): with r = sqrt(x^2 - nu^2),
H ~ A exp(i (r - nu arccos(nu/x) - pi/4)) S, S = sum_k U_k(p)/nu^k at p = -i
nu/r (V_k for H', whose phase adds pi/2), U_k and V_k the polynomials of DLMF
10.41.10-11.  In y = 1/r and q = nu^2/r^2, and through U_3 (V_3), Im S = y (a0
+ a1 q)/24 + y^3 (b0 + b1 q + b2 q^2 + b3 q^3)/414720 and Re S = 1 + y^2 (c0 +
c1 q + c2 q^2)/1152, the integers in _DEBYE, so nu = 0 is no special case.
The zero at u = m is seeded at the root x > nu of r - nu arccos(nu/x) + arg S
= pi (m - omega - nu/2).  Zeros 2 to 12 start Newton from the last pass's step
x + (m - u)/u', and its last step takes the first term's curvature once what
that leaves is below 2e-10 x: the model's error is 3e-8 relative at the
4th zero and 4e-11 at the 12th.  The first zero takes S to its U_1 (V_1) term
alone, whose arg is the (mu - 1)/(8x) of DLMF 10.18.18 (the (mu + 3)/(8x) of
10.18.21, mu = 4 nu^2) at large x: through U_3 it took more passes for C' next
to nu.  It starts from the root of the first term alone (_debye), whose left
side is convex and increasing.  Near nu the left side is neither (for C' the
first term's falls there first), so the steps are kept right of nu and capped,
and a search that runs out of them returns its start, here the one-term root.
For C' with t < 1 that root is the seed itself: there the V_1 term's root
took more passes.
A first zero whose right side is not positive is seeded at the start pass's
step x + (m - u)/u', or at the bracket's top where u' = 0.  Every seed is
clamped to the bracket.  Newton from x ends on x - s once the step s falls
below REL_TOL max(1, x).  On a larger step it ends, without the pass that
would confirm it, on the third-order step x + d from the same pass, once a
certified bound on |z - (x + d)| is below u's rounding, 2e-16 max(1, x).

The same pass gives kappa = u''/(2u'): u''/u' = -1/x - 2 Re(conj(H) H')/|H|^2
for C, and with H'' = -H'/x - (1 - nu^2/x^2) H, 1/x + 2 (1 - nu^2/x^2)
Re(conj(H') H)/|H'|^2 + (2 nu^2/x^3)/(1 - nu^2/x^2) for C', undefined at x =
nu, where phi' = 0 (and there no halt reads it).
With w = pi u', kappa = w'/(2w) obeys the Riccati equation kappa' = Q +
kappa^2 - w^2 of the phase's amplitude, with Q = 1 - (nu^2 - 1/4)/x^2 for C
(the normal form of Bessel's equation) and Q = g - T, g = 1 - nu^2/x^2, T =
(3x^4 + 10 nu^2 x^2 - nu^4)/(4x^2 (x^2 - nu^2)^2) for C' (from (a v')' + v/x
= 0, a = x/(x^2 - nu^2), which x H' solves).  With s0 = -s = (m - u)/u', the
inverse phase has x' = 1/u', x'' = -2 kappa/u'^2 and x''' = (8 kappa^2 - 2
kappa')/u'^3, so Taylor's theorem in u from u(x) to m gives z = x + d + R, d
= s0 - kappa s0^2 + (4 kappa^2 - kappa') s0^3/3, with R = x''''(u*) (s0
u'(x))^4/24 at some u* between, where x(u*) lies between x and z.  From
kappa'' = Q' + 2 kappa kappa' - 4 kappa w^2 (w' = 2 kappa w), x'''' u'^4 = 28
kappa kappa' - 2 kappa'' - 48 kappa^3 = 24 kappa Q - 24 kappa^3 - 16 kappa
w^2 - 2 Q'.

The bound holds on I = [x - 2|s|, x + 2|s|], which must lie above 0 (above
nu for C', so that w > 0).  On I, |Q| <= q and |Q'| <= q1, taken at y = x -
2|s| from bounds that fall with y: for C, q = 1 + |nu^2 - 1/4|/y^2 and q1 = 2
|nu^2 - 1/4|/y^3; for C', where 0 <= g < 1 and T >= 0, so |Q| <= 1 + T, q = 1
+ (3y^4 + 10 nu^2 y^2 + nu^4)/(4y^2 (y^2 - nu^2)^2), and, as Q = 1 - (nu^2 -
1/4)/x^2 - 1/D - 3 nu^2/D^2, D = x^2 - nu^2 (T in partial fractions), q1 = 2
|nu^2 - 1/4|/y^3 + 2y (D + 6 nu^2)/D^3 at y.  The guard: c = |kappa(x)| +
sqrt(q) + w(x) and 128 |s| c <= 1.  While |kappa| <= 2c on I, w^2 <= e^(1/8)
w(x)^2 there, so |kappa'| <= 6.2 c^2 and |kappa| <= 1.1 c: it holds on all of
I, and then |kappa'| <= 2.35 c^2 and |kappa| <= K = |kappa(x)| + 5 |s| c^2.
As u'' = 2 kappa u' and K |s| < 0.0082, u' stays within a factor e^(4K|s|) <
1.04 of u'(x) on I: u - m changes sign between x and x - 2s, so z lies in I,
and (u'(x)/u')^4 <= e^(16 K |s|) <= 1.15.  So |z - (x + d)| <= 1.15 s^4 (K (q
+ K^2 + 0.76 w(x)^2) + q1/12), and the search ends on x + d once that is
below 2e-16 max(1, x).  The errors of kappa, w and Q move x + d by about
1e-14 c s^2 <= 1e-16 |s|, far below u's rounding.  As K >= 5 |s| and q >= 1,
a halting step stays below 5.1e-4 max(1, x)^(1/5).  TestCertifiedHalt checks
the halt against the oracle at 60 digits, and TestPhasePremises kappa', Q and
the bounds q, q1.

As x -> 0+, C > 0, and C' < 0 except for C' = J'_nu > 0 with nu > 0.  J and
-Y are positive on (0, x0], x0 = max(nu, 1e-6), where u - delta/pi rises
within (0, 1/2); J' and Y' are positive on (0, nu], where J'/Y' is monotone.
So at most one zero of C lies in (0, x0] and of C' in (0, nu], there exactly
when f at x0 has lost its sign at 0+.  The start index floor(u(x0)) reads
u's side of its integer from this sign test's own f, not from the pass's
f/|H|: past x = 24 the two come from different sums, and next to a zero on
x0 they can round to opposite signs, which would count that zero twice or
not at all.  For nu < 1e-6 the phase of C' rises again on
(nu, 1e-6] and can cross back: two zeros then lie below x0, and the sign
test sees neither.  The zero is where a/b = |tan delta| for the parts a, b
> 0 of H (H') that f weighs; at delta = 0, J'_nu's, where nu J_nu = x
J_{nu+1}, with J_{nu+1} = (nu/x) J_nu - J'_nu from the same pass.  Both
ratios are near powers of x, so the same Newton loop solves for their logs
in log x; a zero below 1e-300 raises IterationError.
"""

import math
from collections import namedtuple
from functools import lru_cache

from .special_fn import (
    CylinderSpec,
    DomainError,
    EvalKind,
    MixingAngle,
    X_MAX,
    _check_x,
    _cyl,
    cylinder,
    cylinder_and_prime,
)

__all__ = ["ZeroSequence", "Trajectory", "IterationError", "find_zeros", "zero_count", "zero_trajectory"]

REL_TOL = 1e-12
_MAX_ITER = 80
_START = 1e-6  # a zero below max(nu, 1e-6) is sought in log x, from here
_X_FLOOR = 1e-300  # ... down to here
_ROUNDING = 2e-16  # u's rounding: a third-order step whose certified error is below this,
                   # relative to max(1, x), ends the search


class IterationError(RuntimeError):
    """Zero refinement failed to converge."""


class ZeroSequence:
    """The first positive zeros of C or C', in increasing order.

    For spec (nu=0, delta=0) with kind DERIVATIVE the leading entry is 0.0:
    x = 0 is counted as the first zero of J'_0 by convention.  refined_to is
    the worst tolerance over the zeros, relative to max(1, x): REL_TOL for
    every zero that Newton ended, and the bracket's half-width for one whose
    refinement ran out of steps and fell back to its bisection bracket's
    midpoint.  len, indexing and iteration read the zeros.
    """

    __slots__ = ("spec", "kind", "zeros", "refined_to")

    def __init__(self, spec: CylinderSpec, kind: EvalKind, zeros: tuple, refined_to: float):
        for name, value in zip(self.__slots__, (spec, kind, zeros, refined_to)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self):
        return self.spec, self.kind, self.zeros, self.refined_to

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "ZeroSequence(" + ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__) + ")"

    def __len__(self):
        return len(self.zeros)

    def __getitem__(self, i):
        return self.zeros[i]

    def __iter__(self):
        return iter(self.zeros)


class Trajectory(namedtuple("Trajectory", "s kind angle samples")):
    """Samples (nu, s-th zero) of one zero tracked across orders."""

    __slots__ = ()

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
    # the phase evaluator x -> (u, u', f/|H|, kappa) of the module docstring,
    # from one (H, H') evaluation; kappa = u''/(2u'), 0 where u' = 0 (C' at
    # x = nu), where it is undefined and no step uses it
    nu, lift = spec.nu, spec.delta / math.pi + 0.5
    cos, sin = math.cos(spec.delta), math.sin(spec.delta)
    derivative = kind is EvalKind.DERIVATIVE
    pi, pi2, nn = math.pi, math.pi * math.pi, nu * nu
    atan2, acos, sqrt = math.atan2, math.acos, math.sqrt
    offset = 0.25 if derivative else -0.25  # the Debye term's constant, in units of pi

    def phase(x):
        h, hp = _cyl(nu, 0.0, x, True)
        j, y, jp, yp = h.real, h.imag, hp.real, hp.imag
        if derivative:
            re, im, g = jp, yp, 1.0 - (nu / x) ** 2
        else:
            re, im, g = j, y, 1.0
        t = atan2(im, re) / pi
        est = offset
        if x > nu:
            est += (sqrt(x * x - nn) - nu * acos(nu / x)) / pi
        t += 2.0 * round(0.5 * (est - t))
        hh = re * re + im * im
        dot = (j * jp + y * yp) / hh
        if not derivative:
            kappa = -0.5 / x - dot
        elif g:
            kappa = 0.5 / x + g * dot + nn / (x * x * x * g)
        else:
            kappa = 0.0
        return t + lift, (2.0 / (pi2 * x)) * g / hh, (cos * re - sin * im) / sqrt(hh), kappa

    return phase


def _riccati_q(nu, derivative, x):
    # Q of the module docstring at x (above nu for C')
    q = 1.0 - (nu * nu - 0.25) / (x * x)
    if derivative:
        d = x * x - nu * nu
        q -= (1.0 + 3.0 * nu * nu / d) / d
    return q


def _reach(nu, derivative, x, s, kappa, dw):
    # (r, q, q1, c) of the module docstring's bounds on I = [x - r, x + r],
    # r = 2|s|, from the pass at x with u' = dw and u''/(2u') = kappa: |Q|
    # <= q and |Q'| <= q1 on I; None where I is not above 0 (nu for C') or
    # 64 r c > 1
    r = 2.0 * abs(s)
    lo, n2 = x - r, nu * nu
    l2 = lo * lo
    if derivative:
        if not lo > nu:
            return None
        d = l2 - n2
        q = 1.0 + (3.0 * l2 * l2 + 10.0 * n2 * l2 + n2 * n2) / (4.0 * l2 * d * d)
        q1 = 2.0 * lo * (d + 6.0 * n2) / (d * d * d)
    elif lo > 0.0:
        q, q1 = 1.0 + abs(n2 - 0.25) / l2, 0.0
    else:
        return None
    q1 += 2.0 * abs(n2 - 0.25) / (l2 * lo)
    c = abs(kappa) + math.sqrt(q) + math.pi * dw
    return None if 64.0 * r * c > 1.0 else (r, q, q1, c)


def _cubic_bound(nu, derivative, x, s, kappa, dw):
    # the third-order end x + d of the module docstring, from the pass at x
    # with u' = dw and u''/(2u') = kappa and its Newton step s = -s0, and the
    # certified bound on |z - (x + d)|: (inf, x) where it does not hold
    on = _reach(nu, derivative, x, s, kappa, dw)
    if on is None:
        return math.inf, x
    r, q, q1, c = on
    w, s2 = math.pi * dw, s * s
    k_sup, w2 = abs(kappa) + 2.5 * r * c * c, w * w
    bound = 1.15 * s2 * s2 * (k_sup * (q + k_sup * k_sup + 0.76 * w2) + q1 / 12.0)
    cube = kappa * kappa + (w2 - _riccati_q(nu, derivative, x)) / 3.0  # (4 kappa^2 - kappa')/3
    return bound, x - s * (1.0 + s * (kappa + s * cube))


def _refine(phase, m, x, a, b, nu=None, derivative=False):
    # Newton on u(x) = m from x, u - m changing sign once between a (u < m)
    # and b (u > m), in either order; a step that leaves the bracket bisects
    # it.  Near m, u - m is read from f/|H| (module docstring), except where
    # |H|^2 overflows: there u' = 0 and f/|H| reads 0.  Ends on a step below
    # REL_TOL, or, given the walk's nu and kind, on the third-order step
    # where its certified error (_cubic_bound) is below u's rounding.
    # Returns the zero, the tolerance achieved and the last (x, u, u').
    for _ in range(_MAX_ITER):
        w, dw, s, k = phase(x)
        e = w - m
        if -0.25 < e < 0.25 and dw:
            e = math.asin(-s if m & 1 else s) / math.pi
        if e < 0.0:
            a = x
        else:
            b = x
        step = e / dw if dw else math.inf
        xn = x - step
        scale = x if x > 1.0 else 1.0
        if abs(step) > REL_TOL * scale:
            if not (a < xn < b or b < xn < a):
                xn = 0.5 * (a + b)
            elif nu is not None:
                bound, z = _cubic_bound(nu, derivative, x, step, k, dw)
                if bound <= _ROUNDING * scale:
                    return z, REL_TOL, (x, w, dw)
            if abs(xn - x) > REL_TOL * (xn if xn > 1.0 else 1.0):
                x = xn
                continue
        return xn, REL_TOL, (x, w, dw)
    hi = max(1.0, a, b)
    if abs(b - a) <= 1e-9 * hi:
        # bracket midpoint: off the zero by at most half the bracket
        return 0.5 * (a + b), 0.5 * abs(b - a) / hi, (x, w, dw)
    raise IterationError(f"zero refinement did not converge in {_MAX_ITER} steps on [{a}, {b}]")


def _origin(spec: CylinderSpec, kind: EvalKind, hi):
    # the one zero below hi = max(nu, 1e-6) (module docstring), by _refine
    # at level 0 in t = log(x / hi) <= 0, so that its step test is relative
    # in x and t keeps x's last bits near hi: r = log(a/b) - log|tan delta|
    # for (a, b) = (J, -Y), (J', Y'), or (-J'_0, Y'_0) for C' at nu = 0 past
    # pi/2; at delta = 0, r = log(x J_{nu+1} / (nu J_nu)) = -log1p(J'_nu /
    # J_{nu+1}), near 2 log x, with J_{nu+1} = (nu/x) J_nu - J'_nu
    nu, derivative = spec.nu, kind is EvalKind.DERIVATIVE
    cos, sin = math.cos(spec.delta), math.sin(spec.delta)
    sa, sb = (math.copysign(1.0, cos), 1.0) if derivative else (1.0, -1.0)
    cos = abs(cos)

    def phase(t):
        x = hi * math.exp(t)
        h = _cyl(nu, 0.0, x, h=True)
        if sin == 0.0:
            j, b = h[0].real, (nu / x) * h[0].real - h[1].real
            r = math.log(b / j) - math.log(nu / x)
            if abs(r) < 0.25:
                r = -math.log1p(h[1].real / b)
            return r, x * (j / b + b / j) - 2.0 * nu, math.sin(math.pi * r), None
        a, b = sa * h[derivative].real, sb * h[derivative].imag
        if not (a > 0.0 and b < math.inf):
            raise OverflowError(f"|H| leaves the double range at nu={nu!r}, x={x!r}")
        p, q = (sa * (nu / x - 1.0), nu / x + 1.0) if derivative else (1.0, 1.0)
        r = math.log(a) - math.log(b) + math.log(cos / sin)
        if abs(r) < 0.25:  # from f's own difference, not from two large logs
            r = math.log1p((cos * a - sin * b) / (sin * b))
        return r, (2.0 / math.pi) * (p / a) * (q / b), math.sin(math.pi * r), None

    a, t, b = (math.log(v / hi) for v in (_X_FLOOR, _START, hi))
    t, tol, (tl, *_) = _refine(phase, 0, t, a, b)
    if t - a <= 2.0 * REL_TOL:  # _refine stops within REL_TOL of a, up to t's rounding
        raise IterationError(f"the first zero lies below x = {_X_FLOOR:g}")
    xl = hi * math.exp(tl)  # as evaluated; hi * exp(t) would add a rounding of its own
    return xl - xl * (tl - t), tol  # moved by the last step, to first order


def _level(w, s):
    # floor(u) from u = w and s = f, or f/|H|, at one x: within a quarter of
    # an integer m, u - m has the sign of (-1)^m f, u at m where f = 0
    m = round(w)
    return m - ((-s if m & 1 else s) < 0.0) if abs(w - m) < 0.25 else math.floor(w)


def _below(spec: CylinderSpec, kind: EvalKind, x):
    # (whether a zero lies below x <= max(nu, 1e-6), f(x)): f(x) has the other sign
    # than at 0+.  The start level reads u's side of an integer from this f
    derivative = kind is EvalKind.DERIVATIVE
    fx = cylinder_and_prime(spec, x)[1] if derivative else cylinder(spec, x)
    return (fx > 0.0) != (not derivative or (spec.delta == 0.0 and spec.nu > 0.0)), fx


def _debye(nu, t):
    # the root x > nu of sqrt(x^2 - nu^2) - nu arccos(nu/x) = t > 0, by Newton
    # from x = t + pi nu/2, right of it: the left side is convex and increasing,
    # and exceeds x - pi nu/2, so the iterates fall to the root.  arccos(nu/x)
    # is taken as atan2(r, nu), which keeps its digits as x -> nu
    x = t + 0.5 * math.pi * nu
    while True:
        r = math.sqrt((x - nu) * (x + nu))
        step = (r - nu * math.atan2(r, nu) - t) * x / r
        x -= step
        if step <= 1e-12 * x:
            return x


# Debye's S through U_3 for C and V_3 for C' (module docstring), as its
# integers ((a0, a1), (c0, c1, c2), (b0, b1, b2, b3)) over 24, 1152 and 414720
_DEBYE = {
    False: ((-3, -5), (-81, -462, -385), (30375, 369603, 765765, 425425)),
    True: ((9, 7), (135, 594, 455), (-42525, -451737, -883575, -475475)),
}


def _debye2(nu, t, terms, x):
    # the root x > nu of r - nu atan2(r, nu) + arg S = t (module docstring),
    # S through the given terms, by Newton from x > nu; a step that would
    # cross nu halves the distance to nu instead.  The last step s takes the
    # first term's curvature, x - s - q s^2/(2x) (its F''/F' is q/x), once
    # what that leaves, about (q^2 |s|/x + y^2) s^2/x (y^2 for the later
    # terms' curvature), is below 2e-10 x, under the model's own error; a
    # search that runs out of steps returns its start, for the first zero
    # _debye's root
    (a0, a1), (c0, c1, c2), (b0, b1, b2, b3) = terms
    n2, atan2, start = nu * nu, math.atan2, x
    for _ in range(8):
        r = math.sqrt((x - nu) * (x + nu))
        y = 1.0 / r
        yy = y * y
        q = n2 * yy
        im = y * ((a0 + a1 * q) / 24.0 + yy * (b0 + q * (b1 + q * (b2 + q * b3))) / 414720.0)
        re = 1.0 + yy * (c0 + q * (c1 + q * c2)) / 1152.0
        # their slopes in y, where dy/dx = -x y^3
        di = (a0 + 3 * a1 * q) / 24.0 + yy * (3 * b0 + q * (5 * b1 + q * (7 * b2 + 9 * b3 * q))) / 414720.0
        dr = y * (2 * c0 + q * (4 * c1 + 6 * c2 * q)) / 1152.0
        slope = r / x - x * y * yy * (re * di - im * dr) / (re * re + im * im)
        step = (r - nu * atan2(r, nu) + atan2(im, re) - t) / slope
        if (q * q * abs(step) / x + yy) * step * step <= 2e-10 * x * x:
            return x - step - 0.5 * q * step * step / x
        x = x - step if x - step > nu else 0.5 * (x + nu)
    return start


def _hermite(x0, u0, d0, x1, u1, d1, m):
    # x(m) on the cubic Hermite interpolant of the inverse phase x(u) through
    # two passes (x, u, u'), where x' = 1/u': the Newton form on the nodes
    # u1, u1, u0, u0
    h = u1 - u0
    a0, a1 = 1.0 / d0, 1.0 / d1
    f01 = (x1 - x0) / h
    f001, f011 = (f01 - a0) / h, (a1 - f01) / h
    d = m - u1
    return x1 + d * (a1 + d * (f011 + (m - u0) * (f011 - f001) / h))


@lru_cache(maxsize=4096)
def _find_zeros_cached(spec: CylinderSpec, kind: EvalKind, n, top):
    # the zeros up to the n-th, or up to the last at x <= top, and the worst relative
    # tolerance achieved: the walk ends on the n-th, or on the first zero computed past top
    nu, delta, derivative = spec.nu, spec.delta, kind is EvalKind.DERIVATIVE
    zeros = [0.0] if derivative and nu == delta == 0.0 else []  # x = 0 counts as the first zero of J'_0
    worst, x = REL_TOL, max(nu, _START)
    below, f = _below(spec, kind, x) if len(zeros) < n else (False, None)
    if below:
        z, tol = _origin(spec, kind, x)
        if z <= top:
            zeros.append(z)
            worst = max(worst, tol)
    if len(zeros) == n or below and z > top:
        return tuple(zeros), worst
    phase = _target(spec, kind)
    w, dw, _, _ = phase(x)
    omega = 0.25 - 0.5 * nu + delta / math.pi + (0.5 if derivative else 0.0)
    first = _level(w, f) + 1
    three = _DEBYE[derivative]
    two = (three[0], (0, 0, 0), (0, 0, 0, 0))  # the first zero's, to the U_1 (V_1) term
    before, m = None, first - 1  # the last pass of the zero before the one before m
    while len(zeros) < n:
        m += 1
        # the bracket of the module docstring, past x = 400 only for a request beyond the box
        lo, hi = x + math.pi * (m - w), math.pi * (m - omega)
        if hi < lo:
            lo, hi = hi, lo
        if lo < x:
            lo = x
        seed = hi
        t = math.pi * (m - omega - 0.5 * nu)  # the Debye term at m
        if m - first >= 12:  # every pass lies above nu and x = 1 here, where u' > 0
            seed = _hermite(*before, x, w, dw, m)
        elif m == first and t > 0.0:
            seed = _debye(nu, t)
            if t >= 1.0 or not derivative:
                seed = _debye2(nu, t, two, seed)
        elif dw > 0.0:  # the Newton step from the last pass
            seed = x + (m - w) / dw
            if t > 0.0:
                seed = _debye2(nu, t, three, seed if seed > nu else _debye(nu, t))
        if seed < lo:
            seed = lo
        if seed > hi:
            seed = hi
        z, tol, last = _refine(phase, m, seed, lo, hi, nu, derivative)
        if z > top:
            break
        zeros.append(z)
        worst = max(worst, tol)
        before = x, w, dw
        x, w, dw = last
    return tuple(zeros), worst


def _count(n, rule):
    # a count of zeros or a zero's index: n == int(n) >= 1 (3.0 is 3), never truncated
    whole = n % 1 == 0  # False for nan and inf; exact for any int
    if not (whole and n >= 1):
        raise DomainError(f"{rule}{'' if whole else ' and an integer'}, got {n!r}")
    return int(n)


def find_zeros(spec: CylinderSpec, kind: EvalKind, n: int) -> ZeroSequence:
    """Return the first n positive zeros of C (or C') for the given spec.

    Requires n >= 1 and the n-th zero inside x <= 400: n <= zero_count(spec, kind, 400).
    """
    n = _count(n, "need n >= 1")
    zs, tol = _find_zeros_cached(spec, kind, n, X_MAX)
    if len(zs) < n:
        raise DomainError(f"n={n} zeros at nu={spec.nu:g} would leave the box x <= {X_MAX:g}")
    return ZeroSequence(spec=spec, kind=kind, zeros=zs, refined_to=tol)


def zero_count(spec: CylinderSpec, kind: EvalKind, x: float) -> int:
    """The number of zeros of C (or C') in (0, x], for 0 < x <= 400.

    x = 0 counts for J'_0, as in find_zeros.  It is the length of find_zeros'
    own walk, run up to the first zero past x, so it costs that walk and
    agrees with find_zeros bit for bit: at the k-th zero it returned, the
    count is k.  A first zero below 1e-300 raises IterationError, as there.
    """
    return len(_find_zeros_cached(spec, kind, math.inf, _check_x(x))[0])


def zero_trajectory(angle: MixingAngle, kind: EvalKind, s: int, nu_grid) -> Trajectory:
    """Track the s-th zero as a function of the order over nu_grid."""
    s = _count(s, "zero index must be >= 1")
    grid = [float(v) for v in nu_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("nu_grid must be strictly increasing")
    samples = tuple((nu, find_zeros(CylinderSpec.of(nu, angle.delta), kind, s)[s - 1]) for nu in grid)
    return Trajectory(s=s, kind=kind, angle=angle, samples=samples)
