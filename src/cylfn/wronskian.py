"""Wronskian of normalized cylinder functions and the interlacing equivalence.

With xi(x) = sqrt(x) C(x), the Wronskian W = xi_a xi_b' - xi_a' xi_b has its
local extrema exactly at the merged zeros of the two cylinder functions, is
strictly monotone in between, and tends to (2/pi) sin((mu - nu) pi/2 +
delta_a - delta_b) at infinity.  Interlacing of the zeros is equivalent to W
keeping one sign beyond the first zero, so sign changes are counted from the
extremum values alone, by one rule: over every extremum for the profile, up
to the last zero of each side for the equivalence check.
"""

import math
from collections import namedtuple

from .interlace import COINCIDENCE_TOL, check_interlaced
from .reports import VerificationReport
from .special_fn import CylinderSpec, EvalKind, X_MAX, cylinder_and_prime
from .zeros import find_zeros

__all__ = [
    "DegenerateSpecError",
    "WronskianProfile",
    "xi",
    "xi_prime",
    "wronskian_value",
    "wronskian_asymptote",
    "check_derivative_identity",
    "wronskian_profile",
    "interlace_wronskian_equivalence",
]


_DIFF_STEP = 1e-4  # centered-difference step of check_derivative_identity


class DegenerateSpecError(ValueError):
    """Both specs name the same function; W vanishes identically."""


_PROFILE_FIELDS = "spec_a spec_b extrema sign_changes asymptote window tail_value coincident"


class WronskianProfile(namedtuple("WronskianProfile", _PROFILE_FIELDS, defaults=(False,))):
    """Extremum structure of W on a finite window.

    extrema entries are (position, value, tag) with tag "A-zero", "B-zero" or
    "coincident"; coincident extrema (zero value by construction) are flagged
    and excluded from the sign-change count.  tail_value samples W past the
    window for comparison with the asymptote.
    """

    __slots__ = ()


def _xi_pair(spec: CylinderSpec, x: float):
    c, cp = cylinder_and_prime(spec, x)
    r = math.sqrt(x)
    return r * c, c / (2.0 * r) + r * cp


def xi(spec: CylinderSpec, x: float) -> float:
    """Normal-form solution sqrt(x) C(x)."""
    return _xi_pair(spec, x)[0]


def xi_prime(spec: CylinderSpec, x: float) -> float:
    """Derivative of sqrt(x) C(x)."""
    return _xi_pair(spec, x)[1]


def wronskian_value(spec_a: CylinderSpec, spec_b: CylinderSpec, x: float) -> float:
    """W(sqrt(x) C_a, sqrt(x) C_b) at x."""
    fa, fpa = _xi_pair(spec_a, x)
    fb, fpb = _xi_pair(spec_b, x)
    w = fa * fpb - fpa * fb
    if not math.isfinite(w):  # inf - inf where both products overflow
        raise OverflowError(f"W leaves the double range at nu={spec_a.nu!r}, mu={spec_b.nu!r}, x={x!r}")
    return w


def wronskian_asymptote(spec_a: CylinderSpec, spec_b: CylinderSpec) -> float:
    """Limit of W at infinity: (2/pi) sin((mu - nu) pi/2 + delta_a - delta_b)."""
    return (2.0 / math.pi) * math.sin(
        0.5 * (spec_b.nu - spec_a.nu) * math.pi + spec_a.delta - spec_b.delta
    )


def check_derivative_identity(spec_a: CylinderSpec, spec_b: CylinderSpec, x: float) -> float:
    """Residual of W' = (mu^2 - nu^2)/x^2 * xi_a xi_b at x.

    W' comes from a centered difference with step 1e-4, whose points x -
    1e-4 and x + 1e-4 must lie in the box (0, 400], else ValueError.  The
    residual is relative to max(1, |rhs|) so that large-amplitude small-x
    regions are not penalized for ordinary finite-difference truncation error.
    """
    x = float(x)
    h = _DIFF_STEP
    if x - h <= 0.0:
        raise ValueError(f"need x > {h:g}")
    if x + h > X_MAX:
        raise ValueError(f"need x <= {X_MAX:g} - {h:g}, got {x!r}")
    num = (wronskian_value(spec_a, spec_b, x + h) - wronskian_value(spec_a, spec_b, x - h)) / (
        2.0 * h
    )
    nu = spec_a.nu
    mu = spec_b.nu
    rhs = (mu * mu - nu * nu) / (x * x) * xi(spec_a, x) * xi(spec_b, x)
    return abs(num - rhs) / max(1.0, abs(rhs))


def _sign_changes(extrema, top=math.inf):
    # (sign changes, signs counted) over the extrema at x <= top; coincident or 0 has no sign
    signs = [v > 0.0 for (z, v, t) in extrema if t != "coincident" and v != 0.0 and z <= top]
    return sum(s0 != s1 for s0, s1 in zip(signs, signs[1:])), len(signs)


def wronskian_profile(spec_a: CylinderSpec, spec_b: CylinderSpec, n: int) -> WronskianProfile:
    """Extremum positions/values of W from the first n zeros of each function.

    Each extremum value is wronskian_value at the merged zero, where W is the
    closed form -xi_a'(z) xi_b(z) (a zero of C_a) or xi_a(z) xi_b'(z) (of C_b);
    no extremum search is performed.  extrema and sign_changes run over every
    merged zero (window), past the range both sequences cover, which is all
    that check_interlaced judges.
    """
    if spec_a == spec_b:
        raise DegenerateSpecError("wronskian profile of a spec against itself is identically 0")
    za = find_zeros(spec_a, EvalKind.FUNCTION, n).zeros
    zb = find_zeros(spec_b, EvalKind.FUNCTION, n).zeros
    merged = sorted([(z, "A-zero") for z in za] + [(z, "B-zero") for z in zb])
    points = []
    for z, tag in merged:
        if points and z - points[-1][0] <= COINCIDENCE_TOL and points[-1][1] not in (tag, "coincident"):
            points[-1] = (points[-1][0], "coincident")
        else:
            points.append((z, tag))
    extrema = tuple((z, 0.0 if t == "coincident" else wronskian_value(spec_a, spec_b, z), t) for z, t in points)
    x_hi = merged[-1][0]
    return WronskianProfile(
        spec_a=spec_a,
        spec_b=spec_b,
        extrema=extrema,
        sign_changes=_sign_changes(extrema)[0],
        asymptote=wronskian_asymptote(spec_a, spec_b),
        window=(merged[0][0], x_hi),
        tail_value=wronskian_value(spec_a, spec_b, min(x_hi + 10.0 * math.pi, X_MAX)),
        coincident=any(t == "coincident" for _, _, t in extrema),
    )


def interlace_wronskian_equivalence(
    spec_a: CylinderSpec, spec_b: CylinderSpec, n: int
) -> VerificationReport:
    """Test: W root-free beyond its first extremum <=> zeros interlaced.

    Both sides are evaluated on the common covered window of the two n-term
    zero sequences, sign changes by the profile's rule over the extrema
    there; passed means the two verdicts agree.
    """
    if spec_a == spec_b:
        raise DegenerateSpecError("equivalence needs two distinct functions")
    prof = wronskian_profile(spec_a, spec_b, n)
    za = find_zeros(spec_a, EvalKind.FUNCTION, n)
    zb = find_zeros(spec_b, EvalKind.FUNCTION, n)
    x_hi = min(za.zeros[-1], zb.zeros[-1])
    sc, counted = _sign_changes(prof.extrema, x_hi)
    rep = check_interlaced(za, zb)
    agree = (sc == 0) == rep.interlaced
    counterexample = None
    if not agree:
        counterexample = {
            "sign_changes": sc,
            "interlaced": rep.interlaced,
            "first_violation": rep.first_violation,
            "window_hi": x_hi,
        }
    params = dict(nu=spec_a.nu, delta=spec_a.delta, mu=spec_b.nu, delta_bar=spec_b.delta, n=len(za.zeros))
    details = {"sign_changes": sc, "interlaced": rep.interlaced}
    checks = counted + rep.pairs_checked
    return VerificationReport.of("wronskian-equivalence", params, checks, float(sc), counterexample, details)
