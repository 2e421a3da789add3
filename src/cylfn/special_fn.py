"""Evaluation of Bessel J/Y and general cylinder functions.

A cylinder function is C(x; nu, delta) = cos(delta) J_nu(x) - sin(delta) Y_nu(x).
Supported domain: order 0 <= nu <= 30, argument 0 < x <= 400, double precision.

Strategy, all in plain double arithmetic, with one seam at x = 24.  For
x <= 24 one pass yields J, Y, J' and Y' together (the bessjy design of
Numerical Recipes): the continued fraction CF1 gives J_{nu+1}/J_nu, a
recurrence on that ratio runs down to a base order mu, Temme's series
(x < 2) or Steed's CF2 gives Y_mu and Y_{mu+1}, the Wronskian fixes the
scale of J, and forward recurrence on Y climbs back to nu.  For x > 24 one
path serves J, Y and every mixing angle: C itself at the base orders
frac(nu) and frac(nu) + 1 from one pass of the Hankel P/Q sums for both
base orders, then forward recurrence on C up to nu, and C'_nu = -C_{nu+1}
+ (nu/x) C_nu.  The zero finder's H = J + iY and H' come from the same two
paths.  No derivative comes from numerical differentiation.  Where |Y|, C
or C' exceeds the double range (x -> 0), evaluation raises OverflowError.
"""

import math
from collections import namedtuple
from enum import Enum
from operator import attrgetter

__all__ = [
    "DomainError",
    "Order",
    "MixingAngle",
    "CylinderSpec",
    "EvalKind",
    "bessel_j",
    "bessel_y",
    "cylinder",
    "cylinder_prime",
    "cylinder_and_prime",
    "NU_MAX",
    "X_MAX",
]

NU_MAX = 30.0
X_MAX = 400.0
_X_SERIES = 24.0  # continued fractions below, Hankel sums above
_ZERO_WEIGHT = 1e-15  # |cos(delta)| at most this skips J; pi - delta below it maps delta to 0


class DomainError(ValueError):
    """Argument outside the supported evaluation box."""


class Order(namedtuple("Order", "nu")):
    """Real order nu of a cylinder function, restricted to [0, 30].

    nu = 0 is admitted for the boundary cases built on J_0 / Y_0 (zero
    anchors, the first-zero-at-0 convention for J'_0, and the nu = 0 row of
    the inequality-chain checks).
    """

    __slots__ = ()

    def __new__(cls, nu: float):
        v = float(nu) + 0.0  # -0.0 becomes 0.0
        if not math.isfinite(v):
            raise DomainError(f"order must be finite, got {nu!r}")
        if v < 0.0 or v > NU_MAX:
            raise DomainError(f"order must lie in [0, {NU_MAX:g}], got {v!r}")
        return tuple.__new__(cls, (v,))

    _make = classmethod(lambda cls, it: cls(*it))  # validates, and so does _replace


class MixingAngle(namedtuple("MixingAngle", "delta")):
    """Mixing angle delta, normalized into [0, pi) on construction.

    delta and delta + pi give functions differing only by overall sign, with
    identical zeros, so the normalization loses nothing that matters here.
    Angles within the zero-weight threshold below pi, where C is J up to
    sign, normalize to 0: otherwise delta just below pi stays there while
    delta + pi rounds to 2 pi and normalizes to 0, flipping the sign of C.
    """

    __slots__ = ()

    def __new__(cls, delta: float):
        d = float(delta)
        if not math.isfinite(d):
            raise DomainError(f"angle must be finite, got {delta!r}")
        d = math.fmod(d, math.pi) + 0.0  # -0.0 becomes 0.0
        if d < 0.0:
            d += math.pi
        if d > math.pi - _ZERO_WEIGHT:
            d = 0.0
        return tuple.__new__(cls, (d,))

    _make = classmethod(lambda cls, it: cls(*it))  # validates, and so does _replace


class CylinderSpec(namedtuple("CylinderSpec", "order angle")):
    """Identifies one cylinder function C(x; nu, delta) up to sign."""

    __slots__ = ()

    # C-level getters: nu and delta are read on every evaluation
    nu = property(attrgetter("order.nu"), doc="The order nu.")
    delta = property(attrgetter("angle.delta"), doc="The mixing angle delta.")

    @staticmethod
    def of(nu: float, delta: float) -> "CylinderSpec":
        return CylinderSpec(Order(nu), MixingAngle(delta))


class EvalKind(Enum):
    FUNCTION = "function"
    DERIVATIVE = "derivative"


# ---------------------------------------------------------------------------
# x <= 24: J, Y, J' and Y' in one pass, plain double
# ---------------------------------------------------------------------------

# Taylor coefficients of 1/Gamma(1 + z) about z = 0, split by parity; frozen
# from a 40-digit evaluation, reproduced by tests/test_gamma.py
_RGAMMA1_EVEN = (
    1.0, -0.6558780715202539, 0.16653861138229148, -0.009621971527876973,
    -0.0011651675918590652, 0.0001280502823881162, -1.2504934821426706e-06,
    -2.056338416977607e-07, 5.002007644469223e-09, 1.0434267116911005e-10,
    -3.696805618642206e-12,
)
_RGAMMA1_ODD = (
    0.5772156649015329, -0.04200263503409524, -0.04219773455554433,
    0.0072189432466631, -0.00021524167411495098, -2.013485478078824e-05,
    1.133027231981696e-06, 6.116095104481416e-09, -1.18127457048702e-09,
    7.782263439905071e-12,
)

_EPS = 2.220446049250313e-16  # unit roundoff of a double, 2**-52
_TINY = 1e-300  # Lentz's stand-in for a vanishing denominator
_MAXIT = 10000  # no continued fraction or series here needs more than ~100 terms


def _y_temme(mu: float, x: float):
    # (Y_mu, x Y_{mu+1}) for |mu| <= 1/2, 0 < x < 2, by Temme's series
    # (J. Comput. Phys. 19, 1975).  Unlike the reflection formula it has no
    # 1/sin(mu pi) cancellation at or near integer orders.  x Y_{mu+1} stays
    # finite where Y_{mu+1} itself overflows (x -> 0 with mu > 0).
    h = 0.5 * x
    # g1 = (1/Gamma(1+mu) - 1/Gamma(1-mu)) / (2 mu), g2 = the mean of the two
    mm = mu * mu
    g1 = g2 = 0.0
    for a in reversed(_RGAMMA1_ODD):
        g1 = g1 * mm + a
    for a in reversed(_RGAMMA1_EVEN):
        g2 = g2 * mm + a
    pimu = math.pi * mu
    lg = math.log(2.0) - math.log(x)  # -log(h), finite where h underflows
    e = mu * lg
    fact = pimu / math.sin(pimu) if mu else 1.0
    sinhc = math.sinh(e) / e if e else 1.0
    f = (2.0 / math.pi) * fact * (-g1 * math.cosh(e) + g2 * sinhc * lg)
    ex = math.exp(e)
    p = ex / (math.pi * (g2 + mu * g1))
    q = 1.0 / (ex * math.pi * (g2 - mu * g1))
    half = 0.5 * pimu
    sinc = math.sin(half) / half if mu else 1.0
    r = math.pi * half * sinc * sinc
    # terms c_k (f_k + r q_k) for Y_mu and c_k p_k - k c_k (f_k + r q_k) for
    # -h Y_{mu+1}, with c_k = (-h^2)^k / k!
    d = -h * h
    c = 1.0
    s0 = f + r * q
    s1 = p
    for k in range(1, _MAXIT):
        f = (k * f + p + q) / (k * k - mm)
        c *= d / k
        p /= k - mu
        q /= k + mu
        t = c * (f + r * q)
        s0 += t
        u = c * p - k * t
        s1 += u
        if abs(t) + abs(u) < _EPS * (abs(s0) + abs(s1)):
            return -s0, -2.0 * s1
    raise ArithmeticError(f"Temme's series did not converge at mu={mu!r}, x={x!r}")


def _steed(mu: float, x: float):
    # p + iq = (J'_mu + i Y'_mu) / (J_mu + i Y_mu) for x >= 2, by Steed's
    # continued fraction CF2 (Barnett et al., Comput. Phys. Commun. 8, 1974),
    # evaluated by modified Lentz
    a = 0.25 - mu * mu
    pq = complex(-0.5 / x, 1.0)
    b = complex(2.0 * x, 2.0)
    d = 1.0 / b
    c = b + 1j * a / (x * pq)
    pq *= c * d
    for i in range(1, _MAXIT):
        a += 2.0 * i
        b += 2j
        d = 1.0 / (a * d + b)
        c = b + a / c
        dl = c * d
        pq *= dl
        if abs(dl - 1.0) < _EPS:
            return pq.real, pq.imag
    raise ArithmeticError(f"CF2 did not converge at mu={mu!r}, x={x!r}")


def _jy(nu: float, x: float):
    # (J_nu, Y_nu, J'_nu, Y'_nu) for nu >= 0 and 0 < x <= 24, after the
    # bessjy design of Numerical Recipes:
    # - CF1 gives r = J_{nu+1}/J_nu; its sign count gives the sign of J_{nu+1}
    # - the recurrence on that ratio runs down to mu = nu - nl (x >= 2) or
    #   mu + 1 (x < 2), multiplying up p = J_nu/J_mu or J_nu/J_{mu+1}; ratios
    #   cannot overflow where J and J' themselves span the double range
    # - Y_mu and Y_{mu+1} from Temme's series (x < 2) or Steed's CF2, with
    #   the Wronskian J_{mu+1} Y_mu - J_mu Y_{mu+1} = 2/(pi x) fixing J_mu
    #   (x >= 2) or J_{mu+1} (x < 2)
    # - forward recurrence on Y, stable, back up to nu
    # No ratio may divide by a J next to one of its zeros.  For x < 2, mu in
    # [-1/2, 1/2), and J_mu has a zero in [pi/2, 2) when mu < 0; J of order
    # >= 1/2 has none below pi.  For x >= 2, every order k that the
    # recurrence reaches lies above x - 1.5, below J_k's first zero
    # j_{k,1} > k + 1.5; nl = round(nu) would cross zeros of J there.
    nl = int(nu + 0.5) if x < 2.0 else max(0, int(nu - x + 1.5))
    mu = nu - nl
    # CF1: J_nu/J_{nu+1} = t/x, t = 2(nu+1) - x^2/(2(nu+2) - x^2/(...))
    xx = x * x
    b = 2.0 * nu + 2.0
    t = c = b
    d = 0.0
    sign = 1.0
    for _ in range(_MAXIT):
        b += 2.0
        d = b - xx * d
        if abs(d) < _TINY:
            d = _TINY
        d = 1.0 / d
        c = b - xx / c
        if abs(c) < _TINY:
            c = _TINY
        de = c * d
        t *= de
        if d < 0.0:
            sign = -sign
        if abs(de - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"CF1 did not converge at nu={nu!r}, x={x!r}")
    rn = r = x / t
    p = 1.0
    order = nu
    for _ in range(nl - 1 if x < 2.0 else nl):
        r = x / (2.0 * order - x * r)
        p *= r
        order -= 1.0
    if x < 2.0:
        ym, xy1 = _y_temme(mu, x)
        # s = J_mu/J_{mu+1} from r = J_{mu+2}/J_{mu+1}, or from CF1 when mu = nu
        # (p = J_nu/J_{mu+1} is s then); J_{mu+1} (x Y_mu - s x Y_{mu+1}) = 2/pi.
        # Where |s| > 1 that is divided through by s: s x Y_{mu+1}, about
        # 2(mu+1) Y_{mu+1}, overflows as x -> 0, and J_mu = s J_{mu+1} has no zero there
        if nl:
            s = 2.0 * (mu + 1.0) / x - r
        else:
            s = p = t / x
        # J' = J (nu/x - r) takes the ratio p last: as x -> 0, J_nu, and
        # J_nu/J_mu with it, can underflow where J' does not, while for nu >=
        # 1/2 (nu/x - r)/s stays near nu/(2 mu + 2) and J_mu near x^mu (for
        # nu < 1/2, mu = nu and J_nu/J_mu = 1)
        if abs(s) > 1.0:
            w = (2.0 / math.pi) / (x * ym / s - xy1)  # J_mu
            j = (p / s) * w
            jp = p * ((nu / x - rn) / s * w) if nl else (nu / x - rn) * w
        else:
            w = (2.0 / math.pi) / (x * ym - s * xy1)  # J_{mu+1}
            j, jp = p * w, p * ((nu / x - rn) * w)
        y1 = xy1 / x
    else:
        sp, sq = _steed(mu, x)
        g = sp - (mu / x - r)  # p - J'_mu/J_mu
        gam = g / sq  # Y_mu/J_mu
        # sign(J_mu) = sign(J_{nu+1}) sign(J_mu/J_{nu+1})
        jm = math.copysign(math.sqrt((2.0 / (math.pi * x)) / (g * gam + sq)), sign * p * rn)
        ym = gam * jm
        # Y_{mu+1} = (mu/x) Y_mu - Y'_mu, with Y'_mu = J_mu (gam p + q)
        y1 = (mu / x) * ym - jm * (gam * sp + sq)
        j = jm * p
        jp = (nu * j) / x - rn * j
    order = mu + 1.0
    for _ in range(nl):
        ym, y1 = y1, (2.0 * order / x) * y1 - ym
        order += 1.0
    return j, ym, jp, (nu / x) * ym - y1


# ---------------------------------------------------------------------------
# Large-x machinery (x > 24)
# ---------------------------------------------------------------------------


# Hankel term k multiplies the last by (4 mu^2 - (2k - 1)^2) / (8k x); in pairs
# (odd k for Q, even k + 1 for P), k = 1, 3, ..., 59, with the even 8k negated
# so that each term carries its slot's sign (+ - - + in turn).  All exact.
_HANKEL_TERMS = tuple(
    ((2.0 * k - 1.0) ** 2, 8.0 * k, (2.0 * k + 1.0) ** 2, -8.0 * (k + 1)) for k in range(1, 60, 2)
)


def _hankel_pq(mu: float, x: float):
    # (P, Q) at orders mu and mu + 1 (0 <= mu < 1) in one pass; for x > 24 the
    # terms fall below 1e-20 within 32, long before they grow near k = 2x.  Each
    # order stops adding at its first term below 1e-20, as its own pass would:
    # near mu = 1/2 later terms still move order mu's tiny Q.  Testing per pair
    # suffices, as a term past one below 1e-20 is smaller and cannot move P ~ 1.
    m0 = 4.0 * mu * mu
    mu1 = mu + 1.0
    m1 = 4.0 * mu1 * mu1
    p0 = p1 = a0 = a1 = 1.0
    q0 = q1 = 0.0
    for wq, dq, wp, dp in _HANKEL_TERMS:
        d = dq * x
        a0 *= (m0 - wq) / d
        a1 *= (m1 - wq) / d
        q0 += a0
        q1 += a1
        d = dp * x
        a0 *= (m0 - wp) / d
        a1 *= (m1 - wp) / d
        p0 += a0
        p1 += a1
        if -1e-20 < a0 < 1e-20:
            if -1e-20 < a1 < 1e-20:
                break
            a0 = 0.0
        elif -1e-20 < a1 < 1e-20:
            a1 = 0.0
    return p0, q0, p1, q1


def _cyl_large(nu: float, delta: float, x: float, h: bool = False):
    # (C, C') for x > 24: one pass of the Hankel sums for both base orders
    # mu = frac(nu) and mu + 1, then forward recurrence on C itself up to C_nu
    # and C_{nu+1}.  With h, and delta = 0, (H, H') for H = J + iY: Y is C at
    # delta = -pi/2, so cos t and sin t below become e^{it} and -i e^{it}.
    steps = int(nu)
    mu = nu - steps
    amp = math.sqrt(2.0 / (math.pi * x))
    # cos/sin of the phase t = x + phi by the angle-sum rule: rounding t
    # itself would cost up to ulp(x)/2 (3e-14 at x = 400) of phase
    phi = delta - (0.5 * mu + 0.25) * math.pi
    cx, sx = math.cos(x), math.sin(x)
    cp, sp = math.cos(phi), math.sin(phi)
    ct = cx * cp - sx * sp
    st = sx * cp + cx * sp
    if h:
        ct, st = complex(ct, st), complex(st, -ct)
    p0, q0, p1, q1 = _hankel_pq(mu, x)
    c0 = amp * (p0 * ct - q0 * st)
    # the phase of order mu + 1 is t - pi/2
    c1 = amp * (p1 * st + q1 * ct)
    order = mu + 1.0
    for _ in range(steps):
        c0, c1 = c1, (2.0 * order / x) * c1 - c0
        order += 1.0
    return c0, (nu / x) * c0 - c1


def _cyl(nu: float, delta: float, x: float, h: bool = False):
    # (C, C') = cos(delta) (J, J') - sin(delta) (Y, Y'); with h, and delta =
    # 0, (H, H') for H = J + iY, which the zero finder takes.  C' is left to
    # the callers that return it to check for overflow.  The one regime
    # test, x > 24, comes first, so that large-x calls pay one comparison.
    if x > _X_SERIES:
        return _cyl_large(nu, delta, x, h)
    j, y, jp, yp = _jy(nu, x)
    if h:
        return complex(j, y), complex(jp, yp)
    # a part of zero weight is skipped, so that delta = 0 gives J even where
    # Y overflows.  Y is skipped only at sin(delta) == 0: as x -> 0 it
    # outgrows J without bound, so even delta = 1e-16 moves C' and its first
    # zero.
    c = math.cos(delta)
    s = math.sin(delta)
    v0 = v1 = 0.0
    if abs(c) > _ZERO_WEIGHT:
        v0 += c * j
        v1 += c * jp
    if s != 0.0:
        v0 -= s * y
        v1 -= s * yp
    if not math.isfinite(v0):
        raise OverflowError(f"|C| overflows a double at nu={nu!r}, x={x!r}")
    return v0, v1


def _check_x(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0 or x > X_MAX:
        raise DomainError(f"argument must lie in (0, {X_MAX:g}], got {x!r}")
    return x


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order.

    Supported box: nu in [-1, 31], 0 < x <= 400.  The order window reaches
    past [0, 30] so that reflection and recurrence identities can be checked
    across the whole box.
    """
    nu = float(nu)
    x = _check_x(x)
    if not math.isfinite(nu) or nu < -1.0 or nu > 31.0:
        raise DomainError(f"bessel_j order must lie in [-1, 31], got {nu!r}")
    if nu >= 0.0:
        return _cyl(nu, 0.0, x)[0]
    # J_{-m} = cos(m pi) J_m - sin(m pi) Y_m = C_m(x; m pi) = -C_m(x; (m - 1) pi),
    # at an angle within pi/2 of 0, so that sin keeps its relative accuracy
    m = -nu
    return _cyl(m, m * math.pi, x)[0] if m <= 0.5 else -_cyl(m, (m - 1.0) * math.pi, x)[0]


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, order in [0, 30], 0 < x <= 400.

    Raises OverflowError where |Y| exceeds the double range (x -> 0).
    """
    nu = float(nu)
    x = _check_x(x)
    if not math.isfinite(nu) or nu < 0.0 or nu > NU_MAX:
        raise DomainError(f"bessel_y order must lie in [0, {NU_MAX:g}], got {nu!r}")
    return _cyl(nu, -0.5 * math.pi, x)[0]  # Y_nu = C_nu(x; -pi/2)


def cylinder(spec: CylinderSpec, x: float) -> float:
    """Evaluate C(x; nu, delta) = cos(delta) J_nu(x) - sin(delta) Y_nu(x)."""
    x = _check_x(x)
    return _cyl(spec.nu, spec.delta, x)[0]


def cylinder_prime(spec: CylinderSpec, x: float) -> float:
    """Evaluate C'(x; nu, delta) via C'_nu = -C_{nu+1} + (nu/x) C_nu."""
    return cylinder_and_prime(spec, x)[1]


def cylinder_and_prime(spec: CylinderSpec, x: float):
    """Evaluate (C, C') at x, sharing the order ladder between the two."""
    x = _check_x(x)
    c, cp = _cyl(spec.nu, spec.delta, x)
    if not -math.inf < cp < math.inf:  # no call on the hot path; NaN fails too
        raise OverflowError(f"|C'| overflows a double at nu={spec.nu!r}, x={x!r}")
    return c, cp

