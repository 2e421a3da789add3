"""Evaluation of Gamma, Bessel J/Y and general cylinder functions.

A cylinder function is C(x; nu, delta) = cos(delta) J_nu(x) - sin(delta) Y_nu(x).
Supported domain: order 0 <= nu <= 30, argument 0 < x <= 400, double precision.

Strategy: for x <= 30, power series accumulated in double-double arithmetic:
the defining series for J, and Temme's series for Y at a base order within
1/2 of nu, then forward recurrence.  For x > 30 one path serves J, Y and every
mixing angle: C itself at the base orders frac(nu) and frac(nu) + 1 from the
Hankel asymptotic P/Q sums, then forward recurrence on C up to nu.
Derivatives always come from the recurrence
C'_nu = -C_{nu+1} + (nu/x) C_nu, never from numerical differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._dd import dd_add, dd_div, dd_mul, two_prod, two_sum

__all__ = [
    "DomainError",
    "Order",
    "MixingAngle",
    "CylinderSpec",
    "EvalKind",
    "gamma_real",
    "bessel_j",
    "bessel_y",
    "cylinder",
    "cylinder_prime",
    "cylinder_and_prime",
    "sign_at_origin",
    "asymptotic_cylinder",
    "NU_MAX",
    "X_MAX",
]

NU_MAX = 30.0
X_MAX = 400.0
_X_SERIES = 30.0  # power series below, recurrence/asymptotics above
_NU_INTERNAL_MAX = 34.0  # recurrences reach a few orders above NU_MAX


class DomainError(ValueError):
    """Argument outside the supported evaluation box."""


@dataclass(frozen=True)
class Order:
    """Real order nu of a cylinder function, restricted to [0, 30].

    nu = 0 is admitted for the boundary cases built on J_0 / Y_0 (zero
    anchors, the first-zero-at-0 convention for J'_0, and the nu = 0 row of
    the inequality-chain checks).
    """

    nu: float

    def __post_init__(self):
        nu = float(self.nu)
        if not math.isfinite(nu):
            raise DomainError(f"order must be finite, got {self.nu!r}")
        if nu < 0.0 or nu > NU_MAX:
            raise DomainError(f"order must lie in [0, {NU_MAX:g}], got {nu!r}")
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class MixingAngle:
    """Mixing angle delta, normalized into [0, pi) on construction.

    delta and delta + pi give functions differing only by overall sign, with
    identical zeros, so the normalization loses nothing that matters here.
    """

    delta: float

    def __post_init__(self):
        d = float(self.delta)
        if not math.isfinite(d):
            raise DomainError(f"angle must be finite, got {self.delta!r}")
        d = math.fmod(d, math.pi)
        if d < 0.0:
            d += math.pi
        object.__setattr__(self, "delta", d)


@dataclass(frozen=True)
class CylinderSpec:
    """Identifies one cylinder function C(x; nu, delta) up to sign."""

    order: Order
    angle: MixingAngle

    @staticmethod
    def of(nu: float, delta: float) -> "CylinderSpec":
        return CylinderSpec(Order(nu), MixingAngle(delta))

    @property
    def nu(self) -> float:
        return self.order.nu

    @property
    def delta(self) -> float:
        return self.angle.delta


class EvalKind(Enum):
    FUNCTION = "function"
    DERIVATIVE = "derivative"


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

# Lanczos approximation, g = 7, n = 9 (Godfrey's coefficients).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_SQRT_2PI = 2.5066282746310002


def _gamma_lanczos(a: float) -> float:
    # valid for a > 0
    z = a - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, 9):
        s += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_2PI * t ** (z + 0.5) * math.exp(-t) * s


def gamma_real(a: float) -> float:
    """Gamma function for positive real arguments.

    Relative error <= 1e-13 on (0, 60].
    """
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"gamma_real requires a finite positive argument, got {a!r}")
    return _gamma_lanczos(a)


def _sinpi(a: float) -> float:
    # sin(pi*a) with the argument reduced before multiplying by pi
    r = math.fmod(a, 2.0)
    n = math.floor(r + 0.5)  # nearest integer in [-2, 2]
    r -= n
    s = math.sin(math.pi * r)
    return -s if (int(n) & 1) else s


def _rgamma(a: float) -> float:
    # 1/Gamma(a) for any real a; zero at the poles a = 0, -1, -2, ...
    if a > 0.0:
        return 1.0 / _gamma_lanczos(a)
    if a == math.floor(a):
        return 0.0
    # reflection: 1/Gamma(a) = Gamma(1-a) sin(pi a) / pi
    return _gamma_lanczos(1.0 - a) * _sinpi(a) / math.pi


# ---------------------------------------------------------------------------
# Power series (x <= 30), double-double accumulation
# ---------------------------------------------------------------------------


def _j_series(nu: float, x: float) -> float:
    # J_nu via the defining series; nu real > -3, x in (0, 30].
    # Negative integer orders reduce to positive ones first.
    if nu < 0.0 and nu == math.floor(nu):
        n = int(-nu)
        v = _j_series(float(n), x)
        return -v if (n & 1) else v
    h = 0.5 * x
    qh, ql = two_prod(h, h)
    th, tl = 1.0, 0.0  # running term of sum_m (-q)^m / (m! (nu+1)_m)
    sh, sl = 1.0, 0.0
    tmax = 1.0
    m = 1.0
    while m < 600.0:
        eh, el = two_sum(m, nu)  # exact
        dh, dl = two_prod(m, eh)
        dl += m * el
        th, tl = dd_mul(th, tl, qh, ql)
        th, tl = dd_div(th, tl, dh, dl)
        th, tl = -th, -tl
        sh, sl = dd_add(sh, sl, th, tl)
        at = abs(th)
        if at > tmax:
            tmax = at
        elif at < 1e-33 * tmax and m > h:
            break
        m += 1.0
    return (h**nu) * _rgamma(nu + 1.0) * (sh + sl)


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


def _y_temme(mu: float, x: float):
    # (Y_mu, Y_{mu+1}) for |mu| <= 1/2, x in (0, 30], by Temme's series
    # (J. Comput. Phys. 19, 1975).  Unlike the reflection formula it has no
    # 1/sin(mu pi) cancellation at or near integer orders.
    h = 0.5 * x
    # g1 = (1/Gamma(1+mu) - 1/Gamma(1-mu)) / (2 mu), g2 = the mean of the two
    mm = mu * mu
    g1 = g2 = 0.0
    for a in reversed(_RGAMMA1_ODD):
        g1 = g1 * mm + a
    for a in reversed(_RGAMMA1_EVEN):
        g2 = g2 * mm + a
    pimu = math.pi * mu
    lg = -math.log(h)
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
    # Y_{mu+1}, with c_k = (-h^2)^k / k!, accumulated in double-double
    hh, hl = two_prod(h, h)
    fh, fl = f, 0.0
    ph, pl = p, 0.0
    qh, ql = q, 0.0
    ch, cl = 1.0, 0.0
    th, tl = two_prod(r, q)
    s0h, s0l = dd_add(f, 0.0, th, tl)
    s1h, s1l = p, 0.0
    tmax = abs(s0h) + abs(s1h)
    k = 1.0
    while k < 600.0:
        ah, al = two_sum(k, -mu)  # exact
        bh, bl = two_sum(k, mu)
        # f_k = (k f_{k-1} + p_{k-1} + q_{k-1}) / (k^2 - mu^2)
        th, tl = dd_mul(fh, fl, k, 0.0)
        th, tl = dd_add(th, tl, ph, pl)
        th, tl = dd_add(th, tl, qh, ql)
        dh, dl = dd_mul(ah, al, bh, bl)
        fh, fl = dd_div(th, tl, dh, dl)
        ph, pl = dd_div(ph, pl, ah, al)
        qh, ql = dd_div(qh, ql, bh, bl)
        ch, cl = dd_mul(ch, cl, hh, hl)
        ch, cl = dd_div(ch, cl, -k, 0.0)
        th, tl = dd_mul(qh, ql, r, 0.0)
        th, tl = dd_add(fh, fl, th, tl)
        th, tl = dd_mul(ch, cl, th, tl)
        s0h, s0l = dd_add(s0h, s0l, th, tl)
        uh, ul = dd_mul(th, tl, -k, 0.0)
        vh, vl = dd_mul(ch, cl, ph, pl)
        uh, ul = dd_add(uh, ul, vh, vl)
        s1h, s1l = dd_add(s1h, s1l, uh, ul)
        at = abs(th) + abs(uh)
        if at > tmax:
            tmax = at
        elif at < 1e-33 * tmax and k > h:
            break
        k += 1.0
    return -(s0h + s0l), -(s1h + s1l) / h


# ---------------------------------------------------------------------------
# Large-x machinery (x > 30)
# ---------------------------------------------------------------------------


def _hankel_pq(mu: float, x: float):
    # P and Q sums of the Hankel expansion at order mu; accurate for the
    # base orders used here (-1 <= mu < 2) once x > ~25
    mu4 = 4.0 * mu * mu
    p = 1.0
    q = 0.0
    a = 1.0
    prev = math.inf
    for k in range(1, 60):
        a *= (mu4 - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        aa = abs(a)
        if aa >= prev:
            break
        prev = aa
        sgn = -1.0 if ((k // 2) & 1) else 1.0
        if k & 1:
            q += sgn * a
        else:
            p += sgn * a
        if aa < 1e-20:
            break
    return p, q


def _cyl_large(nu: float, delta: float, x: float, pair: bool = False):
    # C_nu for x > 30 (and C_{nu+1} with pair): Hankel sums at the base
    # orders mu = frac(nu) and mu + 1, then forward recurrence on C itself.
    # bessel_j's window [-1, 0) takes the sums at nu directly.
    steps = max(int(math.floor(nu)), 0)
    mu = nu - steps
    amp = math.sqrt(2.0 / (math.pi * x))
    # cos/sin of the phase t = x + phi by the angle-sum rule: rounding t
    # itself would cost up to ulp(x)/2 (3e-14 at x = 400) of phase
    phi = delta - (0.5 * mu + 0.25) * math.pi
    cx, sx = math.cos(x), math.sin(x)
    cp, sp = math.cos(phi), math.sin(phi)
    ct = cx * cp - sx * sp
    st = sx * cp + cx * sp
    p, q = _hankel_pq(mu, x)
    c0 = amp * (p * ct - q * st)
    if steps == 0 and not pair:
        return c0
    # the phase of order mu + 1 is t - pi/2
    p, q = _hankel_pq(mu + 1.0, x)
    c1 = amp * (p * st + q * ct)
    order = mu + 1.0
    for _ in range(steps):
        c0, c1 = c1, (2.0 * order / x) * c1 - c0
        order += 1.0
    return (c0, c1) if pair else c0


def _y_pair(nu: float, x: float):
    # (Y_nu, Y_{nu+1}) for x <= 30 by forward recurrence from Temme's series
    # at the base order mu = nu - n in [-1/2, 1/2], n the nearest integer
    n = math.floor(nu + 0.5)
    mu = nu - n
    y0, y1 = _y_temme(mu, x)
    p = mu + 1.0
    for _ in range(int(n)):
        y0, y1 = y1, (2.0 * p / x) * y1 - y0
        p += 1.0
    return y0, y1


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
    if x <= _X_SERIES:
        return _j_series(nu, x)
    return _cyl_large(nu, 0.0, x)


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, order in [0, 30], 0 < x <= 400."""
    nu = float(nu)
    x = _check_x(x)
    if not math.isfinite(nu) or nu < 0.0 or nu > NU_MAX:
        raise DomainError(f"bessel_y order must lie in [0, {NU_MAX:g}], got {nu!r}")
    if x <= _X_SERIES:
        return _y_pair(nu, x)[0]
    return _cyl_large(nu, -0.5 * math.pi, x)  # Y_nu = C_nu(x; -pi/2)


def _cyl_raw(nu: float, delta: float, x: float) -> float:
    # cos(delta) J_nu - sin(delta) Y_nu; the series skips zero-weight parts
    if x > _X_SERIES:
        return _cyl_large(nu, delta, x)
    c = math.cos(delta)
    s = math.sin(delta)
    v = 0.0
    if abs(c) > 1e-15:
        v += c * _j_series(nu, x)
    if abs(s) > 1e-15:
        v -= s * _y_pair(nu, x)[0]
    return v


def _cyl_and_prime_raw(nu: float, delta: float, x: float):
    # (C, C') sharing ladder work; C' = -C_{nu+1} + (nu/x) C_nu
    if x > _X_SERIES:
        v0, v1 = _cyl_large(nu, delta, x, pair=True)
        return v0, -v1 + (nu / x) * v0
    c = math.cos(delta)
    s = math.sin(delta)
    v0 = v1 = 0.0
    if abs(c) > 1e-15:
        v0 += c * _j_series(nu, x)
        v1 += c * _j_series(nu + 1.0, x)
    if abs(s) > 1e-15:
        y0, y1 = _y_pair(nu, x)
        v0 -= s * y0
        v1 -= s * y1
    return v0, -v1 + (nu / x) * v0


def cylinder(spec: CylinderSpec, x: float) -> float:
    """Evaluate C(x; nu, delta) = cos(delta) J_nu(x) - sin(delta) Y_nu(x)."""
    x = _check_x(x)
    return _cyl_raw(spec.nu, spec.delta, x)


def cylinder_prime(spec: CylinderSpec, x: float) -> float:
    """Evaluate C'(x; nu, delta) via C'_nu = -C_{nu+1} + (nu/x) C_nu."""
    x = _check_x(x)
    return _cyl_and_prime_raw(spec.nu, spec.delta, x)[1]


def cylinder_and_prime(spec: CylinderSpec, x: float):
    """Evaluate (C, C') at x, sharing the order ladder between the two."""
    x = _check_x(x)
    return _cyl_and_prime_raw(spec.nu, spec.delta, x)


def sign_at_origin(spec: CylinderSpec) -> int:
    """Sign of C(x) as x -> 0+.

    Always +1, because delta is normalized into [0, pi) where sin(delta) >= 0:
    for sin(delta) > 0 the Y part dominates with a positive coefficient, and
    delta = 0 is pure J, positive near the origin.
    """
    return 1


def asymptotic_cylinder(spec: CylinderSpec, x: float) -> float:
    """Leading-order large-x form sqrt(2/(pi x)) cos(x - nu pi/2 - pi/4 + delta).

    Requires x >= 10 * max(1, nu); intended for bracket seeding and sanity
    checks, not for accurate evaluation.
    """
    x = float(x)
    nu = spec.nu
    if not math.isfinite(x) or x < 10.0 * max(1.0, nu):
        raise DomainError(f"asymptotic form requires x >= 10*max(1, nu), got x={x!r}")
    return math.sqrt(2.0 / (math.pi * x)) * math.cos(x - (0.5 * nu + 0.25) * math.pi + spec.delta)
