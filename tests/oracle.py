"""Arbitrary-precision brute-force reference implementation.

Everything here is computed from first principles with mpmath arithmetic:
J from partial sums of the power series with an explicit truncation check,
Y from the reflection formula (logarithmic limiting series at integer
orders), derivatives from the exact downward recurrence, and zeros from
plain bisection on certified sign changes.  mpmath supplies only the
arbitrary-precision arithmetic, gamma, digamma, and logs; none of its
Bessel routines are used.
"""

from __future__ import annotations

import mpmath as mp

__all__ = [
    "oracle_j",
    "oracle_y",
    "oracle_cylinder",
    "oracle_cylinder_prime",
    "bisect_zero",
    "bisect_zero_log",
    "certify_sign_change",
    "oracle_zeros",
]


def _dps_for(x) -> int:
    # the alternating series cancels ~0.434*x digits; add headroom
    return max(30, int(0.46 * float(x)) + 40)


def oracle_j(nu, x, dps: int | None = None):
    """J_nu(x) by direct series summation at working precision."""
    if dps is None:
        dps = _dps_for(x)
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        x = mp.mpf(x)
        if nu < 0 and mp.isint(nu):
            sign = -1 if int(-nu) % 2 else 1
            return sign * oracle_j(-nu, x, dps)
        q = x * x / 4
        term = (x / 2) ** nu / mp.gamma(nu + 1)
        total = term
        m = 1
        tmax = abs(term)
        while True:
            term = -term * q / (m * (m + nu))
            total += term
            tmax = max(tmax, abs(term))
            # truncation bound: next term dominates the alternating tail
            if m > float(x) and abs(term) < tmax * mp.mpf(10) ** (-dps):
                break
            m += 1
            if m > 100000:
                raise RuntimeError("series did not converge")
        return total


def _oracle_y_int(n: int, x, dps: int):
    with mp.workdps(dps):
        x = mp.mpf(x)
        h = x / 2
        q = h * h
        s1 = mp.mpf(0)
        for k in range(n):
            s1 += mp.factorial(n - k - 1) / mp.factorial(k) * q**k
        s1 *= -(h ** (-n)) / mp.pi
        s2 = (2 / mp.pi) * mp.log(h) * oracle_j(n, x, dps)
        term = mp.mpf(1)
        s3 = mp.mpf(0)
        k = 0
        tmax = mp.mpf(0)
        while True:
            contrib = (mp.digamma(k + 1) + mp.digamma(n + k + 1)) * term / (
                mp.factorial(k) * mp.factorial(n + k)
            )
            s3 += contrib
            tmax = max(tmax, abs(contrib))
            if k > float(x) and abs(contrib) < tmax * mp.mpf(10) ** (-dps):
                break
            term = -term * q
            k += 1
            if k > 100000:
                raise RuntimeError("series did not converge")
        s3 *= -(h**n) / mp.pi
        return s1 + s2 + s3


def oracle_y(nu, x, dps: int | None = None):
    """Y_nu(x) via reflection; logarithmic limiting series at integers."""
    if dps is None:
        dps = _dps_for(x)
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        x = mp.mpf(x)
        if mp.isint(nu):
            return _oracle_y_int(int(nu), x, dps)
        return (oracle_j(nu, x, dps) * mp.cospi(nu) - oracle_j(-nu, x, dps)) / mp.sinpi(nu)


def oracle_cylinder(nu, delta, x, dps: int | None = None):
    """C(x) = cos(delta) J_nu(x) - sin(delta) Y_nu(x)."""
    if dps is None:
        dps = _dps_for(x)
    with mp.workdps(dps):
        delta = mp.mpf(delta)
        c, s = mp.cos(delta), mp.sin(delta)
        out = mp.mpf(0)
        if c != 0:
            out += c * oracle_j(nu, x, dps)
        if s != 0:
            out -= s * oracle_y(nu, x, dps)
        return out


def oracle_cylinder_prime(nu, delta, x, dps: int | None = None):
    """C'(x) from the exact recurrence C' = -C_{nu+1} + (nu/x) C_nu."""
    if dps is None:
        dps = _dps_for(x)
    with mp.workdps(dps):
        nu = mp.mpf(nu)
        x = mp.mpf(x)
        return -oracle_cylinder(nu + 1, delta, x, dps) + (nu / x) * oracle_cylinder(
            nu, delta, x, dps
        )


def bisect_zero(f, lo, hi, tol=mp.mpf("1e-30")):
    """Plain bisection; requires a sign change on [lo, hi]."""
    # interval arithmetic must out-resolve tol, whatever the ambient dps
    need = int(-mp.log10(tol)) + 20
    if mp.mp.dps < need:
        with mp.workdps(need):
            return bisect_zero(f, lo, hi, tol)
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def bisect_zero_log(f, lo, hi, rel=mp.mpf("1e-15")):
    """Bisection in t = log x on [lo, hi], 0 < lo < hi, to relative width rel.

    For zeros near x = 0, where a bisection in x itself resolves only an
    absolute width.
    """
    with mp.workdps(40):
        return mp.exp(bisect_zero(lambda t: f(mp.exp(t)), mp.log(lo), mp.log(hi), rel))


def certify_sign_change(f, z, eps=mp.mpf("1e-9")) -> bool:
    """True when f flips sign across z within eps (zero certification)."""
    a = f(mp.mpf(z) - eps)
    b = f(mp.mpf(z) + eps)
    return (a > 0) != (b > 0)


def oracle_zeros(nu, delta, n: int, kind: str = "function", scan=mp.mpf("0.25")):
    """First n positive zeros via scan + bisection, each sign-certified."""
    if kind == "function":
        def f(x):
            return oracle_cylinder(nu, delta, x)
    else:
        def f(x):
            return oracle_cylinder_prime(nu, delta, x)

    zeros = []
    x0 = mp.mpf("1e-6")
    if kind == "derivative" and float(delta) == 0.0:
        x0 = max(x0, mp.mpf(nu) * (1 - mp.mpf("1e-9")))
    f0 = f(x0)
    while len(zeros) < n:
        x1 = x0 + scan
        f1 = f(x1)
        if f1 == 0:
            zeros.append(x1)
        elif (f0 > 0) != (f1 > 0):
            z = bisect_zero(f, x0, x1)
            assert certify_sign_change(f, z)
            zeros.append(z)
        x0, f0 = x1, f1
        if x0 > 400:
            raise RuntimeError("scan ran past the supported box")
    return zeros
