"""Seeded map of zero enumeration against the reference.

Opt-in, as it adds a few minutes to a run on two vCPUs:

    python -m pytest -m slow tests/test_zero_map.py

Requests (nu, delta, kind) in six strata: C' at delta_c(nu) -+ 1e-2 and
1e-4, where C' has a double zero at x = nu for delta_c(nu) = pi/2 -
arg(J'_nu(nu) + i Y'_nu(nu)), so that two zeros straddle nu just below it;
C at delta -> pi with nu < 1/2 and C' at delta -> 0+ with nu < 1/2, where the
first zero lies below the start, x = 1e-6; the whole box; C at delta -> pi
with nu in [2, 30], where the first zero lies between the start and nu; and
the whole box at zero indices 30 to 110.  The reference (tests/oracle.py)
finds the first K zeros of each request of the first five by itself: one
below the start by bisection in log x, the others by a sign scan of step
pi/16, refined to a step of 5e-3 within 1/4 of nu for C'.  The
library must return the zeros in the same order and count: each zero below
the start within 1e-9 relative of the reference, each other one inside its
reference bracket with a certified sign change within 1e-12 * max(1, z).
At the high indices, where a scan would take too long, each of HIGH zeros
per request must have a certified sign change within 1e-12 z.  The worst
error, a Newton correction on the reference, is printed per stratum, and the
worst relative error below the start.
"""

import math
import random

import mpmath as mp
import pytest

from cylfn.special_fn import CylinderSpec, EvalKind, cylinder_and_prime
from cylfn.zeros import IterationError, find_zeros
from oracle import bisect_zero_log, certify_sign_change, oracle_cylinder, oracle_cylinder_prime

SEED = 20261018
PER_STRATUM = 16
K = 3
HIGH = 8  # zeros per request of the high-index stratum
STEP = math.pi / 16  # the reference scan's step
FLOOR = mp.mpf("1e-300")


def _delta_c(nu):
    jp = cylinder_and_prime(CylinderSpec.of(nu, 0.0), nu)[1]
    yp = -cylinder_and_prime(CylinderSpec.of(nu, math.pi / 2), nu)[1]
    return math.pi / 2 - math.atan2(yp, jp)


def _straddle(rng):
    nu = rng.uniform(0.2, 30.0)
    return nu, _delta_c(nu) + rng.choice((-1e-2, -1e-4, 1e-4, 1e-2)), EvalKind.DERIVATIVE


def _function_near_pi(rng):
    return rng.uniform(0.0, 0.5), math.pi - 10.0 ** rng.uniform(-4.0, -0.5), EvalKind.FUNCTION


def _derivative_near_0(rng):
    return rng.uniform(0.0, 0.5), 10.0 ** rng.uniform(-12.0, -1.0), EvalKind.DERIVATIVE


def _function_below_the_order(rng):
    return rng.uniform(2.0, 30.0), math.pi - 10.0 ** rng.uniform(-12.0, math.log10(0.32)), EvalKind.FUNCTION


def _box(rng):
    delta = rng.choice((0.0, math.pi / 2, rng.uniform(0.0, math.pi)))
    return rng.uniform(0.0, 30.0), delta, rng.choice((EvalKind.FUNCTION, EvalKind.DERIVATIVE))


def _high_index(rng):
    # the whole box again, at zero indices 30 to 110 (x up to about 380),
    # where most Newton searches end on the certified halt
    return _box(rng) + tuple(sorted(rng.sample(range(30, 111), HIGH)))


STRATA = {
    "straddle": _straddle,
    "C, delta->pi": _function_near_pi,
    "C', delta->0": _derivative_near_0,
    "box": _box,
    "C below nu": _function_below_the_order,
    "high index": _high_index,  # last, so that the strata above draw the same requests
}


def _correction(nu, delta, kind):
    # (f, the Newton correction f/f')
    if kind is EvalKind.FUNCTION:
        def f(x):
            return oracle_cylinder(nu, delta, x)

        def newton(x):
            return f(x) / oracle_cylinder_prime(nu, delta, x)
    else:
        def f(x):
            return oracle_cylinder_prime(nu, delta, x)

        def newton(x):
            x = mp.mpf(x)
            d = f(x)
            return d / (-d / x - (1 - (nu / x) ** 2) * oracle_cylinder(nu, delta, x))

    return f, newton


def _reference(nu, delta, kind):
    # (f, f/f' correction, zeros below start, brackets above it, start)
    f, newton = _correction(nu, delta, kind)
    start = mp.mpf("1e-6")
    if kind is EvalKind.DERIVATIVE and delta == 0.0:
        start = max(start, mp.mpf(nu) * (1 - mp.mpf("1e-9")))
    f0 = f(start)
    below = []
    if (f(FLOOR) > 0) != (f0 > 0):
        below.append(bisect_zero_log(f, FLOOR, start))
    brackets = []
    x0 = start
    fine = kind is EvalKind.DERIVATIVE
    while len(below) + len(brackets) < K:
        x1 = x0 + (mp.mpf("5e-3") if fine and abs(x0 - nu) < 0.25 else STEP)
        f1 = f(x1)
        if (f0 > 0) != (f1 > 0):
            brackets.append((x0, x1))
        x0, f0 = x1, f1
    return f, newton, below, brackets, start


@pytest.mark.slow
def test_zero_map(capsys):
    rng = random.Random(SEED)
    worst = {}
    below_rel = (0.0, None)
    seen = {"below the start": 0, "straddling nu": 0, "below 1e-300": 0}
    for name, draw in STRATA.items():
        top = (0.0, None)
        for _ in range(PER_STRATUM):
            nu, delta, kind, *high = draw(rng)
            spec = CylinderSpec.of(nu, delta)
            nu, delta = spec.nu, spec.delta
            if high:
                # no reference scan this far: each zero alone, by its sign change
                zs = find_zeros(spec, kind, high[-1]).zeros
                f, newton = _correction(nu, delta, kind)
                for z in (zs[i - 1] for i in high):
                    assert certify_sign_change(f, z, eps=mp.mpf(1e-12 * z)), (nu, delta, kind, z)
                    top = max(top, (abs(float(newton(z))) / z, (nu, delta, kind.value, z)))
                continue
            try:
                zs = list(find_zeros(spec, kind, K).zeros)
            except IterationError:
                # only where the reference finds no bracket above 1e-300
                f = oracle_cylinder if kind is EvalKind.FUNCTION else oracle_cylinder_prime
                assert (f(nu, delta, FLOOR) > 0) == (f(nu, delta, mp.mpf("1e-6")) > 0)
                seen["below 1e-300"] += 1
                continue
            if zs[0] == 0.0:  # the J'_0 origin convention
                zs = zs[1:]
            f, newton, below, brackets, start = _reference(nu, delta, kind)
            seen["below the start"] += len(below)
            seen["straddling nu"] += any(a < nu < b < a + 2 * STEP for a, b in zip(zs, zs[1:]))
            for z, ref in zip(zs, below):
                assert z < start
                rel = float(abs(z - ref) / ref)
                assert rel <= 1e-9
                below_rel = max(below_rel, (rel, (nu, delta, kind.value, z)))
            for z, (a, b) in zip(zs[len(below):], brackets):
                assert a < z < b, (nu, delta, kind, zs, below, brackets)
                eps = 1e-12 * max(1.0, z)
                assert certify_sign_change(f, z, eps=mp.mpf(eps))
                err = abs(float(newton(z))) / max(1.0, z)
                top = max(top, (err, (nu, delta, kind.value, z)))
        worst[name] = top
    with capsys.disabled():
        print()
        for name, (r, at) in worst.items():
            print(f"zero map {name:14s} worst error/max(1, z) {r:.2e} at (nu, delta, kind, z) = {at}")
        print(f"zero map below the start: worst relative error {below_rel[0]:.2e} at {below_rel[1]}")
        print(f"zero map requests with a zero {seen}")
    assert all(r <= 1e-12 for r, _ in worst.values()), worst
