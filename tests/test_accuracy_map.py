"""Dense seeded accuracy map of the evaluation box against the reference.

Opt-in, as it adds about 30 s to a run on two vCPUs:

    python -m pytest -m slow tests/test_accuracy_map.py

About 2,400 points in six regimes: the regime seam at x = 24, the turning
region x ~ nu, integer and near-integer orders, x -> 0, the whole box, and
the band about x = 30, the top order's turning point.
Each point evaluates C or the pair (C, C') at delta 0 (J), pi/2 (-Y) or a
random mixed angle.  Every value must meet the accuracy contract; the worst
error divided by its contract bound is printed per regime.
"""

import math
import random

import pytest

from cylfn.special_fn import CylinderSpec, cylinder, cylinder_and_prime
from oracle import oracle_cylinder, oracle_cylinder_prime

SEED = 20261017
PER_REGIME = 400


def _order(rng):
    return rng.uniform(0.0, 30.0)


def _seam(rng):
    return _order(rng), rng.uniform(23.0, 25.0)


def _turning(rng):
    nu = rng.uniform(1.0, 30.0)
    return nu, nu * rng.uniform(0.9, 1.1)


def _integer(rng):
    nu = float(rng.randint(0, 29))
    if rng.random() < 0.5:
        nu += rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-9.0, -3.0)
    return abs(nu), math.exp(rng.uniform(math.log(0.5), math.log(400.0)))


def _near_origin(rng):
    return _order(rng), math.exp(rng.uniform(math.log(1e-6), 0.0))


def _box(rng):
    return _order(rng), rng.uniform(1e-3, 400.0)


def _band_30(rng):
    return _order(rng), rng.uniform(29.0, 31.0)


REGIMES = {
    "seam": _seam,
    "turning": _turning,
    "integer": _integer,
    "near-origin": _near_origin,
    "box": _box,
    "x-near-30": _band_30,
}


def _ratio(got, ref):
    # error over the contract bound: absolute 1e-10 * max(1, 1e3 |f|), and
    # relative 1e-9 where |f| > 1e-3
    err = abs(got - ref)
    r = err / (1e-10 * max(1.0, 1e3 * abs(ref)))
    if abs(ref) > 1e-3:
        r = max(r, err / (1e-9 * abs(ref)))
    return r


def _points(draw, rng):
    for _ in range(PER_REGIME):
        nu, x = draw(rng)
        delta = rng.choice((0.0, math.pi / 2, rng.uniform(0.0, math.pi)))
        yield nu, delta, x, rng.random() < 0.5


@pytest.mark.slow
def test_accuracy_map(capsys):
    rng = random.Random(SEED)
    worst = {}
    for name, draw in REGIMES.items():
        top = (0.0, None)
        for nu, delta, x, pair in _points(draw, rng):
            spec = CylinderSpec.of(nu, delta)
            if pair:
                c, cp = cylinder_and_prime(spec, x)
                r = max(
                    _ratio(c, float(oracle_cylinder(nu, delta, x))),
                    _ratio(cp, float(oracle_cylinder_prime(nu, delta, x))),
                )
            else:
                r = _ratio(cylinder(spec, x), float(oracle_cylinder(nu, delta, x)))
            if r >= top[0]:
                top = (r, (nu, delta, x, pair))
        worst[name] = top
    with capsys.disabled():
        print()
        for name, (r, at) in worst.items():
            print(f"accuracy map {name:12s} worst error/bound {r:.2e} at (nu, delta, x, pair) = {at}")
    assert all(r <= 1.0 for r, _ in worst.values()), worst
