"""Output checks against the reference implementation in tests/oracle.py.

The oracle sums series in mpmath arithmetic and is slow, so the workloads
check a seeded sample of their results with it, outside the timed region.
"""

from __future__ import annotations

import mpmath as mp
import oracle


def contract_ratio(got: float, ref: float) -> float:
    """Error over the accuracy contract's bound; above 1 breaks the contract.

    Absolute error <= 1e-10 * max(1, 1e3 |f|), and relative error <= 1e-9
    where |f| > 1e-3 (away from zeros), as in tests/test_special_fn.py.
    """
    err = abs(got - ref)
    ratio = err / (1e-10 * max(1.0, 1e3 * abs(ref)))
    if abs(ref) > 1e-3:
        ratio = max(ratio, err / (1e-9 * abs(ref)))
    return ratio


def l0_ratio(nu: float, delta: float, x: float, pair: bool, out) -> float:
    """Worst contract ratio of one `cylinder` (or `cylinder_and_prime`) result."""
    if not pair:
        return contract_ratio(out, float(oracle.oracle_cylinder(nu, delta, x)))
    c, cp = out
    return max(
        contract_ratio(c, float(oracle.oracle_cylinder(nu, delta, x))),
        contract_ratio(cp, float(oracle.oracle_cylinder_prime(nu, delta, x))),
    )


def zero_certified(nu: float, delta: float, derivative: bool, z: float) -> bool:
    """True when C (or C') changes sign within 1e-12 * z of z.

    That proves a true zero lies within the 1e-12 relative tolerance.
    """
    if derivative:
        def f(t):
            return oracle.oracle_cylinder_prime(nu, delta, t)
    else:
        def f(t):
            return oracle.oracle_cylinder(nu, delta, t)

    return oracle.certify_sign_change(f, z, eps=mp.mpf(z) * mp.mpf("1e-12"))


def l0_err_ratios(spans, rng, per_class: int = 4) -> dict:
    """Worst contract ratio over a seeded sample of traced L0 results, for
    x <= 30 ("series") and x > 30 ("large"); 0 where none was traced."""
    worst = {"series": 0.0, "large": 0.0}
    for cls in worst:
        pool = [
            s for s in spans
            if s[0].startswith("special_fn.") and s[5] and len(s[5]) == 4
            and (s[5][2] <= 30.0) == (cls == "series")
        ]
        for name, _, _, _, _, (nu, delta, x, out) in rng.sample(pool, min(per_class, len(pool))):
            worst[cls] = max(worst[cls], l0_ratio(nu, delta, x, name == "special_fn.pair", out))
    return worst
