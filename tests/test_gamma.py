"""Reciprocal-Gamma coefficients behind Temme's series for Y."""

import mpmath as mp


def test_reciprocal_gamma_taylor_coefficients():
    # frozen coefficients of 1/Gamma(1 + z) behind Temme's series for Y,
    # from log(1/Gamma(1 + z)) = gamma z - sum_{k>=2} (-1)^k zeta(k) z^k / k
    # (coefficients L_k) and the power-series exponential
    # n c_n = sum_{k=1..n} k L_k c_{n-k}
    from cylfn.special_fn import _RGAMMA1_EVEN, _RGAMMA1_ODD

    n = 2 * len(_RGAMMA1_EVEN) - 2
    with mp.workdps(40):
        L = [mp.mpf(0), +mp.euler] + [-(-1) ** k * mp.zeta(k) / k for k in range(2, n + 1)]
        ref = [mp.mpf(1)]
        for m in range(1, n + 1):
            ref.append(sum(k * L[k] * ref[m - k] for k in range(1, m + 1)) / m)
    assert _RGAMMA1_EVEN == tuple(float(v) for v in ref[0::2])
    assert _RGAMMA1_ODD == tuple(float(v) for v in ref[1::2])
