"""Reciprocal-Gamma coefficients behind Temme's series for Y."""

import mpmath as mp


def test_reciprocal_gamma_taylor_coefficients():
    # frozen coefficients of 1/Gamma(1 + z) behind Temme's series for Y
    from cylfn.special_fn import _RGAMMA1_EVEN, _RGAMMA1_ODD

    with mp.workdps(40):
        ref = mp.taylor(lambda z: mp.rgamma(1 + z), 0, 2 * len(_RGAMMA1_EVEN) - 2)
    assert _RGAMMA1_EVEN == tuple(float(v) for v in ref[0::2])
    assert _RGAMMA1_ODD == tuple(float(v) for v in ref[1::2])
