"""Gamma function accuracy checks."""

import math

import mpmath as mp
import pytest

from cylfn.special_fn import gamma_real


def test_frozen_anchors():
    assert gamma_real(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma_real(0.5) == pytest.approx(1.7724538509055160, rel=1e-13)


def test_positive_axis_against_reference():
    with mp.workdps(30):
        x = 0.1
        while x <= 35.0:
            ref = float(mp.gamma(x))
            assert abs(gamma_real(x) - ref) <= 1e-13 * abs(ref), f"x={x}"
            x += 0.1


def test_nonpositive_arguments_raise():
    for x in (0.0, -1.0, -7.0, -0.5):
        with pytest.raises(ValueError):
            gamma_real(x)


def test_agrees_with_math_gamma():
    for k in range(1, 60):
        x = k * 0.37
        assert gamma_real(x) == pytest.approx(math.gamma(x), rel=1e-13)


def test_reciprocal_gamma_taylor_coefficients():
    # frozen coefficients of 1/Gamma(1 + z) behind Temme's series for Y
    from cylfn.special_fn import _RGAMMA1_EVEN, _RGAMMA1_ODD

    with mp.workdps(40):
        ref = mp.taylor(lambda z: mp.rgamma(1 + z), 0, 2 * len(_RGAMMA1_EVEN) - 2)
    assert _RGAMMA1_EVEN == tuple(float(v) for v in ref[0::2])
    assert _RGAMMA1_ODD == tuple(float(v) for v in ref[1::2])
