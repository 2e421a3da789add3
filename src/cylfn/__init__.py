"""Cylinder-function numerics: evaluation, zero enumeration, interlacing and
Wronskian-based verification of interlacing conditions."""

from .special_fn import (
    CylinderSpec,
    DomainError,
    EvalKind,
    MixingAngle,
    Order,
    bessel_j,
    bessel_y,
    cylinder,
    cylinder_and_prime,
    cylinder_prime,
)

__version__ = "0.1.0"
