"""Multivector exponentials.

`exp_imag` is the trigonometric closed form for one element that squares
to a negative real number, the only case the transform needs; it
evaluates e^{-f} directly because the kernels always appear with a
negative exponent.  `exp_neg_many` is the same closed form vectorized
over stacked samples, with optional validation of the square.  Every
engine takes the closed form from `cos_sinc`, the one small-angle rule,
and every cos and sin in the package from `cos_sin`, the one
trigonometric routine.  All of them share `not_imaginary` for the
validation test; `check_square` applies that test to one multivector.

`not_imaginary` is the package's one test for "squares to a negative
real", with one contract: f passes iff |f|^2 is finite and the L2 norm
of the non-scalar part of f^2 and the scalar part of f^2 are both at
most STRUCTURAL_TOL * max(1, |f|^2).  Zero passes, NaN fails.  `exp_imag`,
`exp_neg_many`, the transform engines, the kernel factorization of
`kernels` and the splits of `commsplit` all call it, so they give the
same verdict.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    STRUCTURAL_TOL,
    Multivector,
    Signature,
    gp_many,
    square_scalar_signs,
)

__all__ = [
    "NotImaginary",
    "exp_imag",
    "exp_neg_many",
    "cos_sinc",
    "not_imaginary",
    "check_square",
]

# `cos_sinc` takes r = sqrt(-<f^2>_0) at least this large, where the
# closed form is exactly the first-order sum 1 - f, removing the 0/0 in
# (f/r) sin(r).
_SMALL_ANGLE = 1e-14


class NotImaginary(ValueError):
    """Argument does not square to a negative real number."""

    @classmethod
    def at_sample(cls, label: str, sample: int) -> "NotImaginary":
        return cls(f"{label}: sample {sample} does not square to a negative real")


def exp_imag(f: Multivector) -> Multivector:
    """Closed-form e^{-f} for f squaring to a negative real (or f = 0).

    With r = sqrt(-<f^2>_0) the value is cos(r) - (f/r) sin(r); pass -f to
    exponentiate with a positive sign.  Raises NotImaginary when f fails
    `not_imaginary`; near-zero arguments take the small-angle rule of
    `cos_sinc`.
    """
    fails, sq = check_square(f)
    if fails:
        raise NotImaginary(f"{f!r} does not square to a negative real")
    cos, sinc = cos_sinc(sq.scalar_part())
    return float(cos) - f * float(sinc)


def cos_sinc(
    square: np.ndarray, cos: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """cos(r) and sin(r)/r for r = sqrt(-square), elementwise.

    `square` is the scalar part of f^2, so e^{-f} = cos(r) - f sin(r)/r.
    r is taken at least _SMALL_ANGLE, so a nonnegative square gives
    exactly (1, 1), the first-order sum 1 - f.  cos(r) is written into
    `cos` when it is given.
    """
    r = np.negative(square, out=np.empty(np.shape(square)))
    np.maximum(r, _SMALL_ANGLE * _SMALL_ANGLE, out=r)
    np.sqrt(r, out=r)
    if cos is None:
        cos = np.empty_like(r)
    sinc = cos_sin(r, cos)
    sinc /= r
    return cos, sinc


def cos_sin(theta: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """Write cos(theta) into `cos`, which may be a strided view, and return
    sin(theta), from t = tan(theta/2): cos = 2/(1 + t^2) - 1 and
    sin = t 2/(1 + t^2), within 2 eps of np.cos and np.sin.

    numpy runs float64 np.tan with SIMD where the CPU has it, np.sin and
    np.cos one value at a time: on 4096 values of a 2-core AVX-512 Xeon
    this takes about 25 us, np.cos plus np.sin about 170 us.  It holds
    three temporaries the size of theta and writes `cos` once."""
    t = np.tan(theta * 0.5)
    q = 2.0 / (t * t + 1.0)
    np.subtract(q, 1.0, out=cos)
    q *= t
    return q


def not_imaginary(scalar, residue, norm2):
    """True (elementwise) where f does not square to a negative real.

    `scalar` is the scalar part of f^2, `residue` the L2 norm of its
    other coefficients and `norm2` = |f|^2.  A sample fails when either
    exceeds STRUCTURAL_TOL * max(1, |f|^2); NaN fails too, and so does a
    |f|^2 that is not finite, which would make the bound infinite.
    """
    bound = STRUCTURAL_TOL * np.maximum(1.0, norm2)
    return ~((residue <= bound) & (scalar <= bound) & (bound < np.inf))


def check_square(f: Multivector) -> tuple[bool, Multivector]:
    """(f fails `not_imaginary`, f^2) for one multivector."""
    sq = f * f
    c = sq.coeffs
    return bool(not_imaginary(c[0], np.sqrt(c[1:] @ c[1:]), f.coeffs @ f.coeffs)), sq


def exp_neg_many(
    sig: Signature,
    values: np.ndarray,
    validate: bool = True,
    label: str = "kernel",
) -> np.ndarray:
    """e^{-f} for stacked coefficient rows of kernel samples.

    Rows must be zero or square to a negative real; with validate=True each
    row is checked with `not_imaginary` and the first offender is
    reported.  Zero rows map to 1 through the small-angle
    branch, so the result is total on valid kernel samples.
    """
    values = np.asarray(values, dtype=np.float64)
    squares = square_scalar_signs(sig)
    s = (values * values) @ squares
    if validate:
        full = gp_many(sig, values, values)
        residue = np.linalg.norm(full[:, 1:], axis=1)
        bad = not_imaginary(full[:, 0], residue, (values * values).sum(axis=1))
        if bad.any():
            raise NotImaginary.at_sample(label, int(np.argmax(bad)))
    cos, sinc = cos_sinc(s)
    out = -values * sinc[:, None]
    out[:, 0] += cos
    return out
