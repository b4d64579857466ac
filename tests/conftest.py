"""Shared fixtures and sampling helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from gafourier.algebra import Multivector, Signature
from gafourier.exponential import check_square

SIGNATURES_SMALL = (
    Signature(2, 0),
    Signature(0, 2),
    Signature(3, 0),
    Signature(3, 1),
    Signature(4, 0),
)

# per signature: basis blades that square to -1 and pairwise anticommute,
# so any normalized linear combination again squares to -1
ROOT_FAMILIES = {
    (2, 0): ("e12",),
    (0, 2): ("e1", "e2", "e12"),
    (3, 0): ("e12", "e13", "e23"),
    (3, 1): ("e12", "e13", "e23"),
    (4, 0): ("e12", "e13", "e23"),
}


def root_family(sig: Signature) -> tuple[str, ...]:
    return ROOT_FAMILIES[(sig.p, sig.q)]


def rand_mv(sig: Signature, rng: np.random.Generator, scale: float = 1.0) -> Multivector:
    return Multivector(sig, rng.uniform(-scale, scale, sig.dim))


def rand_root(
    sig: Signature, rng: np.random.Generator, max_mag: float = 4.0
) -> Multivector:
    """Random element of the imaginary cone with magnitude in (0, max_mag]."""
    labels = root_family(sig)
    c = rng.normal(size=len(labels))
    while np.linalg.norm(c) < 1e-3:
        c = rng.normal(size=len(labels))
    c /= np.linalg.norm(c)
    r = rng.uniform(0.05, max_mag)
    total = Multivector.zero(sig)
    for weight, label in zip(c, labels):
        total = total + Multivector.blade(sig, label, r * weight)
    return total


def exp_series(a: Multivector) -> Multivector:
    """Power-series e^{a}, the reference `exponential.exp_imag` is tested
    against: terms a**j / j! are added in ascending order, up to and
    including the first of magnitude below 1e-14."""
    term = total = Multivector.scalar(a.sig, 1.0)
    for j in range(1, 257):
        term = term * a / j
        total = total + term
        if term.magnitude() < 1e-14:
            return total
    raise AssertionError(f"power series of {a!r} has not converged")


def squares_to_negative_real(f: Multivector) -> bool:
    """Verdict of the package's one imaginary-square test on f."""
    return not check_square(f)[0]


def coeff_lists(sig: Signature, max_abs: float = 4.0) -> st.SearchStrategy:
    elem = st.floats(-max_abs, max_abs, allow_nan=False, allow_infinity=False)
    return st.lists(elem, min_size=sig.dim, max_size=sig.dim)


@st.composite
def sig_and_mvs(draw, count: int = 2, max_abs: float = 4.0):
    """A signature plus `count` random multivectors over it."""
    sig = draw(st.sampled_from(SIGNATURES_SMALL))
    mvs = tuple(
        Multivector(sig, np.array(draw(coeff_lists(sig, max_abs))))
        for _ in range(count)
    )
    return (sig,) + mvs


@st.composite
def sig_and_root(draw, max_mag: float = 4.0):
    """A signature plus one element of its imaginary cone."""
    sig = draw(st.sampled_from(SIGNATURES_SMALL))
    labels = root_family(sig)
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    c = np.array(draw(
        st.lists(unit, min_size=len(labels), max_size=len(labels))
    ))
    norm = np.linalg.norm(c)
    if norm < 1e-3:
        c = np.zeros(len(labels))
        c[0] = 1.0
        norm = 1.0
    scale = draw(st.floats(0.05, max_mag, allow_nan=False)) / norm
    total = Multivector.zero(sig)
    for weight, label in zip(c, labels):
        total = total + Multivector.blade(sig, label, scale * weight)
    return sig, total
