"""Commutative/anticommutative decompositions.

Any multivector A splits against an invertible generator g into a half
that commutes with g and a half that anticommutes:

    A = 1/2 (A + g^-1 A g)  +  1/2 (A - g^-1 A g)

For a constant g the conjugation A -> g^-1 A g is one fixed linear map C,
so each split is a pair of constant projectors P0 = (I + C)/2 and
P1 = (I - C)/2 applied to coefficient rows as `coeffs @ P`; a stack of
(M, 2**n) rows splits with the same two matrix multiplies.  Nesting the
split over an ordered generator list gives 2**d components indexed by
sign vectors.  `split_multi` is that nested split of one constant; the
swap lemma of the product theorems moves a constant through a product of
exponentials by splitting it backward against the exponents and flipping
the signs that its anticommuting parts see.  `shift_exponential_terms`
decomposes the exponential factors that appear when the argument of a
kernel product is translated, one term per strictly triangular binary
matrix, for a whole stack of kernel values at once.  Split components
and factor rows of norm at most `algebra.STRUCTURAL_TOL` (relative to
max(1, |constant|) where a constant is split) count as zero.

Generators that pass `exponential.not_imaginary` are always accepted:
when the reversion inverse does not exist, g^-1 = -g / r with
r = -<g^2>_0 != 0 is used instead.  Zero generators perform no split at
all (the commuting component keeps the value, the anticommuting one is
zero), which keeps the identities total where a kernel vanishes.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from .algebra import (
    STRUCTURAL_TOL,
    Multivector,
    NotInvertible,
    _left_factor,
    _right_factor,
    gp_many,
)
from .exponential import check_square, exp_neg_many
from .exponential import exp_imag  # noqa: F401  (perfbench/tracing.py wraps this name)

__all__ = [
    "MAX_GENERATORS",
    "SplitIndex",
    "split_multi",
    "shift_exponential_terms",
]

# Dense 2**d component maps stay manageable up to this many generators.
MAX_GENERATORS = 6

# A split component index: one bit per generator, 0 commuting / 1 anti.
SplitIndex = tuple[int, ...]


def _inverse_for_split(b: Multivector) -> Multivector:
    try:
        return b.inverse()
    except NotInvertible:
        # values passing the imaginary-square test invert as -b / r with
        # r = -<b^2>_0 even when the reversion product is not scalar; a
        # square within tolerance of a positive real still has r != 0
        fails, sq = check_square(b)
        scalar = sq.scalar_part()
        if fails or scalar == 0.0:
            raise
        return b * (1.0 / scalar)


def _projectors(g: Multivector) -> np.ndarray:
    """The (2, 2**n, 2**n) pair [P0, P1]: for a coefficient row x,
    x @ P0 commutes with g and x @ P1 anticommutes with it.

    A zero generator gives [I, 0]; any other non-invertible one raises
    NotInvertible.
    """
    eye = np.eye(g.sig.dim)
    if g.magnitude() == 0.0:
        return np.stack([eye, np.zeros_like(eye)])
    inv = _inverse_for_split(g)
    conj = _left_factor(g.sig, inv.coeffs) @ _right_factor(g.sig, g.coeffs)
    return np.stack([eye + conj, eye - conj]) * 0.5


def split_multi(
    a: Multivector,
    gens: Sequence[Multivector],
    direction: str,
) -> dict[SplitIndex, Multivector]:
    """Nested split along an ordered generator list, materialized densely.

    Position k of every component index always refers to gens[k].
    'forward' applies gens[0] first, 'backward' applies the last generator
    first; the directions differ whenever the generators' conjugations do
    not commute.  Zero generators perform no split.
    """
    if len(gens) > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} generators supported")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    # comps[i] is the component whose bits, gens[0]'s first, spell i
    comps = a.coeffs[None]
    projs = [_projectors(g) for g in gens]
    for p in projs if direction == "forward" else projs[::-1]:
        halves = comps @ p  # (2, len(comps), 2**n), this generator's bit first
        if direction == "forward":
            halves = halves.swapaxes(0, 1)
        comps = halves.reshape(-1, a.sig.dim)
    bits = itertools.product((0, 1), repeat=len(gens))
    return {b: Multivector(a.sig, c) for b, c in zip(bits, comps)}


def _triangular(d: int, lower: bool) -> list[tuple[tuple[SplitIndex, ...], SplitIndex]]:
    """(rows, column parity) of every strictly lower (or upper) triangular
    0/1 d x d matrix, lexicographic in the flattened entries: the free
    cells in row-major order, the first cell most significant."""
    cells = np.tril_indices(d, -1) if lower else np.triu_indices(d, 1)
    k = len(cells[0])
    mats = np.zeros((2**k, d, d), dtype=np.int64)
    mats[:, cells[0], cells[1]] = (np.arange(2**k)[:, None] >> np.arange(k)[::-1]) & 1
    parities = (mats.sum(axis=1) % 2).tolist()
    return [(tuple(map(tuple, m)), tuple(p)) for m, p in zip(mats.tolist(), parities)]


def shift_exponential_terms(
    fvals: Sequence[np.ndarray],
    orientation: str,
    directions: Sequence[Multivector],
) -> list[tuple[np.ndarray, SplitIndex]]:
    """Split translated exponential factors for reordering around the data.

    `fvals` holds one (M, 2**n) stack per kernel: its values at the shift
    point for M frequencies.  One candidate term arises per strictly
    triangular binary matrix: its factor multiplies the matrix rows' split
    components of e^{-f_l} together, and its sign vector is the column
    parity.  For 'lower' the factors end up left of the remaining
    transform and row l splits backward against (g_1, ..., g_l, 0, ..., 0);
    for 'upper' they end up right of it and row l splits forward against
    (0, ..., 0, g_l, ..., g_d).  The generators g are the kernels'
    constant `directions`, so every split is the same pair of projectors
    at every frequency.  Reassembly for 'lower', row by row:

        prod_l e^{-f_l(x0 + y)}  ==  sum over terms of
            factor * prod_l e^{-(-1)^{signs_l} f_l(y)}

    and the mirror image with the factor on the right for 'upper'.  Each
    term is an (M, 2**n) factor stack; factor rows of norm at most
    `STRUCTURAL_TOL` are zeroed, and terms with no row left are dropped.
    """
    d = len(fvals)
    if d == 0:
        raise ValueError("at least one exponential value is required")
    if d > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} values supported")
    if orientation not in ("lower", "upper"):
        raise ValueError("orientation must be 'lower' or 'upper'")
    if len(directions) != d:
        raise ValueError("directions must match values in length")
    sig = directions[0].sig
    shape = np.shape(fvals[0])
    if len(shape) != 2 or shape[1] != sig.dim or any(np.shape(f) != shape for f in fvals):
        raise ValueError(f"values must be (M, {sig.dim}) stacks of one shape")
    exps = [
        exp_neg_many(sig, f, validate=True, label=f"value {l + 1}")
        for l, f in enumerate(fvals)
    ]
    projs = [_projectors(g) for g in directions]
    lower = orientation == "lower"

    @functools.cache
    def component(l: int, row: SplitIndex) -> np.ndarray:
        comp = exps[l]
        for k in reversed(range(l + 1)) if lower else range(l, d):
            comp = comp @ projs[k][row[k]]
        return comp

    out = []
    for rows, signs in _triangular(d, lower):
        factor = component(0, rows[0])
        for l in range(1, d):
            factor = gp_many(sig, factor, component(l, rows[l]))
        keep = np.linalg.norm(factor, axis=1) > STRUCTURAL_TOL
        if keep.any():
            out.append((np.where(keep[:, None], factor, 0.0), signs))
    return out
