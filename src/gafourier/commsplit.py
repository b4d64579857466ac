"""Commutative/anticommutative decompositions.

Any multivector A splits against an invertible B into a half that commutes
with B and a half that anticommutes:

    A = 1/2 (A + B^-1 A B)  +  1/2 (A - B^-1 A B)

Nesting this over an ordered generator list gives 2**d components indexed
by sign vectors; the machinery below packages the two identities the
transform checks rely on.  `swap_through_exponentials` moves a constant
through a product of exponentials, flipping the exponent signs that its
anticommuting parts see.  `shift_exponential_terms` decomposes the
exponential factors that appear when the argument of a kernel product is
translated, one term per strictly triangular binary matrix.

Generators that pass `exponential.not_imaginary` are always accepted:
when the reversion inverse does not exist, B^-1 = -B / r with
r = -<B^2>_0 != 0 is used instead.  Zero generators perform no split at
all (the commuting component keeps the value, the anticommuting one is
zero), which keeps the identities total at sample points where a kernel
vanishes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import RELATIVE_TOL, Multivector, NotInvertible
from .exponential import NotImaginary, check_square, exp_imag

__all__ = [
    "MAX_GENERATORS",
    "SplitIndex",
    "TriangularSignMatrix",
    "split_pair",
    "split_multi",
    "swap_through_exponentials",
    "enumerate_triangular",
    "shift_exponential_terms",
]

# Dense 2**d component maps stay manageable up to this many generators.
MAX_GENERATORS = 6

# A split component index: one bit per generator, 0 commuting / 1 anti.
SplitIndex = tuple[int, ...]

_DROP_TOL = 1e-12


def split_pair(
    a: Multivector, b: Multivector, tol: float = RELATIVE_TOL
) -> tuple[Multivector, Multivector]:
    """Split `a` into (commuting, anticommuting) parts with respect to `b`.

    Requires an invertible `b`; NotInvertible propagates from the inverse.
    """
    conj = b.inverse(tol) * a * b
    return (a + conj) * 0.5, (a - conj) * 0.5


def _inverse_for_split(b: Multivector, tol: float) -> Multivector:
    try:
        return b.inverse(tol)
    except NotInvertible:
        # values passing the imaginary-square test invert as -b / r with
        # r = -<b^2>_0 even when the reversion product is not scalar; a
        # square within tolerance of a positive real still has r != 0
        fails, sq = check_square(b)
        scalar = sq.scalar_part()
        if fails or scalar == 0.0:
            raise
        return b * (1.0 / scalar)


def _split_total(
    a: Multivector, b: Multivector | None, tol: float
) -> tuple[Multivector, Multivector]:
    if b is None or b.magnitude() == 0.0:
        return a, Multivector.zero(a.sig)
    conj = _inverse_for_split(b, tol) * a * b
    return (a + conj) * 0.5, (a - conj) * 0.5


def split_multi(
    a: Multivector,
    gens: Sequence[Multivector],
    direction: str,
    tol: float = RELATIVE_TOL,
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
    comps: dict[SplitIndex, Multivector] = {(): a}
    order = gens if direction == "forward" else reversed(gens)
    for b in order:
        new: dict[SplitIndex, Multivector] = {}
        for bits, comp in comps.items():
            c0, c1 = _split_total(comp, b, tol)
            if direction == "forward":
                new[bits + (0,)] = c0
                new[bits + (1,)] = c1
            else:
                new[(0,) + bits] = c0
                new[(1,) + bits] = c1
        comps = new
    return comps


def _split_component(
    a: Multivector,
    gens: Sequence[Multivector | None],
    bits: Sequence[int],
    direction: str,
    tol: float,
) -> Multivector:
    order = range(len(gens)) if direction == "forward" else reversed(range(len(gens)))
    for k in order:
        c0, c1 = _split_total(a, gens[k], tol)
        a = c1 if bits[k] else c0
        if a.magnitude() == 0.0:
            break
    return a


def _require_kernel_values(fvals: Sequence[Multivector]) -> None:
    for k, f in enumerate(fvals):
        if check_square(f)[0]:
            raise NotImaginary(
                f"value {k + 1} does not square to a negative real: {f!r}"
            )


def swap_through_exponentials(
    fvals: Sequence[Multivector],
    a: Multivector,
    drop_tol: float = _DROP_TOL,
) -> list[tuple[Multivector, SplitIndex]]:
    """Decompose `a` for moving it leftward through prod_k e^{-f_k}.

    Returns (component, signs) pairs with zero components dropped;
    reassembly:  prod_k e^{-f_k} * a  ==  sum over pairs of
    component * prod_k e^{-(-1)^{signs_k} f_k}.
    Each value must pass `not_imaginary`.
    """
    _require_kernel_values(fvals)
    comps = split_multi(a, list(fvals), "backward")
    scale = max(1.0, a.magnitude())
    return [
        (comp, bits)
        for bits, comp in sorted(comps.items())
        if comp.magnitude() > drop_tol * scale
    ]


@dataclass(frozen=True)
class TriangularSignMatrix:
    """Strictly triangular binary matrix; column parities form a sign vector."""

    entries: tuple[tuple[int, ...], ...]
    orientation: str  # 'lower' or 'upper'

    def __post_init__(self) -> None:
        if self.orientation not in ("lower", "upper"):
            raise ValueError("orientation must be 'lower' or 'upper'")
        d = len(self.entries)
        for r, row in enumerate(self.entries):
            if len(row) != d:
                raise ValueError("matrix must be square")
            for c, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                strict = c < r if self.orientation == "lower" else c > r
                if v and not strict:
                    raise ValueError(
                        f"nonzero entry at ({r + 1},{c + 1}) breaks strict "
                        f"{self.orientation} triangularity"
                    )

    @property
    def d(self) -> int:
        return len(self.entries)

    def row(self, l: int) -> tuple[int, ...]:
        return self.entries[l]

    def column_parity(self) -> SplitIndex:
        return tuple(sum(row[c] for row in self.entries) % 2 for c in range(self.d))


def _free_cells(d: int, orientation: str) -> list[tuple[int, int]]:
    if orientation == "lower":
        return [(r, c) for r in range(d) for c in range(r)]
    return [(r, c) for r in range(d) for c in range(r + 1, d)]


def _all_triangular(d: int, orientation: str) -> Iterable[TriangularSignMatrix]:
    cells = _free_cells(d, orientation)
    for combo in itertools.product((0, 1), repeat=len(cells)):
        rows = [[0] * d for _ in range(d)]
        for (r, c), v in zip(cells, combo):
            rows[r][c] = v
        yield TriangularSignMatrix(tuple(tuple(row) for row in rows), orientation)


def enumerate_triangular(
    d: int, j: Sequence[int] | None = None, orientation: str = "lower"
) -> list[TriangularSignMatrix]:
    """All strictly triangular binary d x d matrices, optionally restricted
    to those whose column sums mod 2 equal `j`, in lexicographic order of
    the flattened entries."""
    if orientation not in ("lower", "upper"):
        raise ValueError("orientation must be 'lower' or 'upper'")
    if d < 0:
        raise ValueError("d must be nonnegative")
    want = None if j is None else tuple(j)
    if want is not None and len(want) != d:
        raise ValueError("sign vector length must equal d")
    out = []
    for m in _all_triangular(d, orientation):
        if want is None or m.column_parity() == want:
            out.append(m)
    return out


def shift_exponential_terms(
    fvals: Sequence[Multivector],
    orientation: str,
    directions: Sequence[Multivector] | None = None,
    drop_tol: float = _DROP_TOL,
) -> list[tuple[Multivector, SplitIndex]]:
    """Split translated exponential factors for reordering around the data.

    `fvals` are the kernel values at the shift point.  One candidate term
    arises per strictly triangular binary matrix: its factor multiplies the
    matrix rows' split components of e^{-f_l} together, and its sign vector
    is the column parity.  For 'lower' the factors end up left of the
    remaining transform and row l splits backward against
    (g_1, ..., g_l, 0, ..., 0); for 'upper' they end up right of it and row
    l splits forward against (0, ..., 0, g_l, ..., g_d).

    The split generators g default to the values themselves.  Pass
    `directions` when a value can vanish at the shift point while the
    kernel stays active elsewhere, so the split still tracks the right
    commutation behaviour.  Reassembly for 'lower':

        prod_l e^{-f_l(x0 + y)}  ==  sum over terms of
            factor * prod_l e^{-(-1)^{signs_l} f_l(y)}

    and the mirror image with the factor on the right for 'upper'.
    """
    d = len(fvals)
    if d == 0:
        raise ValueError("at least one exponential value is required")
    if d > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} values supported")
    if orientation not in ("lower", "upper"):
        raise ValueError("orientation must be 'lower' or 'upper'")
    _require_kernel_values(fvals)
    gens = list(directions) if directions is not None else list(fvals)
    if len(gens) != d:
        raise ValueError("directions must match values in length")
    sig = fvals[0].sig
    exps = [exp_imag(f) for f in fvals]
    zero = Multivector.zero(sig)
    out = []
    for mat in _all_triangular(d, orientation):
        factor = Multivector.scalar(sig, 1.0)
        for l in range(d):
            if orientation == "lower":
                padded = gens[: l + 1] + [zero] * (d - l - 1)
                comp = _split_component(exps[l], padded, mat.row(l), "backward",
                                        RELATIVE_TOL)
            else:
                padded = [zero] * l + gens[l:]
                comp = _split_component(exps[l], padded, mat.row(l), "forward",
                                        RELATIVE_TOL)
            factor = factor * comp
            if factor.magnitude() == 0.0:
                break
        if factor.magnitude() > drop_tol:
            out.append((factor, mat.column_parity()))
    return out
