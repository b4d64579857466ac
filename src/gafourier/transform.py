"""Discrete transform engines over sampled multivector fields.

The transform of a field A at one frequency u is the Riemann sum

    sum_x  prod_left e^{-f(x,u)}  A(x)  prod_right e^{-f(x,u)}  prod(dx)

over all grid nodes x, with the kernel products taken in their configured
order.  The frequency grid is arbitrary and independent of the spatial
one.  `gft` (a frequency grid) and `gft_at` (an (M, m) array) are one
field under one spec of the one internal entry, `_gft_many`: several
fields on one grid under a spec and any sign flips of its kernels
(`kernels.negate`), in one pass of one of three engines, chosen per
call by `plan`:

* axes: every kernel is one direction j_k with j_k^2 = -1, checked once,
  times a diagonal form s_k = sum_j a_kj x_j u_j, and the frequencies form
  a grid.  With cos s = (e^{is} + e^{-is})/2 and sin s = (e^{is} -
  e^{-is})/2i the expanded integrand becomes complex sums
  E_c(u) = sum_x e^{i sum_j c_j x_j u_j} A(x) over the phase vectors
  c = sum_k sigma_k a_k of the sign patterns sigma with sigma_1 = +1
  (E_{-c} is the conjugate of E_c), equal ones once, contracted one axis
  at a time with the fields side by side, a block of keys per batched
  GEMM.  Everything after the
  sums is fixed per spec and flip set: one real matrix, so a tile's
  spectra are one GEMM of its sums.  Tiles of the frequency grid keep
  the working set within 2 MiB or the fields plus the spectra.
* expansion: every kernel gets a basis from its factorization (`kernels`):
  f = sum_i s_i e_i over one direction j or over its nonzero blades, and
  e^{-f} = cos(rho) - sum_i s_i sin(rho)/rho e_i, rho^2 = -<f^2>_0.  The
  two-sided product expands into prod(1 + r_k) terms, each a real
  weight times a constant map of B(x) (a dense product for a direction,
  a signed permutation for a blade).  A blade basis with r >= m is
  folded: s_i = x^T A_i u, so sum_i s_i e_i = sum_a x_a sum_i (A_i u)_a e_i
  and it takes 1 + m weights, cos(rho) and x_a sin(rho)/rho, with
  <f^2>_0 = u^T Q(x) u one GEMM of the monomials of u.  A weight is even
  or odd in x, so weights are computed once per pair of nodes {x, -x},
  against B(x) + B(-x) or B(x) - B(-x), and a flip negates the sine
  weights of its kernels.  A chunk of frequencies is its weights, laid
  out (slots, M, N) in buffers allocated once per call, and their GEMMs
  against those sums; per block of chunks, the per-frequency
  matrix (A_i u)_a of each folded basis maps its m sine outputs to its r
  blade terms (`_unfold`), one routine (`_compose`) takes each term
  through its composite map, and the block is summed over terms.
* direct (`gft_direct`): one field under one spec; per frequency,
  exponentials of the kernel values at every node, two-sided products,
  and a sum over nodes.  It handles every spec and is the reference the
  other engines are tested against; flips go through `negate`.

Routing: a frequency grid whose nonzero kernels (at least one) are all
direction kernels goes to the axes engine when each form is diagonal and
the phase bound sum_kj |a_kj| max|x_j| max|u_j| is finite, and so is its
square times max_k |j_k|^2; otherwise its reason ends in "no axes
engine: " and the first condition that failed ("right kernel 1 form not
diagonal", the phase bound "is not finite", or the "squared phase bound
times max_k |j_k|^2 is not finite").  Everything else, and every array
of frequencies, runs the expansion engine while prod(1 + r_k) <=
max(2^nu, 2^n), its GEMM work per pair at most that of 2^nu sign
patterns or one dense product; larger specs go to the direct engine.
The validate flag never changes which engine runs.

Planning: what depends on the spec alone is built on the first `plan` of
a spec object and kept with it (`_spec_plan`): the kernel bases, the
reason up to the term count, the routing verdicts and the axes engine's
layout.  `parse_preset` shares one spec per selector, so all of this is
built once per process.  What the engines derive from the spec and a
grid goes through the plan's one store (`_keep`), keyed by the grids'
values (dims, origin, spacing), so fresh objects of one geometry share
it: the expansion engine's record of a field grid (`_FieldGrid`), 8 (3 +
m + sum_k w_k) bytes per kept node, w_k = m(m+1)/2 for a folded basis and
r_k m otherwise; for a spec the axes engine may run, the plan of a (field
grid, frequency grid) pair (`_GridPlan`): route, phase bound, one
field's tile and, if that is the whole grid, every axis's e^{i theta}
(`_phase_table`), 16 D sum_j d_j M_j bytes for D phase vectors; and the
axes engine's matrix of each flip set (`_axes_matrix`).  The store
freezes every array of a record it builds and keeps the record while
the spec holds at most `_KEPT` records of at most `_KEPT_BYTES` bytes
together; past either bound records are built for their call, by the
same arithmetic, and dropped.  So a call on a kept grid pair checks its
inputs, looks up its plan and runs its arithmetic, on one tile without
reading `_axis_coords`; several fields or flips choose their own tile.

Threads may share a spec: two may build one record at once, and one
copy is kept.  A record is stored only once built and frozen, so no
reader sees it partly built, and the bounds hold under any interleaving.

Validation (validate=True) raises the same NotImaginary as the direct
engine, with numpy's overflow and invalid-value warnings off.  The axes
engine needs no per-sample check: each direction is checked once, and
the phase bounds are finite, so every |f|^2 is.  The expansion engine
checks a kernel that squares to a real <= 0 everywhere
(`Factors.imaginary`) per sample only for a finite |f|^2, and a folded
one not at all while its square comes from Q (`_Q_REACH`), whose bound
keeps every |f|^2 finite; any other blade kernel
per (node, frequency) with `not_imaginary`, exp_neg_many's test on s,
once per pair of nodes, at the smaller index the direct engine names.
A flip leaves every check as it is.

Determinism: the direct engine sums each frequency's rows with one fixed
numpy reduction over row-major node order, so identical inputs give
bit-identical spectra.  The axes and expansion engines are bit-identical
for the same inputs, numpy build and BLAS thread count (a call that
builds a grid's or grid pair's record and one that reads it run the
same arithmetic), and agree with the direct engine within
1e-12 * max(1, |F(u)|): they sum over node pairs or phase vectors and
compose the kernels' maps.  On the axes
engine a field transformed with others is bit-identical to its own
transform; flips, and fields on the expansion engine, are further GEMM
columns, which BLAS may round differently by a few ulps.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .algebra import (Signature, _left_factor, _right_factor, blade_signs, gp_many,
                      square_scalar_signs)
from .exponential import NotImaginary, cos_sin, cos_sinc, exp_neg_many, not_imaginary
from .kernels import Factors, GftSpec, negate

__all__ = [
    "FreqGrid",
    "SampledField",
    "Spectrum",
    "Plan",
    "grid_nodes",
    "gft",
    "gft_at",
    "gft_direct",
    "plan",
    "default_freqs",
    "dft_complex_oracle",
    "row_magnitudes",
]

# The expansion engine's weights for one frequency chunk, over all
# kernels (`_Basis.slots`) and flips, hold at most this many values
# (512 KiB), or one frequency's worth on larger grids.  A call allocates
# its weight buffers once, for its largest chunk, and every chunk writes
# into them: fresh arrays this size per chunk, above glibc's 128 KiB mmap
# threshold, would fault in new zeroed pages every time.  At 2^17
# cylindrical:3's working set leaves L2 and runs slower.
_BLOCK = 1 << 16
# The axes engine's working set for one tile of the frequency grid
# (`_axes_values`), and the expansion engine's terms for a block of
# chunks, stay within this many values (2 MiB), unless one frequency or
# chunk needs more; a tile may also take the field plus the spectrum.
_AXES_BLOCK = 1 << 18
# A spec's plan keeps at most this many records (`_keep`) of at most this
# many bytes together: buelow:7's axes matrix (16 MiB) is kept, buelow:8's
# (128 MiB) is built for each call.
_KEPT = 64
_KEPT_BYTES = 32 << 20
# A folded basis takes <f^2>_0 = u^T Q(x) u from Q while max|u|^2 times
# the record's reach is at most this, and from s past it.  Q's rounding
# is about eps max|u|^2 reach, absolute: where x is nearly parallel to u
# it does not shrink with <f^2>_0 as the square of s does, so a grid far
# off-centre would lose digits (1e-12 of max(1, |F|) near 1e6).
_Q_REACH = 2.0 ** 12
# the real part and minus the imaginary part of (-i)^p for p = 0..3
_UNIT_PARTS = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])


def _check_geometry(
    dims: Sequence[int], origin: Sequence[float], spacing: Sequence[float]
) -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    d = tuple(int(v) for v in dims)
    o = tuple(float(v) for v in origin)
    s = tuple(float(v) for v in spacing)
    if not d:
        raise ValueError("grid needs at least one axis")
    if len(o) != len(d) or len(s) != len(d):
        raise ValueError("dims, origin and spacing must have equal lengths")
    if any(v < 1 for v in d):
        raise ValueError("extents must be at least 1")
    if not all(math.isfinite(v) for v in o + s):
        raise ValueError("origin and spacing must be finite")
    if any(v <= 0.0 for v in s):
        raise ValueError("spacing must be positive")
    return d, o, s


def grid_nodes(
    dims: Sequence[int], origin: Sequence[float], spacing: Sequence[float]
) -> np.ndarray:
    """Node coordinates of a regular grid, row-major, shape (N, m)."""
    dims, origin, spacing = _check_geometry(dims, origin, spacing)
    idx = np.indices(dims).reshape(len(dims), -1).T
    return np.asarray(origin) + idx * np.asarray(spacing)


@dataclass(frozen=True)
class FreqGrid:
    """Regular grid of frequency vectors u."""

    dims: tuple[int, ...]
    origin: tuple[float, ...]
    spacing: tuple[float, ...]

    def __post_init__(self) -> None:
        d, o, s = _check_geometry(self.dims, self.origin, self.spacing)
        object.__setattr__(self, "dims", d)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "spacing", s)

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def node_count(self) -> int:
        return math.prod(self.dims)

    def nodes(self) -> np.ndarray:
        return grid_nodes(self.dims, self.origin, self.spacing)


@dataclass(frozen=True)
class SampledField:
    """A multivector per node of a regular spatial grid.

    `values` holds one coefficient row per node in row-major node order,
    shape (prod(dims), 2**n).
    """

    sig: Signature
    dims: tuple[int, ...]
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        d, o, s = _check_geometry(self.dims, self.origin, self.spacing)
        v = np.array(self.values, dtype=float)
        if v.shape != (math.prod(d), self.sig.dim):
            raise ValueError(
                f"values must have shape {(math.prod(d), self.sig.dim)}, "
                f"got {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "dims", d)
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "spacing", s)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def node_count(self) -> int:
        return math.prod(self.dims)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    def nodes(self) -> np.ndarray:
        return grid_nodes(self.dims, self.origin, self.spacing)

    def with_values(self, values: np.ndarray) -> "SampledField":
        return SampledField(self.sig, self.dims, self.origin, self.spacing, values)

    @classmethod
    def random(
        cls,
        sig: Signature,
        dims: Sequence[int],
        rng: np.random.Generator,
        border: int = 0,
    ) -> "SampledField":
        """Coefficients drawn uniformly from [-1, 1) on a unit-spaced grid
        with x = 0 at index extent//2 on every axis, zeroed within
        `border` nodes of every face."""
        dims = tuple(dims)
        vals = rng.uniform(-1.0, 1.0, size=(math.prod(dims), sig.dim))
        return cls._on_unit_grid(sig, dims, vals, border)

    @classmethod
    def _on_unit_grid(
        cls, sig: Signature, dims: tuple[int, ...], vals: np.ndarray, border: int = 0
    ) -> "SampledField":
        """The field of `random`'s grid with the coefficients `vals`, which
        are zeroed in place within `border` nodes of every face."""
        if border:
            shaped = vals.reshape(dims + (sig.dim,))
            keep = np.zeros(dims, dtype=bool)
            keep[tuple(slice(border, d - border) for d in dims)] = True
            shaped[~keep] = 0.0
        origin = tuple(-(d // 2) * 1.0 for d in dims)
        return cls(sig, dims, origin, (1.0,) * len(dims), vals)


@dataclass(frozen=True)
class Spectrum:
    """Transform values on a frequency grid, one multivector per node."""

    sig: Signature
    grid: FreqGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.node_count, self.sig.dim):
            raise ValueError(
                f"values must have shape {(self.grid.node_count, self.sig.dim)}, "
                f"got {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.grid.dims


def _adopt(cls: type, **fields: object):
    """A `SampledField` or `Spectrum` holding `fields` as they are, its
    `values` made read-only, without the constructor's copy and checks:
    for an array an engine or reader has just allocated and checked."""
    fields["values"].setflags(write=False)
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def row_magnitudes(values: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(values, dtype=float), axis=1)


def _check_inputs(
    spec: GftSpec, field: SampledField, freqs: FreqGrid | np.ndarray
) -> FreqGrid | np.ndarray:
    """`freqs`, a grid or a float (M, m) array, once it, the spec and the
    field agree."""
    if isinstance(freqs, FreqGrid) and freqs.m != field.m:
        raise ValueError(f"frequency grid has m={freqs.m}, field has m={field.m}")
    if spec.sig != field.sig:
        raise ValueError(f"spec is over {spec.sig}, field over {field.sig}")
    if spec.m != field.m:
        raise ValueError(f"spec has m={spec.m}, field has m={field.m}")
    if isinstance(freqs, FreqGrid):
        return freqs
    unodes = np.asarray(freqs, dtype=float)
    if unodes.ndim != 2 or unodes.shape[1] != spec.m:
        raise ValueError(f"frequency nodes must have shape (M, {spec.m})")
    if not np.isfinite(unodes).all():
        raise ValueError("frequency nodes must be finite")
    return unodes


def _one_grid(fields: Sequence[SampledField]) -> SampledField:
    """The first of `fields` once all share its signature and grid."""
    if len({(f.sig, f.dims, f.origin, f.spacing) for f in fields}) > 1:
        raise ValueError("fields must share one signature and grid")
    return fields[0]


def gft_direct(
    spec: GftSpec,
    field: SampledField,
    unodes: np.ndarray,
    validate: bool = True,
) -> np.ndarray:
    """Direct-sum transform at an explicit (M, m) array of frequency vectors.

    The reference engine: every other engine is checked against it.
    """
    freqs = _check_inputs(spec, field, unodes)
    unodes = freqs.nodes() if isinstance(freqs, FreqGrid) else freqs
    return _direct_sum(spec, field, unodes, validate)


def _direct_sum(
    spec: GftSpec, field: SampledField, unodes: np.ndarray, validate: bool
) -> np.ndarray:
    sig, xs = spec.sig, field.nodes()
    out = np.empty((len(unodes), sig.dim))
    # with every sample checked, a value that overflows or turns NaN
    # raises NotImaginary, so numpy's warnings about it are only noise
    ignore = "ignore" if validate else None  # None leaves the setting as it is
    with np.errstate(over=ignore, invalid=ignore):
        for i, u in enumerate(unodes):
            rows = None
            for pos, kern in enumerate(spec.left, start=1):
                e = exp_neg_many(sig, kern.values(xs, u), validate=validate,
                                 label=f"left kernel {pos}")
                rows = e if rows is None else gp_many(sig, rows, e)
            rows = field.values if rows is None else gp_many(sig, rows, field.values)
            for pos, kern in enumerate(spec.right, start=1):
                rows = gp_many(sig, rows, exp_neg_many(sig, kern.values(xs, u), validate=validate,
                                                       label=f"right kernel {pos}"))
            out[i] = rows.sum(axis=0) * field.cell_volume
    return out


@dataclass(frozen=True)
class _Basis:
    """One nonzero kernel on one side of a plan: its factorization's
    `forms`, `pairs` and `imaginary` verdict (`kernels.Factors`) and the
    engines' constant maps for that side, built by `_basis`.

    A blade basis with r >= m is folded: the expansion engine weighs its
    sine terms by the m coordinates x_a instead of the r coordinates s_i,
    since sum_i s_i e_i = sum_a x_a sum_i (A_i u)_a e_i, and takes
    <f^2>_0 = u^T Q(x) u over the monomials u_l u_k, l <= k (`upper`).
    """

    side: str
    label: str
    index: int                          # position in spec.left + spec.right
    forms: np.ndarray                   # (r, m, m)
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    imaginary: bool
    norm2: float                        # |j|^2 for a direction, else 1
    step: np.ndarray | None = None      # (2^n, 2^n), direction only
    gather: np.ndarray | None = None    # (r 2^n,)
    sign: np.ndarray | None = None      # (r 2^n,)
    squares: np.ndarray | None = None   # (r,) blade squares e_i^2
    upper: np.ndarray | None = None     # (2, p) (l, k), l <= k, folded bases only
    quad: np.ndarray | None = None      # (p, p) monomials x_a x_b -> rows of Q

    @property
    def terms(self) -> int:
        return 1 + len(self.forms)

    @property
    def folded(self) -> bool:
        return self.upper is not None

    @property
    def slots(self) -> int:
        """Weights per node and frequency: 1 + m when folded, else terms."""
        return 1 + self.forms.shape[1] if self.folded else self.terms

    def describe(self) -> str:
        check = "checked once" if self.imaginary else "per-sample check"
        if self.step is not None:
            return f"{self.label}: 1 direction, {check}"
        r = len(self.forms)
        return f"{self.label}: {r} blade{'s' if r > 1 else ''}, {check}"

    def maps(self, u: np.ndarray) -> np.ndarray:
        """(A_i u)_a at the frequencies u (M, m): an (M, r, m) array."""
        r, m = self.forms.shape[:2]
        return (self.forms.reshape(r * m, m) @ u.T).reshape(r, m, -1).transpose(2, 0, 1)

    def weights(
        self, u: np.ndarray, table: np.ndarray | None, coords: np.ndarray, validate: bool,
        w: np.ndarray,
    ) -> np.ndarray | None:
        """Write the weights of e^{-f} at the frequencies u (M, m) and the
        nodes `coords` (m, N) into w (slots, M, N): cos(rho) into w[0] and
        the sine weights, x_a sin(rho)/rho when folded and s_i sin(rho)/rho
        otherwise, into w[1:].  Return the (M, N) mask of invalid samples
        when checked, else None.  `table` is the basis's entry of
        `_FieldGrid.tables`, or None for a folded basis past `_Q_REACH` at
        u: its square then comes from s."""
        n, s = coords.shape[1], None
        if self.folded and table is not None:
            square = u[:, self.upper].prod(axis=1) @ table  # u^T Q(x) u
        else:
            # s_i = x^T A_i u = sum_a x_a (A_i u)_a
            s = self.maps(u) @ coords if self.folded else (u @ table).reshape(len(u), -1, n)
            square = self._square(s)
        _, sinc = cos_sinc(square, cos=w[0])
        np.multiply(coords[:, None] if self.folded else s.swapaxes(0, 1), sinc, out=w[1:])
        if not validate:
            return None
        if self.imaginary:
            # f^2 = <f^2>_0 everywhere, and |f|^2 = -<f^2>_0 |j|^2: only a
            # non-finite one can fail, and none can where Q's bound holds
            return None if s is None else ~np.isfinite(square * self.norm2)
        if s is None:
            s = self.maps(u) @ coords
            square = self._square(s)
        a, b, q = self.pairs
        residue = 0.0  # no commuting blade pair: f^2 is a scalar
        if len(q):
            cross = s[:, a]
            cross *= s[:, b]
            rest = np.tensordot(q, cross, axes=(1, 1))  # non-scalar part of f^2
            residue = np.sqrt(np.einsum("t...,t...->...", rest, rest))
        return not_imaginary(square, residue, np.einsum("min,min->mn", s, s))

    def _square(self, s: np.ndarray) -> np.ndarray:
        """<f^2>_0 = sum_i e_i^2 s_i^2 from s (M, r, N)."""
        if self.imaginary:  # every basis element squares to -1
            square = np.einsum("min,min->mn", s, s)
            return np.negative(square, out=square)
        return np.einsum("i,min,min->mn", self.squares, s, s)


@dataclass(frozen=True)
class Plan:
    """Engine chosen for one transform call and the reason for the choice."""

    engine: str  # "axes", "expansion" or "direct"
    reason: str


@dataclass(frozen=True, eq=False)
class _Axes:
    """The axes engine's layout for one spec, with the kernels in fold
    order: the sign patterns sigma with sigma_1 = +1 (`_sign_patterns`)
    give the phase vectors c = sigma . a, kept once up to sign.  The
    matrix of each flip set (`_axes_matrix`) and the plan of each grid
    pair (`_GridPlan`) are records in the spec's store (`_keep`)."""

    reach: tuple[float, ...]  # sum_k |a_kj| per axis j
    norm2: float              # max_k |j_k|^2
    keys: np.ndarray          # (D, m) distinct c up to sign, first nonzero > 0
    which: np.ndarray         # (2^(K-1),) the key of each pattern
    conj: np.ndarray          # (2^(K-1),) the pattern's c is minus its key


@dataclass(frozen=True, eq=False)
class _SpecPlan:
    """What `plan` and the engines derive from a spec alone, whatever the
    grids: built once per spec object by `_spec_plan`.

    `reason` is the plan's reason up to the term count (the whole reason
    when `direct`).  `refusal` says why one-direction bases cannot run on
    the axes engine on any grid, and `axes` is set when they can on grids
    whose phase bound is finite; both are None when there is no basis or
    some basis is not one direction.  `kept` is the spec's one store of
    records derived from it and its grids (`_keep`).
    """

    reason: str
    direct: bool = False
    order: tuple[_Basis, ...] = ()  # the kernel bases, in `_fold_order`
    refusal: str | None = None
    axes: _Axes | None = None
    # the expansion engine's runs of consecutive weights (`_Basis.slots`,
    # first kernel most significant) with the same count of sin factors
    # mod 2: (count, parity)
    runs: tuple[tuple[int, int], ...] = ()
    # key -> (record, bytes of its arrays), filled by `_keep`
    kept: dict[tuple, tuple[object, int]] = dataclasses.field(default_factory=dict)


class _GridPlan(NamedTuple):
    """A grid pair's plan under a spec the axes engine may run, built by
    `_grid_plan` and kept in the spec's store: the engine and whole
    reason, and on the axes engine `_axes_tile`'s tile and key block for
    one field and every axis's table when that tile is the whole grid."""

    plan: Plan
    tile: tuple[int, ...] | None = None
    block: int | None = None
    tables: tuple[np.ndarray, ...] | None = None


def plan(spec: GftSpec, field: SampledField, freqs: FreqGrid | np.ndarray) -> Plan:
    """Choose the engine for transforming `field` at `freqs`, a frequency
    grid or an (M, m) array of frequency vectors, under `spec`.

    Every nonzero kernel gets a basis of r terms from its factorization
    (`KernelMatrix.factors`).  A grid goes to the
    axes engine when there is a nonzero kernel, every basis is one
    direction with a diagonal form and the phase bound is finite.
    Otherwise the expansion engine runs while the product of (1 + r) over
    the kernels stays within max(2^nu, 2^n), so its GEMM work per pair is
    at most that of 2^nu sign patterns or of one dense product; larger
    specs go to the direct engine.  This is decided once per spec object
    (`_spec_plan`) and grid pair (`_GridPlan`).  Inputs that `gft` and
    `gft_at` refuse raise the same ValueError here.
    """
    return _route(_spec_plan(spec), field, _check_inputs(spec, field, freqs)).plan


@functools.cache  # on the first plan: importing logging at start costs about 9 ms
def _logger():
    import logging

    return logging.getLogger("gafourier")


def _route(rec: _SpecPlan, field: SampledField, freqs: FreqGrid | np.ndarray) -> _GridPlan:
    log, note = _logger(), ""
    debug = log.isEnabledFor(10)  # logging.DEBUG
    if rec.direct:
        grid = _GridPlan(Plan("direct", rec.reason))
    elif isinstance(freqs, FreqGrid) and rec.axes is not None:
        key = ("plan", field.dims, field.origin, field.spacing,
               freqs.dims, freqs.origin, freqs.spacing)
        if debug:
            note = "; grid plan reused" if key in rec.kept else "; grid plan built"
        grid = _keep(rec, key, lambda: _grid_plan(rec, field, freqs))
    elif isinstance(freqs, FreqGrid) and rec.refusal:
        grid = _GridPlan(Plan("expansion", f"{rec.reason}; no axes engine: {rec.refusal}"))
    else:
        grid = _GridPlan(Plan("expansion", rec.reason))
    if debug:
        count = freqs.node_count if isinstance(freqs, FreqGrid) else len(freqs)
        with _KEEPING:
            kept = len(rec.kept), sum(size for _, size in rec.kept.values())
        log.debug("plan: %s engine (%s), %d nodes x %d frequencies%s; %d records kept, %d bytes",
                  grid.plan.engine, grid.plan.reason, field.node_count, count, note, *kept)
    return grid


def _grid_plan(rec: _SpecPlan, field: SampledField, freqs: FreqGrid) -> _GridPlan:
    refusal = _phase_refusal(rec.axes, field, freqs)
    if refusal is not None:
        return _GridPlan(Plan("expansion", f"{rec.reason}; no axes engine: {refusal}"))
    keys, dim = rec.axes.keys, field.sig.dim
    tile, block = _axes_tile(field.dims, freqs.dims, len(keys), dim, dim)
    tables = tuple(_phase_table(_axis_coords(field, j), keys[:, j], _axis_coords(freqs, j))
                   for j in range(field.m)) if tile == freqs.dims else None
    return _GridPlan(Plan("axes", f"{rec.reason}; diagonal forms"), tile, block, tables)


def _spec_plan(spec: GftSpec) -> _SpecPlan:
    """The spec's `_SpecPlan`, built on first use and kept in the spec
    object's instance dictionary (as `KernelMatrix.factors` is kept with
    its kernel), so it lives exactly as long as the spec."""
    rec = spec.__dict__.get("_plan")
    if rec is None:  # one copy is kept when two threads build it
        rec = spec.__dict__.setdefault("_plan", _build_spec_plan(spec))
    return rec


_KEEPING = threading.Lock()  # admission to every spec's store
_Record = TypeVar("_Record")


def _keep(rec: _SpecPlan, key: tuple, build: Callable[[], _Record]) -> _Record:
    """The record `key` of the spec's store, or the one `build` returns,
    with every array read-only.  A built record is kept while the store
    stays within `_KEPT` records and `_KEPT_BYTES` bytes of arrays;
    otherwise it serves its call and is dropped."""
    hit = rec.kept.get(key)
    if hit is not None:
        return hit[0]
    value = build()
    size = _freeze(value)
    with _KEEPING:
        if (len(rec.kept) < _KEPT
                and size + sum(s for _, s in rec.kept.values()) <= _KEPT_BYTES):
            return rec.kept.setdefault(key, (value, size))[0]
    return value


def _freeze(value: object) -> int:
    """Make `value`, an array, or the arrays among a tuple's items and
    theirs, read-only, and return their bytes."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
        return value.nbytes
    return sum(map(_freeze, value)) if isinstance(value, tuple) else 0


def _build_spec_plan(spec: GftSpec) -> _SpecPlan:
    sig = spec.sig
    limit = max(1 << spec.nu, sig.dim)
    bases, notes, terms = [], [], 1
    for side, kernels, first in (("left", spec.left, 0), ("right", spec.right, spec.mu)):
        for index, kern in enumerate(kernels, start=first):
            label = f"{side} kernel {index - first + 1}"
            f = kern.factors
            if f is None:
                notes.append(f"{label}: zero")
                continue
            b = _basis(sig, f, side, label, index)
            terms *= b.terms
            if terms > limit:
                bound = f"2^n = {limit}" if limit == sig.dim else f"2^nu = {limit}"
                return _SpecPlan(f"{label}: {terms} terms exceed {bound}", direct=True)
            bases.append(b)
            notes.append(b.describe())
    notes.append(f"{terms} term{'s' if terms > 1 else ''}")
    order, refusal, axes = tuple(_fold_order(bases)), None, None
    # the sum each weight contracts against: its count of sin factors mod 2
    odd = np.zeros(1, dtype=int)
    for b in order:
        odd = (odd[:, None] + (np.arange(b.slots) > 0)).ravel() % 2
    runs = tuple((len(list(group)), p) for p, group in itertools.groupby(odd.tolist()))
    if bases and all(b.step is not None for b in bases):
        refusal = next((f"{b.label} form not diagonal" for b in bases
                        if np.count_nonzero(b.forms[0])
                        > np.count_nonzero(np.diagonal(b.forms[0]))), None)
        if refusal is None:
            axes = _axes_layout(order)
    return _SpecPlan("; ".join(notes), order=order, refusal=refusal, axes=axes, runs=runs)


def _basis(sig: Signature, f: Factors, side: str, label: str, index: int) -> _Basis:
    """The basis of one nonzero kernel on one side, with read-only maps.

    A direction has `step`, the dense row-form map of x -> (-j) x on
    the left or x (-j) on the right, and `norm2` = |j|^2.  Blades have
    the signed permutations of x -> -e_i x (or x (-e_i)) as one flat
    gather over the r terms' coefficients side by side, out[:, l] =
    sign[l] * x[:, gather[l]] with l = i 2^n + k and gather[l] =
    i 2^n + (k ^ blade_i), and the blade squares `squares`.  Blades
    with r >= m are folded (`_Basis`): `upper` lists the p = m(m+1)/2
    monomials, and `quad` takes those of x to Q(x) (`_FieldGrid`).
    """
    if f.direction is not None:
        step = (_left_factor if side == "left" else _right_factor)(sig, -f.direction)
        norm2, maps = float(f.direction @ f.direction), {"step": step}
    else:
        col = f.blades[:, None]
        gather = np.arange(sig.dim) ^ col
        sign = -(blade_signs(sig, col, gather) if side == "left"
                 else blade_signs(sig, gather, col))
        norm2, maps = 1.0, {
            "gather": (gather + sig.dim * np.arange(len(f.blades))[:, None]).ravel(),
            "sign": sign.ravel(),
            "squares": square_scalar_signs(sig)[f.blades]}
        m = f.forms.shape[1]
        if len(f.blades) >= m:
            # Q(x)_lk = sum_ab x_a x_b sum_i e_i^2 A_i[a, l] A_i[b, k], summed
            # over both orders of a != b and of l != k
            l, k = maps["upper"] = np.array(np.triu_indices(m))
            z = np.einsum("i,ial,ibk->ablk", maps["squares"], f.forms, f.forms)
            z += z.transpose(1, 0, 2, 3)
            z += z.transpose(0, 1, 3, 2)
            half = np.where(l == k, 0.5, 1.0)
            maps["quad"] = (z[:, :, l, k][l, k] * half[:, None] * half).T
    _freeze(tuple(maps.values()))
    return _Basis(side, label, index, f.forms, f.pairs, f.imaginary, norm2, **maps)


def _axes_layout(order: Sequence[_Basis]) -> _Axes:
    k = len(order)
    a = np.array([np.diagonal(b.forms[0]) for b in order])
    c = _sign_patterns(k) @ a
    # one representative per phase vector up to sign: first nonzero > 0
    first = np.take_along_axis(c, (c != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
    conj = first < 0
    index: dict[tuple[float, ...], int] = {}
    which = np.array([index.setdefault(key, len(index)) for key in
                      map(tuple, (np.where(conj[:, None], -c, c) + 0.0).tolist())])
    keys = np.array(list(index)).reshape(len(index), a.shape[1])
    _freeze((keys, which, conj))
    return _Axes(tuple(np.abs(a).sum(axis=0).tolist()), max(b.norm2 for b in order),
                 keys, which, conj)


def _axes_matrix(rec: _SpecPlan, flips: Sequence[int]) -> np.ndarray:
    """The real (2 D 2^n, F 2^n) matrix that takes a tile's sums,
    the float view of a (count, D, 2^n) complex array, to the spectra of the
    F sign flips, each a bit mask of the negated kernels with the first
    kernel in fold order the most significant bit.

    The sin/cos term t = (t_1..t_K) of the expansion engine is
    y_t = 2^(1-K) Re sum_sigma (-i)^|t| prod_{k: t_k = 1} sigma_k E_{sigma.a}
    over the patterns with sigma_1 = +1 (`_gft_axes`), and the spectrum
    is sum_t y_t G_t, with G_t the product in fold order of the `step` of
    every kernel with t_k = 1 (`_compose` of 2^K identities).  With
    E = R + i eps I (eps = -1 where the pattern reads its key conjugated)
    and (-i)^|t| = alpha + i beta, the real part is alpha R - beta eps I.
    Negating kernel k turns its e^{-f_k} = cos - j sin into cos + j sin,
    so a flip multiplies term t by (-1)^(number of flipped kernels whose
    sine t takes).
    """
    order, layout = rec.order, rec.axes
    k, dim = len(order), order[0].step.shape[0]
    maps = _compose(order, np.tile(np.eye(dim), (1 << k, 1, 1)))  # G_t
    # bit k - 1 - i of a term t or pattern index is kernel i's, so
    # prod_{i: t_i = 1} sigma_i is -1 for an odd count of common bits
    t, patterns = np.arange(1 << k), np.arange(1 << (k - 1))
    chi = 1.0 - 2.0 * (np.bitwise_count(t[:, None] & patterns) % 2)
    units = _UNIT_PARTS[:, np.bitwise_count(t) % 4, None]  # alpha, -beta
    keys = len(layout.keys)
    onehot = (layout.which[:, None] == np.arange(keys)).astype(float)
    eps = np.where(layout.conj[:, None], -onehot, onehot)
    flip = 1.0 - 2.0 * (np.bitwise_count(np.array(flips, dtype=np.int64)[:, None] & t) % 2)
    coef = flip[:, None, :, None] * (units * (chi @ np.stack((onehot, eps))))
    # (F, 2, D, 2^n, 2^n) -> rows (D, 2^n, 2), columns (F, 2^n)
    w = np.tensordot(coef, maps, axes=(2, 0)).transpose(2, 3, 1, 0, 4)
    w *= 0.5 ** (k - 1)
    return w.reshape(2 * keys * dim, len(flips) * dim)


def _phase_refusal(
    layout: _Axes, field: SampledField, freqs: FreqGrid
) -> str | None:
    """Why the axes engine cannot run on these grids, or None."""
    # every phase c_j u_j x_j the engine forms is at most (a_j U_j) X_j
    bound = sum(a * _axis_max(freqs, j) * _axis_max(field, j)
                for j, a in enumerate(layout.reach))
    if not math.isfinite(bound):
        return "phase bound sum_kj |a_kj| max|x_j| max|u_j| is not finite"
    # and every |f|^2 = s_k^2 |j_k|^2 at most this, as the direct engine
    # requires of each sample
    if not math.isfinite(bound * bound * layout.norm2):
        return "squared phase bound times max_k |j_k|^2 is not finite"
    return None


def _axis_max(grid: FreqGrid | SampledField, j: int) -> float:
    """Largest |coordinate| along axis j of a regular grid."""
    coords = _axis_coords(grid, j)  # increasing, so an end is the largest
    return float(max(-coords[0], coords[-1]))


def _fold_order(bases: Sequence[_Basis]) -> list[_Basis]:
    """Row-form maps x -> x @ step compose innermost first: left kernels
    from the last to the first, then right kernels in order."""
    return [b for b in reversed(bases) if b.side == "left"] + [
        b for b in bases if b.side == "right"
    ]


def _compose(order: Sequence[_Basis], y: np.ndarray) -> np.ndarray:
    """Map each term t of the C-contiguous stack y (terms, ..., 2^n)
    through G_t in place, and return y.  G_t is the product, in fold
    order, of the maps of the kernels with t_k > 0; the first kernel's
    term is the most significant."""
    lead, dim = 1, y.shape[-1]
    for b in order:
        z = y.reshape(lead, b.terms, -1, dim).swapaxes(0, 1)[1:]  # terms t_k > 0
        if b.step is not None:
            z[...] = z @ b.step
        else:  # the blades' terms side by side on the last axis: one flat gather
            z = np.moveaxis(z, 0, -2)
            flat = np.take(z.reshape(z.shape[:-2] + (-1,)), b.gather, axis=-1)
            flat *= b.sign
            z[...] = flat.reshape(z.shape)
        lead *= b.terms
    return y


def _gft_expansion(
    rec: _SpecPlan, field: SampledField, values: np.ndarray, unodes: np.ndarray,
    validate: bool, masks: Sequence[int],
) -> np.ndarray:
    """Expanded transform over the kernel bases of `rec` of the fields
    `values` (N, F, 2^n) on `field`'s grid, under each flip of `masks`
    (`_gft_many`): an (M, F, flips, 2^n) array.

    The integrand expands into prod(1 + r_k) terms w(x, u) G_L B(x) G_R
    with constant G_L, G_R and weights cos(rho) and s_i sin(rho)/rho from
    `cos_sinc`, even or odd in x as the term's count of sin factors is.
    A folded basis (`_Basis`) has 1 + m weights instead, cos(rho) and
    x_a sin(rho)/rho, and rho^2 from its Q (`_FieldGrid`) in one GEMM.
    The weights are computed at the nodes of the grid's record, one per
    pair {x, -x}: even terms contract against B(x) + B(-x), odd ones
    against B(x) - B(-x), a node without a mirror against B(x).  A chunk
    of frequencies (`_BLOCK`) is its weights, checked, laid out (slots,
    M x flips, N) so that each run of weights against the same sum is one
    contiguous GEMM operand, and one GEMM per run, written into the
    block's outputs (weights, frequencies x flips, fields x 2^n).  Every
    array a chunk writes (each basis's weights, their products, the
    flip-signed rows) is allocated once per call, for the largest chunk,
    and each chunk writes into its leading values.  A block is the most
    whole chunks whose terms fit `_AXES_BLOCK` values, or one chunk; once
    per block `_unfold` takes each folded basis's m sine outputs to its r
    blade terms, `_compose` maps each term through its G_t, and the terms
    are summed.  Negating a kernel negates its s_i, so a flip negates the
    weights of its sine terms.
    """
    key = ("grid", field.dims, field.origin, field.spacing)
    dim, order, grid = field.sig.dim, rec.order, _keep(rec, key, lambda: _field_grid(rec, field))
    cols, rows, n = values.shape[1] * dim, grid.rows, grid.coords.shape[1]
    if grid.twins is None:
        stacks = (values,)
    else:
        own, twin = values.take(rows, axis=0), values.take(grid.twins, axis=0)
        twin[grid.lone] = 0.0
        stacks = (own + twin, own - twin)
    terms, slots = math.prod(b.terms for b in order), math.prod(b.slots for b in order)
    runs = rec.runs if len(stacks) == 2 else ((slots, 0),)
    # each weight's sign under each flip: -1 per flipped kernel whose sine it takes
    signs = np.ones((1, len(masks)))  # (slots, flips)
    for i, b in enumerate(order if masks != (0,) else ()):  # nothing to sign without flips
        flipped = (np.array(masks) >> (len(order) - 1 - i)) & 1
        sign = 1 - 2 * (flipped & (np.arange(b.slots) > 0)[:, None])
        signs = (signs[:, None] * sign).reshape(-1, len(masks))
    # u^T Q u rounds by about eps max|u|^2 reach (`_Q_REACH`), and cannot
    # overflow within that bound; past it folded bases take it from s
    top = float(np.abs(unodes).max(initial=0.0))
    safe = top * top * grid.reach <= _Q_REACH
    tables = [None if b.folded and not safe else t for b, t in zip(order, grid.tables)]
    chunk = max(1, _BLOCK // (slots * n * len(masks)))
    # whole chunks whose terms fit the budget, or one chunk
    block = chunk * max(1, _AXES_BLOCK // (terms * chunk * len(masks) * cols))
    # each basis's weights, their products over the first 2, 3, ... bases
    # and the flip-signed rows, for the largest chunk; a chunk of M
    # frequencies writes the leading values, so its views are contiguous
    size = min(chunk, len(unodes)) * n
    bufs, products = [np.empty(b.slots * size) for b in order], [None]
    for k in range(2, len(order) + 1):
        products.append(np.empty(math.prod(b.slots for b in order[:k]) * size))
    signed = None if masks == (0,) else np.empty(slots * len(masks) * size)
    out = np.empty((len(unodes), len(masks) * values.shape[1], dim))
    for start in range(0, len(unodes), block):
        ub = unodes[start:start + block]
        y = np.empty((slots, len(ub) * len(masks), cols))
        for lo in range(0, len(ub), chunk):
            u = ub[lo:lo + chunk]
            # w (slots, M, N): the first kernel's weight is the most significant;
            # with only zero kernels, one weight of 1
            w, bad = None if order else np.ones((1, len(u), n)), []
            for b, table, buf, held in zip(order, tables, bufs, products):
                wb = buf[:b.slots * len(u) * n].reshape(b.slots, len(u), n)
                bad.append(b.weights(u, table, grid.coords, validate, wb))
                if held is not None:  # (weights so far, b.slots, M, N)
                    both = held[:len(w) * wb.size].reshape((len(w),) + wb.shape)
                    wb = np.multiply(w[:, None], wb, out=both).reshape(-1, len(u), n)
                w = wb
            _raise_first_violation(order, bad, rows)
            if signed is not None:  # rows (frequency, flip)
                both = signed[:w.size * len(masks)].reshape(slots, len(u), len(masks), n)
                w = np.multiply(w[:, :, None], signs[:, None, :, None], out=both)
                w = w.reshape(slots, -1, n)
            t, at = 0, lo * len(masks)
            for count, p in runs:
                np.matmul(w[t:t + count], stacks[p].reshape(n, cols),
                          out=y[t:t + count, at:at + w.shape[1]])
                t += count
        y = _unfold(order, y, ub)
        out[start:start + block] = _compose(order, y.reshape(terms, len(ub), -1, dim)).sum(axis=0)
    out *= field.cell_volume
    return out.reshape(len(unodes), len(masks), values.shape[1], dim).swapaxes(1, 2)


def _unfold(order: Sequence[_Basis], y: np.ndarray, unodes: np.ndarray) -> np.ndarray:
    """The terms of the GEMM outputs y (slots, frequencies x flips, cols)
    at `unodes` (M, m): each folded basis's m sine outputs
    y_a = sum_x x_a sinc(rho) B become its r blade terms
    y_i = sum_a (A_i u)_a y_a, frequency by frequency; y itself when no
    basis is folded."""
    lead, rest = 1, len(y)
    for b in order:
        rest //= b.slots
        if b.folded:
            z = y.reshape(lead, b.slots, rest, len(unodes), -1)
            y = np.empty((lead, b.terms) + z.shape[2:])
            y[:, 0] = z[:, 0]
            # per frequency, (r, m) @ (m, cols), into y's terms 1..r
            np.matmul(b.maps(unodes), z[:, 1:].transpose(0, 2, 3, 1, 4),
                      out=y[:, 1:].transpose(0, 2, 3, 1, 4))
        lead *= b.terms
    return y


class _FieldGrid(NamedTuple):
    """What the expansion engine derives from a spec and a field grid
    alone: built by `_field_grid`, and kept in the spec's store.

    The kept nodes are the rows `_mirror_pairs` keeps, or every node.
    Per basis in fold order, `tables` holds the phase matrix (m, r N) that
    takes u to s_i(x, u) = x^T A_i u at every kept node, or for a folded
    basis Q (m(m+1)/2, N), whose product with the monomials u_l u_k
    (l <= k) is <f^2>_0 = u^T Q(x) u, Q(x) = sum_i e_i^2 (A_i^T x)(A_i^T x)^T.
    `reach` sums over folded bases p max_x sum_p |Q_p(x)|, with each
    |Q_p(x)| bounded as if nothing in it cancelled: max|u|^2 reach bounds
    |<f^2>_0| and, times eps, the rounding of u^T Q u (not finite where Q
    overflowed).
    """

    rows: np.ndarray           # (N,) kept nodes, increasing
    twins: np.ndarray | None   # (N,) the node at minus each; None when none pairs
    lone: np.ndarray | None    # positions in rows of the nodes that mirror no other
    coords: np.ndarray         # (m, N) kept node coordinates, one row per axis
    tables: tuple[np.ndarray, ...]
    reach: float


def _field_grid(rec: _SpecPlan, field: SampledField) -> _FieldGrid:
    """The record of `field`'s grid under `rec`."""
    xs, pairs = field.nodes(), _mirror_pairs(field)
    if pairs is None:
        rows, twins, lone = np.arange(len(xs)), None, None
    else:
        rows, twins = pairs
        xs, lone = xs[rows], np.flatnonzero(twins == rows)
    tables, reach = [], 0.0
    # coordinates that overflow Q leave `reach` not finite, and the engine
    # then takes the square from s
    with np.errstate(over="ignore", invalid="ignore"):
        for b in rec.order:
            if b.folded:
                l, k = b.upper
                x2 = (xs[:, l] * xs[:, k]).T
                tables.append(b.quad @ x2)
                # p sum_p |Q_p(x)|, with no cancellation inside Q_p either
                reach += len(l) * float((np.abs(b.quad) @ np.abs(x2)).sum(axis=0).max())
            else:
                tables.append((xs @ b.forms).transpose(2, 0, 1).reshape(field.m, -1))
    return _FieldGrid(rows, twins, lone, np.ascontiguousarray(xs.T), tuple(tables), reach)


def _mirror_pairs(field: SampledField) -> tuple[np.ndarray, np.ndarray] | None:
    """The nodes whose weights the expansion engine computes, in
    increasing order, and the node at minus each one (itself for x = 0
    and for a node whose mirror is not on the grid); None when no node
    pairs with another.

    Node k on axis j mirrors node k' when coordinate k' is exactly minus
    coordinate k (`_axis_coords`); a node mirrors the node of the axes'
    mirrors, and the pair is kept at its smaller index.  The per-axis
    search runs first, so a grid with no pairs costs no O(N) work.
    """
    axes = []  # per axis, the index of each node's mirror, or -1
    for j in range(field.m):
        coords = _axis_coords(field, j).tolist()
        where = {c: k for k, c in enumerate(coords)}
        axes.append([where.get(-c, -1) for c in coords])
    # a pair needs a mirror on every axis, and another node on some axis
    if min(max(mirror) for mirror in axes) < 0 or all(
            k in (j, -1) for mirror in axes for j, k in enumerate(mirror)):
        return None
    twins, whole = np.zeros((), dtype=int), np.ones((), dtype=bool)
    for mirror in map(np.array, axes):
        twins = np.add.outer(twins * len(mirror), np.maximum(mirror, 0))
        whole = np.logical_and.outer(whole, mirror >= 0)
    index = np.arange(twins.size)
    twins = np.where(whole.ravel(), twins.ravel(), index)
    rows = np.flatnonzero(index <= twins)
    return rows, twins[rows]


def _raise_first_violation(
    order: Sequence[_Basis], bad: Sequence[np.ndarray | None], rows: np.ndarray
) -> None:
    """Raise what the direct engine raises first: at the first offending
    frequency, the first offending kernel in spec order, its first node.
    `bad` has each basis's mask or None, columns the nodes `rows`, sorted."""
    hits = [(int(np.argmax(m.any(axis=1))), b.index, b.label, m)
            for b, m in zip(order, bad) if m is not None and m.any()]
    if hits:
        first, _, label, m = min(hits, key=lambda h: h[:2])
        raise NotImaginary.at_sample(label, int(rows[np.argmax(m[first])]))


def _axis_coords(grid: FreqGrid | SampledField, j: int) -> np.ndarray:
    """Coordinates of axis j's nodes, bit for bit as `grid_nodes` computes
    them: the exact mirror test of `_mirror_pairs` needs exactly these.
    Built on first use and kept in the grid object's instance dictionary,
    as `_spec_plan` keeps a spec's plan, so every call on it shares them."""
    coords = grid.__dict__.get("_coords")
    if coords is None:
        coords = grid.__dict__["_coords"] = tuple(
            o + np.arange(d) * s for d, o, s in zip(grid.dims, grid.origin, grid.spacing))
        _freeze(coords)
    return coords[j]


def _sign_patterns(k: int) -> np.ndarray:
    """The 2^(k-1) sign vectors sigma in {+1, -1}^k with sigma_1 = +1,
    kernel 2's sign the most significant bit (+1 as bit 0)."""
    bits = (np.arange(1 << (k - 1))[:, None] >> np.arange(k - 2, -1, -1)) & 1
    return np.hstack((np.ones((len(bits), 1)), 1.0 - 2.0 * bits))


def _axes_values(
    tile: Sequence[int], dims: Sequence[int], keys: int, cols: int, dim: int, block: int
) -> int:
    """Float64 values the axes engine holds at once for one tile of
    `tile` frequencies per axis and a block of `block` of its `keys`
    distinct phase vectors: a field of extents `dims` with `dim` blade
    coefficients and `cols` output values per frequency.  A block of one
    key counts a key-by-key contraction."""
    count = math.prod(tile)
    # complex intermediate after contracting x_1..x_j (j = 1..m), one key
    steps = [math.prod(tile[:j]) * math.prod(dims[j:]) * dim
             for j in range(1, len(dims) + 1)]
    # per axis: phases, three temporaries of `cos_sin` and the complex table
    return (6 * keys * sum(d * r for d, r in zip(dims, tile))
            + 2 * keys * steps[0]  # first-axis sums of every key
            + 6 * block * max(steps)  # a later axis over the block: input and output
            + (2 * keys * dim + cols) * count)  # sums and the GEMM output


def _axes_tile(dims: Sequence[int], fdims: Sequence[int], keys: int, cols: int,
               dim: int) -> tuple[tuple[int, ...], int]:
    """Extents of the frequency tiles and the key block.  The tile is the
    whole grid, halved along the first axis, then the next, until
    `_axes_values` of one key is within max(`_AXES_BLOCK`, field values +
    spectrum values) or the tile is one frequency.  Later axes are split
    only when a row of the first axis does not fit, since their phase
    tables are then rebuilt for every tile of the first axis.  The key
    block is all keys, halved until its count fits that budget; where
    one key's does not (a tile of one frequency), until its count is at
    most twice one key's."""
    budget = max(_AXES_BLOCK, (math.prod(dims) + math.prod(fdims)) * dim)
    tile, j = list(fdims), 0
    if _axes_values(tile, dims, keys, cols, dim, keys) <= budget:
        return tuple(tile), keys
    while (one := _axes_values(tile, dims, keys, cols, dim, 1)) > budget and j < len(tile):
        if tile[j] == 1:
            j += 1
        else:
            tile[j] = (tile[j] + 1) // 2
    limit, block = budget if one <= budget else 2 * one, keys
    while block > 1 and _axes_values(tile, dims, keys, cols, dim, block) > limit:
        block = (block + 1) // 2
    return tuple(tile), block


def _phase_table(x: np.ndarray, c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The table e^{i theta} of one axis, theta = x c u over its nodes x,
    the keys' entries c and the tile's frequencies u, key-leading:
    (D, d_j, R_j)."""
    theta = np.multiply.outer(x, np.multiply.outer(c, u)).transpose(1, 0, 2)
    table = np.empty(theta.shape, dtype=complex)
    table.imag = cos_sin(theta, cos=table.real)
    return table


def _gft_axes(
    rec: _SpecPlan, field: SampledField, values: np.ndarray, freqs: FreqGrid,
    matrix: np.ndarray, grid: _GridPlan,
) -> np.ndarray:
    """Transform on a frequency grid, one axis at a time: the
    (M, F, flips, 2^n) spectra of `_axes_matrix` of the fields `values`
    (N, F, 2^n) on `field`'s grid.

    The expansion engine's GEMM output for the cos/sin term t is
    y_t = sum_sigma prod_k M[t_k, sigma_k] E_{sigma.a} over all sign
    patterns, M = [[1/2, 1/2], [-i/2, i/2]], or 2 Re of the sum over those
    with sigma_1 = +1.  Per tile of the frequency grid (`_axes_tile`),
    the distinct phase vectors up to sign (keys) are contracted axis by
    axis against key-leading tables (`_phase_table`): the first axis for
    every key as real GEMMs of B, the fields side by side, against cos
    and sin, each later axis as one batched complex GEMM per key block.
    A tile reuses the first axis's sums and the phase tables of the tile
    before it when its range on that axis is the same.  One field under
    one flip takes the tile, key block and tables of the grid pair's
    plan `grid`; other calls choose their own and read those tables only
    for the whole grid.  Split tiles build their own, so no call holds
    more tables than its tile (`_axes_values`).  The rest is fixed per
    spec and flip set: a tile's spectra are its sums times `matrix`, one
    real GEMM, into the output itself for one tile.
    """
    dim, dims, fdims, count_f = field.sig.dim, field.dims, freqs.dims, values.shape[1]
    keys, cols = rec.axes.keys, matrix.shape[1]
    tile, block, tables = grid.tile, grid.block, grid.tables
    if count_f * cols > dim:  # several fields or flips: a tile of their own
        tile, block = _axes_tile(dims, fdims, len(keys), count_f * cols, count_f * dim)
        tables = tables if tile == fdims else None
    b0 = values.reshape(dims[0], -1).T  # (rest of x, fields and blades, d_1)
    out = np.empty(fdims + (count_f * cols,))
    held: dict[int, tuple[int, np.ndarray]] = {}  # axis -> (tile start, table)
    for starts in itertools.product(*(range(0, f, r) for f, r in zip(fdims, tile))):
        ext = [min(r, f - lo) for f, r, lo in zip(fdims, tile, starts)]
        count = math.prod(ext)
        for j in range(field.m):
            if held.get(j, (None,))[0] == starts[j]:
                continue
            held.pop(j, None)
            table = tables[j] if tables is not None else _phase_table(
                _axis_coords(field, j), keys[:, j],
                _axis_coords(freqs, j)[starts[j]:starts[j] + ext[j]])
            if not j:  # (D, d_1, R_1 cos/sin) -> (D, rest of x, fields and blades, R_1)
                table = (b0 @ table.view(float)).view(complex)
            held[j] = (starts[j], table)
            del table
        e = np.empty((count, count_f, len(keys), dim), dtype=complex)
        for lo in range(0, len(keys), block):
            s = held[0][1][lo:lo + block]  # keys, axes 2..m of x, fields, blades, u_1
            for j in range(1, field.m):  # ..., u_1..u_j
                s = s.reshape(len(s), dims[j], -1).swapaxes(1, 2) @ held[j][1][lo:lo + block]
            e[:, :, lo:lo + block] = s.reshape(len(s), count_f, dim, count).transpose(3, 1, 0, 2)
        sums = e.view(float).reshape(count * count_f, -1)
        if count == freqs.node_count:
            np.matmul(sums, matrix, out=out.reshape(len(sums), cols))
        else:
            out[tuple(slice(lo, lo + r) for lo, r in zip(starts, ext))] = (
                (sums @ matrix).reshape(tuple(ext) + (count_f * cols,)))
    out *= field.cell_volume
    return out.reshape(freqs.node_count, count_f, cols // dim, dim)


def _gft_many(
    spec: GftSpec, fields: Sequence[SampledField], freqs: FreqGrid | np.ndarray,
    flips: Sequence[tuple[Sequence[int], Sequence[int]]] = (), validate: bool = True,
) -> np.ndarray:
    """The transforms of `fields`, on one grid, at `freqs` (a frequency
    grid or an (M, m) array) under `spec` with the kernels of each flip
    (j, k) negated as `negate(spec, j, k)` negates them, or under `spec`
    alone without flips: an (M, fields, flips, 2^n) array, from one pass
    of the engine `plan` chooses.  The axes engine contracts the fields
    once and applies every flip's matrix in one GEMM, and the
    expansion engine computes and checks its weights once; the direct
    engine transforms each field under each `negate`d spec."""
    field = _one_grid(fields)
    freqs = _check_inputs(spec, field, freqs)
    rec = _spec_plan(spec)
    grid = _route(rec, field, freqs)
    masks = (0,)
    if flips:  # each flip a bit mask over rec.order, its first kernel the highest bit
        top = len(rec.order) - 1
        masks = tuple(sum(bits[b.index] << (top - i) for i, b in enumerate(rec.order))
                      for bits in (tuple(j) + tuple(k) for j, k in flips))
    # fields side by side, (N, F, 2^n); one field's values as they are
    values = (field.values[:, None] if len(fields) == 1
              else np.stack([f.values for f in fields], axis=1))
    if grid.plan.engine == "axes":
        matrix = _keep(rec, ("matrix", masks), lambda: _axes_matrix(rec, masks))
        return _gft_axes(rec, field, values, freqs, matrix, grid)
    unodes = freqs.nodes() if isinstance(freqs, FreqGrid) else freqs
    if grid.plan.engine == "direct":
        specs = [negate(spec, j, k) for j, k in flips] or [spec]
        out = [[_direct_sum(s, f, unodes, validate) for s in specs] for f in fields]
        return np.moveaxis(np.array(out), 2, 0)
    ignore = "ignore" if validate else None  # as in `_direct_sum`
    with np.errstate(over=ignore, invalid=ignore):
        return _gft_expansion(rec, field, values, unodes, validate, masks)


def gft_at(
    spec: GftSpec,
    field: SampledField,
    unodes: np.ndarray,
    validate: bool = True,
) -> np.ndarray:
    """Transform values at an explicit (M, m) array of frequency vectors,
    on the engine `plan` chooses (never the axes engine)."""
    return _gft_many(spec, [field], unodes, validate=validate)[:, 0, 0]


def gft(
    spec: GftSpec,
    field: SampledField,
    freqs: FreqGrid,
    validate: bool = True,
) -> Spectrum:
    """Discrete transform of a sampled field on a frequency grid."""
    values = _gft_many(spec, [field], freqs, validate=validate)[:, 0, 0]
    return _adopt(Spectrum, sig=spec.sig, grid=freqs, values=values)


def default_freqs(field: SampledField, scale: float = 1.0) -> FreqGrid:
    """Frequency grid matching the field's extents.

    Spacing du = scale/(extent * dx) per axis; the origin is chosen so
    that u = 0 falls on the node at index extent//2.
    """
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    spacing = tuple(
        scale / (d * s) for d, s in zip(field.dims, field.spacing)
    )
    origin = tuple(-(d // 2) * du for d, du in zip(field.dims, spacing))
    return FreqGrid(field.dims, origin, spacing)


def dft_complex_oracle(
    values: np.ndarray,
    freqs: FreqGrid,
    origin: Sequence[float],
    spacing: Sequence[float],
) -> np.ndarray:
    """Naive complex reference transform with the same conventions as gft.

    `values` is a complex array shaped like the spatial grid; the result is
    sum_x e^{-2 pi i x.u} c(x) prod(dx), shaped like the frequency grid.
    """
    c = np.asarray(values, dtype=complex)
    xs = grid_nodes(c.shape, origin, spacing)
    us = freqs.nodes()
    phases = np.exp(-2j * np.pi * (us @ xs.T))
    vol = math.prod(float(s) for s in spacing)
    return ((phases @ c.reshape(-1)) * vol).reshape(freqs.dims)
