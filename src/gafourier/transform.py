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
  (E_{-c} is the conjugate of E_c), equal ones once, each contracted one
  axis at a time, with the fields side by side.  Everything after the
  sums is fixed per spec and flip set: one real matrix, so a tile's
  spectra are one GEMM of its sums.  Tiles of the frequency grid keep
  the working set within 2 MiB or the fields plus the spectra.
* expansion: every kernel gets a basis from its factorization (`kernels`):
  f = sum_i s_i e_i over one direction j or over its nonzero blades, and
  e^{-f} = cos(rho) - sum_i s_i sin(rho)/rho e_i, rho^2 = -<f^2>_0.  The
  two-sided product expands into prod(1 + r_k) terms, each a real
  weight times a constant map of B(x) (a dense product for a direction,
  a signed permutation for a blade).  A term's weight is even or odd in
  x, so weights are computed once per pair of nodes {x, -x}, against
  B(x) + B(-x) or B(x) - B(-x), and a flip negates the sine weights of
  its kernels.  One routine (`_compose`) takes each term through its
  composite map: the stack of sums once per call when it fits the axes
  engine's budget, and then a chunk of frequencies is its weights and
  one GEMM; otherwise each chunk's GEMM outputs, then summed over terms.
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
reason up to the term count, the routing verdicts, the axes engine's
layout and, on first use, the matrix of each flip set.  `parse_preset`
shares one spec per selector, so all of this is built once per process.
Each call pays for the phase bound, the routing, the DEBUG record, the
tiles and the arithmetic.  A grid keeps its axis coordinates
(`_axis_coords`) but no verdict.

Validation (validate=True) raises the same NotImaginary as the direct
engine, with numpy's overflow and invalid-value warnings off.  The axes
engine needs no per-sample check: each direction is checked once, and
the phase bounds are finite, so every |f|^2 is.  The expansion engine
checks a kernel that squares to a real <= 0 everywhere
(`Factors.imaginary`) per sample only for a finite |f|^2; any other
blade kernel per (node, frequency) with `not_imaginary`, exp_neg_many's
test, once per pair of nodes, at the smaller index the direct engine
names.  A flip leaves every check as it is.

Determinism: the direct engine sums each frequency's rows with one fixed
numpy reduction over row-major node order, so identical inputs give
bit-identical spectra.  The axes and expansion engines are bit-identical
for the same inputs, numpy build and BLAS thread count, and agree with
the direct engine within 1e-12 * max(1, |F(u)|): they sum over node
pairs or phase vectors and compose the kernels' maps.  On the axes
engine a field transformed with others is bit-identical to its own
transform; flips, and fields on the expansion engine, are further GEMM
columns, which BLAS may round differently by a few ulps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

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
# terms, hold at most this many values (128 KiB), or one frequency's
# worth on larger grids.  Larger blocks raise peak RSS and gain no speed.
_BLOCK = 1 << 14
# The axes engine's working set for one tile of the frequency grid
# (`_axes_values`) stays within this many values (2 MiB) or the size of
# the field plus the spectrum, whichever is larger, unless a single
# frequency needs more.
_AXES_BLOCK = 1 << 18
# A spec's plan keeps the axes engine's matrices of this many flip sets.
_FLIP_SETS = 64
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
        count = math.prod(dims)
        vals = rng.uniform(-1.0, 1.0, size=(count, sig.dim))
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

    @property
    def terms(self) -> int:
        return 1 + len(self.forms)

    def describe(self) -> str:
        check = "checked once" if self.imaginary else "per-sample check"
        if self.step is not None:
            return f"{self.label}: 1 direction, {check}"
        r = len(self.forms)
        return f"{self.label}: {r} blade{'s' if r > 1 else ''}, {check}"

    def weights(
        self, s: np.ndarray, validate: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Weights (M, terms, N) of e^{-f} from the coordinates
        s = (M, r, N), written into one new array, and the (M, N) mask of
        invalid samples when checked."""
        w = np.empty((len(s), self.terms, s.shape[2]))
        if self.imaginary:
            # every basis element squares to -1: <f^2>_0 = -sum_i s_i^2
            square = np.einsum("min,min->mn", s, s)
            np.negative(square, out=square)
        else:
            square = np.einsum("i,min,min->mn", self.squares, s, s)
        _, sinc = cos_sinc(square, cos=w[:, 0])
        np.multiply(s, sinc[:, None], out=w[:, 1:])
        if not validate:
            return w, None
        if self.imaginary:
            # f^2 = <f^2>_0 everywhere, and |f|^2 = -<f^2>_0 |j|^2: only a
            # non-finite one can fail
            return w, ~np.isfinite(square * self.norm2)
        a, b, q = self.pairs
        residue = 0.0  # no commuting blade pair: f^2 is a scalar
        if len(q):
            cross = s[:, a]
            cross *= s[:, b]
            rest = np.tensordot(q, cross, axes=(1, 1))  # non-scalar part of f^2
            residue = np.sqrt(np.einsum("t...,t...->...", rest, rest))
        return w, not_imaginary(square, residue, np.einsum("min,min->mn", s, s))


@dataclass(frozen=True)
class Plan:
    """Engine chosen for one transform call and the reason for the choice."""

    engine: str  # "axes", "expansion" or "direct"
    reason: str


@dataclass(frozen=True, eq=False)
class _Axes:
    """The axes engine's layout for one spec, with the kernels in fold
    order: the sign patterns sigma with sigma_1 = +1 (`_sign_patterns`)
    give the phase vectors c = sigma . a, kept once up to sign, and
    `matrices` (`_axes_matrix`) take a tile's sums to its spectra."""

    reach: tuple[float, ...]  # sum_k |a_kj| per axis j
    norm2: float              # max_k |j_k|^2
    keys: np.ndarray          # (D, m) distinct c up to sign, first nonzero > 0
    which: np.ndarray         # (2^(K-1),) the key of each pattern
    conj: np.ndarray          # (2^(K-1),) the pattern's c is minus its key
    # flip masks -> their (2 D 2^n, F 2^n) matrix, built on first use
    matrices: dict[tuple[int, ...], np.ndarray]


@dataclass(frozen=True, eq=False)
class _SpecPlan:
    """What `plan` and the engines derive from a spec alone, whatever the
    grids: built once per spec object by `_spec_plan`.

    `reason` is the plan's reason up to the term count (the whole reason
    when `direct`).  `refusal` says why one-direction bases cannot run on
    the axes engine on any grid, and `axes` is set when they can on grids
    whose phase bound is finite; both are None when there is no basis or
    some basis is not one direction.
    """

    reason: str
    direct: bool = False
    order: tuple[_Basis, ...] = ()  # the kernel bases, in `_fold_order`
    refusal: str | None = None
    axes: _Axes | None = None


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
    specs go to the direct engine.  Everything but the phase bound is
    decided once per spec object; see `_spec_plan`.  Inputs that `gft`
    and `gft_at` refuse raise the same ValueError here.
    """
    return _route(_spec_plan(spec), field, _check_inputs(spec, field, freqs))


def _route(rec: _SpecPlan, field: SampledField, freqs: FreqGrid | np.ndarray) -> Plan:
    if rec.direct:
        p = Plan("direct", rec.reason)
    elif isinstance(freqs, FreqGrid) and (rec.axes is not None or rec.refusal):
        refusal = rec.refusal or _phase_refusal(rec.axes, field, freqs)
        if refusal is None:
            p = Plan("axes", f"{rec.reason}; diagonal forms")
        else:
            p = Plan("expansion", f"{rec.reason}; no axes engine: {refusal}")
    else:
        p = Plan("expansion", rec.reason)
    # imported here, not at module level: importing logging would add
    # about 9 ms to every start of the package
    import logging

    log = logging.getLogger("gafourier")
    if log.isEnabledFor(logging.DEBUG):
        count = freqs.node_count if isinstance(freqs, FreqGrid) else len(freqs)
        log.debug("plan: %s engine (%s), %d nodes x %d frequencies",
                  p.engine, p.reason, field.node_count, count)
    return p


def _spec_plan(spec: GftSpec) -> _SpecPlan:
    """The spec's `_SpecPlan`, built on first use and kept in the spec
    object's instance dictionary (as `KernelMatrix.factors` is kept with
    its kernel), so it lives exactly as long as the spec."""
    rec = spec.__dict__.get("_plan")
    if rec is None:
        rec = spec.__dict__["_plan"] = _build_spec_plan(spec)
    return rec


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
    if bases and all(b.step is not None for b in bases):
        refusal = next((f"{b.label} form not diagonal" for b in bases
                        if np.count_nonzero(b.forms[0])
                        > np.count_nonzero(np.diagonal(b.forms[0]))), None)
        if refusal is None:
            axes = _axes_layout(order)
    return _SpecPlan("; ".join(notes), order=order, refusal=refusal, axes=axes)


def _basis(sig: Signature, f: Factors, side: str, label: str, index: int) -> _Basis:
    """The basis of one nonzero kernel on one side, with read-only maps.

    A direction has `step`, the dense row-form map of x -> (-j) x on
    the left or x (-j) on the right, and `norm2` = |j|^2.  Blades have
    the signed permutations of x -> -e_i x (or x (-e_i)) as one flat
    gather over the r terms' coefficients side by side, out[:, l] =
    sign[l] * x[:, gather[l]] with l = i 2^n + k and gather[l] =
    i 2^n + (k ^ blade_i), and the blade squares `squares`.
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
    for v in maps.values():
        v.setflags(write=False)
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
    for v in (keys, which, conj):
        v.setflags(write=False)
    return _Axes(tuple(np.abs(a).sum(axis=0).tolist()), max(b.norm2 for b in order),
                 keys, which, conj, {})


def _axes_matrix(rec: _SpecPlan, flips: Sequence[int]) -> np.ndarray:
    """The read-only real (2 D 2^n, F 2^n) matrix that takes a tile's sums,
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
    w = w.reshape(2 * keys * dim, len(flips) * dim)
    w.setflags(write=False)
    return w


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
    They are computed at the nodes `_mirror_pairs` keeps, one per pair
    {x, -x}: even terms contract against B(x) + B(-x), odd ones against
    B(x) - B(-x), a node without a mirror against B(x).  When the stack
    of these sums fits max(`_AXES_BLOCK`, field + spectrum values), each
    term's maps are applied to it once (`_compose`), and a chunk of
    frequencies is its weights and one GEMM; otherwise `_compose` maps
    each chunk's GEMM outputs, which are then summed over the terms.
    Negating a kernel negates its s_i, so a flip negates the weights of
    its sine terms.
    """
    dim, order = field.sig.dim, rec.order
    cols, xs = values.shape[1] * dim, field.nodes()
    pairs = _mirror_pairs(field)
    if pairs is None:
        rows, stacks = np.arange(len(xs)), (values,)
    else:
        rows, twins = pairs
        xs, own = xs[rows], values[rows]
        twin = np.where((twins != rows)[:, None, None], values[twins], 0.0)
        stacks = (own + twin, own - twin)
    n, terms = len(rows), math.prod(b.terms for b in order)
    # the sum each term contracts against: its count of sin factors mod 2
    parity = np.zeros(1, dtype=int)
    for b in order:
        parity = (parity[:, None] + (np.arange(b.terms) > 0)).ravel() % 2
    parity *= len(stacks) - 1
    # each term's sign under each flip: -1 per flipped kernel whose sine it takes
    signs = np.ones((len(masks), 1))
    for i, b in enumerate(order if masks != (0,) else ()):  # nothing to sign without flips
        flipped = (np.array(masks)[:, None] >> (len(order) - 1 - i)) & 1
        sign = 1 - 2 * (flipped & (np.arange(b.terms) > 0))
        signs = (signs[:, :, None] * sign[:, None]).reshape(len(masks), -1)
    mapped = None
    if terms * n * cols <= max(_AXES_BLOCK, (field.node_count + len(unodes)) * cols):
        mapped = _compose(order, np.array(stacks)[parity]).reshape(terms * n, cols)
    # consecutive terms that contract against the same sum
    runs = [(len(list(group)), p) for p, group in itertools.groupby(parity.tolist())]
    phases = [(xs @ b.forms).transpose(2, 0, 1).reshape(field.m, -1) for b in order]
    chunk = max(1, _BLOCK // (terms * n * len(masks)))
    out = np.empty((len(unodes), len(masks), cols))
    for lo in range(0, len(unodes), chunk):
        u = unodes[lo:lo + chunk]
        # w[:, terms]: the first kernel's term is the most significant;
        # with only zero kernels, one term of weight 1
        w = None if order else np.ones((len(u), 1, n))
        bad = []
        for b, ph in zip(order, phases):
            blocks, mask = b.weights((u @ ph).reshape(len(u), -1, n), validate)
            w = blocks if w is None else (w[:, :, None] * blocks[:, None]).reshape(len(u), -1, n)
            bad.append(mask)
        _raise_first_violation(order, bad, rows)
        if masks != (0,):  # rows (frequency, flip)
            w = (w[:, None] * signs[:, :, None]).reshape(-1, terms, n)
        if mapped is not None:
            out[lo:lo + chunk] = (w.reshape(len(w), -1) @ mapped).reshape(len(u), -1, cols)
            continue
        y, t, w = np.empty((terms, len(w), cols)), 0, w.swapaxes(0, 1)
        for count, p in runs:
            np.matmul(w[t:t + count], stacks[p].reshape(n, cols), out=y[t:t + count])
            t += count
        out[lo:lo + chunk] = _compose(order, y).sum(axis=0).reshape(len(u), -1, cols)
    out *= field.cell_volume
    return out.reshape(len(unodes), len(masks), values.shape[1], dim).swapaxes(1, 2)


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
        for c in coords:
            c.setflags(write=False)
    return coords[j]


def _sign_patterns(k: int) -> np.ndarray:
    """The 2^(k-1) sign vectors sigma in {+1, -1}^k with sigma_1 = +1,
    kernel 2's sign the most significant bit (+1 as bit 0)."""
    bits = (np.arange(1 << (k - 1))[:, None] >> np.arange(k - 2, -1, -1)) & 1
    return np.hstack((np.ones((len(bits), 1)), 1.0 - 2.0 * bits))


def _axes_values(
    tile: Sequence[int], dims: Sequence[int], keys: int, cols: int, dim: int
) -> int:
    """Float64 values the axes engine holds at once for one tile of
    `tile` frequencies per axis: a field of extents `dims` with `dim`
    blade coefficients, `keys` distinct phase vectors and `cols` output
    values per frequency."""
    count = math.prod(tile)
    # complex intermediate after contracting x_1..x_j (j = 1..m), one key
    steps = [math.prod(tile[:j]) * math.prod(dims[j:]) * dim
             for j in range(1, len(dims) + 1)]
    # per axis: phases, three temporaries of `cos_sin` and the complex table
    return (6 * keys * sum(d * r for d, r in zip(dims, tile))
            + 2 * keys * steps[0]  # first-axis sums of every key
            + 6 * max(steps)  # one later axis: input, its copy, output
            + (2 * keys * dim + cols) * count)  # sums and the GEMM output


def _axes_tile(dims: Sequence[int], fdims: Sequence[int], keys: int, cols: int,
               dim: int) -> list[int]:
    """Extents of the frequency tiles: the whole grid, halved along the
    first axis, then the next, until `_axes_values` is within
    max(`_AXES_BLOCK`, field values + spectrum values) or the tile is
    one frequency.  Later axes are split only when a row of the first
    axis does not fit, since their phase tables are then rebuilt for
    every tile of the first axis."""
    budget = max(_AXES_BLOCK, (math.prod(dims) + math.prod(fdims)) * dim)
    tile, j = list(fdims), 0
    while j < len(tile) and _axes_values(tile, dims, keys, cols, dim) > budget:
        if tile[j] == 1:
            j += 1
        else:
            tile[j] = (tile[j] + 1) // 2
    return tile


def _gft_axes(
    rec: _SpecPlan, field: SampledField, values: np.ndarray, freqs: FreqGrid,
    matrix: np.ndarray,
) -> np.ndarray:
    """Transform on a frequency grid, one axis at a time: the
    (M, F, flips, 2^n) spectra of `_axes_matrix` of the fields `values`
    (N, F, 2^n) on `field`'s grid.

    The expansion engine's GEMM output for the cos/sin term t is
    y_t = sum_sigma prod_k M[t_k, sigma_k] E_{sigma.a} over all sign
    patterns, M = [[1/2, 1/2], [-i/2, i/2]], or 2 Re of the sum over those
    with sigma_1 = +1.  Per tile of the frequency grid (`_axes_tile`),
    each distinct phase vector up to sign is contracted axis by axis: the
    first axis as one real GEMM of B, the fields side by side, against
    cos and sin, the others as complex GEMMs.  A tile reuses the first
    axis's sums and the phase tables of the tile before it when its range
    on that axis is the same.  The rest is fixed per spec and flip set, so
    a tile's spectra are its sums times `matrix`, one real GEMM.
    """
    dim, dims, fdims, count_f = field.sig.dim, field.dims, freqs.dims, values.shape[1]
    keys, cols = rec.axes.keys, matrix.shape[1]
    xs = [_axis_coords(field, j) for j in range(field.m)]
    us = [_axis_coords(freqs, j) for j in range(field.m)]
    b0 = values.reshape(dims[0], -1).T  # (rest of x, fields and blades, d_1)
    tile = _axes_tile(dims, fdims, len(keys), count_f * cols, count_f * dim)
    out = np.empty(fdims + (count_f * cols,))
    held: dict[int, tuple[int, np.ndarray]] = {}  # axis -> (tile start, table)
    for starts in itertools.product(*(range(0, f, r) for f, r in zip(fdims, tile))):
        u = [us[j][lo:lo + r] for j, (lo, r) in enumerate(zip(starts, tile))]
        count = math.prod(map(len, u))
        for j in range(field.m):
            if held.get(j, (None,))[0] == starts[j]:
                continue
            held.pop(j, None)
            theta = np.multiply.outer(xs[j], np.multiply.outer(keys[:, j], u[j]))
            if j:  # a later axis keeps (D, d_j, R_j)
                theta = theta.transpose(1, 0, 2)
            table = np.empty(theta.shape, dtype=complex)  # e^{i theta}
            table.imag = cos_sin(theta, cos=table.real)
            if not j:  # the first axis contracts (d_1, D, R_1, cos/sin)
                table = (b0 @ table.view(float).reshape(dims[0], -1)).view(complex)
                table = table.reshape(len(b0), len(keys), len(u[0]))
            held[j] = (starts[j], table)
            del theta, table
        e = np.empty((count, count_f, len(keys), dim), dtype=complex)
        for i in range(len(keys)):
            s = held[0][1][:, i]  # axes 2..m of x, fields, blades, u_1
            for j in range(1, field.m):
                s = s.reshape(dims[j], -1).T @ held[j][1][i]  # ..., u_1..u_j
            e[:, :, i] = s.reshape(count_f, dim, count).transpose(2, 0, 1)
        out[tuple(slice(lo, lo + len(v)) for lo, v in zip(starts, u))] = (
            (e.view(float).reshape(count * count_f, -1) @ matrix).reshape(
                tuple(map(len, u)) + (count_f * cols,)))
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
    of the engine `plan` chooses.  The axes engine builds its phase
    tables once and applies every flip's matrix in one GEMM, and the
    expansion engine computes and checks its weights once; the direct
    engine transforms each field under each `negate`d spec."""
    field = _one_grid(fields)
    freqs = _check_inputs(spec, field, freqs)
    rec = _spec_plan(spec)
    engine = _route(rec, field, freqs).engine
    masks = (0,)
    if flips:  # each flip a bit mask over rec.order, its first kernel the highest bit
        top = len(rec.order) - 1
        masks = tuple(sum(bits[b.index] << (top - i) for i, b in enumerate(rec.order))
                      for bits in (tuple(j) + tuple(k) for j, k in flips))
    # fields side by side, (N, F, 2^n); one field's values as they are
    values = (field.values[:, None] if len(fields) == 1
              else np.stack([f.values for f in fields], axis=1))
    if engine == "axes":
        matrix = rec.axes.matrices.get(masks)
        if matrix is None:
            matrix = _axes_matrix(rec, masks)
            if len(rec.axes.matrices) < _FLIP_SETS:  # kept for this many flip sets
                rec.axes.matrices[masks] = matrix
        return _gft_axes(rec, field, values, freqs, matrix)
    unodes = freqs.nodes() if isinstance(freqs, FreqGrid) else freqs
    if engine == "direct":
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
    return Spectrum(spec.sig, freqs, _gft_many(spec, [field], freqs, validate=validate)[:, 0, 0])


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
