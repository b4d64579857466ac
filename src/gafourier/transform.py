"""Discrete transform engines over sampled multivector fields.

The transform of a field A at one frequency u is the Riemann sum

    sum_x  prod_left e^{-f(x,u)}  A(x)  prod_right e^{-f(x,u)}  prod(dx)

over all grid nodes x, with the kernel products taken in their configured
order.  The frequency grid is arbitrary and independent of the spatial
one.  `gft` (on a frequency grid) is the transform the CLI and every
identity check run; `gft_at` is the entry point for scattered
frequencies (an (M, m) array).  Both run one of three engines, chosen
per call by `plan`:

* axes: every kernel is one direction j_k with j_k^2 = -1, checked once,
  times a diagonal form s_k = sum_j a_kj x_j u_j, and the frequencies form
  a grid.  With cos s = (e^{is} + e^{-is})/2 and sin s = (e^{is} -
  e^{-is})/2i the expanded integrand becomes complex sums
  E_c(u) = sum_x e^{i sum_j c_j x_j u_j} A(x) over the phase vectors
  c = sum_k sigma_k a_k of the sign patterns sigma, and each such sum is
  contracted one axis at a time.  Only patterns with sigma_1 = +1 are
  summed (E_{-c} is the conjugate of E_c), equal phase vectors once, and
  the sums are recombined into the cos/sin weights one kernel at a time
  before the expansion engine's constant maps.  It runs in tiles of the
  frequency grid whose working set stays within 2 MiB or the size of the
  field plus the spectrum, whichever is larger.
* expansion: every kernel gets a basis from its factorization, the one
  rule stated in `kernels`.  A direction kernel s j (j^2 = -1, checked
  once) has e^{-f} = cos(s) - j sin(s) of a real phase s; a blade kernel
  is sum_i s_i e_i over its nonzero blades, with
  e^{-f} = cos(rho) - sum_i s_i sin(rho)/rho e_i, rho^2 = -<f^2>_0.  Each
  kernel's weights for a chunk of frequencies are written into one
  (1 + r_k, M, N) array.  The two-sided product then expands into
  prod(1 + r_k) real GEMMs over those weight blocks (r_k basis elements
  of kernel k), followed by constant maps: a dense product for a
  direction, a signed permutation for a blade.
* direct (`gft_direct`): per frequency, exponentials of the kernel values
  at every node, two-sided products, and a sum over nodes.  It handles
  every spec and is the reference the other engines are tested against.

Routing: a grid of frequencies whose nonzero kernels (at least one) are
all direction kernels goes to the axes engine when each of those
forms is diagonal and the phase bound sum_kj |a_kj| max|x_j| max|u_j| is
finite; otherwise its reason ends in "no axes engine: " and the first
condition that failed ("right kernel 1 form not diagonal", or the phase
bound "is not finite").  Everything else, and every array of
frequencies, runs the
expansion engine while prod(1 + r_k) <= max(2^nu, 2^n), that is while
its GEMM work per pair is at most that of 2^nu sign patterns or of one
dense product; larger specs go to the direct engine.  The validate flag
never changes which engine runs.

Planning: what depends on the spec alone is built on the first `plan` of
a spec object and kept with it (`_spec_plan`): the kernel bases, the
reason text up to the term count, the direct-engine and diagonal-form
verdicts, and the axes engine's layout (fold order, the phase vectors up
to sign and the unit column).  Each call pays for the rest: the phase
bound from the grids' origin, spacing and extents, the routing, the
DEBUG record, the tile sizes and the arithmetic.  No verdict about a
grid is kept.

Validation (validate=True) raises the same NotImaginary as the direct
engine.  The axes engine needs no per-sample check: each direction is
checked once, and the finite phase bound makes every phase finite.  The
expansion engine checks a direction's phases for finiteness.  A blade
kernel whose factorization decided once that it squares to a real <= 0
everywhere (`Factors.imaginary`, cylindrical:n for n >= 3) is checked
per sample only for a finite -sum_i s_i^2; any other blade kernel is
checked per (node, frequency) with `not_imaginary`, exp_neg_many's test.

Determinism: the direct engine sums each frequency's rows with one fixed
numpy reduction over row-major node order, so identical inputs give
bit-identical spectra.  The axes and expansion engines are bit-identical
for the same input and the same numpy build and BLAS thread count, and
agree with the direct engine within 1e-12 * max(1, |F(u)|) per
frequency.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Signature, gp_many
from .exponential import NotImaginary, cos_sinc, exp_neg_many, not_imaginary
from .kernels import GftSpec

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
# (-i)^p for p = 0..3
_UNITS = np.array([1.0, -1.0j, -1.0, 1.0j])


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
    axes = [np.arange(d) for d in dims]
    idx = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
        -1, len(dims)
    )
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


def _check_spec(spec: GftSpec, field: SampledField) -> None:
    if spec.sig != field.sig:
        raise ValueError(f"spec is over {spec.sig}, field over {field.sig}")
    if spec.m != field.m:
        raise ValueError(f"spec has m={spec.m}, field has m={field.m}")


def _check_inputs(
    spec: GftSpec, field: SampledField, unodes: np.ndarray
) -> np.ndarray:
    _check_spec(spec, field)
    unodes = np.asarray(unodes, dtype=float)
    if unodes.ndim != 2 or unodes.shape[1] != spec.m:
        raise ValueError(f"frequency nodes must have shape (M, {spec.m})")
    if not np.isfinite(unodes).all():
        raise ValueError("frequency nodes must be finite")
    return unodes


def gft_direct(
    spec: GftSpec,
    field: SampledField,
    unodes: np.ndarray,
    validate: bool = True,
) -> np.ndarray:
    """Direct-sum transform at an explicit (M, m) array of frequency vectors.

    The reference engine: every other engine is checked against it.
    """
    unodes = _check_inputs(spec, field, unodes)
    sig = spec.sig
    xs = field.nodes()
    vol = field.cell_volume
    out = np.empty((unodes.shape[0], sig.dim))
    for i, u in enumerate(unodes):
        rows = None
        for pos, kern in enumerate(spec.left, start=1):
            e = exp_neg_many(
                sig, kern.values(xs, u), validate=validate,
                label=f"left kernel {pos}",
            )
            rows = e if rows is None else gp_many(sig, rows, e)
        rows = field.values if rows is None else gp_many(sig, rows, field.values)
        for pos, kern in enumerate(spec.right, start=1):
            e = exp_neg_many(
                sig, kern.values(xs, u), validate=validate,
                label=f"right kernel {pos}",
            )
            rows = gp_many(sig, rows, e)
        out[i] = rows.sum(axis=0) * vol
    return out


@dataclass(frozen=True)
class _Basis:
    """One nonzero kernel on one side of a plan: its factorization's
    `forms`, `pairs` and `imaginary` verdict (`kernels.Factors`) and the
    constant maps `Factors.maps` built for that side, shared by every
    plan of the kernel.
    """

    side: str
    label: str
    forms: np.ndarray                   # (r, m, m)
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    imaginary: bool
    step: np.ndarray | None = None      # (2^n, 2^n), direction only
    gather: np.ndarray | None = None    # (r, 2^n)
    sign: np.ndarray | None = None      # (r, 2^n)
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
        """Weight blocks (terms, M, N) of e^{-f} from the coordinates
        s = (r, M, N), written into one new array, and the mask of
        invalid samples when checked."""
        w = np.empty((self.terms,) + s.shape[1:])
        if self.step is not None:
            # f = s d with d checked once: only a non-finite phase can fail
            np.cos(s, out=w[:1])
            np.sin(s, out=w[1:])
            return w, ~np.isfinite(s[0]) if validate else None
        s2 = s * s
        square = np.tensordot(self.squares, s2, axes=1)  # scalar part of f^2
        _, sinc = cos_sinc(square, cos=w[0])
        np.multiply(s, sinc, out=w[1:])
        bad = None
        if validate and self.imaginary:
            # f^2 = -sum_i s_i^2 everywhere: only a non-finite one can fail
            bad = ~np.isfinite(square)
        elif validate:
            a, b, q = self.pairs
            residue = 0.0  # no commuting blade pair: f^2 is a scalar
            if len(q):
                cross = s[a]
                cross *= s[b]
                rest = np.tensordot(q, cross, axes=1)  # non-scalar part of f^2
                residue = np.sqrt(np.einsum("t...,t...->...", rest, rest))
            bad = not_imaginary(square, residue, s2.sum(axis=0))
        return w, bad

    def fold(self, y: np.ndarray) -> np.ndarray:
        """Sum y over this kernel's terms (the leading axis), each mapped."""
        if self.step is not None:
            return y[0] + y[1] @ self.step
        moved = np.take_along_axis(y[1:], self.gather[:, None, None], axis=-1)
        return y[0] + (moved * self.sign[:, None, None]).sum(axis=0)


@dataclass(frozen=True)
class Plan:
    """Engine chosen for one transform call and the reason for the choice."""

    engine: str  # "axes", "expansion" or "direct"
    reason: str


@dataclass(frozen=True, eq=False)
class _Axes:
    """The axes engine's layout for one spec, with the kernels in fold
    order: the sign patterns sigma with sigma_1 = +1 (`_sign_patterns`)
    give the phase vectors c = sigma . a, kept once up to sign."""

    reach: tuple[float, ...]  # sum_k |a_kj| per axis j
    keys: np.ndarray          # (D, m) distinct c up to sign, first nonzero > 0
    which: np.ndarray         # (2^(K-1),) the key of each pattern
    conj: np.ndarray          # (2^(K-1), 1, 1) the pattern's c is minus its key
    units: np.ndarray         # (2^(K-1), 1, 1) (-i)^p, p = bit count of the index


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
    bases: tuple[_Basis, ...] = ()
    order: tuple[_Basis, ...] = ()  # `_fold_order` of the bases
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
    decided once per spec object; see `_spec_plan`.
    """
    return _route(_spec_plan(spec), field, freqs)


def _route(rec: _SpecPlan, field: SampledField, freqs: FreqGrid | np.ndarray) -> Plan:
    if rec.direct:
        p = Plan("direct", rec.reason)
    elif isinstance(freqs, FreqGrid) and (rec.axes is not None or rec.refusal):
        refusal = rec.refusal or _phase_refusal(rec.axes.reach, field, freqs)
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
    for side, kernels in (("left", spec.left), ("right", spec.right)):
        for pos, kern in enumerate(kernels, start=1):
            label = f"{side} kernel {pos}"
            f = kern.factors
            if f is None:
                notes.append(f"{label}: zero")
                continue
            b = _Basis(side, label, f.forms, f.pairs, f.imaginary, **f.maps(side))
            terms *= b.terms
            if terms > limit:
                bound = f"2^n = {limit}" if limit == sig.dim else f"2^nu = {limit}"
                return _SpecPlan(f"{label}: {terms} terms exceed {bound}", direct=True)
            bases.append(b)
            notes.append(b.describe())
    notes.append(f"{terms} term{'s' if terms > 1 else ''}")
    bases, order = tuple(bases), tuple(_fold_order(bases))
    refusal = axes = None
    if bases and all(b.step is not None for b in bases):
        refusal = next((f"{b.label} form not diagonal" for b in bases
                        if np.count_nonzero(b.forms[0])
                        > np.count_nonzero(np.diagonal(b.forms[0]))), None)
        if refusal is None:
            axes = _axes_layout(order)
    return _SpecPlan("; ".join(notes), bases=bases, order=order, refusal=refusal, axes=axes)


def _axes_layout(order: Sequence[_Basis]) -> _Axes:
    k = len(order)
    a = np.array([np.diagonal(b.forms[0]) for b in order])
    c = _sign_patterns(k) @ a
    # one representative per phase vector up to sign: first nonzero > 0
    first = np.take_along_axis(c, (c != 0).argmax(axis=1)[:, None], axis=1)[:, 0]
    conj = first < 0
    index: dict[tuple[float, ...], int] = {}
    which = [index.setdefault(key, len(index))
             for key in map(tuple, (np.where(conj[:, None], -c, c) + 0.0).tolist())]
    keys = np.array(list(index)).reshape(len(index), a.shape[1])
    units = _UNITS[np.bitwise_count(np.arange(len(c))) % 4]
    arrays = keys, np.array(which), conj[:, None, None], units[:, None, None]
    for v in arrays:
        v.setflags(write=False)
    return _Axes(tuple(np.abs(a).sum(axis=0).tolist()), *arrays)


def _phase_refusal(
    reach: Sequence[float], field: SampledField, freqs: FreqGrid
) -> str | None:
    """Why the axes engine cannot run on these grids, or None."""
    # every phase c_j u_j x_j the engine forms is at most (a_j U_j) X_j
    bound = sum(a * _axis_max(freqs, j) * _axis_max(field, j) for j, a in enumerate(reach))
    if not math.isfinite(bound):
        return "phase bound sum_kj |a_kj| max|x_j| max|u_j| is not finite"
    return None


def _axis_max(grid: FreqGrid | SampledField, j: int) -> float:
    """Largest |coordinate| along axis j of a regular grid."""
    origin = grid.origin[j]
    return max(abs(origin), abs(origin + (grid.dims[j] - 1) * grid.spacing[j]))


def _fold_order(bases: Sequence[_Basis]) -> list[_Basis]:
    """Row-form maps x -> x @ step compose innermost first: left kernels
    from the last to the first, then right kernels in order."""
    return [b for b in reversed(bases) if b.side == "left"] + [
        b for b in bases if b.side == "right"
    ]


def _gft_expansion(
    rec: _SpecPlan, field: SampledField, unodes: np.ndarray, validate: bool
) -> np.ndarray:
    """Expanded transform over the kernel bases of `rec`.

    Each e^{-f} is a sum of its basis terms with real weights (cos and
    sin of the phase for a direction; cos(rho) and s_i sin(rho)/rho for
    blades), so the integrand expands into prod(1 + r_k) terms
    w(x, u) G_L B(x) G_R with constant G_L, G_R.  Per chunk of
    frequencies, the real GEMMs W^T B run as one batched product; the
    constant maps are then applied one kernel at a time, each step
    summing over that kernel's terms.
    """
    sig = field.sig
    xs = field.nodes()
    order = rec.order
    phases = [(xs @ b.forms).transpose(0, 2, 1).copy() for b in order]
    n = len(xs)
    chunk = max(1, _BLOCK // (math.prod(b.terms for b in order) * n))
    out = np.empty((len(unodes), sig.dim))
    for lo in range(0, len(unodes), chunk):
        u = unodes[lo:lo + chunk]
        # w[terms]: the first kernel's term is the leading index; with
        # only zero kernels, one term of weight 1
        w = None if order else np.ones((1, len(u), n))
        bad = {}
        for b, ph in zip(order, phases):
            blocks, bad[b.label] = b.weights(u @ ph, validate)
            w = blocks if w is None else (w[:, None] * blocks).reshape(-1, len(u), n)
        _raise_first_violation(rec.bases, bad)
        y = w @ field.values
        for b in order:
            y = b.fold(y.reshape(b.terms, -1, len(u), sig.dim))
        out[lo:lo + chunk] = y[0]
    out *= field.cell_volume
    return out


def _raise_first_violation(
    bases: Sequence[_Basis], bad: dict[str, np.ndarray | None]
) -> None:
    """Raise what the direct engine raises first: at the first offending
    frequency, the first offending kernel in order, its first node."""
    hits = [(int(np.argmax(m.any(axis=1))), i, b.label, m)
            for i, b in enumerate(bases)
            if (m := bad[b.label]) is not None and m.any()]
    if hits:
        first, _, label, m = min(hits, key=lambda h: h[:2])
        raise NotImaginary.at_sample(label, int(np.argmax(m[first])))


def _axis_coords(grid: FreqGrid | SampledField, j: int) -> np.ndarray:
    """Coordinates of axis j's nodes, as `grid_nodes` computes them."""
    return grid.origin[j] + np.arange(grid.dims[j]) * grid.spacing[j]


def _sign_patterns(k: int) -> np.ndarray:
    """The 2^(k-1) sign vectors sigma in {+1, -1}^k with sigma_1 = +1,
    kernel 2's sign the most significant bit (+1 as bit 0)."""
    bits = (np.arange(1 << (k - 1))[:, None] >> np.arange(k - 2, -1, -1)) & 1
    return np.hstack((np.ones((len(bits), 1)), 1.0 - 2.0 * bits))


def _axes_values(
    tile: Sequence[int], dims: Sequence[int], keys: int, k: int, dim: int
) -> int:
    """Float64 values the axes engine holds at once for one tile of
    `tile` frequencies per axis: a field of extents `dims` with `dim`
    blade coefficients, `keys` distinct phase vectors and k kernels."""
    count = math.prod(tile)
    # complex intermediate after contracting x_1..x_j (j = 1..m), one key
    steps = [math.prod(tile[:j]) * math.prod(dims[j:]) * dim
             for j in range(1, len(dims) + 1)]
    return (3 * keys * dims[0] * tile[0]  # first-axis phases, cos and sin
            + 3 * keys * sum(d * r for d, r in zip(dims[1:], tile[1:]))  # later axes
            + 2 * keys * steps[0]  # first-axis sums of every key
            + 6 * max(steps)  # one later axis: input, its copy, output
            + (2 * keys + 3 * (1 << k)) * count * dim)  # sums, terms, folds


def _axes_tile(dims: Sequence[int], fdims: Sequence[int], keys: int, k: int,
               dim: int) -> list[int]:
    """Extents of the frequency tiles: the whole grid, halved along the
    first axis, then the next, until `_axes_values` is within
    max(`_AXES_BLOCK`, field values + spectrum values) or the tile is
    one frequency.  Later axes are split only when a row of the first
    axis does not fit, since their phase tables are then rebuilt for
    every tile of the first axis."""
    budget = max(_AXES_BLOCK, (math.prod(dims) + math.prod(fdims)) * dim)
    tile, j = list(fdims), 0
    while j < len(tile) and _axes_values(tile, dims, keys, k, dim) > budget:
        if tile[j] == 1:
            j += 1
        else:
            tile[j] = (tile[j] + 1) // 2
    return tile


def _gft_axes(rec: _SpecPlan, field: SampledField, freqs: FreqGrid) -> np.ndarray:
    """Transform on a frequency grid, one axis at a time.

    With every kernel one direction times s_k = sum_j a_kj x_j u_j, the
    expansion engine's GEMM output for the cos/sin term t = (t_1..t_K) is

        y_t = sum_sigma prod_k M[t_k, sigma_k] E_{sigma.a},
        M = [[1/2, 1/2], [-i/2, i/2]],
        E_c(u) = sum_x e^{i sum_j c_j x_j u_j} B(x),

    over all sign patterns sigma, or 2 Re of the sum over those with
    sigma_1 = +1, since E_{-c} = conj E_c.  Per tile of the frequency
    grid (`_axes_tile`), each distinct phase vector up to sign is
    contracted axis by axis (the first axis as one real GEMM of B against
    cos and sin, the others as complex GEMMs); a tile reuses the first
    axis's sums and the per-axis phase tables of the tile before it when
    its range on that axis is the same.  M = D H / 2 with D = diag(1, -i)
    and H the 2x2 Hadamard matrix, so the map to terms is one butterfly
    per kernel, then one unit (-i)^(sin count) per term and a power of
    1/2 at the end.  The terms go through the expansion engine's folds.
    """
    dim, dims, fdims = field.sig.dim, field.dims, freqs.dims
    order, layout = rec.order, rec.axes
    k, keys = len(order), layout.keys
    xs = [_axis_coords(field, j) for j in range(field.m)]
    us = [_axis_coords(freqs, j) for j in range(field.m)]
    b0 = field.values.reshape(dims[0], -1).T  # (rest of x and blades, d_1)
    tile = _axes_tile(dims, fdims, len(keys), k, dim)
    out = np.empty(fdims + (dim,))
    held: dict[int, tuple[int, np.ndarray]] = {}  # axis -> (tile start, table)
    for starts in itertools.product(*(range(0, f, r) for f, r in zip(fdims, tile))):
        u = [us[j][lo:lo + r] for j, (lo, r) in enumerate(zip(starts, tile))]
        count = math.prod(map(len, u))
        if held.get(0, (None,))[0] != starts[0]:
            held.pop(0, None)
            theta = np.multiply.outer(xs[0], np.multiply.outer(keys[:, 0], u[0]))
            cs = np.empty(theta.shape + (2,))  # (d_1, D, R_1, cos/sin)
            np.cos(theta, out=cs[..., 0])
            np.sin(theta, out=cs[..., 1])
            t = (b0 @ cs.reshape(dims[0], -1)).view(complex)
            held[0] = (starts[0], t.reshape(len(b0), len(keys), len(u[0])))
            del theta, cs, t
        for j in range(1, field.m):
            if held.get(j, (None,))[0] != starts[j]:
                held.pop(j, None)
                theta = np.multiply.outer(keys[:, j], u[j])[:, None] * xs[j][:, None]
                table = np.empty(theta.shape, dtype=complex)  # (D, d_j, R_j)
                np.cos(theta, out=table.real)
                np.sin(theta, out=table.imag)
                held[j] = (starts[j], table)
                del theta, table
        e = np.empty((len(keys), count, dim), dtype=complex)
        for i in range(len(keys)):
            s = held[0][1][:, i]  # axes 2..m of x, blades, u_1
            for j in range(1, field.m):
                s = s.reshape(dims[j], -1).T @ held[j][1][i]  # ..., blades, u_1..u_j
            e[i] = s.reshape(dim, count).T
        z = e[layout.which]
        np.conjugate(z, out=z, where=layout.conj)
        for axis in range(k - 1):
            z = z.reshape(1 << axis, 2, -1)
            h = np.empty_like(z)
            np.add(z[:, 0], z[:, 1], out=h[:, 0])
            np.subtract(z[:, 0], z[:, 1], out=h[:, 1])
            z = h
        z = z.reshape(-1, count, dim)
        z *= layout.units
        y = np.concatenate((z.real, z.imag))
        for b in order:
            y = b.fold(y.reshape(b.terms, -1, count, dim))
        out[tuple(slice(lo, lo + len(v)) for lo, v in zip(starts, u))] = (
            y[0].reshape(tuple(map(len, u)) + (dim,)))
    out *= field.cell_volume * 0.5 ** (k - 1)
    return out.reshape(-1, dim)


def _gft_nodes(
    p: Plan, rec: _SpecPlan, spec: GftSpec, field: SampledField, unodes: np.ndarray,
    validate: bool,
) -> np.ndarray:
    if p.engine == "expansion":
        return _gft_expansion(rec, field, unodes, validate)
    return gft_direct(spec, field, unodes, validate)


def gft_at(
    spec: GftSpec,
    field: SampledField,
    unodes: np.ndarray,
    validate: bool = True,
) -> np.ndarray:
    """Transform values at an explicit (M, m) array of frequency vectors,
    on the engine `plan` chooses (never the axes engine)."""
    unodes = _check_inputs(spec, field, unodes)
    rec = _spec_plan(spec)
    return _gft_nodes(_route(rec, field, unodes), rec, spec, field, unodes, validate)


def gft(
    spec: GftSpec,
    field: SampledField,
    freqs: FreqGrid,
    validate: bool = True,
) -> Spectrum:
    """Discrete transform of a sampled field on a frequency grid."""
    if freqs.m != field.m:
        raise ValueError(f"frequency grid has m={freqs.m}, field has m={field.m}")
    _check_spec(spec, field)
    rec = _spec_plan(spec)
    p = _route(rec, field, freqs)
    if p.engine == "axes":
        values = _gft_axes(rec, field, freqs)
    else:
        values = _gft_nodes(p, rec, spec, field, freqs.nodes(), validate)
    return Spectrum(spec.sig, freqs, values)


def default_freqs(field: SampledField, scale: float = 1.0) -> FreqGrid:
    """Frequency grid matching the field's extents.

    Spacing du = scale/(extent * dx) per axis; the origin is chosen so
    that u = 0 falls on the node at index extent//2.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
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
