"""Discrete transform engines over sampled multivector fields.

The transform of a field A at one frequency u is the Riemann sum

    sum_x  prod_left e^{-f(x,u)}  A(x)  prod_right e^{-f(x,u)}  prod(dx)

over all grid nodes x, with the kernel products taken in their configured
order.  The frequency grid is arbitrary and independent of the spatial
one.  `gft_at` (and `gft` on a frequency grid) runs one of two engines,
chosen per call by `plan`:

* expansion: every kernel gets a basis.  A kernel that is exactly a real
  bilinear form times one constant direction j with j^2 = -1 (checked
  once) has e^{-f} = cos(s) - j sin(s) of a real phase s; any other
  kernel is sum_i s_i e_i over its nonzero blades, with
  e^{-f} = cos(rho) - sum_i s_i sin(rho)/rho e_i, rho^2 = -<f^2>_0.  The
  two-sided product then expands into prod(1 + r_k) real GEMMs over
  those weight blocks (r_k basis elements of kernel k), followed by
  constant maps: a dense product for a direction, a signed permutation
  for a blade.  With validate=True the blade kernels are checked per
  (node, frequency) with `not_imaginary`, exp_neg_many's test, and a
  direction's phases for finiteness; both raise the same NotImaginary
  as the direct engine.
* direct (`gft_direct`): per frequency, exponentials of the kernel values
  at every node, two-sided products, and a sum over nodes.  It handles
  every spec and is the reference the other engine is tested against.

Routing: the expansion engine runs while prod(1 + r_k) <= max(2^nu, 2^n),
that is while its GEMM work per pair is at most that of 2^nu sign
patterns or of one dense product; larger specs go to the direct engine.
The validate flag never changes which engine runs.

Determinism: the direct engine sums each frequency's rows with one fixed
numpy reduction over row-major node order, so identical inputs give
bit-identical spectra.  The expansion engine is bit-identical for the
same input and the same BLAS thread count, and agrees with the direct
engine within 1e-12 * max(1, |F(u)|) per frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    Multivector,
    Signature,
    blade_signs,
    gp_many,
    square_scalar_signs,
)
from .exponential import (
    NotImaginary,
    check_square,
    cos_sinc,
    exp_neg_many,
    not_imaginary,
)
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

# A kernel tensor T counts as S (x) d when no entry of S (x) d is further
# than this many ulps of max|T| from T; a looser test would break the
# 1e-12 agreement with the direct engine.
_FACTOR_ULPS = 4
# The expansion engine's weights for one frequency chunk, over all
# terms, hold at most this many values (128 KiB), or one frequency's
# worth on larger grids.  Larger blocks raise peak RSS and gain no speed.
_BLOCK = 1 << 14


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

    def at(self, index: int | Sequence[int]) -> Multivector:
        if not isinstance(index, int):
            index = int(np.ravel_multi_index(tuple(index), self.dims))
        return Multivector(self.sig, self.values[index])

    def with_values(self, values: np.ndarray) -> "SampledField":
        return SampledField(self.sig, self.dims, self.origin, self.spacing, values)

    @classmethod
    def zero(
        cls,
        sig: Signature,
        dims: Sequence[int],
        origin: Sequence[float],
        spacing: Sequence[float],
    ) -> "SampledField":
        n = math.prod(int(v) for v in dims)
        return cls(sig, tuple(dims), tuple(origin), tuple(spacing),
                   np.zeros((n, sig.dim)))

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

    @classmethod
    def from_multivectors(
        cls,
        dims: Sequence[int],
        origin: Sequence[float],
        spacing: Sequence[float],
        data: Iterable[Multivector],
    ) -> "SampledField":
        items = list(data)
        if not items:
            raise ValueError("need at least one multivector")
        sig = items[0].sig
        rows = np.stack([mv.coeffs for mv in items])
        return cls(sig, tuple(dims), tuple(origin), tuple(spacing), rows)


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

    def at(self, index: int | Sequence[int]) -> Multivector:
        if not isinstance(index, int):
            index = int(np.ravel_multi_index(tuple(index), self.grid.dims))
        return Multivector(self.sig, self.values[index])


def row_magnitudes(values: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.asarray(values, dtype=float), axis=1)


def _check_inputs(
    spec: GftSpec, field: SampledField, unodes: np.ndarray
) -> np.ndarray:
    if spec.sig != field.sig:
        raise ValueError(f"spec is over {spec.sig}, field over {field.sig}")
    if spec.m != field.m:
        raise ValueError(f"spec has m={spec.m}, field has m={field.m}")
    unodes = np.asarray(unodes, dtype=float)
    if unodes.ndim != 2 or unodes.shape[1] != spec.m:
        raise ValueError(f"frequency nodes must have shape (M, {spec.m})")
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
    """One nonzero kernel written as f(x,u) = sum_i (x^T forms[i] u) e_i.

    A rank-1 kernel has one basis element, a unit direction j with
    j^2 = -1 (checked once), and `step`, the dense row-form map of
    x -> (-j) x on the left or x (-j) on the right.  Any other kernel has
    its nonzero blades e_i, checked per sample: the map of blade i is the
    signed permutation out[:, k] = sign[i, k] * x[:, gather[i, k]], and
    `pairs` = (a, b, q) gives the non-scalar part of f^2 as q @ (s_a s_b)
    over the commuting blade pairs a < b.
    """

    side: str
    label: str
    forms: np.ndarray                   # (r, m, m)
    step: np.ndarray | None = None      # (2^n, 2^n), rank 1 only
    gather: np.ndarray | None = None    # (r, 2^n)
    sign: np.ndarray | None = None      # (r, 2^n)
    squares: np.ndarray | None = None   # (r,) blade squares e_i^2
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def terms(self) -> int:
        return 1 + len(self.forms)

    def describe(self) -> str:
        if self.step is not None:
            return f"{self.label}: 1 direction, checked once"
        r = len(self.forms)
        return f"{self.label}: {r} blade{'s' if r > 1 else ''}, per-sample check"

    def weights(
        self, s: np.ndarray, validate: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Weight blocks (terms, M, N) of e^{-f} from the coordinates
        s = (r, M, N), and the mask of invalid samples when checked."""
        if self.step is not None:
            # f = s d with d checked once: only a non-finite phase can fail
            bad = ~np.isfinite(s[0]) if validate else None
            return np.concatenate((np.cos(s), np.sin(s))), bad
        s2 = s * s
        square = np.tensordot(self.squares, s2, axes=1)  # scalar part of f^2
        cos, sinc = cos_sinc(square)
        bad = None
        if validate:
            a, b, q = self.pairs
            residue = 0.0  # no commuting blade pair: f^2 is a scalar
            if len(q):
                cross = s[a]
                cross *= s[b]
                rest = np.tensordot(q, cross, axes=1)  # non-scalar part of f^2
                residue = np.sqrt(np.einsum("t...,t...->...", rest, rest))
            bad = not_imaginary(square, residue, s2.sum(axis=0))
        return np.concatenate((cos[None], s * sinc)), bad

    def fold(self, y: np.ndarray) -> np.ndarray:
        """Sum y over this kernel's terms (the leading axis), each mapped."""
        if self.step is not None:
            return y[0] + y[1] @ self.step
        moved = np.take_along_axis(y[1:], self.gather[:, None, None], axis=-1)
        return y[0] + (moved * self.sign[:, None, None]).sum(axis=0)


def _basis(sig: Signature, side: str, label: str, tensor: np.ndarray) -> _Basis | None:
    """Basis of one kernel tensor (m, m, 2^n), or None for a zero kernel.

    The rank-1 basis is taken when T is S (x) d up to _FACTOR_ULPS ulps of
    max|T| with d passing `not_imaginary` and <d^2>_0 < 0: then
    f^2 = s^2 d^2 and |d| >= 1, so that one check is at least as strict
    as checking every sample.  Every other kernel gets its nonzero blades.
    """
    m = tensor.shape[0]
    t = tensor.reshape(-1, sig.dim)
    top = np.abs(t).max()
    if top == 0.0:
        return None
    d = t[np.argmax((t * t).sum(axis=1))] / top
    s = t @ d / (d @ d)
    if np.abs(t - np.outer(s, d)).max() <= _FACTOR_ULPS * np.spacing(top):
        fails, sq = check_square(Multivector(sig, d))
        if not fails and sq.scalar_part() < 0.0:
            rho = math.sqrt(-sq.scalar_part())
            j = -d / rho
            eye = np.eye(sig.dim)
            step = gp_many(sig, j, eye) if side == "left" else gp_many(sig, eye, j)
            return _Basis(side, label, (s * rho).reshape(1, m, m), step=step)
    blades = np.flatnonzero(np.abs(t).max(axis=0))
    col = blades[:, None]
    gather = np.arange(sig.dim) ^ col
    sign = -(blade_signs(sig, col, gather) if side == "left"
             else blade_signs(sig, gather, col))
    a, b = np.triu_indices(len(blades), 1)
    ab = blade_signs(sig, blades[a], blades[b])
    commute = ab == blade_signs(sig, blades[b], blades[a])
    a, b, ab = a[commute], b[commute], ab[commute]
    # e_a e_b + e_b e_a = 2 sign(a, b) e_{a^b} for a commuting pair
    targets, row = np.unique(blades[a] ^ blades[b], return_inverse=True)
    q = np.zeros((len(targets), len(a)))
    q[row, np.arange(len(a))] = 2.0 * ab
    return _Basis(side, label, t[:, blades].T.reshape(-1, m, m), gather=gather,
                  sign=sign, squares=square_scalar_signs(sig)[blades], pairs=(a, b, q))


@dataclass(frozen=True)
class Plan:
    """Engine chosen for one transform call and the reason for the choice.

    For the expansion engine `bases` holds the basis of every nonzero
    kernel, left kernels then right kernels, each in order.
    """

    engine: str  # "expansion" or "direct"
    reason: str
    bases: tuple[_Basis, ...] = ()


def plan(spec: GftSpec, field: SampledField, unodes: np.ndarray) -> Plan:
    """Choose the engine for transforming `field` at `unodes` under `spec`.

    Every kernel gets a basis (`_basis`) of r terms; the expansion engine
    runs while the product of (1 + r) over the kernels stays within
    max(2^nu, 2^n), so its GEMM work per pair is at most that of 2^nu
    sign patterns or of one dense product.  Larger specs go to the
    direct engine.
    """
    sig = spec.sig
    limit = max(1 << spec.nu, sig.dim)
    bases, notes, terms = [], [], 1
    for side, kernels in (("left", spec.left), ("right", spec.right)):
        for pos, kern in enumerate(kernels, start=1):
            label = f"{side} kernel {pos}"
            b = _basis(sig, side, label, kern.tensor)
            if b is None:
                notes.append(f"{label}: zero")
                continue
            terms *= b.terms
            if terms > limit:
                bound = f"2^n = {limit}" if limit == sig.dim else f"2^nu = {limit}"
                return _decided(Plan("direct", f"{label}: {terms} terms exceed {bound}"),
                                field, unodes)
            bases.append(b)
            notes.append(b.describe())
    notes.append(f"{terms} term{'s' if terms > 1 else ''}")
    return _decided(Plan("expansion", "; ".join(notes), tuple(bases)), field, unodes)


def _decided(p: Plan, field: SampledField, unodes: np.ndarray) -> Plan:
    # imported here, not at module level: importing logging would add
    # about 9 ms to every start of the package
    import logging

    log = logging.getLogger("gafourier")
    if log.isEnabledFor(logging.DEBUG):
        log.debug("plan: %s engine (%s), %d nodes x %d frequencies",
                  p.engine, p.reason, field.node_count, len(unodes))
    return p


def _gft_expansion(
    p: Plan, field: SampledField, unodes: np.ndarray, validate: bool
) -> np.ndarray:
    """Expanded transform over the kernel bases of `p`.

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
    # Row-form maps x -> x @ step compose innermost first: left kernels
    # from the last to the first, then right kernels in order.
    order = [b for b in reversed(p.bases) if b.side == "left"] + [
        b for b in p.bases if b.side == "right"
    ]
    phases = [(xs @ b.forms).transpose(0, 2, 1).copy() for b in order]
    n = len(xs)
    chunk = max(1, _BLOCK // (math.prod(b.terms for b in order) * n))
    out = np.empty((len(unodes), sig.dim))
    for lo in range(0, len(unodes), chunk):
        u = unodes[lo:lo + chunk]
        # w[terms]: the first kernel's term is the leading index
        w = np.ones((1, len(u), n))
        bad = {}
        for b, ph in zip(order, phases):
            blocks, bad[b.label] = b.weights(u @ ph, validate)
            w = (w[:, None] * blocks).reshape(-1, len(u), n)
        _raise_first_violation(p, bad)
        y = w @ field.values
        for b in order:
            y = b.fold(y.reshape(b.terms, -1, len(u), sig.dim))
        out[lo:lo + chunk] = y[0]
    return out * field.cell_volume


def _raise_first_violation(p: Plan, bad: dict[str, np.ndarray | None]) -> None:
    """Raise what the direct engine raises first: at the first offending
    frequency, the first offending kernel in order, its first node."""
    hits = [(int(np.argmax(m.any(axis=1))), i, b.label, m)
            for i, b in enumerate(p.bases)
            if (m := bad[b.label]) is not None and m.any()]
    if hits:
        first, _, label, m = min(hits, key=lambda h: h[:2])
        raise NotImaginary.at_sample(label, int(np.argmax(m[first])))


def gft_at(
    spec: GftSpec,
    field: SampledField,
    unodes: np.ndarray,
    validate: bool = True,
) -> np.ndarray:
    """Transform values at an explicit (M, m) array of frequency vectors,
    on the engine `plan` chooses."""
    unodes = _check_inputs(spec, field, unodes)
    p = plan(spec, field, unodes)
    if p.engine == "expansion":
        return _gft_expansion(p, field, unodes, validate)
    return gft_direct(spec, field, unodes, validate)


def gft(
    spec: GftSpec,
    field: SampledField,
    freqs: FreqGrid,
    validate: bool = True,
) -> Spectrum:
    """Discrete transform of a sampled field on a frequency grid."""
    if freqs.m != field.m:
        raise ValueError(f"frequency grid has m={freqs.m}, field has m={field.m}")
    return Spectrum(spec.sig, freqs, gft_at(spec, field, freqs.nodes(), validate))


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
