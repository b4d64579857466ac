"""Discrete transform engines over sampled multivector fields.

The transform of a field A at one frequency u is the Riemann sum

    sum_x  prod_left e^{-f(x,u)}  A(x)  prod_right e^{-f(x,u)}  prod(dx)

over all grid nodes x, with the kernel products taken in their configured
order.  The frequency grid is arbitrary and independent of the spatial
one.  `gft_at` (and `gft` on a frequency grid) runs one of two engines,
chosen per call by `plan`:

* direct (`gft_direct`): per frequency, exponentials of the kernel values
  at every node, two-sided products, and a sum over nodes.  It handles
  every spec and is the reference the other engine is tested against.
* separable: used when every kernel is exactly a real bilinear form
  times one constant direction whose square is a negative real.  Each
  exponential is then cos - (d/rho) sin of a real phase, so the two-sided
  product expands into 2^nu real GEMMs over cos/sin weight blocks,
  followed by constant maps X -> G_L X G_R.

Everything else (non-separable kernels such as cylindrical:n for n >= 3,
kernel tensors that only factor approximately, directions that do not
square to a negative real) goes to the direct engine, which with
validate=True raises NotImaginary for the first offending sample.  The
validate flag never changes which engine runs.

Determinism: the direct engine sums each frequency's rows with one fixed
numpy reduction over row-major node order, so identical inputs give
bit-identical spectra.  The separable engine is bit-identical for the
same input and the same BLAS thread count, and agrees with the direct
engine within 1e-12 * max(1, |F(u)|) per frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import RELATIVE_TOL, Multivector, Signature, gp_many
from .exponential import exp_neg_many
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
# The separable engine's cos/sin weights for one frequency chunk, over
# all 2^nu sign patterns, hold at most this many values (128 KiB), or one
# frequency's worth on larger grids.  Larger blocks raise peak RSS and
# gain no speed.
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
class Plan:
    """Engine chosen for one transform call and the reason for the choice.

    For the separable engine `factors` holds, per nonzero kernel in
    order, (side, R, j): the kernel is x^T R u times the unit direction j
    (coefficients, j^2 = -1), so e^{-f} = cos(x^T R u) - j sin(x^T R u).
    """

    engine: str  # "separable" or "direct"
    reason: str
    factors: tuple[tuple[str, np.ndarray, np.ndarray], ...] = ()


def plan(spec: GftSpec, field: SampledField, unodes: np.ndarray) -> Plan:
    """Choose the engine for transforming `field` at `unodes` under `spec`.

    The separable engine is chosen when every kernel tensor T is exactly
    S (x) d, up to _FACTOR_ULPS ulps of max|T|, with S real and d^2 a
    negative real within RELATIVE_TOL |d|^2.  Then f^2 = s^2 d^2, so the
    one check of d^2 is at least as strict as the per-sample validation
    of the direct engine, which gets every other spec.
    """
    factors = []
    for side, kernels in (("left", spec.left), ("right", spec.right)):
        for pos, kern in enumerate(kernels, start=1):
            t = kern.tensor.reshape(-1, spec.sig.dim)
            top = np.abs(t).max()
            if top == 0.0:
                continue  # zero kernel: e^{-0} = 1
            d = t[np.argmax((t * t).sum(axis=1))] / top
            s = t @ d / (d @ d)
            # written so that NaN or inf entries also fall to the direct engine
            if not np.abs(t - np.outer(s, d)).max() <= _FACTOR_ULPS * np.spacing(top):
                return _decided(Plan("direct", f"{side} kernel {pos} not separable"),
                                field, unodes)
            sq = gp_many(spec.sig, d, d)
            bound = RELATIVE_TOL * (d @ d)
            if not (sq[0] < -bound and np.abs(sq[1:]).max(initial=0.0) <= bound):
                return _decided(
                    Plan("direct", f"{side} kernel {pos} direction does not square "
                                   "to a negative real"),
                    field, unodes,
                )
            rho = math.sqrt(-sq[0])
            factors.append((side, s.reshape(spec.m, spec.m) * rho, d / rho))
    return _decided(Plan("separable", "all kernels separable", tuple(factors)),
                    field, unodes)


def _decided(p: Plan, field: SampledField, unodes: np.ndarray) -> Plan:
    # imported here, not at module level: importing logging would add
    # about 9 ms to every start of the package
    import logging

    log = logging.getLogger("gafourier")
    if log.isEnabledFor(logging.DEBUG):
        log.debug("plan: %s engine (%s), %d nodes x %d frequencies",
                  p.engine, p.reason, field.node_count, len(unodes))
    return p


def _gft_separable(p: Plan, field: SampledField, unodes: np.ndarray) -> np.ndarray:
    """Trig-expanded transform of a separable spec.

    With c_k = cos(x^T R_k u), s_k = sin(x^T R_k u) the integrand expands
    into 2^nu terms w_sigma(x, u) G_L B(x) G_R, where w_sigma multiplies
    s_k for the kernels in sigma and c_k for the rest, and G_L, G_R are
    the ordered products of the -j_k in sigma on each side.  Per chunk of
    frequencies, the real GEMMs W_sigma^T B run as one batched product;
    the constant maps X -> G_L X G_R are then applied one kernel at a
    time, each step halving the number of terms.
    """
    sig = field.sig
    xs = field.nodes()
    eye = np.eye(sig.dim)
    # Row-form maps x -> x @ step compose innermost first: left kernels
    # from the last to the first, then right kernels in order.
    order = [f for f in reversed(p.factors) if f[0] == "left"] + [
        f for f in p.factors if f[0] == "right"
    ]
    steps = [gp_many(sig, -j, eye) if side == "left" else gp_many(sig, eye, -j)
             for side, _, j in order]
    phases = [(xs @ r).T.copy() for _, r, _ in order]
    n = len(xs)
    chunk = max(1, (_BLOCK >> len(order)) // n)
    out = np.empty((len(unodes), sig.dim))
    for lo in range(0, len(unodes), chunk):
        u = unodes[lo:lo + chunk]
        # w[sigma]: the first kernel's cos/sin choice is the leading bit
        w = np.ones((1, len(u), n))
        for ph in phases:
            theta = u @ ph
            cs = np.stack((np.cos(theta), np.sin(theta)))
            w = (w[:, None] * cs).reshape(-1, len(u), n)
        y = w @ field.values
        # sum over sigma of y[sigma] @ prod(steps selected), one kernel at a time
        for step in steps:
            half = len(y) // 2
            y = y[:half] + y[half:] @ step
        out[lo:lo + chunk] = y[0]
    return out * field.cell_volume


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
    if p.engine == "separable":
        return _gft_separable(p, field, unodes)
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
