"""Two-sided verifiers for the transform's algebraic identities.

Each check computes the identity's left- and right-hand sides by
independent code paths on the same discrete data and reports the largest
per-frequency deviation.  The identities are pointwise-algebraic in the
integrand, so on shared grids they hold to float roundoff; the reported
residual is compared against tol * max(1, |LHS|).

Every transform a check makes is on a frequency grid (`gft`), so the
checks run the engine `transform` runs for the same spec: the axes
engine for every separable preset.  The scaling check transforms its
right-hand side on the grid of the nodes u/a; one rule (`_divided`)
gives that grid and the grid of `scaled_field`.  For a < 0 the division
mirrors a grid, so its rows are read back reversed along every axis.

Every split (`commsplit`) is against a kernel's constant direction, so
it is the same projector pair at every frequency.  The product and
shift checks build their right-hand sides with one swap-lemma sum,
`_split_sum`: split factors (C's components, or the shift's
exponentials as (M, 2**n) stacks) times sign-flipped transforms of B,
with no loop over frequencies.  Linearity and that sum make one
`transform._gft_many` call each, for every field and flip they read.
The scaling check's right-hand side is on another grid and skips the
kernel-value check: its values are the checked ones, rescaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import RELATIVE_TOL, STRUCTURAL_TOL, Multivector, gp_many
from .commsplit import SplitIndex, shift_exponential_terms, split_multi
from .exponential import exp_neg_many
from .exponential import exp_imag  # noqa: F401  (perfbench/tracing.py wraps this name)
from .kernels import GftSpec, side_directions
from .transform import FreqGrid, SampledField, _gft_many, _one_grid, gft, row_magnitudes
from .transform import gft_at  # noqa: F401  (perfbench/tracing.py wraps this name)

__all__ = [
    "TheoremReport",
    "UnsupportedScale",
    "OffGridShift",
    "SCALE_FACTORS",
    "VERIFY_SCALE_FACTORS",
    "scaled_field",
    "shifted_field",
    "check_linearity",
    "check_scaling",
    "check_left_product",
    "check_right_product",
    "check_shift",
    "check_existence_bound",
    "skip_line",
]

SCALE_FACTORS = (1.0, -1.0, 2.0, -2.0, 0.5, -0.5)
# the factors `verify --theorem scaling` checks, in the order it prints them
VERIFY_SCALE_FACTORS = (-1.0, 2.0, 0.5)


class UnsupportedScale(ValueError):
    """Scale factor outside the set the resampling contract supports."""


class OffGridShift(ValueError):
    """Shift vector off the sample lattice, or support pushed off-grid."""


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of one check: residual against an explicit bound."""

    name: str
    lhs_norm: float
    rhs_norm: float
    residual: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"THEOREM {self.name} residual={self.residual:.6e} "
            f"bound={self.threshold:.6e} {status}"
        )


def skip_line(name: str, reason: str) -> str:
    return f"THEOREM {name} residual=- bound=- SKIP({reason})"


def _report(
    name: str,
    lhs: np.ndarray,
    rhs: np.ndarray,
    tol: float,
    detail: str = "",
    extra_residual: float = 0.0,
) -> TheoremReport:
    lhs_norm = float(row_magnitudes(lhs).max())
    rhs_norm = float(row_magnitudes(rhs).max())
    residual = max(float(row_magnitudes(lhs - rhs).max()), extra_residual)
    threshold = tol * max(1.0, lhs_norm)
    return TheoremReport(
        name, lhs_norm, rhs_norm, residual, threshold,
        residual <= threshold, detail,
    )


def check_linearity(
    spec: GftSpec,
    b_field: SampledField,
    c_field: SampledField,
    b: float,
    c: float,
    freqs: FreqGrid,
    tol: float = 1e-12,
) -> TheoremReport:
    """Transform of b*B + c*C against the combination of transforms."""
    _one_grid([b_field, c_field])
    with np.errstate(over="ignore", invalid="ignore"):  # with_values refuses inf and NaN
        combined = b_field.with_values(b * b_field.values + c * c_field.values)
    lhs, fb, fc = _gft_many(spec, [combined, b_field, c_field], freqs)[:, :, 0].swapaxes(0, 1)
    return _report("linearity", lhs, b * fb + c * fc, tol)


def _divided(
    grid: FreqGrid | SampledField, a: float
) -> tuple[tuple[float, ...], tuple[float, ...], slice | np.ndarray]:
    """The regular grid of `grid`'s nodes divided by a: its origin, its
    spacing, and the row order that lines its nodes up with `grid`'s.

    For a < 0 the division mirrors the grid, so the order reverses every
    axis; it is its own inverse.
    """
    spacing = tuple(s / abs(a) for s in grid.spacing)
    if a > 0:
        return tuple(o / a for o in grid.origin), spacing, slice(None)
    far = (o + (d - 1) * s for o, d, s in zip(grid.origin, grid.dims, grid.spacing))
    order = np.flip(np.arange(grid.node_count).reshape(grid.dims)).ravel()
    return tuple(v / a for v in far), spacing, order


def scaled_field(field: SampledField, a: float) -> SampledField:
    """The field x -> field(a x), sampled exactly on the rescaled grid.

    The data is reused unchanged (reversed along every axis for a < 0);
    only the grid geometry moves, so both sides of the scaling identity
    see the same sample values.
    """
    if a == 1.0:
        return field
    origin, spacing, order = _divided(field, a)
    return SampledField(field.sig, field.dims, origin, spacing, field.values[order])


def check_scaling(
    spec: GftSpec,
    b_field: SampledField,
    a: float,
    freqs: FreqGrid,
    tol: float = 1e-10,
) -> TheoremReport:
    """F(B(a.))(u) against |a|^-m F(B)(u/a) at every frequency node, the
    right-hand side transformed on the grid of the nodes u/a."""
    if a not in SCALE_FACTORS:
        raise UnsupportedScale(
            f"scale factor must be one of +-1, +-2, +-1/2; got {a}"
        )
    origin, spacing, order = _divided(freqs, a)
    lhs = gft(spec, scaled_field(b_field, a), freqs).values
    divided = FreqGrid(freqs.dims, origin, spacing)
    rhs = abs(a) ** (-spec.m) * gft(spec, b_field, divided, validate=False).values[order]
    return _report(f"scaling[a={a:g}]", lhs, rhs, tol)


def _constant_components(
    c: Multivector, dirs: Sequence[Multivector], direction: str
) -> list[tuple[np.ndarray, SplitIndex]]:
    """C's split components against `dirs` as (coefficients, sign vector)
    terms in sign-vector order, without those of norm at most
    STRUCTURAL_TOL * max(1, |C|)."""
    comps = split_multi(c, list(dirs), direction)
    scale = max(1.0, c.magnitude())
    return [
        (comp.coeffs, bits)
        for bits, comp in sorted(comps.items())
        if comp.magnitude() > STRUCTURAL_TOL * scale
    ]


def _split_sum(
    spec: GftSpec, field: SampledField, b_field: SampledField, freqs: FreqGrid,
    left_terms: Sequence[tuple[np.ndarray | None, SplitIndex]],
    right_terms: Sequence[tuple[np.ndarray | None, SplitIndex]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(field), the swap lemma's sum of lf . F_{j,k}(B) . rf over every
    left term (lf, j) and right term (rf, k), and F(B), from one
    `_gft_many` pass that transforms B once per distinct flip.  A factor
    is a coefficient row or an (M, 2**n) stack; a side without factors
    has the one term (None, zeros) and is not multiplied."""
    unflipped = ((0,) * len(spec.left), (0,) * len(spec.right))
    flips = list(dict.fromkeys([unflipped] + [(j, k) for _, j in left_terms
                                              for _, k in right_terms]))
    spectra = _gft_many(spec, [field, b_field], freqs, flips)
    spectrum = dict(zip(flips, spectra[:, 1].swapaxes(0, 1)))
    rhs = np.zeros_like(spectra[:, 0, 0])
    for lf, j in left_terms:
        for rf, k in right_terms:
            term = spectrum[j, k] if lf is None else gp_many(spec.sig, lf, spectrum[j, k])
            rhs += term if rf is None else gp_many(spec.sig, term, rf)
    return spectra[:, 0, 0], rhs, spectrum[unflipped]


def _check_product(
    spec: GftSpec,
    c: Multivector,
    b_field: SampledField,
    freqs: FreqGrid,
    tol: float,
    side: str,
) -> TheoremReport:
    """The product theorem with C on `side` of B: by the swap lemma, C's
    split components against that side's kernel directions (backward on
    the left, forward on the right) times transforms of B with those
    kernels flipped where the component anticommutes."""
    left = side == "left"
    # NotSeparable, if the side has no directions, before any transform
    comps = _constant_components(c, side_directions(spec, side),
                                 "backward" if left else "forward")
    # the other side keeps its kernels unflipped and has no factor
    other = [(None, (0,) * len(spec.right if left else spec.left))]
    if left:
        product, terms = gp_many(spec.sig, c.coeffs, b_field.values), (comps, other)
    else:
        product, terms = gp_many(spec.sig, b_field.values, c.coeffs), (other, comps)
    lhs, rhs, _ = _split_sum(spec, b_field.with_values(product), b_field, freqs, *terms)
    return _report(f"{side}-product", lhs, rhs, tol, detail=f"terms={len(comps)}")


def check_left_product(
    spec: GftSpec,
    c: Multivector,
    b_field: SampledField,
    freqs: FreqGrid,
    tol: float = 1e-10,
) -> TheoremReport:
    """F(C B) against the sum of C's split components times sign-flipped
    transforms of B, one per component that survives the split."""
    return _check_product(spec, c, b_field, freqs, tol, "left")


def check_right_product(
    spec: GftSpec,
    c: Multivector,
    b_field: SampledField,
    freqs: FreqGrid,
    tol: float = 1e-10,
) -> TheoremReport:
    """F(B C) against sign-flipped transforms of B times C's components."""
    return _check_product(spec, c, b_field, freqs, tol, "right")


def shifted_field(field: SampledField, x0: Sequence[float]) -> SampledField:
    """The field x -> field(x - x0) on the same grid.

    x0 must be an integer multiple of the spacing per axis, and every
    nonzero sample must stay on the grid after the index shift.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.m,):
        raise OffGridShift(f"shift vector has length {x0.size}, field has m={field.m}")
    offs = []
    for k, (v, s) in enumerate(zip(x0, field.spacing)):
        t = v / s
        if not np.isfinite(t) or abs(t - round(t)) > RELATIVE_TOL * max(1.0, abs(t)):
            raise OffGridShift(
                f"shift component {k + 1} is {v}, not an integer multiple "
                f"of spacing {s}"
            )
        offs.append(int(round(t)))
    shaped = field.values.reshape(field.dims + (field.sig.dim,))
    out = np.zeros_like(shaped)
    src, dst = [], []
    for d, t in zip(field.dims, offs):
        if abs(t) >= d:
            src.append(slice(0, 0))
            dst.append(slice(0, 0))
        else:
            src.append(slice(max(0, -t), d - max(0, t)))
            dst.append(slice(max(0, t), d + min(0, t)))
    out[tuple(dst)] = shaped[tuple(src)]
    if np.count_nonzero(out) != np.count_nonzero(shaped):
        raise OffGridShift(
            "field support does not stay on the grid under this shift"
        )
    return field.with_values(out.reshape(field.values.shape))


def _mutually_commutative(dirs: Sequence[Multivector]) -> bool:
    return not any((a * b - b * a).magnitude() > STRUCTURAL_TOL
                   for i, a in enumerate(dirs) for b in dirs[i + 1:])


def check_shift(
    spec: GftSpec,
    b_field: SampledField,
    x0: Sequence[float],
    freqs: FreqGrid,
    tol: float = 1e-10,
) -> TheoremReport:
    """F(B(. - x0)) against the triangular-matrix factor sum.

    At every frequency the translated kernel exponentials split into
    constant factors (left factors from strictly lower, right factors from
    strictly upper matrices) times sign-flipped transforms of B; the
    factors of all frequencies come as one stack per term.  When each
    side's kernel directions commute among themselves the sum must
    collapse to the single term  prod e^{-f(x0,u)} . F(B)(u) .
    prod e^{-f(x0,u)};  the collapsed form is then also evaluated and
    folded into the residual.
    """
    left_dirs, right_dirs = side_directions(spec, "left"), side_directions(spec, "right")
    x0 = np.asarray(x0, dtype=float)
    unodes = freqs.nodes()
    shifted = shifted_field(b_field, x0)
    # kernel values f(x0, u) at every frequency, one (M, 2**n) stack each
    left_vals, right_vals = (
        [unodes @ np.tensordot(x0, k.tensor, axes=1) for k in side]
        for side in (spec.left, spec.right)
    )
    left_terms = (shift_exponential_terms(left_vals, "lower", left_dirs)
                  if left_vals else [(None, ())])
    right_terms = (shift_exponential_terms(right_vals, "upper", right_dirs)
                   if right_vals else [(None, ())])
    lhs, rhs, flat = _split_sum(spec, shifted, b_field, freqs, left_terms, right_terms)

    def most_terms(terms: list[tuple[np.ndarray | None, SplitIndex]]) -> int:
        # the largest number of terms that survive at any one frequency
        alive = sum(1 if f is None else f.any(axis=1).astype(int) for f, _ in terms)
        return int(np.max(alive, initial=0))

    detail = f"terms={most_terms(left_terms)}x{most_terms(right_terms)}"
    collapse_residual = 0.0
    if _mutually_commutative(left_dirs) and _mutually_commutative(right_dirs):
        for f in reversed(left_vals):
            flat = gp_many(spec.sig, exp_neg_many(spec.sig, f, validate=False), flat)
        for f in right_vals:
            flat = gp_many(spec.sig, flat, exp_neg_many(spec.sig, f, validate=False))
        collapse_residual = float(row_magnitudes(rhs - flat).max())
        detail += f" collapsed_residual={collapse_residual:.3e}"
    return _report("shift", lhs, rhs, tol, detail=detail,
                   extra_residual=collapse_residual)


def check_existence_bound(
    spec: GftSpec,
    b_field: SampledField,
    freqs: FreqGrid,
    tol: float = 1e-12,
) -> TheoremReport:
    """Max spectrum magnitude against 2^nu times the field's L1 mass."""
    values = gft(spec, b_field, freqs).values
    attained = float(row_magnitudes(values).max())
    bound = (
        2.0 ** spec.nu
        * float(row_magnitudes(b_field.values).sum())
        * b_field.cell_volume
    )
    threshold = bound + tol * max(1.0, bound)
    return TheoremReport(
        "existence",
        lhs_norm=attained,
        rhs_norm=bound,
        residual=attained,
        threshold=threshold,
        passed=attained <= threshold,
        detail=f"nu={spec.nu}",
    )
