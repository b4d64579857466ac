"""Bilinear exponent kernels and the built-in transform presets.

A kernel is a bilinear map f(x,u) = sum_{j,l} x_j u_l T[j, l] from pairs of
real m-vectors into the algebra, held as the (m, m, 2**n) tensor T of its
multivector coefficients.  A transform configuration is an ordered list of
left kernels and an ordered list of right kernels over one signature.
Kernel values must square to negative reals (or vanish) wherever they are
evaluated; the transform engines check that with
`exponential.not_imaginary`, or once per kernel where the factorization
below decides it.

Every kernel is factored once, by one rule, which decides both which
transform engine can run and which identities apply:

* zero: T = 0;
* one direction: T is S (x) d for a real m x m matrix S and a constant d
  up to _FACTOR_ULPS ulps of max|T| in every entry, and d passes
  `not_imaginary` with <d^2>_0 < 0.  The kernel is s(x,u) j with the real
  phase s = x^T (rho S) u and j = d / rho, j^2 = -1, rho^2 = -<d^2>_0.
  Then f^2 = s^2 d^2 and |d| >= 1, so checking d once is at least as
  strict as checking every sample;
* blades: any other kernel, sum_i s_i(x,u) e_i over its nonzero blades.
  f^2 is a polynomial in (x, u), so whether it squares to a real <= 0
  everywhere is decided once, exactly (`Factors.imaginary`): every blade
  squares to -1, and the non-scalar part of f^2 vanishes identically.
  That holds for every cylindrical:n, n >= 3 (x ^ u is a simple bivector,
  the Plucker relations); any other blade kernel is checked per sample.

Only a direction kernel lets constants be pulled through its
exponentials, so the product and shift theorems need every kernel on a
side to be zero or one direction (`side_directions`, `is_separable`).

The six presets are one table, `PRESETS`: one row per preset with its
builder, the kind of parameter it takes, the selectors the identity
suite runs and the `presets` listing's note.  `PRESET_NAMES`,
`VERIFY_PRESETS`, the listing and the dispatch of `preset` and
`parse_preset` (by parameter kind) are all read from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import (
    RELATIVE_TOL,
    Multivector,
    Signature,
    blade_signs,
    pseudoscalar,
    square_scalar_signs,
)
from .exponential import check_square

__all__ = [
    "KernelMatrix",
    "GftSpec",
    "UnsupportedSignature",
    "NotSeparable",
    "Preset",
    "PRESETS",
    "PRESET_NAMES",
    "VERIFY_PRESETS",
    "preset",
    "parse_preset",
    "negate",
    "is_separable",
    "side_directions",
]

TWO_PI = 2.0 * math.pi

# A kernel tensor T counts as S (x) d when no entry of S (x) d is further
# than this many ulps of max|T| from T; a looser test would break the
# 1e-12 agreement of the transform engines with the direct sum.
_FACTOR_ULPS = 4


class UnsupportedSignature(ValueError):
    """Preset parameters outside the family the construction supports."""


class NotSeparable(ValueError):
    """A kernel set lacks the per-kernel constant direction a check needs."""


@dataclass(frozen=True)
class KernelMatrix:
    """One bilinear kernel f(x,u) = sum_{j,l} x_j u_l T[j, l], held as its
    read-only (m, m, 2**n) coefficient tensor T."""

    sig: Signature
    tensor: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.tensor, dtype=float)
        if t.ndim != 3 or t.shape[0] == 0:
            raise ValueError("kernel matrix must have at least one row")
        if t.shape[1] != t.shape[0]:
            raise ValueError("kernel matrix must be square")
        if t.shape[2] != self.sig.dim:
            raise ValueError("entry signature mismatch")
        if not np.isfinite(t).all():
            raise ValueError("kernel entries must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "tensor", t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelMatrix):
            return NotImplemented
        return self.sig == other.sig and np.array_equal(self.tensor, other.tensor)

    @property
    def m(self) -> int:
        return self.tensor.shape[0]

    @classmethod
    def sparse(
        cls,
        sig: Signature,
        m: int,
        triples: Iterable[tuple[int, int, Multivector]],
    ) -> "KernelMatrix":
        """Build from 0-based (row, col, value) triples, zeros elsewhere."""
        t = np.zeros((m, m, sig.dim))
        for r, c, v in triples:
            if not (0 <= r < m and 0 <= c < m):
                raise ValueError(f"entry ({r}, {c}) outside {m}x{m} matrix")
            if v.sig != sig:
                raise ValueError("entry signature mismatch")
            t[r, c] += v.coeffs
        return cls(sig, t)

    @cached_property
    def factors(self) -> Factors | None:
        """This kernel's factorization under the rule above, built on
        first use; None for a zero kernel."""
        return _factor(self.sig, self.tensor)

    def values(self, xs: np.ndarray, u: Sequence[float]) -> np.ndarray:
        """Kernel values at many spatial points, one fixed u; (N, 2**n)."""
        ua = np.asarray(u, dtype=float)
        return np.asarray(xs, dtype=float) @ np.tensordot(
            self.tensor, ua, axes=([1], [0])
        )

    def scaled(self, factor: float) -> "KernelMatrix":
        """The kernel times a real factor."""
        return KernelMatrix(self.sig, self.tensor * factor)


@dataclass(frozen=True, eq=False)
class Factors:
    """A nonzero kernel written as f(x,u) = sum_i (x^T forms[i] u) e_i.

    A direction kernel has one basis element, `direction` = j with
    j^2 = -1, so e^{-f} = cos(s) - j sin(s) for the real phase s.  Any
    other kernel has its nonzero `blades` as the e_i, and `pairs` =
    (a, b, q), which gives the non-scalar part of f^2 as q @ (s_a s_b)
    over the commuting blade pairs a < b.  `imaginary` says that f^2 is
    a real <= 0 at every (x, u): always true for a direction, and
    decided once by `_imaginary` for blades.
    """

    forms: np.ndarray                 # (r, m, m)
    direction: np.ndarray | None      # (2^n,) j, direction kernels only
    blades: np.ndarray | None         # (r,) blade indices, otherwise
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None  # blades only
    imaginary: bool

    def __post_init__(self) -> None:
        for v in (self.forms, self.direction, self.blades, *(self.pairs or ())):
            if v is not None:
                v.setflags(write=False)


def _factor(sig: Signature, tensor: np.ndarray) -> Factors | None:
    """Factorization of one kernel tensor (m, m, 2^n); None when zero."""
    m = tensor.shape[0]
    t = tensor.reshape(-1, sig.dim)
    top = np.abs(t).max()
    if top == 0.0:
        return None
    # rows scaled into [-1, 1], so their squares cannot overflow
    unit = t / top
    d = unit[np.argmax((unit * unit).sum(axis=1))]
    s = t @ d / (d @ d)
    if np.abs(t - np.outer(s, d)).max() <= _FACTOR_ULPS * np.spacing(top):
        fails, sq = check_square(Multivector(sig, d))
        if not fails and sq.scalar_part() < 0.0:
            rho = math.sqrt(-sq.scalar_part())
            return Factors((s * rho).reshape(1, m, m), d / rho, None, None, True)
    blades = np.flatnonzero(np.abs(t).max(axis=0))
    forms = t[:, blades].T.reshape(-1, m, m)
    pairs = _commuting_pairs(sig, blades)
    return Factors(forms, None, blades, pairs, _imaginary(sig, blades, forms, pairs))


def _commuting_pairs(
    sig: Signature, blades: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, q) of `Factors.pairs` for these blades."""
    a, b = np.triu_indices(len(blades), 1)
    ab = blade_signs(sig, blades[a], blades[b])
    commute = ab == blade_signs(sig, blades[b], blades[a])
    a, b, ab = a[commute], b[commute], ab[commute]
    # e_a e_b + e_b e_a = 2 sign(a, b) e_{a^b} for a commuting pair
    targets, row = np.unique(blades[a] ^ blades[b], return_inverse=True)
    q = np.zeros((len(targets), len(a)))
    q[row, np.arange(len(a))] = 2.0 * ab
    return a, b, q


def _imaginary(
    sig: Signature, blades: np.ndarray, forms: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> bool:
    """Whether f = sum_i (x^T forms[i] u) e_i squares to a real <= 0 at
    every (x, u), decided exactly, with no tolerance.

    The scalar part of f^2 is sum_i e_i^2 s_i^2, never positive when
    every e_i^2 = -1.  Each row t of the non-scalar part sum_p q_tp s_a s_b
    is the polynomial sum x_j x_k u_l u_o Z[j, k, l, o] with
    Z = sum_p q_tp A_a[j, l] A_b[k, o]; it vanishes for every (x, u)
    exactly when Z symmetrised over (j, k) and over (l, o) is zero.
    """
    if (square_scalar_signs(sig)[blades] != -1.0).any():
        return False
    a, b, q = pairs
    for row in q:
        p = np.flatnonzero(row)
        z = np.einsum("p,pjl,pko->jklo", row[p], forms[a[p]], forms[b[p]])
        z = z + z.transpose(1, 0, 2, 3)
        if (z + z.transpose(0, 1, 3, 2)).any():
            return False
    return True


@dataclass(frozen=True)
class GftSpec:
    """Ordered left and right kernel lists over one signature.

    The transform keeps the plan record it derives from a spec in the
    spec's instance dictionary (`transform._spec_plan`), so a spec is
    planned once and the record is freed with it.
    """

    sig: Signature
    m: int
    left: tuple[KernelMatrix, ...]
    right: tuple[KernelMatrix, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")
        for k in self.left + self.right:
            if k.sig != self.sig:
                raise ValueError("kernel signature mismatch")
            if k.m != self.m:
                raise ValueError("kernel dimension mismatch")

    @property
    def mu(self) -> int:
        return len(self.left)

    @property
    def nu(self) -> int:
        return len(self.left) + len(self.right)


def _diag(sig: Signature, m: int, value: Multivector) -> KernelMatrix:
    return KernelMatrix.sparse(sig, m, [(j, j, value) for j in range(m)])


def _clifford(n: int) -> GftSpec:
    if n % 4 not in (2, 3):
        raise UnsupportedSignature(
            f"clifford preset needs n = 2 or 3 (mod 4) so the pseudoscalar "
            f"squares to -1; got n={n}"
        )
    sig = Signature(n, 0)
    kernel = _diag(sig, n, pseudoscalar(sig) * TWO_PI)
    return GftSpec(sig, n, (), (kernel,))


def _buelow(n: int) -> GftSpec:
    if n < 1:
        raise UnsupportedSignature(f"buelow preset needs n >= 1, got n={n}")
    sig = Signature(0, n)
    right = tuple(
        KernelMatrix.sparse(
            sig, n, [(k, k, Multivector.basis_vector(sig, k + 1) * TWO_PI)]
        )
        for k in range(n)
    )
    return GftSpec(sig, n, (), right)


def _quaternionic() -> GftSpec:
    sig = Signature(0, 2)
    e1 = Multivector.basis_vector(sig, 1)
    e2 = Multivector.basis_vector(sig, 2)
    left = KernelMatrix.sparse(sig, 2, [(0, 0, e1 * TWO_PI)])
    right = KernelMatrix.sparse(sig, 2, [(1, 1, e2 * TWO_PI)])
    return GftSpec(sig, 2, (left,), (right,))


def _spacetime() -> GftSpec:
    sig = Signature(3, 1)
    e4 = Multivector.basis_vector(sig, 4)
    eps4 = float(sig.eps(4))
    rdir = (e4 * pseudoscalar(sig)) * eps4
    left = KernelMatrix.sparse(sig, 4, [(3, 3, e4)])
    right = KernelMatrix.sparse(sig, 4, [(j, j, rdir) for j in range(3)])
    return GftSpec(sig, 4, (left,), (right,))


# color_image's algebra, where its bivector and a selector's label live
_COLOR_SIG = Signature(4, 0)


def _color_image(bivector: Multivector | None) -> GftSpec:
    sig = _COLOR_SIG
    b = bivector if bivector is not None else Multivector.blade(sig, "e12")
    if b.sig != sig:
        raise UnsupportedSignature("color_image preset lives in Cl(4,0)")
    # a square that overflows gives NaN, which fails, as in `not_imaginary`;
    # the purity test scales b into [-1, 1] first, as `_factor` does
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.abs(b.coeffs).max() or 1.0
        unit = Multivector(sig, b.coeffs / top)
        impure = (unit - unit.grade_part(2)).magnitude()
        size = max(1.0 / top, unit.magnitude())  # max(1, |b|) / top
        off = ((b * b) + 1.0).magnitude()
    if not impure <= RELATIVE_TOL * size:
        raise ValueError("color_image needs a pure bivector")
    if not off <= RELATIVE_TOL:
        raise ValueError("color_image needs a unit bivector with square -1")
    ib = pseudoscalar(sig) * b
    half = 0.5
    left = (_diag(sig, 2, b * half), _diag(sig, 2, ib * half))
    right = (_diag(sig, 2, b * -half), _diag(sig, 2, ib * -half))
    return GftSpec(sig, 2, left, right)


def _cylindrical(n: int) -> GftSpec:
    if n < 2:
        raise UnsupportedSignature(f"cylindrical preset needs n >= 2, got n={n}")
    sig = Signature(0, n)
    triples = []
    for j in range(n):
        for l in range(n):
            if j != l:
                ej = Multivector.basis_vector(sig, j + 1)
                el = Multivector.basis_vector(sig, l + 1)
                triples.append((j, l, (ej * el) * -1.0))
    kernel = KernelMatrix.sparse(sig, n, triples)
    return GftSpec(sig, n, (kernel,), ())


@dataclass(frozen=True)
class Preset:
    """One row of `PRESETS`.  `param` is the builder's one parameter,
    "n", "bivector" or None; `verify` holds the selectors the identity
    suite (`scripts/verify_all.py`) runs, the first of which the
    `presets` listing shows."""

    build: Callable[..., GftSpec]
    param: str | None
    verify: tuple[str, ...]
    note: str


# The one list of presets, in listing order
PRESETS = {
    "clifford": Preset(_clifford, "n", ("clifford:2", "clifford:3"),
                       "n = 2 or 3 (mod 4)"),
    "buelow": Preset(_buelow, "n", ("buelow:2",), "any n >= 1"),
    "quaternionic": Preset(_quaternionic, None, ("quaternionic",), ""),
    "spacetime": Preset(_spacetime, None, ("spacetime",), ""),
    "color_image": Preset(_color_image, "bivector", ("color_image",),
                          "any unit bivector, default e12"),
    "cylindrical": Preset(_cylindrical, "n", ("cylindrical:2", "cylindrical:3"),
                          "left separable only for n = 2"),
}
PRESET_NAMES = tuple(PRESETS)
VERIFY_PRESETS = tuple(sel for row in PRESETS.values() for sel in row.verify)


def _row(name: str) -> tuple[str, Preset]:
    key = name.replace("-", "_").lower()
    if key not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return key, PRESETS[key]


def preset(
    name: str,
    n: int | None = None,
    bivector: Multivector | None = None,
) -> GftSpec:
    """Build the built-in configuration `name`, a key of `PRESETS`.

    A row whose `param` is "n" needs the dimension n, a "bivector" row
    takes an optional unit bivector, and the others take no parameter.
    """
    key, row = _row(name)
    if row.param == "n" and n is None:
        raise ValueError(f"preset {key!r} needs the dimension parameter n")
    if row.param != "n" and n is not None:
        raise ValueError(f"preset {key!r} takes no dimension parameter")
    if row.param != "bivector" and bivector is not None:
        raise ValueError(f"preset {key!r} takes no bivector")
    if row.param is None:
        return row.build()
    return row.build(n if row.param == "n" else bivector)


@lru_cache(maxsize=32)
def parse_preset(text: str) -> GftSpec:
    """Parse a preset selector like 'quaternionic', 'clifford:2' or
    'color_image:e13'.  Every parse of one text shares one frozen spec
    (the last 32 texts are kept), so its factorizations and transform
    plan are built once."""
    name, sep, param = text.partition(":")
    key, row = _row(name)
    if not sep:
        return preset(key)
    if row.param == "n":
        try:
            n = int(param)
        except ValueError:
            raise ValueError(f"preset {key!r} needs an integer parameter") from None
        return preset(key, n=n)
    if row.param == "bivector":
        try:
            b = Multivector.blade(_COLOR_SIG, param)
        except ValueError as exc:
            raise ValueError(f"bad bivector label {param!r}: {exc}") from None
        return preset(key, bivector=b)
    raise ValueError(f"preset {key!r} takes no parameter")


def negate(
    spec: GftSpec, j: Sequence[int], k: Sequence[int]
) -> GftSpec:
    """Flip the signs of the left kernels selected by j and the right
    kernels selected by k: the reference that the transform's own sign
    flips (`transform._gft_many`) are tested against."""
    if len(j) != len(spec.left) or len(k) != len(spec.right):
        raise ValueError(
            f"sign vectors must have lengths {len(spec.left)} and "
            f"{len(spec.right)}, got {len(j)} and {len(k)}"
        )
    for bit in tuple(j) + tuple(k):
        if bit not in (0, 1):
            raise ValueError("sign vector entries must be 0 or 1")
    left = tuple(
        kern.scaled(-1.0) if bit else kern for kern, bit in zip(spec.left, j)
    )
    right = tuple(
        kern.scaled(-1.0) if bit else kern for kern, bit in zip(spec.right, k)
    )
    return GftSpec(spec.sig, spec.m, left, right)


def _side_kernels(spec: GftSpec, side: str) -> tuple[KernelMatrix, ...]:
    if side == "left":
        return spec.left
    if side == "right":
        return spec.right
    raise ValueError("side must be 'left' or 'right'")


def side_directions(spec: GftSpec, side: str) -> tuple[Multivector, ...]:
    """Constant direction of each kernel on one side, scaled to unit
    magnitude; zero for a zero kernel.

    Raises NotSeparable when some kernel is not one direction (so
    constants cannot be pulled through its exponentials).
    """
    dirs = []
    for pos, kern in enumerate(_side_kernels(spec, side), start=1):
        f = kern.factors
        if f is None:
            dirs.append(Multivector.zero(spec.sig))
        elif f.direction is None:
            raise NotSeparable(
                f"{side} kernel {pos} has no single constant direction"
            )
        else:
            dirs.append(Multivector(spec.sig, f.direction / np.linalg.norm(f.direction)))
    return tuple(dirs)


def is_separable(spec: GftSpec, side: str) -> bool:
    """Every kernel on the side is zero or one direction."""
    try:
        side_directions(spec, side)
    except NotSeparable:
        return False
    return True
