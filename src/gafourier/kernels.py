"""Bilinear exponent kernels and the built-in transform presets.

A kernel is a bilinear map f(x,u) = sum_{j,l} x_j u_l M[j][l] from pairs of
real m-vectors into the algebra, stored as the m x m matrix of multivector
coefficients M.  A transform configuration is an ordered list of left
kernels and an ordered list of right kernels over one signature.  Kernel
values must square to negative reals (or vanish) wherever they are
evaluated; `validate_spec` checks that pointwise on samples rather than
structurally, with `exponential.not_imaginary`, the test the transform
engines apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .algebra import Multivector, Signature, pseudoscalar
from .exponential import check_square

__all__ = [
    "KernelMatrix",
    "GftSpec",
    "UnsupportedSignature",
    "NotSeparable",
    "ValidationReport",
    "Violation",
    "PRESET_NAMES",
    "VERIFY_PRESETS",
    "preset",
    "parse_preset",
    "negate",
    "validate_spec",
    "is_separable",
    "side_directions",
]

TWO_PI = 2.0 * math.pi

PRESET_NAMES = (
    "clifford",
    "buelow",
    "quaternionic",
    "spacetime",
    "color_image",
    "cylindrical",
)


# The selectors the identity suite (`scripts/verify_all.py`, acceptance
# criterion 5) runs `verify` on.
VERIFY_PRESETS = (
    "clifford:2",
    "clifford:3",
    "buelow:2",
    "quaternionic",
    "spacetime",
    "color_image",
    "cylindrical:2",
    "cylindrical:3",
)


class UnsupportedSignature(ValueError):
    """Preset parameters outside the family the construction supports."""


class NotSeparable(ValueError):
    """A kernel set lacks the per-kernel constant direction a check needs."""


@dataclass(frozen=True)
class KernelMatrix:
    """One bilinear kernel, as the matrix of its basis-pair values."""

    sig: Signature
    entries: tuple[tuple[Multivector, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.entries)
        if m == 0:
            raise ValueError("kernel matrix must have at least one row")
        for row in self.entries:
            if len(row) != m:
                raise ValueError("kernel matrix must be square")
            for e in row:
                if e.sig != self.sig:
                    raise ValueError("entry signature mismatch")
                if not np.isfinite(e.coeffs).all():
                    raise ValueError("kernel entries must be finite")

    @property
    def m(self) -> int:
        return len(self.entries)

    @classmethod
    def sparse(
        cls,
        sig: Signature,
        m: int,
        triples: Iterable[tuple[int, int, Multivector]],
    ) -> "KernelMatrix":
        """Build from 0-based (row, col, value) triples, zeros elsewhere."""
        rows = [[Multivector.zero(sig) for _ in range(m)] for _ in range(m)]
        for r, c, v in triples:
            if not (0 <= r < m and 0 <= c < m):
                raise ValueError(f"entry ({r}, {c}) outside {m}x{m} matrix")
            rows[r][c] = rows[r][c] + v
        return cls(sig, tuple(tuple(row) for row in rows))

    @cached_property
    def tensor(self) -> np.ndarray:
        """(m, m, 2**n) coefficient stack of the entries; read-only."""
        t = np.empty((self.m, self.m, self.sig.dim))
        for r, row in enumerate(self.entries):
            for c, e in enumerate(row):
                t[r, c] = e.coeffs
        t.setflags(write=False)
        return t

    @cached_property
    def _bases(self) -> dict[str, object]:
        """Memo of the transform engines' factorization of this kernel,
        one entry per side ("left"/"right"), filled by `transform.plan`
        on first use; the kernel is immutable, so it never goes stale."""
        return {}

    def eval(self, x: Sequence[float], u: Sequence[float]) -> Multivector:
        xa = np.asarray(x, dtype=float)
        ua = np.asarray(u, dtype=float)
        if xa.shape != (self.m,) or ua.shape != (self.m,):
            raise ValueError(f"kernel expects {self.m}-vectors")
        coeffs = xa @ np.tensordot(self.tensor, ua, axes=([1], [0]))
        return Multivector(self.sig, coeffs)

    def values(self, xs: np.ndarray, u: Sequence[float]) -> np.ndarray:
        """Kernel values at many spatial points, one fixed u; (N, 2**n)."""
        ua = np.asarray(u, dtype=float)
        return np.asarray(xs, dtype=float) @ np.tensordot(
            self.tensor, ua, axes=([1], [0])
        )

    def scaled(self, factor: float) -> "KernelMatrix":
        return KernelMatrix(
            self.sig,
            tuple(tuple(e * factor for e in row) for row in self.entries),
        )

    def direction(self, tol: float = 1e-10) -> Multivector | None:
        """Common unit direction of all nonzero entries, if one exists.

        Returns the zero multivector for an identically zero kernel and
        None when the entries are not all real multiples of one element.
        """
        flat = [e for row in self.entries for e in row]
        mags = [e.magnitude() for e in flat]
        best = max(range(len(flat)), key=lambda i: mags[i])
        if mags[best] == 0.0:
            return Multivector.zero(self.sig)
        d = flat[best] / mags[best]
        for e, mag in zip(flat, mags):
            if mag == 0.0:
                continue
            c = float(np.dot(e.coeffs, d.coeffs))
            if (e - d * c).magnitude() > tol * max(1.0, mag):
                return None
        return d


@dataclass(frozen=True)
class GftSpec:
    """Ordered left and right kernel lists over one signature."""

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


def _color_image(bivector: Multivector | None) -> GftSpec:
    sig = Signature(4, 0)
    b = bivector if bivector is not None else Multivector.blade(sig, "e12")
    if b.sig != sig:
        raise UnsupportedSignature("color_image preset lives in Cl(4,0)")
    if (b - b.grade_part(2)).magnitude() > 1e-9 * max(1.0, b.magnitude()):
        raise ValueError("color_image needs a pure bivector")
    if ((b * b) + 1.0).magnitude() > 1e-9:
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


def preset(
    name: str,
    n: int | None = None,
    bivector: Multivector | None = None,
) -> GftSpec:
    """Build one of the six built-in transform configurations.

    clifford, buelow and cylindrical take the dimension n; color_image
    takes an optional unit bivector (default e12); quaternionic and
    spacetime take no parameter.
    """
    key = name.replace("-", "_").lower()
    if key not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if key in ("clifford", "buelow", "cylindrical"):
        if n is None:
            raise ValueError(f"preset {key!r} needs the dimension parameter n")
        if bivector is not None:
            raise ValueError(f"preset {key!r} takes no bivector")
        return {"clifford": _clifford, "buelow": _buelow, "cylindrical": _cylindrical}[
            key
        ](n)
    if n is not None:
        raise ValueError(f"preset {key!r} takes no dimension parameter")
    if key == "quaternionic":
        if bivector is not None:
            raise ValueError("preset 'quaternionic' takes no bivector")
        return _quaternionic()
    if key == "spacetime":
        if bivector is not None:
            raise ValueError("preset 'spacetime' takes no bivector")
        return _spacetime()
    return _color_image(bivector)


def parse_preset(text: str) -> GftSpec:
    """Parse a preset selector like 'quaternionic', 'clifford:2' or
    'color_image:e13'."""
    name, sep, param = text.partition(":")
    key = name.replace("-", "_").lower()
    if key not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if not sep:
        return preset(key)
    if key in ("clifford", "buelow", "cylindrical"):
        try:
            n = int(param)
        except ValueError:
            raise ValueError(f"preset {key!r} needs an integer parameter") from None
        return preset(key, n=n)
    if key == "color_image":
        sig = Signature(4, 0)
        try:
            b = Multivector.blade(sig, param)
        except ValueError as exc:
            raise ValueError(f"bad bivector label {param!r}: {exc}") from None
        return preset(key, bivector=b)
    raise ValueError(f"preset {key!r} takes no parameter")


def negate(
    spec: GftSpec, j: Sequence[int], k: Sequence[int]
) -> GftSpec:
    """Flip the signs of the left kernels selected by j and the right
    kernels selected by k."""
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


@dataclass(frozen=True)
class Violation:
    side: str
    kernel: int  # 1-based position within its side
    sample: int
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "all kernel values square to negative reals or vanish"
        lines = [f"{len(self.violations)} kernel value violation(s):"]
        for v in self.violations[:10]:
            lines.append(
                f"  {v.side} kernel {v.kernel}, sample {v.sample}: {v.message}"
            )
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


def validate_spec(
    spec: GftSpec,
    samples: Sequence[tuple[Sequence[float], Sequence[float]]],
) -> ValidationReport:
    """Check every kernel value on the samples with `not_imaginary`; a
    sample is reported iff a validated transform would raise on it."""
    found: list[Violation] = []
    for side, kernels in (("left", spec.left), ("right", spec.right)):
        for pos, kern in enumerate(kernels, start=1):
            for si, (x, u) in enumerate(samples):
                v = kern.eval(x, u)
                fails, sq = check_square(v)
                if not fails:
                    continue
                found.append(
                    Violation(
                        side,
                        pos,
                        si,
                        f"value {v!r} squares to {sq!r}, not a negative real",
                    )
                )
    return ValidationReport(tuple(found))


def _side_kernels(spec: GftSpec, side: str) -> tuple[KernelMatrix, ...]:
    if side == "left":
        return spec.left
    if side == "right":
        return spec.right
    raise ValueError("side must be 'left' or 'right'")


def side_directions(spec: GftSpec, side: str) -> tuple[Multivector, ...]:
    """Constant unit direction of each kernel on one side.

    Raises NotSeparable when some kernel's entries do not share a single
    direction (so constants cannot be pulled through its exponentials).
    """
    dirs = []
    for pos, kern in enumerate(_side_kernels(spec, side), start=1):
        d = kern.direction()
        if d is None:
            raise NotSeparable(
                f"{side} kernel {pos} has no single constant direction"
            )
        dirs.append(d)
    return tuple(dirs)


def is_separable(spec: GftSpec, side: str) -> bool:
    """Structural separability: every kernel on the side factors as a real
    function times one constant direction."""
    try:
        side_directions(spec, side)
    except NotSeparable:
        return False
    return True
