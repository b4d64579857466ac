"""Real Clifford algebras Cl(p,q) with dense multivector arithmetic.

Coefficients are indexed by blade bitmask: bit j of an index means the
basis vector e_{j+1} is a factor of that blade, so index 0 is the scalar
unit and index 2**n - 1 the pseudoscalar.  The first p basis vectors
square to +1, the remaining q to -1.  Everything here is a pure function
on immutable values; nothing mutates shared state after the per-signature
multiplication tables are built, so the module is safe to use from
multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_DIMENSION",
    "STRUCTURAL_TOL",
    "RELATIVE_TOL",
    "NotInvertible",
    "Signature",
    "Multivector",
    "blade_mul",
    "blade_signs",
    "gp_many",
    "reverse",
    "magnitude",
    "is_root_of_minus_one",
    "pseudoscalar",
]

# Hard cap on p+q: 2**12 dense coefficients is the most this layout handles.
MAX_DIMENSION = 12
# Dense (sign, target) blade tables are built up to this n, the cubic
# product tensor used by the batched product up to _TENSOR_MAX.
_TABLE_MAX = 8
_TENSOR_MAX = 6

STRUCTURAL_TOL = 1e-12  # absolute tolerance for structural checks
RELATIVE_TOL = 1e-9     # relative tolerance for numeric comparisons


class NotInvertible(ArithmeticError):
    """Reversion does not produce a scalar inverse for this element."""


@dataclass(frozen=True)
class Signature:
    """Metric signature (p, q) of Cl(p,q): p positive squares, q negative."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be nonnegative")
        if self.p + self.q > MAX_DIMENSION:
            raise ValueError(f"p + q must not exceed {MAX_DIMENSION}")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def dim(self) -> int:
        """Number of blade coefficients, 2**n."""
        return 1 << self.n

    def eps(self, j: int) -> float:
        """Square of basis vector e_j (1-based)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"basis index {j} out of range 1..{self.n}")
        return 1.0 if j <= self.p else -1.0

    def blade_mask(self, label: str) -> int:
        """Bitmask for a blade label: '1' for the scalar, else 'e' plus
        strictly ascending basis indices ('e12', 'e134', 'e1_11')."""
        if label == "1":
            return 0
        if not label.startswith("e") or len(label) == 1:
            raise ValueError(f"malformed blade label {label!r}")
        body = label[1:]
        parts = body.split("_") if "_" in body else list(body)
        mask = 0
        prev = 0
        for part in parts:
            if not part.isdigit():
                raise ValueError(f"malformed blade label {label!r}")
            j = int(part)
            if j <= prev:
                raise ValueError(f"blade indices must ascend in {label!r}")
            if j > self.n:
                raise ValueError(f"basis index {j} not in Cl({self.p},{self.q})")
            mask |= 1 << (j - 1)
            prev = j
        return mask

    def blade_label(self, mask: int) -> str:
        if not 0 <= mask < self.dim:
            raise ValueError(f"blade mask {mask} out of range")
        if mask == 0:
            return "1"
        indices = [j + 1 for j in range(self.n) if mask >> j & 1]
        if indices[-1] <= 9:
            return "e" + "".join(str(j) for j in indices)
        return "e" + "_".join(str(j) for j in indices)

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


def blade_mul(a: int, b: int, sig: Signature) -> tuple[float, int]:
    """Product of two basis blades given as bitmasks.

    Returns (sign, a ^ b).  The sign counts the transpositions needed to
    interleave the two ascending factor lists, plus one metric factor for
    every basis vector the blades share.
    """
    if not 0 <= a < sig.dim or not 0 <= b < sig.dim:
        raise ValueError("blade mask out of range for signature")
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    negatives = ((a & b) >> sig.p).bit_count()
    sign = -1.0 if (swaps + negatives) & 1 else 1.0
    return sign, a ^ b


def blade_signs(sig: Signature, a, b) -> np.ndarray:
    """Signs of the basis-blade products a * b, elementwise over
    broadcast arrays of blade bitmasks; the same rule as `blade_mul`."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    swaps = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    t = a >> np.uint64(1)
    while t.any():
        swaps += np.bitwise_count(t & b)
        t = t >> np.uint64(1)
    negatives = np.bitwise_count((a & b) >> np.uint64(sig.p)).astype(np.int64)
    return np.where((swaps + negatives) % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class _Tables:
    sign: np.ndarray | None       # (dim, dim) float64
    target: np.ndarray | None     # (dim, dim) intp
    grades: np.ndarray            # (dim,)
    reverse_sign: np.ndarray      # (dim,)
    square_sign: np.ndarray       # (dim,) blade * same blade
    tensor: np.ndarray | None     # (dim, dim, dim) product tensor


@lru_cache(maxsize=None)
def _tables(p: int, q: int) -> _Tables:
    sig = Signature(p, q)
    n, dim = sig.n, sig.dim
    idx = np.arange(dim, dtype=np.uint64)
    grades = np.bitwise_count(idx).astype(np.int64)
    reverse_sign = np.where((grades * (grades - 1) // 2) % 2 == 0, 1.0, -1.0)

    sign = target = tensor = None
    if n <= _TABLE_MAX:
        sign = blade_signs(sig, idx[:, None], idx[None, :])
        target = (idx[:, None] ^ idx[None, :]).astype(np.intp)
        square_sign = sign.diagonal().copy()
        if n <= _TENSOR_MAX:
            tensor = np.zeros((dim, dim, dim))
            ii, jj = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
            tensor[ii.ravel(), jj.ravel(), target.ravel()] = sign.ravel()
    else:
        square_sign = np.array([blade_mul(i, i, sig)[0] for i in range(dim)])
    return _Tables(sign, target, grades, reverse_sign, square_sign, tensor)


def _gp_coeffs(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    t = _tables(sig.p, sig.q)
    if t.sign is not None:
        w = a[:, None] * b[None, :] * t.sign
        return np.bincount(t.target.ravel(), weights=w.ravel(), minlength=sig.dim)
    out = np.zeros(sig.dim)
    for i in np.nonzero(a)[0]:
        for j in np.nonzero(b)[0]:
            s, m = blade_mul(int(i), int(j), sig)
            out[m] += s * a[i] * b[j]
    return out


def gp_many(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise geometric products of stacked coefficient arrays.

    `a` and `b` are (N, 2**n) or a single (2**n,) row broadcast against the
    other argument.  Used by the transform engine; equivalent to gp row by
    row but vectorized through the dense product tensor.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    t = _tables(sig.p, sig.q)
    if a.ndim == 1 and b.ndim == 1:
        return _gp_coeffs(sig, a, b)
    if t.tensor is None:
        aa = np.atleast_2d(a)
        bb = np.atleast_2d(b)
        if len(aa) == 1:
            aa = np.broadcast_to(aa, bb.shape)
        if len(bb) == 1:
            bb = np.broadcast_to(bb, aa.shape)
        return np.stack([_gp_coeffs(sig, x, y) for x, y in zip(aa, bb)])
    if a.ndim == 1:
        # constant left factor: contract it into a matrix once
        lm = np.tensordot(a, t.tensor, axes=([0], [0]))   # (j, k)
        return b @ lm
    if b.ndim == 1:
        rm = np.tensordot(b, t.tensor, axes=([0], [1]))   # (i, k)
        return a @ rm
    tt = np.tensordot(b, t.tensor, axes=([1], [1]))       # (N, i, k)
    return np.einsum("ni,nik->nk", a, tt)


class Multivector:
    """Element of Cl(p,q): one real coefficient per basis blade.

    Instances are immutable (the coefficient array is frozen); arithmetic
    returns new values.  ``*`` is the geometric product, and plain numbers
    are accepted as scalars on either side of ``+``, ``-`` and ``*``.
    """

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs) -> None:
        arr = np.array(coeffs, dtype=np.float64)
        if arr.shape != (sig.dim,):
            raise ValueError(f"expected {sig.dim} coefficients for {sig}")
        arr.flags.writeable = False
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, np.zeros(sig.dim))

    @classmethod
    def scalar(cls, sig: Signature, value: float) -> "Multivector":
        c = np.zeros(sig.dim)
        c[0] = value
        return cls(sig, c)

    @classmethod
    def blade(cls, sig: Signature, blade, coef: float = 1.0) -> "Multivector":
        """Single-blade element; `blade` is a bitmask or a label like 'e12'."""
        mask = sig.blade_mask(blade) if isinstance(blade, str) else int(blade)
        if not 0 <= mask < sig.dim:
            raise ValueError(f"blade mask {mask} out of range")
        c = np.zeros(sig.dim)
        c[mask] = coef
        return cls(sig, c)

    @classmethod
    def basis_vector(cls, sig: Signature, j: int) -> "Multivector":
        """e_j, 1-based."""
        if not 1 <= j <= sig.n:
            raise ValueError(f"basis index {j} out of range 1..{sig.n}")
        return cls.blade(sig, 1 << (j - 1))

    # arithmetic -----------------------------------------------------------

    def _coerce(self, other) -> "Multivector | None":
        if isinstance(other, Multivector):
            if other.sig != self.sig:
                raise ValueError("signature mismatch")
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector.scalar(self.sig, float(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.sig, self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.sig, self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Multivector(self.sig, o.coeffs - self.coeffs)

    def __neg__(self):
        return Multivector(self.sig, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            if other.sig != self.sig:
                raise ValueError("signature mismatch")
            return Multivector(self.sig, _gp_coeffs(self.sig, self.coeffs, other.coeffs))
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self.sig, self.coeffs * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self.sig, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self.sig, self.coeffs / float(other))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and bool(np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None

    # queries --------------------------------------------------------------

    def magnitude(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def grade_part(self, k: int) -> "Multivector":
        t = _tables(self.sig.p, self.sig.q)
        return Multivector(self.sig, np.where(t.grades == k, self.coeffs, 0.0))

    def max_grade(self) -> int:
        t = _tables(self.sig.p, self.sig.q)
        nz = np.nonzero(self.coeffs)[0]
        return int(t.grades[nz].max()) if len(nz) else 0

    def terms(self) -> list[tuple[int, float]]:
        """Nonzero (mask, coefficient) pairs in blade-index order."""
        return [(int(i), float(self.coeffs[i])) for i in np.nonzero(self.coeffs)[0]]

    def reverse(self) -> "Multivector":
        """Reversion: grade k picks up the sign (-1)**(k(k-1)/2)."""
        t = _tables(self.sig.p, self.sig.q)
        return Multivector(self.sig, self.coeffs * t.reverse_sign)

    def inverse(self, tol: float = RELATIVE_TOL) -> "Multivector":
        """Inverse via reversion, defined when B * reverse(B) is a scalar.

        Raises NotInvertible when the product has a relative non-scalar
        residue above tol or a scalar part of magnitude at most tol.
        """
        rev = self.reverse()
        prod = _gp_coeffs(self.sig, self.coeffs, rev.coeffs)
        s = prod[0]
        residue = np.linalg.norm(prod[1:])
        scale = np.linalg.norm(prod)
        if residue >= tol * max(1.0, scale) or abs(s) <= tol:
            raise NotInvertible(
                f"{self!r}: product with its reversion is not an invertible scalar"
            )
        return Multivector(self.sig, rev.coeffs / s)

    def is_root_of_minus_one(self, tol: float = STRUCTURAL_TOL) -> bool:
        """True when the square is a negative real scalar.

        The scalar part of the square must lie below -tol and every other
        coefficient of the square below tol * max(1, magnitude()**2).
        """
        sq = _gp_coeffs(self.sig, self.coeffs, self.coeffs)
        if sq[0] >= -tol:
            return False
        bound = tol * max(1.0, float(self.coeffs @ self.coeffs))
        return bool(np.all(np.abs(sq[1:]) < bound))

    def left_matrix(self) -> np.ndarray:
        """Matrix L with (self * X).coeffs == L @ X.coeffs."""
        return self._mult_matrix(left=True)

    def right_matrix(self) -> np.ndarray:
        """Matrix R with (X * self).coeffs == R @ X.coeffs."""
        return self._mult_matrix(left=False)

    def _mult_matrix(self, left: bool) -> np.ndarray:
        sig = self.sig
        t = _tables(sig.p, sig.q)
        if t.tensor is not None:
            contracted = np.tensordot(self.coeffs, t.tensor, axes=([0], [0 if left else 1]))
            return contracted.T
        out = np.zeros((sig.dim, sig.dim))
        for i in np.nonzero(self.coeffs)[0]:
            for j in range(sig.dim):
                if left:
                    s, m = blade_mul(int(i), j, sig)
                else:
                    s, m = blade_mul(j, int(i), sig)
                out[m, j] += s * self.coeffs[i]
        return out

    def __repr__(self) -> str:
        parts = []
        for mask, coef in self.terms():
            label = self.sig.blade_label(mask)
            parts.append(f"{coef:g}" if mask == 0 else f"{coef:g}*{label}")
        body = " + ".join(parts) if parts else "0"
        return f"<{body} in {self.sig}>"


# functional aliases matching the operation names used elsewhere -----------

def reverse(a: Multivector) -> Multivector:
    return a.reverse()


def magnitude(a: Multivector) -> float:
    return a.magnitude()


def is_root_of_minus_one(a: Multivector, tol: float = STRUCTURAL_TOL) -> bool:
    return a.is_root_of_minus_one(tol)


def pseudoscalar(sig: Signature) -> Multivector:
    """Highest-grade basis blade e_1...e_n."""
    return Multivector.blade(sig, sig.dim - 1)


def square_scalar_signs(sig: Signature) -> np.ndarray:
    """Per-blade squares e_J * e_J as a (2**n,) sign array."""
    return _tables(sig.p, sig.q).square_sign
