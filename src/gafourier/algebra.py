"""Real Clifford algebras Cl(p,q) with dense multivector arithmetic.

Coefficients are indexed by blade bitmask: bit j of an index means the
basis vector e_{j+1} is a factor of that blade, so index 0 is the scalar
unit and index 2**n - 1 the pseudoscalar.  The first p basis vectors
square to +1, the remaining q to -1.

Every geometric product reads one table per signature, built on first
use: since e_i e_j = sign(i, j) e_{i^j},

    (a b)[k] = sum_i sign[i, k] a_i b_{i^k},   sign[i, k] = sign(i, i^k),

with xor[i, k] = i ^ k.  A constant factor on either side turns into one
(2**n, 2**n) matrix through that table, so a product is one matrix
multiply; `gp_many` applies the same rule to stacks of rows.  Everything
here is a pure function on immutable values; nothing mutates shared
state after a table is built, so the module is safe to use from
multiple threads.
"""

from __future__ import annotations

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
    "blade_signs",
    "gp_many",
    "pseudoscalar",
    "square_scalar_signs",
]

# Hard cap on p+q.  Up to n = 10 a product matrix has at most 2**20
# entries (8 MiB); beyond, coefficients are too many to transform in
# practice (the smallest Cl(11,0) transform takes tens of seconds).
MAX_DIMENSION = 10

# The package's two tolerances.  The only other numeric bounds are ulp
# counts, the small-angle switch and the verify checks' default bounds.
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
        strictly ascending basis indices ('e12', 'e134', 'e1_10')."""
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


def blade_signs(sig: Signature, a, b) -> np.ndarray:
    """Signs of the basis-blade products a * b, elementwise over
    broadcast arrays of blade bitmasks.

    The sign counts the transpositions needed to interleave the two
    ascending factor lists, plus one metric factor for every basis vector
    the blades share that squares to -1.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    swaps = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    t = a >> np.uint64(1)
    while t.any():
        swaps += np.bitwise_count(t & b)
        t = t >> np.uint64(1)
    negatives = np.bitwise_count((a & b) >> np.uint64(sig.p)).astype(np.int64)
    return np.where((swaps + negatives) % 2 == 0, 1.0, -1.0)


@lru_cache(maxsize=None)
def _table(p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The product table of Cl(p,q): xor[i, k] = i ^ k and sign[i, k] =
    the sign of e_i e_{i^k}, so that (a b)[k] = sum_i sign[i, k] a_i b_{i^k}.
    Column 0 holds the blade squares e_i e_i.  Both are intp and float64,
    which gather and multiply without conversion: 16 MiB at n = 10."""
    sig = Signature(p, q)
    idx = np.arange(sig.dim)
    xor = idx[:, None] ^ idx
    sign = blade_signs(sig, idx[:, None], xor)
    xor.setflags(write=False)
    sign.setflags(write=False)
    return xor, sign


@lru_cache(maxsize=None)
def _grades(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Blade grades and reversion signs (-1)**(k(k-1)/2) for 2**n blades."""
    grades = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    reverse_sign = np.where(grades & 2, -1.0, 1.0)
    grades.setflags(write=False)
    reverse_sign.setflags(write=False)
    return grades, reverse_sign


# A stack x stack product expands each row of b into a (2**n, 2**n)
# matrix; rows are taken in chunks of at most this many matrix entries
# (8 MiB of float64).
_ROW_BLOCK = 1 << 20


def _right_factor(sig: Signature, b: np.ndarray) -> np.ndarray:
    """The matrix M with (x * b) == x @ M for coefficient rows x."""
    xor, sign = _table(sig.p, sig.q)
    m = np.take(b, xor)
    m *= sign
    return m


def _left_factor(sig: Signature, a: np.ndarray) -> np.ndarray:
    """The matrix M with (a * x) == x @ M for coefficient rows x."""
    xor, sign = _table(sig.p, sig.q)
    m = np.take(a, xor)
    m *= sign[xor, np.arange(sig.dim)]
    return m


def gp_many(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise geometric products of stacked coefficient arrays.

    `a` and `b` are (N, 2**n) or a single (2**n,) row broadcast against the
    other argument.  A constant factor becomes one (2**n, 2**n) matrix and
    the product one matrix multiply; two stacks are multiplied in chunks
    of rows, each row of b expanded into its matrix.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        return a @ _right_factor(sig, b)
    if a.ndim == 1:
        return b @ _left_factor(sig, a)
    if a.shape != b.shape:
        raise ValueError(f"row stacks of shapes {a.shape} and {b.shape} differ")
    xor, sign = _table(sig.p, sig.q)
    out = np.empty(a.shape)
    rows = max(1, _ROW_BLOCK // sig.dim ** 2)
    for lo in range(0, len(out), rows):
        m = np.take(b[lo:lo + rows], xor, axis=1)
        m *= sign
        out[lo:lo + rows] = (a[lo:lo + rows, None] @ m)[:, 0]
    return out


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
            return Multivector(self.sig, gp_many(self.sig, self.coeffs, other.coeffs))
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
        grades, _ = _grades(self.sig.n)
        return Multivector(self.sig, np.where(grades == k, self.coeffs, 0.0))

    def terms(self) -> list[tuple[int, float]]:
        """Nonzero (mask, coefficient) pairs in blade-index order."""
        return [(int(i), float(self.coeffs[i])) for i in np.nonzero(self.coeffs)[0]]

    def reverse(self) -> "Multivector":
        """Reversion: grade k picks up the sign (-1)**(k(k-1)/2)."""
        _, reverse_sign = _grades(self.sig.n)
        return Multivector(self.sig, self.coeffs * reverse_sign)

    def inverse(self) -> "Multivector":
        """Inverse via reversion, defined when B * reverse(B) is a scalar.

        Raises NotInvertible when the product has a relative non-scalar
        residue above RELATIVE_TOL or a scalar part of magnitude at most
        RELATIVE_TOL.
        """
        rev = self.reverse()
        prod = gp_many(self.sig, self.coeffs, rev.coeffs)
        s = prod[0]
        residue = np.linalg.norm(prod[1:])
        scale = np.linalg.norm(prod)
        if residue >= RELATIVE_TOL * max(1.0, scale) or abs(s) <= RELATIVE_TOL:
            raise NotInvertible(
                f"{self!r}: product with its reversion is not an invertible scalar"
            )
        return Multivector(self.sig, rev.coeffs / s)

    def __repr__(self) -> str:
        parts = []
        for mask, coef in self.terms():
            label = self.sig.blade_label(mask)
            parts.append(f"{coef:g}" if mask == 0 else f"{coef:g}*{label}")
        body = " + ".join(parts) if parts else "0"
        return f"<{body} in {self.sig}>"


def pseudoscalar(sig: Signature) -> Multivector:
    """Highest-grade basis blade e_1...e_n."""
    return Multivector.blade(sig, sig.dim - 1)


def square_scalar_signs(sig: Signature) -> np.ndarray:
    """Per-blade squares e_J * e_J as a read-only (2**n,) sign array,
    column 0 of the product table."""
    return _table(sig.p, sig.q)[1][:, 0]
