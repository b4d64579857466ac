"""Independent reference evaluator for the geometric Fourier transform.

Nothing here imports gafourier.  Blade-product signs come from counting
bits, exponentials from a power series (with scaling and squaring), and
the built-in presets are rebuilt from their published definitions, so a
fault in the package's algebra, exponential or preset tables shows up as
a disagreement with this module.

Coefficients are indexed by blade bitmask: bit j set means e_{j+1} is a
factor.  The first p basis vectors square to +1, the other q to -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def blade_sign(a: int, b: int, p: int) -> int:
    """Sign of the blade product e_a e_b, by counting bits.

    Each factor of a has to move past every lower-indexed factor of b
    (one transposition each); every shared factor with index above p
    contributes its square, -1.
    """
    swaps = 0
    rest = a >> 1
    while rest:
        swaps += bin(rest & b).count("1")
        rest >>= 1
    negatives = bin((a & b) >> p).count("1")
    return -1 if (swaps + negatives) % 2 else 1


class Algebra:
    """Dense Cl(p,q) arithmetic on stacked coefficient rows."""

    def __init__(self, p: int, q: int) -> None:
        self.p, self.q = p, q
        self.n = p + q
        self.dim = 1 << self.n
        self.sign = np.array(
            [[blade_sign(a, b, p) for b in range(self.dim)] for a in range(self.dim)],
            dtype=float,
        )
        cols = np.arange(self.dim)
        self.xor = [a ^ cols for a in range(self.dim)]

    def basis(self, mask: int, coef: float = 1.0) -> np.ndarray:
        out = np.zeros(self.dim)
        out[mask] = coef
        return out

    def vector(self, j: int) -> np.ndarray:
        """Basis vector e_j, 1-based."""
        return self.basis(1 << (j - 1))

    def pseudoscalar(self) -> np.ndarray:
        return self.basis(self.dim - 1)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Geometric product, row by row; rows broadcast against each other.

        out[i ^ j] += sign(i, j) a_i b_j, one blade i of `a` at a time.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for i in range(self.dim):
            ai = a[..., i:i + 1]
            if not ai.any():
                continue
            out[..., self.xor[i]] += (ai * self.sign[i]) * b
        return out

    def exp(self, a: np.ndarray, tol: float = 1e-18, max_terms: int = 80) -> np.ndarray:
        """e^a for every row of `a` by power series.

        The argument is halved until every row has norm below 1/2, the
        series is summed until the terms fall below `tol`, and the result
        is squared back once per halving.
        """
        a = np.asarray(a, dtype=float)
        norm = float(np.sqrt((a * a).sum(axis=-1)).max()) if a.size else 0.0
        halvings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
        x = a / float(2 ** halvings)
        term = np.zeros_like(x)
        term[..., 0] = 1.0
        total = term.copy()
        for k in range(1, max_terms + 1):
            term = self.product(term, x) / k
            total += term
            if np.abs(term).max() < tol:
                break
        else:
            raise ArithmeticError("power series did not converge")
        for _ in range(halvings):
            total = self.product(total, total)
        return total


@dataclass(frozen=True)
class Preset:
    """A transform configuration: kernels as (m, m, 2**n) coefficient arrays."""

    name: str
    alg: Algebra
    m: int
    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]

    @property
    def nu(self) -> int:
        return len(self.left) + len(self.right)

    def separable(self, side: str) -> bool:
        """Every kernel on the side is a real matrix times one constant
        multivector (its nonzero entries are pairwise parallel)."""
        for kern in self.left if side == "left" else self.right:
            rows = kern.reshape(-1, self.alg.dim)
            rows = rows[np.abs(rows).max(axis=1) > 0]
            if len(rows) < 2:
                continue
            if np.linalg.matrix_rank(rows, tol=1e-12 * np.abs(rows).max()) > 1:
                return False
        return True


def _diag(alg: Algebra, m: int, value: np.ndarray) -> np.ndarray:
    kern = np.zeros((m, m, alg.dim))
    for j in range(m):
        kern[j, j] = value
    return kern


def _single(alg: Algebra, m: int, j: int, l: int, value: np.ndarray) -> np.ndarray:
    kern = np.zeros((m, m, alg.dim))
    kern[j, l] = value
    return kern


def preset(selector: str) -> Preset:
    """The built-in configurations, rebuilt from their definitions.

    clifford:n   Cl(n,0), one right kernel 2 pi I x.u (I the pseudoscalar)
    buelow:n     Cl(0,n), right kernels 2 pi e_k x_k u_k, k = 1..n
    quaternionic Cl(0,2), left 2 pi e1 x1 u1, right 2 pi e2 x2 u2
    spacetime    Cl(3,1), left e4 x4 u4, right -(e4 I) x_j u_j, j = 1..3
    color_image  Cl(4,0), left (B/2, IB/2) x.u, right (-B/2, -IB/2) x.u
                 with B = e12
    cylindrical:n Cl(0,n), one left kernel sum_{j != l} -e_j e_l x_j u_l
    """
    name, _, param = selector.partition(":")
    if name == "clifford":
        n = int(param)
        alg = Algebra(n, 0)
        return Preset(selector, alg, n, (), (_diag(alg, n, alg.pseudoscalar() * TWO_PI),))
    if name == "buelow":
        n = int(param)
        alg = Algebra(0, n)
        right = tuple(_single(alg, n, k, k, alg.vector(k + 1) * TWO_PI) for k in range(n))
        return Preset(selector, alg, n, (), right)
    if name == "quaternionic":
        alg = Algebra(0, 2)
        return Preset(
            selector, alg, 2,
            (_single(alg, 2, 0, 0, alg.vector(1) * TWO_PI),),
            (_single(alg, 2, 1, 1, alg.vector(2) * TWO_PI),),
        )
    if name == "spacetime":
        alg = Algebra(3, 1)
        e4 = alg.vector(4)
        direction = -alg.product(e4, alg.pseudoscalar())
        right = _single(alg, 4, 0, 0, direction)
        right[1, 1] = direction
        right[2, 2] = direction
        return Preset(selector, alg, 4, (_single(alg, 4, 3, 3, e4),), (right,))
    if name == "color_image":
        alg = Algebra(4, 0)
        b = alg.basis(0b0011)
        ib = alg.product(alg.pseudoscalar(), b)
        return Preset(
            selector, alg, 2,
            (_diag(alg, 2, b * 0.5), _diag(alg, 2, ib * 0.5)),
            (_diag(alg, 2, b * -0.5), _diag(alg, 2, ib * -0.5)),
        )
    if name == "cylindrical":
        n = int(param)
        alg = Algebra(0, n)
        kern = np.zeros((n, n, alg.dim))
        for j in range(n):
            for l in range(n):
                if j != l:
                    kern[j, l] = -alg.product(alg.vector(j + 1), alg.vector(l + 1))
        return Preset(selector, alg, n, (kern,), ())
    raise ValueError(f"no reference definition for preset {selector!r}")


def grid(dims, origin, spacing) -> np.ndarray:
    """Row-major node coordinates of a regular grid, shape (N, m)."""
    axes = [o + s * np.arange(d) for d, o, s in zip(dims, origin, spacing)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([c.reshape(-1) for c in mesh], axis=1)


def transform_at(
    pre: Preset,
    values: np.ndarray,
    xs: np.ndarray,
    cell_volume: float,
    us: np.ndarray,
) -> np.ndarray:
    """Direct sum F(u) = sum_x prod_L e^{-f} B(x) prod_R e^{-f} dV at each
    row of `us`; kernels are applied in their configured order."""
    alg = pre.alg
    out = np.empty((len(us), alg.dim))
    for i, u in enumerate(np.asarray(us, dtype=float)):
        def factor(kern: np.ndarray) -> np.ndarray:
            f = np.einsum("nj,jlk,l->nk", xs, kern, u)
            return alg.exp(-f)

        rows = None
        for kern in pre.left:
            e = factor(kern)
            rows = e if rows is None else alg.product(rows, e)
        rows = values if rows is None else alg.product(rows, values)
        for kern in pre.right:
            rows = alg.product(rows, factor(kern))
        out[i] = rows.sum(axis=0) * cell_volume
    return out
