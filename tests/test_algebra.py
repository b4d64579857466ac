"""Multivector arithmetic against an independent symbolic oracle."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gafourier import algebra
from gafourier.algebra import (
    MAX_DIMENSION,
    Multivector,
    NotInvertible,
    Signature,
    _left_factor,
    _right_factor,
    blade_signs,
    gp_many,
    pseudoscalar,
    square_scalar_signs,
)

from conftest import (
    SIGNATURES_SMALL,
    rand_mv,
    rand_root,
    root_family,
    sig_and_mvs,
    squares_to_negative_real,
)


def blade_product_oracle(sig, mask_a, mask_b):
    """Multiply basis blades by explicit generator-list manipulation.

    Independent of the bitmask implementation: concatenates the factor
    lists, bubble-sorts counting transpositions, and cancels adjacent
    equal generators with the metric sign.
    """
    factors = [j for j in range(sig.n) if mask_a >> j & 1]
    factors += [j for j in range(sig.n) if mask_b >> j & 1]
    sign = 1.0
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(factors) - 1:
            if factors[i] == factors[i + 1]:
                sign *= sig.eps(factors[i] + 1)
                del factors[i : i + 2]
                changed = True
            elif factors[i] > factors[i + 1]:
                factors[i], factors[i + 1] = factors[i + 1], factors[i]
                sign *= -1.0
                changed = True
            else:
                i += 1
    mask = 0
    for j in factors:
        mask |= 1 << j
    return sign, mask


@pytest.mark.parametrize("sig", SIGNATURES_SMALL + (Signature(9, 0),), ids=str)
def test_blade_mul_matches_symbolic_oracle(sig):
    # every blade pair up to 2**n = 16; beyond, all pairs with 6 random blades
    rng = np.random.default_rng(sig.dim)
    picked = range(sig.dim) if sig.dim <= 16 else rng.choice(sig.dim, 6, replace=False)
    for a in map(int, picked):
        # row b: e_a e_b and e_b e_a from the product table
        left = _left_factor(sig, Multivector.blade(sig, a).coeffs)
        right = _right_factor(sig, Multivector.blade(sig, a).coeffs)
        for b in range(sig.dim):
            for x, y, table in ((a, b, left), (b, a, right)):
                want_sign, want_mask = blade_product_oracle(sig, x, y)
                assert blade_signs(sig, x, y) == want_sign, (x, y)
                want = np.zeros(sig.dim)
                want[want_mask] = want_sign
                assert np.array_equal(table[b], want), (x, y)


def test_blade_mul_known_values():
    e = Signature(2, 0)
    h = Signature(0, 2)
    st31 = Signature(3, 1)
    cases = [
        (e, 0b01, 0b10, 1.0, 0b11),        # e1 e2 = e12
        (e, 0b10, 0b01, -1.0, 0b11),       # e2 e1 = -e12
        (e, 0b11, 0b11, -1.0, 0),          # e12 e12 = -1
        (h, 0b01, 0b01, -1.0, 0),          # e1 e1 = -1 in Cl(0,2)
        (h, 0b01, 0b11, -1.0, 0b10),       # e1 e12 = -e2
        (st31, 0b1000, 0b1000, -1.0, 0),   # e4^2 = -1
        (st31, 0b1001, 0b1001, 1.0, 0),    # e14^2 = +1
    ]
    for sig, a, b, sign, mask in cases:
        assert blade_signs(sig, a, b) == sign
        product = Multivector.blade(sig, a) * Multivector.blade(sig, b)
        assert product == Multivector.blade(sig, mask, sign)


def test_pseudoscalar_squares():
    # n(n-1)/2 transpositions times the metric product
    want = {(2, 0): -1.0, (0, 2): -1.0, (3, 0): -1.0, (3, 1): -1.0, (4, 0): 1.0}
    for sig in SIGNATURES_SMALL:
        i_n = pseudoscalar(sig)
        sq = (i_n * i_n).coeffs
        assert sq[0] == want[(sig.p, sig.q)]
        assert np.count_nonzero(sq) == 1
        assert square_scalar_signs(sig)[sig.dim - 1] == want[(sig.p, sig.q)]


def test_signature_labels_round_trip():
    sig = Signature(3, 1)
    for mask in range(sig.dim):
        label = sig.blade_label(mask)
        assert sig.blade_mask(label) == mask
    with pytest.raises(ValueError):
        sig.blade_mask("e5")
    with pytest.raises(ValueError):
        sig.blade_mask("e0")
    with pytest.raises(ValueError):
        Signature(-1, 2)
    assert MAX_DIMENSION == 10 and Signature(3, 7).dim == 1 << 10
    for p, q in ((MAX_DIMENSION, 1), (0, 11), (6, 5)):
        with pytest.raises(ValueError, match="p \\+ q must not exceed 10"):
            Signature(p, q)


def test_multi_digit_labels_use_underscores():
    sig = Signature(10, 0)
    mask = sig.blade_mask("e1_10")
    assert mask == (1 << 0) | (1 << 9)
    assert sig.blade_mask(sig.blade_label(mask)) == mask


@settings(max_examples=150, deadline=None)
@given(sig_and_mvs(count=3))
def test_product_is_associative(data):
    sig, a, b, c = data
    left = (a * b) * c
    right = a * (b * c)
    scale = max(1.0, left.magnitude())
    assert (left - right).magnitude() <= 1e-10 * scale


@settings(max_examples=150, deadline=None)
@given(sig_and_mvs(count=3))
def test_product_distributes_over_addition(data):
    sig, a, b, c = data
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert (lhs - rhs).magnitude() <= 1e-10 * max(1.0, lhs.magnitude())


@settings(max_examples=150, deadline=None)
@given(sig_and_mvs(count=2))
def test_reversion_is_an_antiautomorphism(data):
    sig, a, b = data
    lhs = (a * b).reverse()
    rhs = b.reverse() * a.reverse()
    assert (lhs - rhs).magnitude() <= 1e-10 * max(1.0, lhs.magnitude())
    assert (a.reverse().reverse() - a).magnitude() == 0.0


def test_reversion_signs_by_grade():
    sig = Signature(4, 0)
    # grade pattern +, +, -, -, +
    for label, sign in [("e1", 1.0), ("e12", -1.0), ("e123", -1.0), ("e1234", 1.0)]:
        mv = Multivector.blade(sig, label)
        assert mv.reverse() == mv * sign


def test_generators_anticommute_and_square_to_metric():
    for sig in SIGNATURES_SMALL:
        for j in range(1, sig.n + 1):
            ej = Multivector.basis_vector(sig, j)
            assert (ej * ej).coeffs[0] == sig.eps(j)
            for k in range(j + 1, sig.n + 1):
                ek = Multivector.basis_vector(sig, k)
                assert ((ej * ek) + (ek * ej)).magnitude() == 0.0


def test_inverse_of_blades_and_rotors():
    rng = np.random.default_rng(7)
    for sig in SIGNATURES_SMALL:
        one = Multivector.scalar(sig, 1.0)
        for mask in range(1, sig.dim):
            b = Multivector.blade(sig, mask, 1.5)
            err = (b * b.inverse() - one).magnitude()
            assert err <= 1e-12
        # mixed-grade imaginary elements are invertible (-f / r^2) but are
        # not versors, so the reversion formula must refuse them
        f = rand_root(sig, rng, max_mag=2.0)
        rsq = -(f * f).coeffs[0]
        assert (f * (-f / rsq) - one).magnitude() <= 1e-12
        prod = f * f.reverse()
        if np.linalg.norm(prod.coeffs[1:]) > 1e-9 * max(1.0, prod.magnitude()):
            with pytest.raises(NotInvertible):
                f.inverse()
        else:
            assert (f * f.inverse() - one).magnitude() <= 1e-12


def test_zero_divisor_is_not_invertible():
    sig = Signature(2, 0)
    a = Multivector.scalar(sig, 1.0) + Multivector.blade(sig, "e1")
    # (1 + e1)(1 - e1) = 0, so the left-multiplication matrix is singular
    assert abs(np.linalg.det(_left_factor(sig, a.coeffs))) <= 1e-12
    with pytest.raises(NotInvertible):
        a.inverse()
    with pytest.raises(NotInvertible):
        Multivector.zero(sig).inverse()


def test_multiplication_matrices_agree_with_products():
    rng = np.random.default_rng(3)
    sig = Signature(3, 1)
    a, b = rand_mv(sig, rng), rand_mv(sig, rng)
    # gp_many of two stacks takes the row-by-row path, not the factor matrices
    ab, ba = gp_many(sig, [a.coeffs, b.coeffs], [b.coeffs, a.coeffs])
    assert np.allclose(b.coeffs @ _left_factor(sig, a.coeffs), ab, atol=1e-14)
    assert np.allclose(b.coeffs @ _right_factor(sig, a.coeffs), ba, atol=1e-14)
    assert np.allclose((a * b).coeffs, ab, atol=1e-14)


def test_root_family_members_square_to_minus_one():
    for sig in SIGNATURES_SMALL:
        for label in root_family(sig):
            mv = Multivector.blade(sig, label)
            assert squares_to_negative_real(mv)
            assert (mv * mv).coeffs[0] == -1.0
        assert not squares_to_negative_real(Multivector.basis_vector(sig, 1)) or sig.q > 0


def test_rand_root_samples_are_imaginary():
    rng = np.random.default_rng(11)
    for sig in SIGNATURES_SMALL:
        for _ in range(50):
            f = rand_root(sig, rng)
            sq = f * f
            assert sq.coeffs[0] < 0.0
            assert abs(sq.magnitude() + sq.coeffs[0]) <= 1e-12 * max(1.0, -sq.coeffs[0])


def pair_table(sig):
    """(sign, mask) of e_i e_j for every blade pair (i, j).

    Up to 2**n = 128 from the symbolic oracle; beyond, where the oracle
    takes seconds, from `blade_signs`, which the oracle test above checks
    on sampled Cl(9,0) pairs.  Neither reads the product table.
    """
    if sig.dim <= 128:
        pairs = [[blade_product_oracle(sig, i, j) for j in range(sig.dim)]
                 for i in range(sig.dim)]
        return np.array([[s for s, _ in row] for row in pairs]), \
            np.array([[m for _, m in row] for row in pairs])
    idx = np.arange(sig.dim)
    return blade_signs(sig, idx[:, None], idx[None, :]), idx[:, None] ^ idx[None, :]


def test_gp_many_matches_elementwise_products():
    rng = np.random.default_rng(5)
    # atol bounds coefficients near zero; a Cl(9,0) coefficient sums 512 terms
    for sig, atol in ((Signature(0, 2), 1e-14), (Signature(0, 7), 1e-14),
                      (Signature(9, 0), 1e-13), (Signature(10, 0), 1e-13)):
        sign, mask = pair_table(sig)

        def product(x, y):
            out = np.zeros(sig.dim)
            np.add.at(out, mask, sign * np.outer(x, y))
            return out

        a = rng.uniform(-1, 1, (10, sig.dim))
        b = rng.uniform(-1, 1, (10, sig.dim))
        want = [product(a[i], b[i]) for i in range(10)]
        assert np.allclose(gp_many(sig, a, b), want, atol=atol)
        # single row broadcast against a stack, both sides
        left = gp_many(sig, a[0], b)
        right = gp_many(sig, a, b[0])
        for i in range(10):
            assert np.allclose(left[i], product(a[0], b[i]))
            assert np.allclose(right[i], product(a[i], b[0]))
        # sparse rows against the blade-by-blade oracle
        sa, sb = np.zeros((2, sig.dim)), np.zeros((2, sig.dim))
        for row in (*sa, *sb):
            row[rng.choice(sig.dim, 4, replace=False)] = rng.uniform(-1, 1, 4)
        oracle = np.zeros((2, sig.dim))
        for r in range(2):
            for i in np.flatnonzero(sa[r]):
                for j in np.flatnonzero(sb[r]):
                    sign, mask = blade_product_oracle(sig, int(i), int(j))
                    oracle[r, mask] += sign * sa[r, i] * sb[r, j]
        assert np.allclose(gp_many(sig, sa, sb), oracle, atol=1e-15)
        assert np.allclose(gp_many(sig, sa[0], sb[:1]), oracle[:1], atol=1e-15)
        assert np.allclose(gp_many(sig, sa[:1], sb[0]), oracle[:1], atol=1e-15)


def test_dense_product_in_nine_dimensions():
    sig = Signature(9, 0)
    rng = np.random.default_rng(8)
    a, b, c = (Multivector(sig, rng.uniform(-1, 1, sig.dim)) for _ in range(3))
    ab = a * b
    t0 = time.perf_counter()
    for _ in range(10):
        a * b
    assert time.perf_counter() - t0 < 1.0  # a dense product takes ~2 ms
    lhs, rhs = ab * c, a * (b * c)
    assert (lhs - rhs).magnitude() <= 1e-11 * lhs.magnitude()
    assert np.allclose(b.coeffs @ _left_factor(sig, a.coeffs), ab.coeffs)
    assert np.allclose(a.coeffs @ _right_factor(sig, b.coeffs), ab.coeffs)
    assert np.allclose(gp_many(sig, a.coeffs[None], b.coeffs[None])[0], ab.coeffs)


def test_stack_products_in_row_chunks_match_one_chunk(monkeypatch):
    sig = Signature(2, 3)
    rng = np.random.default_rng(13)
    a, b = rng.uniform(-1, 1, (2, 7, sig.dim))
    whole = gp_many(sig, a, b)
    monkeypatch.setattr(algebra, "_ROW_BLOCK", 2 * sig.dim ** 2)  # chunks of 2, 2, 2, 1 rows
    assert np.array_equal(gp_many(sig, a, b), whole)
    for i in range(7):
        assert np.allclose(whole[i], gp_many(sig, a[i], b[i]), rtol=0, atol=1e-14)


def test_scalar_operators_and_division():
    sig = Signature(2, 0)
    a = Multivector(sig, np.array([1.0, 2.0, 3.0, 4.0]))
    assert (2.0 * a).coeffs[3] == 8.0
    assert (a / 2.0).coeffs[1] == 1.0
    assert (a - a).magnitude() == 0.0
    assert (1.0 - a).coeffs[0] == 0.0
    assert a.grade_part(1).terms() == [(1, 2.0), (2, 3.0)]
    assert a.grade_part(2).terms() == [(3, 4.0)]
