"""Commutativity splits, exponential swaps, and triangular sign matrices."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from gafourier.algebra import Multivector, NotInvertible, Signature
from gafourier.commsplit import (
    MAX_GENERATORS,
    _triangular,
    shift_exponential_terms,
    split_multi,
)
from gafourier.exponential import NotImaginary, exp_imag

from conftest import SIGNATURES_SMALL, rand_mv, rand_root, root_family, sig_and_mvs


def _pair(a, b):
    """(commuting, anticommuting) parts of a against the one generator b."""
    comps = split_multi(a, [b], "forward")
    return comps[(0,)], comps[(1,)]


def test_pair_split_known_example():
    sig = Signature(2, 0)
    a = Multivector(sig, np.array([1.0, 2.0, 3.0, 4.0]))
    c0, c1 = _pair(a, Multivector.blade(sig, "e1"))
    # e1 (1 + 2 e1 + 3 e2 + 4 e12) e1 = 1 + 2 e1 - 3 e2 - 4 e12
    assert np.allclose(c0.coeffs, [1.0, 2.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(c1.coeffs, [0.0, 0.0, 3.0, 4.0], atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(sig_and_mvs(count=1))
def test_pair_split_reassembles_and_commutes(data):
    sig, a = data
    for label in root_family(sig):
        b = Multivector.blade(sig, label, 1.5)
        c0, c1 = _pair(a, b)
        assert (c0 + c1 - a).magnitude() <= 1e-12 * max(1.0, a.magnitude())
        scale = max(1.0, a.magnitude()) * b.magnitude()
        assert (c0 * b - b * c0).magnitude() <= 1e-10 * scale
        assert (c1 * b + b * c1).magnitude() <= 1e-10 * scale


def test_pair_split_requires_invertible():
    # 1 + e1 is nonzero but has no inverse (its reversion norm is 0);
    # a zero generator performs no split (test_zero_and_empty_generators)
    sig = Signature(2, 0)
    a = Multivector.scalar(sig, 1.0)
    for direction in ("forward", "backward"):
        with pytest.raises(NotInvertible):
            split_multi(a, [Multivector.scalar(sig, 1.0) + Multivector.blade(sig, "e1")],
                        direction)


def test_multi_split_sum_and_commutation():
    rng = np.random.default_rng(12)
    for sig in SIGNATURES_SMALL:
        labels = root_family(sig)[:3]
        gens = [Multivector.blade(sig, lab, s)
                for lab, s in zip(labels, (1.0, 2.0, 0.5))]
        a = rand_mv(sig, rng)
        for direction in ("forward", "backward"):
            comps = split_multi(a, gens, direction)
            assert len(comps) == 2 ** len(gens)
            total = Multivector.zero(sig)
            for part in comps.values():
                total = total + part
            assert (total - a).magnitude() <= 1e-12 * max(1.0, a.magnitude())
        # with a single generator g both directions give 1/2 (a +- g^-1 a g)
        g = gens[0]
        conj = g.inverse() * a * g
        for direction in ("forward", "backward"):
            comps = split_multi(a, gens[:1], direction)
            assert (comps[(0,)] - 0.5 * (a + conj)).magnitude() <= 1e-13
            assert (comps[(1,)] - 0.5 * (a - conj)).magnitude() <= 1e-13


def test_multi_split_components_carry_sign_contract():
    # components commute (bit 0) or anticommute (bit 1) with each blade
    # generator when the generators' conjugations commute
    sig = Signature(3, 0)
    rng = np.random.default_rng(8)
    a = rand_mv(sig, rng)
    gens = [Multivector.blade(sig, "e12"), Multivector.blade(sig, "e3")]
    # e12 and e3 commute, so the nested splits are simultaneous
    for direction in ("forward", "backward"):
        comps = split_multi(a, gens, direction)
        for bits, comp in comps.items():
            for k, b in enumerate(gens):
                sign = -1.0 if bits[k] else 1.0
                err = (comp * b - sign * (b * comp)).magnitude()
                assert err <= 1e-12 * max(1.0, comp.magnitude())


def test_multi_split_duality_reverses_indices():
    sig = Signature(0, 2)
    rng = np.random.default_rng(21)
    a = rand_mv(sig, rng)
    gens = [Multivector.blade(sig, lab) for lab in ("e1", "e2", "e12")]
    fwd = split_multi(a, gens, "forward")
    bwd = split_multi(a, list(reversed(gens)), "backward")
    for bits, comp in fwd.items():
        mirror = bwd[tuple(reversed(bits))]
        assert (comp - mirror).magnitude() <= 1e-12


def test_zero_and_empty_generators():
    sig = Signature(2, 0)
    a = Multivector(sig, np.array([1.0, 2.0, 3.0, 4.0]))
    assert split_multi(a, [], "forward") == {(): a}
    comps = split_multi(a, [Multivector.zero(sig)], "forward")
    assert (comps[(0,)] - a).magnitude() == 0.0
    assert comps[(1,)].magnitude() == 0.0
    with pytest.raises(ValueError):
        split_multi(a, [Multivector.blade(sig, "e12")] * (MAX_GENERATORS + 1), "forward")
    with pytest.raises(ValueError):
        split_multi(a, [], "sideways")


def test_swap_through_exponentials_identity():
    # the swap lemma: a constant moves left through prod_k e^{-f_k} as its
    # backward split components, each flipping the exponents it anticommutes
    # with:  prod_k e^{-f_k} a == sum_s a_s prod_k e^{-(-1)^{s_k} f_k}
    rng = np.random.default_rng(17)
    for sig in (Signature(0, 2), Signature(3, 0)):
        labels = root_family(sig)
        for d in (1, 2, 3):
            fvals = [Multivector.blade(sig, labels[k % len(labels)],
                                       rng.uniform(0.3, 2.0))
                     for k in range(d)]
            a = rand_mv(sig, rng)
            lhs = Multivector.scalar(sig, 1.0)
            for f in fvals:
                lhs = lhs * exp_imag(f)
            lhs = lhs * a
            rhs = Multivector.zero(sig)
            for signs, comp in split_multi(a, fvals, "backward").items():
                tail = Multivector.scalar(sig, 1.0)
                for s, f in zip(signs, fvals):
                    tail = tail * exp_imag(f if s == 0 else -f)
                rhs = rhs + comp * tail
            assert (lhs - rhs).magnitude() <= 1e-12 * max(1.0, lhs.magnitude())


def test_swap_rejects_non_imaginary_values():
    # the shift terms exponentiate their values and name the first offender
    sig = Signature(2, 0)
    e1 = Multivector.basis_vector(sig, 1)  # squares to +1
    with pytest.raises(NotImaginary) as err:
        shift_exponential_terms([e1.coeffs[None]], "lower", [e1])
    assert "value 1" in str(err.value)


def _triangular_reference(d, orientation):
    """(rows, column parity) per strictly triangular 0/1 matrix, looping
    over the free cells in row-major order with the first cell most
    significant."""
    if orientation == "lower":
        cells = [(r, c) for r in range(d) for c in range(r)]
    else:
        cells = [(r, c) for r in range(d) for c in range(r + 1, d)]
    out = []
    for combo in itertools.product((0, 1), repeat=len(cells)):
        rows = [[0] * d for _ in range(d)]
        for (r, c), v in zip(cells, combo):
            rows[r][c] = v
        parity = tuple(sum(row[c] for row in rows) % 2 for c in range(d))
        out.append((tuple(map(tuple, rows)), parity))
    return out


def test_triangular_counts_are_exact():
    for orientation in ("lower", "upper"):
        for d in range(5):
            mats = _triangular(d, orientation == "lower")
            assert len(mats) == 2 ** (d * (d - 1) // 2)
            assert mats == _triangular_reference(d, orientation)


def test_triangular_order_and_parities():
    # the shift check sums its terms in this order, so verify's residuals
    # depend on it: free cells (1,0), (2,0), (2,1) for 'lower' and (0,1),
    # (0,2), (1,2) for 'upper', counted in binary with the first most
    # significant
    zero = (0, 0, 0)
    assert _triangular(3, True) == [
        ((zero, zero, (0, 0, 0)), (0, 0, 0)),
        ((zero, zero, (0, 1, 0)), (0, 1, 0)),
        ((zero, zero, (1, 0, 0)), (1, 0, 0)),
        ((zero, zero, (1, 1, 0)), (1, 1, 0)),
        ((zero, (1, 0, 0), (0, 0, 0)), (1, 0, 0)),
        ((zero, (1, 0, 0), (0, 1, 0)), (1, 1, 0)),
        ((zero, (1, 0, 0), (1, 0, 0)), (0, 0, 0)),
        ((zero, (1, 0, 0), (1, 1, 0)), (0, 1, 0)),
    ]
    assert _triangular(3, False) == [
        (((0, 0, 0), (0, 0, 0), zero), (0, 0, 0)),
        (((0, 0, 0), (0, 0, 1), zero), (0, 0, 1)),
        (((0, 0, 1), (0, 0, 0), zero), (0, 0, 1)),
        (((0, 0, 1), (0, 0, 1), zero), (0, 0, 0)),
        (((0, 1, 0), (0, 0, 0), zero), (0, 1, 0)),
        (((0, 1, 0), (0, 0, 1), zero), (0, 1, 1)),
        (((0, 1, 1), (0, 0, 0), zero), (0, 1, 1)),
        (((0, 1, 1), (0, 0, 1), zero), (0, 1, 0)),
    ]
    # plain ints, so the sign vectors hash like the tuples negate caches on
    for rows, parity in _triangular(3, True) + _triangular(3, False):
        assert all(type(v) is int for row in rows + (parity,) for v in row)


def _interleaved_product(sig, constants, moving, factor_side):
    """prod over l of the constant/exponential pair, constants inside."""
    out = Multivector.scalar(sig, 1.0)
    for c, e in zip(constants, moving):
        out = out * (c * e if factor_side == "lower" else e * c)
    return out


def _rows(values):
    """One-row stacks of single kernel values."""
    return [f.coeffs[None] for f in values]


def _assert_terms_reassemble(sig, shift_stacks, grid_parts, orientation, dirs):
    """Row by row, the factor stacks rebuild the interleaved product."""
    terms = shift_exponential_terms(shift_stacks, orientation, dirs)
    for i in range(len(shift_stacks[0])):
        shift_parts = [Multivector(sig, f[i]) for f in shift_stacks]
        lhs = _interleaved_product(
            sig,
            [exp_imag(f) for f in shift_parts],
            [exp_imag(g) for g in grid_parts],
            orientation,
        )
        rhs = Multivector.zero(sig)
        for factor, signs in terms:
            prod = Multivector.scalar(sig, 1.0)
            for s, g in zip(signs, grid_parts):
                prod = prod * exp_imag(g if s == 0 else -g)
            f = Multivector(sig, factor[i])
            rhs = rhs + (f * prod if orientation == "lower" else prod * f)
        assert (lhs - rhs).magnitude() <= 1e-12 * max(1.0, lhs.magnitude())


@pytest.mark.parametrize("orientation", ["lower", "upper"])
def test_shift_terms_reassemble_interleaved_products(orientation):
    # anticommuting directions force genuinely different split components
    sig = Signature(0, 2)
    rng = np.random.default_rng(33)
    dirs = [Multivector.blade(sig, lab) for lab in ("e1", "e2", "e12")]
    for d in (1, 2, 3):
        shift_parts = [dirs[k] * rng.uniform(0.3, 1.5) for k in range(d)]
        grid_parts = [dirs[k] * rng.uniform(0.3, 1.5) for k in range(d)]
        _assert_terms_reassemble(sig, _rows(shift_parts), grid_parts,
                                 orientation, dirs[:d])


def _stack(rng, dirs, m):
    """(m, 2**n) kernel-value stacks along each direction; row 0 is the
    shift x0 = 0, where every value vanishes."""
    stacks = []
    for g in dirs:
        scales = rng.uniform(-1.5, 1.5, m)
        scales[0] = 0.0
        stacks.append(scales[:, None] * g.coeffs)
    return stacks


@pytest.mark.parametrize("orientation", ["lower", "upper"])
@pytest.mark.parametrize(
    "sig, labels",
    [
        (Signature(0, 2), ("e1", "e2", "e12")),  # anticommuting
        (Signature(4, 0), ("e12", "e34")),       # commuting
        (Signature(0, 2), ("e1", None, "e2")),   # one zero direction
    ],
)
def test_shift_term_stacks_reassemble_every_row(orientation, sig, labels):
    rng = np.random.default_rng(41)
    dirs = [Multivector.zero(sig) if lab is None else Multivector.blade(sig, lab)
            for lab in labels]
    stacks = _stack(rng, dirs, 6)
    grid_parts = [g * rng.uniform(0.3, 1.5) for g in dirs]
    _assert_terms_reassemble(sig, stacks, grid_parts, orientation, dirs)


@pytest.mark.parametrize("orientation", ["lower", "upper"])
def test_shift_term_stack_matches_one_row_calls(orientation):
    sig = Signature(0, 2)
    rng = np.random.default_rng(5)
    dirs = [Multivector.blade(sig, lab) for lab in ("e1", "e2", "e12")]
    stacks = _stack(rng, dirs, 5)
    stacked = {
        signs: factor
        for factor, signs in shift_exponential_terms(stacks, orientation, dirs)
    }
    seen = set()
    for i in range(5):
        single = shift_exponential_terms([f[i:i + 1] for f in stacks],
                                         orientation, dirs)
        for factor, signs in single:
            assert signs in stacked
            assert np.abs(stacked[signs][i] - factor[0]).max() <= 1e-14
            seen.add((i, signs))
        for signs, factor in stacked.items():
            if (i, signs) not in seen:
                assert not factor[i].any()  # dropped in the one-row call
    # row 0 (all values zero) keeps one term; the others keep several
    assert sum(factor[0].any() for factor in stacked.values()) == 1
    assert len(stacked) > 1


def test_shift_terms_counts_follow_commutativity():
    sig = Signature(0, 2)
    anti = [Multivector.blade(sig, "e1", 0.7), Multivector.blade(sig, "e2", 1.1)]
    assert len(shift_exponential_terms(_rows(anti), "lower", anti)) == 2
    assert len(shift_exponential_terms(_rows(anti), "upper", anti)) == 2
    # commuting directions: every off-diagonal split component vanishes
    sig4 = Signature(4, 0)
    comm = [Multivector.blade(sig4, "e12", 0.7), Multivector.blade(sig4, "e34", 1.1)]
    terms = shift_exponential_terms(_rows(comm), "lower", comm)
    assert len(terms) == 1 and terms[0][1] == (0, 0)


def test_shift_terms_argument_validation():
    sig = Signature(0, 2)
    f = Multivector.blade(sig, "e1", 0.5)
    row = f.coeffs[None]
    with pytest.raises(ValueError):
        shift_exponential_terms([], "lower", [])
    with pytest.raises(ValueError):
        shift_exponential_terms([row] * (MAX_GENERATORS + 1), "lower",
                                [f] * (MAX_GENERATORS + 1))
    with pytest.raises(ValueError):
        shift_exponential_terms([row], "diagonal", [f])
    with pytest.raises(ValueError):
        shift_exponential_terms([row], "lower", directions=[f, f])
    with pytest.raises(ValueError):
        shift_exponential_terms([f.coeffs], "lower", [f])  # not a stack
    with pytest.raises(ValueError):
        shift_exponential_terms([row, np.vstack([row, row])], "upper", [f, f])
    two = Multivector.scalar(sig, 2.0)
    with pytest.raises(NotImaginary):
        shift_exponential_terms([two.coeffs[None]], "lower", [two])
