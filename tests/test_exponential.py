"""Closed-form exponential against the power series and frozen values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from gafourier.algebra import Multivector, Signature
from gafourier.commsplit import shift_exponential_terms
from gafourier.exponential import (
    NotImaginary,
    cos_sin,
    cos_sinc,
    exp_imag,
    exp_neg_many,
)
from gafourier.kernels import GftSpec, KernelMatrix
from gafourier.transform import SampledField, gft_at, gft_direct, plan

from conftest import SIGNATURES_SMALL, exp_series, rand_root, sig_and_root


def test_closed_form_matches_series():
    rng = np.random.default_rng(2)
    for sig in SIGNATURES_SMALL:
        for _ in range(60):
            f = rand_root(sig, rng, max_mag=4.0)
            got = exp_imag(f)
            want = exp_series(-f)
            assert (got - want).magnitude() <= 1e-12


def test_known_rotor_values():
    sig = Signature(2, 0)
    b = Multivector.blade(sig, "e12")
    half = exp_imag(b * (math.pi / 3))
    assert abs(half.coeffs[0] - 0.5) <= 1e-15
    assert abs(half.coeffs[3] + math.sqrt(3) / 2) <= 1e-15
    quarter = exp_imag(b * (math.pi / 2))
    assert (quarter + b).magnitude() <= 1e-15
    assert (exp_imag(b * math.pi) + 1.0).magnitude() <= 1e-15
    assert (exp_imag(Multivector.zero(sig)) - 1.0).magnitude() == 0.0


def test_small_angle_branch_is_linear():
    sig = Signature(0, 2)
    f = Multivector.blade(sig, "e1", 1e-20)
    got = exp_imag(f)
    assert got.coeffs[0] == 1.0
    assert got.coeffs[1] == -1e-20


def test_cos_sin_matches_numpy():
    # the half-angle tangent form against np.cos and np.sin, absolute
    # error within 2 eps, over large angles and at multiples of pi/2
    rng = np.random.default_rng(12)
    theta = np.concatenate((rng.uniform(-1e6, 1e6, 20000),
                            np.arange(-2000, 2001) * (np.pi / 2)))
    cos = np.empty_like(theta)
    sin = cos_sin(theta, cos)
    eps = np.finfo(float).eps
    assert np.abs(cos - np.cos(theta)).max() <= 2 * eps
    assert np.abs(sin - np.sin(theta)).max() <= 2 * eps
    # into a strided view, as the axes engine writes its tables
    table = np.empty(theta.shape, dtype=complex)
    table.imag = cos_sin(theta, cos=table.real)
    assert np.array_equal(table.real, cos) and np.array_equal(table.imag, sin)
    # 0-d input, and NaN
    cos = np.empty(())
    sin = cos_sin(np.array(math.pi / 3), cos)
    assert sin.shape == () and abs(sin - math.sqrt(3) / 2) <= eps
    assert abs(cos - 0.5) <= eps
    cos = np.empty(2)
    sin = cos_sin(np.array([np.nan, 1.0]), cos)
    assert np.isnan(sin[0]) and np.isnan(cos[0]) and np.isfinite(sin[1] + cos[1])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_trig_into_caller_arrays_is_bit_identical():
    # cos_sin's sin into `out` (a strided view here, as the axes engine's
    # tables take it), and cos_sinc's cos and sin(r)/r into caller arrays:
    # bit for bit the values of the calls that allocate their outputs
    rng = np.random.default_rng(13)
    for size in (4000, 62500):
        theta = rng.uniform(-60.0, 60.0, size)
        cos = np.empty(size)
        sin = cos_sin(theta, cos)
        table = np.empty(size, dtype=complex)
        assert np.shares_memory(cos_sin(theta, table.real, out=table.imag), table)
        assert np.array_equal(_bits(table.real), _bits(cos))
        assert np.array_equal(_bits(table.imag), _bits(sin))
        # squares of angles up to 60, a few tiny or nonnegative ones
        square = -theta * theta
        square[:7] = (0.0, -0.0, 1.0, -1e-300, -1e-28, -1e-12, 3.5)
        want = cos_sinc(square)
        w = np.empty((2, size))
        got = cos_sinc(square, w[0], w[1])
        assert np.shares_memory(got[0], w[0]) and np.shares_memory(got[1], w[1])
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a), _bits(b))
        assert np.array_equal(_bits(cos_sinc(square, w[0])[1]), _bits(want[1]))


@pytest.mark.parametrize("shape", [(), (3,)])
def test_cos_sinc_small_angle_rule_is_exact(shape):
    # a square at or above zero, or of a root below _SMALL_ANGLE, gives
    # exactly cos = 1 and sin(r)/r = 1
    for square in (0.0, -0.0, 1.0, -1e-300, -1e-28):
        cos, sinc = cos_sinc(np.full(shape, square))
        assert cos.shape == sinc.shape == shape
        assert (cos == 1.0).all() and (sinc == 1.0).all(), square
    cos, sinc = cos_sinc(np.full(shape, -(math.pi / 2) ** 2))
    assert np.allclose(cos, 0.0, atol=5e-16) and np.allclose(sinc, 2 / math.pi)


def test_period_two_pi():
    sig = Signature(3, 0)
    rng = np.random.default_rng(9)
    f = rand_root(sig, rng, max_mag=1.0)
    r = math.sqrt(-(f * f).coeffs[0])
    shifted = f * ((r + 2 * math.pi) / r)
    assert (exp_imag(f) - exp_imag(shifted)).magnitude() <= 1e-12


def test_exponential_inverse_is_sign_flip():
    rng = np.random.default_rng(4)
    for sig in SIGNATURES_SMALL:
        f = rand_root(sig, rng, max_mag=3.0)
        prod = exp_imag(f) * exp_imag(-f)
        assert (prod - 1.0).magnitude() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(sig_and_root())
def test_magnitude_bound_two(data):
    sig, f = data
    assert exp_imag(f).magnitude() <= 2.0 + 1e-12


def test_rejects_non_imaginary():
    sig = Signature(2, 0)
    with pytest.raises(NotImaginary):
        exp_imag(Multivector.basis_vector(sig, 1))  # squares to +1
    with pytest.raises(NotImaginary):
        exp_imag(Multivector.scalar(sig, 1.0) + Multivector.blade(sig, "e12"))


def test_batched_exponentials_match_scalar_path():
    rng = np.random.default_rng(6)
    sig = Signature(0, 2)
    rows = np.stack(
        [rand_root(sig, rng, max_mag=3.0).coeffs for _ in range(20)]
        + [np.zeros(sig.dim)]
    )
    out = exp_neg_many(sig, rows)
    for i in range(rows.shape[0]):
        want = exp_imag(Multivector(sig, rows[i]))
        assert np.allclose(out[i], want.coeffs, atol=1e-14)


def test_batched_validation_names_offender():
    sig = Signature(2, 0)
    rows = np.zeros((3, sig.dim))
    rows[0, 3] = 1.0   # e12, fine
    rows[2, 1] = 1.0   # e1 squares to +1
    with pytest.raises(NotImaginary) as err:
        exp_neg_many(sig, rows, label="left kernel 2")
    msg = str(err.value)
    assert "left kernel 2" in msg and "sample 2" in msg
    # same rows sail through unvalidated (callers that already checked)
    out = exp_neg_many(sig, rows, validate=False)
    assert out.shape == rows.shape


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_batched_validation_rejects_non_finite_rows(bad):
    sig = Signature(0, 2)
    rows = np.zeros((3, sig.dim))
    rows[0, 1] = 1.0
    rows[1, 2] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(NotImaginary, match="right kernel 1: sample 1 "):
        exp_neg_many(sig, rows, label="right kernel 1")


# name: (signature, kernel entry as {blade: coefficient}, frequency, rejected)
VERDICT_CASES = {
    "zero": (Signature(2, 0), {}, 1.0, False),
    # square +1e-14: within the tolerance of zero
    "tiny positive square": (Signature(1, 0), {"e1": 1e-7}, 1.0, False),
    # e12 and e34 commute: the square has a 2e-11 e1234 part
    "commuting residue": (Signature(4, 0), {"e12": 1.0, "e34": 1e-11}, 1.0, True),
    # 10 * 1e308 overflows: the value is inf e12, and its square holds
    # NaN (0 * inf) next to -inf
    "infinite": (Signature(2, 0), {"e12": 10.0}, 1e308, True),
}


def _raises_not_imaginary(call, *args) -> bool:
    try:
        call(*args)
    except NotImaginary:
        return True
    return False


@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_every_caller_gives_the_same_verdict(case):
    sig, blades, u, rejected = VERDICT_CASES[case]
    entry = sum((Multivector.blade(sig, b, c) for b, c in blades.items()),
                Multivector.zero(sig))
    kern = KernelMatrix.sparse(sig, 1, [(0, 0, entry)])
    spec = GftSpec(sig, 1, (kern,), ())
    # one node at x = 1 and one frequency u: the kernel takes one value f
    field = SampledField(sig, (1,), (1.0,), (1.0,), np.ones((1, sig.dim)))
    unodes = np.array([[u]])
    with np.errstate(over="ignore"):
        f = Multivector(sig, kern.values(np.array([[1.0]]), (u,))[0])
    assert plan(spec, field, unodes).engine == "expansion"
    with np.errstate(over="ignore", invalid="ignore"):
        verdicts = {
            "exp_imag": _raises_not_imaginary(exp_imag, f),
            "exp_neg_many": _raises_not_imaginary(exp_neg_many, sig, f.coeffs[None]),
            "gft_at (expansion)": _raises_not_imaginary(gft_at, spec, field, unodes),
            "gft_direct": _raises_not_imaginary(gft_direct, spec, field, unodes),
            "shift_exponential_terms": _raises_not_imaginary(
                shift_exponential_terms, [f.coeffs[None]], "lower", [f]),
        }
    assert verdicts == dict.fromkeys(verdicts, rejected)
