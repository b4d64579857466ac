"""Identity checks: report structure, term counts, and failure modes."""

import numpy as np
import pytest

from gafourier.algebra import Multivector, Signature
from gafourier.kernels import NotSeparable, parse_preset
from gafourier.theorems import (
    OffGridShift,
    TheoremReport,
    UnsupportedScale,
    check_existence_bound,
    check_left_product,
    check_linearity,
    check_right_product,
    check_scaling,
    check_shift,
    scaled_field,
    shifted_field,
    skip_line,
)
from gafourier.transform import SampledField, default_freqs

from conftest import rand_mv


def _setup(name, dims=(6, 6), seed=3, border=0):
    spec = parse_preset(name)
    rng = np.random.default_rng(seed)
    field = SampledField.random(spec.sig, dims, rng, border=border)
    return spec, field, default_freqs(field), rng


def test_report_line_format():
    rep = TheoremReport("linearity", 1.0, 1.0, 1e-15, 1e-12, True)
    assert rep.line() == "THEOREM linearity residual=1.000000e-15 bound=1.000000e-12 PASS"
    bad = TheoremReport("shift", 1.0, 1.0, 0.5, 1e-10, False, detail="terms=1x2")
    assert bad.line() == "THEOREM shift residual=5.000000e-01 bound=1.000000e-10 FAIL"
    assert skip_line("shift", "not separable: left kernel 1") == (
        "THEOREM shift residual=- bound=- SKIP(not separable: left kernel 1)"
    )


def test_linearity_holds_and_reports():
    spec, field, freqs, rng = _setup("quaternionic")
    other = SampledField.random(spec.sig, field.dims, rng)
    rep = check_linearity(spec, field, other, 2.0, -3.0, freqs)
    assert rep.passed and rep.residual <= rep.threshold
    assert rep.name == "linearity"
    forced = check_linearity(spec, field, other, 2.0, -3.0, freqs, tol=1e-30)
    assert not forced.passed and forced.line().endswith("FAIL")
    shrunk = SampledField.random(spec.sig, (3, 3), rng)
    with pytest.raises(ValueError):
        check_linearity(spec, field, shrunk, 1.0, 1.0, freqs)
    moved = SampledField(spec.sig, field.dims, (0.0, 0.0), field.spacing, other.values)
    with pytest.raises(ValueError, match="fields must share one signature and grid"):
        check_linearity(spec, field, moved, 1.0, 1.0, freqs)


def test_scaled_field_geometry():
    sig = Signature(0, 2)
    vals = np.arange(16.0).reshape(4, 4)
    field = SampledField(sig, (4,), (-2.0,), (1.0,), vals)
    doubled = scaled_field(field, 2.0)
    assert doubled.origin == (-1.0,) and doubled.spacing == (0.5,)
    assert np.array_equal(doubled.values, vals)
    mirrored = scaled_field(field, -1.0)
    assert mirrored.origin == (-1.0,) and mirrored.spacing == (1.0,)
    assert np.array_equal(mirrored.values, vals[::-1])
    assert scaled_field(field, 1.0) is field


def test_scaling_identity_all_factors():
    spec, field, freqs, _ = _setup("buelow:2")
    for a in (-1.0, 2.0, -2.0, 0.5, -0.5):
        rep = check_scaling(spec, field, a, freqs)
        assert rep.passed, rep.line()
        assert rep.name == f"scaling[a={a:g}]"
    with pytest.raises(UnsupportedScale):
        check_scaling(spec, field, 3.0, freqs)
    with pytest.raises(UnsupportedScale):
        check_scaling(spec, field, 0.3, freqs)


def test_left_product_terms():
    spec, field, freqs, rng = _setup("quaternionic")
    c = rand_mv(spec.sig, rng)
    rep = check_left_product(spec, c, field, freqs)
    assert rep.passed and rep.detail == "terms=2"
    scalar_c = Multivector.scalar(spec.sig, 2.5)
    rep = check_left_product(spec, scalar_c, field, freqs)
    assert rep.passed and rep.detail == "terms=1"
    # no left kernels at all: the constant passes straight through
    spec2, field2, freqs2, rng2 = _setup("clifford:2")
    rep = check_left_product(spec2, rand_mv(spec2.sig, rng2), field2, freqs2)
    assert rep.passed and rep.detail == "terms=1"


def test_right_product_terms():
    spec, field, freqs, rng = _setup("buelow:2")
    c = rand_mv(spec.sig, rng)
    rep = check_right_product(spec, c, field, freqs)
    assert rep.passed and rep.detail == "terms=4"  # 2^n for n = 2
    spec2, field2, freqs2, rng2 = _setup("quaternionic")
    rep = check_right_product(spec2, rand_mv(spec2.sig, rng2), field2, freqs2)
    assert rep.passed and rep.detail == "terms=2"


def test_product_checks_demand_separability():
    spec, field, freqs, rng = _setup("cylindrical:3", dims=(4, 4, 4))
    c = rand_mv(spec.sig, rng)
    with pytest.raises(NotSeparable):
        check_left_product(spec, c, field, freqs)
    # the right side has no kernels, so it stays checkable
    rep = check_right_product(spec, c, field, freqs)
    assert rep.passed and rep.detail == "terms=1"


def test_shifted_field_moves_support():
    sig = Signature(2, 0)
    vals = np.zeros((4, 4))
    vals[1, 0] = 1.0
    vals[2, 0] = 2.0
    field = SampledField(sig, (4,), (0.0,), (0.5,), vals)
    moved = shifted_field(field, (0.5,))  # one cell
    assert np.allclose(moved.values[:, 0], [0.0, 0.0, 1.0, 2.0])
    with pytest.raises(OffGridShift):
        shifted_field(field, (0.3,))
    with pytest.raises(OffGridShift):
        shifted_field(field, (1.0,))  # support would fall off the edge


def test_shift_identity_and_term_structure():
    # two anticommuting right kernels: the full sign-matrix sum appears
    spec, field, freqs, _ = _setup("buelow:2", dims=(8, 8), border=3)
    rep = check_shift(spec, field, (3.0, -1.0), freqs)
    assert rep.passed, rep.line()
    assert rep.detail == "terms=1x2"
    # one kernel per side: the factors collapse to a two-sided product
    spec2, field2, freqs2, _ = _setup("quaternionic", dims=(8, 8), border=3)
    rep2 = check_shift(spec2, field2, (3.0, -1.0), freqs2)
    assert rep2.passed
    assert rep2.detail.startswith("terms=1x1 collapsed_residual=")
    assert float(rep2.detail.split("=")[-1]) <= 1e-10


def test_shift_with_three_anticommuting_kernels():
    # d = 3 right kernels: 8 upper sign matrices, at most 4 terms survive
    spec, field, freqs, _ = _setup("buelow:3", dims=(6, 6, 6), border=2)
    rep = check_shift(spec, field, (2.0, -1.0, 1.0), freqs)
    assert rep.passed, rep.line()
    assert rep.detail == "terms=1x4"


def test_shift_rejects_bad_inputs():
    spec, field, freqs, _ = _setup("quaternionic", dims=(8, 8), border=2)
    with pytest.raises(OffGridShift):
        check_shift(spec, field, (0.25, 0.0), freqs)
    odd, ofield, ofreqs, _ = _setup("cylindrical:3", dims=(4, 4, 4), border=1)
    with pytest.raises(NotSeparable):
        check_shift(odd, ofield, (1.0, 0.0, 0.0), ofreqs)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_shift_rejects_non_finite_shift(bad):
    spec, field, freqs, _ = _setup("quaternionic", dims=(8, 8), border=2)
    with pytest.raises(OffGridShift, match="shift component 1"):
        shifted_field(field, (bad, 0.0))
    with pytest.raises(OffGridShift):
        check_shift(spec, field, (bad, 0.0), freqs)


@pytest.mark.parametrize("x0", [(1.0,), (1.0, 0.0, 0.0)])
def test_shift_rejects_a_shift_vector_of_the_wrong_length(x0):
    spec, field, freqs, _ = _setup("quaternionic", dims=(8, 8), border=2)
    match = f"shift vector has length {len(x0)}, field has m=2"
    with pytest.raises(OffGridShift, match=match):
        shifted_field(field, x0)
    with pytest.raises(OffGridShift, match=match):
        check_shift(spec, field, x0, freqs)


def test_linearity_refuses_an_overflowing_combination():
    # bB + cC overflows: the field is refused, with no numpy warning
    spec, field, freqs, _ = _setup("quaternionic")
    with pytest.raises(ValueError, match="field values must be finite"):
        check_linearity(spec, field, field, 1e308, 1e308, freqs)


def test_existence_bound_point_mass():
    sig = Signature(0, 2)
    spec = parse_preset("quaternionic")
    vals = np.zeros((16, 4))
    vals[5, 0] = 2.0
    field = SampledField(sig, (4, 4), (-1.0, -1.0), (0.5, 0.5), vals)
    freqs = default_freqs(field)
    rep = check_existence_bound(spec, field, freqs)
    assert rep.passed and rep.detail == "nu=2"
    # sup |F(B)| attains |B| vol = 0.5 here; bound is 2^2 sum|B| vol = 2.0
    assert abs(rep.residual - 0.5) <= 1e-12
    assert abs(rep.threshold - 2.0) <= 1e-10


def test_existence_bound_random_fields():
    for name in ("clifford:2", "buelow:2", "spacetime"):
        dims = (4, 4, 4, 4) if name == "spacetime" else (6, 6)
        spec, field, freqs, _ = _setup(name, dims=dims)
        rep = check_existence_bound(spec, field, freqs)
        assert rep.passed, rep.line()
        assert rep.name == "existence"
