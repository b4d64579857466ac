"""Grids, sampled fields, and the transform against a complex oracle."""

import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gafourier.algebra import Multivector, Signature
from gafourier.exponential import NotImaginary
from gafourier import kernels, theorems, transform
from gafourier.kernels import (
    GftSpec,
    KernelMatrix,
    NotSeparable,
    is_separable,
    negate,
    parse_preset,
)
from gafourier.theorems import SCALE_FACTORS, check_right_product
from gafourier.transform import (
    FreqGrid,
    SampledField,
    Spectrum,
    default_freqs,
    dft_complex_oracle,
    gft,
    gft_at,
    gft_direct,
    grid_nodes,
    plan,
)

from conftest import SIGNATURES_SMALL, root_family


def test_grid_nodes_row_major_order():
    nodes = grid_nodes((2, 3), (0.0, 10.0), (1.0, 0.5))
    want = [
        [0.0, 10.0], [0.0, 10.5], [0.0, 11.0],
        [1.0, 10.0], [1.0, 10.5], [1.0, 11.0],
    ]
    assert np.allclose(nodes, want)


def test_default_freqs_geometry():
    sig = Signature(2, 0)
    field = SampledField(sig, (8,), (-4.0,), (0.5,), np.zeros((8, 4)))
    freqs = default_freqs(field)
    assert freqs.dims == (8,)
    assert np.allclose(freqs.spacing, [0.25])   # 1 / (8 * 0.5)
    assert np.allclose(freqs.origin, [-1.0])    # -(8 // 2) * 0.25
    doubled = default_freqs(field, 2.0)
    assert np.allclose(doubled.spacing, [0.5])
    # zero frequency is always on the grid
    assert any(np.allclose(u, [0.0]) for u in freqs.nodes())


def test_sampled_field_accessors():
    sig = Signature(0, 2)
    rng = np.random.default_rng(1)
    vals = rng.uniform(-1, 1, (6, 4))
    field = SampledField(sig, (2, 3), (0.0, 0.0), (1.0, 1.0), vals)
    assert field.m == 2 and field.node_count == 6
    assert field.cell_volume == 1.0
    assert np.array_equal(field.values, vals) and not field.values.flags.writeable
    replaced = field.with_values(np.zeros((6, 4)))
    assert not replaced.values.any() and replaced.dims == field.dims
    with pytest.raises(ValueError):
        SampledField(sig, (2, 3), (0.0, 0.0), (1.0, 1.0), vals[:5])
    with pytest.raises(ValueError):
        SampledField(sig, (2, 3), (0.0,), (1.0, 1.0), vals)
    with pytest.raises(ValueError):
        SampledField(sig, (2, 0), (0.0, 0.0), (1.0, 1.0), np.zeros((0, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_rejected(bad):
    sig = Signature(0, 2)
    vals = np.zeros((4, 4))
    vals[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledField(sig, (4,), (0.0,), (1.0,), vals)
    with pytest.raises(ValueError, match="finite"):
        SampledField(sig, (4,), (bad,), (1.0,), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="finite"):
        SampledField(sig, (4,), (0.0,), (bad,), np.zeros((4, 4)))
    with pytest.raises(ValueError, match="finite"):
        FreqGrid((2, 2), (0.0, bad), (1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        FreqGrid((2, 2), (0.0, 0.0), (bad, 1.0))


def test_field_values_are_insulated_from_callers():
    sig = Signature(2, 0)
    vals = np.zeros((4, 4))
    field = SampledField(sig, (4,), (0.0,), (1.0,), vals)
    vals[0, 0] = 99.0
    assert field.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        field.values[0, 0] = 1.0


def test_transform_matches_complex_oracle():
    # a field valued in span{1, e12} of Cl(2,0) is a complex signal and the
    # configured transform must reduce to the classical DFT
    sig = Signature(2, 0)
    spec = parse_preset("clifford:2")
    rng = np.random.default_rng(14)
    field = SampledField.random(sig, (8, 8), rng)
    vals = field.values.copy()
    vals[:, 1] = vals[:, 2] = 0.0
    field = field.with_values(vals)
    freqs = default_freqs(field)
    got = gft(spec, field, freqs).values
    complex_grid = (vals[:, 0] + 1j * vals[:, 3]).reshape(8, 8)
    want = dft_complex_oracle(complex_grid, freqs, field.origin, field.spacing)
    dev = np.abs(got[:, 0] + 1j * got[:, 3] - want.reshape(-1)).max()
    assert dev <= 1e-12
    assert np.abs(got[:, 1]).max() <= 1e-12 and np.abs(got[:, 2]).max() <= 1e-12


def test_transform_of_point_mass_has_flat_magnitude():
    # single nonzero scalar sample: every output node carries volume times
    # a rotor, so the row magnitudes are all equal
    sig = Signature(0, 2)
    spec = parse_preset("buelow:2")
    vals = np.zeros((16, 4))
    vals[5, 0] = 2.0
    field = SampledField(sig, (4, 4), (-2.0, -2.0), (0.5, 0.5), vals)
    spectrum = gft(spec, field, default_freqs(field))
    mags = np.sqrt((spectrum.values ** 2).sum(axis=1))
    assert np.allclose(mags, 2.0 * field.cell_volume, atol=1e-12)


def test_zero_kernels_sum_the_field():
    sig = Signature(0, 2)
    spec = GftSpec(sig, 2, (KernelMatrix.sparse(sig, 2, []),), ())
    rng = np.random.default_rng(3)
    field = SampledField.random(sig, (4, 4), rng)
    spectrum = gft(spec, field, default_freqs(field))
    # nothing to contract one axis at a time: the expansion engine runs
    p = plan(spec, field, default_freqs(field))
    assert (p.engine, p.reason) == ("expansion", "left kernel 1: zero; 1 term")
    want = field.values.sum(axis=0) * field.cell_volume
    assert np.allclose(spectrum.values, want[None, :], atol=1e-12)


def test_transform_is_deterministic():
    spec = parse_preset("quaternionic")
    rng = np.random.default_rng(8)
    field = SampledField.random(Signature(0, 2), (6, 6), rng)
    freqs = default_freqs(field)
    a = gft(spec, field, freqs).values
    b = gft(spec, field, freqs).values
    assert np.array_equal(a, b)


def test_gft_at_validation_toggle():
    spec = parse_preset("quaternionic")
    rng = np.random.default_rng(5)
    field = SampledField.random(Signature(0, 2), (4, 4), rng)
    unodes = default_freqs(field).nodes()
    a = gft_at(spec, field, unodes, validate=True)
    b = gft_at(spec, field, unodes, validate=False)
    assert np.array_equal(a, b)


def test_gft_rejects_mismatched_inputs():
    spec = parse_preset("quaternionic")
    rng = np.random.default_rng(5)
    wrong_sig = SampledField.random(Signature(2, 0), (4, 4), rng)
    with pytest.raises(ValueError):
        gft(spec, wrong_sig, default_freqs(wrong_sig))
    field = SampledField.random(Signature(0, 2), (4,), rng)  # m=1 field, m=2 spec
    with pytest.raises(ValueError):
        gft(spec, field, default_freqs(field))
    bad_kernel = KernelMatrix.sparse(Signature(0, 2), 2,
                                     [(0, 0, Multivector.scalar(Signature(0, 2), 1.0))])
    bad_spec = GftSpec(Signature(0, 2), 2, (bad_kernel,), ())
    good = SampledField.random(Signature(0, 2), (4, 4), rng)
    with pytest.raises(NotImaginary, match="left kernel 1"):
        gft(bad_spec, good, default_freqs(good))


def test_plan_refuses_what_gft_refuses():
    spec = parse_preset("quaternionic")
    rng = np.random.default_rng(6)
    wider = SampledField.random(Signature(0, 3), (4, 4), rng)
    flat = SampledField.random(Signature(0, 2), (4, 4), rng)
    cases = ((wider, default_freqs(wider), "spec is over Cl(0,2), field over Cl(0,3)"),
             (flat, FreqGrid((2, 2, 2), (0.0,) * 3, (1.0,) * 3),
              "frequency grid has m=3, field has m=2"))
    for field, freqs, message in cases:
        for call in (plan, gft):
            with pytest.raises(ValueError, match=re.escape(message)):
                call(spec, field, freqs)


def test_spectrum_accessors():
    spec = parse_preset("quaternionic")
    rng = np.random.default_rng(2)
    field = SampledField.random(Signature(0, 2), (4, 4), rng)
    freqs = default_freqs(field)
    spectrum = gft(spec, field, freqs)
    assert spectrum.dims == (4, 4) and not spectrum.values.flags.writeable
    with pytest.raises(ValueError):
        Spectrum(spec.sig, freqs, spectrum.values[:5])


def test_freq_grid_validation():
    with pytest.raises(ValueError):
        FreqGrid((4, 0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        FreqGrid((4,), (0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        FreqGrid((4,), (0.0,), (0.0,))
    grid = FreqGrid((2, 2), (0.0, 0.0), (0.5, 0.5))
    assert grid.m == 2 and grid.node_count == 4


def _assert_engines_agree(spec, field, unodes):
    fast = gft_at(spec, field, unodes)
    ref = gft_direct(spec, field, unodes)
    err = np.linalg.norm(fast - ref, axis=1)
    allowed = 1e-12 * np.maximum(1.0, np.linalg.norm(ref, axis=1))
    assert (err <= allowed).all(), float((err / allowed).max())


SEPARABLE_PRESETS = {
    "clifford:2": (8, 8),
    "clifford:3": (4, 4, 4),
    "quaternionic": (8, 8),
    "buelow:2": (8, 8),
    "buelow:3": (4, 4, 4),
    "spacetime": (3, 3, 3, 3),
    "color_image": (8, 8),
    "cylindrical:2": (8, 8),
}


@pytest.mark.parametrize("selector", sorted(SEPARABLE_PRESETS))
def test_separable_engine_matches_direct_on_presets(selector):
    spec = parse_preset(selector)
    rng = np.random.default_rng(21)
    field = SampledField.random(spec.sig, SEPARABLE_PRESETS[selector], rng)
    dual = default_freqs(field).nodes()
    off_lattice = rng.uniform(-1.7, 1.7, (40, spec.m))
    p = plan(spec, field, dual)
    # separable kernels keep one direction each, checked once
    assert p.engine == "expansion" and "per-sample" not in p.reason, p.reason
    _assert_engines_agree(spec, field, dual)
    _assert_engines_agree(spec, field, off_lattice)


CYLINDRICAL_GRIDS = {
    2: (8, 8),
    3: (4, 4, 4),
    4: (3, 3, 3, 3),
    5: (2,) * 5,
    6: (2,) * 6,
    7: (2, 2, 2, 2, 1, 1, 1),
}


@pytest.mark.parametrize("n", sorted(CYLINDRICAL_GRIDS))
def test_expansion_engine_matches_direct_on_cylindrical(n):
    spec = parse_preset(f"cylindrical:{n}")
    rng = np.random.default_rng(22)
    field = SampledField.random(spec.sig, CYLINDRICAL_GRIDS[n], rng)
    dual = default_freqs(field).nodes()
    off_lattice = rng.uniform(-1.7, 1.7, (12, spec.m))
    assert plan(spec, field, dual).engine == "expansion"
    _assert_engines_agree(spec, field, dual)
    _assert_engines_agree(spec, field, off_lattice)


@st.composite
def separable_specs(draw):
    """A spec in Cl(p,q), n <= 4, whose kernels are real m x m matrices
    times directions squaring to a negative real."""
    sig = draw(st.sampled_from(SIGNATURES_SMALL))
    m = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0, allow_nan=False)

    def kernel():
        labels = root_family(sig)
        c = np.array(draw(st.lists(unit, min_size=len(labels), max_size=len(labels))))
        if np.linalg.norm(c) < 1e-3:
            c[0] = 1.0
        d = sum((Multivector.blade(sig, label, w) for label, w in zip(labels, c)),
                Multivector.zero(sig))
        entry = st.floats(-7.0, 7.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
        s = np.array(draw(st.lists(entry, min_size=m * m, max_size=m * m))).reshape(m, m)
        return KernelMatrix(sig, np.multiply.outer(s, d.coeffs))

    left = tuple(kernel() for _ in range(draw(st.integers(1, 2))))
    right = tuple(kernel() for _ in range(draw(st.integers(1, 2))))
    return GftSpec(sig, m, left, right)


@settings(max_examples=40, deadline=None)
@given(separable_specs(), st.integers(0, 2**32 - 1))
def test_separable_engine_matches_direct_on_random_specs(spec, seed):
    rng = np.random.default_rng(seed)
    dims = {1: (7,), 2: (4, 3), 3: (3, 2, 2)}[spec.m]
    field = SampledField.random(spec.sig, dims, rng)
    unodes = rng.uniform(-1.3, 1.3, (6, spec.m))
    p = plan(spec, field, unodes)
    if any(k.tensor.any() for k in spec.left + spec.right):
        assert p.engine == "expansion" and "per-sample" not in p.reason, p.reason
    assert is_separable(spec, "left") and is_separable(spec, "right")
    _assert_engines_agree(spec, field, unodes)


@st.composite
def wedge_specs(draw):
    """A kernel T[j, l] = -s (R e_j)(R e_l), j != l, in Cl(0,n), n <= 5:
    the cylindrical kernel in a random orthonormal frame R, scale s."""
    n = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    rot = q * np.sign(np.diag(r))
    scale = draw(st.floats(0.1, 7.0))
    sig = Signature(0, n)
    axes = [sum((Multivector.basis_vector(sig, k + 1) * float(rot[k, j])
                 for k in range(n)), Multivector.zero(sig)) for j in range(n)]
    kernel = KernelMatrix.sparse(sig, n, [(j, l, axes[j] * axes[l] * -scale)
                                         for j in range(n) for l in range(n) if j != l])
    if draw(st.booleans()):
        return GftSpec(sig, n, (kernel,), ())
    return GftSpec(sig, n, (), (kernel,))


@settings(max_examples=25, deadline=None)
@given(wedge_specs(), st.integers(0, 2**32 - 1))
def test_expansion_engine_matches_direct_on_rotated_wedge_kernels(spec, seed):
    rng = np.random.default_rng(seed)
    dims = {2: (4, 3), 3: (3, 2, 2), 4: (2, 2, 2, 2), 5: (2,) * 5}[spec.m]
    field = SampledField.random(spec.sig, dims, rng)
    unodes = rng.uniform(-1.3, 1.3, (6, spec.m))
    assert plan(spec, field, unodes).engine == "expansion"
    _assert_engines_agree(spec, field, unodes)


def _two_blade_spec():
    """e12 and e34 on different entries of one Cl(0,4) kernel: e12 and e34
    commute, so f^2 has an e1234 part wherever both coordinates are nonzero."""
    sig = Signature(0, 4)
    kern = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e12", 2.0)),
                                        (1, 1, Multivector.blade(sig, "e34", 1.5))])
    field = SampledField.random(sig, (4, 4), np.random.default_rng(6))
    field = SampledField(sig, (4, 4), (0.0, 0.0), (1.0, 1.0), field.values)
    return sig, kern, field


def _not_imaginary_message(engine, *args):
    with pytest.raises(NotImaginary) as err:
        engine(*args)
    return str(err.value)


@pytest.mark.parametrize("off", [0.0, np.spacing(2 * math.pi), 2e-12 * math.pi,
                                 2e-9 * math.pi], ids=["exact", "1ulp", "1e-12", "1e-9"])
def test_one_separability_rule_for_theorems_and_engines(off):
    # a rank-1 kernel with its second entry tilted by `off` towards e2
    sig = Signature(0, 2)
    e1 = Multivector.blade(sig, "e1", 2 * math.pi)
    tilted = e1 + Multivector.blade(sig, "e2", off)
    kern = KernelMatrix.sparse(sig, 2, [(0, 0, e1), (1, 1, tilted)])
    spec = GftSpec(sig, 2, (), (kern,))
    field = SampledField.random(sig, (4, 4), np.random.default_rng(8))
    freqs = default_freqs(field)
    reason = plan(spec, field, freqs.nodes()).reason
    separable = is_separable(spec, "right")
    assert separable == ("right kernel 1: 1 direction, checked once" in reason), reason
    assert separable == (off <= np.spacing(2 * math.pi))
    if not separable:
        c = Multivector(sig, [0.5, -0.25, 1.0, 0.75])
        with pytest.raises(NotSeparable, match="right kernel 1"):
            check_right_product(spec, c, field, freqs)


def test_invalid_two_blade_kernel_raises_like_direct():
    sig, kern, field = _two_blade_spec()
    # no offender at the first frequency (u_1 = 0); at the second, node
    # 5 = (1, 1) is the first with both coordinates nonzero
    unodes = np.array([[0.0, 0.7], [0.3, -0.2], [0.5, 0.5]])
    spec = GftSpec(sig, 2, (), (kern,))
    assert plan(spec, field, unodes).reason == \
        "right kernel 1: 2 blades, per-sample check; 3 terms"
    msg = _not_imaginary_message(gft_at, spec, field, unodes)
    assert msg == "right kernel 1: sample 5 does not square to a negative real"
    assert msg == _not_imaginary_message(gft_direct, spec, field, unodes)
    # left kernel e12 x_1 u_1 + e34 x_2 (u_1 - u_2) is valid where u_1 = u_2,
    # so at u = (0.5, 0.5) only the right kernel offends: the first
    # offending frequency decides before the kernel order
    e12, e34 = Multivector.blade(sig, "e12"), Multivector.blade(sig, "e34")
    left = KernelMatrix.sparse(sig, 2, [(0, 0, e12), (1, 0, e34), (1, 1, -e34)])
    spec = GftSpec(sig, 2, (left,), (kern,))
    unodes = np.array([[0.0, 0.0], [0.5, 0.5], [0.4, 0.0]])
    msg = _not_imaginary_message(gft_at, spec, field, unodes)
    assert msg == "right kernel 1: sample 5 does not square to a negative real"
    assert msg == _not_imaginary_message(gft_direct, spec, field, unodes)


def test_engines_name_the_offending_kernel():
    rng = np.random.default_rng(9)
    unodes = rng.uniform(-2, 2, (25, 2))
    quat = parse_preset("quaternionic")
    field = SampledField.random(quat.sig, (3, 3), rng)
    assert np.isfinite(gft_at(quat, field, unodes)).all()
    assert np.isfinite(gft_direct(quat, field, unodes)).all()
    # e1 squares to +1 in Cl(2,0)
    sig = Signature(2, 0)
    bad = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.basis_vector(sig, 1))])
    spec = GftSpec(sig, 2, (bad,), ())
    field = SampledField.random(sig, (3, 3), rng)
    msg = _not_imaginary_message(gft_at, spec, field, unodes)
    assert msg.startswith("left kernel 1: ")
    assert msg == _not_imaginary_message(gft_direct, spec, field, unodes)


def test_invalid_two_blade_kernel_unvalidated_matches_direct():
    sig, kern, field = _two_blade_spec()
    spec = GftSpec(sig, 2, (kern,), ())
    unodes = np.random.default_rng(7).uniform(-1.3, 1.3, (9, 2))
    fast = gft_at(spec, field, unodes, validate=False)
    ref = gft_direct(spec, field, unodes, validate=False)
    err = np.linalg.norm(fast - ref, axis=1)
    assert (err <= 1e-12 * np.maximum(1.0, np.linalg.norm(ref, axis=1))).all()


# the benchmark's non-separable cases: field extents and a frequency grid
# off the DFT lattice
NONSEPARABLE_GRIDS = {
    "cylindrical:3": ((10, 10, 10), FreqGrid((5,) * 3, (-0.613,) * 3, (0.197,) * 3)),
    "cylindrical:4": ((4, 4, 4, 4), FreqGrid((4, 4, 3, 3), (-0.37,) * 4, (0.21,) * 4)),
    "cylindrical:7": ((2,) * 7, FreqGrid((2, 2, 1, 1, 1, 1, 1), (-0.29,) * 7, (0.31,) * 7)),
}


@pytest.mark.parametrize("selector", sorted(NONSEPARABLE_GRIDS))
def test_blades_checked_once_change_no_value(selector):
    spec = parse_preset(selector)
    dims, freqs = NONSEPARABLE_GRIDS[selector]
    rng = np.random.default_rng(61)
    field = SampledField.random(spec.sig, dims, rng)
    p = plan(spec, field, freqs)
    assert p.engine == "expansion"
    assert p.reason.startswith(f"left kernel 1: {spec.m * (spec.m - 1) // 2} blades, "
                               "checked once; ")
    got = gft(spec, field, freqs).values
    assert np.array_equal(got, gft(spec, field, freqs, validate=False).values)
    _assert_agrees(got, gft_direct(spec, field, freqs.nodes()))
    unodes = rng.uniform(-1.3, 1.3, (5, spec.m))
    assert np.array_equal(gft_at(spec, field, unodes),
                          gft_at(spec, field, unodes, validate=False))


def test_blades_off_the_plucker_relations_keep_the_per_sample_check():
    # cylindrical:4 with its (1, 2) entry doubled: f^2 gains an e1234
    # part 2 x_1 u_2 x_3 u_4 - ... that no longer cancels
    cyl = parse_preset("cylindrical:4")
    t = cyl.left[0].tensor.copy()
    t[0, 1] *= 2.0
    spec = GftSpec(cyl.sig, 4, (KernelMatrix(cyl.sig, t),), ())
    rng = np.random.default_rng(62)
    field = SampledField.random(spec.sig, (3, 3, 3, 3), rng)
    unodes = rng.uniform(-1.3, 1.3, (4, 4))
    assert plan(spec, field, unodes).reason == \
        "left kernel 1: 6 blades, per-sample check; 7 terms"
    msg = _not_imaginary_message(gft_at, spec, field, unodes)
    assert msg.startswith("left kernel 1: sample ")
    assert msg == _not_imaginary_message(gft_direct, spec, field, unodes)


def test_overflowing_blade_square_is_refused_like_direct():
    # u near 1e155: each coordinate s_i stays finite, s_i^2 overflows
    spec = parse_preset("cylindrical:3")
    field = SampledField.random(spec.sig, (3, 3, 3), np.random.default_rng(63))
    freqs = FreqGrid((2, 2, 2), (1e155,) * 3, (1.0,) * 3)
    with np.errstate(over="ignore", invalid="ignore"):
        msg = _not_imaginary_message(gft, spec, field, freqs)
        assert msg == _not_imaginary_message(gft_direct, spec, field, freqs.nodes())
    assert msg == "left kernel 1: sample 1 does not square to a negative real"


def test_overflowing_direction_square_is_refused_like_direct():
    # phases near 1e155 are finite, s^2 |j|^2 is not: the axes engine
    # refuses the grid and the expansion engine raises the direct one's error
    spec = parse_preset("clifford:2")
    field = SampledField.random(spec.sig, (3, 3), np.random.default_rng(65))
    freqs = FreqGrid((2, 2), (1e155, 1e155), (1.0, 1.0))
    p = plan(spec, field, freqs)
    assert (p.engine, p.reason.split("; ")[-1]) == (
        "expansion", "no axes engine: squared phase bound times max_k |j_k|^2 is not finite")
    # neither warns of the overflow (pytest would fail on a RuntimeWarning)
    msg = _not_imaginary_message(gft, spec, field, freqs)
    assert msg == _not_imaginary_message(gft_direct, spec, field, freqs.nodes())
    assert msg == "right kernel 1: sample 0 does not square to a negative real"


def _mirror_kind(field):
    """"none", or "full" when the nodes pair as on the same extents
    centred at unit spacing (exact coordinates), else "partial"."""
    pairs = transform._mirror_pairs(field)
    if pairs is None:
        return "none"
    rows, twins = pairs
    # every node is a representative or the mirror of one
    assert len(np.union1d(rows, twins)) == field.node_count
    exact = SampledField(field.sig, field.dims, tuple(-(d // 2) * 1.0 for d in field.dims),
                         (1.0,) * field.m, field.values)
    return "full" if len(rows) == len(transform._mirror_pairs(exact)[0]) else "partial"


# extents, origin (None: centred) and spacing, by how the nodes pair up
MIRROR_GRIDS = {
    "odd": ((5, 3, 5, 3), None, 1.0, "full"),
    "even": ((4, 4, 2, 2), None, 0.5, "full"),
    "spacing-0.197": ((5, 6, 7, 3), None, 0.197, "partial"),
    "off-centre": ((4, 3, 3, 2), (0.3, -1.0, -1.0, -0.5), 1.0, "none"),
}


def _two_sided_cylindrical():
    cyl = parse_preset("cylindrical:2").left[0]
    return GftSpec(cyl.sig, 2, (cyl,), (cyl,))


@pytest.mark.parametrize("budget", ["stack", "chunk"])
@pytest.mark.parametrize("grid", sorted(MIRROR_GRIDS))
@pytest.mark.parametrize("selector", ["cylindrical:2", "cylindrical:3", "cylindrical:4",
                                      "two-sided cylindrical:2"])
def test_expansion_engine_over_mirrored_pairs_matches_direct(selector, grid, budget,
                                                              monkeypatch):
    # even and odd terms contract against B(x) + B(-x) and B(x) - B(-x);
    # with the maps applied to that stack once or to each chunk's output
    if selector.startswith("two-sided"):
        spec = _two_sided_cylindrical()
    else:
        spec = parse_preset(selector)
    dims, origin, spacing, kind = MIRROR_GRIDS[grid]
    dims = dims[:spec.m]
    origin = tuple(-(d // 2) * spacing for d in dims) if origin is None else origin[:spec.m]
    rng = np.random.default_rng(66)
    values = rng.uniform(-1.0, 1.0, (math.prod(dims), spec.sig.dim))
    field = SampledField(spec.sig, dims, origin, (spacing,) * spec.m, values)
    assert _mirror_kind(field) == kind
    # `_compose` calls on chunk outputs, which hold one row per frequency;
    # the stack's rows are the kept nodes, never 3 or 2^m here
    folds, compose = [], transform._compose
    monkeypatch.setattr(transform, "_compose", lambda order, y: folds.append(
        y.shape[1] in (3, 2 ** spec.m)) or compose(order, y))
    if budget == "chunk":
        # the stack of every term (but cylindrical:2's two) then exceeds
        # the field and spectrum values
        monkeypatch.setattr(transform, "_AXES_BLOCK", 0)
    freqs = FreqGrid((2,) * spec.m, tuple(rng.uniform(-1.3, -0.4, spec.m)),
                     tuple(rng.uniform(0.3, 0.9, spec.m)))
    unodes = rng.uniform(-1.3, 1.3, (3, spec.m))
    assert plan(spec, field, freqs).engine == "expansion"
    for validate in (True, False):
        _assert_agrees(gft(spec, field, freqs, validate=validate).values,
                       gft_direct(spec, field, freqs.nodes(), validate=validate))
        _assert_agrees(gft_at(spec, field, unodes, validate=validate),
                       gft_direct(spec, field, unodes, validate=validate))
    if budget == "stack":
        assert not any(folds)
    elif selector != "cylindrical:2":
        assert any(folds)


def test_first_offender_is_the_smaller_index_of_its_pair():
    sig, kern, _ = _two_blade_spec()
    # centred 5 x 5: node 0 = (-2, -2) offends first, and its mirror
    # (2, 2) is node 24
    values = np.random.default_rng(67).uniform(-1.0, 1.0, (25, sig.dim))
    field = SampledField(sig, (5, 5), (-2.0, -2.0), (1.0, 1.0), values)
    rows, twins = transform._mirror_pairs(field)
    assert (rows[0], twins[0]) == (0, 24)
    unodes = np.array([[0.0, 0.7], [0.3, -0.2]])
    for spec in (GftSpec(sig, 2, (), (kern,)), GftSpec(sig, 2, (kern,), (kern,))):
        msg = _not_imaginary_message(gft_at, spec, field, unodes)
        assert msg == _not_imaginary_message(gft_direct, spec, field, unodes)
    assert msg == "left kernel 1: sample 0 does not square to a negative real"
    # f = 2 (x_1 + x_2) u_1 e12 + 1.5 (x_1 - x_2) u_2 e34 is valid on the
    # diagonals: node 0 = (-2, -2) passes, node 1 = (-2, -1) is the first
    # offender and its mirror (2, 1) is node 23
    e12, e34 = Multivector.blade(sig, "e12", 2.0), Multivector.blade(sig, "e34", 1.5)
    diag = KernelMatrix.sparse(sig, 2, [(0, 0, e12), (1, 0, e12), (0, 1, e34),
                                        (1, 1, -e34)])
    spec = GftSpec(sig, 2, (diag,), ())
    msg = _not_imaginary_message(gft_at, spec, field, unodes)
    assert msg == _not_imaginary_message(gft_direct, spec, field, unodes)
    assert msg == "left kernel 1: sample 1 does not square to a negative real"


def test_mirror_pairs_found_per_axis():
    sig = Signature(0, 2)
    # only the origin mirrors itself: no pairs, as on cylindrical:7's 2^7 grid
    for dims, origin in [((2,) * 7, (-0.5,) * 7), ((3, 3), (0.25, -1.0))]:
        field = SampledField(Signature(0, 1), dims, origin, (0.5,) * len(dims),
                             np.zeros((math.prod(dims), 2)))
        assert transform._mirror_pairs(field) is None
    field = SampledField(sig, (3, 2), (-1.0, 0.0), (1.0, 1.0), np.zeros((6, 4)))
    # nodes (-1, 0) (0, 0) (1, 0) pair as 0 <-> 4, 2 <-> 2; x_2 = 1 has no mirror
    rows, twins = transform._mirror_pairs(field)
    assert rows.tolist() == [0, 1, 2, 3, 5] and twins.tolist() == [4, 1, 2, 3, 5]


def test_axis_coordinates_are_the_grid_nodes():
    # one rule: each axis's coordinates are bit for bit those of
    # grid_nodes, kept read-only with the grid object
    field = SampledField(Signature(0, 1), (3, 5, 2), (-0.3, 0.1, -7.0), (0.1, 0.7, 13.0),
                         np.zeros((30, 2)))
    freqs = FreqGrid((4, 1), (-1.1, 0.2), (0.3, 0.9))
    for grid in (field, freqs):
        nodes = grid.nodes().reshape(grid.dims + (grid.m,))
        for j in range(grid.m):
            coords = transform._axis_coords(grid, j)
            line = nodes[(0,) * j + (slice(None),) + (0,) * (grid.m - j - 1) + (j,)]
            assert np.array_equal(coords, line) and not coords.flags.writeable
            assert np.shares_memory(coords, transform._axis_coords(grid, j))
            assert transform._axis_max(grid, j) == np.abs(line).max()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("engine", [gft_at, gft_direct], ids=["gft_at", "gft_direct"])
def test_non_finite_frequency_nodes_are_refused(engine, validate, bad):
    spec = parse_preset("cylindrical:3")
    field = SampledField.random(spec.sig, (3, 3, 3), np.random.default_rng(64))
    unodes = np.array([[0.5, bad, 0.25], [0.1, 0.2, 0.3]])
    with pytest.raises(ValueError, match="frequency nodes must be finite"):
        engine(spec, field, unodes, validate=validate)


def test_plan_reasons():
    rng = np.random.default_rng(4)
    cyl = parse_preset("cylindrical:3")
    field = SampledField.random(cyl.sig, (3, 3, 3), rng)
    p = plan(cyl, field, default_freqs(field).nodes())
    assert (p.engine, p.reason) == (
        "expansion", "left kernel 1: 3 blades, checked once; 4 terms")

    sig = Signature(0, 2)
    e1 = Multivector.blade(sig, "e1", 2 * math.pi)
    nearly = e1 + Multivector.blade(sig, "e2", 1e-12)
    inexact = KernelMatrix.sparse(sig, 2, [(0, 0, e1), (1, 1, nearly)])
    spec = GftSpec(sig, 2, (), (KernelMatrix.sparse(sig, 2, [(0, 0, e1)]), inexact))
    field = SampledField.random(sig, (4, 4), rng)
    unodes = default_freqs(field).nodes()
    p = plan(spec, field, unodes)
    assert (p.engine, p.reason) == ("direct", "right kernel 2: 6 terms exceed 2^n = 4")
    assert np.array_equal(gft_at(spec, field, unodes), gft_direct(spec, field, unodes))

    # a direction that does not square to a negative real is checked per
    # sample, and fails like the direct engine
    scalar = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.scalar(sig, 1.0))])
    spec = GftSpec(sig, 2, (scalar,), ())
    p = plan(spec, field, unodes)
    assert (p.engine, p.reason) == (
        "expansion", "left kernel 1: 1 blade, per-sample check; 2 terms")
    assert _not_imaginary_message(gft_at, spec, field, unodes) == \
        _not_imaginary_message(gft_direct, spec, field, unodes)

    # 16 blades on one kernel: 17 terms, more than one dense product
    sig = Signature(0, 4)
    full = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector(sig, np.linspace(1, 2, 16))),
                                        (1, 1, Multivector.blade(sig, "e1"))])
    spec = GftSpec(sig, 2, (full,), (KernelMatrix.sparse(sig, 2, []),))
    field = SampledField.random(sig, (3, 3), rng)
    unodes = rng.uniform(-1, 1, (4, 2))
    p = plan(spec, field, unodes)
    assert (p.engine, p.reason) == ("direct", "left kernel 1: 17 terms exceed 2^n = 16")
    assert np.array_equal(gft_at(spec, field, unodes, validate=False),
                          gft_direct(spec, field, unodes, validate=False))
    # zero kernels add no terms
    p = plan(GftSpec(sig, 2, (), (KernelMatrix.sparse(sig, 2, []),)), field, unodes)
    assert (p.engine, p.reason) == ("expansion", "right kernel 1: zero; 1 term")


def test_plan_decision_is_logged(caplog):
    spec = parse_preset("quaternionic")
    field = SampledField.random(spec.sig, (4, 4), np.random.default_rng(9))
    with caplog.at_level(logging.DEBUG, logger="gafourier"):
        gft(spec, field, default_freqs(field))
    assert [r.getMessage() for r in caplog.records] == [
        "plan: axes engine (left kernel 1: 1 direction, checked once; "
        "right kernel 1: 1 direction, checked once; 4 terms; diagonal forms), "
        "16 nodes x 16 frequencies"
    ]


def _assert_grid_agrees(spec, field, freqs):
    _assert_agrees(gft(spec, field, freqs).values, gft_direct(spec, field, freqs.nodes()))


def _assert_agrees(got, ref):
    err = np.linalg.norm(got - ref, axis=1)
    allowed = 1e-12 * np.maximum(1.0, np.linalg.norm(ref, axis=1))
    assert (err <= allowed).all(), float((err / allowed).max())


AXES_PRESETS = {
    "clifford:2": (8, 8),
    "clifford:3": (4, 4, 4),
    "buelow:2": (8, 8),
    "buelow:3": (4, 4, 4),
    "quaternionic": (8, 8),
    "spacetime": (3, 3, 3, 3),
    "color_image": (8, 8),
    "color_image:e13": (8, 8),
}


@pytest.mark.parametrize("selector", sorted(AXES_PRESETS))
def test_axes_engine_matches_direct_on_presets(selector):
    spec = parse_preset(selector)
    rng = np.random.default_rng(23)
    dims = AXES_PRESETS[selector]
    field = SampledField.random(spec.sig, dims, rng)
    # off the DFT lattice: no node at u = 0, spacing unrelated to the field
    off_lattice = FreqGrid(tuple(d + 1 for d in dims),
                           tuple(rng.uniform(-1.9, -1.1, len(dims))),
                           tuple(rng.uniform(0.13, 0.41, len(dims))))
    assert not (off_lattice.nodes() == 0.0).all(axis=1).any()
    for freqs in (default_freqs(field), off_lattice):
        p = plan(spec, field, freqs)
        assert p.engine == "axes" and p.reason.endswith("; diagonal forms"), p.reason
        _assert_grid_agrees(spec, field, freqs)


@pytest.mark.parametrize("a", SCALE_FACTORS)
@pytest.mark.parametrize("selector", ["quaternionic", "color_image"])
def test_axes_engine_matches_direct_on_divided_grids(selector, a):
    # the grid of the nodes u / a that check_scaling transforms on, which
    # a < 0 mirrors: its spectrum reads back reversed along every axis
    spec = parse_preset(selector)
    dims = AXES_PRESETS[selector]
    field = SampledField.random(spec.sig, dims, np.random.default_rng(26))
    freqs = default_freqs(field)
    origin, spacing, _ = theorems._divided(freqs, a)
    divided = FreqGrid(freqs.dims, origin, spacing)
    assert plan(spec, field, divided).engine == "axes"
    got = gft(spec, field, divided).values
    if a < 0:
        got = np.flip(got.reshape(dims + (-1,)), axis=(0, 1)).reshape(got.shape)
    _assert_agrees(got, gft_direct(spec, field, freqs.nodes() / a))


@pytest.mark.parametrize("selector, tile", [
    ("buelow:3", (1, 1, 1)), ("buelow:3", (2, 5, 3)), ("buelow:3", (5, 2, 5)),
    ("color_image", (1, 1)), ("color_image", (5, 2)), ("color_image", (2, 4)),
])
def test_axes_engine_tiles(selector, tile, monkeypatch):
    # single frequencies, and uneven tiles split along the first axis,
    # later axes or both (the last tile on an axis is shorter)
    monkeypatch.setattr(transform, "_axes_tile", lambda *args: list(tile))
    spec = parse_preset(selector)
    dims = AXES_PRESETS[selector]
    field = SampledField.random(spec.sig, dims, np.random.default_rng(24))
    freqs = FreqGrid(tuple(d + 1 for d in dims), (-0.77,) * len(dims), (0.29,) * len(dims))
    assert plan(spec, field, freqs).engine == "axes"
    _assert_grid_agrees(spec, field, freqs)


@pytest.mark.parametrize("selector", ["buelow:3", "spacetime", "color_image"])
def test_axes_engine_tiles_match_one_tile(selector, monkeypatch):
    # a budget small enough to split the grid: every tile applies the
    # same matrix, so only the GEMM's row count changes
    spec = parse_preset(selector)
    dims = AXES_PRESETS[selector]
    field = SampledField.random(spec.sig, dims, np.random.default_rng(28))
    freqs = FreqGrid(tuple(d + 1 for d in dims), (-0.61,) * len(dims), (0.23,) * len(dims))
    whole = gft(spec, field, freqs).values
    tiles = []
    choose = transform._axes_tile
    monkeypatch.setattr(transform, "_axes_tile",
                        lambda *args: tiles.append(choose(*args)) or tiles[-1])
    monkeypatch.setattr(transform, "_AXES_BLOCK", 0)
    split = gft(spec, field, freqs).values
    assert math.prod(tiles[-1]) < freqs.node_count // 2
    err = np.linalg.norm(split - whole, axis=1)
    assert (err <= 1e-15 * np.maximum(1.0, np.linalg.norm(whole, axis=1))).all()


def _sign_flips(spec):
    return [(j, k) for j in itertools.product((0, 1), repeat=len(spec.left))
            for k in itertools.product((0, 1), repeat=len(spec.right))]


@pytest.mark.parametrize("selector", ["buelow:2", "spacetime", "color_image"])
def test_sign_flips_from_one_contraction(selector, monkeypatch):
    # every flip's matrix against the direct engine, and against the
    # flipped spec's own transform, from one contraction of the field
    spec = parse_preset(selector)
    dims = AXES_PRESETS[selector]
    rng = np.random.default_rng(29)
    field = SampledField.random(spec.sig, dims, rng)
    freqs = FreqGrid(tuple(max(2, d - 3) for d in dims),
                     tuple(rng.uniform(-1.9, -1.1, len(dims))),
                     tuple(rng.uniform(0.13, 0.41, len(dims))))
    flips = _sign_flips(spec)
    calls, run = [], transform._gft_axes
    monkeypatch.setattr(transform, "_gft_axes", lambda *args: calls.append(1) or run(*args))
    got = transform._gft_many(spec, [field], freqs, flips)[:, 0]
    assert len(calls) == 1 and got.shape[1] == len(flips) == 2 ** spec.nu
    for i, (j, k) in enumerate(flips):
        flipped = negate(spec, j, k)
        _assert_agrees(got[:, i], gft_direct(flipped, field, freqs.nodes()))
        ref = gft(flipped, field, freqs).values
        err = np.linalg.norm(got[:, i] - ref, axis=1)
        assert (err <= 1e-15 * np.maximum(1.0, np.linalg.norm(ref, axis=1))).all(), (j, k)


def test_axes_engine_keeps_the_first_flip_sets():
    # 65 distinct flip sets of color_image's 16 flips: the plan keeps the
    # first _FLIP_SETS matrices, and the next call still builds its own
    spec = kernels.preset("color_image")  # parse_preset would share its plan
    field = SampledField.random(spec.sig, (4, 4), np.random.default_rng(37))
    freqs = default_freqs(field)
    assert plan(spec, field, freqs).engine == "axes"
    flips = _sign_flips(spec)
    sets = [list(pair) for pair in itertools.combinations(flips, 2)][:64] + [flips]
    for flip_set in sets:
        got = transform._gft_many(spec, [field], freqs, flip_set)[:, 0]
    assert len(transform._spec_plan(spec).axes.matrices) == transform._FLIP_SETS
    for i, (j, k) in enumerate(flips):
        ref = gft(negate(spec, j, k), field, freqs).values
        err = np.linalg.norm(got[:, i] - ref, axis=1)
        assert (err <= 1e-15 * np.maximum(1.0, np.linalg.norm(ref, axis=1))).all(), (j, k)


@pytest.mark.parametrize("selector", ["cylindrical:2", "cylindrical:3"])
@pytest.mark.parametrize("dims", [(4,) * 3, (5,) * 3])  # paired nodes, and one unpaired
def test_sign_flips_on_the_expansion_engine(selector, dims, monkeypatch):
    # the weights negated per sine term, against the negated spec's own
    # transform and the direct engine, with no new spec or factorization
    spec = parse_preset(selector)
    field = SampledField.random(spec.sig, dims[:spec.m], np.random.default_rng(30))
    freqs = default_freqs(field)
    assert plan(spec, field, freqs).engine == "expansion"
    flips = _sign_flips(spec)
    monkeypatch.setattr(kernels, "_factor", None)  # any factorization fails
    got = transform._gft_many(spec, [field, field], freqs, flips)
    monkeypatch.undo()
    assert got.shape == (freqs.node_count, 2, len(flips), spec.sig.dim)
    for i, (j, k) in enumerate(flips):
        flipped = negate(spec, j, k)
        ref = gft(flipped, field, freqs).values
        for values in got[:, :, i].swapaxes(0, 1):
            err = np.linalg.norm(values - ref, axis=1)
            assert (err <= 1e-15 * np.maximum(1.0, np.linalg.norm(ref, axis=1))).all(), (j, k)
            _assert_agrees(values, gft_direct(flipped, field, freqs.nodes()))


@pytest.mark.parametrize("selector", kernels.VERIFY_PRESETS)
def test_many_fields_match_one_field(selector):
    # fields side by side as rows of the axes engine's GEMMs give each
    # field's own spectrum bit for bit; the expansion engine has them as
    # columns of its GEMM, which BLAS may round differently
    spec = parse_preset(selector)
    rng = np.random.default_rng(31)
    dims = ((8, 8, 6, 4)[spec.m - 1],) * spec.m
    fields = [SampledField.random(spec.sig, dims, rng) for _ in range(3)]
    freqs = default_freqs(fields[0])
    got = transform._gft_many(spec, fields, freqs)
    assert got.shape == (freqs.node_count, 3, 1, spec.sig.dim)
    axes = plan(spec, fields[0], freqs).engine == "axes"
    assert axes == (selector in AXES_PRESETS)
    for field, values in zip(fields, got[:, :, 0].swapaxes(0, 1)):
        ref = gft(spec, field, freqs).values
        if axes:
            assert np.array_equal(values, ref)
        err = np.linalg.norm(values - ref, axis=1)
        assert (err <= 1e-14 * np.maximum(1.0, np.linalg.norm(ref, axis=1))).all()


def test_many_fields_on_the_direct_engine():
    # per-sample kernels past the term limit: fields and flips on the
    # direct engine, each as its own transform
    sig = Signature(0, 3)
    kern = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e1")),
                                        (1, 1, Multivector.blade(sig, "e2"))])
    spec = GftSpec(sig, 2, (kern, kern), (kern,))
    rng = np.random.default_rng(32)
    fields = [SampledField.random(sig, (3, 3), rng) for _ in range(2)]
    freqs = FreqGrid((2, 2), (-0.3, -0.2), (0.25, 0.25))
    assert plan(spec, fields[0], freqs).engine == "direct"
    flips = _sign_flips(spec)
    got = transform._gft_many(spec, fields, freqs, flips)
    for (b, field), (i, (j, k)) in itertools.product(enumerate(fields), enumerate(flips)):
        want = gft_direct(negate(spec, j, k), field, freqs.nodes())
        assert np.array_equal(got[:, b, i], want), (b, j, k)


def _direct_routed_spec():
    # per-sample kernels past the term limit
    sig = Signature(0, 3)
    kern = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e1")),
                                        (1, 1, Multivector.blade(sig, "e2"))])
    return GftSpec(sig, 2, (kern, kern), (kern,))


@pytest.mark.parametrize("selector", ["quaternionic", "cylindrical:3", None])
def test_empty_frequency_arrays(selector):
    # an axes preset and an expansion preset (both on the expansion
    # engine for arrays), and a direct-routed spec, with and without flips
    spec = _direct_routed_spec() if selector is None else parse_preset(selector)
    field = SampledField.random(spec.sig, (3,) * spec.m, np.random.default_rng(35))
    empty = np.empty((0, spec.m))
    assert plan(spec, field, empty).engine == ("direct" if selector is None else "expansion")
    assert gft_at(spec, field, empty).shape == (0, spec.sig.dim)
    assert gft_direct(spec, field, empty).shape == (0, spec.sig.dim)
    flips = _sign_flips(spec)
    got = transform._gft_many(spec, [field, field], empty, flips)
    assert got.shape == (0, 2, len(flips), spec.sig.dim)


def test_many_fields_need_one_grid():
    spec = parse_preset("quaternionic")
    field = SampledField.random(spec.sig, (4, 4), np.random.default_rng(36))
    moved = SampledField(spec.sig, (4, 4), (0.0, -2.0), field.spacing, field.values)
    flat = SampledField(spec.sig, (2, 8), field.origin, field.spacing, field.values)
    for other in (moved, flat):
        for freqs in (default_freqs(field), default_freqs(field).nodes()):
            with pytest.raises(ValueError, match="fields must share one signature and grid"):
                transform._gft_many(spec, [field, other], freqs)


@pytest.mark.parametrize("selector, dims, fdims", [
    ("buelow:1", (2048,), None),  # long first axis: its phase table is d_1 x M_1
    ("quaternionic", (1024, 2), None),
    ("quaternionic", (2, 1024), None),  # long later axis: its table is d_2 x M_2
    # M_2 > d_2 and d_3 > M_3: contracting x_2 first grows the intermediate
    ("clifford:3", (2, 2, 512), (2, 512, 2)),
])
def test_axes_engine_peak_memory(selector, dims, fdims):
    import tracemalloc

    spec = parse_preset(selector)
    field = SampledField.random(spec.sig, dims, np.random.default_rng(25))
    freqs = default_freqs(field)
    if fdims is not None:
        freqs = FreqGrid(fdims, (-0.5,) * len(dims), (0.013,) * len(dims))
    assert plan(spec, field, freqs).engine == "axes"
    tracemalloc.start()
    try:
        values = gft(spec, field, freqs).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the working set, the spectrum and its scaled copy, and small objects
    budget = max(transform._AXES_BLOCK, field.values.size + values.size)
    assert peak <= 8 * budget + 2 * values.nbytes + (1 << 16), peak
    some = np.random.default_rng(26).integers(freqs.node_count, size=4)
    ref = gft_direct(spec, field, freqs.nodes()[some])
    err = np.linalg.norm(values[some] - ref, axis=1)
    assert (err <= 1e-12 * np.maximum(1.0, np.linalg.norm(ref, axis=1))).all()


@pytest.mark.parametrize("selector", ["buelow:1", "clifford:3", "color_image"])
def test_axes_tile_bounds_the_traced_working_set(selector, monkeypatch):
    # `_axes_values` of the chosen tile covers what the engine allocates
    import tracemalloc

    spec = parse_preset(selector)
    rng = np.random.default_rng(27)
    tiles = []
    choose = transform._axes_tile

    def chosen(*args):
        tiles.append((choose(*args), args))
        return tiles[-1][0]

    monkeypatch.setattr(transform, "_axes_tile", chosen)
    hi = 200 if spec.m == 1 else 12
    for block in (1 << 10, 1 << 13, 1 << 16):
        monkeypatch.setattr(transform, "_AXES_BLOCK", block)
        for _ in range(3):
            dims = tuple(int(v) for v in rng.integers(1, hi, spec.m))
            fdims = tuple(int(v) for v in rng.integers(1, hi, spec.m))
            field = SampledField.random(spec.sig, dims, rng)
            freqs = FreqGrid(fdims, (-0.5,) * spec.m, (0.07,) * spec.m)
            gft(spec, field, freqs)  # builds the bases outside the trace
            tracemalloc.start()
            try:
                values = gft(spec, field, freqs).values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            tile, (dims_, _, keys, cols, dim) = tiles[-1]
            counted = 8 * transform._axes_values(tile, dims_, keys, cols, dim)
            assert peak <= counted + 2 * values.nbytes + (1 << 16), (dims, fdims, tile)


@st.composite
def diagonal_specs(draw):
    """Up to 4 kernels in Cl(p,q), n <= 4, each a direction squaring to a
    negative real times a diagonal form whose entries may be zero,
    negative or repeated (so that phase vectors repeat)."""
    sig = draw(st.sampled_from(SIGNATURES_SMALL))
    m = draw(st.integers(1, 3))
    entry = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.25, -3.0])

    def kernel():
        labels = root_family(sig)
        d = Multivector.blade(sig, draw(st.sampled_from(labels)),
                              draw(st.sampled_from([1.0, -1.0, 0.5])))
        a = draw(st.lists(entry, min_size=m, max_size=m))
        return KernelMatrix.sparse(sig, m, [(j, j, d * a[j]) for j in range(m)])

    count = draw(st.integers(1, 4))
    left = draw(st.integers(0, count))
    kernels = tuple(kernel() for _ in range(count))
    return GftSpec(sig, m, kernels[:left], kernels[left:])


@settings(max_examples=40, deadline=None)
@given(diagonal_specs(), st.integers(0, 2**32 - 1))
def test_axes_engine_matches_direct_on_random_diagonal_specs(spec, seed):
    rng = np.random.default_rng(seed)
    dims = {1: (7,), 2: (4, 3), 3: (3, 2, 2)}[spec.m]
    field = SampledField.random(spec.sig, dims, rng)
    freqs = FreqGrid(tuple(rng.integers(1, 5, spec.m)), tuple(rng.uniform(-1.3, 0.3, spec.m)),
                     tuple(rng.uniform(0.05, 0.9, spec.m)))
    nonzero = any(k.tensor.any() for k in spec.left + spec.right)
    assert plan(spec, field, freqs).engine == ("axes" if nonzero else "expansion")
    _assert_grid_agrees(spec, field, freqs)


def test_axes_routing_refusals():
    sig = Signature(0, 2)
    e1 = Multivector.blade(sig, "e1", 2 * math.pi)
    field = SampledField.random(sig, (4, 4), np.random.default_rng(31))
    freqs = default_freqs(field)
    # a rank-1 kernel whose form is not diagonal stays on the expansion engine
    skew = GftSpec(sig, 2, (KernelMatrix.sparse(sig, 2, [(0, 0, e1)]),),
                   (KernelMatrix.sparse(sig, 2, [(0, 1, e1), (1, 1, e1)]),))
    p = plan(skew, field, freqs)
    assert (p.engine, p.reason) == (
        "expansion", "left kernel 1: 1 direction, checked once; "
        "right kernel 1: 1 direction, checked once; 4 terms; "
        "no axes engine: right kernel 1 form not diagonal")
    _assert_grid_agrees(skew, field, freqs)
    # an array of frequencies keeps the expansion engine and its reason
    quat = parse_preset("quaternionic")
    assert (plan(quat, field, freqs.nodes()).engine, plan(quat, field, freqs.nodes()).reason) == (
        "expansion", "left kernel 1: 1 direction, checked once; "
        "right kernel 1: 1 direction, checked once; 4 terms")
    assert plan(quat, field, freqs).engine == "axes"
    gft(quat, field, freqs)
    # phases that overflow go to the expansion engine, which raises what
    # the direct engine raises; the spec's record keeps no grid's verdict
    huge = SampledField(sig, (4, 4), (0.0, 0.0), (1e200, 1e200), field.values)
    wide = FreqGrid((3, 3), (0.0, 0.0), (1e200, 1e200))
    p = plan(quat, huge, wide)
    assert p.engine == "expansion"
    assert p.reason.endswith(
        "; no axes engine: phase bound sum_kj |a_kj| max|x_j| max|u_j| is not finite")
    assert plan(quat, field, freqs).engine == "axes"
    with np.errstate(over="ignore", invalid="ignore"):  # inf phases, then NaN
        msg = _not_imaginary_message(gft, quat, huge, wide)
        assert msg == _not_imaginary_message(gft_direct, quat, huge, wide.nodes())
    # u = (0, 1e200) at node x = (0, 1e200) is the first overflow
    assert msg == "right kernel 1: sample 1 does not square to a negative real"


def test_second_plan_builds_no_basis(monkeypatch):
    calls = []
    build = kernels._factor

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(kernels, "_factor", counting)
    records = []
    build_plan = transform._build_spec_plan

    def counting_plan(spec):
        records.append(spec)
        return build_plan(spec)

    monkeypatch.setattr(transform, "_build_spec_plan", counting_plan)
    spec = kernels.preset("color_image")  # not the shared spec of parse_preset
    field = SampledField.random(spec.sig, (4, 4), np.random.default_rng(33))
    freqs = default_freqs(field)
    first = plan(spec, field, freqs)
    assert len(calls) == 4
    bases = transform._spec_plan(spec).order
    plan(spec, field, freqs.nodes())
    assert len(calls) == 4
    # the spec's plan record is built once and serves every later call
    values = gft(spec, field, freqs).values
    assert np.array_equal(gft(spec, field, freqs).values, values)
    assert np.array_equal(gft_at(spec, field, freqs.nodes()[:3]),
                          gft_at(spec, field, freqs.nodes()[:3]))
    assert records == [spec]
    assert plan(spec, field, freqs) == first
    assert transform._spec_plan(spec).order is bases
    # fold order: left kernels last to first, then right kernels in order
    assert [b.label for b in bases] == [
        "left kernel 2", "left kernel 1", "right kernel 1", "right kernel 2"]
    assert [b.index for b in bases] == [1, 0, 2, 3]


def test_plan_bases_are_read_only():
    # every call on a spec shares the basis arrays of its plan record
    sig = Signature(3, 0)
    blades = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e1")),
                                          (1, 1, Multivector.blade(sig, "e12"))])
    direction = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e123"))])
    spec = GftSpec(sig, 2, (direction,), (blades,))
    bases = transform._spec_plan(spec).order
    arrays = [v for b in bases for v in (b.forms, b.step, b.gather, b.sign, b.squares,
                                         *(b.pairs or ())) if v is not None]
    # as are the arrays of the axes layout a spec keeps for every gft
    color = kernels.preset("color_image")
    field = SampledField.random(color.sig, (4, 4), np.random.default_rng(34))
    gft(color, field, default_freqs(field))
    layout = transform._spec_plan(color).axes
    arrays += [layout.keys, layout.which, layout.conj, *layout.matrices.values()]
    assert len(arrays) == 2 + 4 + 3 + 4
    for v in arrays:
        with pytest.raises(ValueError, match="read-only"):
            v[(0,) * v.ndim] = 1


def test_spec_plan_dies_with_its_spec():
    import gc
    import weakref

    spec = kernels.preset("quaternionic")  # parse_preset would share it
    field = SampledField.random(spec.sig, (4, 4), np.random.default_rng(35))
    gft(spec, field, default_freqs(field))
    refs = weakref.ref(spec), weakref.ref(transform._spec_plan(spec))
    del spec
    gc.collect()
    assert [r() for r in refs] == [None, None]
