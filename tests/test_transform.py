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


def test_gft_hands_its_array_over_and_spectrum_copies_callers(monkeypatch):
    # `gft` keeps the array the engine has just allocated, read-only; a
    # caller's array passed to `Spectrum` is copied and the copy read-only
    spec = parse_preset("quaternionic")
    field = SampledField.random(spec.sig, (4, 4), np.random.default_rng(3))
    freqs = default_freqs(field)
    made, run = [], transform._gft_many
    monkeypatch.setattr(transform, "_gft_many",
                        lambda *args, **kw: made.append(run(*args, **kw)) or made[-1])
    spectrum = gft(spec, field, freqs)
    assert np.shares_memory(spectrum.values, made[0])
    assert not spectrum.values.flags.writeable
    assert spectrum.values.shape == (freqs.node_count, spec.sig.dim)
    mine = np.array(spectrum.values)
    copied = Spectrum(spec.sig, freqs, mine)
    assert not np.shares_memory(copied.values, mine) and not copied.values.flags.writeable
    mine[0, 0] += 1.0
    assert np.array_equal(copied.values, spectrum.values) and mine.flags.writeable


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


def test_invalid_two_blade_kernel_raises_like_direct(monkeypatch):
    sig, kern, field = _two_blade_spec()
    # no offender at the first two frequencies (u_1 = 0, then u_2 = 0); at
    # the third, node 5 = (1, 1) is the first with both coordinates nonzero
    unodes = np.array([[0.0, 0.7], [0.4, 0.0], [0.3, -0.2]])
    spec = GftSpec(sig, 2, (), (kern,))
    assert plan(spec, field, unodes).reason == \
        "right kernel 1: 2 blades, per-sample check; 3 terms"
    # left kernel e12 x_1 u_1 + e34 x_2 (u_1 - u_2) is valid where u_1 = u_2,
    # so at u = (0.5, 0.5) only the right kernel offends: the first
    # offending frequency decides before the kernel order
    e12, e34 = Multivector.blade(sig, "e12"), Multivector.blade(sig, "e34")
    left = KernelMatrix.sparse(sig, 2, [(0, 0, e12), (1, 0, e34), (1, 1, -e34)])
    both = np.array([[0.0, 0.0], [0.5, 0.5], [0.4, 0.0]])
    cases = ((spec, unodes, 2), (GftSpec(sig, 2, (left,), (kern,)), both, 1))
    blocks, compose = [], transform._compose
    monkeypatch.setattr(transform, "_compose", lambda order, y: blocks.append(y.shape) or
                        compose(order, y))
    for small in (False, True):
        if small:  # every frequency its own block: the blocks before the offender run
            monkeypatch.setattr(transform, "_BLOCK", 0)
            monkeypatch.setattr(transform, "_AXES_BLOCK", 0)
        for spec, unodes, passing in cases:
            blocks.clear()
            msg = _not_imaginary_message(gft_at, spec, field, unodes)
            assert len(blocks) == (passing if small else 0)
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


@pytest.mark.parametrize("origin", [100.0, 300.0])
def test_far_off_centre_grids_keep_their_digits(origin):
    # every node nearly parallel to u: <f^2>_0 = |x|^2 |u|^2 - (x.u)^2
    # cancels, and u^T Q u would lose it (8e-12 and 6e-11 of max(1, |F|)
    # here); past `_Q_REACH` the square comes from s
    spec = parse_preset("cylindrical:3")
    rng = np.random.default_rng(68)
    field = SampledField(spec.sig, (4, 4, 4), (origin,) * 3, (1.0,) * 3,
                         rng.uniform(-1.0, 1.0, (64, spec.sig.dim)))
    unodes = 1.0 + rng.normal(size=(6, 3)) * 1e-3
    grid = transform._field_grid(transform._spec_plan(spec), field)
    assert np.abs(unodes).max() ** 2 * grid.reach > transform._Q_REACH
    for validate in (True, False):
        _assert_agrees(gft_at(spec, field, unodes, validate=validate),
                       gft_direct(spec, field, unodes, validate=validate))


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
    "odd": ((5, 3, 5, 3, 1), None, 1.0, "full"),
    "even": ((4, 4, 2, 2, 2), None, 0.5, "full"),
    "spacing-0.197": ((5, 6, 7, 3, 1), None, 0.197, "partial"),
    "off-centre": ((4, 3, 3, 2, 2), (0.3, -1.0, -1.0, -0.5, -0.5), 1.0, "none"),
}


def _two_sided_cylindrical():
    cyl = parse_preset("cylindrical:2").left[0]
    return GftSpec(cyl.sig, 2, (cyl,), (cyl,))


def _folded_and_direction(swap=False):
    """cylindrical:3's left kernel, folded (3 blades on m = 3), and a right
    diagonal kernel of one direction: 4 x 2 = 8 terms on 1 + 3 and 2
    weights; with `swap`, the direction on the left and the folded kernel
    on the right.  Cl(0,3)'s pseudoscalar squares to +1, so the direction
    is the bivector e12."""
    cyl = parse_preset("cylindrical:3")
    e12 = Multivector.blade(cyl.sig, "e12", 0.75)
    diag = KernelMatrix.sparse(cyl.sig, 3, [(j, j, e12 * (1.0 + j)) for j in range(3)])
    if swap:
        return GftSpec(cyl.sig, 3, (diag,), cyl.left)
    return GftSpec(cyl.sig, 3, cyl.left, (diag,))


MIRROR_SPECS = {
    "two-sided cylindrical:2": _two_sided_cylindrical,
    "folded and direction": _folded_and_direction,
    "direction and folded": lambda: _folded_and_direction(swap=True),
}


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("grid", sorted(MIRROR_GRIDS))
@pytest.mark.parametrize("selector", ["cylindrical:2", "cylindrical:3", "cylindrical:4",
                                      "cylindrical:5", *MIRROR_SPECS])
def test_expansion_engine_over_mirrored_pairs_matches_direct(selector, grid, count,
                                                              monkeypatch):
    # even and odd terms contract against B(x) + B(-x) and B(x) - B(-x),
    # folded bases weigh by x_a and unfold per block, and the maps compose
    # each block's terms: `count` fields under no flip or every flip, at
    # the default budgets and with every frequency its own block
    spec = MIRROR_SPECS[selector]() if selector in MIRROR_SPECS else parse_preset(selector)
    dims, origin, spacing, kind = MIRROR_GRIDS[grid]
    dims = dims[:spec.m]
    origin = tuple(-(d // 2) * spacing for d in dims) if origin is None else origin[:spec.m]
    rng = np.random.default_rng(66)
    fields = [SampledField(spec.sig, dims, origin, (spacing,) * spec.m,
                           rng.uniform(-1.0, 1.0, (math.prod(dims), spec.sig.dim)))
              for _ in range(count)]
    assert _mirror_kind(fields[0]) == kind
    freqs = FreqGrid((2,) * spec.m, tuple(rng.uniform(-1.3, -0.4, spec.m)),
                     tuple(rng.uniform(0.3, 0.9, spec.m)))
    unodes = rng.uniform(-1.3, 1.3, (3, spec.m))
    assert plan(spec, fields[0], freqs).engine == "expansion"
    pairs = transform._mirror_pairs(fields[0])
    kept = fields[0].node_count if pairs is None else len(pairs[0])
    order = transform._spec_plan(spec).order
    terms = math.prod(b.terms for b in order)
    # blades with r >= m are folded: 1 + m weights instead of 1 + r
    folded = [b.step is None and b.terms > spec.m for b in order]
    assert any(folded) == (selector not in ("cylindrical:2", "two-sided cylindrical:2"))
    slots = math.prod(1 + spec.m if f else b.terms for b, f in zip(order, folded))
    weights, sizes = [], []
    unfold, compose = transform._unfold, transform._compose
    monkeypatch.setattr(transform, "_unfold", lambda order, y, u: weights.append(len(y)) or
                        unfold(order, y, u))
    monkeypatch.setattr(transform, "_compose", lambda order, y: sizes.append(y.size) or
                        compose(order, y))
    refs = {}  # (flips, frequencies) -> the direct engine's spectra
    for small in (False, True):
        if small:  # one frequency per chunk, and one chunk per block
            monkeypatch.setattr(transform, "_BLOCK", 0)
            monkeypatch.setattr(transform, "_AXES_BLOCK", 0)
        for flips in ((), _sign_flips(spec)):
            specs = [negate(spec, j, k) for j, k in flips] or [spec]
            sizes.clear()
            for nodes, at in ((freqs, freqs.nodes()), (unodes, unodes)):
                key = (len(flips), nodes is unodes)
                if key not in refs:
                    refs[key] = [[gft_direct(s, f, at) for f in fields] for s in specs]
                for validate in (True, False):
                    got = transform._gft_many(spec, fields, nodes, flips, validate=validate)
                    for i, by_field in enumerate(refs[key]):
                        for values, ref in zip(got[:, :, i].swapaxes(0, 1), by_field):
                            _assert_agrees(values, ref)
            # a chunk's weights fit _BLOCK, or are one frequency's; every
            # block's terms, mapped by _compose, fit _AXES_BLOCK, or are one
            # chunk's
            chunk = max(1, transform._BLOCK // (slots * kept * len(specs)))
            outputs = terms * chunk * len(specs) * count * spec.sig.dim
            assert max(sizes) <= max(transform._AXES_BLOCK, outputs)
            blocks = freqs.node_count + len(unodes) if small else 2
            assert len(sizes) == 2 * blocks
    assert set(weights) == {slots}


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("selector", ["cylindrical:3", "two-sided cylindrical:2"])
def test_expansion_chunks_write_into_buffers_allocated_once_per_call(selector, count, flipped,
                                                                     monkeypatch):
    # every chunk of one call writes each basis's weights, (slots, M, N)
    # and contiguous, into one buffer of that basis: `count` fields under
    # no flip or every flip, one folded basis or two bases
    spec = MIRROR_SPECS[selector]() if selector in MIRROR_SPECS else parse_preset(selector)
    dims = (5, 3, 5)[:spec.m]
    rng = np.random.default_rng(68)
    fields = [SampledField(spec.sig, dims, tuple(-(d // 2) * 1.0 for d in dims), (1.0,) * spec.m,
                           rng.uniform(-1.0, 1.0, (math.prod(dims), spec.sig.dim)))
              for _ in range(count)]
    freqs = FreqGrid((3,) * spec.m, tuple(rng.uniform(-1.3, -0.4, spec.m)),
                     tuple(rng.uniform(0.3, 0.9, spec.m)))
    flips = _sign_flips(spec) if flipped else []
    order = transform._spec_plan(spec).order
    slots = math.prod(b.slots for b in order)
    kept = len(transform._mirror_pairs(fields[0])[0])
    # two frequencies per chunk: 5 chunks on 3 x 3, 14 on 3 x 3 x 3
    monkeypatch.setattr(transform, "_BLOCK", 2 * slots * kept * max(1, len(flips)))
    writes = []
    weights = transform._Basis.weights

    def spy(self, u, table, coords, validate, w):
        writes.append((self.index, len(u), w))
        return weights(self, u, table, coords, validate, w)

    monkeypatch.setattr(transform._Basis, "weights", spy)
    got = transform._gft_many(spec, fields, freqs, flips)
    assert len(order) == (2 if selector in MIRROR_SPECS else 1)
    heads = []
    for b in order:
        ws = [(size, w) for index, size, w in writes if index == b.index]
        assert len(ws) == (freqs.node_count + 1) // 2 >= 3
        for size, w in ws:
            assert w.shape == (b.slots, size, kept) and w.flags.c_contiguous
            assert np.shares_memory(w, ws[0][1])
        heads.append(ws[0][1])
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(heads, 2))
    unodes = freqs.nodes()
    for i, (j, k) in enumerate(flips or [((0,) * len(spec.left), (0,) * len(spec.right))]):
        for f, field in enumerate(fields):
            _assert_agrees(got[:, f, i], gft_direct(negate(spec, j, k), field, unodes))


def test_expansion_engine_peak_memory():
    # nonseparable's cylindrical:3 call, once its records are built: the
    # weight buffers of a 25-frequency chunk (508 KiB) and the chunk's
    # temporaries
    import tracemalloc

    spec = parse_preset("cylindrical:3")
    values = np.random.default_rng(69).uniform(-1.0, 1.0, (1000, spec.sig.dim))
    field = SampledField(spec.sig, (10,) * 3, (-2.5,) * 3, (0.5,) * 3, values)
    freqs = FreqGrid((5,) * 3, (-0.613,) * 3, (0.197,) * 3)
    assert plan(spec, field, freqs).engine == "expansion"
    first = gft(spec, field, freqs).values
    tracemalloc.start()
    try:
        again = gft(spec, field, freqs).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(again, first)
    assert peak <= 4 * 8 * transform._BLOCK, peak


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
    # with what the spec's store holds once the grid plan is looked up:
    # the plan the first call built, then also the first call's matrix
    spec = kernels.preset("quaternionic")  # parse_preset would share its store
    field = SampledField.random(spec.sig, (4, 4), np.random.default_rng(9))
    with caplog.at_level(logging.DEBUG, logger="gafourier"):
        for _ in range(2):
            gft(spec, field, default_freqs(field))
    kept = transform._spec_plan(spec).kept
    (grid, _), (matrix, _) = kept.values()
    size = sum(t.nbytes for t in grid.tables)
    line = ("plan: axes engine (left kernel 1: 1 direction, checked once; "
            "right kernel 1: 1 direction, checked once; 4 terms; diagonal forms), "
            "16 nodes x 16 frequencies; grid plan")
    assert [r.getMessage() for r in caplog.records] == [
        f"{line} built; 1 records kept, {size} bytes",
        f"{line} reused; 2 records kept, {size + matrix.nbytes} bytes"]


def _own_spec(selector):
    """A new spec for `selector`, with a store of its own: `parse_preset`
    shares one spec per selector."""
    return kernels.parse_preset.__wrapped__(selector)


def _grid_plans(spec):
    return [grid for key, (grid, _) in transform._spec_plan(spec).kept.items()
            if key[0] == "plan"]


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
    # later axes or both (the last tile on an axis is shorter); a spec of
    # its own, since a grid plan keeps the tile it was built with
    monkeypatch.setattr(transform, "_axes_tile", lambda *args: (tile, args[2]))
    spec = _own_spec(selector)
    dims = AXES_PRESETS[selector]
    field = SampledField.random(spec.sig, dims, np.random.default_rng(24))
    freqs = FreqGrid(tuple(d + 1 for d in dims), (-0.77,) * len(dims), (0.29,) * len(dims))
    assert plan(spec, field, freqs).engine == "axes"
    _assert_grid_agrees(spec, field, freqs)
    (grid,) = _grid_plans(spec)
    assert grid.tile == tile and grid.tables is None


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
    # a spec of its own plans the grid pair again, under the small budget
    split = gft(_own_spec(selector), field, freqs).values
    assert math.prod(tiles[-1][0]) < freqs.node_count // 2
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
    # 65 distinct flip sets of color_image's 16 flips: the store keeps
    # _KEPT records, the grid pair's tables and the first matrices, and a
    # later flip set still builds its own
    spec = kernels.preset("color_image")  # parse_preset would share its plan
    field = SampledField.random(spec.sig, (4, 4), np.random.default_rng(37))
    freqs = default_freqs(field)
    assert plan(spec, field, freqs).engine == "axes"
    flips = _sign_flips(spec)
    sets = [list(pair) for pair in itertools.combinations(flips, 2)][:64] + [flips]
    for flip_set in sets:
        got = transform._gft_many(spec, [field], freqs, flip_set)[:, 0]
    kept = transform._spec_plan(spec).kept
    assert len(kept) == transform._KEPT
    assert sum(key[0] == "matrix" for key in kept) == transform._KEPT - 1
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


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("selector", ["quaternionic", "spacetime"])
def test_three_engines_agree_cell_by_cell(selector, count):
    # every (frequency, field, flip) cell from the axes engine on a grid,
    # the expansion engine on the grid's nodes as an array (centred
    # fields: mirrored pairs) and gft_direct of each negated spec
    spec = parse_preset(selector)
    dims = AXES_PRESETS[selector]
    rng = np.random.default_rng(38)
    fields = [SampledField.random(spec.sig, dims, rng) for _ in range(count)]
    freqs = FreqGrid(tuple(max(2, d - 3) for d in dims),
                     tuple(rng.uniform(-1.9, -1.1, len(dims))),
                     tuple(rng.uniform(0.13, 0.41, len(dims))))
    nodes = freqs.nodes()
    assert plan(spec, fields[0], freqs).engine == "axes"
    assert plan(spec, fields[0], nodes).engine == "expansion"
    assert transform._mirror_pairs(fields[0]) is not None
    for flips in ([], _sign_flips(spec)):
        axes = transform._gft_many(spec, fields, freqs, flips)
        expansion = transform._gft_many(spec, fields, nodes, flips)
        for i, (j, k) in enumerate(flips or [((0,) * spec.mu, (0,) * (spec.nu - spec.mu))]):
            flipped = negate(spec, j, k)
            for b, field in enumerate(fields):
                direct = gft_direct(flipped, field, nodes)
                _assert_agrees(axes[:, b, i], direct)
                _assert_agrees(expansion[:, b, i], direct)


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


@pytest.mark.parametrize("selector",
                         ["buelow:1", "buelow:4", "clifford:3", "color_image", "spacetime"])
def test_axes_tile_bounds_the_traced_working_set(selector, monkeypatch):
    # `_axes_values` of the chosen tile and key block covers what the
    # engine allocates, for one field and for three side by side
    import tracemalloc

    spec = parse_preset(selector)
    rng = np.random.default_rng(27)
    tiles = []
    choose = transform._axes_tile

    def chosen(*args):
        tiles.append((choose(*args), args))
        return tiles[-1][0]

    monkeypatch.setattr(transform, "_axes_tile", chosen)
    hi = {1: 200, 2: 12, 3: 12, 4: 6}[spec.m]
    for block in (1 << 10, 1 << 13, 1 << 16):
        monkeypatch.setattr(transform, "_AXES_BLOCK", block)
        for _ in range(3):
            dims = tuple(int(v) for v in rng.integers(1, hi, spec.m))
            fdims = tuple(int(v) for v in rng.integers(1, hi, spec.m))
            fields = [SampledField.random(spec.sig, dims, rng) for _ in range(3)]
            freqs = FreqGrid(fdims, (-0.5,) * spec.m, (0.07,) * spec.m)
            for count in (1, 3):
                # builds the bases outside the trace
                transform._gft_many(spec, fields[:count], freqs)
                tracemalloc.start()
                try:
                    values = transform._gft_many(spec, fields[:count], freqs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                (tile, keys_block), (dims_, _, keys, cols, dim) = tiles[-1]
                counted = 8 * transform._axes_values(tile, dims_, keys, cols, dim, keys_block)
                assert peak <= counted + 2 * values.nbytes + (1 << 16), (
                    dims, fdims, tile, keys_block, count)


def test_axes_tile_shrinks_the_key_block_before_the_tile(monkeypatch):
    # all keys whenever they fit the whole grid; otherwise the tile of
    # one key and the most keys, halving, that fit the budget with it,
    # or where one key does not (one frequency) at most double its count
    assert transform._axes_tile((3,) * 6, (3,) * 6, 32, 64, 64) == ((1,) * 6, 8)
    rng = np.random.default_rng(82)
    for _ in range(600):
        monkeypatch.setattr(transform, "_AXES_BLOCK", int(rng.choice([1 << 8, 1 << 12, 1 << 18])))
        m = int(rng.integers(1, 5))
        dims, fdims = (tuple(int(v) for v in rng.integers(1, 10, m)) for _ in range(2))
        keys, dim = int(rng.choice([1, 2, 3, 8, 32])), int(rng.choice([2, 16, 64]))
        tile, block = transform._axes_tile(dims, fdims, keys, dim, dim)

        def count(size, tile=tile):
            return transform._axes_values(tile, dims, keys, dim, dim, size)

        budget = max(transform._AXES_BLOCK, (math.prod(dims) + math.prod(fdims)) * dim)
        if count(keys, fdims) <= budget:
            assert (tile, block) == (fdims, keys)
        one = count(1)
        assert one <= budget or tile == (1,) * m
        limit = budget if one <= budget else 2 * one
        sizes = [keys]
        while sizes[-1] > 1:
            sizes.append((sizes[-1] + 1) // 2)
        assert count(block) <= limit or block == 1
        assert block == keys or count(sizes[sizes.index(block) - 1]) > limit


@pytest.mark.parametrize("selector", ["buelow:3", "buelow:4"])
def test_key_blocks_match_one_block(selector, monkeypatch):
    # budgets that shrink the key block below all D keys (4 and 8) but
    # keep the whole tile: each key runs the same GEMMs in any block, so
    # 1 and 3 fields and a flip set give the one-block spectra bit for
    # bit, and agree with the direct engine
    base = parse_preset(selector)
    keys, dim = len(transform._spec_plan(base).axes.keys), base.sig.dim
    rng = np.random.default_rng(81)
    dims = (3,) * base.m
    fields = [SampledField.random(base.sig, dims, rng) for _ in range(3)]
    freqs = FreqGrid((4,) * base.m, (-0.61,) * base.m, (0.37,) * base.m)
    flips = _sign_flips(base)[:3]
    calls = [(1, ()), (3, ()), (1, flips)]
    whole = [transform._gft_many(base, fields[:count], freqs, fl) for count, fl in calls]
    chosen, choose = [], transform._axes_tile
    monkeypatch.setattr(transform, "_axes_tile",
                        lambda *args: chosen.append(choose(*args)) or chosen[-1])
    block = keys // 2
    while block:
        for (count, fl), want in zip(calls, whole):
            cols = count * max(1, len(fl)) * dim
            monkeypatch.setattr(transform, "_AXES_BLOCK", transform._axes_values(
                freqs.dims, dims, keys, cols, count * dim, block))
            # a spec of its own plans the grid pair again, under this budget
            got = transform._gft_many(_own_spec(selector), fields[:count], freqs, fl)
            assert chosen[-1] == (freqs.dims, block), (count, len(fl))
            assert np.array_equal(got, want), (block, count, len(fl))
        block //= 2
    some = rng.integers(freqs.node_count, size=6)
    for (count, fl), want in zip(calls, whole):
        for i, field in enumerate(fields[:count]):
            for k, spec in enumerate([negate(base, j, kk) for j, kk in fl] or [base]):
                _assert_agrees(want[some, i, k], gft_direct(spec, field, freqs.nodes()[some]))


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
    # the direct engine raises; each grid pair's plan has its own verdict
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
                                         b.upper, b.quad, *(b.pairs or ())) if v is not None]
    # as are the arrays of the axes layout; the records of a spec's store
    # are walked in test_cli.py::test_shared_spec_plans_are_read_only
    layout = transform._spec_plan(kernels.preset("color_image")).axes
    arrays += [layout.keys, layout.which, layout.conj]
    assert len(arrays) == 2 + 6 + 3 + 3  # the blades (r = m = 2) are folded
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


def _record_case(spec, dims=(6, 5, 4), seed=70):
    """A centred field of spacing 0.5 (its nodes pair up) and an off-lattice
    frequency grid for `spec`, with m = 3."""
    rng = np.random.default_rng(seed)
    field = SampledField(spec.sig, dims, tuple(-(d // 2) * 0.5 for d in dims), (0.5,) * 3,
                         rng.uniform(-1.0, 1.0, (math.prod(dims), spec.sig.dim)))
    freqs = FreqGrid((3, 2, 3), (-0.61, -0.37, -0.52), (0.29, 0.41, 0.23))
    return field, freqs, rng


def _counting_builds(monkeypatch):
    # a record is built with one mirror search of its grid
    builds, search = [], transform._mirror_pairs
    monkeypatch.setattr(transform, "_mirror_pairs",
                        lambda field: builds.append(field.origin) or search(field))
    return builds


def test_fresh_fields_on_one_grid_share_one_record(monkeypatch):
    builds = _counting_builds(monkeypatch)
    spec = kernels.preset("cylindrical", 3)  # parse_preset would share its plan
    field, freqs, rng = _record_case(spec)
    first = gft(spec, field, freqs).values
    assert len(builds) == 1
    # fresh fields on the same grid, as a verify pass builds for each check:
    # no grid work at all, and the same spectrum bit for bit
    fresh = SampledField(spec.sig, field.dims, field.origin, field.spacing, field.values)
    other = fresh.with_values(rng.uniform(-1.0, 1.0, field.values.shape))
    monkeypatch.setattr(SampledField, "nodes", None)
    assert np.array_equal(gft(spec, fresh, freqs).values, first)
    unodes = rng.uniform(-1.3, 1.3, (4, 3))
    gft_at(spec, other, unodes)
    transform._gft_many(spec, [other, fresh], unodes, _sign_flips(spec))
    assert len(builds) == 1
    assert list(transform._spec_plan(spec).kept) == [_grid_key(field)]


def _grid_key(field):
    return ("grid", field.dims, field.origin, field.spacing)


def test_grids_past_the_bound_are_built_per_call(monkeypatch):
    # the store keeps _KEPT records, here the first 2 grids; a later one is
    # built for each call and dropped, and gives the spectrum a kept record
    # gives
    monkeypatch.setattr(transform, "_KEPT", 2)
    builds = _counting_builds(monkeypatch)
    spec = kernels.preset("cylindrical", 3)
    field, freqs, _ = _record_case(spec)
    moved = [SampledField(spec.sig, field.dims, tuple(o + shift for o in field.origin),
                          field.spacing, field.values) for shift in (0.0, 0.5, 1.0)]
    spectra = [[gft(spec, f, freqs).values for _ in range(2)] for f in moved]
    assert builds == [f.origin for f in moved] + [moved[2].origin]
    assert list(transform._spec_plan(spec).kept) == [_grid_key(f) for f in moved[:2]]
    for (once, again), f in zip(spectra, moved):
        assert np.array_equal(once, again)
        _assert_agrees(once, gft_direct(spec, f, freqs.nodes()))
    # the third grid kept by a spec of its own: the same arithmetic
    kept = kernels.preset("cylindrical", 3)
    assert np.array_equal(gft(kept, moved[2], freqs).values, spectra[2][0])
    assert list(transform._spec_plan(kept).kept) == [_grid_key(moved[2])]


def _record_widths(order, m):
    """Values per kept node of each basis's table: Q's m(m+1)/2 rows for a
    folded basis, else r m phases."""
    return [m * (m + 1) // 2 if b.folded else (b.terms - 1) * m for b in order]


def test_field_grid_records_are_bounded():
    # a folded basis and a direction, on a grid whose nodes pair up: a
    # record keeps 8 (3 + m + sum of widths) bytes per kept node, and the
    # store counts them
    import tracemalloc

    spec = _folded_and_direction()
    field, freqs, _ = _record_case(spec)
    plan(spec, field, freqs)  # the spec's own plan, outside the trace
    gft(_folded_and_direction(), field, freqs)  # and numpy's first-use state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = gft(spec, field, freqs).values.copy()
        kept = tracemalloc.get_traced_memory()[0] - before - first.nbytes
    finally:
        tracemalloc.stop()
    rec = transform._spec_plan(spec)
    ((grid, size),) = rec.kept.values()
    n = len(grid.rows)
    assert grid.twins is not None and n < field.node_count
    assert [t.shape for t in grid.tables] == [(6, n), (3, n)]
    assert size <= 8 * n * (3 + spec.m + sum(_record_widths(rec.order, spec.m)))
    assert kept <= size + 4096, (kept, size)
    # a later call reads the record: bit for bit the first call's spectrum
    assert np.array_equal(gft(spec, field, freqs).values, first)


def _pair_key(field, freqs):
    return ("plan", field.dims, field.origin, field.spacing,
            freqs.dims, freqs.origin, freqs.spacing)


def _pair_keys(spec):
    return [key for key in transform._spec_plan(spec).kept if key[0] == "plan"]


def _counting_tables(monkeypatch):
    # the axes engine builds each phase table with one cos_sin call
    shapes, trig = [], transform.cos_sin
    monkeypatch.setattr(transform, "cos_sin",
                        lambda theta, cos: shapes.append(theta.shape) or trig(theta, cos))
    return shapes


def test_fresh_grids_share_one_phase_record(monkeypatch):
    shapes = _counting_tables(monkeypatch)
    spec = kernels.preset("quaternionic")  # parse_preset would share its plan
    rng = np.random.default_rng(71)
    field = SampledField.random(spec.sig, (6, 5), rng)
    freqs = FreqGrid((4, 3), (-0.61, -0.37), (0.29, 0.41))
    first = gft(spec, field, freqs).values
    assert len(shapes) == 2  # one table per axis
    # fresh objects of the same geometry, as a verify pass builds for each
    # check: no trigonometry at all, and the same spectrum bit for bit
    fresh = SampledField(spec.sig, field.dims, field.origin, field.spacing, field.values)
    again = FreqGrid(freqs.dims, freqs.origin, freqs.spacing)
    assert np.array_equal(gft(spec, fresh, again).values, first)
    other = fresh.with_values(rng.uniform(-1.0, 1.0, field.values.shape))
    both = transform._gft_many(spec, [other, fresh], again)[:, :, 0]
    assert len(shapes) == 2
    assert np.array_equal(both[:, 1], first)
    monkeypatch.undo()
    assert np.array_equal(both[:, 0], gft(spec, other, freqs).values)
    # a spec of its own has no record yet: the same arithmetic builds it
    assert np.array_equal(gft(kernels.preset("quaternionic"), fresh, again).values, first)
    assert _pair_keys(spec) == [_pair_key(field, freqs)]


@pytest.mark.parametrize("selector", sorted(AXES_PRESETS))
def test_kept_grid_plan_runs_only_the_arithmetic(selector, monkeypatch):
    # after one call, a call on fresh objects of the same geometry finds
    # its route, phase bound, tile and tables in the grid plan: it runs no
    # planning step, reads no axis coordinates, and gives the first
    # call's spectrum bit for bit
    spec = _own_spec(selector)
    field = SampledField.random(spec.sig, AXES_PRESETS[selector], np.random.default_rng(78))
    first = gft(spec, field, default_freqs(field)).values
    calls = []
    for name in ("_phase_refusal", "_axes_tile", "_phase_table", "_axis_coords", "_axis_max"):
        run = getattr(transform, name)
        monkeypatch.setattr(transform, name,
                            lambda *args, name=name, run=run: calls.append(name) or run(*args))
    fresh = SampledField(spec.sig, field.dims, field.origin, field.spacing, field.values)
    again = gft(spec, fresh, default_freqs(fresh)).values
    assert calls == [] and np.array_equal(again, first)
    assert plan(spec, fresh, default_freqs(fresh)).engine == "axes" and calls == []
    (grid,) = _grid_plans(spec)
    assert grid.tile == field.dims and len(grid.tables) == spec.m


@pytest.mark.parametrize("many_first", [False, True])
@pytest.mark.parametrize("selector", ["quaternionic", "buelow:3"])
def test_fields_and_flips_match_one_field(selector, many_first):
    # 1 and 3 fields, with and without flips, whichever call plans the
    # grid pair: without flips each field's spectrum is its own `gft` bit
    # for bit; each flip agrees with the flipped spec's own transform
    spec = _own_spec(selector)
    rng = np.random.default_rng(79)
    fields = [SampledField.random(spec.sig, AXES_PRESETS[selector], rng) for _ in range(3)]
    freqs = default_freqs(fields[0])
    flips = _sign_flips(spec)
    runs = [(count, fl) for count in (3, 1) for fl in ((), flips)]
    got = {(count, bool(fl)): transform._gft_many(spec, fields[:count], freqs, fl)
           for count, fl in (runs if many_first else runs[::-1])}
    for i, field in enumerate(fields):
        own = gft(spec, field, freqs).values
        for count, flipped in got:
            if i >= count:
                continue
            values = got[count, flipped][:, i]
            if not flipped:
                assert np.array_equal(values[:, 0], own), (count, i)
                continue
            for k, (j, kk) in enumerate(flips):
                _assert_agrees(values[:, k], gft(negate(spec, j, kk), field, freqs).values)
    assert len(_grid_plans(spec)) == 1


def test_grid_plan_is_logged_built_and_reused(caplog):
    # the DEBUG line on every call: built on a grid pair's first call,
    # reused on fresh objects of its geometry, with the same reason also
    # where the phase bound is not finite and the expansion engine runs
    spec = kernels.preset("quaternionic")  # parse_preset would share its store
    sig = spec.sig
    rng = np.random.default_rng(80)
    values = rng.uniform(-1.0, 1.0, (16, sig.dim))

    def grids(spacing):
        return (SampledField(sig, (4, 4), (0.0, 0.0), (spacing,) * 2, values),
                FreqGrid((3, 3), (0.0, 0.0), (spacing,) * 2))

    with caplog.at_level(logging.DEBUG, logger="gafourier"):
        for _ in range(2):
            gft(spec, *grids(0.5))
        for _ in range(2):
            with pytest.raises(NotImaginary), np.errstate(over="ignore", invalid="ignore"):
                gft(spec, *grids(1e200))
    lines = [r.getMessage() for r in caplog.records]
    assert [re.search(r"grid plan (\w+)", m).group(1) for m in lines] == [
        "built", "reused", "built", "reused"]
    reasons = [m.split("), 16 nodes")[0] for m in lines]
    assert reasons[0] == reasons[1] and reasons[0].startswith("plan: axes engine (")
    assert reasons[2] == reasons[3] == (
        "plan: expansion engine (left kernel 1: 1 direction, checked once; "
        "right kernel 1: 1 direction, checked once; 4 terms; no axes engine: "
        "phase bound sum_kj |a_kj| max|x_j| max|u_j| is not finite")
    assert [grid.plan.engine for grid in _grid_plans(spec)] == ["axes", "expansion"]


@pytest.mark.parametrize("split_first", [False, True])
def test_phase_records_serve_every_tile(split_first, monkeypatch):
    # 1 and 3 fields on one grid pair, on one tile and on split tiles, in
    # both orders: the tile is the grid plan's for one field and the
    # call's own for three; a split tile neither reads nor keeps the whole
    # axes' tables, and every spectrum agrees with the direct engine.  A
    # grid plan keeps the tile of the budget it was built under, so each
    # budget has a spec of its own.
    whole = transform._AXES_BLOCK
    specs = {block: kernels.preset("buelow", 3) for block in (whole, 0)}
    rng = np.random.default_rng(72)
    fields = [SampledField.random(specs[0].sig, (4, 4, 4), rng) for _ in range(3)]
    freqs = FreqGrid((5, 5, 5), (-0.77,) * 3, (0.29,) * 3)
    tiles, choose = [], transform._axes_tile
    monkeypatch.setattr(transform, "_axes_tile",
                        lambda *args: tiles.append((choose(*args), args)) or tiles[-1][0])
    runs = [(block, count) for block in specs for count in (1, 3)]
    runs = runs[::-1] if split_first else runs
    # last, 3 fields under the small budget on the pair whose plan has the
    # whole tables: the call's own split tiles build theirs
    for block, count, spec in [(b, c, specs[b]) for b, c in runs] + [(0, 3, specs[whole])]:
        monkeypatch.setattr(transform, "_AXES_BLOCK", block)
        got = transform._gft_many(spec, fields[:count], freqs)[:, :, 0]
        if count > 1:  # its own tile, for its fields' columns
            (tile, _), args = tiles[-1]
            assert args[4] == count * spec.sig.dim
        else:
            tile = transform._spec_plan(spec).kept[_pair_key(fields[0], freqs)][0].tile
        assert (tile == freqs.dims) == bool(block), tile
        for values, field in zip(got.swapaxes(0, 1), fields):
            _assert_agrees(values, gft_direct(spec, field, freqs.nodes()))
    for block, spec in specs.items():
        assert _pair_keys(spec) == [_pair_key(fields[0], freqs)]
        (grid,) = _grid_plans(spec)
        keys = len(transform._spec_plan(spec).axes.keys)
        shapes = [(keys, 4, 5)] * 3 if block else None
        assert (grid.tables and [t.shape for t in grid.tables]) == shapes


def test_phase_records_are_bounded(monkeypatch):
    # a record keeps every axis's whole table, and its traced bytes are
    # those tables; a record past the budget keeps none of them
    import tracemalloc

    spec = kernels.preset("color_image")
    field = SampledField.random(spec.sig, (12, 9), np.random.default_rng(73))
    freqs = FreqGrid((7, 10), (-0.52, -0.83), (0.21, 0.17))
    # the spec's plan and matrix, on another grid pair, outside the trace
    gft(spec, field, FreqGrid((2, 2), (0.1, 0.2), (0.3, 0.4)))
    gft(kernels.preset("color_image"), field, freqs)  # and numpy's first-use state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = gft(spec, field, freqs).values.copy()
        traced = tracemalloc.get_traced_memory()[0] - before - first.nbytes
    finally:
        tracemalloc.stop()
    grid, size = transform._spec_plan(spec).kept[_pair_key(field, freqs)]
    kept = grid.tables
    keys = len(transform._spec_plan(spec).axes.keys)
    assert [t.shape for t in kept] == [(keys, 12, 7), (keys, 9, 10)]
    assert size == sum(t.nbytes for t in kept) and traced <= size + 4096, (size, traced)
    # a later call reads the record: bit for bit the first call's spectrum
    assert np.array_equal(gft(spec, field, freqs).values, first)
    # with room for the first axis's table only, the pair's plan, all its
    # tables, and the matrix are built per call, by the same arithmetic
    small = kernels.preset("color_image")
    matrix, _ = transform._spec_plan(spec).kept[("matrix", (0,))]
    assert matrix.nbytes > size - 1
    monkeypatch.setattr(transform, "_KEPT_BYTES", size - 1)
    shapes = _counting_tables(monkeypatch)
    for calls in (2, 4):
        assert np.array_equal(gft(small, field, freqs).values, first)
        assert not transform._spec_plan(small).kept
        assert len(shapes) == calls


def test_grid_pairs_past_the_bound_are_built_per_call(monkeypatch):
    # the store keeps _KEPT records, here the matrix and the first 2 pairs'
    # tables; a later pair builds its tables for each call and gives the
    # spectrum a kept record gives
    monkeypatch.setattr(transform, "_KEPT", 3)
    spec = kernels.preset("clifford", 2)
    field = SampledField.random(spec.sig, (5, 4), np.random.default_rng(74))
    grids = [FreqGrid((3, 4), (-0.5 - 0.1 * i, -0.4), (0.3, 0.2)) for i in range(3)]
    spectra = [gft(spec, field, freqs).values for freqs in grids]
    assert _pair_keys(spec) == [_pair_key(field, freqs) for freqs in grids[:-1]]
    shapes = _counting_tables(monkeypatch)
    assert np.array_equal(gft(spec, field, grids[-1]).values, spectra[-1])
    assert len(shapes) == 2 and len(transform._spec_plan(spec).kept) == 3
    # the last pair kept by a spec of its own: the same arithmetic
    kept = kernels.preset("clifford", 2)
    assert np.array_equal(gft(kept, field, grids[-1]).values, spectra[-1])
    assert _pair_keys(kept) == [_pair_key(field, grids[-1])]
    _assert_agrees(spectra[-1], gft_direct(spec, field, grids[-1].nodes()))


def test_kept_bytes_stay_within_the_budget(monkeypatch):
    # field grids, grid pairs and flip sets through one spec's store, with
    # a budget they overfill (records of 0.5 to 63 KiB): after every call
    # the store's records stay within the budget, the bytes traced since
    # the first call are theirs (and the spectra's), and every spectrum is
    # bit for bit that of a spec that keeps all of them
    import tracemalloc

    rng = np.random.default_rng(75)
    sig = parse_preset("quaternionic").sig
    fields = [SampledField.random(sig, (d, d - 1), rng) for d in (12, 20, 28, 36)]
    grids = [FreqGrid((d, d + 1), (-0.5, -0.4), (0.11, 0.13)) for d in (10, 16, 22, 28)]
    unodes = rng.uniform(-1.0, 1.0, (7, 2))
    flips = _sign_flips(parse_preset("quaternionic"))

    def calls(spec):
        for i, (field, freqs) in enumerate(zip(fields, grids)):
            yield gft(spec, field, freqs).values  # a grid pair, no flip
            yield gft_at(spec, field, unodes)  # a field grid
            yield transform._gft_many(spec, [field], freqs, flips[:i + 1])  # a flip set

    whole = kernels.preset("quaternionic")  # parse_preset would share its store
    want = [v.copy() for v in calls(whole)]
    every = transform._spec_plan(whole).kept
    assert {key[0] for key in every} == {"grid", "plan", "matrix"}
    budget = sum(size for _, size in every.values()) // 2
    monkeypatch.setattr(transform, "_KEPT_BYTES", budget)
    spec = kernels.preset("quaternionic")
    plan(spec, fields[0], grids[0])  # the spec's own plan, outside the trace
    got = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for values in calls(spec):
            got.append(values.copy())
            del values
            kept = transform._spec_plan(spec).kept
            size = sum(size for _, size in kept.values())
            traced = (tracemalloc.get_traced_memory()[0] - before
                      - sum(v.nbytes for v in got))
            assert size <= budget and len(kept) <= transform._KEPT
            assert traced <= size + 16384, (traced, size, budget)
    finally:
        tracemalloc.stop()
    assert len(kept) < len(every)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


def test_a_matrix_past_the_budget_is_built_per_call(monkeypatch):
    # in place of buelow:8's 128 MiB matrix, which the budget refuses (and
    # buelow:7's 16 MiB one fits): with the budget below one matrix, each
    # call builds its own and none is kept, with a kept matrix's spectrum
    for n, fits in ((7, True), (8, False)):
        layout = transform._spec_plan(parse_preset(f"buelow:{n}")).axes
        size = 2 * len(layout.keys) * 2 ** n * 2 ** n * 8
        assert (size <= transform._KEPT_BYTES) == fits, n
    whole = kernels.preset("buelow", 3)  # parse_preset would share its store
    field = SampledField.random(whole.sig, (4, 4, 4), np.random.default_rng(76))
    freqs = default_freqs(field)
    want = gft(whole, field, freqs).values
    matrix, _ = transform._spec_plan(whole).kept[("matrix", (0,))]
    monkeypatch.setattr(transform, "_KEPT_BYTES", matrix.nbytes - 1)
    builds, build = [], transform._axes_matrix
    monkeypatch.setattr(transform, "_axes_matrix", lambda *args: builds.append(1) or build(*args))
    spec = kernels.preset("buelow", 3)
    for calls in (1, 2):
        assert np.array_equal(gft(spec, field, freqs).values, want)
        assert len(builds) == calls
    assert _pair_keys(spec) == list(transform._spec_plan(spec).kept)


@pytest.mark.parametrize("name, args", [("color_image", ()), ("cylindrical", (3,))])
def test_threads_share_one_fresh_spec(name, args):
    # 4 threads make their first gft call together on one fresh spec, 3
    # times, switching often: each gets the single-threaded spectrum bit
    # for bit, and the store keeps one copy of each record, within its bounds
    import sys
    import threading

    spec = kernels.preset(name, *args)  # parse_preset would share its store
    field = SampledField.random(spec.sig, (6,) * spec.m, np.random.default_rng(77))
    freqs = default_freqs(field)
    want = gft(spec, field, freqs).values
    records = len(transform._spec_plan(spec).kept)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            spec, got, start = kernels.preset(name, *args), [None] * 4, threading.Barrier(4)

            def run(i, spec=spec, got=got, start=start):
                start.wait(timeout=60)
                got[i] = gft(spec, field, freqs).values

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(g is not None and np.array_equal(g, want) for g in got)
            kept = transform._spec_plan(spec).kept
            assert len(kept) == records <= transform._KEPT
            assert sum(size for _, size in kept.values()) <= transform._KEPT_BYTES
    finally:
        sys.setswitchinterval(interval)
