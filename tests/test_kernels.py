"""Kernel matrices, built-in configurations, and their factorization."""

import math

import numpy as np
import pytest

from gafourier.algebra import Multivector, Signature, pseudoscalar
from gafourier.kernels import (
    VERIFY_PRESETS,
    GftSpec,
    KernelMatrix,
    NotSeparable,
    UnsupportedSignature,
    is_separable,
    negate,
    parse_preset,
    preset,
    side_directions,
)

from conftest import squares_to_negative_real

TAU = 2.0 * math.pi


def _cell(kern, r, c):
    return Multivector(kern.sig, kern.tensor[r, c].copy())


def test_kernel_matrix_basics():
    sig = Signature(0, 2)
    k = KernelMatrix.sparse(sig, 2, [(0, 1, Multivector.blade(sig, "e1", 2.0)),
                                     (0, 1, Multivector.blade(sig, "e2", 1.0)),
                                     (1, 0, Multivector.blade(sig, "e12"))])
    assert k.m == 2
    # repeated cells accumulate
    assert np.allclose(_cell(k, 0, 1).coeffs, [0, 2.0, 1.0, 0])
    v = k.values(np.array([[1.0, 0.0]]), (0.0, 3.0))
    assert np.allclose(v, [[0, 6.0, 3.0, 0]])
    half = k.scaled(0.5)
    assert np.allclose(half.tensor, 0.5 * k.tensor)
    with pytest.raises(ValueError):
        KernelMatrix.sparse(sig, 2, [(2, 0, Multivector.blade(sig, "e1"))])


def test_kernel_eval_is_bilinear():
    sig = Signature(2, 0)
    k = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e12", 1.3)),
                                     (1, 0, Multivector.blade(sig, "e12", -0.4))])
    rng = np.random.default_rng(2)
    x, y, u = rng.uniform(-1, 1, (3, 2))
    combined, at_x, at_y = k.values(np.array([2.0 * x + y, x, y]), u)
    assert np.abs(combined - (2.0 * at_x + at_y)).max() <= 1e-12
    assert np.abs(k.values(x[None], 3.0 * u)[0] - 3.0 * at_x).max() <= 1e-12


def test_batched_values_match_pointwise_eval():
    spec = parse_preset("cylindrical:3")
    kern = spec.left[0]
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, (7, 3))
    u = rng.uniform(-1, 1, 3)
    rows = kern.values(xs, u)
    for i in range(7):
        # f(x, u) = sum_rc x_r u_c K[r, c], one cell at a time
        want = sum(xs[i, r] * u[c] * kern.tensor[r, c]
                   for r in range(3) for c in range(3))
        assert np.allclose(rows[i], want, atol=1e-14)


def test_direction_extraction():
    sig = Signature(0, 2)
    diag = KernelMatrix.sparse(sig, 2, [(j, j, Multivector.blade(sig, "e1", TAU))
                                        for j in range(2)])
    f = diag.factors
    assert np.array_equal(f.direction, [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(f.forms, TAU * np.eye(2)[None])
    assert f.blades is None and diag.factors is f
    (d,) = side_directions(GftSpec(sig, 2, (diag,), ()), "left")
    assert np.array_equal(d.coeffs, [0.0, 1.0, 0.0, 0.0])
    zero = KernelMatrix.sparse(sig, 2, [])
    assert zero.factors is None
    (z,) = side_directions(GftSpec(sig, 2, (zero,), ()), "left")
    assert z.magnitude() == 0.0
    mixed = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e1")),
                                         (1, 1, Multivector.blade(sig, "e2"))])
    assert mixed.factors.direction is None
    assert mixed.factors.blades.tolist() == [1, 2]
    # rank 1, but e1 squares to +1 in Cl(2,0): its blades, not separable
    real = Signature(2, 0)
    vector = KernelMatrix.sparse(real, 2, [(0, 0, Multivector.blade(real, "e1"))])
    assert vector.factors.direction is None
    assert not is_separable(GftSpec(real, 2, (vector,), ()), "left")


def test_scaled_kernel_keeps_the_factorization():
    # a scaled kernel is factored afresh and gets the verdict of a kernel
    # built from the same tensor
    spec = parse_preset("quaternionic")
    kern = spec.right[0]
    for c in (-1.0, 0.37, TAU):
        scaled, fresh = kern.scaled(c), KernelMatrix(kern.sig, kern.tensor * c)
        assert np.array_equal(scaled.tensor, fresh.tensor)
        assert np.array_equal(scaled.factors.forms, fresh.factors.forms)
        assert np.array_equal(scaled.factors.direction, fresh.factors.direction)
        assert scaled.factors.imaginary == fresh.factors.imaginary
    # -T has direction -j and the same forms
    flipped = kern.scaled(-1.0)
    assert np.array_equal(flipped.factors.direction, -kern.factors.direction)
    assert np.array_equal(flipped.factors.forms, kern.factors.forms)
    assert kern.scaled(0.0).factors is None
    assert KernelMatrix.sparse(spec.sig, 2, []).scaled(2.0).factors is None


def test_factoring_huge_entries_does_not_overflow():
    # squares of entries above about 1.3e154 overflow; the row is chosen
    # from entries scaled into [-1, 1]
    sig = Signature(0, 2)
    kern = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e1", 1e200))])
    f = kern.factors
    assert np.array_equal(f.direction, Multivector.blade(sig, "e1").coeffs)
    assert f.forms[0, 0, 0] == 1e200


def test_kernel_tensor_is_read_only_and_checked():
    sig = Signature(0, 2)
    t = np.zeros((2, 2, 4))
    t[0, 1, 1] = 1.0
    k = KernelMatrix(sig, t)
    t[0, 1, 1] = 5.0  # the kernel holds its own copy
    assert k.tensor[0, 1, 1] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        k.tensor[0, 0, 0] = 1.0
    assert k == KernelMatrix.sparse(sig, 2, [(0, 1, Multivector.blade(sig, "e1"))])
    assert k != k.scaled(2.0)
    for bad, msg in ((np.zeros((2, 3, 4)), "square"), (np.zeros((2, 2, 8)), "signature"),
                     (np.zeros((0, 0, 4)), "at least one row")):
        with pytest.raises(ValueError, match=msg):
            KernelMatrix(sig, bad)


def test_preset_shapes_and_counts():
    want = {
        "clifford:2": ("Cl(2,0)", 2, 0, 1),
        "buelow:2": ("Cl(0,2)", 2, 0, 2),
        "quaternionic": ("Cl(0,2)", 2, 1, 2),
        "spacetime": ("Cl(3,1)", 4, 1, 2),
        "color_image": ("Cl(4,0)", 2, 2, 4),
        "cylindrical:2": ("Cl(0,2)", 2, 1, 1),
        "cylindrical:3": ("Cl(0,3)", 3, 1, 1),
    }
    for name, (sig_str, m, mu, nu) in want.items():
        spec = parse_preset(name)
        assert str(spec.sig) == sig_str, name
        assert spec.m == m and spec.mu == mu and spec.nu == nu, name
        assert len(spec.left) == mu and len(spec.right) == nu - mu, name


def test_clifford_preset_entries():
    spec = parse_preset("clifford:2")
    kern = spec.right[0]
    for j in range(2):
        cell = _cell(kern, j, j)
        assert np.allclose(cell.coeffs, [0, 0, 0, TAU])
    assert _cell(kern, 0, 1).magnitude() == 0.0
    with pytest.raises(UnsupportedSignature):
        preset("clifford", n=4)
    assert parse_preset("clifford:6").sig == Signature(6, 0)
    assert parse_preset("clifford:7").sig == Signature(7, 0)


def test_buelow_preset_entries():
    spec = parse_preset("buelow:3")
    assert len(spec.right) == 3 and not spec.left
    for k, kern in enumerate(spec.right):
        cell = _cell(kern, k, k)
        assert cell == Multivector.basis_vector(spec.sig, k + 1) * TAU
        assert np.count_nonzero(kern.tensor) == 1


def test_quaternionic_preset_entries():
    spec = parse_preset("quaternionic")
    assert _cell(spec.left[0], 0, 0) == Multivector.blade(spec.sig, "e1", TAU)
    assert np.count_nonzero(spec.left[0].tensor) == 1
    assert _cell(spec.right[0], 1, 1) == Multivector.blade(spec.sig, "e2", TAU)
    assert np.count_nonzero(spec.right[0].tensor) == 1


def test_spacetime_preset_entries():
    spec = parse_preset("spacetime")
    assert _cell(spec.left[0], 3, 3) == Multivector.blade(spec.sig, "e4")
    assert np.count_nonzero(spec.left[0].tensor) == 1
    right = spec.right[0]
    want = Multivector.blade(spec.sig, "e123", -1.0)
    assert squares_to_negative_real(want)
    for j in range(3):
        assert _cell(right, j, j) == want
    assert _cell(right, 3, 3).magnitude() == 0.0


def test_color_image_preset_entries():
    spec = parse_preset("color_image")
    sig = spec.sig
    b = Multivector.blade(sig, "e12")
    ib = pseudoscalar(sig) * b
    assert ib == Multivector.blade(sig, "e34", -1.0)
    for j in range(2):
        assert _cell(spec.left[0], j, j) == b * 0.5
        assert _cell(spec.left[1], j, j) == ib * 0.5
        assert _cell(spec.right[0], j, j) == b * -0.5
        assert _cell(spec.right[1], j, j) == ib * -0.5
    other = parse_preset("color_image:e13")
    assert _cell(other.left[0], 0, 0) == Multivector.blade(sig, "e13", 0.5)
    with pytest.raises(ValueError):
        preset("color_image", bivector=Multivector.blade(sig, "e12", 2.0))
    # its square overflows to NaN: refused, with no numpy warning
    huge = Multivector.blade(sig, "e12", 1e200) + Multivector.blade(sig, "e13", 1e200)
    with pytest.raises(ValueError, match="unit bivector with square -1"):
        preset("color_image", bivector=huge)
    with pytest.raises(ValueError):
        parse_preset("color_image:e1")


def test_cylindrical_preset_entries():
    spec = parse_preset("cylindrical:2")
    kern = spec.left[0]
    assert not spec.right
    assert _cell(kern, 0, 1) == Multivector.blade(spec.sig, "e12", -1.0)
    assert _cell(kern, 1, 0) == Multivector.blade(spec.sig, "e12", 1.0)
    assert _cell(kern, 0, 0).magnitude() == 0.0
    with pytest.raises(UnsupportedSignature):
        preset("cylindrical", n=1)


def test_parse_preset_errors():
    with pytest.raises(ValueError):
        parse_preset("nosuch")
    with pytest.raises(ValueError):
        parse_preset("clifford:x")
    with pytest.raises(ValueError):
        parse_preset("quaternionic:3")
    with pytest.raises(ValueError):
        parse_preset("color_image:e99")
    # selector is case and hyphen tolerant
    assert parse_preset("Color-Image").sig == Signature(4, 0)


_E12 = Multivector.blade(Signature(4, 0), "e12")
_UNKNOWN = ("unknown preset 'nosuch'; choose from ('clifford', 'buelow', "
            "'quaternionic', 'spacetime', 'color_image', 'cylindrical')")


@pytest.mark.parametrize("build, args, message", [
    (preset, ("nosuch",), _UNKNOWN),
    (parse_preset, ("nosuch:2",), _UNKNOWN),
    (preset, ("buelow",), "preset 'buelow' needs the dimension parameter n"),
    (preset, ("color_image", 2), "preset 'color_image' takes no dimension parameter"),
    (preset, ("clifford", 2, _E12), "preset 'clifford' takes no bivector"),
    (parse_preset, ("spacetime:2",), "preset 'spacetime' takes no parameter"),
    (parse_preset, ("buelow:x",), "preset 'buelow' needs an integer parameter"),
    (parse_preset, ("color_image:e9",),
     "bad bivector label 'e9': basis index 9 not in Cl(4,0)"),
], ids=["unknown", "unknown-selector", "needs-n", "no-n", "no-bivector",
        "no-parameter", "integer-parameter", "bad-label"])
def test_preset_errors(build, args, message):
    with pytest.raises(ValueError) as exc:
        build(*args)
    assert str(exc.value) == message


def test_verify_presets_order():
    assert VERIFY_PRESETS == ("clifford:2", "clifford:3", "buelow:2", "quaternionic",
                              "spacetime", "color_image", "cylindrical:2",
                              "cylindrical:3")


def test_separability_classification():
    for name in ("clifford:2", "clifford:3", "buelow:2", "quaternionic",
                 "spacetime", "color_image", "cylindrical:2"):
        spec = parse_preset(name)
        assert is_separable(spec, "left"), name
        assert is_separable(spec, "right"), name
    odd = parse_preset("cylindrical:3")
    assert not is_separable(odd, "left")
    assert is_separable(odd, "right")  # no right kernels at all
    with pytest.raises(NotSeparable) as err:
        side_directions(odd, "left")
    assert "left kernel 1" in str(err.value)
    with pytest.raises(ValueError):
        side_directions(odd, "middle")


def test_side_directions_are_units():
    spec = parse_preset("quaternionic")
    (left,) = side_directions(spec, "left")
    (right,) = side_directions(spec, "right")
    assert (left * left + 1.0).magnitude() <= 1e-12
    assert (right * right + 1.0).magnitude() <= 1e-12


def test_negate_flips_selected_kernels():
    spec = parse_preset("quaternionic")
    flipped = negate(spec, (0,), (1,))
    assert np.allclose(flipped.left[0].tensor, spec.left[0].tensor)
    assert np.allclose(flipped.right[0].tensor, -spec.right[0].tensor)
    same = negate(spec, (0,), (0,))
    assert np.allclose(same.right[0].tensor, spec.right[0].tensor)
    with pytest.raises(ValueError):
        negate(spec, (0, 1), (0,))
    with pytest.raises(ValueError):
        negate(spec, (2,), (0,))


def test_gft_spec_rejects_mismatched_kernels():
    sig = Signature(0, 2)
    other = Signature(2, 0)
    k_other = KernelMatrix.sparse(other, 2, [])
    with pytest.raises(ValueError):
        GftSpec(sig, 2, (k_other,), ())
    k_small = KernelMatrix.sparse(sig, 1, [])
    with pytest.raises(ValueError):
        GftSpec(sig, 2, (), (k_small,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_matrix_rejects_non_finite_entries(bad):
    sig = Signature(0, 2)
    entry = Multivector(sig, [0.0, 1.0, bad, 0.0])
    with pytest.raises(ValueError, match="finite"):
        KernelMatrix.sparse(sig, 2, [(0, 0, entry)])
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        KernelMatrix.sparse(sig, 2, [(1, 1, Multivector.blade(sig, "e1"))]).scaled(bad)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_cylindrical_blades_are_imaginary_by_construction(n):
    # x ^ u is a simple bivector (the Plucker relations) and every e_jl
    # squares to -1, so f^2 is a real <= 0 at every (x, u)
    spec = parse_preset(f"cylindrical:{n}")
    kern = spec.left[0]
    f = kern.factors
    assert f.direction is None and len(f.blades) == n * (n - 1) // 2
    assert f.imaginary
    assert (n == 3) == (len(f.pairs[2]) == 0)  # n = 3: no commuting pair
    # scaled copies are factored afresh and reach the same verdict
    assert negate(spec, [1], []).left[0].factors.imaginary
    for c in (TAU, -0.37):
        assert kern.scaled(c).factors.imaginary
        assert KernelMatrix(kern.sig, kern.tensor * c).factors.imaginary


def test_blade_kernels_off_the_plucker_relations_are_not_imaginary():
    # x_1 u_1 e12 + x_2 u_2 e34: e12 and e34 commute, so f^2 has an
    # e1234 part wherever x_1 u_1 x_2 u_2 != 0
    sig = Signature(0, 4)
    kern = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e12")),
                                        (1, 1, Multivector.blade(sig, "e34"))])
    assert not kern.factors.imaginary
    # cylindrical:4 with one entry doubled
    cyl = parse_preset("cylindrical:4").left[0]
    t = cyl.tensor.copy()
    t[0, 1] *= 2.0
    assert not KernelMatrix(cyl.sig, t).factors.imaginary
    # e1 squares to +1 in Cl(1,1): a scalar part of either sign
    sig = Signature(1, 1)
    mixed = KernelMatrix.sparse(sig, 2, [(0, 0, Multivector.blade(sig, "e1")),
                                         (1, 1, Multivector.blade(sig, "e2"))])
    assert mixed.factors.direction is None and not mixed.factors.imaginary
