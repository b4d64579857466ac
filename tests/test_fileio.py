"""Text and binary file formats: round trips and rejection of bad input."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gafourier.algebra import Multivector, Signature
from gafourier.fileio import (
    FileFormatError,
    format_multivector_expr,
    parse_multivector_expr,
    read_grid_file,
    read_kernels,
    read_ppm,
    write_field,
    write_freqs,
    read_freqs,
    write_kernels,
    write_spectrum,
)
from gafourier.kernels import parse_preset
from gafourier.transform import FreqGrid, SampledField, Spectrum, default_freqs, gft


SIG = Signature(0, 2)


def test_expression_parser_accepts_documented_forms():
    cases = {
        "0": [0, 0, 0, 0],
        "2.5": [2.5, 0, 0, 0],
        "-1": [-1, 0, 0, 0],
        "e1": [0, 1, 0, 0],
        "-e12": [0, 0, 0, -1],
        "2*e1": [0, 2, 0, 0],
        "1 + 2*e1 - 3*e12": [1, 2, 0, -3],
        "1+2*e1-3*e12": [1, 2, 0, -3],
        "0.5*e1_2": [0, 0, 0, 0.5],
        "e1 + e1": [0, 2, 0, 0],
        "1e3": [1000.0, 0, 0, 0],
    }
    for text, coeffs in cases.items():
        got = parse_multivector_expr(text, SIG)
        assert np.allclose(got.coeffs, coeffs), text


def test_scientific_notation_is_not_a_blade():
    # '*' is mandatory before a blade, so 2e12 reads as the float 2e+12
    got = parse_multivector_expr("2e12", SIG)
    assert got.coeffs[0] == 2e12 and np.count_nonzero(got.coeffs) == 1


def test_expression_parser_rejects_malformed_input():
    bad = ["", "  ", "1 +", "* e1", "e0", "e3", "1 2", "2*", "e1_", "x", "1..5"]
    for text in bad:
        with pytest.raises(FileFormatError):
            parse_multivector_expr(text, SIG)


def test_expression_formatting_is_stable():
    mv = Multivector(SIG, np.array([-3.0, 1.0, 0.0, 2.5]))
    text = format_multivector_expr(mv)
    assert text == "-3.0 + 1.0*e1 + 2.5*e12"
    assert format_multivector_expr(Multivector.zero(SIG)) == "0"
    assert format_multivector_expr(Multivector(SIG, np.array([0.0, -1.0, 0, 0]))) == "-1.0*e1"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4))
def test_expression_round_trip_is_exact(coeffs):
    mv = Multivector(SIG, np.array(coeffs))
    back = parse_multivector_expr(format_multivector_expr(mv), SIG)
    assert np.array_equal(back.coeffs, mv.coeffs)


@pytest.mark.parametrize("binary", [False, True])
def test_field_file_round_trip(tmp_path, binary):
    rng = np.random.default_rng(4)
    field = SampledField.random(SIG, (3, 4), rng)
    path = tmp_path / "field.mvf"
    write_field(path, field, binary=binary)
    back = read_grid_file(path)
    assert isinstance(back, SampledField)
    assert back.sig == field.sig and back.dims == field.dims
    assert back.origin == field.origin and back.spacing == field.spacing
    assert np.array_equal(back.values, field.values)


@pytest.mark.parametrize("binary", [False, True])
def test_spectrum_file_round_trip(tmp_path, binary):
    rng = np.random.default_rng(5)
    field = SampledField.random(SIG, (4, 4), rng)
    spectrum = gft(parse_preset("quaternionic"), field, default_freqs(field))
    path = tmp_path / "spec.mvf"
    write_spectrum(path, spectrum, binary=binary)
    back = read_grid_file(path)
    assert isinstance(back, Spectrum)
    assert back.sig == spectrum.sig and back.grid == spectrum.grid
    assert np.array_equal(back.values, spectrum.values)


def test_text_writer_bytes_match_per_value_repr(tmp_path):
    # -0.0, the smallest subnormal, values near the float limit and values
    # that need all 17 significant digits to round-trip
    rows = np.array([
        [-0.0, 5e-324, 1e308, -1.7976931348623157e308],
        [0.1, 1 / 3, 2.0 / 3.0, math.pi],
        [1.0000000000000002, -2.2250738585072014e-308, 123456789.12345679, 1e-5],
    ])
    field = SampledField(SIG, (3,), (0.0,), (1.0,), rows)
    path = tmp_path / "rows.mvf"
    write_field(path, field)
    head, _, data = path.read_bytes().partition(b"data\n")
    want = "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows)
    assert data == want.encode("ascii")
    assert np.array_equal(read_grid_file(path).values.view(np.uint64), rows.view(np.uint64))


def test_grid_file_rejects_corruption(tmp_path):
    rng = np.random.default_rng(6)
    field = SampledField.random(SIG, (2, 2), rng)
    path = tmp_path / "field.mvf"
    write_field(path, field)
    good = path.read_text()

    def expect_reject(mangled, name):
        p = tmp_path / f"{name}.mvf"
        p.write_text(mangled)
        with pytest.raises(FileFormatError):
            read_grid_file(p)

    expect_reject(good.replace("mvf 1", "mvf 9"), "version")
    expect_reject(good.replace("mvf 1", "xxx 1"), "magic")
    expect_reject(good.replace("signature 0 2", "signature 0"), "sig")
    expect_reject(good.replace("kind field", "kind blob"), "kind")
    expect_reject("\n".join(good.splitlines()[:-1]) + "\n", "short")
    expect_reject(good + "0 0 0 0\n", "long")
    expect_reject(good.replace("dims 2 2", "dims 2 3"), "count")
    expect_reject(good.replace("m 2", "m 1"), "rank")

    binpath = tmp_path / "bin.mvf"
    write_field(binpath, field, binary=True)
    blob = binpath.read_bytes()
    truncated = tmp_path / "trunc.mvf"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError):
        read_grid_file(truncated)


_WRAPPED = 2**64 * SIG.dim


@pytest.mark.parametrize("binary, dims, want", [
    (False, "4294967296 4294967296", f"expected {_WRAPPED} numbers"),
    (True, "4294967296 4294967296", f"expected {8 * _WRAPPED} payload bytes"),
    (False, "-2 -2", "extents must be at least 1"),
    (True, "-2 -2", "extents must be at least 1"),
    (False, "0 4", "extents must be at least 1"),
    (True, "0 4", "extents must be at least 1"),
], ids=["False", "True", "negative-text", "negative-binary", "zero-text", "zero-binary"])
def test_grid_file_rejects_overflowing_dims(tmp_path, binary, dims, want):
    # each `dims` fits its payload in some arithmetic, none as a grid:
    # 2**32 * 2**32 samples wrap to 0 in int64 and 0 * 4 is 0 (both with an
    # empty payload), and -2 * -2 is the 4 rows of the 2x2 field's payload
    path = tmp_path / "field.mvf"
    write_field(path, SampledField.random(SIG, (2, 2), np.random.default_rng(6)),
                binary=binary)
    head, _, data = path.read_bytes().partition(b"\ndata\n")
    path.write_bytes(head.replace(b"dims 2 2", f"dims {dims}".encode())
                     + b"\ndata\n" + (data if dims == "-2 -2" else b""))
    with pytest.raises(FileFormatError, match=want):
        read_grid_file(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_grid_file_rejects_non_finite_values(tmp_path, bad):
    rng = np.random.default_rng(6)
    field = SampledField.random(SIG, (2, 2), rng)
    path = tmp_path / "field.mvf"
    write_field(path, field)
    lines = path.read_text().splitlines()
    data = lines.index("data")
    row = lines[data + 2].split()
    row[1] = bad
    lines[data + 2] = " ".join(row)
    mangled = tmp_path / "payload.mvf"
    mangled.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError):
        read_grid_file(mangled)

    header = path.read_text().replace("origin -1.0 -1.0", f"origin -1.0 {bad}")
    assert header != path.read_text()
    mangled.write_text(header)
    with pytest.raises(FileFormatError):
        read_grid_file(mangled)

    binpath = tmp_path / "bin.mvf"
    write_field(binpath, field, binary=True)
    blob = bytearray(binpath.read_bytes())
    blob[-8:] = np.array([float(bad)], dtype="<f8").tobytes()
    binpath.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError):
        read_grid_file(binpath)


def test_freqs_file_round_trip(tmp_path):
    grid = FreqGrid((4, 2), (-0.5, 0.0), (0.25, 0.125))
    path = tmp_path / "grid.freqs"
    write_freqs(path, grid)
    back = read_freqs(path)
    assert back.dims == grid.dims
    assert back.origin == grid.origin and back.spacing == grid.spacing
    path.write_text("freqs 1\ndims 4\n")
    with pytest.raises(FileFormatError):
        read_freqs(path)


def test_kernel_config_fixpoint(tmp_path):
    for name in ("quaternionic", "spacetime", "color_image", "cylindrical:2"):
        spec = parse_preset(name)
        first = tmp_path / "a.gft"
        second = tmp_path / "b.gft"
        write_kernels(first, spec)
        loaded = read_kernels(first)
        write_kernels(second, loaded)
        assert first.read_text() == second.read_text(), name
        assert loaded.sig == spec.sig and loaded.m == spec.m
        assert len(loaded.left) == len(spec.left)
        assert len(loaded.right) == len(spec.right)
        for a, b in zip(loaded.left + loaded.right, spec.left + spec.right):
            assert np.allclose(a.tensor, b.tensor)


def test_kernel_config_text_shape(tmp_path):
    path = tmp_path / "quat.gft"
    write_kernels(path, parse_preset("quaternionic"))
    lines = path.read_text().splitlines()
    assert lines[0] == "gft-kernels 1"
    assert "signature 0 2" in lines and "m 2" in lines
    assert lines.count("kernel left") == 1 and lines.count("kernel right") == 1
    tau = repr(2.0 * math.pi)
    assert f"entry 1 1 {tau}*e1" in lines
    assert f"entry 2 2 {tau}*e2" in lines


def test_kernel_config_rejects_bad_content(tmp_path):
    path = tmp_path / "bad.gft"
    base = "gft-kernels 1\nsignature 0 2\nm 2\n"
    cases = [
        base + "entry 1 1 1*e1\n",                       # entry before kernel
        base + "kernel middle\nentry 1 1 1*e1\n",        # bad side
        base + "kernel left\nentry 3 1 1*e1\n",          # row out of range
        base + "kernel left\nentry 1 1 1*e9\n",          # unknown blade
        base + "kernel left\nentry 1 1\n",               # missing expression
        "gft-kernels 2\nsignature 0 2\nm 2\n",           # bad version
        base + "kernel left\nentry 0 1 1*e1\n",          # 1-based positions
        base + "kernel left\nentry 1 1 1e999*e1\n",      # overflows to inf
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(FileFormatError):
            read_kernels(path)


def test_ppm_reader(tmp_path):
    path = tmp_path / "img.ppm"
    payload = bytes(range(18))
    path.write_bytes(b"P6\n# comment line\n2 3\n255\n" + payload)
    img = read_ppm(path)
    assert img.shape == (3, 2, 3) and img.dtype == np.uint8
    assert img[0, 0, 0] == 0 and img[2, 1, 2] == 17
    path.write_bytes(b"P3\n2 3\n255\n" + payload)
    with pytest.raises(FileFormatError):
        read_ppm(path)
    path.write_bytes(b"P6\n2 3\n65535\n" + payload)
    with pytest.raises(FileFormatError):
        read_ppm(path)
    path.write_bytes(b"P6\n2 3\n255\n" + payload[:-1])
    with pytest.raises(FileFormatError):
        read_ppm(path)


def _valid_files() -> list[bytes]:
    """Well-formed files of every kind, as starting points for mutation."""
    spec = parse_preset("quaternionic")
    field = SampledField.random(SIG, (2, 2), np.random.default_rng(2))
    freqs = default_freqs(field)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_field(d / "t.mvf", field)
        write_field(d / "b.mvf", field, binary=True)
        write_freqs(d / "g.freqs", freqs)
        write_kernels(d / "k.gft", spec)
        files = [(d / name).read_bytes()
                 for name in ("t.mvf", "b.mvf", "g.freqs", "k.gft")]
    return files + [b"P6\n# comment\n2 1\n255\n" + bytes(range(6))]


@st.composite
def _file_bytes(draw):
    """Arbitrary bytes, or a valid file with a few bytes replaced,
    inserted or deleted, or cut short."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    data = bytearray(draw(st.sampled_from(_VALID_FILES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "cut")))
        if edit == "cut":
            del data[at:]
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            chunk = draw(st.binary(min_size=1, max_size=8))
            data[at:at + (len(chunk) if edit == "replace" else 0)] = chunk
    return bytes(data)


_VALID_FILES = _valid_files()
_READERS = (read_grid_file, read_kernels, read_freqs, read_ppm)


@settings(max_examples=400, deadline=None)
@given(data=_file_bytes())
def test_readers_return_or_raise_format_errors(tmp_path_factory, data):
    # any input either parses or fails as FileFormatError / ValueError
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(data)
    for reader in _READERS:
        try:
            reader(path)
        except ValueError:  # FileFormatError is a ValueError
            pass
