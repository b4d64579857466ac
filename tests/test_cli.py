"""Command line behaviour: happy paths, exit codes, output shapes."""

import argparse
import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from gafourier import cli, kernels, theorems, transform
from gafourier.algebra import Multivector, Signature
from gafourier.cli import main
from gafourier.exponential import NotImaginary
from gafourier.fileio import (
    FileFormatError,
    read_grid_file,
    write_field,
    write_kernels,
    write_spectrum,
)
from gafourier.kernels import NotSeparable, UnsupportedSignature, parse_preset
from gafourier.theorems import OffGridShift, UnsupportedScale
from gafourier.transform import SampledField, Spectrum, default_freqs, gft, plan


@pytest.fixture
def field_file(tmp_path):
    rng = np.random.default_rng(7)
    field = SampledField.random(Signature(0, 2), (6, 6), rng)
    path = tmp_path / "field.mvf"
    write_field(path, field)
    return path, field


def test_transform_with_preset(tmp_path, field_file):
    path, field = field_file
    out = tmp_path / "spec.mvf"
    rc = main(["transform", "--field", str(path), "--preset", "quaternionic",
               "--out", str(out)])
    assert rc == 0
    got = read_grid_file(out)
    assert isinstance(got, Spectrum)
    want = gft(parse_preset("quaternionic"), field, default_freqs(field))
    assert np.allclose(got.values, want.values, atol=1e-15)


def test_transform_with_kernel_file_and_binary(tmp_path, field_file):
    path, field = field_file
    kfile = tmp_path / "quat.gft"
    write_kernels(kfile, parse_preset("quaternionic"))
    out = tmp_path / "spec.mvf"
    rc = main(["transform", "--field", str(path), "--kernels", str(kfile),
               "--freqs", "auto:0.5", "--out", str(out), "--binary"])
    assert rc == 0
    got = read_grid_file(out)
    want = gft(parse_preset("quaternionic"), field, default_freqs(field, 0.5))
    assert np.array_equal(got.values, want.values)
    assert np.allclose(got.grid.spacing, np.array(default_freqs(field, 0.5).spacing))


def test_transform_with_freqs_file(tmp_path, field_file):
    path, field = field_file
    ffile = tmp_path / "grid.freqs"
    from gafourier.fileio import write_freqs

    write_freqs(ffile, default_freqs(field, 2.0))
    out = tmp_path / "spec.mvf"
    rc = main(["transform", "--field", str(path), "--preset", "quaternionic",
               "--freqs", str(ffile), "--out", str(out)])
    assert rc == 0
    assert read_grid_file(out).dims == (6, 6)


def test_transform_error_exit_codes(tmp_path, field_file, capsys):
    path, _ = field_file
    out = tmp_path / "spec.mvf"
    # missing input file: I/O failure
    rc = main(["transform", "--field", str(tmp_path / "nope.mvf"),
               "--preset", "quaternionic", "--out", str(out)])
    assert rc == 3
    # signature mismatch between preset and field
    rc = main(["transform", "--field", str(path), "--preset", "clifford:2",
               "--out", str(out)])
    assert rc == 2
    assert "error: spec is over Cl(2,0), field over Cl(0,2)" in capsys.readouterr().err
    # signature above the dimension cap: one line, no traceback
    rc = main(["transform", "--field", str(path), "--preset", "buelow:11",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: p + q must not exceed 10\n"
    # unsupported preset parameter
    rc = main(["transform", "--field", str(path), "--preset", "clifford:4",
               "--out", str(out)])
    assert rc == 2
    # unknown preset name
    rc = main(["transform", "--field", str(path), "--preset", "nosuch",
               "--out", str(out)])
    assert rc == 2
    # bad frequency selector
    rc = main(["transform", "--field", str(path), "--preset", "quaternionic",
               "--freqs", "auto:x", "--out", str(out)])
    assert rc == 2
    assert "bad frequency scale in 'auto:x'" in capsys.readouterr().err
    # a scale that is not a positive finite number
    for scale in ("nan", "inf", "-1"):
        rc = main(["transform", "--field", str(path), "--preset", "quaternionic",
                   "--freqs", f"auto:{scale}", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: scale must be positive and finite\n"
    # unwritable output location
    rc = main(["transform", "--field", str(path), "--preset", "quaternionic",
               "--out", str(tmp_path / "nodir" / "x.mvf")])
    assert rc == 3
    capsys.readouterr()


_KIND = "kind field\n"
_FREQS_TWICE = "freqs 1\ndims 6 6\ndims 6 6\norigin 0.0 0.0\nspacing 1.0 1.0\n"
_KERNEL_HEAD = "gft-kernels 1\nsignature 0 2\n"
_BAD_BLADE = _KERNEL_HEAD + "m 2\nkernel left\nentry 1 1 1*e9\n"


@pytest.mark.parametrize("option, name, content, message", [
    ("--field", "twice.mvf", lambda field: field.replace(_KIND, 2 * _KIND),
     "duplicate header key 'kind'"),
    ("--field", "kindless.mvf", lambda field: field.replace(_KIND, ""),
     "missing header key 'kind'"),
    ("--freqs", "twice.freqs", lambda field: _FREQS_TWICE,
     "duplicate header key 'dims'"),
    ("--kernels", "blade.gft", lambda field: _BAD_BLADE,
     "blade 'e9' is not valid in Cl(0,2): basis index 9 not in Cl(0,2) "
     "(in '1*e9')"),
    ("--kernels", "negative.gft", lambda field: _KERNEL_HEAD + "m -1\nkernel left\n",
     "m must be at least 1, got -1"),
    ("--kernels", "empty.gft", lambda field: _KERNEL_HEAD + "m 0\nkernel left\n",
     "m must be at least 1, got 0"),
    ("--kernels", "overflow.gft", lambda field: _KERNEL_HEAD + "m 2\nkernel left\n"
     + 2 * "entry 1 1 1e308*e1\n", "kernel entries must be finite"),
    ("--kernels", "sum.gft", lambda field: _KERNEL_HEAD + "m 2\nkernel left\n"
     "entry 1 1 1e308*e1 + 1e308*e1\n",
     "terms of '1e308*e1 + 1e308*e1' sum past the float range"),
    ("--kernels", "eleven.gft", lambda field: "gft-kernels 1\nsignature 11 0\nm 1\n",
     "bad signature: p + q must not exceed 10"),
    ("--field", "eleven.mvf", lambda field: field.replace("signature 0 2", "signature 6 5"),
     "bad header value: p + q must not exceed 10"),
], ids=["mvf-duplicate-key", "mvf-missing-key", "freqs-duplicate-key",
        "kernel-bad-blade", "kernel-negative-m", "kernel-zero-m",
        "kernel-entries-overflow", "kernel-expression-overflows",
        "kernel-signature-above-cap", "mvf-signature-above-cap"])
def test_reader_errors_name_the_file(tmp_path, field_file, capsys, option, name,
                                     content, message):
    path, _ = field_file
    bad = tmp_path / name
    bad.write_text(content(path.read_text()))
    options = {"--field": str(path), "--preset": "quaternionic"}
    if option == "--kernels":
        del options["--preset"]
    options[option] = str(bad)
    out = tmp_path / "spec.mvf"
    rc = main(["transform", *(a for kv in options.items() for a in kv),
               "--out", str(out)])
    assert rc == 2
    # one line, with no numpy warning or message that lacks the path
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not out.exists()


def test_transform_refuses_non_finite_field(tmp_path, field_file, capsys):
    path, _ = field_file
    lines = path.read_text().splitlines()
    data = lines.index("data")
    lines[data + 5] = "0.25 0.25 nan 0.25"
    nan_path = tmp_path / "nan.mvf"
    nan_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "nan.out.mvf"
    rc = main(["transform", "--field", str(nan_path), "--preset",
               "quaternionic", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "NaN" in capsys.readouterr().err


def test_transform_refuses_an_overflowing_kernel_square(tmp_path, capsys):
    # frequencies near 1e155 keep every kernel coordinate finite while
    # |f|^2 overflows: refused, not written as a NaN spectrum
    from gafourier.fileio import write_freqs
    from gafourier.transform import FreqGrid

    path, ffile, out = tmp_path / "f.mvf", tmp_path / "big.freqs", tmp_path / "o.mvf"
    write_field(path, SampledField.random(Signature(0, 3), (3, 3, 3),
                                          np.random.default_rng(3)))
    write_freqs(ffile, FreqGrid((2, 2, 2), (1e155,) * 3, (1.0,) * 3))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["transform", "--field", str(path), "--preset", "cylindrical:3",
                   "--freqs", str(ffile), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "does not square to a negative real" in capsys.readouterr().err


def test_refused_transform_prints_only_its_error(tmp_path):
    # no numpy RuntimeWarning reaches stderr ahead of the error line
    from gafourier.fileio import write_freqs
    from gafourier.transform import FreqGrid

    path, ffile, out = tmp_path / "f.mvf", tmp_path / "big.freqs", tmp_path / "o.mvf"
    write_field(path, SampledField.random(Signature(0, 3), (3, 3, 3),
                                          np.random.default_rng(3)))
    write_freqs(ffile, FreqGrid((2, 2, 2), (1e155,) * 3, (1.0,) * 3))
    proc = subprocess.run(
        [sys.executable, "-m", "gafourier", "transform", "--field", str(path),
         "--preset", "cylindrical:3", "--freqs", str(ffile), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: left kernel 1: sample 1 does not square to a negative real\n")
    assert not out.exists()


def test_transform_rejects_spectrum_input(tmp_path, field_file, capsys):
    path, field = field_file
    spec_path = tmp_path / "already.mvf"
    rc = main(["transform", "--field", str(path), "--preset", "quaternionic",
               "--out", str(spec_path)])
    assert rc == 0
    rc = main(["transform", "--field", str(spec_path), "--preset",
               "quaternionic", "--out", str(tmp_path / "twice.mvf")])
    assert rc == 2
    assert "spectrum" in capsys.readouterr().err


def test_transform_refuses_kernels_of_another_rank(tmp_path, field_file, capsys):
    # the kernel file's signature is the field's, its m is not; only gft
    # compares a spec with its field
    path, _ = field_file
    kfile = tmp_path / "rank1.gft"
    kfile.write_text("gft-kernels 1\nsignature 0 2\nm 1\n"
                     "kernel right\nentry 1 1 6.283185307179586*e1\n")
    out = tmp_path / "spec.mvf"
    rc = main(["transform", "--field", str(path), "--kernels", str(kfile),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "error: spec has m=1, field has m=2" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    NotImaginary, NotSeparable, UnsupportedSignature, UnsupportedScale,
    OffGridShift, FileFormatError,
])
def test_bad_input_errors_exit_two(monkeypatch, capsys, error):
    # every error the package raises for bad input is a ValueError
    def failing(args):
        raise error("bad input")

    monkeypatch.setitem(cli._COMMANDS, "presets", failing)
    assert main(["presets"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: bad input\n"


@pytest.mark.parametrize("error, detail", [
    (MemoryError("Unable to allocate 298. GiB"), "Unable to allocate 298. GiB"),
    (MemoryError(), "allocation failed"),
])
def test_input_too_large_for_memory_exits_two(monkeypatch, tmp_path, field_file,
                                              capsys, error, detail):
    # the transform's callee fails as numpy does on a 100000 x 100000 grid,
    # without allocating anything here
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "gft", failing)
    path, _ = field_file
    out = tmp_path / "spec.mvf"
    rc = main(["transform", "--field", str(path), "--preset", "quaternionic",
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: input too large for memory: {detail}\n"
    assert not out.exists()


def test_argparse_failures_exit_two(capsys):
    assert main(["bogus"]) == 2
    assert main(["transform", "--field", "x"]) == 2      # no kernel source
    assert main(["verify", "--preset", "quaternionic", "--theorem", "nope"]) == 2
    capsys.readouterr()


def test_main_builds_its_parser_once(monkeypatch, tmp_path, field_file, capsys):
    # one parser serves every call, and each call starts from its defaults:
    # neither an earlier --binary nor a failed parse carries over
    built = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda build=cli.build_parser: built.append(1) or build())
    path, _ = field_file
    out = tmp_path / "spec.mvf"
    argv = ["transform", "--field", str(path), "--preset", "quaternionic", "--out", str(out)]
    assert main(argv + ["--binary"]) == 0
    assert out.read_bytes().startswith(b"mvf 1 binary\n")
    assert main(argv + ["--bogus"]) == 2
    assert main(argv) == 0
    assert out.read_bytes().startswith(b"mvf 1 text\n")
    assert built == [1]
    capsys.readouterr()


def test_verify_all_passes(capsys):
    rc = main(["verify", "--preset", "quaternionic", "--seed", "3", "--size", "7"])
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("THEOREM")]
    assert rc == 0
    # linearity + 3 scalings + 2 products + shift + existence
    assert len(lines) == 8
    assert all(l.endswith("PASS") for l in lines)


def test_verify_single_theorem(capsys):
    rc = main(["verify", "--preset", "buelow:2", "--theorem", "existence",
               "--size", "6"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0 and len(out) == 1
    assert out[0].startswith("THEOREM existence") and out[0].endswith("PASS")


def test_verify_tol_reaches_the_existence_check(capsys):
    def bound(*extra):
        rc = main(["verify", "--preset", "quaternionic", "--theorem",
                   "existence", *extra])
        line = capsys.readouterr().out.strip()
        assert rc == 0, line
        return float(line.split("bound=")[1].split()[0])

    # the threshold is bound + tol * max(1, bound); the bound exceeds 1
    plain = bound()
    assert plain > 1.0
    assert bound("--tol", "0.5") == pytest.approx(1.5 * plain, rel=1e-6)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_verify_rejects_a_tolerance_outside_the_contract(capsys, tol):
    rc = main(["verify", "--preset", "quaternionic", "--theorem", "existence",
               f"--tol={tol}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "--tol must be finite and non-negative" in captured.err


def test_verify_factors_each_preset_kernel_once(monkeypatch):
    calls = []
    build = kernels._factor

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(kernels, "_factor", counting)
    kernels.parse_preset.cache_clear()  # fresh specs, whatever ran before
    count = 0
    for sel in kernels.VERIFY_PRESETS:
        args = argparse.Namespace(theorem="all", preset=sel, seed=3, size=8, tol=None)
        assert not any(bad for _, bad in cli._verify_lines(args))
        spec = parse_preset(sel)
        count += len(spec.left + spec.right)
    # one factorization per preset kernel; sign flips factor nothing, on
    # every engine, cylindrical:2's expansion engine included
    assert count == 14 and len(calls) == count


def test_each_theorem_prints_its_lines_of_all_and_builds_only_its_fields(monkeypatch):
    # every value is drawn in one order whichever checks run, so `--theorem
    # T` prints the lines `--theorem all` prints for T; a field is built
    # only for a check that reads it: linearity two, shift the padded
    # field, every other check the base field
    built = []
    build = SampledField._on_unit_grid
    monkeypatch.setattr(SampledField, "_on_unit_grid",
                        classmethod(lambda cls, *args: built.append(args) or build(*args)))
    for sel in kernels.VERIFY_PRESETS:
        args = argparse.Namespace(theorem="all", preset=sel, seed=5, size=8, tol=None)
        built.clear()
        lines = [line for line, _ in cli._verify_lines(args)]
        assert [edge > 0 for *_, edge in built] == [False, False, True]
        each = []
        for name in cli.THEOREM_NAMES:
            built.clear()
            args.theorem = name
            each += [line for line, _ in cli._verify_lines(args)]
            edges = {"linearity": [False, False], "shift": [True]}.get(name, [False])
            assert [edge > 0 for *_, edge in built] == edges, (sel, name)
        assert each == lines, sel


def test_importing_the_package_leaves_logging_unimported():
    # `transform._logger` imports logging on the first plan: importing it
    # with the package would add about 9 ms to every start
    code = "import sys, gafourier, gafourier.cli; print('logging' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_parse_preset_shares_one_spec_per_selector():
    kernels.parse_preset.cache_clear()
    spec = parse_preset("quaternionic")
    assert parse_preset("quaternionic") is spec
    assert parse_preset("clifford:2") is not spec
    assert parse_preset("Quaternionic") is not spec
    # a bivector spec built by `preset` is new on every call
    e12 = Multivector.blade(Signature(4, 0), "e12")
    assert kernels.preset("color_image", bivector=e12) is not kernels.preset(
        "color_image", bivector=e12)
    size = kernels.parse_preset.cache_info().maxsize
    assert size is not None
    for n in range(size + 1):
        parse_preset(f"buelow:{'0' * n}1")  # distinct texts, one preset
    assert kernels.parse_preset.cache_info().currsize == size
    assert parse_preset("quaternionic") is not spec


def _arrays(value):
    """The arrays of a kept record: itself, or those of a tuple's items."""
    if isinstance(value, np.ndarray):
        return [value]
    return [a for v in value for a in _arrays(v)] if isinstance(value, tuple) else []


def test_shared_spec_plans_are_read_only():
    # every array the plan of a shared spec keeps, after each check ran:
    # its bases and axes layout, and every record of its store (the
    # expansion engine's field grids, the axes engine's grid plans with
    # their phase tables, and its flip-set matrices)
    kernels.parse_preset.cache_clear()
    for sel in kernels.VERIFY_PRESETS:
        args = argparse.Namespace(theorem="all", preset=sel, seed=3, size=8, tol=None)
        assert not any(bad for _, bad in cli._verify_lines(args))
        rec = transform._spec_plan(parse_preset(sel))
        arrays = [v for b in rec.order for v in (b.forms, b.step, b.gather, b.sign,
                                                 b.squares, b.upper, b.quad, *(b.pairs or ()))]
        kinds = {key[0] for key in rec.kept}
        if rec.axes is not None:
            assert kinds == {"matrix", "plan"}, sel
            arrays += [rec.axes.keys, rec.axes.which, rec.axes.conj]
        else:
            assert kinds == {"grid"}, sel
        for record, size in rec.kept.values():
            kept = _arrays(record)
            assert kept and size == sum(v.nbytes for v in kept)
            arrays += kept
        for kern in parse_preset(sel).left + parse_preset(sel).right:
            arrays += [kern.tensor, kern.factors.forms, kern.factors.direction,
                       kern.factors.blades]
        arrays = [v for v in arrays if v is not None]
        assert arrays
        for v in arrays:
            assert not v.flags.writeable, sel
        assert len(rec.kept) <= transform._KEPT
        assert sum(size for _, size in rec.kept.values()) <= transform._KEPT_BYTES


@pytest.mark.parametrize("selector, engine", [
    ("quaternionic", "axes"), ("color_image", "axes"), ("cylindrical:3", "expansion"),
])
def test_verify_runs_the_engine_transform_runs(caplog, selector, engine):
    spec = parse_preset(selector)
    field = SampledField.random(spec.sig, (4,) * spec.m, np.random.default_rng(0))
    assert plan(spec, field, default_freqs(field)).engine == engine
    args = argparse.Namespace(theorem="all", preset=selector, seed=3, size=8, tol=None)
    with caplog.at_level(logging.DEBUG, logger="gafourier"):
        assert not any(bad for _, bad in cli._verify_lines(args))
    plans = [r.getMessage() for r in caplog.records if r.getMessage().startswith("plan:")]
    assert plans and all(m.startswith(f"plan: {engine} engine") for m in plans), plans


def test_verify_scaling_runs_the_theorems_factor_table(capsys):
    from gafourier.theorems import SCALE_FACTORS, VERIFY_SCALE_FACTORS

    rc = main(["verify", "--preset", "quaternionic", "--theorem", "scaling"])
    names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    assert rc == 0
    assert names == ["scaling[a=-1]", "scaling[a=2]", "scaling[a=0.5]"]
    assert names == [f"scaling[a={a:g}]" for a in VERIFY_SCALE_FACTORS]
    assert set(VERIFY_SCALE_FACTORS) <= set(SCALE_FACTORS)


def test_verify_forced_failure_exits_one(capsys):
    rc = main(["verify", "--preset", "quaternionic", "--theorem", "linearity",
               "--size", "6", "--tol", "1e-30"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_verify_skips_non_separable(capsys):
    rc = main(["verify", "--preset", "cylindrical:3", "--theorem", "shift",
               "--size", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP(not separable" in out
    rc = main(["verify", "--preset", "cylindrical:3", "--size", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("SKIP") == 2  # left-product and shift
    assert "right-product" in out and "FAIL" not in out


@pytest.mark.parametrize("theorem", ["left-product", "shift"])
def test_verify_skip_makes_no_transform(monkeypatch, capsys, theorem):
    # a side without kernel directions is found before any transform
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return many(*args, **kwargs)

    many = theorems._gft_many
    monkeypatch.setattr(theorems, "_gft_many", counting)
    argv = ["verify", "--preset", "cylindrical:3", "--size", "4", "--theorem"]
    assert main(argv + [theorem]) == 0
    assert "SKIP(not separable" in capsys.readouterr().out
    assert calls == []
    assert main(argv + ["right-product"]) == 0
    assert "PASS" in capsys.readouterr().out and calls


@pytest.mark.parametrize("selector, smallest", [
    ("quaternionic", 7), ("buelow:2", 7), ("clifford:3", 3), ("spacetime", 3),
])
def test_verify_refuses_a_shift_field_with_no_sample(capsys, selector, smallest):
    # one size less leaves the padded field all zero, and its shift check
    # would PASS with residual 0 having tested nothing
    for theorem in ("shift", "all"):
        argv = ["verify", "--preset", selector, "--theorem", theorem]
        assert main(argv + ["--size", str(smallest - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"use --size {smallest} or more" in captured.err
    assert main(["verify", "--preset", selector, "--theorem", "shift",
                 "--size", str(smallest)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.endswith("PASS")
    assert float(line.split("residual=")[1].split()[0]) > 0.0


def test_verify_rejects_bad_invocation(capsys):
    assert main(["verify", "--preset", "clifford:4"]) == 2
    assert main(["verify", "--preset", "quaternionic", "--size", "1"]) == 2
    capsys.readouterr()


def _write_ppm(path, width, height):
    rng = np.random.default_rng(1)
    payload = rng.integers(0, 256, size=width * height * 3, dtype=np.uint8)
    path.write_bytes(f"P6\n{width} {height}\n255\n".encode() + payload.tobytes())


def _spy_on_gft(monkeypatch):
    """The (spec, field, freqs) of every `gft` call the CLI makes."""
    calls = []

    def spy(spec, field, freqs, **kw):
        calls.append((spec, field, freqs))
        return gft(spec, field, freqs, **kw)

    monkeypatch.setattr(cli, "gft", spy)
    return calls


def _color_image_bytes(path, calls):
    # the spectrum each call's input gives through color_image's builder
    e12 = Multivector.blade(Signature(4, 0), "e12")
    spec = kernels.preset("color_image", bivector=e12)
    for _, field, freqs in calls:
        write_spectrum(path, gft(spec, field, freqs, validate=True))
        yield path.read_bytes()


def test_image_transform(tmp_path, monkeypatch, caplog):
    # the default bivector's spec is the shared color_image spec, so a
    # second image of one size reuses its grid plan
    img = tmp_path / "img.ppm"
    _write_ppm(img, 8, 8)
    out = tmp_path / "img.mvf"
    calls = _spy_on_gft(monkeypatch)
    written, plans = [], []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="gafourier"):
            assert main(["image", "--input", str(img), "--out", str(out)]) == 0
        written.append(out.read_bytes())
        plans += [r.getMessage() for r in caplog.records if r.getMessage().startswith("plan:")]
    got = read_grid_file(out)
    assert isinstance(got, Spectrum)
    assert got.sig == Signature(4, 0) and got.dims == (8, 8)
    assert len(plans) == 2 and "; grid plan reused;" in plans[1], plans
    assert calls[0][0] is calls[1][0] is parse_preset("color_image")
    assert written == list(_color_image_bytes(tmp_path / "want.mvf", calls))


def test_image_accepts_bivector_expressions(tmp_path, monkeypatch, capsys):
    img = tmp_path / "img.ppm"
    _write_ppm(img, 4, 4)
    out = tmp_path / "img.mvf"
    calls = _spy_on_gft(monkeypatch)
    # e12 in other words builds its own spec, which gives the same bytes
    rc = main(["image", "--input", str(img), "--out", str(out), "--bivector", "1*e12"])
    assert rc == 0
    assert calls[0][0] is not parse_preset("color_image")
    assert [out.read_bytes()] == list(_color_image_bytes(tmp_path / "want.mvf", calls))
    root_half = repr(2.0 ** -0.5)
    rc = main(["image", "--input", str(img), "--out", str(out),
               "--bivector", f"{root_half}*e12 + {root_half}*e13"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["image", "--input", str(img), "--out", str(out),
               "--bivector", "e12 + e34"])   # squares to -2 + 2 e1234
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: color_image needs a unit bivector with square -1\n")
    rc = main(["image", "--input", str(img), "--out", str(out),
               "--bivector", "garbage"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: bad character 'g' in expression 'garbage'\n")
    rc = main(["image", "--input", str(tmp_path / "nope.ppm"), "--out", str(out)])
    assert rc == 3
    capsys.readouterr()


def test_image_refuses_a_bivector_that_sums_past_the_float_range(tmp_path):
    # each number is finite, their sum is not: one error line, no warning
    img, out = tmp_path / "img.ppm", tmp_path / "img.mvf"
    _write_ppm(img, 4, 4)
    proc = subprocess.run(
        [sys.executable, "-m", "gafourier", "image", "--input", str(img),
         "--bivector", "1e308*e12 + 1e308*e12", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: terms of '1e308*e12 + 1e308*e12' sum past the float range\n")
    assert not out.exists()


def test_image_refuses_a_bivector_whose_square_overflows(tmp_path, capsys):
    img, out = tmp_path / "img.ppm", tmp_path / "img.mvf"
    _write_ppm(img, 4, 4)
    rc = main(["image", "--input", str(img), "--bivector", "1e200*e12 + 1e200*e13",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: color_image needs a unit bivector with square -1\n")
    assert not out.exists()


def test_image_names_an_impure_bivector_whose_norm_overflows(tmp_path, capsys):
    # |1e200 e1 + e12| overflows unscaled; the purity test scales it first
    img, out = tmp_path / "img.ppm", tmp_path / "img.mvf"
    _write_ppm(img, 4, 4)
    rc = main(["image", "--input", str(img), "--bivector", "1e200*e1 + 1*e12",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: color_image needs a pure bivector\n"
    assert not out.exists()


def test_transform_refuses_huge_kernel_entries_in_one_line(tmp_path, field_file, capsys):
    # factoring the kernel squares no entry, so no numpy warning precedes
    # the error line
    path, _ = field_file
    kfile, out = tmp_path / "big.gft", tmp_path / "o.mvf"
    kfile.write_text(_KERNEL_HEAD + "m 2\nkernel left\nentry 1 1 1e200*e1\n")
    rc = main(["transform", "--field", str(path), "--kernels", str(kfile),
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: left kernel 1: sample 0 does not square to a negative real\n")
    assert not out.exists()


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("name")]
    assert len(rows) == 6
    assert any("cylindrical:2" in r and "n = 2" in r for r in rows)
    assert main(["presets", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [row["name"] for row in data] == [
        "clifford:2", "buelow:2", "quaternionic", "spacetime",
        "color_image", "cylindrical:2",
    ]
    assert list(data[0].keys()) == [
        "name", "signature", "m", "mu", "nu",
        "separable_left", "separable_right", "note",
    ]
    assert all(row["separable_left"] and row["separable_right"] for row in data)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gafourier", "presets"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "quaternionic" in proc.stdout
