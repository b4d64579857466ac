"""Acceptance gate: one timed pass/fail line per release criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each test
also asserts, so a FAIL line always fails the suite.
"""

import argparse
import math
import time

import numpy as np
import pytest

from gafourier.algebra import Multivector, Signature, gp_many
from gafourier.cli import _verify_lines, main
from gafourier.commsplit import split_multi
from gafourier.exponential import exp_imag
from gafourier.fileio import read_grid_file, read_kernels, write_field, write_kernels
from gafourier.kernels import VERIFY_PRESETS, is_separable, parse_preset
from gafourier.theorems import check_right_product, check_shift
from gafourier.transform import (
    SampledField,
    Spectrum,
    default_freqs,
    dft_complex_oracle,
    gft,
)

from conftest import SIGNATURES_SMALL, exp_series, rand_mv, rand_root, root_family


def _line(num, name, ok, dt, extra=""):
    tail = f" {extra}" if extra else ""
    print(f"CRITERION {num} {name}: {'PASS' if ok else 'FAIL'} ({dt:.1f}s){tail}")


def _row_mags(rows):
    return np.sqrt((rows * rows).sum(axis=1))


def test_criterion_1_algebra_suite():
    t0 = time.perf_counter()
    worst = 0.0
    exact_ok = True
    rng = np.random.default_rng(101)
    for sig in SIGNATURES_SMALL:
        a, b, c = (rng.uniform(-1, 1, (1000, sig.dim)) for _ in range(3))
        lhs = gp_many(sig, gp_many(sig, a, b), c)
        rhs = gp_many(sig, a, gp_many(sig, b, c))
        rel = _row_mags(lhs - rhs) / np.maximum(1.0, _row_mags(lhs))
        worst = max(worst, float(rel.max()))
        grades = np.array([int(m).bit_count() for m in range(sig.dim)])
        rev = np.where(grades * (grades - 1) // 2 % 2 == 1, -1.0, 1.0)
        lhs = gp_many(sig, a, b) * rev
        rhs = gp_many(sig, b * rev, a * rev)
        rel = _row_mags(lhs - rhs) / np.maximum(1.0, _row_mags(lhs))
        worst = max(worst, float(rel.max()))
        for j in range(1, sig.n + 1):
            ej = Multivector.basis_vector(sig, j)
            if (ej * ej).coeffs[0] != sig.eps(j):
                exact_ok = False
            for k in range(j + 1, sig.n + 1):
                ek = Multivector.basis_vector(sig, k)
                if (ej * ek + ek * ej).magnitude() != 0.0:
                    exact_ok = False
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and exact_ok and dt < 10.0
    _line(1, "algebra suite", ok, dt, f"max_rel_err={worst:.3e}")
    assert ok


def test_criterion_2_exponential_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    max_mag = 0.0
    for sig in SIGNATURES_SMALL:
        for _ in range(200):
            f = rand_root(sig, rng, max_mag=4.0)
            closed = exp_imag(f)
            series = exp_series(-f)
            worst = max(worst, (closed - series).magnitude())
            max_mag = max(max_mag, closed.magnitude())
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and max_mag <= 2.0 + 1e-12
    _line(2, "exponential agreement", ok, dt,
          f"max_err={worst:.3e} max_magnitude={max_mag:.6f}")
    assert ok


def test_criterion_3_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for sig in (Signature(0, 2), Signature(3, 0), Signature(3, 1)):
        labels = root_family(sig)
        for d in (1, 2, 3):
            gens = [Multivector.blade(sig, labels[k % len(labels)],
                                      rng.uniform(0.5, 2.0))
                    for k in range(d)]
            a = rand_mv(sig, rng)
            scale = max(1.0, a.magnitude())
            for direction in ("forward", "backward"):
                comps = split_multi(a, gens, direction)
                total = Multivector.zero(sig)
                for bits, comp in comps.items():
                    total = total + comp
                    for k, b in enumerate(gens):
                        sign = -1.0 if bits[k] else 1.0
                        err = (comp * b - sign * (b * comp)).magnitude()
                        worst = max(worst, err / (scale * b.magnitude()))
                worst = max(worst, (total - a).magnitude() / scale)
            fvals = [g * (0.6 / g.magnitude()) for g in gens]
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
            worst = max(worst, (lhs - rhs).magnitude() / scale)
    dt = time.perf_counter() - t0
    ok = worst < 1e-12
    _line(3, "decomposition", ok, dt, f"max_err={worst:.3e}")
    assert ok


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    sig = Signature(2, 0)
    spec = parse_preset("clifford:2")
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(5):
        field = SampledField.random(sig, (16, 16), rng)
        vals = field.values.copy()
        vals[:, 1] = vals[:, 2] = 0.0
        field = field.with_values(vals)
        freqs = default_freqs(field)
        got = gft(spec, field, freqs).values
        complex_grid = (vals[:, 0] + 1j * vals[:, 3]).reshape(16, 16)
        want = dft_complex_oracle(complex_grid, freqs, field.origin,
                                  field.spacing).reshape(-1)
        dev = np.abs(got[:, 0] + 1j * got[:, 3] - want).max()
        dev = max(dev, np.abs(got[:, 1]).max(), np.abs(got[:, 2]).max())
        worst = max(worst, float(dev))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 30.0
    _line(4, "oracle equivalence", ok, dt, f"max_dev={worst:.3e}")
    assert ok


def test_criterion_5_identity_suite(capsys):
    t0 = time.perf_counter()
    failures = []
    for preset_name in VERIFY_PRESETS:
        for seed in range(5):
            args = argparse.Namespace(
                theorem="all", preset=preset_name, seed=seed, size=8, tol=None
            )
            for line, bad in _verify_lines(args):
                if bad:
                    failures.append(f"{preset_name} seed={seed}: {line}")
    # term structure of the product and shift sums on dedicated fields
    rng = np.random.default_rng(505)
    spec = parse_preset("buelow:2")
    field = SampledField.random(spec.sig, (8, 8), rng)
    rep = check_right_product(spec, rand_mv(spec.sig, rng), field,
                              default_freqs(field))
    structure_ok = rep.passed and rep.detail == "terms=4"
    padded = SampledField.random(spec.sig, (8, 8), rng, border=3)
    rep = check_shift(spec, padded, (3.0, -1.0), default_freqs(padded))
    structure_ok &= rep.passed and rep.detail == "terms=1x2"
    quat = parse_preset("quaternionic")
    qpad = SampledField.random(quat.sig, (8, 8), rng, border=3)
    rep = check_shift(quat, qpad, (3.0, -1.0), default_freqs(qpad))
    structure_ok &= rep.passed and "collapsed_residual=" in rep.detail
    dt = time.perf_counter() - t0
    ok = not failures and structure_ok and dt < 300.0
    with capsys.disabled():
        _line(5, "identity suite", ok, dt,
              f"presets={len(VERIFY_PRESETS)} seeds=5 failures={len(failures)}")
    assert ok, failures


def test_criterion_6_separability_classification():
    t0 = time.perf_counter()
    ok = True
    for name in ("clifford:2", "buelow:2", "quaternionic", "spacetime",
                 "color_image"):
        spec = parse_preset(name)
        ok &= is_separable(spec, "left") and is_separable(spec, "right")
    ok &= is_separable(parse_preset("cylindrical:2"), "left")
    for n in (3, 4):
        ok &= not is_separable(parse_preset(f"cylindrical:{n}"), "left")
    dt = time.perf_counter() - t0
    _line(6, "separability classification", ok, dt)
    assert ok


def test_criterion_7_cli_round_trips(tmp_path, capsys):
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(707)
    field = SampledField.random(Signature(0, 2), (5, 4), rng)
    for binary in (False, True):
        path = tmp_path / f"f{binary}.mvf"
        write_field(path, field, binary=binary)
        back = read_grid_file(path)
        ok &= isinstance(back, SampledField)
        ok &= back.dims == field.dims and back.origin == field.origin
        ok &= np.array_equal(back.values, field.values)
    for name in ("quaternionic", "spacetime", "cylindrical:3"):
        first, second = tmp_path / "k1.gft", tmp_path / "k2.gft"
        write_kernels(first, parse_preset(name))
        write_kernels(second, read_kernels(first))
        ok &= first.read_text() == second.read_text()
    ok &= main(["verify", "--preset", "quaternionic", "--size", "6"]) == 0
    ok &= main(["verify", "--preset", "quaternionic", "--size", "6",
                "--tol", "1e-30"]) == 1
    capsys.readouterr()
    ppm = tmp_path / "img.ppm"
    payload = rng.integers(0, 256, size=8 * 8 * 3, dtype=np.uint8).tobytes()
    ppm.write_bytes(b"P6\n8 8\n255\n" + payload)
    out = tmp_path / "img.mvf"
    t_img = time.perf_counter()
    ok &= main(["image", "--input", str(ppm), "--out", str(out)]) == 0
    spectrum = read_grid_file(out)
    ok &= isinstance(spectrum, Spectrum)
    img_dt = time.perf_counter() - t_img
    ok &= spectrum.values.shape == (64, 16) and img_dt < 5.0
    dt = time.perf_counter() - t0
    with capsys.disabled():
        _line(7, "cli round trips", ok, dt, f"image_transform={img_dt:.2f}s")
    assert ok
