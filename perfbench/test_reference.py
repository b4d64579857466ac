"""Tests of the benchmark's own reference evaluator and output checks.

Run with `python3 -m pytest perfbench`.  Nothing here imports gafourier:
the evaluator is checked against numpy's complex DFT and the basis rules
of Cl(p,q), so the benchmark's correctness checks do not rest on the
program they judge.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from workloads import Checker, Grid, centred, dft_dual

SIGNATURES = ((2, 0), (0, 2), (3, 0), (3, 1), (4, 0), (0, 3), (1, 4))


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_basis_vectors_square_to_their_metric_sign(p, q):
    alg = ref.Algebra(p, q)
    for j in range(1, alg.n + 1):
        e = alg.vector(j)
        assert np.array_equal(alg.product(e, e), alg.basis(0, 1.0 if j <= p else -1.0))


@pytest.mark.parametrize("p,q", SIGNATURES)
def test_distinct_basis_vectors_anticommute(p, q):
    alg = ref.Algebra(p, q)
    for j in range(1, alg.n + 1):
        for k in range(j + 1, alg.n + 1):
            ej, ek = alg.vector(j), alg.vector(k)
            assert np.array_equal(alg.product(ej, ek), -alg.product(ek, ej))
            assert np.array_equal(alg.product(ej, ek), alg.basis((1 << (j - 1)) | (1 << (k - 1))))


def test_product_is_associative():
    alg = ref.Algebra(3, 1)
    a, b, c = np.random.default_rng(0).uniform(-1, 1, (3, 50, alg.dim))
    left = alg.product(alg.product(a, b), c)
    right = alg.product(a, alg.product(b, c))
    assert np.abs(left - right).max() < 1e-13


@pytest.mark.parametrize("theta", [1e-3, 0.7, 3.0, 40.0, 250.0])
def test_series_exponential_matches_closed_form(theta):
    # e12 in Cl(3,0) squares to -1, so e^{theta e12} = cos(theta) + sin(theta) e12
    alg = ref.Algebra(3, 0)
    got = alg.exp(alg.basis(0b011, theta)[None, :])[0]
    want = alg.basis(0, math.cos(theta)) + alg.basis(0b011, math.sin(theta))
    assert np.abs(got - want).max() < 1e-13 * max(1.0, theta)


def _complex_dft(c: np.ndarray, xs: np.ndarray, us: np.ndarray, vol: float) -> np.ndarray:
    return np.exp(-2j * np.pi * (us @ xs.T)) @ c * vol


def test_clifford2_reference_matches_numpy_complex_dft():
    # Right multiplication by e12 acts as i on (scalar, e12) and (e1, e2).
    pre = ref.preset("clifford:2")
    field = centred((6, 5), 0.5)
    freqs = dft_dual(field)
    values = np.random.default_rng(1).uniform(-1, 1, (field.count, 4))
    got = ref.transform_at(pre, values, field.nodes, field.volume, freqs.nodes)
    for re, im in ((0, 3), (1, 2)):
        want = _complex_dft(values[:, re] + 1j * values[:, im], field.nodes, freqs.nodes,
                            field.volume)
        assert np.abs(got[:, re] - want.real).max() < 1e-12
        assert np.abs(got[:, im] - want.imag).max() < 1e-12


def test_buelow1_reference_matches_numpy_complex_dft_off_lattice():
    # Cl(0,1) is the complex numbers with e1 = i; any frequency grid works.
    pre = ref.preset("buelow:1")
    field = Grid((9,), (-1.3,), (0.37,))
    freqs = Grid((7,), (-0.91,), (0.29,))
    values = np.random.default_rng(2).uniform(-1, 1, (field.count, 2))
    got = ref.transform_at(pre, values, field.nodes, field.volume, freqs.nodes)
    want = _complex_dft(values[:, 0] + 1j * values[:, 1], field.nodes, freqs.nodes, field.volume)
    assert np.abs(got[:, 0] - want.real).max() < 1e-12
    assert np.abs(got[:, 1] - want.imag).max() < 1e-12


@pytest.mark.parametrize("selector", ["quaternionic", "spacetime", "color_image", "cylindrical:3"])
def test_kernel_values_square_to_negative_reals(selector):
    pre = ref.preset(selector)
    rng = np.random.default_rng(3)
    x, u = rng.uniform(-1, 1, (2, 20, pre.m))
    for kern in pre.left + pre.right:
        f = np.einsum("nj,jlk,nl->nk", x, kern, u)
        sq = pre.alg.product(f, f)
        assert np.abs(sq[:, 1:]).max() < 1e-12
        assert (sq[:, 0] <= 1e-12).all()


def test_separability_matches_the_presets():
    assert ref.preset("cylindrical:2").separable("left")
    assert not ref.preset("cylindrical:3").separable("left")
    assert ref.preset("cylindrical:3").separable("right")
    assert ref.preset("color_image").separable("left")


def test_checker_accepts_reference_and_flags_a_perturbed_spectrum():
    pre = ref.preset("clifford:2")
    field = centred((8, 8))
    freqs = dft_dual(field)
    values = np.random.default_rng(4).uniform(-1, 1, (field.count, 4))
    good = ref.transform_at(pre, values, field.nodes, field.volume, freqs.nodes)
    checker = Checker(seed=0)
    checker.spectrum("good", pre, values, field, freqs, good)
    checker.complex_dft("good", values, field, freqs, good)
    assert checker.errors == []

    bad = good.copy()
    bad[freqs.count // 2 + 3, 1] += 1e-6
    checker.complex_dft("bad", values, field, freqs, bad)
    assert len(checker.errors) == 1
    bad = good.copy()
    zero = int(np.flatnonzero((freqs.nodes == 0.0).all(axis=1))[0])
    bad[zero, 0] += 1e-6
    checker.spectrum("bad F(0)", pre, values, field, freqs, bad)
    assert any("F(0)" in msg for msg in checker.errors)


def test_benchmark_json_lists_the_printed_metrics():
    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
