"""The benchmark's workloads: inputs made from the seed, one round of
operations, and checks of the outputs against computations made apart
from the program.

A round runs every operation of a workload once, in a fixed order; the
runner repeats whole rounds.  Each operation is split into `run`, the
timed call into gafourier, and `outcome`, which turns its raw result into
(succeeded, output) outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import files
import reference as ref

# Sampled frequencies must match the reference within REL_TOL * max(1, |F|).
REL_TOL = 1e-9
# Slack on the existence bound 2^nu sum|B| dV, relative to the bound.
BOUND_SLACK = 1e-12


@dataclass
class Op:
    label: str
    pairs: int                          # node-frequency pairs the operation asks for
    run: Callable[[Callable], object]   # run(span) -> raw result; timed
    outcome: Callable[[object], tuple[bool, object]] = lambda raw: (True, raw)


@dataclass
class Grid:
    dims: tuple[int, ...]
    origin: tuple[float, ...]
    spacing: tuple[float, ...]

    @property
    def nodes(self) -> np.ndarray:
        return ref.grid(self.dims, self.origin, self.spacing)

    @property
    def count(self) -> int:
        return math.prod(self.dims)

    @property
    def volume(self) -> float:
        return math.prod(self.spacing)


def centred(dims, spacing=1.0) -> Grid:
    """Spatial grid with unit-free spacing and the node d//2 at the origin."""
    return Grid(tuple(dims), tuple(-(d // 2) * spacing for d in dims), (spacing,) * len(dims))


def dft_dual(field: Grid) -> Grid:
    """Frequency grid of spacing 1/(extent * dx) with u = 0 at index extent//2."""
    du = tuple(1.0 / (d * s) for d, s in zip(field.dims, field.spacing))
    return Grid(field.dims, tuple(-(d // 2) * s for d, s in zip(field.dims, du)), du)


class Checker:
    """Collects the disagreements found in one run's outputs."""

    def __init__(self, seed: int) -> None:
        self.errors: list[str] = []
        self.rng = np.random.default_rng([seed, 1])

    def fail(self, msg: str) -> None:
        self.errors.append(msg)

    def spectrum(self, label: str, pre: ref.Preset, values: np.ndarray, field: Grid,
                 freqs: Grid, out: np.ndarray, samples: int = 3) -> None:
        """Sampled frequencies against the reference, F(0) where the grid has
        u = 0, and the existence bound on every frequency."""
        us = freqs.nodes
        if out.shape != (freqs.count, pre.alg.dim) or not np.isfinite(out).all():
            self.fail(f"{label}: spectrum has shape {out.shape} or non-finite values")
            return
        picks = {freqs.count - 1, int(self.rng.integers(freqs.count))}
        while len(picks) < samples:
            picks.add(int(self.rng.integers(freqs.count)))
        idx = sorted(picks)
        expect = ref.transform_at(pre, values, field.nodes, field.volume, us[idx])
        self.close(label, out[idx], expect, "reference")
        zero = np.flatnonzero((us == 0.0).all(axis=1))
        if len(zero):
            total = values.sum(axis=0) * field.volume
            self.close(f"{label} F(0)", out[zero], total[None, :], "sum B dV")
        bound = 2.0 ** pre.nu * np.sqrt((values * values).sum(axis=1)).sum() * field.volume
        attained = np.sqrt((out * out).sum(axis=1)).max()
        if attained > bound * (1.0 + BOUND_SLACK):
            self.fail(f"{label}: max |F| = {attained:.6e} exceeds 2^nu sum|B| dV = {bound:.6e}")

    def close(self, label: str, got: np.ndarray, want: np.ndarray, what: str) -> None:
        err = np.sqrt(((got - want) ** 2).sum(axis=1))
        allowed = REL_TOL * np.maximum(1.0, np.sqrt((want * want).sum(axis=1)))
        if (err > allowed).any():
            self.fail(f"{label}: deviation {err.max():.3e} from {what} above {allowed.min():.3e}")

    def complex_dft(self, label: str, values: np.ndarray, field: Grid, freqs: Grid,
                    out: np.ndarray) -> None:
        """Full clifford:2 spectrum against numpy.fft.

        In Cl(2,0) right multiplication by I = e12 acts as the imaginary
        unit on both (scalar, e12) and (e1, e2), so each pair is a complex
        field with the plain transform sum_x c(x) e^{-2 pi i x.u} dV.
        """
        (n1, n2), (x1, x2), (d1, d2) = field.dims, field.origin, field.spacing
        u1 = freqs.origin[0] + freqs.spacing[0] * np.arange(n1)
        u2 = freqs.origin[1] + freqs.spacing[1] * np.arange(n2)
        k1, k2 = np.arange(n1), np.arange(n2)
        pre_phase = np.exp(-2j * np.pi * (k1[:, None] * d1 * freqs.origin[0]
                                          + k2[None, :] * d2 * freqs.origin[1]))
        post_phase = np.exp(-2j * np.pi * (x1 * u1[:, None] + x2 * u2[None, :]))
        got = out.reshape(n1, n2, 4)
        for re, im in ((0, 3), (1, 2)):
            c = (values[:, re] + 1j * values[:, im]).reshape(n1, n2)
            want = post_phase * np.fft.fft2(c * pre_phase) * d1 * d2
            pair = np.stack([want.real, want.imag], axis=-1).reshape(-1, 2)
            self.close(f"{label} numpy DFT", got[..., [re, im]].reshape(-1, 2), pair, "numpy.fft")


class Workload:
    name = ""
    presets: tuple[str, ...] = ()   # parsed during set-up
    uses_cli = False
    gft_per_op = False              # each operation is one gft of the preset it is named after
    ops: list[Op]

    def check(self, outputs: dict[str, object], checker: Checker) -> None:
        raise NotImplementedError

    def same(self, a: object, b: object) -> bool:
        """Outputs of one operation in two rounds agree bit for bit."""
        return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class _Library(Workload):
    """Library `gft` with validation on, one operation per preset."""

    gft_per_op = True
    # (preset, field grid, frequency grid or None for the DFT-dual grid)
    CASES: tuple[tuple[str, Grid, Grid | None], ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        import gafourier as ga

        rng = np.random.default_rng(seed)
        self.cases = {}
        self.ops = []
        for sel, grid, freqs in self.CASES:
            freqs = freqs or dft_dual(grid)
            spec = ga.parse_preset(sel)
            values = rng.uniform(-1.0, 1.0, (grid.count, spec.sig.dim))
            field = ga.SampledField(spec.sig, grid.dims, grid.origin, grid.spacing, values)
            fgrid = ga.FreqGrid(freqs.dims, freqs.origin, freqs.spacing)
            self.cases[sel] = (values, grid, freqs)

            def run(span, spec=spec, field=field, fgrid=fgrid):
                return ga.gft(spec, field, fgrid, validate=True).values

            self.ops.append(Op(sel, grid.count * freqs.count, run))

    def check(self, outputs, checker):
        for sel, (values, grid, freqs) in self.cases.items():
            if sel not in outputs:
                continue
            checker.spectrum(sel, ref.preset(sel), values, grid, freqs, outputs[sel])
            if sel == "clifford:2":
                checker.complex_dft(sel, values, grid, freqs, outputs[sel])


class Spectra(_Library):
    name = "spectra"
    # sized so that each transform takes a comparable time (about 50 ms
    # at the seed) and a run repeats each one many times
    CASES = (
        ("clifford:2", centred((20, 20)), None),
        ("quaternionic", centred((16, 16)), None),
        ("buelow:2", centred((16, 16)), None),
        ("clifford:3", centred((7, 7, 7)), None),
        ("spacetime", centred((4, 4, 3, 3)), None),
        ("color_image", centred((10, 10)), None),
    )
    presets = tuple(sel for sel, _, _ in CASES)


class NonSeparable(_Library):
    name = "nonseparable"
    # frequency grids off the DFT lattice: no node at u = 0, spacing
    # unrelated to the field's extent
    CASES = (
        ("cylindrical:3", centred((10, 10, 10), 0.5), Grid((5,) * 3, (-0.613,) * 3, (0.197,) * 3)),
        ("cylindrical:4", centred((4, 4, 4, 4), 0.5), Grid((4, 4, 3, 3), (-0.37,) * 4, (0.21,) * 4)),
        ("cylindrical:7", centred((2,) * 7, 0.5),
         Grid((2, 2, 1, 1, 1, 1, 1), (-0.29,) * 7, (0.31,) * 7)),
    )
    presets = tuple(sel for sel, _, _ in CASES)


# The identity suite as `gafourier verify --size 8` runs it.
VERIFY_PRESETS = (
    "clifford:2", "clifford:3", "buelow:2", "quaternionic",
    "spacetime", "color_image", "cylindrical:2", "cylindrical:3",
)
VERIFY_SIZE = 8
# verify caps the extent per axis at 6 for m = 3 and at 4 for m >= 4
VERIFY_EXTENT = {1: 8, 2: 8, 3: 6, 4: 4}
# verify --theorem value -> the report lines it prints
VERIFY_THEOREMS = {
    "linearity": ("linearity",),
    "scaling": ("scaling[a=-1]", "scaling[a=2]", "scaling[a=0.5]"),
    "left-product": ("left-product",),
    "right-product": ("right-product",),
    "shift": ("shift",),
    "existence": ("existence",),
}


class Identities(Workload):
    """The suite one check at a time: `verify --preset P --theorem T`."""

    name = "identities"
    presets = VERIFY_PRESETS
    uses_cli = True

    def __init__(self, seed: int, workdir: Path) -> None:
        from gafourier import cli

        self.seed = seed
        self.ops = []
        for sel in VERIFY_PRESETS:
            pre = ref.preset(sel)
            nodes = VERIFY_EXTENT[pre.m] ** pre.m
            skips = self.expected_skips(pre)
            for theorem, lines in VERIFY_THEOREMS.items():
                args = argparse.Namespace(theorem=theorem, preset=sel, seed=seed,
                                          size=VERIFY_SIZE, tol=None)

                def run(span, args=args):
                    with span("cli.verify_lines"):
                        return [line for line, _ in cli._verify_lines(args)]

                checked = sum(line not in skips for line in lines)
                self.ops.append(Op(f"{sel} {theorem}", checked * nodes * nodes, run))

    @staticmethod
    def expected_skips(pre: ref.Preset) -> set[str]:
        left, right = pre.separable("left"), pre.separable("right")
        skips = set()
        if not left:
            skips.add("left-product")
        if not right:
            skips.add("right-product")
        if not (left and right):
            skips.add("shift")
        return skips

    def check(self, outputs, checker):
        import gafourier as ga

        for sel in VERIFY_PRESETS:
            lines = [line for theorem in VERIFY_THEOREMS
                     for line in outputs.get(f"{sel} {theorem}", [])]
            pre = ref.preset(sel)
            skips = self.expected_skips(pre)
            names = [line.split()[1] for line in lines]
            if names != [name for group in VERIFY_THEOREMS.values() for name in group]:
                checker.fail(f"{sel}: verify printed checks {names}")
                continue
            for name, line in zip(names, lines):
                status = line.split(" ", 4)[-1]
                if name in skips and not status.startswith("SKIP(not separable"):
                    checker.fail(f"{sel}: expected a not-separable SKIP, got {line!r}")
                elif name not in skips and status != "PASS":
                    checker.fail(f"{sel}: {line!r}")
            # The suite's base field is the first uniform(-1, 1) draw of
            # default_rng(seed) on the centred unit grid; its existence
            # bound is printed, and its transform is sampled against the
            # reference.
            grid = centred((VERIFY_EXTENT[pre.m],) * pre.m)
            values = np.random.default_rng(self.seed).uniform(-1.0, 1.0, (grid.count, pre.alg.dim))
            bound = 2.0 ** pre.nu * np.sqrt((values * values).sum(axis=1)).sum() * grid.volume
            printed = float(lines[-1].split("bound=")[1].split()[0])
            if abs(printed - bound) > 1e-6 * bound:
                checker.fail(f"{sel}: existence bound {printed:.6e}, expected {bound:.6e}")
            freqs = dft_dual(grid)
            idx = [int(i) for i in checker.rng.integers(freqs.count, size=2)]
            spec = ga.parse_preset(sel)
            field = ga.SampledField(spec.sig, grid.dims, grid.origin, grid.spacing, values)
            got = ga.gft_at(spec, field, freqs.nodes[idx])
            want = ref.transform_at(pre, values, grid.nodes, grid.volume, freqs.nodes[idx])
            checker.close(f"{sel} verify field", got, want, "reference")


class CliFiles(Workload):
    """`gafourier.cli.main` on files in a temporary directory."""

    name = "cli_files"
    presets = ("quaternionic", "color_image")
    uses_cli = True

    # sized so that each command takes a comparable time (about 0.15 s
    # at the seed) and a run repeats each one many times
    BIG = centred((128, 128))
    BIG_FREQS = Grid((4, 4), (-2 / 128,) * 2, (1 / 128,) * 2)
    SMALL = centred((8, 8))
    SMALL_FREQS = Grid((32, 32), (-0.5,) * 2, (1 / 32,) * 2)
    IMAGE = Grid((64, 64), (0.0, 0.0), (1.0, 1.0))
    IMAGE_FREQS = Grid((3, 3), (-1 / 64,) * 2, (1 / 64,) * 2)

    def __init__(self, seed: int, workdir: Path) -> None:
        from gafourier import cli

        rng = np.random.default_rng(seed)
        d = workdir
        self.big = rng.uniform(-1.0, 1.0, (self.BIG.count, 4))
        self.small = rng.uniform(-1.0, 1.0, (self.SMALL.count, 4))
        self.pixels = rng.integers(0, 256, self.IMAGE.dims + (3,), dtype=np.uint8)
        for path, grid, values in ((d / "big.mvf", self.BIG, self.big),
                                   (d / "small.mvf", self.SMALL, self.small)):
            files.write_field(path, 0, 2, grid.dims, grid.origin, grid.spacing, values)
        for path, grid in ((d / "big.freqs", self.BIG_FREQS), (d / "small.freqs", self.SMALL_FREQS),
                           (d / "image.freqs", self.IMAGE_FREQS)):
            files.write_freqs(path, grid.dims, grid.origin, grid.spacing)
        files.write_ppm(d / "image.ppm", self.pixels)
        # A fixed field with one NaN sample, the same for every seed: the
        # command should refuse it with exit code 2.
        nan_field = np.full((16, 4), 0.25)
        nan_field[5, 2] = np.nan
        nan_grid = centred((4, 4))
        files.write_field(d / "nan.mvf", 0, 2, nan_grid.dims, nan_grid.origin, nan_grid.spacing,
                          nan_field)

        self.ops = []

        def command(label, argv, out, pairs, expect=0):
            def run(span):
                with contextlib.redirect_stderr(io.StringIO()), span("cli.main"):
                    return cli.main(argv)

            def outcome(rc):
                if rc != expect:
                    return False, rc
                return True, out.read_bytes() if expect == 0 else rc

            self.ops.append(Op(label, pairs, run, outcome))

        big = ["transform", "--field", str(d / "big.mvf"), "--preset", "quaternionic",
               "--freqs", str(d / "big.freqs")]
        pairs = self.BIG.count * self.BIG_FREQS.count
        command("transform-text", big + ["--out", str(d / "big.txt.mvf")], d / "big.txt.mvf", pairs)
        command("transform-binary", big + ["--out", str(d / "big.bin.mvf"), "--binary"],
                d / "big.bin.mvf", pairs)
        command("transform-many-freqs",
                ["transform", "--field", str(d / "small.mvf"), "--preset", "quaternionic",
                 "--freqs", str(d / "small.freqs"), "--out", str(d / "small.out.mvf")],
                d / "small.out.mvf", self.SMALL.count * self.SMALL_FREQS.count)
        command("image",
                ["image", "--input", str(d / "image.ppm"), "--freqs", str(d / "image.freqs"),
                 "--out", str(d / "image.out.mvf")],
                d / "image.out.mvf", self.IMAGE.count * self.IMAGE_FREQS.count)
        command("transform-nan",
                ["transform", "--field", str(d / "nan.mvf"), "--preset", "quaternionic",
                 "--out", str(d / "nan.out.mvf")],
                d / "nan.out.mvf", 0, expect=2)

    def check(self, outputs, checker):
        spectra = {label: files.parse_mvf(blob) for label, blob in outputs.items()
                   if isinstance(blob, bytes)}
        image_values = np.zeros((self.IMAGE.count, 16))
        image_values[:, [0b001, 0b010, 0b100]] = self.pixels.reshape(-1, 3) / 255.0
        quaternionic = ref.preset("quaternionic")
        # transform-binary is compared bit for bit with transform-text below
        cases = {
            "transform-text": (quaternionic, self.big, self.BIG, self.BIG_FREQS),
            "transform-many-freqs": (quaternionic, self.small, self.SMALL, self.SMALL_FREQS),
            # F(0) of the image is the per-channel pixel sum over 255
            "image": (ref.preset("color_image"), image_values, self.IMAGE, self.IMAGE_FREQS),
        }
        for label, (pre, values, grid, freqs) in cases.items():
            if label not in spectra:
                continue
            header, out = spectra[label]
            if header["kind"] != "spectrum" or header["dims"].split() != [str(d) for d in freqs.dims]:
                checker.fail(f"{label}: output header {header}")
                continue
            checker.spectrum(label, pre, values, grid, freqs, out)
        if "transform-text" in spectra and "transform-binary" in spectra:
            (text_head, text), (bin_head, binary) = spectra["transform-text"], spectra["transform-binary"]
            text_head, bin_head = dict(text_head, mode=""), dict(bin_head, mode="")
            if text_head != bin_head or not np.array_equal(text.view(np.uint64),
                                                           binary.view(np.uint64)):
                checker.fail("transform: text and binary outputs differ")


BY_NAME = {w.name: w for w in (Spectra, NonSeparable, Identities, CliFiles)}
