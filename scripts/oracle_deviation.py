#!/usr/bin/env python3
"""Measure the transform against the naive complex DFT reference.

Fields valued in span{1, e12} of Cl(2,0) are complex signals in disguise;
the n=2 pseudoscalar configuration must reproduce the classical DFT on
them exactly (up to roundoff).  Prints the worst deviation per grid size
for `gft` (on the engine `plan` chooses) and for the direct engine
`gft_direct`, and the chosen engine.

With --presets it instead compares the engines with `gft_direct` on every
built-in preset and a random field, twice: `gft_at` on 16 scattered
off-lattice frequencies, and `gft` on an off-lattice frequency grid (no
node at u = 0, spacing unrelated to the field).  A grid row on the axes
engine runs `gft` a second time on fresh objects of the same geometry,
which the phase tables kept by the first run serve where the frequency
grid is one tile, and reports the worse of the two deviations.  The field is centred, so
the expansion engine pairs each node x with -x; every preset the grid
plan sends to the expansion engine runs a second time on an off-centre
field (row "<preset> off-centre"), where no node pairs.  Every preset
gets a row "<preset> sign flips": the spectra of every sign flip of its
kernels from one `transform._gft_many` pass against `gft_direct` of each
flipped spec on the same grid.  On the axes engine the flips come from
one contraction; on the expansion engine from one set of weights, with
the flipped kernels' sine terms negated.  It prints the engine planned
for each, the worst deviation relative to max(1, |F(u)|), the seconds
taken and the grid plan's reason; it exits 1 above 1e-12.

    PYTHONPATH=src python3 scripts/oracle_deviation.py --presets
"""

import argparse
import itertools
import math
import sys
import time

import numpy as np

from gafourier.algebra import Signature
from gafourier.kernels import negate, parse_preset
from gafourier.transform import (
    FreqGrid,
    SampledField,
    _gft_many,
    default_freqs,
    dft_complex_oracle,
    gft,
    gft_at,
    gft_direct,
    plan,
)

# field grid per built-in preset, small enough for the direct engine
PRESET_GRIDS = {
    "clifford:2": (8, 8),
    "clifford:3": (4, 4, 4),
    "buelow:2": (8, 8),
    "buelow:3": (4, 4, 4),
    "buelow:5": (3,) * 5,  # 16 phase keys, 32 sign flips on the axes engine
    "quaternionic": (8, 8),
    "spacetime": (3, 3, 3, 3),
    "color_image": (8, 8),
    "cylindrical:2": (8, 8),
    "cylindrical:3": (4, 4, 4),
    "cylindrical:4": (3, 3, 3, 3),
    "cylindrical:7": (2,) * 7,
    "cylindrical:8": (2,) * 8,  # the largest signature with a native product table
}
ENGINE_TOL = 1e-12


def _deviation(got: np.ndarray, want: np.ndarray) -> float:
    dev = np.abs(got[:, 0] + 1j * got[:, 3] - want.reshape(-1)).max()
    return float(max(dev, np.abs(got[:, 1]).max(), np.abs(got[:, 2]).max()))


def deviation(
    size: int, trials: int, rng: np.random.Generator
) -> tuple[float, float, str]:
    """Worst deviation of gft and of gft_direct, and the engine gft ran."""
    sig = Signature(2, 0)
    spec = parse_preset("clifford:2")
    worst = worst_direct = 0.0
    for _ in range(trials):
        vals = np.zeros((size * size, sig.dim))
        vals[:, 0] = rng.uniform(-1, 1, size * size)
        vals[:, 3] = rng.uniform(-1, 1, size * size)
        origin = (-(size // 2) * 1.0,) * 2
        field = SampledField(sig, (size, size), origin, (1.0, 1.0), vals)
        freqs = default_freqs(field)
        unodes = freqs.nodes()
        engine = plan(spec, field, freqs).engine
        grid = (vals[:, 0] + 1j * vals[:, 3]).reshape(size, size)
        want = dft_complex_oracle(grid, freqs, field.origin, field.spacing)
        worst = max(worst, _deviation(gft(spec, field, freqs).values, want))
        worst_direct = max(worst_direct,
                           _deviation(gft_direct(spec, field, unodes), want))
    return worst, worst_direct, engine


def _relative(got: np.ndarray, ref: np.ndarray) -> float:
    err = np.linalg.norm(got - ref, axis=1)
    return float((err / np.maximum(1.0, np.linalg.norm(ref, axis=1))).max())


def _field(selector: str, rng: np.random.Generator, shift: float) -> SampledField:
    """A random field on the preset's grid, node extent//2 at x = shift."""
    spec = parse_preset(selector)
    dims = PRESET_GRIDS[selector]
    vals = rng.uniform(-1, 1, (math.prod(dims), spec.sig.dim))
    origin = tuple(shift - (d // 2) for d in dims)
    return SampledField(spec.sig, dims, origin, (1.0,) * len(dims), vals)


def _off_lattice(m: int, rng: np.random.Generator) -> FreqGrid:
    # at most 3 x 3 x 2 frequencies, so that gft_direct stays quick at m = 7
    fdims = ((3, 3, 2) + (1,) * m)[:m]
    return FreqGrid(fdims, tuple(rng.uniform(-1.7, -0.9, m)),
                    tuple(rng.uniform(0.23, 0.61, m)))


def engine_deviation(
    selector: str, rng: np.random.Generator, shift: float = 0.0
) -> tuple[str, float, str, float, str]:
    """Planned engine and worst |F - gft_direct| over max(1, |gft_direct|)
    for `gft_at` at 16 off-lattice frequencies and for `gft` on an
    off-lattice grid (on the axes engine, the worse of two runs), and
    the grid plan's reason.  The field's node
    extent//2 lies at x = shift on every axis."""
    spec = parse_preset(selector)
    field = _field(selector, rng, shift)
    unodes = rng.uniform(-1.7, 1.7, (16, spec.m))
    at_dev = _relative(gft_at(spec, field, unodes), gft_direct(spec, field, unodes))
    freqs = _off_lattice(spec.m, rng)
    p = plan(spec, field, freqs)
    ref = gft_direct(spec, field, freqs.nodes())
    grid_dev = _relative(gft(spec, field, freqs).values, ref)
    if p.engine == "axes":  # again on the phase tables the first run kept
        again = SampledField(spec.sig, field.dims, field.origin, field.spacing, field.values)
        fresh = FreqGrid(freqs.dims, freqs.origin, freqs.spacing)
        grid_dev = max(grid_dev, _relative(gft(spec, again, fresh).values, ref))
    return plan(spec, field, unodes).engine, at_dev, p.engine, grid_dev, p.reason


def flip_deviation(selector: str, rng: np.random.Generator) -> tuple[int, str, float, str]:
    """The number of sign flips of the preset's kernels, the grid engine,
    the worst deviation of their spectra from one `_gft_many` pass from
    `gft_direct` of each flipped spec, and the grid plan's reason."""
    spec = parse_preset(selector)
    field = _field(selector, rng, 0.0)
    freqs = _off_lattice(spec.m, rng)
    flips = [(j, k) for j in itertools.product((0, 1), repeat=len(spec.left))
             for k in itertools.product((0, 1), repeat=len(spec.right))]
    spectra = _gft_many(spec, [field], freqs, flips)[:, 0].swapaxes(0, 1)
    dev = max(_relative(values, gft_direct(negate(spec, j, k), field, freqs.nodes()))
              for (j, k), values in zip(flips, spectra))
    p = plan(spec, field, freqs)
    return len(flips), p.engine, dev, p.reason


def presets_main(rng: np.random.Generator) -> int:
    print(f"{'preset':<25} {'at':>9} {'rel_dev':>10} {'grid':>9} {'rel_dev':>10} "
          f"{'seconds':>8}  grid reason")
    worst = 0.0
    runs = [(selector, selector, 0.0) for selector in PRESET_GRIDS]
    flipped = []
    for label, selector, shift in runs:
        t0 = time.perf_counter()
        engine, dev, grid_engine, grid_dev, reason = engine_deviation(selector, rng, shift)
        dt = time.perf_counter() - t0
        worst = max(worst, dev, grid_dev)
        print(f"{label:<25} {engine:>9} {dev:>10.3e} {grid_engine:>9} {grid_dev:>10.3e} "
              f"{dt:>8.2f}  {reason}")
        if shift == 0.0:
            flipped.append(selector)
            if grid_engine == "expansion":
                # no node of this field has its mirror on the grid
                runs.append((f"{selector} off-centre", selector, 0.31))
    for selector in flipped:
        t0 = time.perf_counter()
        count, grid_engine, grid_dev, reason = flip_deviation(selector, rng)
        dt = time.perf_counter() - t0
        worst = max(worst, grid_dev)
        print(f"{selector + ' sign flips':<25} {f'{count} flips':>20} {grid_engine:>9} "
              f"{grid_dev:>10.3e} {dt:>8.2f}  {reason}")
    print(f"worst over all presets: {worst:.3e} (limit {ENGINE_TOL:g})")
    return 0 if worst <= ENGINE_TOL else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*", default=[4, 8, 16])
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--presets", action="store_true",
                        help="compare gft with gft_direct on every built-in preset")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    if args.presets:
        return presets_main(rng)
    print(f"{'size':>6} {'nodes':>7} {'engine':>10} {'gft_dev':>11} "
          f"{'direct_dev':>11} {'seconds':>9}")
    worst = 0.0
    for size in args.sizes:
        t0 = time.perf_counter()
        dev, dev_direct, engine = deviation(size, args.trials, rng)
        dt = time.perf_counter() - t0
        worst = max(worst, dev, dev_direct)
        print(f"{size:>6} {size * size:>7} {engine:>10} {dev:>11.3e} "
              f"{dev_direct:>11.3e} {dt:>9.2f}")
    print(f"worst over all sizes: {worst:.3e}")
    return 0 if worst < 1e-10 else 1


if __name__ == "__main__":
    sys.exit(main())
