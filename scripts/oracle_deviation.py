#!/usr/bin/env python3
"""Measure the transform against the naive complex DFT reference.

Fields valued in span{1, e12} of Cl(2,0) are complex signals in disguise;
the n=2 pseudoscalar configuration must reproduce the classical DFT on
them exactly (up to roundoff).  Prints the worst deviation per grid size
for `gft` (on the engine `plan` chooses) and for the direct engine
`gft_direct`, and the chosen engine.
"""

import argparse
import sys
import time

import numpy as np

from gafourier.algebra import Signature
from gafourier.kernels import parse_preset
from gafourier.transform import (
    SampledField,
    default_freqs,
    dft_complex_oracle,
    gft,
    gft_direct,
    plan,
)


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
        engine = plan(spec, field, unodes).engine
        grid = (vals[:, 0] + 1j * vals[:, 3]).reshape(size, size)
        want = dft_complex_oracle(grid, freqs, field.origin, field.spacing)
        worst = max(worst, _deviation(gft(spec, field, freqs).values, want))
        worst_direct = max(worst_direct,
                           _deviation(gft_direct(spec, field, unodes), want))
    return worst, worst_direct, engine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*", default=[4, 8, 16])
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
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
