#!/usr/bin/env python3
"""Time one `gft` call per case of the `spectra` benchmark workload.

For each case it prints one JSON line: the best of N calls of `gft` on
the same field and frequency grid objects (`gft_reused_us`), the best of
N calls each on a fresh `SampledField` and `FreqGrid` of the same
geometry, built just before the timed call (`gft_fresh_us`), and the
best of N calls of `plan` on the reused objects (`plan_us`).  The three
are interleaved case by case, so drift in the machine's speed reaches
them alike.  BLAS runs one thread, as in the benchmark.

    PYTHONPATH=src python3 scripts/call_overhead.py --repeat 200
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from gafourier import FreqGrid, SampledField, gft, parse_preset, plan  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Spectra, dft_dual  # noqa: E402


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=200,
                        help="calls per case and measure (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="field values' seed")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    rng = np.random.default_rng(args.seed)
    cases = []
    for sel, grid, freqs in Spectra.CASES:
        freqs = freqs or dft_dual(grid)
        spec = parse_preset(sel)
        values = rng.uniform(-1.0, 1.0, (grid.count, spec.sig.dim))
        geometry = (grid.dims, grid.origin, grid.spacing), (freqs.dims, freqs.origin,
                                                            freqs.spacing)
        field = SampledField(spec.sig, *geometry[0], values)
        cases.append((sel, spec, field, FreqGrid(*geometry[1]), geometry, values))
    best = {sel: [float("inf")] * 3 for sel, *_ in cases}
    for _ in range(args.repeat):
        for sel, spec, field, fgrid, (fg, ug), values in cases:
            fresh, again = SampledField(spec.sig, *fg, values), FreqGrid(*ug)
            times = (_timed(lambda: gft(spec, field, fgrid)),
                     _timed(lambda: gft(spec, fresh, again)),
                     _timed(lambda: plan(spec, field, fgrid)))
            best[sel] = [min(a, b) for a, b in zip(best[sel], times)]
    for sel, spec, field, fgrid, *_ in cases:
        reused, fresh, planned = best[sel]
        print(json.dumps({"case": sel, "engine": plan(spec, field, fgrid).engine,
                          "pairs": field.node_count * fgrid.node_count,
                          "gft_reused_us": round(reused * 1e6, 1),
                          "gft_fresh_us": round(fresh * 1e6, 1),
                          "plan_us": round(planned * 1e6, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
