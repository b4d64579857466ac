#!/usr/bin/env python3
"""Time one call per operation of the `spectra` or `cli_files` benchmark workload.

For each `spectra` case it prints one JSON line: the best of N calls of
`gft` on the same field and frequency grid objects (`gft_reused_us`),
of the axes engine alone (`_gft_axes`) as that `gft` calls it, on the
grid pair's kept plan and matrix (`axes_us`; null on another engine),
of `gft` on a fresh `SampledField` and `FreqGrid` of the same geometry,
built just before the timed call (`gft_fresh_us`), and of `plan` on
the reused objects (`plan_us`).  The four are interleaved case by
case, so drift in the machine's speed reaches them alike.

For each `cli_files` command (`cli.main` on the workload's files, in a
temporary directory) it prints one JSON line with the best of N calls of
each layer: the `fileio` readers (`read_us`: the field or PPM file and
the frequency grid file), `gft` with its planning (`gft_us`),
`fileio.write_spectrum` (`write_us`) and the whole command (`total_us`).
Each layer's best is taken on its own, so the layers need not sum to the
total; the rest of the total is argument parsing and command glue.

BLAS runs one thread, as in the benchmark.

    PYTHONPATH=src python3 scripts/call_overhead.py --repeat 200
    PYTHONPATH=src python3 scripts/call_overhead.py --workload cli_files --repeat 20
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

from gafourier import FreqGrid, SampledField, cli, fileio, gft, parse_preset, plan  # noqa: E402
from gafourier import transform  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import CliFiles, Spectra, dft_dual  # noqa: E402

# (layer, module, name): each function whose calls a layer sums in one command
_CLI_LAYERS = (
    *(("read", fileio, name) for name in ("read_grid_file", "read_ppm", "read_freqs",
                                          "read_kernels")),
    ("gft", cli, "gft"),
    ("write", fileio, "write_spectrum"),
)


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _spectra(args) -> None:
    rng = np.random.default_rng(args.seed)
    cases = []
    for sel, grid, freqs in Spectra.CASES:
        freqs = freqs or dft_dual(grid)
        spec = parse_preset(sel)
        values = rng.uniform(-1.0, 1.0, (grid.count, spec.sig.dim))
        geometry = (grid.dims, grid.origin, grid.spacing), (freqs.dims, freqs.origin,
                                                            freqs.spacing)
        field, fgrid = SampledField(spec.sig, *geometry[0], values), FreqGrid(*geometry[1])
        cases.append((sel, spec, field, fgrid, geometry, values, _axes_call(spec, field, fgrid)))
    best = {sel: [float("inf")] * 4 for sel, *_ in cases}
    for _ in range(args.repeat):
        for sel, spec, field, fgrid, (fg, ug), values, axes in cases:
            fresh, again = SampledField(spec.sig, *fg, values), FreqGrid(*ug)
            times = (_timed(lambda: gft(spec, field, fgrid)),
                     _timed(lambda: gft(spec, fresh, again)),
                     _timed(lambda: plan(spec, field, fgrid)),
                     _timed(axes) if axes else float("inf"))
            best[sel] = [min(a, b) for a, b in zip(best[sel], times)]
    for sel, spec, field, fgrid, *_, axes in cases:
        reused, fresh, planned, engine = best[sel]
        print(json.dumps({"case": sel, "engine": plan(spec, field, fgrid).engine,
                          "pairs": field.node_count * fgrid.node_count,
                          "gft_reused_us": round(reused * 1e6, 1),
                          "axes_us": round(engine * 1e6, 1) if axes else None,
                          "gft_fresh_us": round(fresh * 1e6, 1),
                          "plan_us": round(planned * 1e6, 2)}))


def _axes_call(spec, field, fgrid):
    """The axes engine's call that `gft` makes, on the grid pair's kept
    plan and matrix (built here by one `gft`), or None on another engine."""
    gft(spec, field, fgrid)
    rec = transform._spec_plan(spec)
    grid, _ = rec.kept[("plan", field.dims, field.origin, field.spacing,
                        fgrid.dims, fgrid.origin, fgrid.spacing)]
    if grid.plan.engine != "axes":
        return None
    matrix, _ = rec.kept[("matrix", (0,))]
    values = field.values[:, None]
    return lambda: transform._gft_axes(rec, field, values, fgrid, matrix, grid)


@contextlib.contextmanager
def _layer_clocks(spent: dict[str, float]):
    """Wrap every function of `_CLI_LAYERS` so that its calls add their
    time to `spent[layer]`; the originals are restored on exit."""

    def clocked(layer, func):
        def call(*a, **kw):
            start = time.perf_counter()
            try:
                return func(*a, **kw)
            finally:
                spent[layer] += time.perf_counter() - start
        return call

    with contextlib.ExitStack() as stack:
        for layer, module, name in _CLI_LAYERS:
            stack.enter_context(
                mock.patch.object(module, name, clocked(layer, getattr(module, name))))
        yield


def _no_span(name: str):
    return contextlib.nullcontext()


def _cli_files(args) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        ops = CliFiles(args.seed, Path(tmp)).ops
        spent = {layer: 0.0 for layer, *_ in _CLI_LAYERS}
        best = {op.label: dict.fromkeys((*spent, "total"), float("inf")) for op in ops}
        with _layer_clocks(spent):
            for _ in range(args.repeat):
                for op in ops:
                    spent.update(dict.fromkeys(spent, 0.0))
                    total = _timed(lambda: op.run(_no_span))
                    for key, value in (*spent.items(), ("total", total)):
                        best[op.label][key] = min(best[op.label][key], value)
    for op in ops:
        print(json.dumps({"command": op.label, "pairs": op.pairs,
                          **{f"{key}_us": round(value * 1e6, 1)
                             for key, value in best[op.label].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("spectra", "cli_files"), default="spectra",
                        help="which benchmark workload's operations to time (default spectra)")
    parser.add_argument("--repeat", type=int, default=200,
                        help="calls per operation and measure (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="input values' seed")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    (_spectra if args.workload == "spectra" else _cli_files)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
