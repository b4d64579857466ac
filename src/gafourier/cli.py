"""Command line front end.

Subcommands: ``transform`` (run a configured transform over a field
file), ``verify`` (run the identity checks and report one line each),
``image`` (ingest a binary PPM as a color field and transform it), and
``presets`` (list the built-in configurations).

Exit codes: 0 success (including expected skips), 1 a verify check
failed its bound, 2 bad invocation, invalid input content or input too
large for memory, 3 I/O failure.

The commands check only what is theirs (their own options, and that
``transform --field`` holds a field, not a spectrum).  Everything else
is checked once, where it is defined: file content by `fileio`, grids
and fields by their constructors, a spec against its field by `gft`.
Every error the package raises for bad input is a ``ValueError``, so
`main` maps that one type to exit code 2, as it does a ``MemoryError``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Iterator, Sequence

import numpy as np

from . import fileio
from .algebra import Multivector, Signature
from .kernels import PRESETS, GftSpec, NotSeparable, is_separable, parse_preset, preset
from .theorems import (
    TheoremReport,
    VERIFY_SCALE_FACTORS,
    check_existence_bound,
    check_left_product,
    check_linearity,
    check_right_product,
    check_scaling,
    check_shift,
    skip_line,
)
from .transform import FreqGrid, SampledField, default_freqs, gft

__all__ = ["main", "build_parser"]

THEOREM_NAMES = (
    "linearity",
    "scaling",
    "left-product",
    "right-product",
    "shift",
    "existence",
)


_IMAGE_BIVECTOR = "e12"  # image's default, the one parse_preset("color_image") takes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafourier",
        description="Discrete geometric Fourier transforms over Cl(p,q) "
        "fields, with built-in identity verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="transform a sampled field file")
    p_tr.add_argument("--field", required=True, help="input .mvf field file")
    src = p_tr.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="built-in configuration, e.g. clifford:2")
    src.add_argument("--kernels", help="kernel configuration file")
    p_tr.add_argument(
        "--freqs",
        default="auto",
        help="frequency grid: 'auto', 'auto:SCALE', or a freqs file path",
    )
    p_tr.add_argument("--out", required=True, help="output spectrum file")
    p_tr.add_argument(
        "--binary", action="store_true", help="write the payload as binary"
    )

    p_ver = sub.add_parser("verify", help="run the identity checks")
    p_ver.add_argument(
        "--theorem",
        default="all",
        choices=THEOREM_NAMES + ("all",),
        help="which check to run (default all)",
    )
    p_ver.add_argument("--preset", required=True, help="configuration to test")
    p_ver.add_argument("--seed", type=int, default=0, help="random seed")
    p_ver.add_argument(
        "--size", type=int, default=8, help="grid extent per axis (default 8)"
    )
    p_ver.add_argument(
        "--tol", type=float, default=None,
        help="override every check's tolerance",
    )

    p_img = sub.add_parser("image", help="transform a binary PPM color image")
    p_img.add_argument("--input", required=True, help="PPM (P6, 8-bit) file")
    p_img.add_argument(
        "--bivector", default=_IMAGE_BIVECTOR,
        help=f"unit bivector for the color transform (default {_IMAGE_BIVECTOR})",
    )
    p_img.add_argument("--freqs", default="auto", help="as for transform")
    p_img.add_argument("--out", required=True, help="output spectrum file")
    p_img.add_argument("--binary", action="store_true")

    p_pre = sub.add_parser("presets", help="list built-in configurations")
    p_pre.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    return parser


def _resolve_freqs(selector: str, field: SampledField) -> FreqGrid:
    if selector == "auto":
        return default_freqs(field)
    if selector.startswith("auto:"):
        try:
            scale = float(selector[5:])
        except ValueError:
            raise ValueError(
                f"bad frequency scale in {selector!r}; use auto:SCALE"
            ) from None
        return default_freqs(field, scale)
    return fileio.read_freqs(selector)


def _load_spec(args: argparse.Namespace) -> GftSpec:
    if args.preset is not None:
        return parse_preset(args.preset)
    return fileio.read_kernels(args.kernels)


def cmd_transform(args: argparse.Namespace) -> int:
    field = fileio.read_grid_file(args.field)
    if not isinstance(field, SampledField):
        raise ValueError(f"{args.field} holds a spectrum, expected a field")
    spec = _load_spec(args)
    freqs = _resolve_freqs(args.freqs, field)
    spectrum = gft(spec, field, freqs, validate=True)
    fileio.write_spectrum(args.out, spectrum, binary=args.binary)
    return 0


def _verify_dims(m: int, size: int) -> tuple[int, ...]:
    if m <= 2:
        return (size,) * m
    if m == 3:
        return (min(size, 6),) * 3
    return (min(size, 4),) * m


def _shift_offsets(m: int) -> tuple[int, ...]:
    # odd leading offset keeps the split phases away from multiples of
    # pi/2 on power-of-two grids, so multi-term sums stay generic
    table = {1: (3,), 2: (3, -1), 3: (1, -1, 0), 4: (1, -1, 1, 0)}
    return table.get(m, (1, -1) + (0,) * (m - 2))


def _verify_lines(args: argparse.Namespace) -> Iterator[tuple[str, bool]]:
    """Yield (report line, failed) pairs for the selected checks."""
    spec = parse_preset(args.preset)
    rng = np.random.default_rng(args.seed)
    dims = _verify_dims(spec.m, args.size)
    offsets = _shift_offsets(spec.m)
    border = max(abs(t) for t in offsets)
    selected = THEOREM_NAMES if args.theorem == "all" else (args.theorem,)
    if "shift" in selected and min(dims) <= 2 * border:  # a PASS would test nothing
        raise ValueError(
            f"--size {args.size} leaves the shift check no sample inside its "
            f"border of {border}; use --size {2 * border + 1} or more"
        )
    # every value is drawn, as `SampledField.random` draws it and in this
    # order, whichever checks run, so each check prints the line
    # `--theorem all` prints; a field is built only when a check reads it
    drawn = [rng.uniform(-1.0, 1.0, size=(math.prod(dims), spec.sig.dim)) for _ in range(3)]
    constant = Multivector(spec.sig, rng.uniform(-1.0, 1.0, spec.sig.dim))
    base, second, padded = (
        functools.cache(functools.partial(SampledField._on_unit_grid, spec.sig, dims, v, edge))
        for v, edge in zip(drawn, (0, 0, border)))
    grid = padded() if selected == ("shift",) else base()  # every field's grid
    freqs = default_freqs(grid)
    x0 = tuple(t * s for t, s in zip(offsets, grid.spacing))

    # without --tol every check keeps its own default tolerance
    tol = {} if args.tol is None else {"tol": args.tol}
    checks: dict[str, Callable[[], list[TheoremReport]]] = {
        "linearity": lambda: [
            check_linearity(spec, base(), second(), 2.0, -3.0, freqs, **tol)
        ],
        "scaling": lambda: [
            check_scaling(spec, base(), a, freqs, **tol) for a in VERIFY_SCALE_FACTORS
        ],
        "left-product": lambda: [
            check_left_product(spec, constant, base(), freqs, **tol)
        ],
        "right-product": lambda: [
            check_right_product(spec, constant, base(), freqs, **tol)
        ],
        "shift": lambda: [check_shift(spec, padded(), x0, freqs, **tol)],
        "existence": lambda: [check_existence_bound(spec, base(), freqs, **tol)],
    }
    for name in selected:
        try:
            reports = checks[name]()
        except NotSeparable as exc:
            yield skip_line(name, f"not separable: {exc}"), False
            continue
        for rep in reports:
            yield rep.line(), not rep.passed


def cmd_verify(args: argparse.Namespace) -> int:
    if args.size < 2:
        raise ValueError("--size must be at least 2")
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    failed = False
    for line, bad in _verify_lines(args):
        print(line)
        failed = failed or bad
    return 1 if failed else 0


def cmd_image(args: argparse.Namespace) -> int:
    pixels = fileio.read_ppm(args.input)
    sig = Signature(4, 0)
    if args.bivector == _IMAGE_BIVECTOR:  # the shared spec, planned once
        spec = parse_preset("color_image")
    else:
        bivector = fileio.parse_multivector_expr(args.bivector, sig)
        spec = preset("color_image", bivector=bivector)
    height, width = pixels.shape[0], pixels.shape[1]
    values = np.zeros((height * width, sig.dim))
    rgb = pixels.reshape(-1, 3).astype(float) / 255.0
    values[:, sig.blade_mask("e1")] = rgb[:, 0]
    values[:, sig.blade_mask("e2")] = rgb[:, 1]
    values[:, sig.blade_mask("e3")] = rgb[:, 2]
    field = SampledField(sig, (height, width), (0.0, 0.0), (1.0, 1.0), values)
    freqs = _resolve_freqs(args.freqs, field)
    spectrum = gft(spec, field, freqs, validate=True)
    fileio.write_spectrum(args.out, spectrum, binary=args.binary)
    return 0


def _preset_rows() -> list[dict[str, object]]:
    rows = []
    for row in PRESETS.values():
        spec = parse_preset(row.verify[0])
        rows.append(
            {
                "name": row.verify[0],
                "signature": str(spec.sig),
                "m": spec.m,
                "mu": spec.mu,
                "nu": spec.nu,
                "separable_left": is_separable(spec, "left"),
                "separable_right": is_separable(spec, "right"),
                "note": row.note,
            }
        )
    return rows


def cmd_presets(args: argparse.Namespace) -> int:
    rows = _preset_rows()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    header = (
        f"{'name':<14} {'signature':<9} {'m':>2} {'mu':>3} {'nu':>3} "
        f"{'sep-left':<8} {'sep-right':<9} note"
    )
    print(header)
    for r in rows:
        print(
            f"{r['name']:<14} {r['signature']:<9} {r['m']:>2} {r['mu']:>3} "
            f"{r['nu']:>3} {str(r['separable_left']):<8} "
            f"{str(r['separable_right']):<9} {r['note']}"
        )
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "transform": cmd_transform,
    "verify": cmd_verify,
    "image": cmd_image,
    "presets": cmd_presets,
}


_parser: argparse.ArgumentParser | None = None  # built by the first `main`


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    _parser = _parser or build_parser()  # parsing leaves no state in it
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # every bad-input error the package raises is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: input too large for memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
