#!/usr/bin/env python3
"""Run every identity check for every built-in preset across several seeds.

Exit status is nonzero as soon as any check line reports FAIL, which makes
this script usable as a CI gate:

    python3 scripts/verify_all.py --seeds 5 --size 8
"""

import argparse
import sys

from gafourier.cli import main as cli_main
from gafourier.kernels import VERIFY_PRESETS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3,
                        help="number of seeds per preset (default 3)")
    parser.add_argument("--size", type=int, default=8,
                        help="grid extent per axis (default 8)")
    parser.add_argument("--presets", nargs="*", default=list(VERIFY_PRESETS),
                        help="subset of presets to run")
    args = parser.parse_args(argv)

    failed = []
    for preset in args.presets:
        for seed in range(args.seeds):
            print(f"--- {preset} seed={seed} ---")
            rc = cli_main([
                "verify", "--preset", preset,
                "--seed", str(seed), "--size", str(args.size),
            ])
            if rc != 0:
                failed.append((preset, seed, rc))
    if failed:
        print(f"{len(failed)} verify run(s) failed: {failed}", file=sys.stderr)
        return 1
    print(f"all verify runs passed "
          f"({len(args.presets)} presets x {args.seeds} seeds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
