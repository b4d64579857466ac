"""gafourier benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A run repeats whole rounds of the workload's operations, one at a time
in this single process (a closed loop with one caller), until --seconds
have passed, then checks the outputs.  --trace 0 prints the end-to-end
metrics; --trace 1 spends half the time untraced and half with every
layer wrapped, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  `--workload all` runs
every workload untraced and traced, each in its own process.
"""

from __future__ import annotations

import os

# Fixed BLAS/OpenMP thread count of the measured process; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = tuple(workloads.BY_NAME)
SETUP_REPEATS = 11

# name -> (unit, better); printed with --trace 0
END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "gft_mpairs_per_s": ("Mpair/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}
# round_s under the name a user of each workload knows it by
ROUND_ALIAS = {"identities": "verify_s", "cli_files": "cli_s"}
RATE_PRESETS = workloads.Spectra.presets + workloads.NonSeparable.presets
# name -> (unit, better); printed with --trace 1, all per round
PER_LAYER = {
    "kernels.values_s": ("s", "lower"),
    "kernels.values_calls": ("count", "lower"),
    "exponential.exp_neg_many_s": ("s", "lower"),
    "exponential.exp_neg_many_rows": ("count", "lower"),
    "exponential.validate_s": ("s", "lower"),
    "exponential.exp_imag_s": ("s", "lower"),
    "algebra.gp_many_s": ("s", "lower"),
    "algebra.gp_many_rows": ("count", "lower"),
    "algebra.gp_many_useful_mflops": ("Mflop/s", "higher"),
    "transform.gft_at_self_s": ("s", "lower"),
    "transform.gft_at_calls": ("count", "lower"),
    "transform.pairs_validated": ("count", "lower"),
    "transform.pairs_unvalidated": ("count", "lower"),
    "transform.distinct_ratio": ("ratio", "higher"),
    **{f"transform.{sel.replace(':', '-')}_mpairs_per_s": ("Mpair/s", "higher")
       for sel in RATE_PRESETS},
    **{f"theorems.check_{c}_s": ("s", "lower") for c in tracing.THEOREM_CHECKS},
    "theorems.shift_self_s": ("s", "lower"),
    "commsplit.shift_exponential_terms_s": ("s", "lower"),
    "commsplit.split_multi_s": ("s", "lower"),
    "fileio.read_grid_file_s": ("s", "lower"),
    "fileio.read_mb_per_s": ("MB/s", "higher"),
    "fileio.write_spectrum_s": ("s", "lower"),
    "fileio.write_mb_per_s": ("MB/s", "higher"),
    "fileio.read_ppm_s": ("s", "lower"),
    "fileio.read_freqs_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.untraced_round_s": ("s", "lower"),
    "trace.traced_round_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Run in a fresh interpreter: import the package, parse the workload's
# presets and build their multiplication tables, then print the clock.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
import gafourier
if sys.argv[2] == "1":
    import gafourier.cli
for sel in sys.argv[3:]:
    spec = gafourier.parse_preset(sel)
    one = np.zeros(spec.sig.dim)
    gafourier.gp_many(spec.sig, one, one)
print(repr(time.perf_counter()))
"""


def environment() -> dict[str, object]:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def setup_seconds(workload) -> float:
    """Median time from starting a fresh interpreter to a ready package."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), "1" if workload.uses_cli else "0",
           *workload.presets]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


class Tally:
    """Attempted and failed operations, first outputs, per-operation times."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, object] = {}
        self.errors: list[str] = []
        self._reported: set[str] = set()

    def run_rounds(self, seconds: float, span, after_round=None) -> dict[str, list[float]]:
        """Whole rounds until `seconds` have passed (at least one)."""
        times: dict[str, list[float]] = {op.label: [] for op in self.workload.ops}
        start = time.perf_counter()
        while not times[self.workload.ops[0].label] or time.perf_counter() - start < seconds:
            for op in self.workload.ops:
                t0 = time.perf_counter()
                try:
                    raw, ok = op.run(span), True
                except Exception:  # one failed operation must not end the run
                    raw, ok = traceback.format_exc(), False
                times[op.label].append(time.perf_counter() - t0)
                self.attempted += 1
                if ok:
                    ok, out = op.outcome(raw)
                elif op.label not in self._reported:
                    self._reported.add(op.label)
                    print(f"{op.label} raised:\n{raw}", file=sys.stderr)
                if not ok:
                    self.failed += 1
                elif op.label not in self.first:
                    self.first[op.label] = out
                elif not self.workload.same(self.first[op.label], out):
                    self.errors.append(f"{op.label}: output changed between rounds")
            if after_round is not None:
                after_round()
        return times


def round_seconds(times: dict[str, list[float]]) -> float:
    """One round as the sum of each operation's fastest time in the run.

    The machines this runs on share their cores; slow phases last tens of
    seconds and slow every operation alike, so a median still moves by a
    fifth between runs while the fastest repeat stays put.
    """
    return sum(min(ts) for ts in times.values())


def no_span(name):
    return contextlib.nullcontext()


def end_to_end(workload, tally: Tally, seconds: float) -> dict[str, float]:
    setup = setup_seconds(workload)
    times = tally.run_rounds(seconds, no_span)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    round_s = round_seconds(times)
    pairs = sum(op.pairs for op in workload.ops)
    return {
        "setup_s": setup,
        "round_s": round_s,
        "gft_mpairs_per_s": pairs / round_s / 1e6,
        "peak_rss_mib": peak,
    }


def per_layer(workload, tally: Tally, seconds: float) -> dict[str, float]:
    untraced = tally.run_rounds(seconds / 2, no_span)
    tracer = tracing.Tracer()
    totals: Counter = Counter()
    rounds = 0

    def after_round():
        nonlocal rounds
        totals.update(tracer.summary())
        tracer.reset()
        rounds += 1

    tracer.install()
    try:
        traced = tally.run_rounds(seconds / 2, tracer.span, after_round)
    finally:
        tracer.uninstall()

    s = {k: v / rounds for k, v in totals.items()}
    out = {name: s.get(name, 0.0) for name in PER_LAYER}
    out["theorems.shift_self_s"] = s.get("theorems.check_shift_self_s", 0.0)
    out["cli.self_s"] = s.get("cli.main_self_s", 0.0) + s.get("cli.verify_lines_self_s", 0.0)
    if out["transform.gft_at_calls"]:
        out["transform.distinct_ratio"] = s["transform.distinct_inputs"] / out["transform.gft_at_calls"]
    if out["algebra.gp_many_s"]:
        out["algebra.gp_many_useful_mflops"] = s["algebra.gp_many_flops"] / out["algebra.gp_many_s"] / 1e6
    read_s = out["fileio.read_grid_file_s"] + out["fileio.read_ppm_s"] + out["fileio.read_freqs_s"]
    if read_s:
        out["fileio.read_mb_per_s"] = s["fileio.read_bytes"] / read_s / 1e6
    if out["fileio.write_spectrum_s"]:
        out["fileio.write_mb_per_s"] = s["fileio.write_bytes"] / out["fileio.write_spectrum_s"] / 1e6
    if workload.gft_per_op:
        for op in workload.ops:
            out[f"transform.{op.label.replace(':', '-')}_mpairs_per_s"] = (
                op.pairs / min(untraced[op.label]) / 1e6)
    plain, wrapped = round_seconds(untraced), round_seconds(traced)
    out["trace.untraced_round_s"] = plain
    out["trace.traced_round_s"] = wrapped
    out["trace.overhead_pct"] = 100.0 * (wrapped - plain) / plain
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    cls = workloads.BY_NAME[name]
    print(json.dumps({"env": environment(), "workload": name, "seed": seed,
                      "seconds": seconds, "trace": int(trace)}))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        workload = cls(seed, Path(workdir))
        tally = Tally(workload)
        if trace:
            values, table = per_layer(workload, tally, seconds), PER_LAYER
        else:
            values, table = end_to_end(workload, tally, seconds), END_TO_END
        checker = workloads.Checker(seed)
        workload.check(tally.first, checker)
    errors = tally.errors + checker.errors
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    for metric, value in values.items():
        alias = f" ({ROUND_ALIAS[name]})" if metric == "round_s" and name in ROUND_ALIAS else ""
        print(f"{name} {metric}{alias} = {value:.6g} {table[metric][0]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in values.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(f"{name} trace={trace} attempted={result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gafourier" / "__init__.py").is_file():
        print(f"perfbench: no gafourier package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
