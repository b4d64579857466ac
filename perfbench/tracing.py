"""Layer tracing from outside the package.

The tracer replaces module attributes with timing wrappers, under the
names through which the calling module looks them up (`transform`,
`theorems`, `exponential`, `commsplit` and `cli` import their
collaborators by name, so patching the defining module alone would miss
those calls).  Each call becomes a span (name, start, end, parent) kept
in memory; counters are updated at the same boundary.  `uninstall`
restores every original attribute.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# metric name -> the function cli calls for it
THEOREM_CHECKS = {
    "linearity": "check_linearity",
    "scaling": "check_scaling",
    "left_product": "check_left_product",
    "right_product": "check_right_product",
    "shift": "check_shift",
    "existence": "check_existence_bound",
}
FILE_READERS = ("read_grid_file", "read_ppm", "read_freqs")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.inputs: set[bytes] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._end(rec)

    def wrap(self, owner: object, attr: str, name: str, count=None, after=None) -> None:
        """Replace owner.attr by a spanning wrapper.

        `count(counts, args, kwargs)` runs before the call,
        `after(counts, args, kwargs)` after it; both outside the span.
        """
        orig = getattr(owner, attr)
        begin, end, counts = self._begin, self._end, self.counts

        def wrapper(*args, **kwargs):
            if count is not None:
                count(counts, args, kwargs)
            rec = begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                end(rec)
            if after is not None:
                after(counts, args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap every layer function under the names its callers use."""
        from gafourier import cli, commsplit, exponential, fileio, kernels, theorems, transform

        self.wrap(kernels.KernelMatrix, "values", "kernels.values")
        for mod in (transform, theorems, exponential):
            self.wrap(mod, "gp_many", "algebra.gp_many", count=_count_gp_rows)
        self.wrap(transform, "exp_neg_many", "exponential.exp_neg_many",
                  count=_count_exp_rows)
        for mod in (theorems, commsplit):
            self.wrap(mod, "exp_imag", "exponential.exp_imag")
        for mod in (transform, theorems):
            self.wrap(mod, "gft_at", "transform.gft_at", count=self._count_gft_at)
        for check, func in THEOREM_CHECKS.items():
            self.wrap(cli, func, f"theorems.check_{check}")
        self.wrap(theorems, "shift_exponential_terms", "commsplit.shift_exponential_terms")
        self.wrap(theorems, "split_multi", "commsplit.split_multi")
        for reader in FILE_READERS:
            self.wrap(fileio, reader, f"fileio.{reader}", count=_count_read_bytes)
        self.wrap(fileio, "write_spectrum", "fileio.write_spectrum", after=_count_written_bytes)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _count_gft_at(self, counts: Counter, args, kwargs) -> None:
        spec, field, unodes = args[:3]
        validate = kwargs.get("validate", args[3] if len(args) > 3 else True)
        unodes = np.ascontiguousarray(unodes, dtype=float)
        pairs = len(unodes) * field.node_count
        counts["transform.pairs_validated" if validate else "transform.pairs_unvalidated"] += pairs
        digest = hashlib.blake2b(digest_size=16)
        for kern in spec.left + (None,) + spec.right:
            digest.update(b"|" if kern is None else kern.tensor.tobytes())
        digest.update(repr((field.sig, field.dims, field.origin, field.spacing)).encode())
        digest.update(field.values.tobytes())
        digest.update(unodes.tobytes())
        self.inputs.add(digest.digest())

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.inputs.clear()

    def summary(self) -> dict[str, float]:
        """Inclusive and self seconds and calls per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        validate = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[i]
            if name == "algebra.gp_many" and parent >= 0 and \
                    self.spans[parent][0] == "exponential.exp_neg_many":
                validate += end - start
        out = {f"{k}_s": v for k, v in total.items()}
        out.update({f"{k}_self_s": v for k, v in self_time.items()})
        out.update({f"{k}_calls": v for k, v in calls.items()})
        out["exponential.validate_s"] = validate
        out.update(self.counts)
        out["transform.distinct_inputs"] = len(self.inputs)
        return out


def _rows(a) -> int:
    a = np.asarray(a)
    return a.shape[0] if a.ndim == 2 else 1


def _count_gp_rows(counts: Counter, args, kwargs) -> None:
    sig, a, b = args[:3]
    rows = max(_rows(a), _rows(b))
    counts["algebra.gp_many_rows"] += rows
    counts["algebra.gp_many_flops"] += 2 * rows * sig.dim * sig.dim


def _count_exp_rows(counts: Counter, args, kwargs) -> None:
    counts["exponential.exp_neg_many_rows"] += _rows(args[1])


def _count_read_bytes(counts: Counter, args, kwargs) -> None:
    counts["fileio.read_bytes"] += os.path.getsize(args[0])


def _count_written_bytes(counts: Counter, args, kwargs) -> None:
    counts["fileio.write_bytes"] += os.path.getsize(args[0])
