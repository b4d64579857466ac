"""The benchmark's layer tracer (perfbench/tracing.py) against the
package: every name it wraps resolves, a traced verify pass records each
layer, and uninstalling restores every original."""

import argparse
import importlib.util
from pathlib import Path

from gafourier import cli, commsplit, theorems, transform
from gafourier.kernels import VERIFY_PRESETS

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_installs_and_uninstalls_against_the_package():
    tracer = _tracer()
    tracer.install()  # an AttributeError here names a wrapped name that is gone
    try:
        patched = {(owner, attr): orig for owner, attr, orig in tracer._patches}
        names = {(getattr(owner, "__name__", ""), attr) for owner, attr in patched}
        for module, attr in [(theorems, "gft_at"), (transform, "gft_at"),
                             (theorems, "exp_imag"), (commsplit, "exp_imag"),
                             (theorems, "gp_many"), (transform, "gp_many"),
                             (transform, "exp_neg_many"),
                             (theorems, "shift_exponential_terms"),
                             (theorems, "split_multi"), (cli, "check_linearity"),
                             (cli, "check_shift"), (cli, "check_existence_bound")]:
            assert (module.__name__, attr) in names, (module.__name__, attr)
        for (owner, attr), orig in patched.items():
            assert getattr(owner, attr) is not orig, attr
        for sel in VERIFY_PRESETS[:4]:
            args = argparse.Namespace(theorem="all", preset=sel, seed=0, size=8, tol=None)
            assert not any(bad for _, bad in cli._verify_lines(args))
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    for (owner, attr), orig in patched.items():
        assert getattr(owner, attr) is orig, attr
    for check in ("linearity", "scaling", "left_product", "right_product", "shift",
                  "existence"):
        assert summary[f"theorems.check_{check}_calls"] >= 1, check
    assert summary["algebra.gp_many_calls"] >= 1
