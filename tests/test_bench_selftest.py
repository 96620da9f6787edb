"""The benchmark's own self-test passes against this checkout, and the
benchmark's tracer reads every per-layer metric of the ARC step.

`bench/` finds the program by the names it wraps and calls, so a rename of
one of them (for example `consistency.median_sigmas`) fails here, not only
when the benchmark itself runs. A hook that still exists but no longer
sees its calls makes its metric read 0, which the tracer test catches.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from akcarc import cli, training  # noqa: F401 (the tracer wraps every layer)
from akcarc.config import ExperimentConfig
from akcarc.data import SyntheticTaskSpec

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout, proc.stdout


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (a) the forward metrics are known to read 0: the tracer wraps
# `MlpExtractor.forward`, and a step calls `activations`
NON_ZERO = [
    "consistency.buffer_s", "consistency.arc_new_rows_per_step",
    "consistency.arc_pooled_rows_per_step",
    "numerics.median_sigmas_s", "numerics.mmd2_value_grad_s",
    "numerics.mmd_kernel_evals_per_step",
    "consistency.akc_loss_s", "training.optimizer_step_s", "training.sampler_s",
    # read from the buffer spans under `arc_loss` and from its return
    "consistency.arc_stale_row_share", "consistency.arc_selected_fraction_l",
    "consistency.arc_selected_fraction_u",
]


def test_traced_arc_run_reads_every_step_metric(tracer_module):
    cfg = ExperimentConfig(
        method="pseudo_label+akc+arc", seed=3, epochs=2, source_epochs=2, n_labeled=20,
        eps_r_scale=1.0,  # the ARC gate passes every row
        task=SyntheticTaskSpec(source_train=300, target_train=200, target_test=100))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        training.run_pipeline(cfg)
    finally:
        tracer.uninstall()
    assert not tracer.leftovers()
    layers = tracer_module.layer_metrics(*tracer.take())
    assert layers["training.steps"] > 0
    assert not [name for name in NON_ZERO if not layers[name] > 0], layers
    assert layers["model.target_backward_calls_per_step"] == 1
