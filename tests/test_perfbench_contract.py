"""The benchmark's contract with the package: the attributes that
perfbench's tracer and worker look up exist, the tracer puts back what
it patches, and one traced unit of a small workload runs to a per-layer
table."""

from array import array
import dataclasses
import importlib
from pathlib import Path

import pytest

from pfluid import cli, stepper

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Patch points the tracer names that the package no longer has; it
# reports them as not found and their metrics read 0.  The last three are
# the Trajectory measures that moved to ``verification`` (so
# verification.energy_s reads 0).  A name deleted or renamed from here on
# fails this test until it is listed.
NOT_FOUND = {
    "FESpace.grad_at_qp", "StressModel.stress", "StressModel.stress_jacobian",
    "StressModel.f_map", "SaddleSystem.matrix", "pfluid.stepper.splu",
    "Trajectory.energy_report", "Trajectory.l2_norms", "Trajectory.f_norm_sq",
}


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's worker and tracing modules; the worker patches
    ``StepperContext.step`` for good, so the original is restored."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(stepper.StepperContext, "step", stepper.StepperContext.step)
    return importlib.import_module("worker"), importlib.import_module("tracing")


def test_tracer_restores_every_patch(perfbench, capsys):
    _, tracing = perfbench
    tracer = tracing.Tracer()
    points = [(owner, attr) for owner, attr, _, _ in tracer._patch_points()]
    originals = [getattr(owner, attr, None) for owner, attr in points]
    tracer.install()
    try:
        assert set(tracer.missing) <= NOT_FOUND
        patched = {(owner, attr) for owner, attr, _ in tracer._patched}
        assert patched == {point for point, original in zip(points, originals)
                           if original is not None}
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(points, originals)
                   if original is not None)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr, None) is original
               for (owner, attr), original in zip(points, originals))


def test_names_the_worker_reads():
    assert callable(stepper.StepperContext.step)
    assert stepper.SolverOptions().method == "newton"
    diag = stepper.StepDiagnostics(iterations=2, residual_history=array("d", [1.0]),
                                   converged=True, backtracks=1)
    assert (diag.iterations, diag.backtracks, diag.mode) == (2, 1, "picard")
    assert callable(cli.parse_config) and callable(cli.run)


def test_traced_unit_of_a_small_workload(perfbench, tmp_path, capsys):
    worker, tracing = perfbench
    workload = dataclasses.replace(
        worker.WORKLOADS["picard-small"],
        discretization={"element": "MINI", "n": 3, "T": 0.1, "M": 3})
    seed = 1  # seed 0 compares against the full-size reference
    recorder = worker.StepRecorder(stepper.StepperContext, False)
    unit = worker.run_unit(cli, workload, seed, workload.config(seed), tmp_path / "u",
                           recorder, tracing.Tracer())
    assert unit["ok"], unit["problems"]
    assert len(unit["steps"]) == len(unit["iterations"]) == 3
    layers = unit["layers"]
    assert layers["stepper.steps"] == 3
    assert layers["stepper.step_s"] > 0.0 and layers["cli.emit_s"] > 0.0
    # no hidden factorization: the projection's LU and the steps' own
    assert layers["assembly.factor_calls"] == 1 + sum(
        diag.factorizations for _, _, diag, _ in recorder.records)
