"""Workload process: runs units of one workload through pfluid's CLI.

run.py starts this file in a fresh interpreter with BLAS pinned to one
thread.  A unit is one ``cli.parse_config`` + ``cli.run`` of the
workload's config, artifacts included.  Units repeat until less than
half a typical unit of ``--seconds`` is left, so a run measures about
``--seconds`` whatever the unit length.  With ``--trace 1`` untraced and traced
units alternate, so the tracing overhead and the iteration counts can be
compared inside one process.  With ``--setup-only`` the process stops at
the first time step and only reports its set-up time.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_outputs  # noqa: E402


class SetupReached(Exception):
    """Raised at the first time step of a --setup-only process."""


class StepRecorder:
    """Times every ``StepperContext.step``; the only wrapper on untraced units."""

    def __init__(self, context_cls, stop_at_first_step):
        self.records = []  # (seconds, unknowns, StepDiagnostics, method)
        self.first_step_at = None
        original = context_cls.step

        def step(ctx, *args, **kwargs):
            if self.first_step_at is None:
                self.first_step_at = time.monotonic()
                if stop_at_first_step:
                    raise SetupReached
            start = time.perf_counter()
            result = original(ctx, *args, **kwargs)
            self.records.append((time.perf_counter() - start,
                                 ctx.v_space.n_dofs + ctx.q_space.n_dofs,
                                 result[2], ctx.opts.method))
            return result

        context_cls.step = step


def speed_probe(numpy):
    """Seconds for a fixed mix of small dense solves and Python glue.

    Taken before and after the units; it tracks how fast the machine ran,
    which on a shared host can drift by a large factor within minutes.
    """
    a = numpy.random.default_rng(0).random((100, 100)) + 100.0 * numpy.eye(100)
    start = time.perf_counter()
    for _ in range(500):
        numpy.linalg.solve(a, a[0])
        sum(range(1000))
    return time.perf_counter() - start


def run_unit(cli, workload, seed, doc, outdir, recorder, tracer):
    shutil.rmtree(outdir, ignore_errors=True)
    first_step = len(recorder.records)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        cfg = cli.parse_config(json.dumps(doc))
        if tracer is None:
            code = cli.run(cfg, outdir)
        else:
            code = tracer.call("bench.unit", cli.run, cfg, outdir)
        problems = [] if code == 0 else [f"exit code {code}"]
    except Exception as exc:  # a failed unit is counted, not fatal
        traceback.print_exc()
        problems = [f"{type(exc).__name__}: {exc}"]
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if not problems:
        problems = check_outputs(workload, seed, outdir)
    steps = recorder.records[first_step:]
    unit = {
        "traced": tracer is not None,
        "wall_s": wall,
        "ok": not problems,
        "problems": problems,
        "steps": [[seconds, unknowns] for seconds, unknowns, _, _ in steps],
        # (iterations, backtracks, final mode) per step; tracing must not change it
        "iterations": [[d.iterations, d.backtracks, d.mode] for _, _, d, _ in steps],
    }
    if tracer is not None:
        unit["layers"] = layer_metrics(tracer, steps)
        unit["layers"]["cli.artifact_bytes"] = sum(
            f.stat().st_size for f in Path(outdir).rglob("*") if f.is_file())
    return unit


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    doc = workload.config(args.seed)
    from pfluid import cli, stepper
    import numpy
    import scipy

    recorder = StepRecorder(stepper.StepperContext, args.setup_only)
    outroot = Path(args.out)
    if args.setup_only:
        try:
            cli.run(cli.parse_config(json.dumps(doc)), outroot / "setup")
        except SetupReached:
            pass
        if recorder.first_step_at is None:
            raise RuntimeError("workload finished without taking a time step")
        print(json.dumps({"setup_s": recorder.first_step_at - args.spawned_at}))
        return 0

    units = []
    tracers = []
    probes = [speed_probe(numpy)]
    start = time.perf_counter()
    min_units = 2 if args.trace else 1
    while True:
        tracer = Tracer() if args.trace and len(units) % 2 == 1 else None
        unit = run_unit(cli, workload, args.seed, doc, outroot / f"unit-{len(units)}",
                        recorder, tracer)
        units.append(unit)
        if tracer is not None:
            tracers.append((len(units) - 1, tracer))
        if not unit["ok"]:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(u["wall_s"] for u in units)
        if len(units) >= min_units and elapsed + typical / 2 > args.seconds:
            break

    probes.append(speed_probe(numpy))
    if tracers:
        # spans stay in memory during the run and are written once here
        with (outroot / "spans.jsonl").open("w") as fh:
            for unit_index, tracer in tracers:
                for name, parent, t0, t1 in tracer.spans:
                    fh.write(json.dumps({"unit": unit_index, "name": name, "parent": parent,
                                         "start": t0, "end": t1}) + "\n")
    print(json.dumps({
        "setup_s": recorder.first_step_at - args.spawned_at
        if recorder.first_step_at is not None else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "speed_probe_s": probes,
        "units": units,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
