"""pfluid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in a fresh interpreter with BLAS
pinned to one thread, checks every unit's artifacts, and prints a
summary followed by one JSON line with the metrics named in
BENCHMARK.json: the end-to-end metrics with ``--trace 0``, the
per-layer table of a traced run with ``--trace 1``.  Artifacts, spans
and a full result record go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from pathlib import Path
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Set-up is one sample per interpreter, so it is sampled in this many
# fresh processes (the workload process included) and reported as a median.
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
# A tail percentile needs at least this many steps beyond it.
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(args, env, deadline):
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def environment(env, result):
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            caches[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            continue
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pfluid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("l2_cache"),
        "l3_cache": caches.get("l3_cache"),
        "python": platform.python_version(),
        **result["versions"],
        "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "speed_probe_s": result["speed_probe_s"],
    }


def end_to_end(units, setup_samples, peak_rss_mb):
    """End-to-end metrics of an untraced run, with notes for the summary."""
    ok = [u for u in units if u["ok"]]
    attempted = len(units)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": len(ok) / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "success_rate": f"fail_rate {attempted - len(ok)}/{attempted} units",
    }
    if not ok:
        return metrics, notes
    steps = [s for u in ok for s in u["steps"]]
    metrics["wall_s"] = statistics.median(u["wall_s"] for u in ok)
    metrics["dof_steps_per_s"] = sum(n for _, n in steps) / sum(t for t, _ in steps)
    notes["wall_s"] = f"median of {len(ok)} units"
    # Step quantiles are taken at the largest size in the run (the finest
    # level of a study).  Over all levels the median falls on the boundary
    # between levels and reads the fastest few steps of the finest one.
    size = max(n for _, n in steps)
    times = sorted(t for t, n in steps if n == size)
    metrics["step_s_p50"] = statistics.median(times)
    notes["step_s_p50"] = f"{len(times)} steps of {size} unknowns"
    # the percentile is fixed by the steps per unit, so it does not depend
    # on how many units fit in the run
    per_unit = sum(1 for _, n in ok[0]["steps"] if n == size)
    if per_unit > TAIL_BEYOND:
        beyond = TAIL_BEYOND * len(times) // per_unit
        k = len(times) - beyond
        metrics["step_s_tail"] = times[k - 1]
        notes["step_s_tail"] = f"p{100.0 * k / len(times):.1f} of {len(times)} steps"
    else:
        notes["step_s_tail"] = f"omitted: {per_unit} steps per unit"
    return metrics, notes


def per_layer(units):
    traced = [u for u in units if u["ok"] and u["traced"]]
    plain = [u for u in units if u["ok"] and not u["traced"]]
    if not traced or not plain:
        return {}
    metrics = {name: statistics.median(u["layers"][name] for u in traced)
               for name in traced[0]["layers"]}
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(u["wall_s"] for u in traced)
        / statistics.median(u["wall_s"] for u in plain) - 1.0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    if not (ROOT / "src" / "pfluid" / "__init__.py").is_file():
        raise BenchError(f"pfluid sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    workload = WORKLOADS[args.workload]

    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    outroot = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outroot, ignore_errors=True)
    outroot.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setup_samples = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            probe = run_worker([*common, "--seconds", "0", "--setup-only",
                                "--out", str(outroot / f"setup-{i}")], env, deadline)
            setup_samples.append(probe["setup_s"])
    result = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--out", str(outroot)], env, deadline)
    units = result["units"]
    if result["setup_s"] is not None:
        setup_samples.append(result["setup_s"])

    problems = [f"unit {i}: {p}" for i, u in enumerate(units) for p in u["problems"]]
    # tracing, or anything else outside the config, must not change the solver path
    same_path = all(u["iterations"] == units[0]["iterations"] for u in units if u["ok"])
    if not same_path:
        problems.append("iteration counts differ between units of one config")
    if args.trace:
        metrics, notes = per_layer(units), {}
        wanted = spec["per_layer"]
    else:
        metrics, notes = end_to_end(units, setup_samples, result["peak_rss_mb"])
        wanted = spec["end_to_end"]

    env_info = environment(env, result)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(workload.config(args.seed))}")
    print(f"environment: {json.dumps(env_info)}")
    for entry in wanted:
        name = entry["name"]
        value = metrics.get(name)
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:30s} {shown:>12s} {entry['unit']:8s} {notes.get(name, '')}")
    if args.trace and metrics:
        # stepper.step_s is inclusive; every other *_s is a self time
        layer_s = {k: v for k, v in metrics.items()
                   if k.endswith("_s") and k != "stepper.step_s"}
        top = max(layer_s, key=layer_s.get)
        print(f"largest layer self time: {top} ({layer_s[top]:.4g} s)")
        n_traced = sum(1 for u in units if u["traced"])
        print(f"iteration counts identical in {len(units) - n_traced} untraced and "
              f"{n_traced} traced units: {same_path}")
    for p in problems:
        print(f"FAILED {p}")

    out = {
        "correct": not problems,
        "attempted": len(units),
        "failed": sum(1 for u in units if not u["ok"]),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in wanted if metrics.get(e["name"]) is not None},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": workload.config(args.seed), "environment": env_info,
              "problems": problems, "metrics": metrics, "notes": notes,
              "units": units, "seconds": time.monotonic() - started}
    (outroot / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
