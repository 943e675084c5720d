"""Span tracing of pfluid from outside the package.

``Tracer.install`` replaces public functions of each ``src/pfluid``
module with timing wrappers, at the name the caller looks up (a module
attribute such as ``pfluid.stepper.splu`` or a class attribute such as
``StressModel.stress_jacobian``).  Spans (name, parent, start, end) stay
in memory; ``layer_metrics`` turns them into the per-layer table, where
``*_s`` is self time: a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

_clock = time.perf_counter


class _TimedLU:
    """SuperLU proxy whose triangular solves are spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        return self._tracer.call("assembly.trisolve", self._lu.solve, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, parent index or -1, start, end]
        self.forcing_calls = 0
        self.fill_nnz = 0
        self.missing = []      # patch points the program no longer has
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    # -- span recording --------------------------------------------------

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, _clock(), 0.0])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][3] = _clock()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- wrappers with extra bookkeeping ---------------------------------

    def _stress_assembly(self, fn):
        # one function, three layers: the jacobian argument picks which
        names = {"newton": "assembly.newton_op", "picard": "assembly.picard_op",
                 None: "assembly.residual"}
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return self.call(names[bound.arguments["jacobian"]], fn, *args, **kwargs)
        return wrapper

    def _factorization(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lu = self.call("assembly.factor", fn, *args, **kwargs)
            # L and U are built on access; keep that cost out of every layer
            idx = self._enter("bench.fill")
            self.fill_nnz = max(self.fill_nnz, lu.L.nnz + lu.U.nnz)
            self._exit(idx)
            return _TimedLU(lu, self)
        return wrapper

    def _forcing(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            f = self.call("verification.forcing", fn, *args, **kwargs)

            def timed_f(*fargs, **fkwargs):
                self.forcing_calls += 1
                return self.call("verification.forcing", f, *fargs, **fkwargs)
            return timed_f
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch_points(self):
        from pfluid import assembly, cli, fespace, mesh, pstructure, stepper, verification

        timed = self._timed
        return [
            (cli, "unit_square_mesh", timed, "mesh.build"),
            (verification, "unit_square_mesh", timed, "mesh.build"),
            (mesh.Mesh, "quality", timed, "mesh.build"),
            (fespace.FESpace, "__init__", timed, "fespace.setup"),
            (fespace.FESpace, "tabulation", timed, "fespace.setup"),
            (stepper, "div_preserving_projection", timed, "fespace.projection"),
            (fespace.FESpace, "eval_at_qp", timed, "fespace.eval"),
            (fespace.FESpace, "grad_at_qp", timed, "fespace.eval"),
            (fespace.FESpace, "integrate", timed, "fespace.eval"),
            (pstructure.StressModel, "stress", timed, "pstructure.stress"),
            (pstructure.StressModel, "stress_jacobian", timed, "pstructure.jacobian"),
            (pstructure.StressModel, "f_map", timed, "pstructure.f_map"),
            (assembly, "assemble_stress", self._stress_assembly, None),
            (assembly, "assemble_convection", timed, "assembly.convection"),
            (assembly, "assemble_rhs", timed, "assembly.rhs"),
            (assembly.SaddleSystem, "matrix", timed, "assembly.saddle_matrix"),
            (stepper, "splu", self._factorization, None),
            (assembly, "splu", self._factorization, None),
            (stepper.StepperContext, "step", timed, "stepper.step"),
            (cli, "run_simulation", timed, "stepper.run"),
            (verification, "run_simulation", timed, "stepper.run"),
            (verification, "manufactured_default", timed, "verification.manufactured"),
            (verification, "forcing_from", self._forcing, None),
            (verification, "error_record", timed, "verification.error_record"),
            (stepper.Trajectory, "energy_report", timed, "verification.energy"),
            (stepper.Trajectory, "l2_norms", timed, "verification.energy"),
            (stepper.Trajectory, "f_norm_sq", timed, "verification.energy"),
            (cli, "_emit", timed, "cli.emit"),
        ]

    def install(self):
        for owner, attr, make, name in self._patch_points():
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            wrapper = make(name, original) if name else make(original)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
        if self.missing:
            print(f"trace: patch points not found: {', '.join(self.missing)}",
                  file=sys.stderr)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def aggregate(self):
        """{name: [self seconds, total seconds, calls, calls inside steps]}."""
        n = len(self.spans)
        child = [0.0] * n
        in_step = [False] * n
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_step[i] = in_step[parent] or self.spans[parent][0] == "stepper.step"
        agg = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            row = agg.setdefault(name, [0.0, 0.0, 0, 0])
            row[0] += end - start - child[i]
            row[1] += end - start
            row[2] += 1
            row[3] += in_step[i]
        return agg


# Per-layer metric -> (span name, field of Tracer.aggregate's rows).
_SPAN_METRICS = {
    "mesh.build_s": ("mesh.build", 0),
    "fespace.setup_s": ("fespace.setup", 0),
    "fespace.projection_s": ("fespace.projection", 0),
    "fespace.eval_s": ("fespace.eval", 0),
    "fespace.eval_calls": ("fespace.eval", 2),
    "pstructure.stress_s": ("pstructure.stress", 0),
    "pstructure.stress_calls": ("pstructure.stress", 2),
    "pstructure.jacobian_s": ("pstructure.jacobian", 0),
    "pstructure.f_map_s": ("pstructure.f_map", 0),
    "assembly.newton_op_s": ("assembly.newton_op", 0),
    "assembly.newton_op_calls": ("assembly.newton_op", 2),
    "assembly.picard_op_s": ("assembly.picard_op", 0),
    "assembly.picard_op_calls": ("assembly.picard_op", 2),
    "assembly.residual_s": ("assembly.residual", 0),
    "assembly.residual_calls": ("assembly.residual", 2),
    "assembly.saddle_matrix_s": ("assembly.saddle_matrix", 0),
    "assembly.convection_s": ("assembly.convection", 0),
    "assembly.rhs_s": ("assembly.rhs", 0),
    "assembly.trisolve_s": ("assembly.trisolve", 0),
    "assembly.factor_s": ("assembly.factor", 0),
    "assembly.factor_calls": ("assembly.factor", 2),
    "stepper.step_s": ("stepper.step", 1),
    "stepper.steps": ("stepper.step", 2),
    "stepper.self_s": ("stepper.step", 0),
    "stepper.newton_iters": ("assembly.newton_op", 3),
    "stepper.picard_iters": ("assembly.picard_op", 3),
    "verification.manufactured_s": ("verification.manufactured", 0),
    "verification.forcing_s": ("verification.forcing", 0),
    "verification.error_record_s": ("verification.error_record", 0),
    "verification.energy_s": ("verification.energy", 0),
    "cli.emit_s": ("cli.emit", 0),
}


def layer_metrics(tracer: Tracer, step_records) -> dict:
    """Per-layer table of one traced unit.

    step_records holds one (seconds, unknowns, diagnostics, method) tuple
    per step of the unit, from the step recorder.
    """
    agg = tracer.aggregate()
    out = {}
    for metric, (span, field) in _SPAN_METRICS.items():
        row = agg.get(span)
        out[metric] = row[field] if row else (0 if field >= 2 else 0.0)
    steps = max(len(step_records), 1)
    diags = [rec[2] for rec in step_records]
    # an iteration is rejected when it leaves the residual norm unchanged
    rejected = sum(
        sum(1 for a, b in zip(d.residual_history, d.residual_history[1:]) if a == b)
        for d in diags
    )
    accepted = sum(d.iterations for d in diags) - rejected
    residual_evals = agg.get("assembly.residual", [0, 0, 0, 0])[3]
    out.update({
        "verification.forcing_calls": tracer.forcing_calls,
        "assembly.fill_nnz": tracer.fill_nnz,
        "stepper.backtracks": sum(d.backtracks for d in diags),
        "stepper.fallbacks": sum(1 for _, _, d, method in step_records
                                 if method == "newton" and d.mode == "picard"),
        "stepper.factor_per_step": agg.get("assembly.factor", [0, 0, 0, 0])[3] / steps,
        "stepper.accept_ratio": accepted / residual_evals if residual_evals else 0.0,
    })
    return out
