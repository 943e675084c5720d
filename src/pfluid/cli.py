"""Batch front end: JSON run configs in, CSV tables and reports out.

Commands: simulate, study, properties, gronwall-check, bochner-check.
Exit codes: 0 success, 2 config error, 3 solver non-convergence,
4 acceptance-check failure, 5 any other error (for example a failed
linear solve).  Identical config + seed produces byte-identical CSV
output; every report embeds the resolved config so a run can be
reproduced from its own artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
from pathlib import Path
import sys

import numpy as np

from . import verification as verif
from .fespace import FESpace, element_pair
from .mesh import unit_square_mesh
from .pstructure import RATIO_NAMES, StressModel, equivalence_envelope
from .stepper import (NonConvergenceError, SolverOptions, TimeGrid,
                      run_simulation)
from .tables import report

log = logging.getLogger("pfluid.cli")

COMMANDS = ("simulate", "study", "properties", "gronwall-check", "bochner-check")
DEFAULT_PROPERTY_GRID = ((1.3, 1.5, 1.8, 2.0), (0.0, 0.01, 1.0))


class ConfigError(ValueError):
    """Invalid or unparsable run configuration."""


class CheckFailureError(RuntimeError):
    """A requested verification check did not hold."""


@dataclasses.dataclass
class RunConfig:
    command: str
    p: float = None
    delta: float = None
    element: str = "MINI"
    n: int = None
    levels: tuple = None
    t_end: float = None
    n_steps: int = None
    steps: tuple = None
    sigma: float = None
    quad_flow: int = 5
    quad_error: int = 7
    manufactured: str = "smooth-periodic"
    forcing: str = "manufactured"
    seed: int = 42
    samples: int = 10000
    data: str = None
    output: str = "results"

    def resolved(self) -> dict:
        """Schema-shaped dict with every default materialized."""
        disc = {"element": self.element,
                "quadrature": {"flow": self.quad_flow, "error": self.quad_error}}
        for key, val in (("n", self.n), ("levels", self.levels),
                         ("T", self.t_end), ("M", self.n_steps),
                         ("steps", self.steps), ("sigma", self.sigma)):
            if val is not None:
                disc[key] = list(val) if isinstance(val, tuple) else val
        out = {"command": self.command, "discretization": disc,
               "seed": self.seed, "output": self.output}
        if self.p is not None:
            out["model"] = {"p": self.p, "delta": self.delta}
        if self.command in ("simulate", "study"):
            out["manufactured"] = self.manufactured
            out["forcing"] = self.forcing
        if self.command == "properties":
            out["samples"] = self.samples
        if self.data is not None:
            out["data"] = self.data
        return out


def _require_keys(mapping, allowed, section):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {section}")


def _positive_int(val, name):
    if not isinstance(val, int) or isinstance(val, bool) or val < 1:
        raise ConfigError(f"{name} must be an integer >= 1")
    return val


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document into a RunConfig.

    Unknown keys anywhere in the document are rejected; error messages
    name the offending field or the violated invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(doc, {"command", "model", "discretization", "manufactured",
                        "forcing", "seed", "samples", "data", "output"},
                  "the top level")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {', '.join(COMMANDS)}")
    cfg = RunConfig(command=command)

    model = doc.get("model")
    if model is not None:
        if not isinstance(model, dict):
            raise ConfigError("model must be an object")
        _require_keys(model, {"p", "delta"}, "model")
        if "p" not in model:
            raise ConfigError("model.p is required")
        if "delta" not in model:
            raise ConfigError("model.delta is required")
        p, delta = model["p"], model["delta"]
        if not isinstance(p, (int, float)) or not 1.0 < float(p) <= 2.0:
            raise ConfigError("p must lie in (1,2]")
        if not isinstance(delta, (int, float)) or float(delta) < 0.0:
            raise ConfigError("delta must be >= 0")
        cfg.p, cfg.delta = float(p), float(delta)
    elif command in ("simulate", "study"):
        raise ConfigError("model is required")

    disc = doc.get("discretization")
    if disc is not None:
        if not isinstance(disc, dict):
            raise ConfigError("discretization must be an object")
        _require_keys(disc, {"element", "n", "levels", "T", "M", "steps",
                             "sigma", "quadrature"}, "discretization")
        if "element" in disc:
            if disc["element"] not in ("MINI", "TH", "P2P1"):
                raise ConfigError("element must be MINI, TH or P2P1")
            cfg.element = disc["element"]
        if "n" in disc:
            cfg.n = _positive_int(disc["n"], "discretization.n")
        if "levels" in disc:
            levels = disc["levels"]
            if (not isinstance(levels, list) or not levels
                    or any(not isinstance(v, int) or isinstance(v, bool)
                           or v < 1 for v in levels)):
                raise ConfigError("levels must each be >= 1")
            cfg.levels = tuple(levels)
        if "T" in disc:
            T = disc["T"]
            if not isinstance(T, (int, float)) or float(T) <= 0.0:
                raise ConfigError("T must be > 0")
            cfg.t_end = float(T)
        if "M" in disc:
            cfg.n_steps = _positive_int(disc["M"], "M")
        if "steps" in disc:
            steps = disc["steps"]
            if (not isinstance(steps, list) or not steps
                    or any(not isinstance(v, int) or isinstance(v, bool)
                           or v < 1 for v in steps)):
                raise ConfigError("steps must each be >= 1")
            cfg.steps = tuple(steps)
        if "sigma" in disc:
            sig = disc["sigma"]
            if not isinstance(sig, (int, float)) or float(sig) <= 0.0:
                raise ConfigError("sigma must be > 0")
            cfg.sigma = float(sig)
        quad = disc.get("quadrature")
        if quad is not None:
            if not isinstance(quad, dict):
                raise ConfigError("discretization.quadrature must be an object")
            _require_keys(quad, {"flow", "error"}, "discretization.quadrature")
            if "flow" in quad:
                cfg.quad_flow = _positive_int(quad["flow"], "quadrature.flow")
            if "error" in quad:
                cfg.quad_error = _positive_int(quad["error"], "quadrature.error")

    if "manufactured" in doc:
        ms_id = doc["manufactured"]
        if ms_id is not None and ms_id not in verif._ALPHAS:
            raise ConfigError(
                f"unknown manufactured solution id {ms_id!r}; "
                f"available: {', '.join(sorted(verif._ALPHAS))}"
            )
        cfg.manufactured = ms_id
    if "forcing" in doc:
        if doc["forcing"] not in ("manufactured", "zero"):
            raise ConfigError("forcing must be 'manufactured' or 'zero'")
        cfg.forcing = doc["forcing"]
    if "seed" in doc:
        seed = doc["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        cfg.seed = seed
    if "samples" in doc:
        cfg.samples = _positive_int(doc["samples"], "samples")
    if "data" in doc:
        if not isinstance(doc["data"], str):
            raise ConfigError("data must be a path string")
        cfg.data = doc["data"]
    if "output" in doc:
        if not isinstance(doc["output"], str) or not doc["output"]:
            raise ConfigError("output must be a nonempty path string")
        cfg.output = doc["output"]

    _validate_command_args(cfg)
    return cfg


def _validate_command_args(cfg: RunConfig):
    if cfg.command == "simulate":
        if cfg.n is None:
            raise ConfigError("discretization.n is required for simulate")
        if cfg.t_end is None:
            raise ConfigError("discretization.T is required")
        if cfg.n_steps is None:
            raise ConfigError("discretization.M is required for simulate")
    elif cfg.command == "study":
        if cfg.t_end is None:
            raise ConfigError("discretization.T is required")
        if cfg.levels is not None and cfg.steps is not None:
            raise ConfigError(
                "discretization.levels and discretization.steps are mutually "
                "exclusive (coupled vs temporal study)"
            )
        if cfg.levels is not None:
            if cfg.sigma is None:
                raise ConfigError(
                    "discretization.sigma is required for a coupled study"
                )
        elif cfg.steps is not None:
            if cfg.n is None:
                raise ConfigError(
                    "discretization.n is required for a temporal study"
                )
        else:
            raise ConfigError(
                "study needs discretization.levels (coupled) or "
                "discretization.steps (temporal)"
            )
        if cfg.manufactured is None:
            raise ConfigError("study requires a manufactured solution id")


def _write(path: Path, text: str):
    path.write_text(text)
    log.info("wrote %s", path)


def _emit(outdir: Path, cfg: RunConfig, title: str, body: str,
          files: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = json.dumps(cfg.resolved(), indent=2, sort_keys=True)
    for name, text in files.items():
        _write(outdir / name, text)
    _write(outdir / "resolved_config.json", resolved + "\n")
    _write(outdir / "report.txt",
           f"pfluid {title}\n\n{body}\nresolved config:\n{resolved}\n")


def _run_simulate(cfg: RunConfig, outdir: Path) -> int:
    model = StressModel(cfg.p, cfg.delta)
    mesh = unit_square_mesh(cfg.n)
    ev, eq = element_pair(cfg.element)
    V = FESpace(mesh, ev, n_components=2)
    Q = FESpace(mesh, eq, n_components=1)
    grid = TimeGrid(cfg.t_end, cfg.n_steps)
    opts = SolverOptions(quad_degree=cfg.quad_flow)
    if cfg.manufactured is None:
        u0 = lambda X: np.zeros_like(np.asarray(X, dtype=float))
        f = None
    else:
        ms = verif.manufactured_default(cfg.manufactured)
        u0 = lambda X: ms.u(0.0, X)
        f = None if cfg.forcing == "zero" else verif.forcing_from(ms, model)
    traj = run_simulation(V, Q, model, grid, u0, f, options=opts)

    norms = traj.l2_norms(cfg.quad_flow)
    fsq = traj.f_norm_sq(cfg.quad_flow)
    energy = norms**2 + grid.kappa * np.concatenate([[0.0], np.cumsum(fsq[1:])])
    lines = ["m,t_m,energy,divergence,iterations"]
    table = [["m", "t_m", "energy", "divergence", "iterations"]]
    for m, (tm, div) in enumerate(zip(grid.times(), traj.divergences())):
        its = traj.diagnostics[m - 1].iterations if m else 0
        lines.append(f"{m},{tm:.10g},{energy[m]:.10g},{div:.10g},{its}")
        table.append([m, tm, energy[m], div, its])
    _emit(outdir, cfg, "simulate", report(table),
          {"trajectory.csv": "\n".join(lines) + "\n"})
    return 0


def _study_config(cfg: RunConfig) -> verif.StudyConfig:
    kw = dict(p=cfg.p, delta=cfg.delta, element=cfg.element, t_end=cfg.t_end,
              manufactured=cfg.manufactured, quad_flow=cfg.quad_flow,
              quad_error=cfg.quad_error)
    if cfg.levels is not None:
        return verif.StudyConfig(levels=cfg.levels, sigma=cfg.sigma,
                                 mode="coupled", **kw)
    return verif.StudyConfig(mode="temporal", n_fixed=cfg.n, steps=cfg.steps,
                             **kw)


def _run_study(cfg: RunConfig, outdir: Path) -> int:
    result = verif.convergence_study(_study_config(cfg))
    quality = ["level,h_max,h_min,gamma"]
    for row in result.rows:
        q = row.traj.v_space.mesh.quality()
        quality.append(f"{row.level},{q.h_max:.12g},{q.h_min:.12g},{q.gamma:.12g}")
    _emit(outdir, cfg, "study", result.summary(),
          {"study.csv": result.csv(),
           "mesh_quality.csv": "\n".join(quality) + "\n"})
    return 0


def _run_properties(cfg: RunConfig, outdir: Path) -> int:
    if cfg.p is not None:
        models = [StressModel(cfg.p, cfg.delta)]
    else:
        models = [StressModel(p, d) for p in DEFAULT_PROPERTY_GRID[0]
                  for d in DEFAULT_PROPERTY_GRID[1]]
    lines = ["ratio,p,delta,ratio_min,ratio_max,seed"]
    table = [["ratio", "p", "delta", "ratio_min", "ratio_max", "seed"]]
    for model in models:
        env = equivalence_envelope(model, n_samples=cfg.samples, seed=cfg.seed)
        for name in RATIO_NAMES:
            lo, hi = env[name]
            lines.append(f"{name},{model.p:.10g},{model.delta:.10g},"
                         f"{lo:.10g},{hi:.10g},{cfg.seed}")
            table.append([name, model.p, model.delta, lo, hi, cfg.seed])
    _emit(outdir, cfg, "properties", report(table),
          {"properties.csv": "\n".join(lines) + "\n"})
    return 0


def _run_gronwall(cfg: RunConfig, outdir: Path) -> int:
    if cfg.data is not None:
        try:
            raw = json.loads(Path(cfg.data).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read Gronwall data {cfg.data!r}: {e}")
        allowed = {f.name for f in dataclasses.fields(verif.GronwallData)}
        _require_keys(raw, allowed, "gronwall data")
        try:
            data = verif.GronwallData(**raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid Gronwall data: {e}")
        cases = [("user", data)]
    else:
        # built-in demonstration: clean zero data and a doubling violation
        M = 10
        zero = verif.GronwallData(kappa=0.1, h=0.1, p=1.8,
                                  a=np.zeros(M + 1), b=np.zeros(M + 1))
        bad = verif.GronwallData(kappa=0.1, h=0.1, p=1.8,
                                 a=1e-3 * 2.0 ** np.arange(M + 1),
                                 b=np.zeros(M + 1))
        cases = [("zero", zero), ("doubling", bad)]

    table = [["case", "hypotheses", "stepwise", "conclusion", "mu0_req",
              "mu4_req", "b_max"]]
    results = {}
    for name, data in cases:
        rep = verif.gronwall_check(data)
        table.append([name, rep.hypotheses_ok, rep.stepwise_ok,
                      rep.conclusion_ok, rep.mu0_required, rep.mu4_required,
                      rep.b_max])
        results[name] = {
            "hypotheses_ok": rep.hypotheses_ok,
            "stepwise_ok": rep.stepwise_ok,
            "stepwise_ok_bis": rep.stepwise_ok_bis,
            "stepwise_ok_ter": rep.stepwise_ok_ter,
            "conclusion_ok": rep.conclusion_ok,
            "mu0_required": rep.mu0_required,
            "mu4_required": rep.mu4_required,
            "b_max": rep.b_max,
            "violations_bis": rep.violations_bis,
            "violations_ter": rep.violations_ter,
        }
    _emit(outdir, cfg, "gronwall-check", report(table),
          {"gronwall.json": json.dumps(results, indent=2, sort_keys=True) + "\n"})
    if cfg.data is not None:
        rep = results["user"]
        if not (rep["hypotheses_ok"] and rep["stepwise_ok"]
                and rep["conclusion_ok"]):
            raise CheckFailureError("Gronwall check failed for supplied data")
    return 0


def _run_bochner(cfg: RunConfig, outdir: Path) -> int:
    t_end = cfg.t_end if cfg.t_end is not None else 1.0
    step_counts = cfg.steps if cfg.steps is not None else (4, 8, 16)
    lines = ["family,M,kappa,lhs,rhs,holds"]
    table = [["family", "M", "kappa", "lhs", "rhs", "holds"]]
    failures = []
    slopes = []
    for family in ("constant", "linear", "sine"):
        f, df = verif.bochner_example(family, seed=cfg.seed)
        lhs_list, kap_list = [], []
        for M in step_counts:
            grid = TimeGrid(t_end, M)
            rep = verif.bochner_check(f, df, grid)
            lines.append(f"{family},{M},{grid.kappa:.10g},{rep.lhs:.10g},"
                         f"{rep.rhs:.10g},{rep.holds}")
            table.append([family, M, grid.kappa, rep.lhs, rep.rhs, rep.holds])
            if not rep.holds:
                failures.append((family, M))
            lhs_list.append(rep.lhs)
            kap_list.append(grid.kappa)
        if min(lhs_list) > 0.0:
            slope = float(np.polyfit(np.log(kap_list), np.log(lhs_list), 1)[0])
            slopes.append(f"{family}: lhs ~ kappa^{slope:.3f}")
    body = report(table) + "\n" + "\n".join(slopes) + "\n"
    _emit(outdir, cfg, "bochner-check", body, {"bochner.csv": "\n".join(lines) + "\n"})
    if failures:
        raise CheckFailureError(f"Bochner bound violated for {failures}")
    return 0


_RUNNERS = {
    "simulate": _run_simulate,
    "study": _run_study,
    "properties": _run_properties,
    "gronwall-check": _run_gronwall,
    "bochner-check": _run_bochner,
}


def run(cfg: RunConfig, output_dir=None) -> int:
    """Execute a validated config, writing artifacts to the output dir."""
    outdir = Path(output_dir if output_dir is not None else cfg.output)
    log.info("running %s into %s", cfg.command, outdir)
    return _RUNNERS[cfg.command](cfg, outdir)


def _error_json(exc, code):
    return json.dumps({"error": type(exc).__name__, "message": str(exc),
                       "exit_code": code}, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pfluid",
        description="Flow solver and verification harness batch runner.",
    )
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--output", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    level = os.environ.get("PFLUID_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        print(_error_json(e, 2), file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = args.seed
    except ConfigError as e:
        print(_error_json(e, 2), file=sys.stderr)
        return 2
    try:
        return run(cfg, args.output)
    except ConfigError as e:
        print(_error_json(e, 2), file=sys.stderr)
        return 2
    except NonConvergenceError as e:
        print(_error_json(e, 3), file=sys.stderr)
        return 3
    except CheckFailureError as e:
        print(_error_json(e, 4), file=sys.stderr)
        return 4
    except ValueError as e:
        # module-level rejection of inconsistent run parameters
        print(_error_json(e, 2), file=sys.stderr)
        return 2
    except Exception as e:
        # any other failure still ends in the one JSON error object
        log.debug("unexpected error", exc_info=True)
        print(_error_json(e, 5), file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
