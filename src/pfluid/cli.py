"""Batch front end: JSON run configs in, CSV tables and reports out.

Commands: simulate, study, properties, gronwall-check, bochner-check.
Each config key is one row of ``KEYS``; ``parse_config`` walks the table,
``RunConfig`` takes its fields and defaults from it, ``resolved()`` walks
it back, and the keys a section allows are the table's paths.  Only the
rules that tie keys to the command are code (``_validate_command_args``).

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
import math
import os
from pathlib import Path
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import verification as verif
from .fespace import FESpace, element_pair
from .mesh import unit_square_mesh
from .pstructure import RATIO_NAMES, StressModel, equivalence_envelope
from .stepper import (NonConvergenceError, SolverOptions, TimeGrid,
                      run_simulation)
from .tables import csv, report

log = logging.getLogger("pfluid.cli")

COMMANDS = ("simulate", "study", "properties", "gronwall-check", "bochner-check")
DEFAULT_PROPERTY_GRID = ((1.3, 1.5, 1.8, 2.0), (0.0, 0.01, 1.0))


class ConfigError(ValueError):
    """Invalid or unparsable run configuration."""


class CheckFailureError(RuntimeError):
    """A requested verification check did not hold."""


class Key(NamedTuple):
    """One config key: where it lives, its default and how it is checked."""

    attr: str               # RunConfig attribute
    path: tuple             # path in the config document
    default: object         # taken when the key is absent
    check: Callable         # a given value must pass it...
    message: str            # ...or fail with this, which may name it as {value}
    store: Callable = None  # stored form, for example float
    echo: tuple = COMMANDS  # commands whose resolved config echoes the key
    required: bool = False  # must be given whenever its section is


def _number(v):
    # bool is an int subclass, and true must not pass as 1
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v):
    return _number(v) and isinstance(v, int)


def _positive_int(v):
    return _integer(v) and v >= 1


def _positive_ints(v):
    return isinstance(v, list) and bool(v) and all(map(_positive_int, v))


KEYS = (
    Key("p", ("model", "p"), None, lambda v: _number(v) and 1.0 < v <= 2.0,
        "p must lie in (1,2]", float, required=True),
    Key("delta", ("model", "delta"), None, lambda v: _number(v) and v >= 0.0,
        "delta must be >= 0", float, required=True),
    Key("element", ("discretization", "element"), "MINI",
        lambda v: v in ("MINI", "TH", "P2P1"), "element must be MINI, TH or P2P1"),
    Key("n", ("discretization", "n"), None, _positive_int,
        "discretization.n must be an integer >= 1"),
    Key("levels", ("discretization", "levels"), None, _positive_ints,
        "levels must each be >= 1", tuple),
    Key("t_end", ("discretization", "T"), None, lambda v: _number(v) and v > 0.0,
        "T must be > 0", float),
    Key("n_steps", ("discretization", "M"), None, _positive_int,
        "M must be an integer >= 1"),
    Key("steps", ("discretization", "steps"), None, _positive_ints,
        "steps must each be >= 1", tuple),
    Key("sigma", ("discretization", "sigma"), None,
        lambda v: _number(v) and v > 0.0, "sigma must be > 0", float),
    Key("quad_flow", ("discretization", "quadrature", "flow"), 5, _positive_int,
        "quadrature.flow must be an integer >= 1"),
    Key("quad_error", ("discretization", "quadrature", "error"), 7, _positive_int,
        "quadrature.error must be an integer >= 1"),
    Key("manufactured", ("manufactured",), "smooth-periodic",
        lambda v: v is None or isinstance(v, str) and v in verif._ALPHAS,
        "unknown manufactured solution id {value!r}; available: "
        + ", ".join(sorted(verif._ALPHAS)), echo=("simulate", "study")),
    Key("forcing", ("forcing",), "manufactured",
        lambda v: v in ("manufactured", "zero"),
        "forcing must be 'manufactured' or 'zero'", echo=("simulate", "study")),
    Key("seed", ("seed",), 42, lambda v: _integer(v) and v >= 0,
        "seed must be a nonnegative integer"),
    Key("samples", ("samples",), 10000, _positive_int,
        "samples must be an integer >= 1", echo=("properties",)),
    Key("data", ("data",), None, lambda v: isinstance(v, str),
        "data must be a path string"),
    Key("output", ("output",), "results", lambda v: isinstance(v, str) and v != "",
        "output must be a nonempty path string"),
)
SEED = next(key for key in KEYS if key.attr == "seed")


def _resolved(cfg) -> dict:
    """Schema-shaped dict: every default materialized, unset optional keys left out."""
    out = {"command": cfg.command}
    for key in KEYS:
        value = getattr(cfg, key.attr)
        if cfg.command in key.echo and (value is not None or key.default is not None):
            section = out
            for name in key.path[:-1]:
                section = section.setdefault(name, {})
            section[key.path[-1]] = list(value) if isinstance(value, tuple) else value
    return out


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [("command", str)]
    + [(key.attr, object, dataclasses.field(default=key.default)) for key in KEYS],
    namespace={"resolved": _resolved})


def _read_json(text: str, what: str = "config") -> dict:
    """Parse a JSON object; ``what`` names the document in error messages.

    NaN, Infinity, -Infinity and literals that overflow a float (1e400, or
    an integer of 400 digits) are rejected: Python's JSON reader accepts
    them, and range checks miss them or meet them with an OverflowError.
    """
    def finite(literal):
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"non-finite number {literal} in {what}")
        return value

    def finite_int(literal):
        finite(literal)
        return int(literal)

    try:
        doc = json.loads(text, parse_float=finite, parse_int=finite_int,
                         parse_constant=finite)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"{what} parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def _require_keys(mapping, allowed, section):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {section}")


def _section(doc: dict, path: tuple):
    """The object at ``path`` in the config, None where it is absent; each
    object on the way may hold only the keys the table's paths name."""
    section = doc
    for depth in range(1, len(path) + 1):
        where = path[:depth]
        section = section.get(path[depth - 1])
        if section is None:
            return None
        if not isinstance(section, dict):
            raise ConfigError(f"{'.'.join(where)} must be an object")
        _require_keys(section, {key.path[depth] for key in KEYS
                                if key.path[:depth] == where}, ".".join(where))
    return section


def _checked(key: Key, value):
    if not key.check(value):
        raise ConfigError(key.message.format(value=value))
    return value if key.store is None else key.store(value)


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document into a RunConfig.

    Unknown keys anywhere in the document are rejected; error messages
    name the offending field or the violated invariant.
    """
    doc = _read_json(text)
    _require_keys(doc, {"command"} | {key.path[0] for key in KEYS}, "the top level")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {', '.join(COMMANDS)}")
    cfg = RunConfig(command)
    for key in KEYS:
        *where, name = key.path
        section = _section(doc, tuple(where))
        if section is not None and name in section:
            setattr(cfg, key.attr, _checked(key, section[name]))
        elif section is not None and key.required:
            raise ConfigError(f"{'.'.join(key.path)} is required")
    _validate_command_args(cfg)
    return cfg


def _validate_command_args(cfg: RunConfig):
    if cfg.command in ("simulate", "study"):
        if cfg.p is None:
            raise ConfigError("model is required")
        if cfg.t_end is None:
            raise ConfigError("discretization.T is required")
    if cfg.command == "simulate":
        if cfg.n is None:
            raise ConfigError("discretization.n is required for simulate")
        if cfg.n_steps is None:
            raise ConfigError("discretization.M is required for simulate")
    elif cfg.command == "study":
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


def _emit(outdir: Path, cfg: RunConfig, title: str, body: str,
          files: dict) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = json.dumps(cfg.resolved(), indent=2, sort_keys=True)
    files = {**files, "resolved_config.json": resolved + "\n",
             "report.txt": f"pfluid {title}\n\n{body}\nresolved config:\n{resolved}\n"}
    for name, text in files.items():
        (outdir / name).write_text(text)
        log.info("wrote %s", outdir / name)


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
        load = None
    else:
        ms = verif.manufactured_default(cfg.manufactured)
        u0 = lambda X: ms.u(0.0, X)
        load = (None if cfg.forcing == "zero"
                else verif.load_from(ms, model, V, cfg.quad_flow))
    traj = run_simulation(V, Q, model, grid, u0, load, options=opts)

    norms = traj.l2_norms(cfg.quad_flow)
    fsq = traj.f_norm_sq(cfg.quad_flow)
    energy = norms**2 + grid.kappa * np.concatenate([[0.0], np.cumsum(fsq[1:])])
    table = [["m", "t_m", "energy", "divergence", "iterations"]]
    for m, (tm, div) in enumerate(zip(grid.times(), traj.divergences())):
        its = traj.diagnostics[m - 1].iterations if m else 0
        table.append([m, tm, energy[m], div, its])
    _emit(outdir, cfg, "simulate", report(table), {"trajectory.csv": csv(table)})
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
        q = row.quality
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
    table = [["ratio", "p", "delta", "ratio_min", "ratio_max", "seed"]]
    for model in models:
        env = equivalence_envelope(model, n_samples=cfg.samples, seed=cfg.seed)
        for name in RATIO_NAMES:
            lo, hi = env[name]
            table.append([name, model.p, model.delta, lo, hi, cfg.seed])
    _emit(outdir, cfg, "properties", report(table), {"properties.csv": csv(table)})
    return 0


def _run_gronwall(cfg: RunConfig, outdir: Path) -> int:
    if cfg.data is not None:
        try:
            text = Path(cfg.data).read_text()
        except OSError as e:
            raise ConfigError(f"cannot read Gronwall data {cfg.data!r}: {e}")
        raw = _read_json(text, f"Gronwall data {cfg.data!r}")
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
        results[name] = {k: v for k, v in vars(rep).items() if k != "margins"}
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
    table = [["family", "M", "kappa", "lhs", "rhs", "holds"]]
    failures = []
    slopes = []
    for family in ("constant", "linear", "sine"):
        f, df = verif.bochner_example(family, seed=cfg.seed)
        lhs_list, kap_list = [], []
        for M in step_counts:
            grid = TimeGrid(t_end, M)
            rep = verif.bochner_check(f, df, grid)
            table.append([family, M, grid.kappa, rep.lhs, rep.rhs, rep.holds])
            if not rep.holds:
                failures.append((family, M))
            lhs_list.append(rep.lhs)
            kap_list.append(grid.kappa)
        if min(lhs_list) > 0.0:
            slope = float(np.polyfit(np.log(kap_list), np.log(lhs_list), 1)[0])
            slopes.append(f"{family}: lhs ~ kappa^{slope:.3f}")
    body = report(table) + "\n" + "\n".join(slopes) + "\n"
    _emit(outdir, cfg, "bochner-check", body, {"bochner.csv": csv(table)})
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


# first match wins; ConfigError is a ValueError
_EXIT_CODES = ((NonConvergenceError, 3), (CheckFailureError, 4), (ValueError, 2),
               (Exception, 5))


def _fail(exc, code) -> int:
    """Print the one JSON error object and return the exit code."""
    print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                      "exit_code": code}, sort_keys=True), file=sys.stderr)
    return code


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
        return _fail(e, 2)
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = _checked(SEED, args.seed)
        return run(cfg, args.output)
    except Exception as e:
        code = next(code for kind, code in _EXIT_CODES if isinstance(e, kind))
        if code == 5:
            log.debug("unexpected error", exc_info=True)
        return _fail(e, code)


if __name__ == "__main__":
    sys.exit(main())
