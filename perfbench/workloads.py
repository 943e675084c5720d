"""Benchmark workloads: seeded run configs and the correctness gate.

Each workload is one config document for the batch front end
(``pfluid.cli.parse_config`` + ``pfluid.cli.run``).  The seed picks the
model parameters; seed 0 is the nominal point whose artifacts must match
the references recorded under ``perfbench/reference``.  The program only
ever sees the resulting config.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
import math
from pathlib import Path
import random

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance against the seed-0 references.  Divergence entries are
# round-off (about 1e-16), so they also get an absolute floor.
REF_RTOL = 1e-6
DIVERGENCE_ATOL = 1e-12
# Every seed: discrete divergence stays at solver-tolerance level and the
# coupled study's last-pair F-rate stays in the acceptance band.
DIVERGENCE_MAX = 1e-8
EOC_F_BAND = (0.85, 2.2)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    discretization: dict
    p: float
    delta: float
    p_range: tuple
    delta_range: tuple | None  # None keeps delta fixed
    artifact: str               # CSV the gate reads
    compared: tuple             # columns matched against the reference

    def params(self, seed: int):
        """(p, delta) for a seed; seed 0 is the nominal point."""
        if seed == 0:
            return self.p, self.delta
        rng = random.Random(f"{self.name}:{seed}")
        p = round(rng.uniform(*self.p_range), 4)
        delta = self.delta
        if self.delta_range is not None:
            delta = round(rng.uniform(*self.delta_range), 4)
        return p, delta

    def config(self, seed: int) -> dict:
        p, delta = self.params(seed)
        return {"command": self.command, "model": {"p": p, "delta": delta},
                "discretization": dict(self.discretization)}


# Parameter ranges are narrow on purpose: over p in [1.7, 1.9] the Picard
# path's run time moves from 7.9 s to 14.0 s and the coupled study's from
# 16 s to 23 s, more than the regression bounds allow between seeds.
WORKLOADS = {
    w.name: w for w in (
        # Acceptance-style coupled study; the Newton operator dominates.
        Workload("coupled-newton", "study",
                 {"element": "MINI", "levels": [4, 8, 16], "T": 0.5, "sigma": 0.25},
                 p=1.8, delta=0.1, p_range=(1.78, 1.82), delta_range=(0.09, 0.11),
                 artifact="study.csv",
                 compared=("err_L2max", "err_Fagg", "eoc_L2", "eoc_F")),
        # Many tiny Picard solves (delta = 0 forces the secant path), so
        # per-call fixed costs dominate and the Newton operator is bypassed.
        Workload("picard-small", "simulate",
                 {"element": "MINI", "n": 8, "T": 0.5, "M": 64},
                 p=1.8, delta=0.0, p_range=(1.79, 1.81), delta_range=None,
                 artifact="trajectory.csv", compared=("energy", "divergence")),
        # First four steps of the coupled study's next level (n=32,
        # kappa = 0.25 h): factorization fill dominates.  Too few steps for
        # a tail percentile and too slow for the timed set, so it is run by
        # hand (see README.md).
        Workload("simulate-n32", "simulate",
                 {"element": "MINI", "n": 32, "T": 0.03125, "M": 4},
                 p=1.8, delta=0.1, p_range=(1.78, 1.82), delta_range=(0.09, 0.11),
                 artifact="trajectory.csv", compared=("energy", "divergence")),
    )
}


def _read_csv(path: Path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _number(text):
    return math.nan if text == "" else float(text)


def check_outputs(workload: Workload, seed: int, outdir: Path) -> list:
    """Problems found in one unit's artifacts; empty when correct."""
    path = Path(outdir) / workload.artifact
    if not path.is_file():
        return [f"missing artifact {workload.artifact}"]
    rows = _read_csv(path)
    problems = []
    if workload.command == "study":
        levels = workload.discretization["levels"]
        if len(rows) != len(levels):
            return [f"study has {len(rows)} rows, expected {len(levels)}"]
        for row in rows:
            for key in ("err_L2max", "err_Fagg", "energy"):
                if not math.isfinite(_number(row[key])):
                    problems.append(f"level {row['level']}: {key} not finite")
        eoc_f = _number(rows[-1]["eoc_F"])
        lo, hi = EOC_F_BAND
        if not lo <= eoc_f <= hi:
            problems.append(f"last-pair eoc_F {eoc_f:.4g} outside [{lo}, {hi}]")
    else:
        steps = workload.discretization["M"]
        if len(rows) != steps + 1:
            return [f"trajectory has {len(rows)} rows, expected {steps + 1}"]
        for row in rows:
            energy = _number(row["energy"])
            div = _number(row["divergence"])
            if not (math.isfinite(energy) and energy > 0.0):
                problems.append(f"step {row['m']}: energy {row['energy']}")
            if not div <= DIVERGENCE_MAX:
                problems.append(f"step {row['m']}: divergence {row['divergence']}")
    if seed == 0:
        problems += _compare_reference(workload, rows)
    return problems


def _compare_reference(workload: Workload, rows) -> list:
    ref_path = REFERENCE_DIR / f"{workload.name}.csv"
    if not ref_path.is_file():
        return [f"missing reference {ref_path.name}"]
    ref = _read_csv(ref_path)
    if len(ref) != len(rows):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    problems = []
    for i, (got, want) in enumerate(zip(rows, ref)):
        for key in workload.compared:
            a, b = _number(got[key]), _number(want[key])
            if math.isnan(a) and math.isnan(b):
                continue
            atol = DIVERGENCE_ATOL if key == "divergence" else 0.0
            if not abs(a - b) <= max(REF_RTOL * abs(b), atol):
                problems.append(f"row {i} {key}: {got[key]} vs reference {want[key]}")
    return problems
