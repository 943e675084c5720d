"""Acceptance gate.

Each test covers one advertised guarantee of the package, prints a
single PASS/FAIL verdict line (run with -s to see them live), and
asserts the stated tolerance.  The five coupled convergence studies
(two of them at delta = 0) are computed once and shared between the
rate check and the Gronwall harvest.
"""

import time

import numpy as np
import pytest

from pfluid.assembly import assemble_rhs
from pfluid.fespace import FESpace, element_pair
from pfluid.mesh import unit_square_mesh
from pfluid.pstructure import RATIO_NAMES, StressModel, equivalence_envelope
from pfluid.stepper import StepperContext, TimeGrid, run_simulation
from pfluid.verification import (
    GronwallData,
    StudyConfig,
    bochner_check,
    bochner_example,
    convergence_study,
    fenchel_young_check,
    forcing_from,
    gronwall_check,
    manufactured_default,
    quasi_norm_suite,
    state_norms,
    weak_residual_check,
)

from fem_reference import picard_only

COUPLED_MODELS = ((2.0, 1.0), (1.8, 0.1), (1.7, 0.05), (1.8, 0.0), (1.65, 0.0))


def verdict(ok, label, detail):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def coupled_studies():
    t0 = time.perf_counter()
    out = {}
    for p, d in COUPLED_MODELS:
        cfg = StudyConfig(p=p, delta=d, levels=(4, 8, 16), t_end=0.5,
                          sigma=0.25)
        out[(p, d)] = convergence_study(cfg)
    return out, time.perf_counter() - t0


def test_stress_equivalence_envelopes():
    t0 = time.perf_counter()
    worst_min = np.inf
    worst_spread = 0.0
    p2_gap = np.nan
    for p in (1.3, 1.5, 1.8, 2.0):
        for d in (0.0, 0.01, 1.0):
            env = equivalence_envelope(StressModel(p, d), n_samples=10**4,
                                       seed=42)
            for name in RATIO_NAMES:
                lo, hi = env[name]
                worst_min = min(worst_min, lo)
                worst_spread = max(worst_spread, hi / lo)
            if p == 2.0 and d == 0.0:
                lo, hi = env["increment_vs_f_sq"]
                p2_gap = max(abs(lo - 1.0), abs(hi - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (worst_min > 0.0 and worst_spread <= 100.0 and p2_gap <= 1e-12
          and elapsed < 10.0)
    verdict(ok, "stress equivalence envelopes",
            f"min ratio {worst_min:.3g}, worst max/min {worst_spread:.3g}, "
            f"p=2 identity gap {p2_gap:.2e}, {elapsed:.1f}s")


def test_fenchel_young_exactness():
    t0 = time.perf_counter()
    violation = 0.0
    gap = 0.0
    for p in (1.3, 1.5, 1.8, 2.0):
        for d in (0.0, 0.01, 1.0):
            for a in (0.0, 0.7):
                rep = fenchel_young_check(StressModel(p, d), a=a,
                                          n_samples=10**4, seed=0)
                violation = max(violation, rep.max_violation)
                gap = max(gap, rep.max_equality_gap)
    elapsed = time.perf_counter() - t0
    ok = violation <= 1e-8 and gap <= 1e-8 and elapsed < 5.0
    verdict(ok, "Fenchel-Young exactness",
            f"violation {violation:.2e}, equality gap {gap:.2e}, "
            f"{elapsed:.1f}s")


def test_quasi_norm_envelope_stability():
    t0 = time.perf_counter()
    worst_min = np.inf
    worst_drift = 0.0
    for p in (1.5, 1.8):
        for d in (0.0, 0.1):
            mins = []
            for n in (2, 4):
                rep = quasi_norm_suite(unit_square_mesh(n), StressModel(p, d),
                                       samples=200, seed=7)
                mins.append(rep.ratio_min)
            worst_min = min(worst_min, *mins)
            worst_drift = max(worst_drift, mins[0] / mins[1], mins[1] / mins[0])
    elapsed = time.perf_counter() - t0
    ok = worst_min > 0.0 and worst_drift <= 3.0 and elapsed < 30.0
    verdict(ok, "quasi-norm lower-bound stability",
            f"min ratio {worst_min:.3g}, level drift x{worst_drift:.2f}, "
            f"{elapsed:.1f}s")


def test_manufactured_weak_residual_gate():
    t0 = time.perf_counter()
    ms = manufactured_default()
    vel, _ = element_pair("MINI")
    vs = FESpace(unit_square_mesh(32), vel, n_components=2)
    rep = weak_residual_check(ms, StressModel(1.8, 0.1), vs, t=0.3,
                              n_fields=100, seed=0, degree=7)
    elapsed = time.perf_counter() - t0
    ok = rep.max_residual <= 1e-10 and elapsed < 10.0
    verdict(ok, "manufactured weak residual",
            f"max residual {rep.max_residual:.2e} over 100 fields, "
            f"{elapsed:.1f}s")


def test_coupled_space_time_rates(coupled_studies):
    studies, fixture_time = coupled_studies
    t0 = time.perf_counter()
    details = []
    ok = True
    for (p, d), res in studies.items():
        eoc = res.rows[-1].eoc_f
        ratios = [r.record.ratio() for r in res.rows]
        drift = max(ratios) / min(ratios)
        ok &= 0.85 <= eoc <= 2.2 and drift <= 3.0
        details.append(f"p={p} delta={d}: eoc_F {eoc:.3f}, "
                       f"ratio drift x{drift:.2f}")
    elapsed = fixture_time + time.perf_counter() - t0
    ok &= elapsed < 600.0
    verdict(ok, "coupled space-time convergence",
            "; ".join(details) + f", {elapsed:.0f}s")


def test_temporal_rate_fixed_mesh():
    t0 = time.perf_counter()
    cfg = StudyConfig(p=1.8, delta=0.1, mode="temporal", n_fixed=16,
                      steps=(8, 16, 32, 64), t_end=0.5,
                      manufactured="time-dominant")
    res = convergence_study(cfg)
    eoc = res.rows[-1].eoc_l2
    elapsed = time.perf_counter() - t0
    ok = 0.8 <= eoc <= 1.3 and elapsed < 300.0
    verdict(ok, "temporal convergence on a fixed mesh",
            f"last-pair L2 EOC in kappa {eoc:.3f}, {elapsed:.0f}s")


def test_unforced_energy_stability():
    t0 = time.perf_counter()
    ms = manufactured_default()
    vel, pre = element_pair("MINI")
    mesh = unit_square_mesh(8)
    vs = FESpace(mesh, vel, n_components=2)
    qs = FESpace(mesh, pre)
    worst_increase = -np.inf
    worst_excess = 0.0
    for M in (8, 16, 32):
        traj = run_simulation(vs, qs, StressModel(1.8, 0.1), TimeGrid(0.4, M),
                              lambda X: ms.u(0.0, X))
        norms, f_sq = state_norms(traj)
        worst_increase = max(worst_increase, float(np.max(np.diff(norms))))
        energy = np.max(norms**2) + traj.grid.kappa * np.sum(f_sq[1:])
        # testing each step with the solution telescopes to
        # ||u^M||^2 + 2 kappa sum ||F||^2 <= ||u^0||^2, so the energy
        # is uniformly below 1.5 ||u^0||^2 whatever the step count
        worst_excess = max(worst_excess, energy / (1.5 * norms[0] ** 2))
    elapsed = time.perf_counter() - t0
    ok = worst_increase <= 1e-12 and worst_excess <= 1.0 + 1e-8 and elapsed < 60.0
    verdict(ok, "unforced decay and energy bound",
            f"max norm increase {worst_increase:.2e}, energy at "
            f"{100 * worst_excess:.0f}% of the data bound, {elapsed:.0f}s")


def test_unforced_degenerate_rest():
    """At delta = 0 an unforced flow reaches rest in finite time; every
    step must still converge and the norm must never grow."""
    t0 = time.perf_counter()
    ms = manufactured_default()
    vel, pre = element_pair("MINI")
    mesh = unit_square_mesh(8)
    vs = FESpace(mesh, vel, n_components=2)
    qs = FESpace(mesh, pre)
    converged = True
    worst_increase = -np.inf
    worst_rest = 0.0
    for p in (1.3, 1.8):
        traj = run_simulation(vs, qs, StressModel(p, 0.0), TimeGrid(2.0, 64),
                              lambda X: ms.u(0.0, X))
        converged &= all(d.converged for d in traj.diagnostics)
        norms = state_norms(traj)[0]
        worst_increase = max(worst_increase, float(np.max(np.diff(norms))))
        worst_rest = max(worst_rest, norms[-1] / norms[0])
    elapsed = time.perf_counter() - t0
    ok = (converged and worst_increase <= 1e-12 and worst_rest <= 1e-12
          and elapsed < 60.0)
    verdict(ok, "unforced delta=0 flow comes to rest",
            f"all steps converged {converged}, max norm increase "
            f"{worst_increase:.2e}, final/initial norm {worst_rest:.2e}, "
            f"{elapsed:.0f}s")


def test_gronwall_checker_suite(coupled_studies):
    studies, _ = coupled_studies
    t0 = time.perf_counter()
    zero = gronwall_check(GronwallData(kappa=0.1, h=0.1, p=1.8,
                                       a=np.zeros(9), b=np.zeros(9)))
    zero_ok = (zero.hypotheses_ok and zero.stepwise_ok and zero.conclusion_ok
               and zero.mu4_required == 0.0)
    bad = gronwall_check(GronwallData(kappa=0.1, h=0.1, p=1.8,
                                      a=1e-3 * 2.0 ** np.arange(9),
                                      b=np.zeros(9)))
    flagged = not bad.stepwise_ok and len(bad.violations_bis) > 0
    drift = 0.0
    finite = True
    for res in studies.values():
        mu4 = np.array([r.gronwall_mu4 for r in res.rows])
        finite &= bool(np.all(np.isfinite(mu4)) and np.all(mu4 > 0.0))
        drift = max(drift, float(mu4.max() / mu4.min()))
    elapsed = time.perf_counter() - t0
    ok = zero_ok and flagged and finite and drift <= 2.0 and elapsed < 5.0
    verdict(ok, "Gronwall checker",
            f"zero data mu4 {zero.mu4_required:.1f}, violation flagged "
            f"{flagged}, harvested mu4 drift x{drift:.2f}, {elapsed:.1f}s")


def test_bochner_increment_bound():
    t0 = time.perf_counter()
    all_hold = True
    slopes = {}
    for family in ("constant", "linear", "sine"):
        f, df = bochner_example(family, seed=0)
        lhss, ks = [], []
        for M in (4, 8, 16):
            rep = bochner_check(f, df, TimeGrid(1.0, M))
            all_hold &= rep.holds
            lhss.append(rep.lhs)
            ks.append(1.0 / M)
        if min(lhss) > 0.0:
            slopes[family] = float(np.polyfit(np.log(ks), np.log(lhss), 1)[0])
        else:
            all_hold &= max(lhss) == 0.0  # constant family is exact
    elapsed = time.perf_counter() - t0
    slopes_ok = all(abs(s - 2.0) <= 0.15 for s in slopes.values())
    ok = all_hold and slopes_ok and elapsed < 5.0
    verdict(ok, "time-increment bound",
            "slopes " + ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
            + f", {elapsed:.1f}s")


def solver_path_disagreement(model):
    """Worst relative difference between Newton steps, steps taken by
    Picard steps alone and Newton steps from a zero start, over 5 random
    steps of a run."""
    ms = manufactured_default()
    f = forcing_from(ms, model)
    vel, pre = element_pair("MINI")
    mesh = unit_square_mesh(8)
    vs = FESpace(mesh, vel, n_components=2)
    qs = FESpace(mesh, pre)
    grid = TimeGrid(0.5, 16)
    load = lambda t: assemble_rhs(vs, lambda X: f(t, X))
    traj = run_simulation(vs, qs, model, grid, lambda X: ms.u(0.0, X), load)

    newton = StepperContext(vs, qs, model, grid.kappa)
    picard = picard_only(StepperContext(vs, qs, model, grid.kappa))
    rng = np.random.default_rng(0)
    steps = 1 + rng.choice(grid.n_steps, size=5, replace=False)
    worst = 0.0
    for m in steps:
        tm = grid.times()[m]
        args = (traj.velocities[m - 1], traj.pressures[m - 1], tm)
        F = load(tm)
        U_n, _, _ = newton.step(*args, F=F)
        U_p, _, _ = picard.step(*args, F=F)
        U_c, _, _ = newton.step(*args, F=F,
                                initial=(np.zeros(vs.n_dofs),
                                         np.zeros(qs.n_dofs)))
        scale = 1.0 + np.linalg.norm(U_n)
        worst = max(worst,
                    np.linalg.norm(U_p - U_n) / scale,
                    np.linalg.norm(U_c - U_n) / scale)
    return worst


def test_solver_path_agreement():
    t0 = time.perf_counter()
    worst = solver_path_disagreement(StressModel(1.6, 0.05))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    verdict(ok, "solver path agreement",
            f"worst pairwise step difference {worst:.2e} over 5 random "
            f"steps, {elapsed:.0f}s")


def test_solver_path_agreement_degenerate():
    """At delta = 0 both linearizations share the floor rule and must
    still converge to the same root, also from a zero start."""
    t0 = time.perf_counter()
    worst = solver_path_disagreement(StressModel(1.8, 0.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    verdict(ok, "solver path agreement at delta=0",
            f"worst pairwise step difference {worst:.2e} over 5 random "
            f"steps, {elapsed:.0f}s")
