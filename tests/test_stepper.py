"""Time stepper behavior: exact rest state, linear-case oracle,
energy decay, and failure surfaces."""

import logging

import numpy as np
import pytest

from pfluid import assembly, stepper
from pfluid.assembly import (
    assemble_convection,
    assemble_divergence,
    assemble_mass,
    assemble_rhs,
    assemble_stress,
    local_mass,
    pressure_mean_vector,
)
from pfluid.fespace import FESpace, element_pair
from pfluid.mesh import unit_square_mesh
from pfluid.pstructure import StressModel
from pfluid.stepper import (
    NonConvergenceError,
    StepperContext,
    TimeGrid,
    Trajectory,
    run_simulation,
)
from pfluid.verification import forcing_from, manufactured_default

from fem_reference import picard_only


def mini_spaces(n):
    vel, pre = element_pair("MINI")
    mesh = unit_square_mesh(n)
    return FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)


def bump(X):
    x, y = X[:, 0], X[:, 1]
    return np.column_stack(
        [np.sin(np.pi * x) * np.sin(np.pi * y), x * (1 - x) * y * (1 - y)])


# -- grids and options -------------------------------------------------

def test_time_grid():
    grid = TimeGrid(0.5, 4)
    assert grid.kappa == pytest.approx(0.125)
    np.testing.assert_allclose(grid.times(), [0.0, 0.125, 0.25, 0.375, 0.5])
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_kappa_bound():
    vs, qs = mini_spaces(2)
    with pytest.raises(ValueError, match="kappa"):
        run_simulation(vs, qs, StressModel(1.8, 0.1), TimeGrid(4.0, 2), bump)


# -- exact special cases -----------------------------------------------

def test_rest_state_is_exact():
    """Zero data stays identically zero without any nonlinear iterations."""
    vs, qs = mini_spaces(3)
    traj = run_simulation(
        vs, qs, StressModel(1.6, 0.05), TimeGrid(0.2, 4),
        lambda X: np.zeros((len(X), 2)))
    for U in traj.velocities:
        assert np.all(U == 0.0)
    for Q in traj.pressures:
        assert np.all(Q == 0.0)
    assert all(d.iterations == 0 for d in traj.diagnostics)
    assert max(traj.divergences()) == 0.0


def test_p2_converges_in_one_newton_step():
    # quadratic potential: the stress is linear, Newton is direct.  Later
    # steps differ only by the convection, so step 1's LU, carried as a
    # chord, finishes them without a factorization.
    vs, qs = mini_spaces(3)
    def f(t, X):
        return np.column_stack(
            [np.cos(3 * t) * np.ones(len(X)), np.sin(2 * t) * X[:, 0]])

    traj = run_simulation(
        vs, qs, StressModel(2.0, 1.0), TimeGrid(0.2, 4), bump,
        load=lambda t: assemble_rhs(vs, lambda X: f(t, X)))
    first, *later = traj.diagnostics
    assert first.iterations == 1 and first.factorizations == 1
    assert all(d.factorizations == 0 for d in later)
    assert all(d.mode == "newton" and d.converged for d in traj.diagnostics)


def test_p2_matches_independent_linear_stepper():
    """For p = 2 each step is a linear saddle solve that can be assembled
    and solved directly; the stepper must reproduce it."""
    vs, qs = mini_spaces(3)
    model = StressModel(2.0, 1.0)
    grid = TimeGrid(0.2, 4)

    def f(t, X):
        return np.column_stack(
            [np.cos(3 * t) * np.ones(len(X)), np.sin(2 * t) * X[:, 0]])

    traj = run_simulation(vs, qs, model, grid, bump,
                          load=lambda t: assemble_rhs(vs, lambda X: f(t, X)))

    E = assemble_stress(vs, np.zeros(vs.n_dofs), model, jacobian="newton")[1]
    M = assemble_mass(vs)
    M_local = local_mass(vs)
    sys = assembly.SaddleSystem(vs, qs)
    k = grid.kappa
    U = traj.velocities[0]
    for m, t in enumerate(grid.times()[1:], start=1):
        N = assemble_convection(vs, U)
        F = assemble_rhs(vs, lambda X, _t=t: f(_t, X))
        U, Q = sys.split(sys.factor(M_local / k + E + N)(
            sys.rhs(F + M @ U / k, np.zeros(qs.n_dofs))))
        scale = 1.0 + np.linalg.norm(U)
        assert np.linalg.norm(U - traj.velocities[m]) < 1e-9 * scale


# -- qualitative behavior ----------------------------------------------

def test_unforced_flow_decays_monotonically():
    vs, qs = mini_spaces(4)
    traj = run_simulation(
        vs, qs, StressModel(1.8, 0.1), TimeGrid(0.4, 8), bump)
    norms = traj.l2_norms()
    assert np.all(np.diff(norms) <= 1e-12)
    assert max(traj.divergences()) < 1e-9
    for Q in traj.pressures:
        w = pressure_mean_vector(qs)
        assert abs(w @ Q) < 1e-12 * (1.0 + np.linalg.norm(Q))


def test_unforced_extinction_steps_converge_quickly():
    """At p = 1.3, delta = 0 an unforced flow dies out, and near rest
    Newton steps are rejected; each is replaced by a Picard step, so no
    step crawls.  Step halving in place of the Picard step crawls: 59
    iterations on its worst step, 123 halvings over the run."""
    ms = manufactured_default()
    vel, pre = element_pair("MINI")
    mesh = unit_square_mesh(8)
    vs, qs = FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)
    traj = run_simulation(vs, qs, StressModel(1.3, 0.0), TimeGrid(2.0, 64),
                          lambda X: ms.u(0.0, X))
    assert all(d.converged and d.iterations <= 25 for d in traj.diagnostics)
    assert sum(d.backtracks for d in traj.diagnostics) < 123


def test_initial_guess_override():
    """A cold (zero) initial guess converges to the same step solution."""
    vs, qs = mini_spaces(3)
    model = StressModel(1.6, 0.1)
    grid = TimeGrid(0.2, 4)
    traj = run_simulation(vs, qs, model, grid, bump)
    ctx = StepperContext(vs, qs, model, grid.kappa)
    U_prev, Q_prev = traj.velocities[1], traj.pressures[1]
    U_warm, Q_warm, _ = ctx.step(U_prev, Q_prev, grid.times()[2])
    U_cold, _, _ = ctx.step(
        U_prev, Q_prev, grid.times()[2],
        initial=(np.zeros(vs.n_dofs), np.zeros(qs.n_dofs)))
    scale = 1.0 + np.linalg.norm(U_warm)
    assert np.linalg.norm(U_cold - U_warm) < 1e-8 * scale
    np.testing.assert_allclose(U_warm, traj.velocities[2], atol=1e-10)
    # a pressure guess off by a constant comes back with zero mean
    _, Q_shift, _ = ctx.step(U_prev, Q_prev, grid.times()[2],
                             initial=(U_warm, Q_warm + 1.0))
    np.testing.assert_allclose(Q_shift, Q_warm, atol=1e-10)


# -- diagnostics and failure -------------------------------------------

def test_nonconvergence_raises_with_diagnostics(monkeypatch):
    vs, qs = mini_spaces(2)
    monkeypatch.setattr(stepper, "MAX_ITERATIONS", 0)
    with pytest.raises(NonConvergenceError) as err:
        run_simulation(vs, qs, StressModel(1.8, 0.1), TimeGrid(0.1, 1), bump)
    assert err.value.diagnostics is not None
    assert not err.value.diagnostics.converged


def test_nonfinite_newton_direction_switches_to_picard(monkeypatch):
    """A NaN fresh Newton direction is replaced by one Picard step from
    the same iterate."""
    vs, qs = mini_spaces(3)
    model = StressModel(1.6, 0.1)
    grid = TimeGrid(0.2, 4)
    traj = run_simulation(vs, qs, model, grid, bump)
    U_prev, Q_prev, t = traj.velocities[1], traj.pressures[1], grid.times()[2]
    ctx = StepperContext(vs, qs, model, grid.kappa)

    real_splu = assembly.splu
    calls = []

    class NaNSolve:
        def solve(self, rhs):
            return np.full_like(rhs, np.nan)

    def splu_nan_first_solve(A, **options):
        # both attempts of the first solve: static pivots, then partial
        calls.append(1)
        return NaNSolve() if len(calls) <= 2 else real_splu(A, **options)

    monkeypatch.setattr(assembly, "splu", splu_nan_first_solve)
    U, _, diag = ctx.step(U_prev, Q_prev, t)
    assert diag.converged and diag.mode == "picard"
    assert diag.backtracks == 1
    scale = 1.0 + np.linalg.norm(traj.velocities[2])
    assert np.linalg.norm(U - traj.velocities[2]) < 1e-8 * scale


@pytest.mark.parametrize("pair", ["MINI", "TH"])
@pytest.mark.parametrize("delta", [0.1, 0.0])
def test_picard_steps_reach_the_newton_root(pair, delta):
    """A step whose Newton factorizations all fail takes one Picard step
    in place of each, and converges to the root Newton finds."""
    ms = manufactured_default()
    model = StressModel(1.8, delta)
    vel, pre = element_pair(pair)
    mesh = unit_square_mesh(4)
    vs, qs = FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)
    grid = TimeGrid(0.5, 8)
    f = forcing_from(ms, model)
    load = lambda t: assemble_rhs(vs, lambda X: f(t, X))
    traj = run_simulation(vs, qs, model, grid, lambda X: ms.u(0.0, X), load)
    t = grid.times()[2]
    ctx = picard_only(StepperContext(vs, qs, model, grid.kappa))
    U, _, diag = ctx.step(traj.velocities[1], traj.pressures[1], t, load(t))
    assert diag.converged and diag.mode == "picard"
    assert diag.backtracks == diag.iterations == diag.factorizations > 1
    assert ctx._lu is None
    # both paths stop at a residual below TOL = 1e-10 relative, which
    # leaves the iterates about that far apart (1e-11 to 1.6e-10 measured)
    U_newton = traj.velocities[2]
    assert np.linalg.norm(U - U_newton) <= 1e-9 * np.linalg.norm(U_newton)


@pytest.mark.parametrize("failure", ["nan", "inaccurate"])
def test_static_pivot_failure_falls_back_to_partial_pivoting(
        monkeypatch, caplog, failure):
    """A rejected static-pivot solve is refactored with partial pivoting:
    the step stays in Newton mode, with the same solution and a WARNING."""
    vs, qs = mini_spaces(3)
    model = StressModel(1.6, 0.1)
    grid = TimeGrid(0.2, 4)
    traj = run_simulation(vs, qs, model, grid, bump)
    U_prev, Q_prev, t = traj.velocities[1], traj.pressures[1], grid.times()[2]
    # the reference step on a context of its own, so the step under test
    # starts without a carried LU
    U_ref, _, diag_ref = StepperContext(vs, qs, model, grid.kappa).step(
        U_prev, Q_prev, t)
    ctx = StepperContext(vs, qs, model, grid.kappa)

    real_splu = assembly.splu

    class BadSolve:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            if failure == "nan":
                return np.full_like(rhs, np.nan)
            return self.lu.solve(rhs) * (1.0 + 1e-6)

    def splu_bad_static(A, **options):
        lu = real_splu(A, **options)
        static = options.get("diag_pivot_thresh") == 0.0
        return BadSolve(lu) if static and options.get("permc_spec") == "NATURAL" else lu

    monkeypatch.setattr(assembly, "splu", splu_bad_static)
    with caplog.at_level(logging.WARNING, logger="pfluid.assembly"):
        U, _, diag = ctx.step(U_prev, Q_prev, t)
    assert diag.converged and diag.mode == "newton" == diag_ref.mode
    assert diag.iterations == diag_ref.iterations
    scale = 1.0 + np.linalg.norm(U_ref)
    assert np.linalg.norm(U - U_ref) < 1e-12 * scale
    warnings = [r for r in caplog.records if r.name == "pfluid.assembly"]
    # each static-pivot LU is rejected once and refactored once
    assert 2 * len(warnings) == diag.factorizations == 2 * diag_ref.factorizations
    assert all(r.levelname == "WARNING" and "relative residual" in r.getMessage()
               for r in warnings)


def test_step_counts_pivot_fallbacks_and_fill(monkeypatch):
    """A step reports its partial-pivot refactors and the nnz of its last
    LU; a clean step reports no refactor."""
    vs, qs = mini_spaces(3)
    model = StressModel(1.6, 0.1)
    grid = TimeGrid(0.2, 4)
    traj = run_simulation(vs, qs, model, grid, bump)
    assert all(d.pivot_fallbacks == 0 and d.fill_nnz > 0 for d in traj.diagnostics)
    ctx = StepperContext(vs, qs, model, grid.kappa)
    real_splu = assembly.splu
    lus = []

    class Inaccurate:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, rhs):
            return self.lu.solve(rhs) * (1.0 + 1e-6)

    def splu_static_rejected(A, **options):
        lus.append(real_splu(A, **options))
        static = options.get("permc_spec") == "NATURAL"
        return Inaccurate(lus[-1]) if static else lus[-1]

    monkeypatch.setattr(assembly, "splu", splu_static_rejected)
    _, _, diag = ctx.step(traj.velocities[1], traj.pressures[1], grid.times()[2])
    assert diag.converged
    assert diag.pivot_fallbacks == diag.factorizations // 2 > 0
    assert diag.fill_nnz == lus[-1].nnz


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_smooth_forced_steps_factor_once(pair):
    """On a smooth forced run the first LU carries the chord iterations
    of every step to convergence: one factorization per run."""
    ms = manufactured_default()
    model = StressModel(1.8, 0.1)
    vel, pre = element_pair(pair)
    mesh = unit_square_mesh(8)
    vs, qs = FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)
    f = forcing_from(ms, model)
    traj = run_simulation(vs, qs, model, TimeGrid(0.5, 16), lambda X: ms.u(0.0, X),
                          lambda t: assemble_rhs(vs, lambda X: f(t, X)))
    assert all(d.converged and d.mode == "newton" for d in traj.diagnostics)
    assert [d.factorizations for d in traj.diagnostics] == [1] + [0] * 15
    assert max(d.iterations for d in traj.diagnostics) > 1


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_carried_lu_matches_fresh_context_steps(pair):
    """A step that starts from the LU its predecessor ended with converges
    to the solution of the same step taken on a fresh context."""
    ms = manufactured_default()
    model = StressModel(1.8, 0.1)
    vel, pre = element_pair(pair)
    mesh = unit_square_mesh(4)
    vs, qs = FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)
    grid = TimeGrid(0.5, 8)
    f = forcing_from(ms, model)
    load = lambda t: assemble_rhs(vs, lambda X: f(t, X))
    traj = run_simulation(vs, qs, model, grid, lambda X: ms.u(0.0, X), load)
    assert sum(d.factorizations for d in traj.diagnostics) < len(traj.diagnostics)
    for m, t in enumerate(grid.times()[1:], start=1):
        ctx = StepperContext(vs, qs, model, grid.kappa)
        U, _, diag = ctx.step(traj.velocities[m - 1], traj.pressures[m - 1], t,
                              load(t))
        assert diag.factorizations > 0
        assert (np.linalg.norm(U - traj.velocities[m])
                <= 1e-9 * np.linalg.norm(U))


def test_raising_step_leaves_no_lu(monkeypatch):
    """A converged Newton step leaves its LU for the next step; a step
    that raises leaves none, whatever it was handed."""
    vs, qs = mini_spaces(3)
    model = StressModel(1.6, 0.1)
    grid = TimeGrid(0.2, 4)
    traj = run_simulation(vs, qs, model, grid, bump)
    U1, Q1, t = traj.velocities[1], traj.pressures[1], grid.times()[2]
    ctx = StepperContext(vs, qs, model, grid.kappa)
    ctx.step(U1, Q1, t)
    assert ctx._lu is not None
    monkeypatch.setattr(stepper, "MAX_ITERATIONS", 0)
    with pytest.raises(NonConvergenceError):
        ctx.step(U1, Q1, t)
    assert ctx._lu is None


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_fresh_newton_operator_reuses_residual_state(monkeypatch, pair):
    """A fresh Newton operator is built at an iterate whose residual was
    just evaluated, from that residual's stress state: a smooth forced
    run evaluates one velocity gradient per residual, none per
    factorization."""
    counts = {"gradients": 0, "residuals": 0, "newton": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FESpace, "sym_grad_at_qp",
                        counting("gradients", FESpace.sym_grad_at_qp))
    real_stress = assembly.assemble_stress

    def stress(*args, jacobian="newton", **kwargs):
        counts["residuals" if jacobian is None else jacobian] += 1
        return real_stress(*args, jacobian=jacobian, **kwargs)

    monkeypatch.setattr(assembly, "assemble_stress", stress)
    ms = manufactured_default()
    model = StressModel(1.8, 0.1)
    vel, pre = element_pair(pair)
    mesh = unit_square_mesh(8)
    vs, qs = FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)
    f = forcing_from(ms, model)
    traj = run_simulation(vs, qs, model, TimeGrid(0.5, 8), lambda X: ms.u(0.0, X),
                          lambda t: assemble_rhs(vs, lambda X: f(t, X)))
    assert counts["newton"] == sum(d.factorizations for d in traj.diagnostics) > 0
    assert counts["residuals"] > counts["newton"]
    assert counts["gradients"] == counts["residuals"]


@pytest.mark.parametrize("failure", ["reversed", "raises", "halved"])
def test_failed_chord_direction_refactors(monkeypatch, failure):
    """A chord direction rejected at full length, or whose solve raises,
    is followed by a fresh factorization at the same iterate, and the try
    is no iteration.  An accepted chord iteration that contracts the
    residual by less than CHORD_CONTRACTION drops the LU, so the next
    iterate factors afresh."""
    vs, qs = mini_spaces(3)
    model = StressModel(1.6, 0.1)
    grid = TimeGrid(0.2, 4)
    traj = run_simulation(vs, qs, model, grid, bump)
    U_prev, Q_prev, t = traj.velocities[1], traj.pressures[1], grid.times()[2]
    # the reference step on a context of its own, so the step under test
    # starts without a carried LU
    U_ref, _, diag_ref = StepperContext(vs, qs, model, grid.kappa).step(
        U_prev, Q_prev, t)
    assert diag_ref.iterations > diag_ref.factorizations  # chords were taken
    ctx = StepperContext(vs, qs, model, grid.kappa)

    real_factor = assembly.SaddleSystem.factor
    calls = []  # (solver index, solve index on that solver, rhs)

    def factor(system, data):
        solve = real_factor(system, data)
        index = len({c[0] for c in calls})

        def sabotaged(rhs):
            n = sum(1 for c in calls if c[0] == index)
            calls.append((index, n, rhs.copy()))
            if n == 0:
                return solve(rhs)
            if failure == "raises":
                raise assembly.LinearSolveError("chord solve failed")
            return (-1.0 if failure == "reversed" else 0.5) * solve(rhs)
        sabotaged.fill_nnz = solve.fill_nnz
        return sabotaged

    monkeypatch.setattr(assembly.SaddleSystem, "factor", factor)
    U, _, diag = ctx.step(U_prev, Q_prev, t)
    assert diag.converged and diag.mode == "newton"
    scale = 1.0 + np.linalg.norm(U_ref)
    assert np.linalg.norm(U - U_ref) < 1e-10 * scale
    chords = [i for i, c in enumerate(calls) if c[1] > 0]
    assert chords
    for i in chords:
        assert calls[i][1] == 1  # no LU serves a second chord
        nxt = calls[i + 1]
        assert nxt[0] == calls[i][0] + 1 and nxt[1] == 0
        same_iterate = np.array_equal(nxt[2], calls[i][2])
        assert same_iterate == (failure != "halved")
    assert diag.factorizations == calls[-1][0] + 1
    if failure == "halved":
        assert diag.iterations == len(calls)
    else:
        assert diag.iterations == len(calls) - len(chords)
        assert diag.backtracks == 0
    assert len(diag.residual_history) == diag.iterations + 1


def test_run_orders_one_saddle_pattern(monkeypatch, caplog):
    """The projection of u0 solves on the stepper's KKT system, so a run
    builds and orders one pattern, and every solve keeps static pivots."""
    real_order = assembly._minimum_degree_order
    sizes = []

    def counting_order(rows, cols, n):
        sizes.append(n)
        return real_order(rows, cols, n)

    monkeypatch.setattr(assembly, "_minimum_degree_order", counting_order)
    vs, qs = mini_spaces(4)
    with caplog.at_level(logging.WARNING, logger="pfluid.assembly"):
        run_simulation(vs, qs, StressModel(1.8, 0.1), TimeGrid(0.2, 2), bump)
    # the bubbles are condensed out: two velocity components per vertex
    assert sizes == [2 * vs.mesh.n_vertices + qs.n_dofs]
    assert not [r for r in caplog.records if r.name == "pfluid.assembly"]


def test_trajectory_reports():
    vs, qs = mini_spaces(3)
    traj = run_simulation(
        vs, qs, StressModel(1.8, 0.1), TimeGrid(0.2, 2), bump)
    rep = traj.energy_report()
    assert set(rep) == {"max_l2_sq", "dissipation"}
    assert rep["max_l2_sq"] == pytest.approx(traj.l2_norms().max() ** 2)
    assert rep["dissipation"] > 0.0
    B = assemble_divergence(vs, qs)
    psi = np.sqrt(assemble_mass(qs).diagonal())
    expected = [np.max(np.abs(B @ U) / psi) for U in traj.velocities]
    np.testing.assert_array_equal(traj.divergences(), expected)
    assert traj.wall_time > 0.0


def test_f_norm_sq_zero_state():
    vs, qs = mini_spaces(2)
    grid = TimeGrid(0.1, 1)
    traj = Trajectory(vs, qs, StressModel(1.7, 0.2), grid,
                      [np.zeros(vs.n_dofs)] * 2, [np.zeros(qs.n_dofs)] * 2)
    assert np.all(traj.f_norm_sq() == 0.0)
