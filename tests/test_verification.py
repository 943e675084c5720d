"""Verification-harness oracles: manufactured-solution calculus checks,
forcing cross-checks by finite differences, error bookkeeping, and the
inequality checkers on hand-built data."""

from dataclasses import replace
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import pfluid
from pfluid import verification
from pfluid.assembly import assemble_mass, assemble_rhs, assemble_stiffness
from pfluid.fespace import FESpace, element_pair, interpolate, quadrature_for
from pfluid.mesh import unit_square_mesh
from pfluid.pstructure import DegenerateGradientError, StressModel
from pfluid.stepper import TimeGrid, Trajectory, run_simulation
from pfluid.verification import (
    CSV_HEADER,
    GronwallData,
    ManufacturedSolution,
    StudyConfig,
    StudyResult,
    StudyRow,
    bochner_check,
    bochner_example,
    convergence_study,
    eoc_pairs,
    error_record,
    fenchel_young_check,
    forcing_from,
    gronwall_check,
    harvest_gronwall,
    least_squares_rate,
    load_from,
    manufactured_default,
    quasi_norm_suite,
    state_norms,
    weak_residual_check,
)

from fem_reference import (f_map, pure_strain, ref_grad, solution_from, stress,
                           stress_jacobian, sym_part, tensor_norm)


KINDS = ("smooth-periodic", "time-dominant")


@pytest.fixture(scope="module")
def ms():
    return manufactured_default()


def interior_points(rng, n):
    return rng.uniform(0.05, 0.95, (n, 2))


# -- manufactured solution calculus ------------------------------------

def test_manufactured_divergence_free():
    rng = np.random.default_rng(0)
    X = interior_points(rng, 400)
    for kind in KINDS:
        sol = manufactured_default(kind)
        for t in (0.0, 0.13, 0.5):
            G = sol.grad_u(t, X)
            assert np.max(np.abs(G[..., 0, 0] + G[..., 1, 1])) < 1e-12


def test_manufactured_boundary_values():
    s = np.linspace(0.0, 1.0, 33)
    zero = np.zeros_like(s)
    one = np.ones_like(s)
    X = np.concatenate([
        np.column_stack([s, zero]), np.column_stack([s, one]),
        np.column_stack([zero, s]), np.column_stack([one, s])])
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for kind in KINDS:
        sol = manufactured_default(kind)
        # double zero of the stream function: velocity vanishes on the
        # boundary, and the full gradient vanishes at the corners
        assert np.max(np.abs(sol.u(0.37, X))) < 1e-14
        assert np.max(np.abs(sol.grad_u(0.37, corners))) < 1e-14


def test_manufactured_pressure_zero_mean(ms):
    space = FESpace(unit_square_mesh(8), "P1")
    _, _, _, xq = space.tabulation(5)
    vals = ms.q(0.21, xq.reshape(-1, 2)).reshape(xq.shape[:2])
    assert abs(space.integrate(vals, 5)) < 1e-14


@pytest.mark.parametrize("kind", KINDS)
def test_manufactured_time_derivative(kind):
    sol = manufactured_default(kind)
    rng = np.random.default_rng(1)
    X = interior_points(rng, 50)
    t, e = 0.29, 1e-6
    fd = (sol.u(t + e, X) - sol.u(t - e, X)) / (2 * e)
    assert np.max(np.abs(fd - sol.dt_u(t, X))) < 1e-6


def test_manufactured_gradient_consistency():
    rng = np.random.default_rng(2)
    X = interior_points(rng, 50)
    t, e = 0.4, 1e-6
    for kind in KINDS:
        sol = manufactured_default(kind)
        G = sol.grad_u(t, X)
        for j in range(2):
            dX = np.zeros((1, 2))
            dX[0, j] = e
            fd = (sol.u(t, X + dX) - sol.u(t, X - dX)) / (2 * e)
            assert np.max(np.abs(fd - G[..., j])) < 1e-8


def test_manufactured_hessian_consistency():
    rng = np.random.default_rng(3)
    X = interior_points(rng, 30)
    t, e = 0.15, 1e-5
    for kind in KINDS:
        sol = manufactured_default(kind)
        H = sol.hess_u(t, X)
        np.testing.assert_allclose(H, np.swapaxes(H, -1, -2), atol=1e-13)
        for k in range(2):
            dX = np.zeros((1, 2))
            dX[0, k] = e
            fd = (sol.grad_u(t, X + dX) - sol.grad_u(t, X - dX)) / (2 * e)
            assert np.max(np.abs(fd - H[..., k])) < 1e-6


def test_manufactured_unknown_kind():
    with pytest.raises(ValueError, match="available"):
        manufactured_default("steady")


@pytest.mark.parametrize("kind", KINDS)
def test_manufactured_matches_symbolic_reference(kind):
    """Every closed-form field equals sympy's derivatives of the same
    psi, alpha and q; sympy is a test-only reference."""
    sp = pytest.importorskip("sympy")
    t, x, y = sp.symbols("t x y")
    alpha = {
        "smooth-periodic": 1 + sp.sin(2 * sp.pi * t) / 2,
        "time-dominant": 1 + sp.Rational(9, 10) * sp.sin(16 * sp.pi * t),
    }[kind]
    psi = (x * (1 - x) * y * (1 - y)) ** 2
    u = [alpha * sp.diff(psi, y), -alpha * sp.diff(psi, x)]
    q = sp.cos(2 * sp.pi * t) * (x**3 + y**3 - sp.Rational(1, 2))
    exprs = {
        "u": u,
        "grad_u": [[sp.diff(ui, v) for v in (x, y)] for ui in u],
        "hess_u": [[[sp.diff(ui, v, w) for w in (x, y)] for v in (x, y)]
                   for ui in u],
        "dt_u": [sp.diff(ui, t) for ui in u],
        "q": q,
        "grad_q": [sp.diff(q, v) for v in (x, y)],
    }
    sol = manufactured_default(kind)
    X = np.vstack([np.random.default_rng(8).uniform(0.0, 1.0, (60, 2)),
                   [[0.0, 0.0], [0.5, 0.5], [1.0, 0.25]]])
    for name, expr in exprs.items():
        fn = sp.lambdify((t, x, y), expr, modules="numpy")
        for tt in (0.0, 0.137, 0.5, 0.91):
            ref = np.array([fn(tt, px, py) for px, py in X], dtype=float)
            got = getattr(sol, name)(tt, X)
            assert got.shape == ref.shape, name
            err = np.max(np.abs(got - ref))
            assert err <= 1e-13 * np.max(np.abs(ref)), (name, tt, err)


def test_manufactured_needs_no_sympy():
    """The solver path never imports sympy, not even transitively, and
    takes its Gauss rules from numpy rather than scipy.special."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import pfluid.cli\n"
        "from pfluid.fespace import FESpace, element_pair\n"
        "from pfluid.mesh import unit_square_mesh\n"
        "from pfluid.pstructure import StressModel\n"
        "from pfluid.stepper import TimeGrid, run_simulation\n"
        "from pfluid.assembly import assemble_rhs\n"
        "from pfluid.verification import forcing_from, manufactured_default\n"
        "X = np.array([[0.3, 0.6], [0.7, 0.2]])\n"
        "for kind in ('smooth-periodic', 'time-dominant'):\n"
        "    ms = manufactured_default(kind)\n"
        "    forcing_from(ms, StressModel(1.8, 0.1))(0.3, X)\n"
        "vel, pre = element_pair('MINI')\n"
        "mesh = unit_square_mesh(2)\n"
        "f = forcing_from(ms, StressModel(1.8, 0.0))\n"
        "V = FESpace(mesh, vel, n_components=2)\n"
        "run_simulation(V, FESpace(mesh, pre), StressModel(1.8, 0.0), TimeGrid(0.1, 1),\n"
        "               lambda X: ms.u(0.0, X),\n"
        "               lambda t: assemble_rhs(V, lambda X: f(t, X)))\n"
        "assert 'sympy' not in sys.modules\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    src = str(Path(pfluid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- forcing term ------------------------------------------------------

def test_forcing_p2_closed_form(ms):
    """At p = 2 the stress divergence is half the Laplacian of a
    solenoidal field, which the analytic Hessian provides directly."""
    model = StressModel(2.0, 0.3)
    f = forcing_from(ms, model)
    rng = np.random.default_rng(4)
    X = interior_points(rng, 200)
    for t in (0.0, 0.33):
        H = ms.hess_u(t, X)
        lap = H[..., 0, 0] + H[..., 1, 1]
        conv = np.einsum("...il,...l->...i", ms.grad_u(t, X), ms.u(t, X))
        expected = ms.dt_u(t, X) + conv + ms.grad_q(t, X) - 0.5 * lap
        assert np.max(np.abs(f(t, X) - expected)) < 1e-10


def test_forcing_fd_cross_check(ms):
    model = StressModel(1.8, 0.1)
    f = forcing_from(ms, model)
    rng = np.random.default_rng(5)
    pts = np.vstack([[0.3, 0.4], interior_points(rng, 5)])
    t, e = 0.0, 1e-4
    for x in pts:
        divS = np.zeros(2)
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = e
            shifts = np.array([x + 2 * dx, x + dx, x - dx, x - 2 * dx])
            S = stress(model, ms.grad_u(t, shifts))
            col = (-S[0] + 8 * S[1] - 8 * S[2] + S[3]) / (12 * e)
            divS += col[:, j]
        G = ms.grad_u(t, x[None])[0]
        u = ms.u(t, x[None])[0]
        expected = ms.dt_u(t, x[None])[0] + G @ u + ms.grad_q(t, x[None])[0] - divS
        assert np.max(np.abs(f(t, x[None])[0] - expected)) < 1e-6


@pytest.mark.parametrize("delta", [0.1, 0.0])
def test_forcing_matches_four_index_contraction(ms, delta):
    """The closed-form div S equals the 4-index Jacobian contracted with
    the Hessian; at delta = 0 the points avoid the zeros of Du."""
    model = StressModel(1.7, delta)
    f = forcing_from(ms, model)
    X = interior_points(np.random.default_rng(6), 200)
    for t in (0.0, 0.3):
        G = ms.grad_u(t, X)
        H = ms.hess_u(t, X)
        dA = 0.5 * (H + np.swapaxes(H, -3, -2))
        divS = np.einsum("...ijkl,...klj->...i", stress_jacobian(model, G), dA)
        conv = np.einsum("...il,...l->...i", G, ms.u(t, X))
        expected = ms.dt_u(t, X) + conv + ms.grad_q(t, X) - divS
        assert np.max(np.abs(f(t, X) - expected)) < 1e-13 * np.abs(expected).max()


def test_forcing_raises_where_du_vanishes(ms):
    # sym Du = 0 at the domain center, where the delta = 0 derivative blows up
    f = forcing_from(ms, StressModel(1.5, 0.0))
    with pytest.raises(DegenerateGradientError):
        f(0.0, np.array([[0.5, 0.5]]))


def test_manufactured_flow_matches_separate_fields():
    """The joint profile evaluation equals the lower orders exactly, and
    every field is its time factor times its profile."""
    X = interior_points(np.random.default_rng(9), 50)
    for kind in KINDS:
        sol = manufactured_default(kind)
        joint = sol.velocity(X, 2)
        assert len(joint) == 3
        for order in (0, 1):
            for a, b in zip(sol.velocity(X, order), joint):
                np.testing.assert_array_equal(a, b)
        q_hat, grad_q_hat = sol.pressure(X, 1)
        np.testing.assert_array_equal(sol.pressure(X, 0)[0], q_hat)
        for t in (0.0, 0.41):
            al, dal, beta = sol.alpha(t), sol.dalpha(t), sol.beta(t)
            np.testing.assert_array_equal(sol.u(t, X), al * joint[0])
            np.testing.assert_array_equal(sol.grad_u(t, X), al * joint[1])
            np.testing.assert_array_equal(sol.hess_u(t, X), al * joint[2])
            np.testing.assert_array_equal(sol.dt_u(t, X), dal * joint[0])
            np.testing.assert_array_equal(sol.q(t, X), beta * q_hat)
            np.testing.assert_array_equal(sol.grad_q(t, X), beta * grad_q_hat)


def rigid_rotation():
    """u = (y, -x): its gradient is antisymmetric, so sym Du = 0 at every
    point."""
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return solution_from(
        "rigid-rotation", alpha=lambda t: 1.0, dalpha=lambda t: 0.0,
        fields=lambda X: [np.stack([X[..., 1], -X[..., 0]], axis=-1),
                          np.broadcast_to(rot, X.shape[:-1] + (2, 2)),
                          np.zeros(X.shape[:-1] + (2, 2, 2))])


def quadrature_points(n, degree):
    mesh = unit_square_mesh(n)
    cell_X = mesh.vertices[mesh.cells]
    xq = np.einsum("qk,ckl->cql", quadrature_for(degree).points, cell_X)
    return xq.reshape(-1, 2)


def test_forcing_degenerate_guard(ms):
    # isolated zeros of |Du| are fine; identically antisymmetric
    # gradients put a zero at every quadrature point and must be refused
    f = forcing_from(ms, StressModel(1.5, 0.0))
    for n in (4, 8, 16, 32):
        for degree in (5, 7):
            X = quadrature_points(n, degree)
            for t in (0.0, 0.3, 0.7):
                assert np.all(np.isfinite(f(t, X)))
    bad = forcing_from(rigid_rotation(), StressModel(1.5, 0.0))
    with pytest.raises(DegenerateGradientError, match="degenerate"):
        bad(0.0, quadrature_points(4, 5))


def test_forcing_from_evaluates_nothing():
    """Building a delta = 0 forcing calls none of the solution's fields."""
    def refuse(*args):
        raise AssertionError("field evaluated at construction")

    names = ("alpha", "dalpha", "beta", "velocity", "pressure")
    forcing_from(ManufacturedSolution(name="refuse", **dict.fromkeys(names, refuse)),
                 StressModel(1.5, 0.0))


@pytest.mark.parametrize("pair", ["MINI", "TH"])
@pytest.mark.parametrize("delta", [0.1, 0.0])
@pytest.mark.parametrize("kind", KINDS)
def test_load_from_matches_pointwise_forcing(kind, delta, pair):
    """The run's load vector, built from tables made once, equals the
    load vector of the pointwise forcing at every time."""
    sol = manufactured_default(kind)
    model = StressModel(1.7, delta)
    vel, _ = element_pair(pair)
    vs = FESpace(unit_square_mesh(4), vel, n_components=2)
    load = load_from(sol, model, vs, 5)
    f = forcing_from(sol, model)
    for t in (0.0, 0.3, 0.77):
        ref = assemble_rhs(vs, lambda X: f(t, X), degree=5)
        assert np.linalg.norm(load(t) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_run_evaluates_velocity_profile_independent_of_steps(ms):
    """A forced run evaluates the velocity profile for the initial
    projection and the load tables, the same number of times for any
    number of steps."""
    vel, pre = element_pair("MINI")
    mesh = unit_square_mesh(4)
    vs, qs = FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)
    model = StressModel(1.8, 0.1)
    counts = []
    for M in (2, 6):
        calls = [0]

        def velocity(X, order, _calls=calls):
            _calls[0] += 1
            return ms.velocity(X, order)

        counted = replace(ms, velocity=velocity)
        run_simulation(vs, qs, model, TimeGrid(0.2, M), lambda X: counted.u(0.0, X),
                       load_from(counted, model, vs, 5))
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0


def test_pure_strain_run_refuses_at_degenerate_time():
    """A delta = 0 run refuses the load at the step time where
    |sym Du| drops below 1e-10, after the steps before it."""
    vel, pre = element_pair("MINI")
    mesh = unit_square_mesh(2)
    vs, qs = FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)
    sol, model = pure_strain(), StressModel(1.5, 0.0)
    load = load_from(sol, model, vs, 5)
    assert np.all(np.isfinite(load(0.25)))
    with pytest.raises(DegenerateGradientError, match="t=0.5"):
        run_simulation(vs, qs, model, TimeGrid(0.5, 2), lambda X: sol.u(0.0, X), load)


def test_forcing_refuses_near_degenerate_time():
    """|sym Du| = sqrt(2) 1e-12 at t = 0.5 is above the Jacobian's
    overflow guard but below the forcing's 1e-10 threshold."""
    f = forcing_from(pure_strain(), StressModel(1.5, 0.0))
    X = quadrature_points(4, 5)
    for t in (0.0, 0.3, 0.7):
        assert np.all(np.isfinite(f(t, X)))
    with pytest.raises(DegenerateGradientError, match="degenerate"):
        f(0.5, X)


# -- error bookkeeping -------------------------------------------------

def make_trajectory(ms, model, n, grid, interpolated):
    vel, pre = element_pair("MINI")
    mesh = unit_square_mesh(n)
    vs = FESpace(mesh, vel, n_components=2)
    qs = FESpace(mesh, pre)
    if interpolated:
        vels = [interpolate(vs, lambda X, _t=tm: ms.u(_t, X))
                for tm in grid.times()]
    else:
        vels = [np.zeros(vs.n_dofs) for _ in grid.times()]
    press = [np.zeros(qs.n_dofs) for _ in grid.times()]
    return Trajectory(vs, qs, model, grid, vels, press)


def test_error_record_interpolant_beats_rest(ms):
    model = StressModel(1.8, 0.1)
    grid = TimeGrid(0.1, 2)
    rec_i = error_record(make_trajectory(ms, model, 8, grid, True), ms)
    rec_0 = error_record(make_trajectory(ms, model, 8, grid, False), ms)
    assert len(rec_i.l2) == 3
    assert rec_i.l2_max < 0.1 * rec_0.l2_max
    assert rec_i.f_agg < rec_0.f_agg
    assert rec_i.h == pytest.approx(1.0 / 8.0)  # criss-cross: h is the side
    assert rec_i.ratio() > 0.0
    assert rec_i.combined_sq == pytest.approx(
        rec_i.l2_max**2 + rec_i.f_agg**2)
    # exact-data norms are recorded for the Gronwall harvest
    assert np.all(rec_i.grad_p_exact > 0.0)


@pytest.mark.parametrize("delta", [0.1, 0.0])
def test_error_norms_match_tensor_reference(ms, delta):
    """The error record and ||F(Du_h)||^2, formed from three symmetric
    components, agree with the same norms formed from full 2 x 2
    gradients through the 2 x 2 references sym_part, tensor_norm and
    f_map."""
    model = StressModel(1.6, delta)
    grid = TimeGrid(0.1, 2)
    traj = make_trajectory(ms, model, 4, grid, True)
    rng = np.random.default_rng(5)
    traj.velocities = [U + 0.01 * rng.standard_normal(len(U)) for U in traj.velocities]
    rec = error_record(traj, ms, degree=7)
    vs, p = traj.v_space, model.p
    X = vs.tabulation(7)[3].reshape(-1, 2)
    for m, tm in enumerate(grid.times()):
        gh = ref_grad(vs, traj.velocities[m], 7)
        ge = ms.grad_u(tm, X).reshape(gh.shape)
        dF = f_map(model, gh) - f_map(model, ge)
        f_dist = np.sqrt(vs.integrate(np.sum(dF * dF, (-2, -1)), 7))
        gpex = vs.integrate(tensor_norm(sym_part(ge)) ** p, 7) ** (1.0 / p)
        assert rec.f_dist[m] == pytest.approx(f_dist, rel=1e-12)
        assert rec.grad_p_exact[m] == pytest.approx(gpex, rel=1e-12)
    fsq = []
    for U in traj.velocities:
        Fv = f_map(model, ref_grad(vs, U, 5))
        fsq.append(vs.integrate(np.sum(Fv * Fv, (-2, -1)), 5))
    np.testing.assert_allclose(state_norms(traj)[1], fsq, rtol=1e-12)


def test_eoc_pairs_exact_powers():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    errs = 3.7 * hs**1.5
    out = eoc_pairs(errs, hs)
    assert np.isnan(out[0])
    np.testing.assert_allclose(out[1:], 1.5, atol=1e-12)
    assert least_squares_rate(errs, hs) == pytest.approx(1.5, abs=1e-12)


def test_eoc_pairs_zero_safe():
    out = eoc_pairs([0.0, 0.0], [0.2, 0.1])
    assert np.isnan(out[0])


# -- study driver ------------------------------------------------------

def test_study_config_validation():
    with pytest.raises(ValueError, match="mode"):
        StudyConfig(p=1.8, delta=0.1, mode="spacetime")
    with pytest.raises(ValueError, match="sigma"):
        StudyConfig(p=1.8, delta=0.1, sigma=0.0)
    with pytest.raises(ValueError, match="t_end"):
        StudyConfig(p=1.8, delta=0.1, t_end=-1.0)
    for kw in ({"levels": (8, 4)}, {"levels": ()}, {"steps": (4, 4)},
               {"steps": (0, 2)}):
        with pytest.raises(ValueError, match="strictly increasing"):
            StudyConfig(p=1.8, delta=0.1, **kw)
    assert StudyConfig(p=1.7, delta=0.1).guaranteed_range
    assert not StudyConfig(p=1.5, delta=0.1).guaranteed_range


def test_coupled_study_smoke():
    cfg = StudyConfig(p=2.0, delta=1.0, levels=(2, 4), t_end=0.1, sigma=0.5)
    res = convergence_study(cfg)
    assert len(res.rows) == 2
    assert np.isnan(res.rows[0].eoc_l2) and np.isfinite(res.rows[1].eoc_l2)
    assert res.rows[1].h < res.rows[0].h
    assert all(r.err_l2max > 0.0 and r.err_fagg > 0.0 for r in res.rows)
    assert all(r.energy > 0.0 and r.gronwall_mu4 > 0.0 for r in res.rows)
    lines = res.csv().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2" and first[2] == "2"
    assert first[7] == "" and first[8] == ""  # EOC blank on the first level
    assert "least-squares rates" in res.summary()


def test_temporal_study_smoke():
    cfg = StudyConfig(p=2.0, delta=1.0, mode="temporal", n_fixed=4,
                      steps=(2, 4), t_end=0.1)
    res = convergence_study(cfg)
    assert res.rows[0].h == res.rows[1].h
    assert res.rows[0].kappa == 2 * res.rows[1].kappa


def test_coupled_study_rejects_incompatible_exponent():
    cfg = StudyConfig(p=1.3, delta=0.5, levels=(2, 4, 8), t_end=0.5, sigma=0.5)
    with pytest.raises(ValueError, match="coupling incompatible"):
        convergence_study(cfg)


def test_coupled_study_refuses_growing_monitor_before_running(monkeypatch):
    """The coupling monitor depends on h and kappa alone, so a growing one
    is refused before the first level runs."""
    calls = []
    monkeypatch.setattr(verification, "run_simulation",
                        lambda *args, **kwargs: calls.append(args))
    cfg = StudyConfig(p=1.3, delta=0.1, levels=(4, 8, 16))
    with pytest.raises(ValueError, match="coupling incompatible"):
        convergence_study(cfg)
    assert calls == []


def test_summary_flags_experimental_range():
    res = StudyResult(StudyConfig(p=1.5, delta=0.1), rows=[])
    assert "experimental" in res.summary()


def test_csv_golden_row():
    row = StudyRow(p=1.8, delta=0.1, level=4, h=0.25, kappa=0.0625,
                   err_l2max=1e-3, err_fagg=2e-3, eoc_l2=np.nan, eoc_f=np.nan,
                   gronwall_mu4=1.5, energy=2.5, compat=0.1)
    res = StudyResult(StudyConfig(p=1.8, delta=0.1), rows=[row])
    assert res.csv() == (
        CSV_HEADER + "\n" + "1.8,0.1,4,0.25,0.0625,0.001,0.002,,,1.5,2.5\n")


# -- discrete Gronwall checker -----------------------------------------

def test_gronwall_zero_data():
    data = GronwallData(kappa=0.1, h=0.1, p=1.8,
                        a=np.zeros(5), b=np.zeros(5))
    rep = gronwall_check(data)
    assert rep.hypotheses_ok and rep.stepwise_ok and rep.conclusion_ok
    assert rep.mu0_required == 0.0
    assert rep.mu4_required == 0.0


def test_gronwall_flags_doubling_sequence():
    # a_m^2 grows while every right-hand side stays zero
    a = 1e-3 * 2.0 ** np.arange(6)
    data = GronwallData(kappa=0.1, h=0.1, p=1.8, a=a, b=np.zeros(6))
    rep = gronwall_check(data)
    assert not rep.stepwise_ok_bis
    assert not rep.stepwise_ok_ter
    assert len(rep.violations_bis) == 5


def test_gronwall_b_cap():
    data = GronwallData(kappa=0.1, h=0.1, p=1.8, a=np.zeros(3),
                        b=np.array([0.0, 2.0, 0.0]), mu4=1e12)
    rep = gronwall_check(data)
    assert not rep.conclusion_ok
    assert rep.b_max == 2.0


@pytest.mark.parametrize("lam", [0.0, 1e-300])
@pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 1.8, 2.0])
def test_gronwall_weight_near_vanishing_arguments(lam, p):
    """(lam + b)^(p-2) b^2 against its value from logarithms: at lam = 0
    that is b^p, to 1e-12 relative where it is a normal float and
    exactly 0 where it underflows."""
    b = np.array([0.0, 1e-300, 1e-200, 1e-150, 1e-8, 1.0])
    weight = verification._gronwall_weight(lam, b, p)
    for bi, wi in zip(b, weight):
        exact = (math.exp((p - 2.0) * math.log(lam + bi) + 2.0 * math.log(bi))
                 if bi > 0.0 else 0.0)
        if exact >= np.finfo(float).tiny:
            assert wi == pytest.approx(exact, rel=1e-12, abs=0.0)
        else:
            assert exact == 0.0 and wi == 0.0


def test_gronwall_validation():
    for kw, message in (({"kappa": np.nan}, "finite"), ({"mu0": True}, "finite"),
                        ({"h": 0.0}, "h > 0"), ({"p": 1.0}, "p must lie")):
        with pytest.raises(ValueError, match=message):
            GronwallData(**{"kappa": 0.1, "h": 0.1, "p": 1.8, "a": np.zeros(3),
                            "b": np.zeros(3), **kw})
    with pytest.raises(ValueError, match="length"):
        GronwallData(kappa=0.1, h=0.1, p=1.8, a=np.zeros(4), b=np.zeros(3))
    with pytest.raises(ValueError, match="length"):
        GronwallData(kappa=0.1, h=0.1, p=1.8, a=np.zeros(3), b=np.zeros(3),
                     r=np.zeros(5))
    with pytest.raises(ValueError, match="nonnegative"):
        GronwallData(kappa=0.1, h=0.1, p=1.8, a=-np.ones(3), b=np.zeros(3))
    with pytest.raises(ValueError, match="theta"):
        GronwallData(kappa=0.1, h=0.1, p=1.8, a=np.zeros(3), b=np.zeros(3),
                     theta=0.0)
    with pytest.raises(ValueError, match="lambda"):
        GronwallData(kappa=0.1, h=0.1, p=1.8, a=np.zeros(3), b=np.zeros(3),
                     lam=2.0, Lam=1.0)


def test_gronwall_harvest_from_study(ms):
    model = StressModel(1.8, 0.1)
    rec = error_record(
        make_trajectory(ms, model, 4, TimeGrid(0.1, 2), True), ms)
    data = harvest_gronwall(rec)
    assert 0.0 < data.theta <= 1.0
    assert data.lam >= model.delta
    assert data.Lam > data.lam
    rep = gronwall_check(data)
    assert rep.mu4_required > 0.0
    assert set(rep.margins) == {"hypotheses", "stepwise_bis_min",
                                "stepwise_ter_min", "conclusion", "b_max"}
    harvested = replace(harvest_gronwall(rec), mu4=2 * rep.mu4_required)
    assert gronwall_check(harvested).conclusion_ok


# -- Bochner increment bound -------------------------------------------

def test_bochner_linear_closed_form():
    f, df = bochner_example("linear", size=4, seed=1)
    g2 = float(np.dot(f(1.0), f(1.0)))
    grid = TimeGrid(1.0, 8)
    rep = bochner_check(f, df, grid)
    k = grid.kappa
    np.testing.assert_allclose(rep.per_interval, k**3 * g2 / 3.0, rtol=1e-12)
    assert rep.ratio == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rep.holds


def test_bochner_constant_family():
    f, df = bochner_example("constant")
    rep = bochner_check(f, df, TimeGrid(1.0, 4))
    assert rep.lhs == 0.0 and rep.ratio == 0.0 and rep.holds


def test_bochner_linear_slope_exact():
    f, df = bochner_example("linear", seed=2)
    lhss, ks = [], []
    for M in (4, 8, 16):
        rep = bochner_check(f, df, TimeGrid(1.0, M))
        assert rep.holds
        lhss.append(rep.lhs)
        ks.append(1.0 / M)
    slope = np.polyfit(np.log(ks), np.log(lhss), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-10)


def test_bochner_sine_holds():
    f, df = bochner_example("sine", seed=3)
    for tau in ("right", "left", "mid"):
        assert bochner_check(f, df, TimeGrid(1.0, 8), tau=tau).holds


def test_bochner_argument_validation():
    f, df = bochner_example("constant")
    with pytest.raises(ValueError, match="tau"):
        bochner_check(f, df, TimeGrid(1.0, 4), tau="center")
    with pytest.raises(ValueError, match="64"):
        bochner_check(f, df, TimeGrid(1.0, 4), n_quad=16)
    with pytest.raises(ValueError, match="family"):
        bochner_example("quadratic")


# -- remaining checkers ------------------------------------------------

def test_quasi_norm_suite_smoke():
    rep = quasi_norm_suite(unit_square_mesh(2), StressModel(1.7, 0.1),
                           samples=100, seed=7)
    assert rep.ratio_min > 0.0
    assert rep.ratio_max / rep.ratio_min < 100.0
    assert len(rep.ratios) == 100
    with pytest.raises(ValueError, match="100"):
        quasi_norm_suite(unit_square_mesh(2), StressModel(1.7, 0.1), samples=10)


def test_quasi_norm_suite_matches_tensor_reference():
    """Every sampled constant equals the one formed from 2 x 2 P1
    gradients through sym_part, tensor_norm and f_map."""
    mesh, model = unit_square_mesh(3), StressModel(1.6, 0.05)
    rep = quasi_norm_suite(mesh, model, samples=100, seed=4)
    V = FESpace(mesh, "P1", n_components=2)
    vols, p = 0.5 * V.detJ, model.p
    rng = np.random.default_rng(4)
    for ratio in rep.ratios:
        U = rng.uniform(-1.0, 1.0, V.n_dofs)
        W = rng.uniform(-1.0, 1.0, V.n_dofs)
        gu, gw = ref_grad(V, U, 1)[:, 0], ref_grad(V, W, 1)[:, 0]
        ndu = np.sum(vols * tensor_norm(sym_part(gu)) ** p) ** (1.0 / p)
        ndiff = np.sum(vols * tensor_norm(sym_part(gu - gw)) ** p) ** (1.0 / p)
        fsq = np.sum(vols * tensor_norm(f_map(model, gu) - f_map(model, gw)) ** 2)
        bound = (model.delta + ndu + ndiff) ** (p - 2.0) * ndiff**2
        assert ratio == pytest.approx(fsq / bound, rel=1e-12)


def test_weak_residual_small_mesh(ms):
    vel, _ = element_pair("MINI")
    vs = FESpace(unit_square_mesh(8), vel, n_components=2)
    rep = weak_residual_check(ms, StressModel(1.8, 0.1), vs, n_fields=10)
    assert rep.max_residual < 1e-7
    assert len(rep.residuals) == 10
    assert rep.degree == 7


def ref_weak_residuals(ms, model, vs, t=0.3, n_fields=100, seed=0, degree=7):
    """The weak residual of ``weak_residual_check`` field by field, on
    2 x 2 gradients: (dt u + 1/2 [grad u] u - f, v) + (S(Du), grad v)
    - 1/2 ([grad v] u, u) - (q, div v)."""
    xq = vs.tabulation(degree)[3]
    wd = vs.cell_weights(degree)
    X = xq.reshape(-1, 2)
    nc, nq = xq.shape[:2]
    u = ms.u(t, X).reshape(nc, nq, 2)
    G = ms.grad_u(t, X).reshape(nc, nq, 2, 2)
    S = stress(model, G)
    qv = ms.q(t, X).reshape(nc, nq)
    fv = forcing_from(ms, model)(t, X).reshape(nc, nq, 2)
    lin = ms.dt_u(t, X).reshape(nc, nq, 2) + 0.5 * np.einsum("cqil,cql->cqi", G, u) - fv
    rng = np.random.default_rng(seed)
    K = assemble_stiffness(vs)
    Mv = assemble_mass(vs)
    bdofs = vs.boundary_dofs()
    res = np.zeros(n_fields)
    for k in range(n_fields):
        coeffs = rng.standard_normal(vs.n_dofs)
        coeffs[bdofs] = 0.0
        coeffs /= np.sqrt(coeffs @ (K @ coeffs) + coeffs @ (Mv @ coeffs))
        vvals = vs.eval_at_qp(coeffs, degree)
        gvals = ref_grad(vs, coeffs, degree)
        integrand = (
            np.einsum("cqil,cqil->cq", S, gvals)
            + np.einsum("cqi,cqi->cq", lin, vvals)
            - 0.5 * np.einsum("cqil,cql,cqi->cq", gvals, u, u)
            - qv * np.einsum("cqii->cq", gvals)
        )
        res[k] = np.sum(wd * integrand)
    return res


@pytest.mark.parametrize("pair,n", [("MINI", 8), ("TH", 4)])
def test_weak_residual_matches_field_loop(ms, pair, n):
    """The one-vector residual tested against all fields at once equals
    the per-field loop on 2 x 2 gradients, field for field."""
    vs = FESpace(unit_square_mesh(n), element_pair(pair)[0], n_components=2)
    model = StressModel(1.8, 0.1)
    rep = weak_residual_check(ms, model, vs, n_fields=20, seed=3)
    ref = ref_weak_residuals(ms, model, vs, n_fields=20, seed=3)
    assert np.max(np.abs(rep.residuals - ref)) <= 1e-15
    assert np.max(np.abs(ref)) > 1e-12  # the fields see a nonzero residual


def test_fenchel_young_sampled():
    rep = fenchel_young_check(StressModel(1.6, 0.3), n_samples=2000)
    assert rep.max_violation <= 1e-10
    assert rep.max_equality_gap <= 1e-8
