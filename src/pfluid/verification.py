"""Manufactured solutions, error studies and inequality checkers.

The verification pipeline: an exact divergence-free velocity/pressure
pair with all derivatives in closed form, the forcing that makes it
solve the flow problem, per-step error records in the natural norms,
convergence studies under a kappa = sigma*h coupling, and numeric
checkers for the discrete Gronwall inequality, for the mean-square
time-increment (Bochner) bound and for the discrete inf-sup constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
import math
import numbers

import numpy as np

from . import assembly
from .fespace import FESpace, element_pair
from .mesh import MeshQuality, unit_square_mesh
from .pstructure import (DegenerateGradientError, StressModel, _safe_pow,
                         sym_components, sym_norm)
from .stepper import SolverOptions, TimeGrid, Trajectory, run_simulation
from .tables import csv, report


# -- manufactured solutions --------------------------------------------

@dataclass
class ManufacturedSolution:
    """Closed-form exact solution on the unit square in separable form,

        u(t, x) = alpha(t) u_hat(x),    q(t, x) = beta(t) q_hat(x).

    ``alpha``, ``dalpha`` (= alpha') and ``beta`` map a time to a float.
    ``velocity(X, order)`` returns [u_hat, grad u_hat, hess u_hat][:order + 1]
    and ``pressure(X, order)`` returns [q_hat, grad q_hat][:order + 1] at
    points X of shape (..., 2): the profiles at alpha = beta = 1, with
    trailing shapes (..., 2), (..., 2, 2) (entry [i, j] = d u_i / d x_j)
    and (..., 2, 2, 2) (entry [i, j, k] = d2 u_i / dx_j dx_k), and (...)
    and (..., 2).  The fields below take (t, X) and are these products.
    """

    name: str
    alpha: object
    dalpha: object
    beta: object
    velocity: object
    pressure: object

    def u(self, t, X):
        return self.alpha(t) * self.velocity(X, 0)[0]

    def grad_u(self, t, X):
        return self.alpha(t) * self.velocity(X, 1)[1]

    def hess_u(self, t, X):
        return self.alpha(t) * self.velocity(X, 2)[2]

    def dt_u(self, t, X):
        return self.dalpha(t) * self.velocity(X, 0)[0]

    def q(self, t, X):
        return self.beta(t) * self.pressure(X, 0)[0]

    def grad_q(self, t, X):
        return self.beta(t) * self.pressure(X, 1)[1]


# alpha(t) and alpha'(t) of each time modulation
_ALPHAS = {
    # gentle modulation; spatial error dominates under kappa ~ h coupling
    "smooth-periodic": (
        lambda t: 1.0 + 0.5 * np.sin(2.0 * np.pi * t),
        lambda t: np.pi * np.cos(2.0 * np.pi * t),
    ),
    # fast, strong modulation so fixed-mesh refinement in time alone sees
    # the temporal error above the spatial floor
    "time-dominant": (
        lambda t: 1.0 + 0.9 * np.sin(16.0 * np.pi * t),
        lambda t: 14.4 * np.pi * np.cos(16.0 * np.pi * t),
    ),
}


# a, a', a'', a''' of a(s) = s^2 (1-s)^2 in terms of s and w = s(1-s)
_PROFILE = (
    lambda s, w: w * w,
    lambda s, w: 2.0 * w * (1.0 - 2.0 * s),
    lambda s, w: 2.0 - 12.0 * w,
    lambda s, w: 24.0 * s - 12.0,
)


def _profile(X, order):
    """[a, a', ..., a^(order)] at both coordinates of X.

    Each entry has the shape (..., 2) of X, [..., 0] at x and [..., 1]
    at y.
    """
    S = np.asarray(X, dtype=float)
    w = S - S * S
    return [d(S, w) for d in _PROFILE[:order + 1]]


# the x and y entries of a profile array
_X, _Y = (..., 0), (..., 1)


def _stream_velocity(prof):
    # curl psi = (a(x) a'(y), -a'(x) a(y))
    a0, a1 = prof[:2]
    out = a0 * a1[..., ::-1]
    np.negative(out[..., 1], out=out[..., 1])
    return out


def _stream_gradient(prof):
    a0, a1, a2 = prof[:3]
    G = np.empty(a0.shape + (2,))
    G[..., 0, 0] = a1[_X] * a1[_Y]
    G[..., 0, 1] = a0[_X] * a2[_Y]
    G[..., 1, 0] = -a2[_X] * a0[_Y]
    G[..., 1, 1] = -G[..., 0, 0]
    return G


def _stream_hessian(prof):
    a0, a1, a2, a3 = prof
    cb = a2[_X] * a1[_Y]
    bc = a1[_X] * a2[_Y]
    H = np.empty(a0.shape + (2, 2))
    H[..., 0, 0, 0] = cb
    H[..., 0, 0, 1] = H[..., 0, 1, 0] = bc
    H[..., 0, 1, 1] = a0[_X] * a3[_Y]
    H[..., 1, 0, 0] = -a3[_X] * a0[_Y]
    H[..., 1, 0, 1] = H[..., 1, 1, 0] = -cb
    H[..., 1, 1, 1] = -bc
    return H


def _stream_profile(X, order):
    # curl psi and its derivatives; one profile evaluation serves them all
    prof = _profile(X, order + 1)
    return [make(prof) for make in
            (_stream_velocity, _stream_gradient, _stream_hessian)[:order + 1]]


def _cubic_pressure(X, order):
    # q_hat = x^3 + y^3 - 1/2 and its gradient
    X = np.asarray(X, dtype=float)
    return [X[_X] ** 3 + X[_Y] ** 3 - 0.5, 3.0 * (X * X)][:order + 1]


def manufactured_default(alpha_kind="smooth-periodic") -> ManufacturedSolution:
    """Stream-function solution u = alpha(t) curl psi on the unit square.

    psi = a(x) a(y) with a(s) = s^2 (1-s)^2 has a double zero on the
    boundary, so the velocity (and the tangential part of its gradient)
    vanishes there; q = cos(2 pi t)(x^3 + y^3 - 1/2) has zero mean.
    alpha_kind chooses the time modulation.  The velocity profile is a
    product of a, a', a'', a''', evaluated once for all requested orders.
    """
    if alpha_kind not in _ALPHAS:
        raise ValueError(
            f"unknown alpha kind {alpha_kind!r}; available: {sorted(_ALPHAS)}"
        )
    alpha, dalpha = _ALPHAS[alpha_kind]
    return ManufacturedSolution(
        name=alpha_kind, alpha=alpha, dalpha=dalpha,
        beta=lambda t: np.cos(2.0 * np.pi * t),
        velocity=_stream_profile, pressure=_cubic_pressure,
    )


# -- forcing -----------------------------------------------------------

def _profile_terms(ms: ManufacturedSolution, X):
    """The forcing's space tables at points X of shape (..., 2).

    Returns (stress, linear).  stress = (t_hat, div_hat, mix_hat) are
    the profile terms of the stress divergence, with A = sym grad u_hat =
    [[a, c], [c, b]]: t_hat = |A|, div_hat = div A and mix_hat =
    A (A : d A), (mix_hat)_i = sum_j A_ij (A : d_j A).  linear =
    (u_hat, [grad u_hat] u_hat, grad q_hat) are the terms whose factors
    alpha', alpha^2 and beta are the only time dependence.  Vector
    terms are component-major, shape (2, ...).
    """
    u, G, H = ms.velocity(X, 2)
    a, b, c = sym_components(G)
    # d_j a, d_j b and d_j c at [..., j]
    da, db = H[..., 0, 0, :], H[..., 1, 1, :]
    dc = 0.5 * (H[..., 0, 1, :] + H[..., 1, 0, :])
    div = np.stack([da[_X] + dc[_Y], dc[_X] + db[_Y]])
    s = a[..., None] * da + b[..., None] * db + 2.0 * c[..., None] * dc  # A : d_j A
    mix = np.stack([a * s[_X] + c * s[_Y], c * s[_X] + b * s[_Y]])
    conv = np.stack([G[..., 0, 0] * u[_X] + G[..., 0, 1] * u[_Y],
                     G[..., 1, 0] * u[_X] + G[..., 1, 1] * u[_Y]])
    q_hat_grad = ms.pressure(X, 1)[1]
    return ((sym_norm(a, b, c), div, mix),
            (np.moveaxis(u, -1, 0), conv, np.moveaxis(q_hat_grad, -1, 0)))


def _combine(ms: ManufacturedSolution, model: StressModel, t, stress, linear,
             finish):
    """f(t) = alpha' u_hat + alpha^2 [grad u_hat] u_hat + beta grad q_hat
    - div S(alpha sym grad u_hat) from the profile terms of
    ``_profile_terms``.

    With A = alpha A_hat, t = |alpha| t_hat, g = (delta + t)^(p-2) and the
    radial weight radial = g'(t)/t = (p-2)(delta+t)^(p-3)/t (0 at t = 0),

        div S = alpha g div_hat + alpha^3 radial mix_hat.

    finish maps that div S, shape (2, ...), to the form of the linear
    terms: point values, or load vectors when div_hat and mix_hat carry
    the quadrature weights.  For delta = 0, raises DegenerateGradientError
    when min |alpha| t_hat < 1e-10: there the stress derivative is
    singular.
    """
    al = ms.alpha(t)
    t_hat, div, mix = stress
    tt = abs(al) * t_hat
    if model.delta == 0.0 and np.min(tt) < 1e-10:
        raise DegenerateGradientError(
            f"delta=0 forcing degenerates at t={t:.6g}: |sym Du| < 1e-10; "
            "use a regularized model")
    g = model.weight(tt)
    pos = tt > 0.0
    radial = np.where(pos, (model.p - 2.0) * g
                      / ((model.delta + tt) * np.where(pos, tt, 1.0)), 0.0)
    div_s = finish((al * g) * div + (al ** 3 * radial) * mix)
    u_hat, conv_hat, grad_q_hat = linear
    return ms.dalpha(t) * u_hat + (al * al) * conv_hat + ms.beta(t) * grad_q_hat - div_s


def forcing_from(ms: ManufacturedSolution, model: StressModel):
    """Forcing f = dt_u - div S(Du) + [grad u] u + grad q as a pointwise
    callable f(t, X), X of shape (..., 2).

    Each call builds the space tables of ``_profile_terms`` at X and
    combines them with the time factors (``_combine``), the formula of
    ``load_from``.  div S is the chain rule through the closed-form
    stress derivative DS = g Sym + radial A (x) A, with the analytic
    Hessian of the profile.  For delta = 0, f raises
    DegenerateGradientError when |sym Du| < 1e-10 at any point it is
    called at.  The default solution family degenerates only at isolated
    points (the domain center and corners), which the default quadrature
    rules avoid.  Building f evaluates nothing.
    """
    def f(t, X):
        stress, linear = _profile_terms(ms, np.asarray(X, dtype=float))
        return np.moveaxis(_combine(ms, model, t, stress, linear, lambda v: v), 0, -1)

    return f


def load_from(ms: ManufacturedSolution, model: StressModel, v_space: FESpace,
              degree=5):
    """Load vector callable t -> (f(t), phi) of the ``forcing_from``
    forcing on v_space, integrated with the degree rule.

    The space tables of ``_profile_terms`` are built once, at the space's
    quadrature points in blocks of ``assembly.RHS_BLOCK`` cells: the
    stress terms as t_hat and the weighted div_hat and mix_hat, five
    floats a point, and the time-linear terms as their three load
    vectors.  A call forms g(|alpha| t_hat) and the radial weight, and
    makes one ``assembly.load_vector`` of div S.  The delta = 0 refusal
    is that of ``forcing_from``, over all quadrature points.
    """
    xq = v_space.tabulation(degree)[3]
    wd = v_space.cell_weights(degree)
    nc, nq = xq.shape[:2]
    t_hat, div, mix = np.empty((nc, nq)), np.empty((2, nc, nq)), np.empty((2, nc, nq))
    linear = np.empty((3, 2, nc, nq))
    for start in range(0, nc, assembly.RHS_BLOCK):
        cells = slice(start, start + assembly.RHS_BLOCK)
        (t_b, div_b, mix_b), linear_b = _profile_terms(ms, xq[cells])
        t_hat[cells], div[:, cells], mix[:, cells] = t_b, div_b, mix_b
        linear[:, :, cells] = linear_b
    div *= wd
    mix *= wd
    linear = [assembly.load_vector(v_space, wd * values, degree) for values in linear]

    def load(t):
        return _combine(ms, model, t, (t_hat, div, mix), linear,
                        lambda wvals: assembly.load_vector(v_space, wvals, degree))

    return load


# -- error quantities --------------------------------------------------

@dataclass
class ErrorRecord:
    """Per-step error norms of a trajectory against the exact solution.

    a_m = ||u_h^m - u(t_m)||_2 and the F-increment distance b_m are
    stored for m = 0..M; the exact solution's ||Du(t_m)||_p feeds the
    Gronwall harvest.  Aggregates follow the error-estimate form
    max_m a_m^2 + kappa sum b_m^2.
    """

    times: np.ndarray
    l2: np.ndarray           # a_m
    f_dist: np.ndarray       # b_m
    grad_p_exact: np.ndarray  # ||Du(t_m)||_p
    kappa: float
    h: float
    p: float
    delta: float

    @property
    def l2_max(self):
        return float(np.max(self.l2))

    @property
    def f_agg(self):
        return float(np.sqrt(self.kappa * np.sum(self.f_dist[1:] ** 2)))

    @property
    def combined_sq(self):
        return self.l2_max**2 + self.f_agg**2

    def ratio(self):
        """Aggregate over h^2 + kappa^2, the rate-consistency monitor."""
        return self.combined_sq / (self.h**2 + self.kappa**2)


def error_record(traj: Trajectory, ms: ManufacturedSolution, degree=7) -> ErrorRecord:
    """Per-step errors of traj against ms, one step at a time.

    sym Du is taken in its three components (``FESpace.sym_grad_operator``,
    built once per record, and ``sym_components`` of the exact gradient),
    so F(Du) = f_weight(|sym Du|) sym Du and every norm is formed from them.  The
    exact profile u_hat and its sym D u_hat are evaluated once, at the
    degree rule's points, and scaled by alpha(t_m) at each step; so is
    ||D u_hat||_p, which gives ||Du(t_m)||_p = |alpha(t_m)| ||D u_hat||_p.
    """
    model = traj.model
    sp_v = traj.v_space
    xq = sp_v.tabulation(degree)[3]
    sym_op = sp_v.sym_grad_operator(degree)
    u_hat, G_hat = ms.velocity(xq, 1)
    A_hat = np.stack(sym_components(G_hat))
    t_hat = sym_norm(*A_hat)
    del G_hat
    p = model.p
    gp_hat = sp_v.integrate(t_hat**p, degree) ** (1.0 / p)
    times = traj.grid.times()
    l2 = np.zeros(len(times))
    f_dist = np.zeros(len(times))
    gpex = np.zeros(len(times))
    for m, tm in enumerate(times):
        U = traj.velocities[m]
        al = ms.alpha(tm)
        uh = sp_v.eval_at_qp(U, degree)
        # components stacked as (3, nc, nq): a step allocates a few large
        # arrays, not many point-sized ones, which keeps the heap (and
        # the peak RSS of long runs) from fragmenting
        Ah = (sym_op @ U).reshape(A_hat.shape)
        Ae = al * A_hat
        diff = uh - al * u_hat
        l2[m] = np.sqrt(sp_v.integrate(np.sum(diff * diff, -1), degree))
        th, te = sym_norm(*Ah), abs(al) * t_hat
        dF = sym_norm(*(model.f_weight(th) * Ah - model.f_weight(te) * Ae))
        f_dist[m] = np.sqrt(sp_v.integrate(dF * dF, degree))
        gpex[m] = abs(al) * gp_hat
    q = sp_v.mesh.quality()
    return ErrorRecord(
        times=times, l2=l2, f_dist=f_dist, grad_p_exact=gpex,
        kappa=traj.grid.kappa, h=q.h_max, p=p, delta=model.delta,
    )


def state_norms(traj: Trajectory, degree=5):
    """(l2, f_sq): ||u_h^m||_2 and ||F(Du_h^m)||_2^2 for m = 0..M, in one
    pass over the states, with |F(Du)| = f_weight(t) t and t = |sym Du|
    from its three components."""
    sp_v = traj.v_space
    sym_op = sp_v.sym_grad_operator(degree)
    l2 = np.zeros(len(traj.velocities))
    f_sq = np.zeros(len(traj.velocities))
    for m, U in enumerate(traj.velocities):
        vals = sp_v.eval_at_qp(U, degree)
        l2[m] = np.sqrt(sp_v.integrate(np.sum(vals * vals, -1), degree))
        t = sym_norm(*(sym_op @ U).reshape(3, sp_v.mesh.n_cells, -1))
        Fn = traj.model.f_weight(t) * t
        f_sq[m] = sp_v.integrate(Fn * Fn, degree)
    return l2, f_sq


def divergences(traj: Trajectory):
    """max_e |(div u_h^m, psi_e)| / ||psi_e||_2 over the pressure
    basis, for m = 0..M."""
    B = assembly.assemble_divergence(traj.v_space, traj.q_space)
    psi_norms = np.sqrt(assembly.assemble_mass(traj.q_space).diagonal())
    return np.array([float(np.max(np.abs(B @ U) / psi_norms))
                     for U in traj.velocities])


def eoc_pairs(errors, hs):
    """EOC between consecutive levels; first entry is NaN."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    out = np.full(len(errors), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[1:] = np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])
    return out


def least_squares_rate(errors, hs):
    """Slope of log(error) against log(h)."""
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


# -- convergence studies -----------------------------------------------

@dataclass
class StudyConfig:
    """Parameters of a convergence study.

    mode "coupled" refines mesh and time step together with
    kappa = sigma*h; mode "temporal" fixes the n_fixed mesh and runs
    each step count in ``steps``.  Both are strictly increasing
    sequences of integers >= 1: refinement, not repetition.
    """

    p: float
    delta: float
    levels: tuple = (4, 8, 16)
    element: str = "MINI"
    t_end: float = 0.5
    sigma: float = 0.25
    mode: str = "coupled"
    n_fixed: int = 16
    steps: tuple = (8, 16, 32, 64)
    manufactured: str = "smooth-periodic"
    quad_flow: int = 5
    quad_error: int = 7

    def __post_init__(self):
        if self.mode not in ("coupled", "temporal"):
            raise ValueError(f"unknown study mode {self.mode!r}")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        for name in ("levels", "steps"):
            counts = getattr(self, name)
            if (not counts or min(counts) < 1
                    or any(a >= b for a, b in zip(counts, counts[1:]))):
                raise ValueError(f"{name} must each be >= 1 and strictly increasing")

    @property
    def guaranteed_range(self):
        # convergence guarantee covers p in (8/5, 2]
        return self.p > 1.6


@dataclass
class StudyRow:
    p: float
    delta: float
    level: int
    h: float
    kappa: float
    err_l2max: float
    err_fagg: float
    eoc_l2: float
    eoc_f: float
    gronwall_mu4: float
    energy: float
    compat: float  # h^(4/p') / kappa, the coupling monitor
    record: ErrorRecord = field(repr=False, default=None)
    quality: MeshQuality = field(repr=False, default=None)


CSV_HEADER = "p,delta,level,h,kappa,err_L2max,err_Fagg,eoc_L2,eoc_F,gronwall_mu4,energy"


@dataclass
class StudyResult:
    config: StudyConfig
    rows: list

    def csv(self) -> str:
        return csv([CSV_HEADER.split(",")] + [
            [r.p, r.delta, r.level, r.h, r.kappa, r.err_l2max, r.err_fagg,
             r.eoc_l2, r.eoc_f, r.gronwall_mu4, r.energy]
            for r in self.rows
        ])

    def summary(self) -> str:
        cfg = self.config
        head = ["level", "h", "kappa", "err_L2max", "err_Fagg", "eoc_L2",
                "eoc_F", "mu4", "energy", "compat"]
        body = [
            [r.level, r.h, r.kappa, r.err_l2max, r.err_fagg, r.eoc_l2,
             r.eoc_f, r.gronwall_mu4, r.energy, r.compat]
            for r in self.rows
        ]
        lines = [
            f"study p={cfg.p} delta={cfg.delta} element={cfg.element} "
            f"mode={cfg.mode} manufactured={cfg.manufactured}",
        ]
        if not cfg.guaranteed_range:
            lines.append(
                "note: p <= 8/5 is outside the guaranteed exponent range; "
                "results are experimental"
            )
        lines.append(report([head] + body))
        errs_l2 = [r.err_l2max for r in self.rows]
        errs_f = [r.err_fagg for r in self.rows]
        xs = [r.h for r in self.rows] if cfg.mode == "coupled" else [
            r.kappa for r in self.rows
        ]
        if len(self.rows) >= 2 and min(errs_l2) > 0 and min(errs_f) > 0:
            lines.append(
                f"least-squares rates: L2max {least_squares_rate(errs_l2, xs):.3f}, "
                f"F-aggregate {least_squares_rate(errs_f, xs):.3f}"
            )
        return "\n".join(lines) + "\n"


def convergence_study(config: StudyConfig) -> StudyResult:
    """Run the manufactured-solution study described by the config.

    Coupled mode asserts the compatibility h^(4/p') <= sigma0*kappa by
    reporting the monitor column; the step count at each level is
    M = round(T / (sigma h)) so kappa = T/M matches sigma*h up to
    rounding.  The monitor depends on h and kappa alone, so a coupling
    under which it grows is refused before the first level runs.  Every
    delta >= 0 runs the one solver (full-length Newton steps, a Picard
    step in place of each rejected one);
    at delta = 0 the linearizations floor the degenerate weight relative
    to the iterate (``assembly.assemble_stress``).  Each level loads the
    forcing through ``load_from``.
    """
    ms = manufactured_default(config.manufactured)
    model = StressModel(config.p, config.delta)
    opts = SolverOptions(quad_degree=config.quad_flow)
    pprime = config.p / (config.p - 1.0)

    runs = []
    if config.mode == "coupled":
        for n in config.levels:
            mesh = unit_square_mesh(n)
            q = mesh.quality()
            M = max(1, round(config.t_end / (config.sigma * q.h_max)))
            runs.append((n, mesh, q, TimeGrid(config.t_end, M)))
    else:
        mesh = unit_square_mesh(config.n_fixed)
        q = mesh.quality()
        for M in config.steps:
            runs.append((config.n_fixed, mesh, q, TimeGrid(config.t_end, int(M))))
    compat = [q.h_max ** (4.0 / pprime) / grid.kappa for _, _, q, grid in runs]
    # kappa = sigma*h only satisfies h^(4/p') <= sigma0*kappa under
    # refinement when the monitor does not grow (needs p > 4/3)
    if config.mode == "coupled" and np.any(np.diff(compat) > 1e-12):
        raise ValueError(
            f"step-size coupling incompatible with p={config.p}: "
            "h^(4/p')/kappa grows under refinement"
        )

    rows = []
    for (n, mesh, q, grid), monitor in zip(runs, compat):
        ev, eq = element_pair(config.element)
        V = FESpace(mesh, ev, n_components=2)
        Q = FESpace(mesh, eq, n_components=1)
        traj = run_simulation(V, Q, model, grid, lambda X: ms.u(0.0, X),
                              load_from(ms, model, V, config.quad_flow),
                              options=opts)
        rec = error_record(traj, ms, degree=config.quad_error)
        g = gronwall_check(harvest_gronwall(rec))
        l2, f_sq = state_norms(traj, config.quad_flow)
        rows.append(
            StudyRow(
                p=config.p, delta=config.delta, level=n, h=rec.h,
                kappa=grid.kappa, err_l2max=rec.l2_max, err_fagg=rec.f_agg,
                eoc_l2=np.nan, eoc_f=np.nan,
                gronwall_mu4=g.mu4_required,
                energy=float(np.max(l2**2) + grid.kappa * np.sum(f_sq[1:])),
                compat=monitor, record=rec, quality=q,
            )
        )

    xs = [r.h for r in rows] if config.mode == "coupled" else [r.kappa for r in rows]
    el2 = eoc_pairs([r.err_l2max for r in rows], xs)
    ef = eoc_pairs([r.err_fagg for r in rows], xs)
    rows = [replace(r, eoc_l2=el2[i], eoc_f=ef[i]) for i, r in enumerate(rows)]
    return StudyResult(config, rows)


# -- discrete Gronwall checker -----------------------------------------

def _finite_real(v):
    """True for a finite real number that is not a boolean."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _finite_sequence(name, v):
    """v as a float array; raises ValueError unless v is a flat list,
    tuple or array of finite real numbers (no booleans, no strings)."""
    items = v.tolist() if isinstance(v, np.ndarray) else v
    if not (isinstance(items, (list, tuple)) and all(map(_finite_real, items))):
        raise ValueError(f"{name} must be a flat list of finite numbers")
    return np.array(items, dtype=float)


@dataclass
class GronwallData:
    """Sequences and constants of the discrete Gronwall inequality.

    a, b cover m = 0..M; the auxiliary sequences r, s, rho, sigma cover
    m = 1..M and default to zero; every sequence is a flat list of finite
    real numbers.  The scalars are finite real numbers (not booleans)
    with kappa > 0, h > 0, p in (1, 2], theta in (0, 1] and
    0 <= lam <= Lam.
    """

    kappa: float
    h: float
    p: float
    a: np.ndarray
    b: np.ndarray
    r: np.ndarray = None
    s: np.ndarray = None
    rho: np.ndarray = None
    sigma: np.ndarray = None
    lam: float = 0.0
    Lam: float = 1.0
    theta: float = 1.0
    mu0: float = 1.0
    mu1: float = 1.0
    mu2: float = 1.0
    mu3: float = 1.0
    mu4: float = 1.0
    mu5: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type in ("float", float) and not _finite_real(v):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if not (self.kappa > 0.0 and self.h > 0.0):
            raise ValueError("need kappa > 0 and h > 0")
        if not (1.0 < self.p <= 2.0):
            raise ValueError("p must lie in (1, 2]")
        self.a = _finite_sequence("a", self.a)
        self.b = _finite_sequence("b", self.b)
        M = len(self.a) - 1
        if len(self.b) != M + 1:
            raise ValueError("a and b must have length M+1")
        for name in ("r", "s", "rho", "sigma"):
            v = getattr(self, name)
            v = np.zeros(M) if v is None else _finite_sequence(name, v)
            if len(v) != M:
                raise ValueError(f"{name} must have length M")
            setattr(self, name, v)
        seqs = np.concatenate([self.a, self.b, self.r, self.s, self.rho, self.sigma])
        if np.any(seqs < 0.0):
            raise ValueError("sequences must be nonnegative")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("theta must lie in (0, 1]")
        if not (0.0 <= self.lam <= self.Lam):
            raise ValueError("need 0 <= lambda <= Lambda")

    @property
    def M(self):
        return len(self.a) - 1


@dataclass
class GronwallReport:
    hypotheses_ok: bool
    stepwise_ok: bool
    stepwise_ok_bis: bool
    stepwise_ok_ter: bool
    conclusion_ok: bool
    mu0_required: float
    mu4_required: float
    b_max: float
    margins: dict
    violations_bis: list
    violations_ter: list


def _gronwall_weight(lam, b, p):
    # (lam + b)^(p-2) b^2 with the 0-at-0 convention
    return _safe_pow(lam + b, p - 2.0) * b * b


def gronwall_check(data: GronwallData) -> GronwallReport:
    """Numerically verify the discrete Gronwall hypotheses/conclusions.

    Hypotheses and the two step inequalities are checked with the
    constants carried by ``data``; the smallest admissible mu0 and mu4
    are always reported alongside the pass/fail flags.
    """
    k, h, p = data.kappa, data.h, data.p
    a, b = data.a, data.b
    M = data.M
    slack = 1e-12

    hyp = {
        "a0": a[0] ** 2 / h**2,
        "b0": b[0] ** 2 / h**2,
        "r": k * np.sum(data.r**2) / h**2,
        "s": k * np.sum(data.s**2) / h**2,
        "rho": k * np.sum(data.rho**2) / k**2,
        "sigma": k * np.sum(data.sigma**2) / k**2,
    }
    mu0_required = max(hyp.values())
    hypotheses_ok = bool(mu0_required <= data.mu0 * (1 + slack))

    dt_a2 = (a[1:] ** 2 - a[:-1] ** 2) / k
    lhs = dt_a2 + data.mu1 * _gronwall_weight(data.lam, b[1:], p)
    base = b[1:] * data.r + b[1:] * data.rho + data.s**2 + data.sigma**2
    rhs_bis = base + data.mu2 * b[:-1] * b[1:]
    rhs_ter = base + data.mu3 * b[1:] * _safe_pow(b[:-1], 1.0 - data.theta) * _safe_pow(
        a[:-1], data.theta
    )
    tol = slack * (1.0 + np.abs(lhs) + np.abs(rhs_bis) + np.abs(rhs_ter))
    viol_bis = np.nonzero(lhs > rhs_bis + tol)[0] + 1
    viol_ter = np.nonzero(lhs > rhs_ter + tol)[0] + 1
    ok_bis = len(viol_bis) == 0
    ok_ter = len(viol_ter) == 0

    lhs_conclusion = float(np.max(a**2) + data.mu1 * _safe_pow(1.0 + data.Lam, p - 2.0)
                           * k * np.sum(b**2))
    growth = (h**2 + k**2) * np.exp(2.0 * data.mu5 * k * M)
    mu4_required = lhs_conclusion / growth
    b_max = float(np.max(b))
    conclusion_ok = bool(
        lhs_conclusion <= data.mu4 * growth * (1 + slack)
        and b_max <= 1.0 + slack
    )
    margins = {
        "hypotheses": {kk: data.mu0 - v for kk, v in hyp.items()},
        "stepwise_bis_min": float(np.min(rhs_bis - lhs)) if M else 0.0,
        "stepwise_ter_min": float(np.min(rhs_ter - lhs)) if M else 0.0,
        "conclusion": data.mu4 * growth - lhs_conclusion,
        "b_max": 1.0 - b_max,
    }
    return GronwallReport(
        hypotheses_ok=hypotheses_ok,
        stepwise_ok=ok_bis and ok_ter,
        stepwise_ok_bis=ok_bis,
        stepwise_ok_ter=ok_ter,
        conclusion_ok=conclusion_ok,
        mu0_required=float(mu0_required),
        mu4_required=float(mu4_required),
        b_max=b_max,
        margins=margins,
        violations_bis=viol_bis.tolist(),
        violations_ter=viol_ter.tolist(),
    )


def harvest_gronwall(record: ErrorRecord) -> GronwallData:
    """Map a computed error record onto Gronwall sequences.

    Only a_m (L2 error) and b_m (F-distance) are observable from a run;
    the proof-internal sequences r, s, rho, sigma are zero here and
    mu0 is not asserted.  lambda follows the quasi-norm shift
    delta + max ||Du||_p; theta is the exponent (10p-16)/(5p-6) clipped
    into (0, 1].
    """
    p = record.p
    lam = record.delta + float(np.max(record.grad_p_exact))
    theta = (10.0 * p - 16.0) / (5.0 * p - 6.0)
    theta = min(max(theta, 1e-6), 1.0)
    return GronwallData(
        kappa=record.kappa, h=record.h, p=p, a=record.l2, b=record.f_dist,
        lam=lam, Lam=lam + float(np.max(record.f_dist)) + 1e-30, theta=theta,
    )


# -- Bochner time-increment checker ------------------------------------

@dataclass
class BochnerReport:
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    per_interval: np.ndarray


def bochner_check(f, dt_f, grid: TimeGrid, norm_x=None, tau="right",
                  n_quad=64) -> BochnerReport:
    """Check kappa sum avg_Im ||f(s)-f(tau_m)||^2 <= kappa^2 ||dt f||^2.

    f and dt_f map a time to a vector; norm_x (default Euclidean) maps
    values to reals.  tau selects the comparison node per interval:
    "right" (the scheme's choice t_m), "left", or "mid".
    """
    if norm_x is None:
        norm_x = np.linalg.norm
    if n_quad < 64:
        raise ValueError("need at least 64 quadrature points per interval")
    xi, wq = np.polynomial.legendre.leggauss(n_quad)
    times = grid.times()
    k = grid.kappa
    pick = {"right": lambda t0, t1: t1, "left": lambda t0, t1: t0,
            "mid": lambda t0, t1: 0.5 * (t0 + t1)}
    try:
        tau_of = pick[tau]
    except KeyError:
        raise ValueError(f"tau must be one of {sorted(pick)}") from None

    lhs_parts = np.zeros(grid.n_steps)
    rhs = 0.0
    for m in range(grid.n_steps):
        t0, t1 = times[m], times[m + 1]
        ts = 0.5 * (t1 - t0) * xi + 0.5 * (t0 + t1)
        ws = 0.5 * (t1 - t0) * wq
        ftau = f(tau_of(t0, t1))
        # kappa * interval mean = plain interval integral
        lhs_parts[m] = np.sum(
            ws * np.array([norm_x(f(s) - ftau) ** 2 for s in ts])
        )
        rhs += np.sum(ws * np.array([norm_x(dt_f(s)) ** 2 for s in ts]))
    lhs = float(np.sum(lhs_parts))
    rhs = float(k**2 * rhs)
    ratio = 0.0 if lhs == 0.0 else lhs / rhs
    return BochnerReport(
        lhs=lhs, rhs=rhs, ratio=ratio, holds=lhs <= rhs + 1e-8,
        per_interval=lhs_parts,
    )


def bochner_example(kind, size=5, seed=0):
    """(f, dt_f) example families used by the checker suite."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(size)
    if kind == "constant":
        return (lambda t: g, lambda t: 0.0 * g)
    if kind == "linear":
        return (lambda t: t * g, lambda t: g)
    if kind == "sine":
        two_pi = 2.0 * np.pi
        return (
            lambda t: np.sin(two_pi * t) * g,
            lambda t: two_pi * np.cos(two_pi * t) * g,
        )
    raise ValueError(f"unknown example family {kind!r}")


# -- quasi-norm envelope on discrete fields ----------------------------

@dataclass
class QuasiNormReport:
    ratios: np.ndarray
    ratio_min: float
    ratio_max: float
    p: float
    delta: float
    seed: int


def quasi_norm_suite(mesh, model: StressModel, samples=100, seed=0) -> QuasiNormReport:
    """Sampled constants of the F-increment lower bound on P1 fields.

    For random piecewise-linear velocity pairs the ratio
    ||F(Du)-F(Dv)||^2 / [(delta+||Du||_p+||Du-Dv||_p)^(p-2) ||Du-Dv||_p^2]
    must stay positive; the envelope over the sample set is reported.
    """
    from .pstructure import quasi_norm_lower_bound_ratio

    if samples < 100:
        raise ValueError("suite requires at least 100 sample pairs")
    V = FESpace(mesh, "P1", n_components=2)
    vols = 0.5 * V.detJ  # cell areas: the reference triangle has area 1/2
    # P1 gradients are cellwise constant: the degree-1 rule has one point
    # per cell
    sym_op = V.sym_grad_operator(1)
    rng = np.random.default_rng(seed)
    p = model.p
    ratios = np.zeros(samples)
    for i in range(samples):
        U = rng.uniform(-1.0, 1.0, V.n_dofs)
        W = rng.uniform(-1.0, 1.0, V.n_dofs)
        Au = (sym_op @ U).reshape(3, -1)
        Aw = (sym_op @ W).reshape(3, -1)
        tu, tw = sym_norm(*Au), sym_norm(*Aw)
        ndu = float(np.sum(vols * tu ** p) ** (1.0 / p))
        ndiff = float(np.sum(vols * sym_norm(*(Au - Aw)) ** p) ** (1.0 / p))
        dF = sym_norm(*(model.f_weight(tu) * Au - model.f_weight(tw) * Aw))
        fsq = float(np.sum(vols * dF * dF))
        ratios[i] = quasi_norm_lower_bound_ratio(model, ndu, ndiff, fsq)
    return QuasiNormReport(
        ratios=ratios, ratio_min=float(np.min(ratios)),
        ratio_max=float(np.max(ratios)), p=model.p, delta=model.delta, seed=seed,
    )


# -- discrete inf-sup constant -----------------------------------------

def inf_sup_constant(v_space: FESpace, q_space: FESpace):
    """Discrete inf-sup constant of the velocity/pressure pair.

    Square root of the smallest nonzero eigenvalue of the pressure Schur
    complement B K^-1 B^T relative to the pressure mass matrix, with K
    the gradient-seminorm matrix on the constrained velocity space.
    Dense solve; intended for the coarse meshes of the verification
    suite.
    """
    from scipy.linalg import eigh

    K = assembly.assemble_stiffness(v_space).toarray()
    B = assembly.assemble_divergence(v_space, q_space).toarray()
    Mq = assembly.assemble_mass(q_space).toarray()
    free = np.setdiff1d(np.arange(v_space.n_dofs), v_space.boundary_dofs())
    Kf = K[np.ix_(free, free)]
    Bf = B[:, free]
    S = Bf @ np.linalg.solve(Kf, Bf.T)
    ev = eigh(S, Mq, eigvals_only=True)
    # first eigenvalue is the constant-pressure zero mode
    return float(np.sqrt(max(ev[1], 0.0)))


# -- weak-residual consistency gate ------------------------------------

@dataclass
class WeakResidualReport:
    max_residual: float
    residuals: np.ndarray
    degree: int
    t: float


def weak_residual_check(ms: ManufacturedSolution, model: StressModel,
                        v_space: FESpace, t=0.3, n_fields=100, seed=0,
                        degree=7) -> WeakResidualReport:
    """Residual of the exact triple against random discrete test fields.

    Evaluates (dt u, v) + (S(Du), Dv) + b(u, u, v) - (q, div v) - (f, v)
    with a single quadrature rule for every term and unit-H1 normalized
    random fields v with zero boundary values.  Analytically the
    residual vanishes; what remains measures quadrature consistency.

    The residual is linear in v: one vector r, the load of
    dt u + 1/2 [grad u] u - f plus (T, Dv) of the symmetric
    T = S(Du) - 1/2 u (x) u - q I (``assembly.sym_load_vector``), is
    tested against all fields at once.
    """
    _, _, _, xq = v_space.tabulation(degree)
    wd = v_space.cell_weights(degree)
    Xflat = xq.reshape(-1, v_space.mesh.dim)
    nc, nq = xq.shape[:2]

    u = ms.u(t, Xflat).reshape(nc, nq, 2)
    G = ms.grad_u(t, Xflat).reshape(nc, nq, 2, 2)
    a, b, c = sym_components(G)
    wg = wd * model.weight(sym_norm(a, b, c))
    wq = wd * ms.q(t, Xflat).reshape(nc, nq)
    f = forcing_from(ms, model)
    point = (ms.dt_u(t, Xflat).reshape(nc, nq, 2)
             + 0.5 * np.einsum("cqil,cql->cqi", G, u)
             - f(t, Xflat).reshape(nc, nq, 2))
    r = assembly.load_vector(v_space, wd * np.moveaxis(point, -1, 0), degree)
    hu = 0.5 * wd[..., None] * u
    r += assembly.sym_load_vector(v_space.sym_grad_operator(degree).T, np.stack(
        [wg * a - hu[..., 0] * u[..., 0] - wq, wg * b - hu[..., 1] * u[..., 1] - wq,
         wg * c - hu[..., 0] * u[..., 1]]))

    rng = np.random.default_rng(seed)
    H = assembly.assemble_stiffness(v_space) + assembly.assemble_mass(v_space)
    C = rng.standard_normal((n_fields, v_space.n_dofs))
    C[:, v_space.boundary_dofs()] = 0.0
    C /= np.sqrt(np.sum(C * (H @ C.T).T, axis=1))[:, None]
    res = C @ r
    return WeakResidualReport(
        max_residual=float(np.max(np.abs(res))), residuals=res, degree=degree,
        t=t,
    )


# -- Fenchel-Young sampling --------------------------------------------

@dataclass
class FenchelYoungReport:
    max_violation: float
    max_equality_gap: float


def fenchel_young_check(model: StressModel, a=0.7, n_samples=10000, seed=0,
                        scale=3.0) -> FenchelYoungReport:
    """Sampled Young inequality t s <= phi_a(t) + phi_a*(s).

    Also evaluates the equality case s = phi_a'(t), where the gap must
    vanish.
    """
    rng = np.random.default_rng(seed)
    sh = model.shifted(a)
    ts = rng.uniform(0.0, scale, n_samples)
    ss = rng.uniform(0.0, scale, n_samples)
    lhs = ts * ss
    rhs = sh.value(ts) + sh.conjugate(ss)
    violation = float(np.max(lhs - rhs))
    s_eq = sh.derivative(ts)
    gap = np.abs(ts * s_eq - sh.value(ts) - sh.conjugate(s_eq))
    return FenchelYoungReport(
        max_violation=max(violation, 0.0),
        max_equality_gap=float(np.max(gap)),
    )

