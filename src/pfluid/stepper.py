"""Semi-implicit time stepping for the shear-thinning flow problem.

Each step solves the fully coupled velocity/pressure system

    (u^m - u^(m-1), v)/kappa + (S(Du^m), Dv) + b(u^(m-1), u^m, v)
        - (q^m, div v) = (f(t_m), v),
    (div u^m, eta) = 0,

with the convecting field frozen at the previous step, so the
nonlinearity entering Newton's method is the stress alone and its
Jacobian moves little within a step.  Newton is therefore a chord
method (Kelley, Iterative Methods for Linear and Nonlinear Equations,
SIAM 1995, ch. 5): a step factors its KKT matrix once and reuses that
LU for its later iterations while each accepted iteration contracts the
residual by ``CHORD_CONTRACTION``; see ``StepperContext.step``.  The LU
never outlives the step.  A step hands the velocity block of its KKT
matrix to ``assembly.SaddleSystem.factor`` as element matrices, so the
MINI bubbles are condensed out cell by cell and only the P1-P1 system is
factored; the solver returns the full velocity, and the residual that
drives Newton stays on the full space.  The initial field is the
divergence-preserving projection of the data, solved on the same pinned
saddle system (``StepperContext.kkt``) as every step, so a run builds and
orders one KKT pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np

from . import assembly
from .fespace import DiscreteField
from .pstructure import sym_norm

# largest r_new / r_old of an accepted Newton iteration that keeps its LU
CHORD_CONTRACTION = 0.1


class NonConvergenceError(RuntimeError):
    """Nonlinear solve exhausted its iteration budget."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, t_end] into n_steps intervals."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.t_end <= 0.0 or self.n_steps < 1:
            raise ValueError("need t_end > 0 and at least one step")

    @property
    def kappa(self):
        return self.t_end / self.n_steps

    def times(self):
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


@dataclass
class SolverOptions:
    tol: float = 1e-10  # relative to the fixed part of the step rhs
    abs_tol: float = 1e-14
    max_newton: int = 50
    max_picard: int = 200
    max_backtrack: int = 8
    picard_after_rejects: int = 3
    jac_delta_floor: float = 1e-8  # times min(1, max |sym Du|); see assemble_stress
    method: str = "newton"  # "newton" (with picard fallback) or "picard"
    quad_degree: int = 5


@dataclass
class StepDiagnostics:
    """What one step did.

    ``factorizations`` counts its ``splu`` calls, partial-pivot refactors
    included, and ``pivot_fallbacks`` those refactors alone: static-pivot
    LUs whose solve failed the residual check.  ``fill_nnz`` is the
    ``nnz`` of the step's last LU, 0 when it factored nothing: SuperLU's
    own count of its stored L and U entries, read without building L and
    U.  It includes the padding of the supernode blocks, so it can exceed
    nnz(L) + nnz(U).
    """

    iterations: int
    mode: str
    residual_norm: float
    residual_history: list
    converged: bool
    backtracks: int = 0
    factorizations: int = 0
    pivot_fallbacks: int = 0
    fill_nnz: int = 0


class StepperContext:
    """Shared matrices and options for a sequence of steps.

    A step hands ``kkt.factor`` element matrices: M/kappa, the
    convection N of the step and the stress linearization, summed cell
    by cell.  The residual applies the same M/kappa + N as an element
    matvec (``assembly.local_matvec``), so no sparse M or N is built.
    """

    def __init__(self, v_space, q_space, model, kappa, options=None):
        self.v_space = v_space
        self.q_space = q_space
        self.model = model
        self.kappa = float(kappa)
        self.opts = options or SolverOptions()
        self.kkt = assembly.SaddleSystem(v_space, q_space)
        self.B, self.w, self.bdofs = self.kkt.B, self.kkt.w, self.kkt.bdofs
        # M/kappa as element matrices, the part of every KKT matrix that
        # stays fixed over the run
        self._fixed_data = assembly.local_mass(v_space) / self.kappa

    def _residual(self, U, Q, step_data, rhs_u):
        """(R, state): the step residual at (U, Q) and the stress state
        of U it was built from."""
        s, state = assembly.assemble_stress(
            self.v_space, U, self.model, degree=self.opts.quad_degree, jacobian=None
        )
        Ru = (assembly.local_matvec(self.v_space, step_data, U) + s
              - self.B.T @ Q - rhs_u)
        Ru[self.bdofs] = U[self.bdofs]
        return np.concatenate([Ru, self.B @ U]), state

    def _factor(self, U, step_data, mode, state=None):
        """Solver for the step's element matrices plus the stress
        linearization at U; ``state`` is the stress state of U from
        ``_residual``, or None to compute it."""
        _, K = assembly.assemble_stress(
            self.v_space, U, self.model, degree=self.opts.quad_degree,
            jacobian=mode, jac_delta_floor=self.opts.jac_delta_floor, state=state,
        )
        return self.kkt.factor(step_data + K)

    def step(self, U_prev, Q_prev, t_m, f=None, initial=None):
        """Advance one step; returns (U, Q, StepDiagnostics).

        Newton keeps the LU of its last fresh direction.  A fresh
        direction (no LU kept) is searched by Armijo backtracking.  A
        chord direction (the kept LU) is tried at full length only: if
        it is rejected, or its solve raises LinearSolveError, the LU is
        dropped and a fresh direction is taken from the same iterate,
        and the try counts as no iteration.  The LU is also dropped
        after every rejected line search and every accepted iteration
        with r_new > ``CHORD_CONTRACTION`` r_old.  Picard factors on
        every iteration.
        """
        opts = self.opts
        nu = self.v_space.n_dofs
        nq = self.q_space.n_dofs
        if f is not None:
            F = assembly.assemble_rhs(self.v_space, f, degree=opts.quad_degree)
        else:
            F = np.zeros(nu)
        step_data = self._fixed_data + assembly.assemble_convection(self.v_space, U_prev)
        rhs_u = F + assembly.local_matvec(self.v_space, self._fixed_data, U_prev)
        tol_eff = max(opts.tol * float(np.linalg.norm(rhs_u)), opts.abs_tol)

        if initial is not None:
            U, Q = np.array(initial[0], dtype=float), np.array(initial[1], dtype=float)
            U[self.bdofs] = 0.0
        else:
            U, Q = np.array(U_prev, dtype=float), np.array(Q_prev, dtype=float)
        # solves return zero-mean pressures and increments, so a zero-mean
        # start keeps w @ Q = 0 on every iterate
        Q -= (self.w @ Q) / self.w.sum()

        history = []
        backtracks = 0
        kkt = self.kkt
        factored, fallbacks = kkt.factorizations, kkt.pivot_fallbacks
        # the stress state of the current iterate, so a fresh operator
        # reuses the residual's
        R, state = self._residual(U, Q, step_data, rhs_u)
        rnorm = float(np.linalg.norm(R))
        history.append(rnorm)
        mode = opts.method
        rejects = 0
        newton_iters = 0
        total_iters = 0
        lu = None  # the Newton LU kept for chord directions

        def unpack(x):
            return x[:nu], x[nu:]

        def diagnostics(converged):
            lus = kkt.factorizations - factored
            return StepDiagnostics(total_iters, mode, rnorm, history, converged,
                                   backtracks, lus, kkt.pivot_fallbacks - fallbacks,
                                   kkt.fill_nnz if lus else 0)

        x = np.concatenate([U, Q])
        while total_iters < opts.max_newton + opts.max_picard:
            if rnorm <= tol_eff:
                return x[:nu].copy(), x[nu:].copy(), diagnostics(True)
            U, Q = unpack(x)
            if mode == "newton" and newton_iters >= opts.max_newton:
                mode = "picard"
            if mode == "newton":
                chord = lu is not None
                try:
                    if not chord:
                        lu = self._factor(U, step_data, "newton", state)
                    d = lu(-R)
                except assembly.LinearSolveError:
                    lu = None
                    if chord:
                        continue  # refactor at this iterate
                    # singular or non-finite direction: no line search can
                    # use it, so the step continues with Picard
                    mode = "picard"
                    newton_iters += 1
                    total_iters += 1
                    history.append(rnorm)
                    continue
                lam = 1.0
                accepted = False
                for _ in range(opts.max_backtrack + 1):
                    x_try = x + lam * d
                    R_try, state_try = self._residual(*unpack(x_try), step_data, rhs_u)
                    r_try = float(np.linalg.norm(R_try))
                    if r_try <= (1.0 - 1e-4 * lam) * rnorm or r_try <= tol_eff:
                        accepted = True
                        break
                    if chord:
                        break  # a chord direction is tried at full length only
                    lam *= 0.5
                    backtracks += 1
                if not accepted or r_try > CHORD_CONTRACTION * rnorm:
                    lu = None
                if chord and not accepted:
                    continue  # a fresh direction from the same iterate
                newton_iters += 1
                total_iters += 1
                if accepted:
                    x, R, rnorm, state = x_try, R_try, r_try, state_try
                    rejects = 0
                else:
                    rejects += 1
                    if rejects >= opts.picard_after_rejects:
                        mode = "picard"
                history.append(rnorm)
            else:
                # secant iteration with the frozen-weight operator; direct
                # iterate, no line search
                try:
                    x = self._factor(U, step_data, "picard", state)(
                        self.kkt.rhs(rhs_u, np.zeros(nq)))
                except assembly.LinearSolveError as exc:
                    raise NonConvergenceError(
                        f"linear solve failed at t={t_m:.6g}: {exc}"
                    ) from exc
                R, state = self._residual(*unpack(x), step_data, rhs_u)
                rnorm = float(np.linalg.norm(R))
                history.append(rnorm)
                total_iters += 1
        raise NonConvergenceError(
            f"step at t={t_m:.6g} did not reach tol {tol_eff:.3e} "
            f"(last residual {rnorm:.3e})",
            diagnostics(False),
        )


@dataclass
class Trajectory:
    """Discrete solution history over a time grid."""

    v_space: object
    q_space: object
    model: object
    grid: TimeGrid
    velocities: list
    pressures: list
    diagnostics: list = field(default_factory=list)
    wall_time: float = 0.0

    def velocity_field(self, m) -> DiscreteField:
        return DiscreteField(self.v_space, self.velocities[m])

    def l2_norms(self, degree=5):
        """||u_h^m||_2 for m = 0..M."""
        out = []
        for U in self.velocities:
            vals = self.v_space.eval_at_qp(U, degree)
            out.append(
                float(np.sqrt(self.v_space.integrate(np.sum(vals * vals, -1), degree)))
            )
        return np.array(out)

    def f_norm_sq(self, degree=5):
        """||F(Du_h^m)||_2^2 for m = 0..M, with |F(Du)| = f_weight(t) t
        and t = |sym Du| from its three components."""
        out = []
        for U in self.velocities:
            t = sym_norm(*self.v_space.sym_grad_at_qp(U, degree))
            Fn = self.model.f_weight(t) * t
            out.append(float(self.v_space.integrate(Fn * Fn, degree)))
        return np.array(out)

    def energy_report(self, degree=5):
        norms = self.l2_norms(degree)
        fsq = self.f_norm_sq(degree)
        return {
            "max_l2_sq": float(np.max(norms**2)),
            "dissipation": float(self.grid.kappa * np.sum(fsq[1:])),
        }

    def divergences(self):
        """max_e |(div u_h^m, psi_e)| / ||psi_e||_2 over the pressure
        basis, for m = 0..M."""
        B = assembly.assemble_divergence(self.v_space, self.q_space)
        psi_norms = np.sqrt(assembly.assemble_mass(self.q_space).diagonal())
        return np.array([float(np.max(np.abs(B @ U) / psi_norms))
                         for U in self.velocities])

    def divergence_max(self):
        return float(np.max(self.divergences()))


def div_preserving_projection(ctx: StepperContext, u0, degree=7) -> DiscreteField:
    """L2 projection onto the discretely divergence-free subspace.

    Minimizes ||u_h - u0||_2 subject to homogeneous boundary values
    and (div u_h, psi_h) = 0 for all pressure test functions.  Scaled
    by 1/kappa, that minimization is the context's saddle system with
    the mass block alone, M/kappa u - B^T q = (u0, v)/kappa, B u = 0,
    so it is one factorization of ``ctx._fixed_data`` (the element
    matrices of M/kappa) on ``ctx.kkt`` and one solve; the pressure
    multiplier is discarded.
    """
    rhs_u = assembly.assemble_rhs(ctx.v_space, u0, degree=degree) / ctx.kappa
    x = ctx.kkt.factor(ctx._fixed_data)(
        ctx.kkt.rhs(rhs_u, np.zeros(ctx.q_space.n_dofs)))
    return DiscreteField(ctx.v_space, ctx.kkt.split(x)[0])


def run_simulation(v_space, q_space, model, grid: TimeGrid, u0, f=None,
                   options=None) -> Trajectory:
    """Run the scheme over the grid from initial data u0.

    u0 is a callable mapping points (n, d) to values (n, d); it is
    projected onto the discretely divergence-free subspace.  f, when
    given, is called as f(t, X) with X of shape (n, d).
    """
    opts = options or SolverOptions()
    if grid.kappa > 1.0:
        raise ValueError(f"time step kappa={grid.kappa:.3g} must be <= 1")
    t0 = time.perf_counter()
    ctx = StepperContext(v_space, q_space, model, grid.kappa, opts)
    U0 = div_preserving_projection(ctx, u0, degree=max(opts.quad_degree, 5)).coeffs
    velocities = [U0]
    pressures = [np.zeros(q_space.n_dofs)]
    diags = []
    U_prev = U0
    Q_prev = pressures[0]
    for m, t_m in enumerate(grid.times()[1:], start=1):
        fm = (lambda X, _t=t_m: f(_t, X)) if f is not None else None
        U, Q, diag = ctx.step(U_prev, Q_prev, t_m, fm)
        velocities.append(U)
        pressures.append(Q)
        diags.append(diag)
        U_prev, Q_prev = U, Q
    return Trajectory(
        v_space, q_space, model, grid, velocities, pressures, diags,
        wall_time=time.perf_counter() - t0,
    )
