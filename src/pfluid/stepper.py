"""Semi-implicit time stepping for the shear-thinning flow problem.

Each step solves the fully coupled velocity/pressure system

    (u^m - u^(m-1), v)/kappa + (S(Du^m), Dv) + b(u^(m-1), u^m, v)
        - (q^m, div v) = (f(t_m), v),
    (div u^m, eta) = 0,

with the convecting field frozen at the previous step, so the
nonlinearity entering Newton's method is the stress alone and its
Jacobian moves little within a step.  Newton is therefore a chord
method (Kelley, Iterative Methods for Linear and Nonlinear Equations,
SIAM 1995, ch. 5): an LU of the KKT matrix serves later iterations while
each accepted iteration contracts the residual by ``CHORD_CONTRACTION``.
Newton steps are taken at full length, and one the residual test rejects
is replaced by a Picard (Kacanov) step, whose iteration converges for
p in (1, 2] (Diening, Fornasier, Tomasi & Wank, Numer. Math. 145, 2020);
see ``StepperContext.step``.  Consecutive step matrices differ only by
the change of the transport field and of the iterate, so the Newton LU
a step ends with is carried into the next step as its first chord
direction, and a level of a smooth run factors a handful of times
rather than once per step; so is the stress of its final iterate, the
next step's first residual.  A step hands the velocity block of its KKT
matrix to ``assembly.SaddleSystem.factor`` as element matrices, so the
MINI bubbles are condensed out cell by cell and only the P1-P1 system is
factored; the solver returns the full velocity, and the residual that
drives Newton stays on the full space.  The initial field is the
divergence-preserving projection of the data, solved on the same pinned
saddle system (``StepperContext.kkt``) as every step, so a run builds and
orders one KKT pattern.  The load (f(t_m), v) reaches a step as a
vector, from the one load callable of t a run is given.  Step tolerances
and the iteration budget are the module constants TOL, ABS_TOL and
MAX_ITERATIONS.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
import time

import numpy as np

from . import assembly
from .pstructure import sym_norm

TOL = 1e-10  # times the norm of the fixed part of the step rhs
ABS_TOL = 1e-14
MAX_ITERATIONS = 250  # Newton and Picard iterations of one step
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
    """The flow quadrature degree.  Tolerances and the budget are module
    constants: TOL, ABS_TOL, MAX_ITERATIONS, CHORD_CONTRACTION and
    assembly.JAC_DELTA_FLOOR."""

    quad_degree: int = 5
    # a class attribute, not a constructor field: every step runs the one
    # iteration of ``StepperContext.step``.  Kept because the benchmark's
    # step recorder reads ``ctx.opts.method`` on every step.
    method = "newton"


@dataclass(slots=True)
class StepDiagnostics:
    """What one step did.

    ``residual_history`` holds the residual norm of the first iterate
    and of every iteration as an ``array('d')``: a run keeps one record
    per step, so the record is slotted and its floats are packed.
    ``backtracks`` counts the rejected fresh Newton steps, each replaced
    by one Picard step; the name is the one the benchmark reads.
    ``factorizations`` counts its ``splu`` calls, partial-pivot refactors
    included, and ``pivot_fallbacks`` those refactors alone: static-pivot
    LUs whose solve failed the residual check.  ``fill_nnz`` is the
    ``nnz`` of the LU of the step's last solve, carried from the previous
    step or factored in this one, and 0 when the step solved nothing:
    SuperLU's own count of its stored L and U entries, read without
    building L and U.  It includes the padding of the supernode blocks,
    so it can exceed nnz(L) + nnz(U).
    """

    iterations: int
    residual_history: array
    converged: bool
    backtracks: int = 0
    factorizations: int = 0
    pivot_fallbacks: int = 0
    fill_nnz: int = 0

    @property
    def mode(self):
        """The step's method, read from ``backtracks``: "picard" if it
        took a Picard step, else "newton".  Kept because the benchmark
        records it per step."""
        return "picard" if self.backtracks else "newton"


class StepperContext:
    """Shared matrices and options for a sequence of steps.

    A step hands ``kkt.factor`` element matrices: M/kappa, the
    convection N of the step and the stress linearization, summed cell
    by cell.  The residual applies the same M/kappa + N as an element
    matvec (``assembly.local_matvec``), so no sparse M or N is built.
    The context holds the Newton LU its last step ended with, for the
    next step to try first, the stress of the iterate it ended at, and
    the symmetric-gradient operator D, whose transpose applies the stress.
    """

    def __init__(self, v_space, q_space, model, kappa, options=None):
        self.v_space = v_space
        self.q_space = q_space
        self.model = model
        self.kappa = float(kappa)
        self.opts = options or SolverOptions()
        self.kkt = assembly.SaddleSystem(v_space, q_space)
        self.B, self.w, self.bdofs = self.kkt.B, self.kkt.w, self.kkt.bdofs
        self._Bt = self.B.T.tocsr()
        # M/kappa as element matrices, the part of every KKT matrix that
        # stays fixed over the run
        self._fixed_data = assembly.local_mass(v_space) / self.kappa
        # sym Du at the flow rule's points and its transposed view
        D = v_space.sym_grad_operator(self.opts.quad_degree)
        self._sym_ops = (D, D.T)
        self._lu = None  # the Newton LU the last step ended with
        self._stress = None  # (U, stress vector, state) the last step ended at

    def _residual(self, x, step_data, rhs_u, stress=None):
        """(R, |R|, (U, s, state)): the step residual at x = (U, Q), its
        norm, and U with its stress vector s and the stress state s was
        built from; ``stress``, such a triple of this U, is reused."""
        nu = self.v_space.n_dofs
        U, Q = x[:nu], x[nu:]
        if stress is None:
            stress = (U,) + assembly.assemble_stress(
                self.v_space, U, self.model, degree=self.opts.quad_degree,
                jacobian=None, sym_ops=self._sym_ops)
        Ru = (assembly.local_matvec(self.v_space, step_data, U) + stress[1]
              - self._Bt @ Q - rhs_u)
        Ru[self.bdofs] = U[self.bdofs]
        R = np.concatenate([Ru, self.B @ U])
        return R, float(np.linalg.norm(R)), stress

    def _factor(self, U, step_data, mode, state=None):
        """Solver for the step's element matrices plus the stress
        linearization at U; ``state`` is the stress state of U from
        ``_residual``, or None to compute it."""
        _, K = assembly.assemble_stress(
            self.v_space, U, self.model, degree=self.opts.quad_degree,
            jacobian=mode, state=state,
        )
        return self.kkt.factor(step_data + K)

    def step(self, U_prev, Q_prev, t_m, F=None, initial=None):
        """Advance one step; returns (U, Q, StepDiagnostics).

        F is the step's load vector (f(t_m), v) on the velocity space,
        None for no forcing; t_m only labels errors.

        Every iteration takes a Newton step at full length and accepts it
        if r_new <= (1 - 1e-4) r_old or r_new <= tol.  The step solves
        with the LU of its last fresh Newton operator, starting from the
        LU the previous step ended with.  A rejected chord step (kept
        LU), or one whose solve raises LinearSolveError, drops the LU and
        is retried with a fresh factorization at the same iterate; the
        try counts as no iteration.  A rejected fresh step, or one whose
        factorization or solve raises, is replaced by one Picard step
        from the same iterate, taken unconditionally.  The LU is also
        dropped after every accepted iteration with r_new >
        ``CHORD_CONTRACTION`` r_old.  Picard LUs are not kept.  A
        converged step leaves its Newton LU, if any, and the stress of
        its final iterate for the next, which reuses that stress if its
        U equals the iterate (``np.array_equal``); a step that raises
        leaves neither.
        """
        lu, self._lu = self._lu, None
        carried, self._stress = self._stress, None
        nu = self.v_space.n_dofs
        nq = self.q_space.n_dofs
        if F is None:
            F = np.zeros(nu)
        step_data = self._fixed_data + assembly.assemble_convection(self.v_space, U_prev)
        rhs_u = F + assembly.local_matvec(self.v_space, self._fixed_data, U_prev)
        tol_eff = max(TOL * float(np.linalg.norm(rhs_u)), ABS_TOL)

        if initial is not None:
            U, Q = np.array(initial[0], dtype=float), np.array(initial[1], dtype=float)
            U[self.bdofs] = 0.0
        else:
            U, Q = np.array(U_prev, dtype=float), np.array(Q_prev, dtype=float)
        # solves return zero-mean pressures and increments, so a zero-mean
        # start keeps w @ Q = 0 on every iterate
        Q -= (self.w @ Q) / self.w.sum()

        kkt = self.kkt
        factored, fallbacks = kkt.factorizations, kkt.pivot_fallbacks
        # the current iterate's stress, whose state a fresh operator reuses
        if carried is not None and not np.array_equal(carried[0], U):
            carried = None
        x = np.concatenate([U, Q])
        R, rnorm, stress = self._residual(x, step_data, rhs_u, carried)
        history = [rnorm]
        picard_steps = 0
        last = None  # the solver of the step's last solve

        def diagnostics(converged):
            return StepDiagnostics(
                iterations=len(history) - 1,
                residual_history=array("d", history),
                converged=converged,
                backtracks=picard_steps,
                factorizations=kkt.factorizations - factored,
                pivot_fallbacks=kkt.pivot_fallbacks - fallbacks,
                fill_nnz=0 if last is None else last.fill_nnz)

        while rnorm > tol_eff:
            if len(history) > MAX_ITERATIONS:
                raise NonConvergenceError(
                    f"step at t={t_m:.6g} did not reach tol {tol_eff:.3e} "
                    f"(last residual {rnorm:.3e})",
                    diagnostics(False),
                )
            chord = lu is not None
            accepted = False
            try:
                if not chord:
                    lu = self._factor(x[:nu], step_data, "newton", stress[2])
                last = lu
                x_try = x + lu(-R)
            except assembly.LinearSolveError:
                lu = None
                if chord:
                    continue
            else:
                R_try, r_try, stress_try = self._residual(x_try, step_data, rhs_u)
                accepted = r_try <= (1.0 - 1e-4) * rnorm or r_try <= tol_eff
                if not accepted or r_try > CHORD_CONTRACTION * rnorm:
                    lu = None
                if chord and not accepted:
                    continue
            if not accepted:
                # frozen-weight operator at the same iterate; the solve
                # gives the next iterate itself
                picard_steps += 1
                try:
                    last = self._factor(x[:nu], step_data, "picard", stress[2])
                    x_try = last(kkt.rhs(rhs_u, np.zeros(nq)))
                except assembly.LinearSolveError as exc:
                    raise NonConvergenceError(
                        f"linear solve failed at t={t_m:.6g}: {exc}"
                    ) from exc
                R_try, r_try, stress_try = self._residual(x_try, step_data, rhs_u)
            x, R, rnorm, stress = x_try, R_try, r_try, stress_try
            history.append(rnorm)
        self._lu, self._stress = lu, stress
        return x[:nu].copy(), x[nu:].copy(), diagnostics(True)


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
        sym_op = self.v_space.sym_grad_operator(degree)
        out = []
        for U in self.velocities:
            t = sym_norm(*(sym_op @ U).reshape(3, self.v_space.mesh.n_cells, -1))
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


def div_preserving_projection(ctx: StepperContext, u0, degree=7) -> np.ndarray:
    """Velocity coefficients of the L2 projection onto the discretely
    divergence-free subspace.

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
    return ctx.kkt.split(x)[0]


def run_simulation(v_space, q_space, model, grid: TimeGrid, u0, load=None,
                   options=None) -> Trajectory:
    """Run the scheme over the grid from initial data u0.

    u0 is a callable mapping points (n, d) to values (n, d); it is
    projected onto the discretely divergence-free subspace.  load, when
    given, maps a step time t to the load vector (f(t), v) on v_space,
    which the step at t takes as it is: ``verification.load_from`` for a
    manufactured forcing, or ``lambda t: assembly.assemble_rhs(v_space,
    lambda X: f(t, X), degree)`` for a pointwise f.
    """
    opts = options or SolverOptions()
    if grid.kappa > 1.0:
        raise ValueError(f"time step kappa={grid.kappa:.3g} must be <= 1")
    t0 = time.perf_counter()
    ctx = StepperContext(v_space, q_space, model, grid.kappa, opts)
    U0 = div_preserving_projection(ctx, u0, degree=max(opts.quad_degree, 5))
    velocities = [U0]
    pressures = [np.zeros(q_space.n_dofs)]
    diags = []
    U_prev = U0
    Q_prev = pressures[0]
    for m, t_m in enumerate(grid.times()[1:], start=1):
        F = load(t_m) if load is not None else None
        U, Q, diag = ctx.step(U_prev, Q_prev, t_m, F)
        velocities.append(U)
        pressures.append(Q)
        diags.append(diag)
        U_prev, Q_prev = U, Q
    return Trajectory(
        v_space, q_space, model, grid, velocities, pressures, diags,
        wall_time=time.perf_counter() - t0,
    )
