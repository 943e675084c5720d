"""Weak-form assembly and saddle-point linear algebra.

Per-iteration work at the quadrature points is batched dense matmuls
on fixed layouts followed by one scatter.  Velocity values come from
``FESpace.eval_at_qp``, and a load vector is one matmul per component
of the weighted point values with the basis table (``load_vector``);
``assemble_rhs`` takes those values from a pointwise callable on blocks
of ``RHS_BLOCK`` cells.  Cell vectors are summed into global vectors
with ``np.bincount`` on ``local_vector_dofs().ravel()``.  Mass,
stiffness and divergence, assembled once per space, are two-operand
einsums scattered into scipy.sparse matrices.  The stress
linearization, the convection and ``local_mass`` return element
matrices of shape (n_cells, d*n_local, d*n_local) on
``FESpace.local_vector_dofs``; ``local_matvec`` applies them to a vector
without assembling, and the saddle system takes them as they are.

The stress terms start from one ``StressState`` per velocity iterate:
sym Du = [[a, c], [c, b]] in three components at the quadrature points,
the sparse matvec D U with D = ``FESpace.sym_grad_operator``, with
t = |sym Du| = sqrt(a^2 + b^2 + 2 c^2) and g = (delta + t)^(p-2).  The
residual call returns the state it built, and a linearization at the
same iterate takes it instead of recomputing the gradient.  The residual
(S(Du), Dv) is ``sym_load_vector`` of the weighted components: the
matvec D^T (wd g (a, b, 2c)), the kernel that loads (T, Dv) for any
symmetric T.  The linearizations use the gradient rows
(``FESpace.grad_rows``, (n_cells, n_local, d*nq), derivative-major).

The stress linearization uses the closed form of the derivative of
S(P) = (delta + |sym P|)^(p-2) sym P,

    DS(P) = g Sym + radial A (x) A,    A = sym P,

with g = (delta + t)^(p-2) and radial = g'(t)/t = (p-2)(delta+t)^(p-3)/t,
formed from the state's t.  Its element matrices are the
g-weighted symmetric-gradient form, one matmul of the contiguous
gradient rows with themselves, plus, for Newton only, the rank-one term
radial v (x) v with v = (a d_x phi + c d_y phi, c d_x phi + b d_y phi)
formed elementwise; Picard is the symmetric-gradient form with the
frozen weight max(delta+t, floor)^(p-2).  The floor scales with the
iterate (see ``assemble_stress``).
No 4-index tensor is formed.  The convection contracts one reference
tensor with per-cell coefficients (``assemble_convection``), and its
trilinear form is used in the skew-symmetrized version

    b(u, v, w) = 1/2 [ ([grad v] u, w) - ([grad w] u, v) ],

which yields an exactly antisymmetric matrix in (v, w) for any frozen
transport field u; testing the step operator with the solution itself
therefore sees no convective energy contribution.

Velocity/pressure saddle systems are solved in the form

    [ A   -B^T ] [u]   [f]
    [ B    0   ] [q] = [g]

with Dirichlet rows and columns of A and B dropped and replaced by the
identity.  Pressure is fixed only up to a constant, so pressure dof
``PINNED`` is pinned: its row and column become a unit diagonal with
rhs 0, which drops one equation of B u = g.  That equation is redundant
exactly when sum(g) = 0, since the rows of B sum to (div u, 1) = 0 for
boundary-vanishing u.  Every caller meets this: Picard and the initial
projection pass g = 0, and Newton passes -B U with U zero on the
boundary.  After the solve q is shifted by a constant to zero mean,
w @ q = 0 with w the pressure-basis means, which leaves the momentum
equations unchanged.

``SaddleSystem`` factors this matrix with the velocity dofs interior
to a cell (the MINI bubble) condensed out: it takes the element matrices
of the A block, eliminates each cell's interior dofs on its element KKT
matrix with a closed-form 2 x 2 inverse, and sums the condensed element
matrices into a P1-P1 (MINI) or unchanged (Taylor-Hood) KKT pattern.
That pattern is built once, with a scatter map per source of entries,
and stored in a minimum-degree order of the structure of K + K^T (K the
condensed matrix), computed once per pattern by a factorization with a
dominant diagonal.  Its ``factor`` is the one factor-and-check routine:
the Newton and Picard iterations and the initial projection
(``stepper``) all use it, on the one system a run builds.
``factor(A_local)`` condenses, factors in the stored order with static
(diagonal) pivoting and returns a solver on the full unknowns that can
be called with any number of right-hand sides.  The per-cell factors
of the condensation become three sparse operators on the interior and
retained unknowns: the rhs condensation b_r - E_ri A_ii^-1 b_i, A_ii^-1,
and the interior recovery A_ii^-1 E_ir x_r.  Their CSR patterns are built
with the KKT pattern, and a factorization fills only their data, so
every call is three sparse matvecs around the triangular solves (empty
operators for Taylor-Hood).  Every call condenses the rhs, checks that
the condensed solution is finite and that ||K x - b|| <=
``RESIDUAL_TOL`` ||b|| for the factored K, and otherwise refactors K
once with COLAMD and partial pivoting, logging a WARNING, and keeps that
LU for later calls; LinearSolveError is raised when the check fails on
it too.  The interior dofs are then recovered.  Every factorization goes
through the module attribute ``splu``.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import logging

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .fespace import element_by_name, quadrature_for
from .pstructure import StressModel, _require_regular, _safe_pow, sym_norm

log = logging.getLogger(__name__)

# pressure dof whose equation is replaced by q = 0 before the mean shift
PINNED = 0
# largest accepted ||K x - b|| / ||b|| of a saddle solve
RESIDUAL_TOL = 1e-10
# the linearizations floor the shift at this times min(1, max |sym Du|)
JAC_DELTA_FLOOR = 1e-8
# cells per call of the pointwise callable of a load vector
RHS_BLOCK = 256


class LinearSolveError(RuntimeError):
    """Sparse factorization or solve failed."""


def _scatter_vector(dofs, cell_values, n):
    """Vector of length n summing cell_values into the global dofs."""
    return np.bincount(np.ravel(dofs), weights=np.ravel(cell_values), minlength=n)


def _scatter(local, row_dofs, col_dofs, shape):
    nl_r = row_dofs.shape[1]
    nl_c = col_dofs.shape[1]
    rows = np.broadcast_to(row_dofs[:, :, None], (len(local), nl_r, nl_c))
    cols = np.broadcast_to(col_dofs[:, None, :], (len(local), nl_r, nl_c))
    mat = sparse.coo_matrix(
        (local.ravel(), (rows.ravel(), cols.ravel())), shape=shape
    )
    return mat.tocsr()


def _cell_mass(space, degree):
    if degree is None:
        degree = 2 * space.element.degree + 1
    _, phi, _, _ = space.tabulation(degree)
    return np.einsum("cq,qa,qb->cab", space.cell_weights(degree), phi, phi)


def assemble_mass(space, degree=None):
    """Mass matrix; block-diagonal over components for vector spaces."""
    M = _scatter(_cell_mass(space, degree), space.cell_dofs, space.cell_dofs,
                 (space.n_scalar, space.n_scalar))
    if space.n_components == 1:
        return M
    return sparse.block_diag([M] * space.n_components, format="csr")


def local_mass(space, degree=None):
    """Element mass matrices in the layout of ``assemble_stress``: the
    scalar cell mass in every component's diagonal block."""
    mass = _cell_mass(space, degree)
    nc, nloc, _ = mass.shape
    k = space.n_components
    local = np.zeros((nc, k, nloc, k, nloc))
    for i in range(k):
        local[:, i, :, i, :] = mass
    return local.reshape(nc, k * nloc, k * nloc)


def assemble_stiffness(space, degree=None):
    """Gradient-seminorm matrix (grad u, grad v), blocked per component."""
    if degree is None:
        degree = 2 * space.element.degree
    _, _, gphys, _ = space.tabulation(degree)
    wd = space.cell_weights(degree)
    local = np.einsum("cq,cqal,cqbl->cab", wd, gphys, gphys)
    K = _scatter(local, space.cell_dofs, space.cell_dofs, (space.n_scalar, space.n_scalar))
    if space.n_components == 1:
        return K
    return sparse.block_diag([K] * space.n_components, format="csr")


def _cell_divergence(v_space, q_space, degree=None):
    """Element matrices of (psi_e, div v), shape (n_cells, pressure
    n_local, d*n_local) on ``q_space.cell_dofs`` and
    ``v_space.local_vector_dofs()``."""
    if degree is None:
        degree = v_space.element.degree + q_space.element.degree + 1
    _, psi, _, _ = q_space.tabulation(degree)
    _, _, gphys, _ = v_space.tabulation(degree)
    wd = v_space.cell_weights(degree)
    # (psi_e, d_i phi_b) goes to local column i*n_local + b
    local = np.einsum("cq,qe,cqbi->ceib", wd, psi, gphys)
    return local.reshape(len(local), psi.shape[1], -1)


def assemble_divergence(v_space, q_space, degree=None):
    """Matrix of (psi_e, div v); shape (pressure dofs, velocity dofs)."""
    return _scatter(_cell_divergence(v_space, q_space, degree), q_space.cell_dofs,
                    v_space.local_vector_dofs(), (q_space.n_dofs, v_space.n_dofs))


def pressure_mean_vector(q_space, degree=None):
    """Vector of pressure basis integrals, w_e = int psi_e."""
    if degree is None:
        degree = q_space.element.degree + 1
    _, psi, _, _ = q_space.tabulation(degree)
    wd = q_space.cell_weights(degree)
    return _scatter_vector(q_space.cell_dofs, wd @ psi, q_space.n_dofs)


def load_vector(space, wvals, degree=5):
    """Load vector of (v, phi) from wvals, the values of a field v at the
    quadrature points of the degree rule times the weights
    ``cell_weights(degree)``, component-major: shape (n_components,
    n_cells, nq)."""
    phi = space.tabulation(degree)[1]
    # one (n_cells, nq) x (nq, n_local) product per component
    cell = np.matmul(wvals, phi)
    return _scatter_vector(space.local_vector_dofs(), cell.transpose(1, 0, 2),
                           space.n_dofs)


def assemble_rhs(space, f, degree=5):
    """Load vector of (f, phi) for a pointwise callable f."""
    _, _, _, xq = space.tabulation(degree)
    nc, nq = xq.shape[:2]
    # f is called on blocks of RHS_BLOCK cells: its temporaries scale with
    # the points it is called at, and they would stack on the LU a step
    # carries
    vals = np.empty((space.n_components, nc, nq))
    for start in range(0, nc, RHS_BLOCK):
        xb = xq[start:start + RHS_BLOCK]
        block = np.asarray(f(xb.reshape(-1, space.mesh.dim)), dtype=float)
        block = block.reshape(len(xb), nq, -1)
        if block.shape[-1] != space.n_components:
            raise ValueError(
                f"callable returned {block.shape[-1]} components, "
                f"space has {space.n_components}"
            )
        vals[:, start:start + RHS_BLOCK] = np.moveaxis(block, -1, 0)
    vals *= space.cell_weights(degree)
    return load_vector(space, vals, degree)


def local_matvec(v_space, local, coeffs):
    """Product of the matrix of vector element matrices on
    ``local_vector_dofs()`` with coeffs, without assembling it."""
    dofs = v_space.local_vector_dofs()
    x = np.asarray(coeffs, dtype=float)[dofs]
    return _scatter_vector(dofs, np.matmul(local, x[:, :, None]), v_space.n_dofs)


@dataclass(frozen=True)
class StressState:
    """Stress of one velocity at the quadrature points of one rule.

    ``sym`` is sym Du = [[a, c], [c, b]] in its three components, stacked
    (3, n_cells, nq) as ``FESpace.sym_grad_operator`` gives them, with
    t = |sym Du| = sqrt(a^2 + b^2 + 2 c^2) and g = (delta + t)^(p-2), so
    S(Du) = g sym Du.  Never written to: later operators are built from it.
    """

    sym: np.ndarray
    t: np.ndarray
    g: np.ndarray
    a = property(lambda self: self.sym[0])
    b = property(lambda self: self.sym[1])
    c = property(lambda self: self.sym[2])


# (T, Dv) = a_T a_v + b_T b_v + 2 c_T c_v pointwise
_PAIRING = np.array([1.0, 1.0, 2.0])[:, None, None]


def sym_load_vector(sym_op_t, wT):
    """Load vector of (T, Dv) for a symmetric tensor field
    T = [[a, c], [c, b]] from wT, its components (a, b, c) at the rule's
    points times its ``cell_weights``, stacked (3, n_cells, nq): the
    product sym_op_t @ (wa, wb, 2 wc) with sym_op_t = D.T, the transposed
    view of the rule's ``FESpace.sym_grad_operator`` D."""
    return sym_op_t @ (wT * _PAIRING).ravel()


def _sym_gradient_local(wg, G):
    """Element matrices of (wg Dv, Dw), shape (nc, 2 n_local, 2 n_local),
    for the gradient rows G (nc, n_local, 2 nq) of ``FESpace.grad_rows``.

    With D the symmetric gradient the (i, a; j, b) entry is
    1/2 sum_q wg [delta_ij grad(phi_a).grad(phi_b) + d_j phi_a d_i phi_b].
    """
    nc, nloc, _ = G.shape
    D = G.reshape(nc, 2 * nloc, -1)  # row (a, j): d_j phi_a at the points
    # Y[c, a, j, b, i] = sum_q wg d_j phi_a d_i phi_b
    Y = np.matmul(wg[:, None, :] * D, np.swapaxes(D, 1, 2))
    Y = Y.reshape(nc, nloc, 2, nloc, 2)
    local = np.empty((nc, 2, nloc, 2, nloc))
    np.multiply(Y.transpose(0, 4, 1, 2, 3), 0.5, out=local)
    lap = np.einsum("calbl->cab", Y)
    for i in range(2):
        local[:, i, :, i, :] += 0.5 * lap
    return local.reshape(nc, 2 * nloc, 2 * nloc)


def _shift_floor(t):
    """Shift floor JAC_DELTA_FLOOR * min(1, max t), t = |sym Du| at the
    quadrature points; a zero iterate has no scale and gets
    JAC_DELTA_FLOOR itself."""
    tmax = float(np.max(t, initial=0.0))
    return JAC_DELTA_FLOOR * min(1.0, tmax) if tmax > 0.0 else JAC_DELTA_FLOOR


def assemble_stress(v_space, coeffs, model: StressModel, degree=5, jacobian="newton",
                    state=None, sym_ops=None):
    """Stress residual (S(Du), Dv) or a linearization of it.

    jacobian: None for the residual, "newton" for the exact derivative
    or "picard" for the frozen-weight secant operator.  Both keep their
    weights representable with one floor, JAC_DELTA_FLOOR *
    min(1, max_q |sym Du|) (``_shift_floor``): Newton differentiates the
    model with delta raised to the floor, Picard freezes the weight
    max(delta + |sym Du|, floor)^(p-2).  Scaling the floor with the
    iterate keeps the Newton derivative accurate and the Picard fixed
    point a root of the residual as the flow comes to rest.  The
    residual always uses the unmodified model.

    state: the ``StressState`` of coeffs under this model and degree,
    as an earlier residual call returned it; None computes it from
    coeffs.  sym_ops: (D, D.T), the space's ``sym_grad_operator(degree)``
    and its transposed view, as a caller that evaluates many residuals
    holds them: D gives the state and D.T the residual.  None builds
    them.

    Returns (residual, state) for jacobian=None: the residual vector and
    the ``StressState`` it was built from.  Otherwise returns None and
    the element matrices of the linearization, shape
    (n_cells, d*n_local, d*n_local) on ``v_space.local_vector_dofs()``.
    """
    if sym_ops is None and (state is None or jacobian is None):
        D = v_space.sym_grad_operator(degree)
        sym_ops = (D, D.T)
    if state is None:
        sym = (sym_ops[0] @ coeffs).reshape(3, v_space.mesh.n_cells, -1)
        t = sym_norm(*sym)
        state = StressState(sym, t, model.weight(t))
    wd = v_space.cell_weights(degree)
    t = state.t
    if jacobian is None:
        return sym_load_vector(sym_ops[1], state.sym * (wd * state.g)), state

    G = v_space.grad_rows(degree)
    nc, nloc, _ = G.shape
    if jacobian == "newton":
        # DS = g Sym + radial A (x) A: the g part is the weighted
        # symmetric-gradient form, the radial part the rank-one term
        # radial v (x) v with v = (a d_x phi + c d_y phi, c d_x phi + b d_y phi)
        shift, g = model.delta, state.g
        # the floor can only exceed delta when delta < JAC_DELTA_FLOOR
        if shift < JAC_DELTA_FLOOR:
            shift = max(shift, _shift_floor(t))
            if shift > model.delta:
                g = _safe_pow(shift + t, model.p - 2.0)
        _require_regular(shift, t)
        # radial = g'(t)/t = (p-2)(shift+t)^(p-3)/t, zero at t = 0
        tpos = t > 0.0
        radial = np.where(tpos, (model.p - 2.0) * g
                          / ((shift + t) * np.where(tpos, t, 1.0)), 0.0)
        local = _sym_gradient_local(wd * g, G)
        D = G.reshape(nc, nloc, 2, -1)
        Dx, Dy = D[:, :, 0], D[:, :, 1]
        a, b, c = state.a[:, None], state.b[:, None], state.c[:, None]
        V = np.empty((nc, 2, nloc, t.shape[1]))
        np.multiply(a, Dx, out=V[:, 0])
        V[:, 0] += c * Dy
        np.multiply(c, Dx, out=V[:, 1])
        V[:, 1] += b * Dy
        V = V.reshape(nc, 2 * nloc, -1)
        local += np.matmul((wd * radial)[:, None, :] * V, np.swapaxes(V, 1, 2))
    elif jacobian == "picard":
        shift = np.maximum(model.delta + t, _shift_floor(t))
        local = _sym_gradient_local(wd * _safe_pow(shift, model.p - 2.0), G)
    else:
        raise ValueError(f"unknown jacobian mode {jacobian!r}")
    return None, local


@functools.lru_cache(maxsize=None)
def _convection_tensor(element_name, degree):
    """Reference tensor T[k, l, b, a] = sum_q w_q phi_k d_l phi_b phi_a of
    the element on the degree rule, d_l the derivative in barycentric
    coordinate l, as an (n_local (d+1), n_local^2) matrix."""
    rule = quadrature_for(degree)
    element = element_by_name(element_name)
    phi = element.eval(rule.points)
    T = np.einsum("q,qk,qbl,qa->klba", rule.weights, phi,
                  element.dlambda(rule.points), phi)
    T = T.reshape(T.shape[0] * T.shape[1], -1)
    T.flags.writeable = False  # one array serves every call
    return T


def assemble_convection(v_space, transport_coeffs, degree=None):
    """Skew-symmetrized convection for a frozen transport field.

    Returns element matrices in the layout of ``assemble_stress``: the
    same scalar skew block for every component, zero coupling between
    components.  On an affine cell grad phi_b = sum_l d_l phi_b
    grad lambda_l, so (u . grad phi_b, phi_a) contracts the cell's
    W[k, l] = |det J| u_k . grad lambda_l, u_k the transport's
    coefficients, with the reference tensor ``_convection_tensor`` (Kirby
    & Logg, ACM TOMS 32, 2006): one GEMM, the degree rule's sums reordered.
    """
    if degree is None:
        degree = 3 * v_space.element.degree
    nc, nloc, d = v_space.mesh.n_cells, v_space.n_local, v_space.mesh.dim
    U = v_space.coeffs_by_component(transport_coeffs)
    Uloc = np.moveaxis(U[:, v_space.cell_dofs], 0, -1)  # (nc, n_local, d)
    W = v_space.detJ[:, None, None] * (Uloc @ np.swapaxes(v_space.grad_lambda, 1, 2))
    # Ct[c, b, a] = C[c, a, b]
    Ct = (W.reshape(nc, -1) @ _convection_tensor(v_space.element.name, degree)
          ).reshape(nc, nloc, nloc)
    local = np.zeros((nc, d, nloc, d, nloc))
    for i in range(d):
        local[:, i, :, i, :] = 0.5 * (np.swapaxes(Ct, 1, 2) - Ct)
    return local.reshape(nc, d * nloc, d * nloc)


class SaddleSystem:
    """Pinned KKT matrix with the element-interior velocity dofs condensed
    out cell by cell, on a pattern built and ordered once.

    The full matrix is [A -B^T; B 0] on (u, q), with A the sum of element
    matrices A_c on ``v_space.local_vector_dofs()``.  A cell's interior
    velocity dofs (the MINI bubble in each component; none for P2) couple
    to that cell alone, so they are eliminated from its element KKT
    matrix E_c before any sparse work.  With i the interior dofs and r
    the cell's other velocity dofs and its pressure dofs,

        S_c = E_rr - E_ri A_ii^-1 E_ir,

    where A_ii, the interior block of A_c, is 2 x 2 or empty and is
    inverted in closed form.  The condensed pressure block
    B_i A_ii^-1 B_i^T is nonzero, so static diagonal pivots stay safe
    there.  Summed over the cells, S_c gives the condensed matrix on the
    retained unknowns (vertex and edge velocity dofs and every pressure
    dof), numbered in the order of ``retained``, their indices in (u, q).
    Its CSC pattern holds the cells' velocity pairs, the nonzeros of B
    and -B^T and the pairs that meet through an interior block, outside
    the Dirichlet rows and columns and pressure dof ``PINNED``, which get
    a unit diagonal instead.  Retained unknown j is stored at position
    ``perm[j]``, a minimum-degree order of the pattern.

    ``factor(A_local)`` condenses and factors; its solver maps a rhs in
    the original (u, q) numbering, the numbering of ``rhs`` and
    ``split``, to the full solution.  ``B``, ``w`` and ``bdofs`` are the
    global divergence matrix, the pressure-basis means and the Dirichlet
    velocity dofs.  ``factorizations`` and ``pivot_fallbacks`` count the
    ``splu`` calls and the partial-pivot refactors of the solvers
    ``factor`` returned.
    """

    def __init__(self, v_space, q_space):
        v_dofs = v_space.local_vector_dofs()
        q_dofs = q_space.cell_dofs
        self.nu, self.nq = v_space.n_dofs, q_space.n_dofs
        B_local = _cell_divergence(v_space, q_space)
        self.B = _scatter(B_local, q_dofs, v_dofs, (self.nq, self.nu))
        self.w = pressure_mean_vector(q_space)
        self.bdofs = v_space.boundary_dofs()
        self.factorizations = 0
        self.pivot_fallbacks = 0

        # cell dofs come last in each component's local block
        nloc = v_space.n_local
        interior = np.zeros((v_space.n_components, nloc), dtype=bool)
        interior[:, nloc - v_space.element.cell_dofs :] = True
        self._kept_loc = np.flatnonzero(~interior)
        self._int_loc = np.flatnonzero(interior)
        idofs = v_dofs[:, self._int_loc]
        # a cell's kept velocity dofs couple to its interior through A_c
        # when it has one, its pressure dofs where B_i is nonzero
        B_i = B_local[:, :, self._int_loc]
        couples_v = np.full(len(self._kept_loc), len(self._int_loc) > 0)
        couples_p = np.any(B_i != 0.0, axis=(0, 2))
        self._coupled_loc = self._kept_loc[couples_v]
        self._B_c = B_i[:, couples_p]
        self._Bt_c = -np.swapaxes(self._B_c, 1, 2).copy()
        is_retained = np.ones(self.nu + self.nq, dtype=bool)
        is_retained[idofs] = False
        self.retained = np.flatnonzero(is_retained)
        n = len(self.retained)
        self.shape = (n, n)
        index = np.cumsum(is_retained) - 1  # position in retained
        # unit unknowns, and a trailing dump slot n
        unit = np.zeros(n + 1, dtype=bool)
        unit[index[self.bdofs]] = True
        unit[index[self.nu + PINNED]] = True
        unit[n] = True

        # a cell's unknowns in the condensed numbering, with interior dofs
        # and unit unknowns sent to the dump slot: its velocity dofs, and
        # the retained unknowns that couple to its interior
        vcell = np.full(v_dofs.shape, n)
        vcell[:, self._kept_loc] = index[v_dofs[:, self._kept_loc]]
        vcell = np.where(unit[vcell], n, vcell)
        ccell = np.hstack([vcell[:, self._coupled_loc],
                           index[self.nu + q_dofs[:, couples_p]]])
        cmap = np.where(unit[ccell], n, ccell)

        rows, cols, keeps = [], [], []
        for cell in (vcell, cmap):
            r = np.repeat(cell, cell.shape[1], axis=1).ravel()
            c = np.tile(cell, (1, cell.shape[1])).ravel()
            keep = (r < n) & (c < n)
            rows.append(r[keep])
            cols.append(c[keep])
            keeps.append(keep)
        B = self.B.tocoo()
        bu, bq = index[B.col], index[self.nu + B.row]
        inB = is_retained[B.col] & ~unit[bu] & (B.row != PINNED) & (B.data != 0.0)
        bu, bq, bval = bu[inB], bq[inB], B.data[inB]
        diag = np.flatnonzero(unit[:n])
        rows = np.concatenate(rows + [diag, bu, bq])
        cols = np.concatenate(cols + [diag, bq, bu])
        fixed_vals = np.concatenate([np.ones(len(diag)), -bval, bval])

        self.perm = _minimum_degree_order(rows, cols, n)
        keys = self.perm[cols].astype(np.int64) * n + self.perm[rows]
        # the entry lists and keys are the build's largest arrays: free
        # them as soon as they are read
        del rows, cols
        uniq, pos = _unique_inverse(keys)
        del keys
        self.nnz = len(uniq)
        self.indices = (uniq % n).astype(np.int32)
        self.indptr = np.searchsorted(uniq // n, np.arange(n + 1)).astype(np.int32)
        # entries with a row or column in the dump slot go to slot nnz
        self._maps = []
        start = 0
        for keep in keeps:
            stop = start + np.count_nonzero(keep)
            m = np.full(len(keep), self.nnz)
            m[keep] = pos[start:stop]
            self._maps.append(m)
            start = stop
        self._base = np.bincount(pos[start:], weights=fixed_vals, minlength=self.nnz)

        # CSR patterns of the solver's per-cell operators, on the interior
        # unknowns (``_interior``, cell by cell) and the retained unknowns
        # in stored order (``_stored``); a cell's (row, column) pairs are
        # its own, so no entry repeats.  Each pattern keeps the flat index
        # into W or X of its entries, in CSR order, to fill its data from.
        nc, ni = idofs.shape
        ncpl = cmap.shape[1]
        self._interior = idofs.ravel()
        self._stored = self.retained[np.argsort(self.perm)]
        k = np.arange(nc * ni).reshape(nc, ni)
        at = np.append(self.perm, -1)[cmap]  # stored position, -1: dump slot
        w_src = np.arange(nc * (ni + ncpl) * ni).reshape(nc, ni + ncpl, ni)
        x_src = np.arange(nc * ni * ncpl).reshape(nc, ni, ncpl)
        # E_ri A_ii^-1 b_i, A_ii^-1 b_i and A_ii^-1 E_ir x_r
        self._ops = [
            _csr_pattern(at[:, :, None], k[:, None, :], w_src[:, ni:], (n, nc * ni)),
            _csr_pattern(k[:, :, None], k[:, None, :], w_src[:, :ni],
                         (nc * ni, nc * ni)),
            _csr_pattern(k[:, :, None], at[:, None, :], x_src, (nc * ni, n)),
        ]

    def _pattern_data(self, k, values):
        """Data array of the cell values of source k (0: the velocity
        block, 1: the interior coupling), summed into the pattern."""
        out = np.bincount(self._maps[k], weights=np.ravel(values),
                          minlength=self.nnz + 1)
        return out[:-1]

    def _condense(self, A_local):
        """(K, [A_ii^-1; E_ri A_ii^-1], A_ii^-1 E_ir) for the element
        matrices A_local: K the condensed matrix in stored order, the
        rest per cell, on the retained unknowns that couple to the
        interior."""
        ii, kc = self._int_loc, self._coupled_loc
        inv_ii = _invert_blocks(A_local[:, ii[:, None], ii])
        E_ri = np.concatenate([A_local[:, kc[:, None], ii], self._B_c], axis=1)
        E_ir = np.concatenate([A_local[:, ii[:, None], kc], self._Bt_c], axis=2)
        Y = np.matmul(E_ri, inv_ii)
        data = (self._base + self._pattern_data(0, A_local)
                - self._pattern_data(1, np.matmul(Y, E_ir)))
        K = sparse.csc_matrix((data, self.indices, self.indptr), shape=self.shape)
        return K, np.concatenate([inv_ii, Y], axis=1), np.matmul(inv_ii, E_ir)

    def factor(self, A_local):
        """Condense and factor the matrix of the element velocity blocks
        A_local, shape (n_cells, d*n_local, d*n_local) on
        ``local_vector_dofs()``; returns a solver.

        Raises LinearSolveError when an interior block A_ii is singular
        or not finite.  The solver maps a full rhs (u, q) to the full
        solution, as often as it is called: it condenses the rhs, solves
        the condensed system, recovers the interior dofs cell by cell and
        shifts the pressure to zero mean (w @ q = 0).  The pinned
        pressure's rhs entry is taken as 0.  The first LU keeps the
        pattern's order and pivots on the diagonal.  When a condensed
        solution is not finite or its relative residual against the
        condensed matrix exceeds ``RESIDUAL_TOL``, that matrix is
        refactored with COLAMD and partial pivoting, with a WARNING on
        the ``pfluid.assembly`` logger, and that LU serves the later
        calls.  Raises LinearSolveError when a solve with it fails the
        check too.  The solver's ``K`` is the condensed matrix in stored
        order and its ``fill_nnz`` the ``nnz`` of its current LU (0 when
        that factorization failed).
        """
        return _SaddleSolver(self, *self._condense(A_local))

    def rhs(self, rhs_u, rhs_q):
        f = np.array(rhs_u, dtype=float)
        f[self.bdofs] = 0.0
        return np.concatenate([f, rhs_q])

    def split(self, x):
        return x[: self.nu], x[self.nu :]


def _unique_inverse(keys):
    """(uniq, pos): the sorted distinct keys and the int32 position of
    each key in uniq, as ``np.unique(keys, return_inverse=True)`` gives
    them with fewer full-length temporaries."""
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    pos = np.empty(len(ordered), dtype=np.int32)
    pos[order] = np.cumsum(first, dtype=np.int32) - 1
    return ordered[first], pos


def _invert_blocks(A):
    """Inverses of a stack of 2 x 2 or empty blocks, in closed form.

    Raises LinearSolveError when a block is not finite or its
    determinant vanishes to rounding.
    """
    if A.shape[-1] == 0:
        return A.copy()
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    det = a * d - b * c
    # false for nan and inf too
    if not np.all(np.abs(det) > 1e-14 * (np.abs(a * d) + np.abs(b * c))):
        raise LinearSolveError("singular or non-finite interior block")
    return np.stack([d, -b, -c, a], axis=-1).reshape(-1, 2, 2) / det[:, None, None]


def _csr_pattern(rows, cols, src, shape):
    """(src, indices, indptr, shape) of the CSR matrix with the entries
    (rows, cols), broadcast together, that take their values from the flat
    indices src of a source array; entries with a row or column of -1 are
    dropped.  The pairs must be distinct."""
    rows, cols, src = (a.ravel() for a in np.broadcast_arrays(rows, cols, src))
    keep = (rows >= 0) & (cols >= 0)
    rows, cols, src = rows[keep], cols[keep], src[keep]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return src[order], cols[order].astype(np.int32), indptr, shape


def _fill(pattern, values):
    """CSR matrix of a ``_csr_pattern`` with its data read from values."""
    src, indices, indptr, shape = pattern
    return sparse.csr_matrix((values.ravel()[src], indices, indptr), shape=shape)


def _minimum_degree_order(rows, cols, n):
    """Minimum-degree order of the pattern of K + K^T, as new positions.

    SuperLU computes the order while it factors.  Unit off-diagonal
    values and a diagonal of n make every diagonal pivot dominant, so
    the factorization succeeds for any pattern and its static pivots
    keep the order.
    """
    pattern = sparse.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    pattern.data[:] = 1.0
    lu = splu((pattern + n * sparse.identity(n)).tocsc(),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0)
    return np.asarray(lu.perm_c)


class _SaddleSolver:
    """LU of one condensed matrix of a ``SaddleSystem``, checked on every
    solve, with the sparse operators of the rhs condensation and the
    interior recovery, filled from the per-cell factors W and X."""

    def __init__(self, system, K, W, X):
        self.system = system
        self.K = K
        cond, inv, rec = system._ops
        self._cond, self._inv = _fill(cond, W), _fill(inv, W)
        self._rec = _fill(rec, X)
        self.partial = False
        self.fill_nnz = 0
        self.lu = self._factor(permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def _factor(self, **options):
        self.system.factorizations += 1
        try:
            lu = splu(self.K, **options)
        except RuntimeError:  # SuperLU signals a singular factor this way
            lu = None
        self.fill_nnz = getattr(lu, "nnz", 0)
        return lu

    def _solve(self, b):
        """(y, ||K y - b|| / ||b||); the residual is inf without a factor
        and nan when y is not finite."""
        if self.lu is None:
            return None, np.inf
        y = self.lu.solve(b)
        if not np.all(np.isfinite(y)):
            return y, np.nan
        bnorm = max(np.linalg.norm(b), np.finfo(float).tiny)
        return y, np.linalg.norm(self.K @ y - b) / bnorm

    def __call__(self, rhs):
        kkt = self.system
        x = np.array(rhs, dtype=float)
        x[kkt.nu + PINNED] = 0.0
        b_i = x[kkt._interior]
        b = x[kkt._stored] - self._cond @ b_i
        y, rel = self._solve(b)
        if not rel <= RESIDUAL_TOL and not self.partial:
            log.warning("static-pivot LU rejected (relative residual %.3g); "
                        "refactoring with partial pivoting", rel)
            kkt.pivot_fallbacks += 1
            self.lu = self._factor(permc_spec="COLAMD", diag_pivot_thresh=1.0)
            self.partial = True
            y, rel = self._solve(b)
        if not rel <= RESIDUAL_TOL:
            raise LinearSolveError(f"sparse LU failed (relative residual {rel:.3g})")
        x[kkt._stored] = y
        # u_i = A_ii^-1 (b_i - E_ir x_r), with unit unknowns read as 0
        x[kkt._interior] = self._inv @ b_i - self._rec @ y
        q = x[kkt.nu :]
        q -= (kkt.w @ q) / kkt.w.sum()
        return x
