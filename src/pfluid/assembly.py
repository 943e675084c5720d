"""Weak-form assembly and saddle-point linear algebra.

Per-iteration work at the quadrature points is batched dense matmuls
on fixed layouts followed by one scatter.  Fields come from
``FESpace.eval_at_qp``/``grad_at_qp``; the stress residual is one
matmul of the weighted stress with the gradient rows
(``FESpace.grad_rows``, (n_cells, n_local, nq*d)) and the load vector
one matmul with the basis table.  Cell vectors are summed into global
vectors with ``np.bincount`` on ``local_vector_dofs().ravel()``.  Mass,
stiffness and divergence, assembled once per space, are two-operand
einsums scattered into scipy.sparse matrices.  The stress linearization
and the convection return element matrices of shape
(n_cells, d*n_local, d*n_local) on ``FESpace.local_vector_dofs``;
``local_matvec`` applies them to a vector without assembling, and
``global_matrix`` scatters them when a sparse matrix is wanted.

The stress linearization uses the closed form of the derivative of
S(P) = (delta + |sym P|)^(p-2) sym P,

    DS(P) = g Sym + radial A (x) A,    A = sym P,

from ``StressModel.jacobian_factors``.  Its element matrices are the
g-weighted symmetric-gradient form plus, for Newton only, the rank-one
term radial v (x) v with v[s, a] = A[s, l] d_l phi_a; Picard is the
symmetric-gradient form with the frozen weight max(delta+t, floor)^(p-2).
The floor scales with the iterate (see ``assemble_stress``).
No 4-index tensor is formed.  The convection trilinear form is used in
the skew-symmetrized version

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

``SaddleSystem`` builds the CSC pattern of this matrix once, with a
scatter map for each source of A-block entries, so refilling the matrix
is one ``np.bincount`` per source.  The pattern is stored in a
minimum-degree order of the structure of K + K^T (K the whole matrix),
computed once per pattern by a factorization with a dominant diagonal.
Its ``factor`` is the one factor-and-check routine: the Newton and
Picard iterations and the initial projection (``stepper``) all use it,
on the one system a run builds.  ``factor(data)`` factors in the stored
order with static (diagonal) pivoting and returns a solver that can be
called with any number of right-hand sides.  Every call checks that the
solution is finite and that ||K x - b|| <= ``RESIDUAL_TOL`` ||b|| for
the factored K, and otherwise refactors K once with COLAMD and partial
pivoting, logging a WARNING, and keeps that LU for later calls;
LinearSolveError is raised when the check fails on it too.  Every
factorization goes through the module attribute ``splu``.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .pstructure import StressModel, _safe_pow, sym_part, tensor_norm

log = logging.getLogger(__name__)

# pressure dof whose equation is replaced by q = 0 before the mean shift
PINNED = 0
# largest accepted ||K x - b|| / ||b|| of a saddle solve
RESIDUAL_TOL = 1e-10


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


def assemble_mass(space, degree=None):
    """Mass matrix; block-diagonal over components for vector spaces."""
    if degree is None:
        degree = 2 * space.element.degree + 1
    _, phi, _, _ = space.tabulation(degree)
    wd = space.cell_weights(degree)
    local = np.einsum("cq,qa,qb->cab", wd, phi, phi)
    M = _scatter(local, space.cell_dofs, space.cell_dofs, (space.n_scalar, space.n_scalar))
    if space.n_components == 1:
        return M
    return sparse.block_diag([M] * space.n_components, format="csr")


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


def assemble_divergence(v_space, q_space, degree=None):
    """Matrix of (psi_e, div v); shape (pressure dofs, velocity dofs)."""
    if degree is None:
        degree = v_space.element.degree + q_space.element.degree + 1
    _, psi, _, _ = q_space.tabulation(degree)
    _, _, gphys, _ = v_space.tabulation(degree)
    wd = v_space.cell_weights(degree)
    # (psi_e, d_i phi_b) goes to column i*n_scalar + b
    local = np.einsum("cq,qe,cqbi->ceib", wd, psi, gphys)
    nc = v_space.mesh.n_cells
    d = v_space.mesh.dim
    cols = v_space.local_vector_dofs()
    local = local.reshape(nc, psi.shape[1], d * v_space.n_local)
    return _scatter(local, q_space.cell_dofs, cols, (q_space.n_dofs, v_space.n_dofs))


def pressure_mean_vector(q_space, degree=None):
    """Vector of pressure basis integrals, w_e = int psi_e."""
    if degree is None:
        degree = q_space.element.degree + 1
    _, psi, _, _ = q_space.tabulation(degree)
    wd = q_space.cell_weights(degree)
    return _scatter_vector(q_space.cell_dofs, wd @ psi, q_space.n_dofs)


def assemble_rhs(space, f, degree=5):
    """Load vector of (f, phi) for a pointwise callable f."""
    _, phi, _, xq = space.tabulation(degree)
    wd = space.cell_weights(degree)
    nc, nq = xq.shape[:2]
    vals = np.asarray(f(xq.reshape(-1, space.mesh.dim)), dtype=float)
    vals = vals.reshape(nc, nq, -1)
    if vals.shape[-1] != space.n_components:
        raise ValueError(
            f"callable returned {vals.shape[-1]} components, "
            f"space has {space.n_components}"
        )
    # cell[c, i, a] = sum_q wd vals[c, q, i] phi[q, a]
    cell = np.matmul(np.swapaxes(wd[:, :, None] * vals, 1, 2), phi)
    return _scatter_vector(space.local_vector_dofs(), cell, space.n_dofs)


def global_matrix(v_space, local):
    """Sparse matrix of vector element matrices on local_vector_dofs()."""
    dofs = v_space.local_vector_dofs()
    return _scatter(local, dofs, dofs, (v_space.n_dofs, v_space.n_dofs))


def local_matvec(v_space, local, coeffs):
    """global_matrix(v_space, local) @ coeffs without building the matrix."""
    dofs = v_space.local_vector_dofs()
    x = np.asarray(coeffs, dtype=float)[dofs]
    return _scatter_vector(dofs, np.matmul(local, x[:, :, None]), v_space.n_dofs)


def _sym_gradient_local(wg, gphys):
    """Element matrices of (wg Dv, Dw), shape (nc, d, nloc, d, nloc).

    With D the symmetric gradient the (i, a; j, b) entry is
    1/2 sum_q wg [delta_ij grad(phi_a).grad(phi_b) + d_j phi_a d_i phi_b].
    """
    nc, nq, nloc, d = gphys.shape
    G = gphys.reshape(nc, nq, nloc * d)
    # Y[c, a, j, b, i] = sum_q wg d_j phi_a d_i phi_b
    Y = np.matmul(np.swapaxes(wg[:, :, None] * G, 1, 2), G)
    Y = Y.reshape(nc, nloc, d, nloc, d)
    local = 0.5 * Y.transpose(0, 4, 1, 2, 3)
    lap = np.einsum("calbl->cab", Y)
    for i in range(d):
        local[:, i, :, i, :] += 0.5 * lap
    return local


def _shift_floor(t, jac_delta_floor):
    """Shift floor jac_delta_floor * min(1, max t), t = |sym Du| at the
    quadrature points; a zero iterate has no scale and gets
    jac_delta_floor itself."""
    tmax = float(np.max(t, initial=0.0))
    return jac_delta_floor * min(1.0, tmax) if tmax > 0.0 else jac_delta_floor


def assemble_stress(v_space, coeffs, model: StressModel, degree=5, jacobian="newton",
                    jac_delta_floor=1e-8):
    """Stress residual (S(Du), Dv) or a linearization of it.

    jacobian: None for the residual, "newton" for the exact derivative
    or "picard" for the frozen-weight secant operator.  Both keep their
    weights representable with one floor, jac_delta_floor *
    min(1, max_q |sym Du|) (``_shift_floor``): Newton differentiates the
    model with delta raised to the floor, Picard freezes the weight
    max(delta + |sym Du|, floor)^(p-2).  Scaling the floor with the
    iterate keeps the Newton derivative accurate and the Picard fixed
    point a root of the residual as the flow comes to rest.  The
    residual always uses the unmodified model.

    Returns (residual, local): the residual vector and None for
    jacobian=None, else None and the element matrices of the
    linearization, shape (n_cells, d*n_local, d*n_local) on
    ``v_space.local_vector_dofs()``; see ``global_matrix``.
    """
    grad = v_space.grad_at_qp(coeffs, degree)
    _, _, gphys, _ = v_space.tabulation(degree)
    wd = v_space.cell_weights(degree)
    nc, nq, nloc, d = gphys.shape
    if jacobian is None:
        # res[c, i, a] = sum_(q,l) wd S[c, q, i, l] d_l phi_a, one matmul
        # with the gradient rows (nc, nloc, nq*d)
        WS = np.swapaxes(wd[:, :, None, None] * model.stress(grad), 1, 2)
        res_cell = np.matmul(WS.reshape(nc, -1, nq * d),
                             np.swapaxes(v_space.grad_rows(degree), 1, 2))
        residual = _scatter_vector(v_space.local_vector_dofs(), res_cell,
                                   v_space.n_dofs)
        return residual, None

    # DS = g Sym + radial A (x) A: the g part is the weighted
    # symmetric-gradient form, the radial part the rank-one term
    # radial v (x) v with v[s, a] = A[s, l] d_l phi_a
    if jacobian == "newton":
        jmodel = model
        # the floor can only exceed delta when delta < jac_delta_floor
        if model.delta < jac_delta_floor:
            floor = _shift_floor(tensor_norm(sym_part(grad)), jac_delta_floor)
            if model.delta < floor:
                jmodel = StressModel(model.p, floor)
        A, g, radial = jmodel.jacobian_factors(grad)
        local = _sym_gradient_local(wd * g, gphys).reshape(nc, d * nloc, d * nloc)
        v = np.matmul(A, np.swapaxes(gphys, 2, 3)).reshape(nc, nq, d * nloc)
        local += np.matmul(np.swapaxes((wd * radial)[:, :, None] * v, 1, 2), v)
    elif jacobian == "picard":
        t = tensor_norm(sym_part(grad))
        shift = np.maximum(model.delta + t, _shift_floor(t, jac_delta_floor))
        g = _safe_pow(shift, model.p - 2.0)
        local = _sym_gradient_local(wd * g, gphys).reshape(nc, d * nloc, d * nloc)
    else:
        raise ValueError(f"unknown jacobian mode {jacobian!r}")
    return None, local


def assemble_convection(v_space, transport_coeffs, degree=None):
    """Skew-symmetrized convection for a frozen transport field.

    Returns element matrices in the layout of ``assemble_stress``: the
    same scalar skew block for every component, zero coupling between
    components.
    """
    if degree is None:
        degree = 3 * v_space.element.degree
    _, phi, gphys, _ = v_space.tabulation(degree)
    nc, nq, nloc, d = gphys.shape
    wu = v_space.cell_weights(degree)[:, :, None] * v_space.eval_at_qp(
        transport_coeffs, degree)
    # transport[c, b, q] = wd (u . grad phi_b) at point q, summed
    # elementwise over the components of the gradient rows
    rows = v_space.grad_rows(degree).reshape(nc, nloc, nq, d)
    transport = sum(rows[..., i] * wu[:, None, :, i] for i in range(d))
    # Ct[c, b, a] = C[c, a, b] = sum_q transport[c, b, q] phi_a
    Ct = (transport.reshape(nc * nloc, nq) @ phi).reshape(nc, nloc, nloc)
    local = np.zeros((nc, d, nloc, d, nloc))
    for i in range(d):
        local[:, i, :, i, :] = 0.5 * (np.swapaxes(Ct, 1, 2) - Ct)
    return local.reshape(nc, d * nloc, d * nloc)


class SaddleSystem:
    """Pinned velocity/pressure KKT matrix on a pattern built and ordered once.

    The matrix is [A -B^T; B 0] on (u, q).  The CSC pattern holds the A
    block's entries from every source in ``entries`` (a sequence of
    (rows, cols) index arrays) outside the Dirichlet rows and columns, a
    unit diagonal on the Dirichlet dofs and on pressure dof ``PINNED``,
    and the free columns of B and -B^T outside that dof's row and
    column.  Unknown i is stored at position ``perm[i]``, a
    minimum-degree order of the pattern, so ``csc(data)`` is the
    symmetrically permuted matrix; ``rhs``, ``split`` and the solvers
    from ``factor`` use the original numbering.  A matrix on the pattern
    is its ``data`` array: ``base`` holds the fixed blocks,
    ``scatter(k, values)`` adds values given in the order of entries[k],
    and ``factor(data)`` factors it.  ``factorizations`` counts the
    ``splu`` calls of the solvers ``factor`` returned.
    """

    def __init__(self, entries, B, w, bdofs):
        B = sparse.coo_matrix(B)
        self.nq, self.nu = B.shape
        n = self.nu + self.nq
        self.shape = (n, n)
        self.w = np.asarray(w, dtype=float)
        self.bdofs = np.asarray(bdofs, dtype=np.int64)
        self.factorizations = 0
        free = np.ones(self.nu, dtype=bool)
        free[self.bdofs] = False

        rows, cols, keeps = [], [], []
        for r, c in entries:
            r = np.ravel(r)
            c = np.ravel(c)
            keep = free[r] & free[c]
            rows.append(r[keep])
            cols.append(c[keep])
            keeps.append(keep)
        inB = free[B.col] & (B.row != PINNED) & (B.data != 0.0)
        bq, bu, bval = B.row[inB] + self.nu, B.col[inB], B.data[inB]
        unit = np.append(self.bdofs, self.nu + PINNED)
        rows = np.concatenate(rows + [unit, bu, bq])
        cols = np.concatenate(cols + [unit, bq, bu])
        fixed_vals = np.concatenate([np.ones(len(unit)), -bval, bval])

        self.perm = _minimum_degree_order(rows, cols, n)
        keys = self.perm[cols].astype(np.int64) * n + self.perm[rows]
        uniq, pos = np.unique(keys, return_inverse=True)
        self.nnz = len(uniq)
        self.indices = (uniq % n).astype(np.int32)
        self.indptr = np.searchsorted(uniq // n, np.arange(n + 1)).astype(np.int32)
        # entries in Dirichlet rows or columns go to a trailing dump slot
        self._maps = []
        start = 0
        for keep in keeps:
            stop = start + np.count_nonzero(keep)
            m = np.full(len(keep), self.nnz)
            m[keep] = pos[start:stop]
            self._maps.append(m)
            start = stop
        self.base = np.bincount(pos[start:], weights=fixed_vals, minlength=self.nnz)

    def scatter(self, k, values):
        """Data array of the values of source k, summed into the pattern."""
        out = np.bincount(self._maps[k], weights=np.ravel(values),
                          minlength=self.nnz + 1)
        return out[:-1]

    def csc(self, data):
        return sparse.csc_matrix((data, self.indices, self.indptr), shape=self.shape)

    def factor(self, data):
        """Factor the matrix with the given data; returns a solver.

        The solver maps a rhs to the solution x, as often as it is
        called.  The pinned pressure's rhs entry is taken as 0, and the
        pressure of the solution is shifted to zero mean (w @ q = 0).
        The first LU keeps the pattern's order and pivots on the
        diagonal.  When a solution is not finite or its relative
        residual against this matrix exceeds ``RESIDUAL_TOL``, the
        matrix is refactored with COLAMD and partial pivoting, with a
        WARNING on the ``pfluid.assembly`` logger, and that LU serves
        the later calls.  Raises LinearSolveError when a solve with it
        fails the check too.
        """
        return _SaddleSolver(self, self.csc(data))

    def rhs(self, rhs_u, rhs_q):
        f = np.array(rhs_u, dtype=float)
        f[self.bdofs] = 0.0
        return np.concatenate([f, rhs_q])

    def split(self, x):
        return x[: self.nu], x[self.nu :]


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
    """LU of one matrix of a ``SaddleSystem``, checked on every solve."""

    def __init__(self, system, K):
        self.system = system
        self.K = K
        self.partial = False
        self.lu = self._factor(permc_spec="NATURAL", diag_pivot_thresh=0.0)

    def _factor(self, **options):
        self.system.factorizations += 1
        try:
            return splu(self.K, **options)
        except RuntimeError:  # SuperLU signals a singular factor this way
            return None

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
        b = np.empty(kkt.shape[0])
        b[kkt.perm] = rhs
        b[kkt.perm[kkt.nu + PINNED]] = 0.0
        y, rel = self._solve(b)
        if not rel <= RESIDUAL_TOL and not self.partial:
            log.warning("static-pivot LU rejected (relative residual %.3g); "
                        "refactoring with partial pivoting", rel)
            self.lu = self._factor(permc_spec="COLAMD", diag_pivot_thresh=1.0)
            self.partial = True
            y, rel = self._solve(b)
        if not rel <= RESIDUAL_TOL:
            raise LinearSolveError(f"sparse LU failed (relative residual {rel:.3g})")
        x = y[kkt.perm]
        q = x[kkt.nu :]
        q -= (kkt.w @ q) / kkt.w.sum()
        return x
