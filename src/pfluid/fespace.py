"""Conforming finite element spaces on triangulations.

Provides quadrature rules (conical product construction with
nonnegative weights), the velocity/pressure element zoo (P1, P2,
P1+bubble, P0), scalar and vector dof maps and nodal interpolation.
Everything is two-dimensional.

Scalar dofs are numbered vertices first, then edges, then cells; a
vector field with k components stores component i in the contiguous
slice [i*n_scalar, (i+1)*n_scalar).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np


# -- quadrature --------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle in barycentric coordinates.

    Weights sum to the reference area 1/2 so that the integral over a
    physical cell is |det J| * sum(w_q f(x_q)).
    """

    points: np.ndarray  # (nq, 3) barycentric
    weights: np.ndarray  # (nq,)
    degree: int


def _gauss_01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi_01(n, alpha):
    """Gauss nodes/weights for the weight (1-x)^alpha, alpha > 0, on [0,1].

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the Jacobi matrix of the Jacobi polynomials P^(alpha,0) on
    [-1,1], mapped to [0,1]; each weight is the squared first component
    of its eigenvector times int_0^1 (1-x)^alpha = 1/(alpha+1).
    """
    k = np.arange(n, dtype=float)
    c = 2.0 * k + alpha
    diag = -alpha**2 / (c * (c + 2.0))
    k, c = k[1:], c[1:]
    off = 2.0 * k * (k + alpha) / (c * np.sqrt(c * c - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x + 1.0), v[0] ** 2 / (alpha + 1.0)


def quadrature_for(degree) -> QuadratureRule:
    """Conical product rule on the triangle exact to the given total degree.

    Uses n = ceil((degree+1)/2) points per direction; all weights are
    positive by construction.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n = max(1, math.ceil((degree + 1) / 2))
    xi, wx = _gauss_01(n)
    eta, we = _jacobi_01(n, 1.0)
    X = np.outer(1.0 - eta, xi)  # x = xi (1 - eta), y = eta
    Y = np.broadcast_to(eta[:, None], X.shape)
    W = np.outer(we, wx)
    x, y, w = X.ravel(), Y.ravel(), W.ravel()
    pts = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(pts, w, 2 * n - 1)


# -- reference elements ------------------------------------------------

class Element:
    """Scalar reference element on the triangle.

    Subclasses define the basis through barycentric coordinates; both
    values and derivatives with respect to the barycentric tuple are
    tabulated, and physical gradients follow from the cell's grad(lambda).
    """

    name = ""
    degree = 1
    vertex_dofs = 0
    edge_dofs = 0
    cell_dofs = 0
    # local edges follow the opposite-vertex convention
    local_edges_2d = ((1, 2), (0, 2), (0, 1))

    def eval(self, lam):
        raise NotImplementedError

    def dlambda(self, lam):
        raise NotImplementedError


class P1(Element):
    name = "P1"
    degree = 1
    vertex_dofs = 1

    def eval(self, lam):
        return np.array(lam, dtype=float)

    def dlambda(self, lam):
        nq, nb = lam.shape
        return np.broadcast_to(np.eye(nb), (nq, nb, nb)).copy()


class P1Bubble(Element):
    """P1 enriched with the cubic cell bubble 27 l0 l1 l2."""

    name = "P1b"
    degree = 3
    vertex_dofs = 1
    cell_dofs = 1

    def eval(self, lam):
        lam = np.asarray(lam, dtype=float)
        bub = 27.0 * lam[:, 0] * lam[:, 1] * lam[:, 2]
        return np.column_stack([lam, bub])

    def dlambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        nq = lam.shape[0]
        out = np.zeros((nq, 4, 3))
        out[:, :3, :] = np.eye(3)
        out[:, 3, 0] = 27.0 * lam[:, 1] * lam[:, 2]
        out[:, 3, 1] = 27.0 * lam[:, 0] * lam[:, 2]
        out[:, 3, 2] = 27.0 * lam[:, 0] * lam[:, 1]
        return out


class P2(Element):
    name = "P2"
    degree = 2
    vertex_dofs = 1
    edge_dofs = 1

    def eval(self, lam):
        lam = np.asarray(lam, dtype=float)
        vtx = lam * (2.0 * lam - 1.0)
        edges = [4.0 * lam[:, a] * lam[:, b] for a, b in self.local_edges_2d]
        return np.column_stack([vtx] + edges)

    def dlambda(self, lam):
        lam = np.asarray(lam, dtype=float)
        nq = lam.shape[0]
        out = np.zeros((nq, 6, 3))
        for k in range(3):
            out[:, k, k] = 4.0 * lam[:, k] - 1.0
        for j, (a, b) in enumerate(self.local_edges_2d):
            out[:, 3 + j, a] = 4.0 * lam[:, b]
            out[:, 3 + j, b] = 4.0 * lam[:, a]
        return out


class P0(Element):
    name = "P0"
    degree = 0
    cell_dofs = 1

    def eval(self, lam):
        return np.ones((lam.shape[0], 1))

    def dlambda(self, lam):
        return np.zeros((lam.shape[0], 1, lam.shape[1]))


_ELEMENTS = {"P1": P1, "P2": P2, "P1b": P1Bubble, "P0": P0}


def element_by_name(name) -> Element:
    try:
        return _ELEMENTS[name]()
    except KeyError:
        raise ValueError(
            f"unknown element {name!r}; available: {sorted(_ELEMENTS)}"
        ) from None


def element_pair(name):
    """Velocity/pressure element names for an inf-sup stable pair."""
    pairs = {"MINI": ("P1b", "P1"), "TH": ("P2", "P1"), "P2P1": ("P2", "P1")}
    try:
        v, q = pairs[name]
    except KeyError:
        raise ValueError(
            f"unknown element pair {name!r}; available: {sorted(pairs)}"
        ) from None
    return element_by_name(v), element_by_name(q)


# -- spaces ------------------------------------------------------------

class FESpace:
    """Scalar or vector finite element space on a mesh.

    Parameters
    ----------
    mesh : Mesh
    element : Element or str
    n_components : int
        1 for scalars (pressure), mesh.dim for velocities.
    """

    def __init__(self, mesh, element, n_components=1):
        if isinstance(element, str):
            element = element_by_name(element)
        self.mesh = mesh
        self.element = element
        self.n_components = int(n_components)
        d = mesh.dim

        nv, nc = mesh.n_vertices, mesh.n_cells
        cols = []
        if element.vertex_dofs:
            cols.append(mesh.cells)
        offset = element.vertex_dofs * nv
        self._edge_offset = offset
        if element.edge_dofs:
            E = mesh.edges()
            keys = E[:, 0] * nv + E[:, 1]
            self._edge_order = np.argsort(keys)
            self._edge_keys = keys[self._edge_order]
            loc = []
            for a, b in element.local_edges_2d:
                va, vb = mesh.cells[:, a], mesh.cells[:, b]
                loc.append(offset + self._edge_index(va, vb))
            cols.append(np.column_stack(loc))
            offset += len(E)
        if element.cell_dofs:
            cols.append(offset + np.arange(nc)[:, None])
            offset += nc
        self.n_scalar = offset
        self.cell_dofs = np.hstack(cols)
        self.n_local = self.cell_dofs.shape[1]
        self.n_dofs = self.n_scalar * self.n_components

        X = mesh.vertices[mesh.cells]
        Tm = np.swapaxes(X[:, 1:, :] - X[:, :1, :], 1, 2)  # columns are edges
        self.detJ = np.abs(np.linalg.det(Tm))
        invT = np.linalg.inv(Tm)
        gl = np.empty((nc, d + 1, d))
        gl[:, 1:, :] = invT  # row i of inv(Tm) is grad(lambda_i)
        gl[:, 0, :] = -invT.sum(axis=1)
        self.grad_lambda = gl
        self._cell_x0 = X[:, 0, :]
        self._cell_X = X
        self._tab = {}
        self._wdet = {}
        self._vector_dofs = None

    # edge lookup through the sorted-key table built at init
    def _edge_index(self, va, vb):
        nv = self.mesh.n_vertices
        lo = np.minimum(va, vb)
        hi = np.maximum(va, vb)
        pos = np.searchsorted(self._edge_keys, lo * nv + hi)
        return self._edge_order[pos]

    def tabulation(self, degree):
        """Cached (rule, basis, physical gradients, quadrature coords).

        The physical gradients are returned as an (nc, nq, n_local, d)
        view of one C-contiguous (nc, n_local, d, nq) array, the layout
        the field and stress kernels multiply with (``grad_rows``).
        """
        if degree not in self._tab:
            rule = quadrature_for(degree)
            phi = self.element.eval(rule.points)
            dlam = self.element.dlambda(rule.points)  # (nq, n_local, d+1)
            # rows[c, b, l, q] = sum_k dlam[q, b, k] grad_lambda[c, k, l],
            # written in its final layout with no transposing copy
            rows = np.einsum("qbk,ckl->cblq", dlam, self.grad_lambda, order="C")
            gphys = rows.transpose(0, 3, 1, 2)
            xq = np.einsum("qk,ckl->cql", rule.points, self._cell_X)
            self._tab[degree] = (rule, phi, gphys, xq)
        return self._tab[degree]

    def grad_rows(self, degree):
        """Physical gradients as (nc, n_local, d*nq), entry [c, b, l*nq + q]
        the derivative d_l of basis function b at point q; no copy is
        made."""
        gphys = self.tabulation(degree)[2]
        nc, nq, nloc, d = gphys.shape
        return gphys.transpose(0, 2, 3, 1).reshape(nc, nloc, d * nq, copy=False)

    def cell_weights(self, degree):
        """Cached (nc, nq) quadrature weights |det J| w_q of each cell."""
        if degree not in self._wdet:
            rule = self.tabulation(degree)[0]
            wd = self.detJ[:, None] * rule.weights[None, :]
            wd.flags.writeable = False
            self._wdet[degree] = wd
        return self._wdet[degree]

    def boundary_scalar_dofs(self):
        mesh = self.mesh
        dofs = []
        if self.element.vertex_dofs:
            dofs.append(np.unique(mesh.boundary_facets))
        if self.element.edge_dofs:
            bf = mesh.boundary_facets
            dofs.append(self._edge_offset + self._edge_index(bf[:, 0], bf[:, 1]))
        if not dofs:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate(dofs))

    def boundary_dofs(self):
        s = self.boundary_scalar_dofs()
        return np.concatenate(
            [s + i * self.n_scalar for i in range(self.n_components)]
        )

    def local_vector_dofs(self):
        """(nc, ncomp * n_local) global dofs, component-major (cached)."""
        if self._vector_dofs is None:
            self._vector_dofs = np.concatenate(
                [self.cell_dofs + i * self.n_scalar for i in range(self.n_components)],
                axis=1,
            )
            self._vector_dofs.flags.writeable = False
        return self._vector_dofs

    # -- field evaluation at quadrature points -------------------------

    def coeffs_by_component(self, coeffs):
        return np.asarray(coeffs, dtype=float).reshape(self.n_components, self.n_scalar)

    def eval_at_qp(self, coeffs, degree):
        """Values at the quadrature points, C-contiguous (nc, nq, ncomp).

        One matmul of the basis table (nq, n_local) with the local
        coefficients, cell by cell.
        """
        _, phi, _, _ = self.tabulation(degree)
        U = self.coeffs_by_component(coeffs)
        return np.matmul(phi, U.T[self.cell_dofs])

    def _grad_planes(self, coeffs, degree):
        """Gradients at the quadrature points as (nc, ncomp, d, nq): one
        batched matmul of the local coefficients (nc, ncomp, n_local) with
        the gradient rows (nc, n_local, d*nq)."""
        G = self.grad_rows(degree)
        U = self.coeffs_by_component(coeffs)
        Uloc = np.swapaxes(U[:, self.cell_dofs], 0, 1)  # (nc, ncomp, nloc)
        return np.matmul(Uloc, G).reshape(len(G), self.n_components, self.mesh.dim, -1)

    def grad_at_qp(self, coeffs, degree):
        """Gradients at the quadrature points, C-contiguous (nc, nq, ncomp, d).

        The batched matmul of ``_grad_planes``, then one transposing copy.
        """
        return np.ascontiguousarray(self._grad_planes(coeffs, degree).transpose(0, 3, 1, 2))

    def sym_grad_at_qp(self, coeffs, degree):
        """Symmetric gradient of a two-component field at the quadrature
        points as its three components (a, b, c), sym Du = [[a, c], [c, b]],
        each of shape (nc, nq).

        a and b are views of the batched matmul of ``_grad_planes``; no
        2 x 2 tensor is formed.
        """
        if self.n_components != 2:
            raise ValueError("symmetric gradients need a two-component field")
        g = self._grad_planes(coeffs, degree)
        return g[:, 0, 0], g[:, 1, 1], 0.5 * (g[:, 0, 1] + g[:, 1, 0])

    def integrate(self, values, degree):
        """Integral over the mesh of per-point values (nc, nq, ...)."""
        rule, _, _, _ = self.tabulation(degree)
        red = np.einsum("q,cq...->c...", rule.weights, np.asarray(values))
        return np.einsum("c,c...->...", self.detJ, red)


@dataclass
class DiscreteField:
    """Coefficient vector bound to its space."""

    space: FESpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.n_dofs,):
            raise ValueError(
                f"expected {self.space.n_dofs} coefficients, got {self.coeffs.shape}"
            )

    def _bary(self, cell, x):
        sp = self.space
        T = sp._cell_X[cell, 1:, :] - sp._cell_X[cell, 0, :]
        lam12 = np.linalg.solve(T.T, x - sp._cell_x0[cell])
        return np.concatenate([[1.0 - lam12.sum()], lam12])

    def evaluate(self, x, cell=None):
        """Point value; scalar for 1 component, else (ncomp,)."""
        sp = self.space
        if cell is None:
            cell = sp.mesh.locate_cell(x)
            if cell < 0:
                raise ValueError(f"point {x} outside mesh")
        lam = self._bary(cell, np.asarray(x, dtype=float))
        phi = sp.element.eval(lam[None, :])[0]
        U = sp.coeffs_by_component(self.coeffs)
        vals = U[:, sp.cell_dofs[cell]] @ phi
        return float(vals[0]) if sp.n_components == 1 else vals

    def evaluate_gradient(self, x, cell=None):
        sp = self.space
        if cell is None:
            cell = sp.mesh.locate_cell(x)
            if cell < 0:
                raise ValueError(f"point {x} outside mesh")
        lam = self._bary(cell, np.asarray(x, dtype=float))
        dlam = sp.element.dlambda(lam[None, :])[0]
        g = dlam @ sp.grad_lambda[cell]
        U = sp.coeffs_by_component(self.coeffs)
        grads = np.einsum("ib,bl->il", U[:, sp.cell_dofs[cell]], g)
        return grads[0] if sp.n_components == 1 else grads

    def l2_norm(self, degree=5):
        vals = self.space.eval_at_qp(self.coeffs, degree)
        return float(np.sqrt(self.space.integrate(np.sum(vals * vals, axis=-1), degree)))


def _as_components(space, raw):
    out = np.asarray(raw, dtype=float)
    if space.n_components == 1:
        if out.ndim and out.shape[-1] == 1:
            out = out[..., 0]
        return out[..., None]
    return out


def interpolate(space: FESpace, f) -> DiscreteField:
    """Nodal interpolation; the bubble coefficient matches cell averages.

    ``f`` maps point arrays (..., d) to (..., n_components) values
    (scalar shape (...) accepted for one component).
    """
    mesh = space.mesh
    el = space.element
    U = np.zeros((space.n_components, space.n_scalar))
    if el.vertex_dofs:
        vals = _as_components(space, f(mesh.vertices))
        U[:, : mesh.n_vertices] = vals.T
    if el.edge_dofs:
        E = mesh.edges()
        midpts = 0.5 * (mesh.vertices[E[:, 0]] + mesh.vertices[E[:, 1]])
        vals = _as_components(space, f(midpts))
        U[:, space._edge_offset : space._edge_offset + len(E)] = vals.T
    if el.cell_dofs:
        rule, phi, _, xq = space.tabulation(max(2, el.degree + 2))
        fvals = _as_components(space, f(xq.reshape(-1, mesh.dim))).reshape(
            mesh.n_cells, len(rule.weights), space.n_components
        )
        ref_vol = rule.weights.sum()
        favg = np.einsum("q,cqi->ci", rule.weights, fvals) / ref_vol
        if el.name == "P0":
            U[:, -mesh.n_cells :] = favg.T
        elif el.name == "P1b":
            lin = np.einsum("qb,icb->cqi", phi[:, :3], U[:, mesh.cells])
            lavg = np.einsum("q,cqi->ci", rule.weights, lin) / ref_vol
            # cell average of the bubble is 9/20
            U[:, -mesh.n_cells :] = ((favg - lavg) / (27.0 / 60.0)).T
        else:
            raise NotImplementedError(el.name)
    return DiscreteField(space, U.ravel())
