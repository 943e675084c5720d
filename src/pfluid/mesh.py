"""Simplicial triangulations of polygonal domains.

The solver consumes conforming simplicial meshes, primarily the
criss-cross triangulation of the unit square (each of n x n subsquares
split into four triangles by its center).  Cells are stored with
positive orientation; all derived arrays are computed vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
import io

import numpy as np


class MeshFormatError(ValueError):
    """Malformed ASCII mesh input."""


@dataclass
class MeshQuality:
    h_max: float
    h_min: float
    gamma: float  # max over cells of diameter / inscribed-ball diameter


@dataclass
class Mesh:
    """Conforming simplicial mesh.

    Attributes
    ----------
    vertices : ndarray, shape (n_vertices, 2)
    cells : ndarray, shape (n_cells, 3)
        Vertex indices, positively oriented.
    boundary_facets : ndarray, shape (n_bfacets, 2)
        Edges on the domain boundary.
    boundary_markers : ndarray, shape (n_bfacets,)
        Integer marker per boundary facet (1 = Dirichlet wall).
    level : int
        Refinement generation, 0 for an initial mesh.

    Meshes are treated as immutable; the arrays are marked read-only.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray
    boundary_markers: np.ndarray
    level: int = 0
    _edges: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.cells = np.ascontiguousarray(self.cells, dtype=np.int64)
        self.boundary_facets = np.ascontiguousarray(self.boundary_facets, dtype=np.int64)
        self.boundary_markers = np.ascontiguousarray(self.boundary_markers, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must have shape (n, 3)")
        if self.cells.size and self.cells.max() >= len(self.vertices):
            raise ValueError("cell references a missing vertex")
        if np.any(self.cell_volumes() <= 0.0):
            raise ValueError("cells must be positively oriented and nondegenerate")
        for arr in (self.vertices, self.cells, self.boundary_facets, self.boundary_markers):
            arr.setflags(write=False)

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    def cell_volumes(self):
        """Signed cell areas."""
        X = self.vertices[self.cells]
        E = X[:, 1:, :] - X[:, :1, :]
        det = E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] * E[:, 1, 0]
        return 0.5 * det

    def edges(self):
        """Unique vertex pairs over all cells, sorted rows, sorted order."""
        if self._edges is None:
            pairs = []
            for a, b in combinations(range(self.dim + 1), 2):
                pairs.append(self.cells[:, [a, b]])
            E = np.sort(np.vstack(pairs), axis=1)
            E = np.unique(E, axis=0)
            object.__setattr__(self, "_edges", E)
        return self._edges

    def facets(self):
        """All cell facets as sorted index tuples, with multiplicity."""
        d = self.dim
        idx = list(range(d + 1))
        blocks = []
        for drop in idx:
            keep = [i for i in idx if i != drop]
            blocks.append(self.cells[:, keep])
        F = np.sort(np.vstack(blocks), axis=1)
        return F

    def quality(self) -> MeshQuality:
        """Diameters and shape regularity constant."""
        X = self.vertices[self.cells]
        d = self.dim
        hs = np.zeros(self.n_cells)
        for a, b in combinations(range(d + 1), 2):
            hs = np.maximum(hs, np.linalg.norm(X[:, a] - X[:, b], axis=1))
        vols = self.cell_volumes()
        # inscribed ball radius r = d * vol / (sum of facet measures)
        surf = np.zeros(self.n_cells)
        idx = list(range(d + 1))
        for drop in idx:
            keep = [i for i in idx if i != drop]
            surf += np.linalg.norm(X[:, keep[0]] - X[:, keep[1]], axis=1)
        rho = 2.0 * d * vols / surf
        return MeshQuality(
            h_max=float(hs.max()), h_min=float(hs.min()), gamma=float((hs / rho).max())
        )

    def locate_cell(self, x):
        """Index of a cell containing point x, or -1.

        Linear scan via barycentric coordinates; adequate for the
        verification probes that use it.
        """
        x = np.asarray(x, dtype=float)
        X = self.vertices[self.cells]
        T = np.swapaxes(X[:, 1:, :] - X[:, :1, :], 1, 2)
        rhs = x[None, :] - X[:, 0, :]
        lam = np.linalg.solve(T, rhs[..., None])[..., 0]
        lam0 = 1.0 - lam.sum(axis=1)
        ok = (lam.min(axis=1) >= -1e-12) & (lam0 >= -1e-12)
        hits = np.nonzero(ok)[0]
        return int(hits[0]) if len(hits) else -1


def unit_square_mesh(n) -> Mesh:
    """Criss-cross triangulation of [0,1]^2 with n x n subsquares.

    Each subsquare is split into four triangles through its center,
    giving (n+1)^2 + n^2 vertices and 4 n^2 cells.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    n = int(n)
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="xy")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    cx = (np.arange(n) + 0.5) / n
    ccx, ccy = np.meshgrid(cx, cx, indexing="xy")
    centers = np.column_stack([ccx.ravel(), ccy.ravel()])
    vertices = np.vstack([grid, centers])

    def g(i, j):
        return j * (n + 1) + i

    def c(i, j):
        return (n + 1) * (n + 1) + j * n + i

    cells = []
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()
    v00 = g(ii, jj)
    v10 = g(ii + 1, jj)
    v11 = g(ii + 1, jj + 1)
    v01 = g(ii, jj + 1)
    cc = c(ii, jj)
    cells = np.vstack(
        [
            np.column_stack([v00, v10, cc]),
            np.column_stack([v10, v11, cc]),
            np.column_stack([v11, v01, cc]),
            np.column_stack([v01, v00, cc]),
        ]
    )

    sides = []
    r = np.arange(n)
    sides.append(np.column_stack([g(r, 0), g(r + 1, 0)]))
    sides.append(np.column_stack([g(n, r), g(n, r + 1)]))
    sides.append(np.column_stack([g(r + 1, n), g(r, n)]))
    sides.append(np.column_stack([g(0, r + 1), g(0, r)]))
    bf = np.vstack(sides)
    markers = np.ones(len(bf), dtype=np.int64)
    return Mesh(vertices, cells, bf, markers, level=0)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Red refinement: every triangle split into four via edge midpoints."""
    E = mesh.edges()
    nv = mesh.n_vertices
    mid = 0.5 * (mesh.vertices[E[:, 0]] + mesh.vertices[E[:, 1]])
    vertices = np.vstack([mesh.vertices, mid])

    # edge (a,b) with a<b -> midpoint vertex index
    key = E[:, 0] * nv + E[:, 1]
    order = np.argsort(key)
    skey = key[order]

    def midpoint_of(a, b):
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        k = lo * nv + hi
        pos = np.searchsorted(skey, k)
        return nv + order[pos]

    a, b, c = mesh.cells[:, 0], mesh.cells[:, 1], mesh.cells[:, 2]
    mab = midpoint_of(a, b)
    mbc = midpoint_of(b, c)
    mca = midpoint_of(c, a)
    cells = np.vstack(
        [
            np.column_stack([a, mab, mca]),
            np.column_stack([b, mbc, mab]),
            np.column_stack([c, mca, mbc]),
            np.column_stack([mab, mbc, mca]),
        ]
    )

    bf = mesh.boundary_facets
    mbf = midpoint_of(bf[:, 0], bf[:, 1])
    new_bf = np.vstack(
        [np.column_stack([bf[:, 0], mbf]), np.column_stack([mbf, bf[:, 1]])]
    )
    new_markers = np.concatenate([mesh.boundary_markers, mesh.boundary_markers])
    return Mesh(vertices, cells, new_bf, new_markers, level=mesh.level + 1)


def check_conformity(mesh: Mesh):
    """Verify the mesh is a conforming partition.

    Every facet must be shared by exactly two cells or appear once and
    be listed among the boundary facets; cells must be positively
    oriented (enforced at construction) and vertices distinct.

    Raises ValueError on the first violation; returns None on success.
    """
    F = mesh.facets()
    uniq, counts = np.unique(F, axis=0, return_counts=True)
    if np.any(counts > 2):
        raise ValueError("facet shared by more than two cells")
    once = uniq[counts == 1]
    declared = np.unique(np.sort(mesh.boundary_facets, axis=1), axis=0)
    if len(once) != len(declared) or not np.array_equal(once, declared):
        raise ValueError(
            "single-incidence facets do not match the declared boundary "
            "(hanging node or missing boundary facet)"
        )
    V = mesh.vertices
    uv = np.unique(np.round(V, 12), axis=0)
    if len(uv) != len(V):
        raise ValueError("duplicate vertices")


def quality_report(meshes) -> str:
    """CSV report of per-level quality metrics."""
    lines = ["level,h_max,h_min,gamma"]
    for m in meshes:
        q = m.quality()
        lines.append(f"{m.level},{q.h_max:.12g},{q.h_min:.12g},{q.gamma:.12g}")
    return "\n".join(lines) + "\n"


def read_mesh_text(text) -> Mesh:
    """Parse the plain ASCII mesh format.

    Layout: one header line ``2 n_vertices n_cells``, then n_vertices
    coordinate lines, then n_cells lines of 1-based vertex indices.
    Boundary facets are derived as the facets with single incidence and
    marked 1.
    """
    stream = io.StringIO(text)
    tokens = stream.read().split()
    if len(tokens) < 3:
        raise MeshFormatError("missing header")
    try:
        d, nv, nc = (int(t) for t in tokens[:3])
    except ValueError as exc:
        raise MeshFormatError(f"bad header: {exc}") from None
    if d != 2:
        raise MeshFormatError(f"dimension must be 2, got {d}")
    need = 3 + nv * d + nc * (d + 1)
    if len(tokens) != need:
        raise MeshFormatError(
            f"expected {need} whitespace-separated values, got {len(tokens)}"
        )
    try:
        coords = np.array([float(t) for t in tokens[3 : 3 + nv * d]]).reshape(nv, d)
        conn = np.array(
            [int(t) for t in tokens[3 + nv * d :]], dtype=np.int64
        ).reshape(nc, d + 1)
    except ValueError as exc:
        raise MeshFormatError(f"bad value: {exc}") from None
    if conn.min() < 1 or conn.max() > nv:
        raise MeshFormatError("vertex index out of range (1-based expected)")
    conn = conn - 1

    # orient positively by swapping the last two vertices where needed
    X = coords[conn]
    E = X[:, 1:, :] - X[:, :1, :]
    det = E[:, 0, 0] * E[:, 1, 1] - E[:, 0, 1] * E[:, 1, 0]
    flip = det < 0.0
    conn[flip] = conn[flip][:, [0, 2, 1]]

    idx = list(range(d + 1))
    blocks = []
    for drop in idx:
        keep = [i for i in idx if i != drop]
        blocks.append(conn[:, keep])
    F = np.sort(np.vstack(blocks), axis=1)
    uniq, counts = np.unique(F, axis=0, return_counts=True)
    bf = uniq[counts == 1]
    mesh = Mesh(coords, conn, bf, np.ones(len(bf), dtype=np.int64), level=0)
    check_conformity(mesh)
    return mesh
