"""Simplicial triangulations of polygonal domains.

The solver consumes conforming simplicial meshes, primarily the
criss-cross triangulation of the unit square (each of n x n subsquares
split into four triangles by its center).  Cells are stored with
positive orientation; all derived arrays are computed vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np


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
        Edges on the domain boundary, all of them Dirichlet walls.

    Meshes are treated as immutable; the arrays are marked read-only.
    """

    vertices: np.ndarray
    cells: np.ndarray
    boundary_facets: np.ndarray
    _edges: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.cells = np.ascontiguousarray(self.cells, dtype=np.int64)
        self.boundary_facets = np.ascontiguousarray(self.boundary_facets, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must have shape (n, 3)")
        if self.cells.size and self.cells.max() >= len(self.vertices):
            raise ValueError("cell references a missing vertex")
        if np.any(self.cell_volumes() <= 0.0):
            raise ValueError("cells must be positively oriented and nondegenerate")
        for arr in (self.vertices, self.cells, self.boundary_facets):
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
    return Mesh(vertices, cells, np.vstack(sides))
