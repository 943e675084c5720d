import numpy as np
import pytest

from pfluid.mesh import (
    Mesh, MeshFormatError, check_conformity, quality_report, read_mesh_text,
    refine_uniform, unit_square_mesh,
)


def test_unit_square_counts():
    for n in (1, 3, 4):
        mesh = unit_square_mesh(n)
        assert mesh.n_vertices == (n + 1) ** 2 + n**2
        assert mesh.n_cells == 4 * n**2
        assert len(mesh.boundary_facets) == 4 * n
        assert np.all(mesh.boundary_markers == 1)


def test_unit_square_volumes():
    mesh = unit_square_mesh(4)
    vols = mesh.cell_volumes()
    assert np.all(vols > 0.0)
    assert abs(vols.sum() - 1.0) < 1e-14
    # four equal triangles per subsquare
    assert np.allclose(vols, 1.0 / (4 * 16), atol=1e-14)


def test_unit_square_quality():
    mesh = unit_square_mesh(8)
    q = mesh.quality()
    assert abs(q.h_max - 1.0 / 8.0) < 1e-14
    assert abs(q.h_min - 1.0 / 8.0) < 1e-14
    assert abs(q.gamma - (1.0 + np.sqrt(2.0))) < 1e-12


def test_equilateral_gamma():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    cells = np.array([[0, 1, 2]])
    bf = np.array([[0, 1], [1, 2], [2, 0]])
    mesh = Mesh(verts, cells, bf, np.ones(3, dtype=np.int64))
    assert abs(mesh.quality().gamma - np.sqrt(3.0)) < 1e-12


def test_negative_orientation_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 2, 1]])  # clockwise
    bf = np.array([[0, 1], [1, 2], [2, 0]])
    with pytest.raises(ValueError):
        Mesh(verts, cells, bf, np.ones(3, dtype=np.int64))


def test_edges_unique_sorted():
    mesh = unit_square_mesh(2)
    E = mesh.edges()
    assert np.all(E[:, 0] < E[:, 1])
    assert len(np.unique(E, axis=0)) == len(E)
    # Euler: V - E + C = 1 for a disk
    assert mesh.n_vertices - len(E) + mesh.n_cells == 1


def test_conformity_of_generated_meshes():
    mesh = unit_square_mesh(3)
    check_conformity(mesh)
    check_conformity(refine_uniform(mesh))


def test_conformity_detects_hanging_node():
    # node 3 sits on the long edge (0,1) of the big triangle
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 0.0], [2.0, 2.0]])
    cells = np.array([[0, 1, 2], [3, 1, 4]])
    declared = np.array([[1, 2], [0, 2], [1, 4], [3, 4]])
    mesh = Mesh(verts, cells, declared, np.ones(4, dtype=np.int64))
    with pytest.raises(ValueError, match="hanging node|declared boundary"):
        check_conformity(mesh)


def test_refine_uniform():
    mesh = unit_square_mesh(2)
    fine = refine_uniform(mesh)
    assert fine.n_cells == 4 * mesh.n_cells
    assert fine.level == mesh.level + 1
    assert abs(fine.cell_volumes().sum() - 1.0) < 1e-14
    q0, q1 = mesh.quality(), fine.quality()
    assert abs(q1.h_max - q0.h_max / 2.0) < 1e-14
    assert abs(q1.gamma - q0.gamma) < 1e-12
    assert len(fine.boundary_facets) == 2 * len(mesh.boundary_facets)


def test_locate_cell():
    mesh = unit_square_mesh(4)
    idx = mesh.locate_cell(np.array([0.13, 0.52]))
    assert idx >= 0
    tri = mesh.vertices[mesh.cells[idx]]
    # barycentric coordinates of the point in the located cell
    T = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
    lam = np.linalg.solve(T, np.array([0.13, 0.52]) - tri[0])
    assert lam.min() >= -1e-12 and lam.sum() <= 1.0 + 1e-12
    assert mesh.locate_cell(np.array([1.5, 0.5])) == -1


def test_quality_report_format():
    meshes = [unit_square_mesh(2)]
    meshes.append(refine_uniform(meshes[0]))
    text = quality_report(meshes)
    lines = text.strip().split("\n")
    assert lines[0] == "level,h_max,h_min,gamma"
    assert len(lines) == 3
    level, h_max, _, gamma = lines[1].split(",")
    assert level == "0" and float(h_max) == 0.5
    assert abs(float(gamma) - (1.0 + np.sqrt(2.0))) < 1e-10


MESH_TEXT = """2 4 2
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
1 2 3
1 3 4
"""


def test_read_mesh_text_round_trip():
    mesh = read_mesh_text(MESH_TEXT)
    assert mesh.n_vertices == 4
    assert mesh.n_cells == 2
    assert abs(mesh.cell_volumes().sum() - 1.0) < 1e-14
    assert len(mesh.boundary_facets) == 4  # diagonal is interior


def test_read_mesh_text_reorients():
    flipped = MESH_TEXT.replace("1 2 3", "1 3 2")
    mesh = read_mesh_text(flipped)
    assert np.all(mesh.cell_volumes() > 0.0)


def test_read_mesh_text_errors():
    with pytest.raises(MeshFormatError):
        read_mesh_text("2 4")
    with pytest.raises(MeshFormatError):
        read_mesh_text(MESH_TEXT.replace("1 3 4", "1 3 9"))
    with pytest.raises(MeshFormatError):
        read_mesh_text(MESH_TEXT + "7\n")
    with pytest.raises(MeshFormatError):
        read_mesh_text(MESH_TEXT.replace("2 4 2", "4 4 2"))
    with pytest.raises(MeshFormatError, match="dimension"):
        # a well-formed single tetrahedron: the meshes are 2D only
        read_mesh_text("3 4 1\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 2 3 4\n")
