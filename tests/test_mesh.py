import json

import numpy as np
import pytest

from pfluid.cli import main
from pfluid.mesh import Mesh, unit_square_mesh


def test_unit_square_counts():
    for n in (1, 3, 4):
        mesh = unit_square_mesh(n)
        assert mesh.n_vertices == (n + 1) ** 2 + n**2
        assert mesh.n_cells == 4 * n**2
        assert len(mesh.boundary_facets) == 4 * n


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
    mesh = Mesh(verts, cells, bf)
    assert abs(mesh.quality().gamma - np.sqrt(3.0)) < 1e-12


def test_negative_orientation_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 2, 1]])  # clockwise
    bf = np.array([[0, 1], [1, 2], [2, 0]])
    with pytest.raises(ValueError):
        Mesh(verts, cells, bf)


def test_edges_unique_sorted():
    mesh = unit_square_mesh(2)
    E = mesh.edges()
    assert np.all(E[:, 0] < E[:, 1])
    assert len(np.unique(E, axis=0)) == len(E)
    # Euler: V - E + C = 1 for a disk
    assert mesh.n_vertices - len(E) + mesh.n_cells == 1


def test_quality_report_format(tmp_path):
    # the study writes one mesh_quality.csv row per level from Mesh.quality()
    doc = {"command": "study", "model": {"p": 2.0, "delta": 1.0},
           "discretization": {"T": 0.1, "levels": [2, 4], "sigma": 0.5}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "study"
    assert main(["--config", str(config), "--output", str(out)]) == 0
    lines = (out / "mesh_quality.csv").read_text().strip().split("\n")
    assert lines[0] == "level,h_max,h_min,gamma"
    assert len(lines) == 3
    level, h_max, _, gamma = lines[1].split(",")
    assert level == "2" and float(h_max) == 0.5
    assert abs(float(gamma) - (1.0 + np.sqrt(2.0))) < 1e-10
    level, h_max, _, gamma = lines[2].split(",")
    assert level == "4" and float(h_max) == 0.25
    assert abs(float(gamma) - (1.0 + np.sqrt(2.0))) < 1e-10


def test_conformity_of_generated_meshes():
    # every facet lies on two cells, or on one cell and the declared
    # boundary: no hanging node and no missing boundary facet
    mesh = unit_square_mesh(3)
    c = mesh.cells
    facets = np.sort(np.vstack([c[:, [1, 2]], c[:, [0, 2]], c[:, [0, 1]]]), axis=1)
    uniq, counts = np.unique(facets, axis=0, return_counts=True)
    assert counts.max() == 2
    declared = np.unique(np.sort(mesh.boundary_facets, axis=1), axis=0)
    np.testing.assert_array_equal(uniq[counts == 1], declared)
    assert len(np.unique(mesh.vertices, axis=0)) == mesh.n_vertices
