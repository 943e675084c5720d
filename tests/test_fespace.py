import math

import numpy as np
import pytest

from pfluid import assembly
from pfluid.fespace import (
    FESpace, element_by_name, element_pair, interpolate, quadrature_for,
)
from pfluid.mesh import unit_square_mesh
from pfluid.pstructure import StressModel
from pfluid.stepper import StepperContext, div_preserving_projection
from pfluid.verification import inf_sup_constant


def reference_monomial_integral(a, b):
    # int over the unit reference triangle of x^a y^b
    return (
        math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    )


@pytest.mark.parametrize("degree,npts", [(1, 1), (3, 4), (5, 9), (7, 16)])
def test_quadrature_counts_and_weight_sum(degree, npts):
    rule = quadrature_for(degree)
    assert len(rule.weights) == npts
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    assert np.all(rule.weights > 0.0)


@pytest.mark.parametrize("degree", range(1, 10))
def test_quadrature_exact_on_monomials(degree):
    rule = quadrature_for(degree)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.sum(rule.weights * x**a * y**b)
            assert abs(val - reference_monomial_integral(a, b)) < 1e-14


def test_gauss_rules_match_scipy_special():
    """numpy's Gauss-Legendre and the Golub-Welsch Gauss-Jacobi rules
    agree with scipy.special to 1e-14."""
    special = pytest.importorskip("scipy.special")
    from pfluid.fespace import _gauss_01, _jacobi_01

    for n in range(1, 13):
        x, w = special.roots_legendre(n)
        X, W = _gauss_01(n)
        assert np.abs(X - 0.5 * (x + 1.0)).max() < 1e-14
        assert np.abs(W - 0.5 * w).max() < 1e-14
        for alpha in (1.0, 2.0):
            x, w = special.roots_jacobi(n, alpha, 0.0)
            X, W = _jacobi_01(n, alpha)
            assert np.abs(X - 0.5 * (x + 1.0)).max() < 1e-14
            assert np.abs(W - w / 2.0 ** (alpha + 1)).max() < 1e-14
    x, w = special.roots_legendre(64)
    X, W = np.polynomial.legendre.leggauss(64)
    assert np.abs(X - x).max() < 1e-14 and np.abs(W - w).max() < 1e-14


def test_quadrature_hand_values():
    rule = quadrature_for(5)
    assert abs(np.sum(rule.points[:, 1] ** 2 * rule.points[:, 2] * rule.weights)
               - 1.0 / 60.0) < 1e-15
    rule7 = quadrature_for(7)
    assert abs(np.sum(rule7.points[:, 1] ** 7 * rule7.weights)
               - reference_monomial_integral(7, 0)) < 1e-16


def test_scalar_dof_counts_on_smallest_mesh():
    mesh = unit_square_mesh(1)  # 5 vertices, 8 edges, 4 cells
    assert FESpace(mesh, "P1").n_dofs == 5
    assert FESpace(mesh, "P1b").n_dofs == 9
    assert FESpace(mesh, "P2").n_dofs == 13
    assert FESpace(mesh, "P1b", n_components=2).n_dofs == 18


def test_element_pair_names():
    ev, eq = element_pair("MINI")
    assert (ev.name, eq.name) == ("P1b", "P1")
    ev, eq = element_pair("TH")
    assert (ev.name, eq.name) == ("P2", "P1")
    with pytest.raises(ValueError):
        element_pair("P4P3")


def test_basis_partition_of_unity():
    for name in ("P1", "P1b", "P2"):
        el = element_by_name(name)
        rule = quadrature_for(4)
        vals = el.eval(rule.points)
        if name == "P1b":
            vals = vals[:, :3]  # bubble is not part of the affine partition
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)


def test_interpolation_reproduces_polynomials():
    mesh = unit_square_mesh(3)

    def affine(X):
        return 2.0 + 3.0 * X[..., 0] - X[..., 1]

    def quadratic(X):
        return X[..., 0] ** 2 - 2.0 * X[..., 0] * X[..., 1] + 0.5

    for name, f in (("P1", affine), ("P1b", affine), ("P2", quadratic)):
        space = FESpace(mesh, name)
        xq = space.tabulation(5)[3]
        vals = space.eval_at_qp(interpolate(space, f), 5)[..., 0]
        assert np.max(np.abs(vals - f(xq))) < 1e-12


def test_interpolation_vector_components():
    mesh = unit_square_mesh(2)
    space = FESpace(mesh, "P1", n_components=2)

    def f(X):
        return np.stack([X[..., 0], -X[..., 1]], axis=-1)

    xq = space.tabulation(3)[3]
    vals = space.eval_at_qp(interpolate(space, f), 3)
    assert np.allclose(vals, f(xq), atol=1e-13)


def test_p2_gradient_evaluation():
    # u = (x^2 + y, x y): sym Du = [[2x, (1 + y)/2], [(1 + y)/2, x]]
    mesh = unit_square_mesh(2)
    space = FESpace(mesh, "P2", n_components=2)
    c = interpolate(space, lambda X: np.stack(
        [X[..., 0] ** 2 + X[..., 1], X[..., 0] * X[..., 1]], axis=-1))
    x, y = np.moveaxis(space.tabulation(3)[3], -1, 0)
    a, b, cc = (space.sym_grad_operator(3) @ c).reshape(3, *x.shape)
    assert np.allclose(a, 2.0 * x, atol=1e-12)
    assert np.allclose(b, x, atol=1e-12)
    assert np.allclose(cc, 0.5 * (1.0 + y), atol=1e-12)


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_grad_rows_is_a_view(pair):
    """The gradient rows share the tabulated gradients' memory, on any
    numpy: the reshape of the transposed view needs no copy."""
    space = FESpace(unit_square_mesh(3), element_pair(pair)[0], n_components=2)
    for degree in (1, 5, 7):
        rows = space.grad_rows(degree)
        assert np.shares_memory(rows, space.tabulation(degree)[2])
        assert rows.flags.c_contiguous


def test_integrate_and_l2_norm():
    mesh = unit_square_mesh(3)
    space = FESpace(mesh, "P1")
    rule, _, _, xq = space.tabulation(5)
    vals = xq[..., 0] ** 2 * xq[..., 1]
    assert abs(space.integrate(vals, 5) - 1.0 / 6.0) < 1e-14
    one = space.eval_at_qp(np.ones(space.n_dofs), 5)
    assert abs(np.sqrt(space.integrate(np.sum(one * one, axis=-1), 5)) - 1.0) < 1e-14


def test_boundary_dofs():
    mesh = unit_square_mesh(2)
    p1 = FESpace(mesh, "P1")
    assert len(p1.boundary_scalar_dofs()) == 8
    p2 = FESpace(mesh, "P2")
    assert len(p2.boundary_scalar_dofs()) == 16
    v = FESpace(mesh, "P1", n_components=2)
    bd = v.boundary_dofs()
    assert len(bd) == 16
    assert np.all(np.sort(bd % v.n_scalar)[::2] == np.sort(p1.boundary_scalar_dofs()))


def projection_context(V, Q):
    # the projection only reads the context's mass and constraint blocks,
    # so the model and time step are arbitrary
    return StepperContext(V, Q, StressModel(2.0, 1.0), 0.1)


def test_projection_zero_is_zero():
    mesh = unit_square_mesh(2)
    V = FESpace(mesh, "P1b", n_components=2)
    Q = FESpace(mesh, "P1")
    ctx = projection_context(V, Q)
    proj = div_preserving_projection(ctx, lambda X: np.zeros_like(X))
    assert np.max(np.abs(proj)) == 0.0


def test_projection_divergence_free_and_idempotent():
    mesh = unit_square_mesh(4)

    def u0(X):
        x, y = X[..., 0], X[..., 1]
        s = (np.sin(np.pi * x) * np.sin(np.pi * y)) ** 2
        return np.stack([s, -s], axis=-1)

    for pair in ("MINI", "TH"):
        ev, eq = element_pair(pair)
        V = FESpace(mesh, ev, n_components=2)
        Q = FESpace(mesh, eq)
        ctx = projection_context(V, Q)
        proj = div_preserving_projection(ctx, u0)
        B = assembly.assemble_divergence(V, Q)
        assert np.max(np.abs(B @ proj)) < 1e-12

        # the projected field, fed back at the points the projection
        # integrates with (degree 7)
        xq = V.tabulation(7)[3].reshape(-1, 2)

        def projected(X):
            np.testing.assert_array_equal(X, xq)
            return V.eval_at_qp(proj, 7).reshape(-1, 2)

        again = div_preserving_projection(ctx, projected)
        assert np.max(np.abs(again - proj)) < 1e-10


def test_projection_orthogonal_to_divfree_fields():
    # the residual u_h - u0 must be L2-orthogonal to every discretely
    # divergence-free test field with zero boundary values
    mesh = unit_square_mesh(3)
    V = FESpace(mesh, "P1b", n_components=2)
    Q = FESpace(mesh, "P1")

    def u0(X):
        x, y = X[..., 0], X[..., 1]
        return np.stack([x * (1 - x) * y, -(y * (1 - y)) * x], axis=-1)

    ctx = projection_context(V, Q)
    proj = div_preserving_projection(ctx, u0, degree=7)
    Mv = assembly.assemble_mass(V)
    rhs = assembly.assemble_rhs(V, u0, degree=7)
    rng = np.random.default_rng(1)
    for _ in range(5):
        test = div_preserving_projection(
            ctx, lambda X, c=rng.standard_normal(2): np.stack(
                [c[0] * X[..., 0] * (1 - X[..., 0]) * X[..., 1] * (1 - X[..., 1]),
                 c[1] * X[..., 0] * (1 - X[..., 0]) * X[..., 1] * (1 - X[..., 1])],
                axis=-1,
            )
        )
        gap = test @ (Mv @ proj) - test @ rhs
        assert abs(gap) < 1e-10


def test_projection_convergence_rate():
    def u0(X):
        x, y = X[..., 0], X[..., 1]
        psi_x = (x * (1 - x)) ** 2
        psi_y = (y * (1 - y)) ** 2
        dy = psi_x * 2 * y * (1 - y) * (1 - 2 * y)
        dx = psi_y * 2 * x * (1 - x) * (1 - 2 * x)
        return np.stack([dy, -dx], axis=-1)

    errs = []
    for n in (2, 4, 8):
        mesh = unit_square_mesh(n)
        V = FESpace(mesh, "P1b", n_components=2)
        Q = FESpace(mesh, "P1")
        proj = div_preserving_projection(projection_context(V, Q), u0)
        rule, _, _, xq = V.tabulation(7)
        diff = V.eval_at_qp(proj, 7) - u0(xq)
        errs.append(np.sqrt(V.integrate(np.sum(diff**2, -1), 7)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates[-1] > 1.9


def test_inf_sup_stable_under_refinement():
    consts = []
    for n in (4, 8, 16):
        mesh = unit_square_mesh(n)
        V = FESpace(mesh, "P1b", n_components=2)
        Q = FESpace(mesh, "P1")
        consts.append(inf_sup_constant(V, Q))
    consts = np.array(consts)
    assert np.all(consts > 0.1)
    drift = (consts.max() - consts.min()) / consts.max()
    assert drift < 0.10
