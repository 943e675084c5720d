"""Assembly oracles: hand-computed energies, local matrices,
independent quadrature for the convection form, and reference
contractions for the stress, convection and saddle operators."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from pfluid import assembly
from pfluid.assembly import (
    PINNED,
    LinearSolveError,
    SaddleSystem,
    assemble_convection,
    assemble_divergence,
    assemble_mass,
    assemble_rhs,
    assemble_stiffness,
    assemble_stress,
    local_mass,
    local_matvec,
    pressure_mean_vector,
)
from pfluid.fespace import FESpace, element_pair, interpolate
from pfluid.mesh import unit_square_mesh
from pfluid.pstructure import StressModel
from pfluid.stepper import StepperContext

from fem_reference import global_matrix, stress_jacobian


def spaces(pair, n):
    vel, pre = element_pair(pair)
    mesh = unit_square_mesh(n)
    return FESpace(mesh, vel, n_components=2), FESpace(mesh, pre)


def mini_spaces(n):
    return spaces("MINI", n)


def stress_matrix(vs, c, model, jacobian):
    _, local = assemble_stress(vs, c, model, jacobian=jacobian)
    return global_matrix(vs, local)


def vector_field(space, f):
    return interpolate(space, f).coeffs


# -- mass and stiffness ------------------------------------------------

def test_mass_constant_energy():
    vs, _ = mini_spaces(4)
    c = vector_field(vs, lambda X: np.column_stack(
        [2.0 * np.ones(len(X)), -3.0 * np.ones(len(X))]))
    M = assemble_mass(vs)
    # int |(2,-3)|^2 over the unit square
    assert c @ (M @ c) == pytest.approx(13.0, abs=1e-12)


@pytest.mark.parametrize("name", ["P1", "P1b", "P2"])
def test_mass_symmetric(name):
    space = FESpace(unit_square_mesh(3), name)
    M = assemble_mass(space)
    assert abs(M - M.T).max() < 1e-14


def test_mass_p1_local_oracle():
    """Global P1 mass assembled by hand from |K|/12 (1 + I) local blocks."""
    mesh = unit_square_mesh(2)
    space = FESpace(mesh, "P1")
    M = assemble_mass(space).toarray()
    ref = np.zeros_like(M)
    loc = (np.ones((3, 3)) + np.eye(3)) / 12.0
    for cell in mesh.cells:
        a, b, c = mesh.vertices[cell]
        e1, e2 = b - a, c - a
        vol = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        ref[np.ix_(cell, cell)] += vol * loc
    np.testing.assert_allclose(M, ref, atol=1e-15)


def test_stiffness_affine_energy():
    vs, _ = mini_spaces(4)
    c = vector_field(vs, lambda X: np.column_stack([X[:, 0], 2.0 * X[:, 1]]))
    K = assemble_stiffness(vs)
    # |grad u|^2 = 1 + 4 for u = (x, 2y)
    assert c @ (K @ c) == pytest.approx(5.0, abs=1e-12)
    assert abs(K - K.T).max() < 1e-13


# -- divergence and pressure mean --------------------------------------

def test_divergence_solenoidal_affine():
    vs, qs = mini_spaces(4)
    c = vector_field(vs, lambda X: np.column_stack([X[:, 0], -X[:, 1]]))
    B = assemble_divergence(vs, qs)
    assert np.max(np.abs(B @ c)) < 1e-13


def test_divergence_unit_rate():
    # div (x, 0) = 1, so (psi_e, div u) reproduces the basis means
    vs, qs = mini_spaces(3)
    c = vector_field(vs, lambda X: np.column_stack([X[:, 0], 0.0 * X[:, 1]]))
    B = assemble_divergence(vs, qs)
    w = pressure_mean_vector(qs)
    np.testing.assert_allclose(B @ c, w, atol=1e-13)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)


def test_pressure_mean_matches_mass_row_sums():
    _, qs = mini_spaces(3)
    Mq = assemble_mass(qs)
    np.testing.assert_allclose(
        pressure_mean_vector(qs), Mq @ np.ones(qs.n_dofs), atol=1e-14)


# -- load vector -------------------------------------------------------

def test_rhs_zero():
    vs, _ = mini_spaces(3)
    r = assemble_rhs(vs, lambda X: np.zeros((len(X), 2)))
    assert np.all(r == 0.0)


def test_rhs_constant_pairing():
    vs, _ = mini_spaces(4)
    r = assemble_rhs(vs, lambda X: np.column_stack(
        [np.ones(len(X)), 2.0 * np.ones(len(X))]))
    ex = vector_field(vs, lambda X: np.column_stack(
        [np.ones(len(X)), np.zeros(len(X))]))
    ey = vector_field(vs, lambda X: np.column_stack(
        [np.zeros(len(X)), np.ones(len(X))]))
    assert r @ ex == pytest.approx(1.0, abs=1e-12)
    assert r @ ey == pytest.approx(2.0, abs=1e-12)


def test_rhs_polynomial_oracle():
    # (f, w) with f = (x^2 y, 0), w = (x, 0): int x^3 y = 1/8
    vs, _ = mini_spaces(4)
    r = assemble_rhs(vs, lambda X: np.column_stack(
        [X[:, 0] ** 2 * X[:, 1], np.zeros(len(X))]), degree=7)
    w = vector_field(vs, lambda X: np.column_stack([X[:, 0], np.zeros(len(X))]))
    assert r @ w == pytest.approx(1.0 / 8.0, abs=1e-13)


def test_rhs_component_mismatch():
    vs, _ = mini_spaces(2)
    with pytest.raises(ValueError, match="components"):
        assemble_rhs(vs, lambda X: np.ones(len(X)))


# -- stress residual and linearizations --------------------------------

def test_stress_residual_zero_at_origin():
    vs, _ = mini_spaces(3)
    model = StressModel(1.6, 0.2)
    r, _ = assemble_stress(vs, np.zeros(vs.n_dofs), model, jacobian=None)
    _, K = assemble_stress(vs, np.zeros(vs.n_dofs), model)
    assert np.all(r == 0.0)
    assert global_matrix(vs, K).shape == (vs.n_dofs, vs.n_dofs)


def test_stress_p2_is_symmetric_gradient_form():
    """At p = 2 the residual is linear and both linearizations agree."""
    vs, _ = mini_spaces(3)
    model = StressModel(2.0, 0.7)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(vs.n_dofs)
    r, _ = assemble_stress(vs, c, model, jacobian=None)
    Kn = stress_matrix(vs, c, model, "newton")
    Kp = stress_matrix(vs, c, model, "picard")
    assert abs(Kn - Kp).max() < 1e-12
    np.testing.assert_allclose(Kn @ c, r, atol=1e-12)

    # hand energies: int |Du|^2 for affine fields through exact interpolation
    shear = vector_field(vs, lambda X: np.column_stack(
        [X[:, 1], np.zeros(len(X))]))
    strain = vector_field(vs, lambda X: np.column_stack([X[:, 0], -X[:, 1]]))
    rs, _ = assemble_stress(vs, shear, model, jacobian=None)
    rd, _ = assemble_stress(vs, strain, model, jacobian=None)
    assert shear @ rs == pytest.approx(0.5, abs=1e-12)
    assert strain @ rd == pytest.approx(2.0, abs=1e-12)


def test_stress_jacobian_symmetry():
    vs, _ = mini_spaces(3)
    rng = np.random.default_rng(5)
    c = 0.4 * rng.standard_normal(vs.n_dofs)
    for mode in ("newton", "picard"):
        K = stress_matrix(vs, c, StressModel(1.7, 0.1), mode)
        assert abs(K - K.T).max() < 1e-12


def test_stress_directional_derivative():
    """Secant-vs-Jacobian mismatch shrinks at first order in the step."""
    vs, _ = mini_spaces(3)
    rng = np.random.default_rng(11)
    c = 0.3 * rng.standard_normal(vs.n_dofs)
    v = rng.standard_normal(vs.n_dofs)
    v /= np.linalg.norm(v)
    model = StressModel(1.7, 0.5)
    r0, _ = assemble_stress(vs, c, model, jacobian=None)
    K = stress_matrix(vs, c, model, "newton")
    eps = np.array([1e-2, 1e-3, 1e-4])
    errs = []
    for e in eps:
        r1, _ = assemble_stress(vs, c + e * v, model, jacobian=None)
        errs.append(np.linalg.norm((r1 - r0) / e - K @ v))
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_stress_residual_ignores_jacobian_floor():
    # the floor regularizes the derivative weight only, never the
    # residual; operator calls return no residual at all
    vs, _ = mini_spaces(3)
    rng = np.random.default_rng(2)
    c = rng.standard_normal(vs.n_dofs)
    model = StressModel(1.5, 0.0)
    r_plain, _ = assemble_stress(vs, c, model, jacobian=None)
    r_floor, _ = assemble_stress(vs, c, model, jacobian=None, jac_delta_floor=1.0)
    np.testing.assert_array_equal(r_plain, r_floor)
    for mode in ("newton", "picard"):
        r_op, K = assemble_stress(vs, c, model, jacobian=mode)
        assert r_op is None and K is not None


def test_stress_unknown_mode():
    vs, _ = mini_spaces(2)
    with pytest.raises(ValueError, match="jacobian"):
        assemble_stress(vs, np.zeros(vs.n_dofs), StressModel(1.8, 0.1),
                        jacobian="exact")


# -- convection --------------------------------------------------------

def test_convection_zero_transport():
    vs, _ = mini_spaces(3)
    N = assemble_convection(vs, np.zeros(vs.n_dofs))
    assert np.abs(N).max() == 0.0


def test_convection_skew():
    """v^T N v vanishes for every field, including the transport itself."""
    vs, _ = mini_spaces(3)
    rng = np.random.default_rng(17)
    for _ in range(100):
        u = rng.standard_normal(vs.n_dofs)
        N = global_matrix(vs, assemble_convection(vs, u))
        v = rng.standard_normal(vs.n_dofs)
        scale = abs(N).max() * np.dot(v, v)
        assert abs(v @ (N @ v)) < 1e-12 * scale
        assert abs(u @ (N @ u)) < 1e-12 * scale


def test_convection_solenoidal_oracle():
    """For pointwise divergence-free transport and boundary-zero test
    fields the skew form reduces to plain (grad v . u, w); compare with
    direct quadrature of that integrand."""
    vs, _ = mini_spaces(3)
    c_u = vector_field(vs, lambda X: np.column_stack([X[:, 0], -X[:, 1]]))
    rng = np.random.default_rng(23)
    bdofs = vs.boundary_dofs()
    N = global_matrix(vs, assemble_convection(vs, c_u))
    deg = 9
    wd = vs.detJ[:, None] * vs.tabulation(deg)[0].weights[None, :]
    uq = vs.eval_at_qp(c_u, deg)
    for _ in range(5):
        cv = rng.standard_normal(vs.n_dofs)
        cw = rng.standard_normal(vs.n_dofs)
        cv[bdofs] = 0.0
        cw[bdofs] = 0.0
        direct = np.einsum("cq,cqij,cqj,cqi->", wd,
                           vs.grad_at_qp(cv, deg), uq, vs.eval_at_qp(cw, deg))
        assert cw @ (N @ cv) == pytest.approx(direct, abs=1e-12)


# -- constraint handling and saddle solves -----------------------------

def condensed(sys, A_local):
    """Dense condensed matrix of sys for the element matrices A_local,
    in the order of sys.retained."""
    return sys.factor(A_local).K.toarray()[np.ix_(sys.perm, sys.perm)]


def test_apply_dirichlet_matrix():
    """Dirichlet rows and columns of the condensed matrix are dropped and
    get a unit diagonal, and so does the pinned pressure dof."""
    vs, qs = mini_spaces(2)
    sys = SaddleSystem(vs, qs)
    dense = condensed(sys, local_mass(vs))
    nr = len(sys.retained) - qs.n_dofs
    bdofs = np.searchsorted(sys.retained, vs.boundary_dofs())
    assert np.array_equal(sys.retained[bdofs], vs.boundary_dofs())
    free = np.setdiff1d(np.arange(nr), bdofs)
    assert np.all(dense[np.ix_(bdofs, free)] == 0.0)
    assert np.all(dense[np.ix_(free, bdofs)] == 0.0)
    np.testing.assert_array_equal(dense[np.ix_(bdofs, bdofs)],
                                  np.eye(len(bdofs)))
    # B columns and B^T rows of constrained dofs are dropped too
    assert np.all(dense[nr:, bdofs] == 0.0)
    assert np.all(dense[bdofs, nr:] == 0.0)
    # the pinned pressure dof keeps only its unit diagonal
    pin = nr + PINNED
    np.testing.assert_array_equal(dense[pin], np.eye(len(dense))[pin])
    np.testing.assert_array_equal(dense[:, pin], np.eye(len(dense))[pin])
    # the eliminated bubbles leave a nonzero pressure block
    assert np.all(np.diag(dense)[nr:] > 0.0)


def test_saddle_rhs_and_split():
    vs, qs = mini_spaces(2)
    sys = SaddleSystem(vs, qs)
    nu, nq = vs.n_dofs, qs.n_dofs
    n = len(sys.retained)
    assert sys.shape == (n, n)
    np.testing.assert_array_equal(np.sort(sys.perm), np.arange(n))
    rhs = sys.rhs(np.ones(nu), np.zeros(nq))
    assert rhs.shape == (nu + nq,)
    assert np.all(rhs[sys.bdofs] == 0.0)
    u, q = sys.split(np.arange(nu + nq, dtype=float))
    assert len(u) == nu and len(q) == nq
    assert q[-1] == float(nu + nq - 1)


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_condensed_size(pair):
    """MINI condenses both bubble components of every cell away, leaving
    P1-P1 unknowns; Taylor-Hood has no interior dofs and keeps its size."""
    vs, qs = spaces(pair, 16)
    sys = SaddleSystem(vs, qs)
    nv = vs.mesh.n_vertices
    n = {"MINI": 2 * nv + nv, "TH": vs.n_dofs + qs.n_dofs}[pair]
    assert sys.shape == (n, n) and len(sys.retained) == n


def test_solve_saddle_stokes():
    """Direct solve satisfies the constrained equations to solver accuracy."""
    vs, qs = mini_spaces(4)
    _, E = assemble_stress(vs, np.zeros(vs.n_dofs), StressModel(2.0, 1.0))
    A_local = E + local_mass(vs)
    A = global_matrix(vs, A_local)
    B = assemble_divergence(vs, qs)
    w = pressure_mean_vector(qs)
    bdofs = vs.boundary_dofs()
    free = np.setdiff1d(np.arange(vs.n_dofs), bdofs)
    f = assemble_rhs(vs, lambda X: np.column_stack(
        [np.ones(len(X)), X[:, 0] * X[:, 1]]))
    sys = SaddleSystem(vs, qs)
    u, q = sys.split(sys.factor(A_local)(sys.rhs(f, np.zeros(qs.n_dofs))))
    assert np.max(np.abs(u[bdofs])) < 1e-14
    assert abs(w @ q) < 1e-12 * (1.0 + np.linalg.norm(q))
    # every row of B u = 0 holds, the pinned one included
    assert np.linalg.norm(B @ u) < 1e-10
    res = (A @ u - B.T @ q - f)[free]
    assert np.linalg.norm(res) < 1e-10 * (1.0 + np.linalg.norm(f))


def test_solve_saddle_singular_raises():
    # no velocity block: [0 -B^T; B 0] has more velocity than pressure dofs
    vs, qs = spaces("TH", 2)
    sys = SaddleSystem(vs, qs)
    A = np.zeros((vs.mesh.n_cells, 2 * vs.n_local, 2 * vs.n_local))
    with pytest.raises(LinearSolveError):
        sys.factor(A)(sys.rhs(np.zeros(vs.n_dofs), np.zeros(qs.n_dofs)))


@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_singular_interior_block_raises(bad):
    """A cell whose bubble block is zero or not finite stops the
    condensation before any factorization."""
    vs, qs = mini_spaces(3)
    sys = SaddleSystem(vs, qs)
    A = local_mass(vs)
    bubbles = [vs.n_local - 1, 2 * vs.n_local - 1]
    A[5][np.ix_(bubbles, bubbles)] = 0.0
    A[5, bubbles[0], bubbles[0]] = bad
    with pytest.raises(LinearSolveError):
        sys.factor(A)
    assert sys.factorizations == 0


def test_stepper_factorization_fill(monkeypatch):
    """The ordered pinned pattern keeps the n=16 MINI factors small."""
    vs, qs = mini_spaces(16)
    fills = []
    real_splu = assembly.splu

    def splu_fill(A, **options):
        lu = real_splu(A, **options)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(assembly, "splu", splu_fill)
    model = StressModel(1.8, 0.1)
    ctx = StepperContext(vs, qs, model, kappa=1.0 / 64)
    U = 0.1 * np.random.default_rng(4).standard_normal(vs.n_dofs)
    U[ctx.bdofs] = 0.0
    rhs = ctx.kkt.rhs(np.ones(vs.n_dofs), np.zeros(qs.n_dofs))
    ctx._factor(U, ctx._fixed_data, "newton")(rhs)
    assert len(fills) == 2  # the ordering, then the static-pivot solve
    assert max(fills) < 200_000


# -- reference contractions --------------------------------------------
#
# The 4-index Jacobian contracted in one einsum, the frozen-weight form
# and the globally skew-symmetrized convection, and the Dirichlet/bmat
# build of the augmented matrix: the direct forms the factored kernels
# and the cached KKT pattern must reproduce.

def ref_weights(vs, degree):
    return vs.detJ[:, None] * vs.tabulation(degree)[0].weights[None, :]


def ref_values(vs, c, degree):
    """Field values (nc, nq, ncomp) from the tabulated basis."""
    _, phi, _, _ = vs.tabulation(degree)
    return np.einsum("qb,icb->cqi", phi, vs.coeffs_by_component(c)[:, vs.cell_dofs])


def ref_grad(vs, c, degree):
    """Field gradients (nc, nq, ncomp, d) from the tabulated gradients."""
    _, _, gphys, _ = vs.tabulation(degree)
    return np.einsum("cqbl,icb->cqil", gphys,
                     vs.coeffs_by_component(c)[:, vs.cell_dofs])


def ref_residual(vs, c, model, degree=5):
    """(S(Du), Dv) contracted in one einsum and summed with np.add.at."""
    _, _, gphys, _ = vs.tabulation(degree)
    S = model.stress(ref_grad(vs, c, degree))
    cell = np.einsum("cq,cqil,cqal->cia", ref_weights(vs, degree), S, gphys)
    out = np.zeros(vs.n_dofs)
    np.add.at(out, vs.local_vector_dofs(), cell.reshape(len(cell), -1))
    return out


def ref_stress_local(vs, c, model, jacobian, degree=5):
    grad = ref_grad(vs, c, degree)
    _, _, gphys, _ = vs.tabulation(degree)
    wd = ref_weights(vs, degree)
    nc, _, nloc, d = gphys.shape
    A = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    t = np.sqrt(np.sum(A * A, axis=(-1, -2)))
    # shift floor 1e-8 min(1, max |sym Du|); 1e-8 itself at a zero iterate
    floor = 1e-8 * min(1.0, t.max()) if t.max() > 0.0 else 1e-8
    if jacobian == "newton":
        jmodel = model if model.delta >= floor else StressModel(model.p, floor)
        J4 = stress_jacobian(jmodel, grad)
        local = np.einsum("cq,cqsltm,cqal,cqbm->csatb", wd, J4, gphys, gphys)
    else:
        wg = wd * np.maximum(model.delta + t, floor) ** (model.p - 2.0)
        term1 = np.einsum("cq,cqal,cqbl->cab", wg, gphys, gphys)
        local = 0.5 * np.einsum("cq,cqaj,cqbi->ciajb", wg, gphys, gphys)
        for i in range(d):
            local[:, i, :, i, :] += 0.5 * term1
    return local.reshape(nc, d * nloc, d * nloc)


def ref_convection(vs, u):
    degree = 3 * vs.element.degree
    _, phi, gphys, _ = vs.tabulation(degree)
    wvals = ref_values(vs, u, degree)
    C_local = np.einsum("cq,cqi,cqbi,qa->cab", ref_weights(vs, degree), wvals,
                        gphys, phi)
    rows = np.broadcast_to(vs.cell_dofs[:, :, None], C_local.shape)
    cols = np.broadcast_to(vs.cell_dofs[:, None, :], C_local.shape)
    n = vs.n_scalar
    C = sparse.coo_matrix((C_local.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(n, n)).tocsr()
    return sparse.block_diag([0.5 * (C - C.T)] * 2, format="csr")


def ref_dirichlet_blocks(A, B, bdofs):
    free = np.ones(A.shape[0])
    free[bdofs] = 0.0
    Df = sparse.diags(free)
    Ad = (Df @ A @ Df).tocsr() + sparse.diags(1.0 - free)
    return Ad, (B @ Df).tocsr()


def ref_pinned_matrix(A, B, bdofs):
    """[A -B^T; B 0] with the pinned pressure dof's row and column
    replaced by a unit diagonal."""
    Ad, Bf = ref_dirichlet_blocks(A, B, bdofs)
    nq = B.shape[0]
    keep = np.ones(nq)
    keep[PINNED] = 0.0
    Bp = (sparse.diags(keep) @ Bf).tocsr()
    pin = sparse.csr_matrix(([1.0], ([PINNED], [PINNED])), shape=(nq, nq))
    return sparse.bmat([[Ad, -Bp.T], [Bp, pin]], format="csc")


def ref_augmented_matrix(A, B, w, bdofs):
    """[A -B^T 0; B 0 w; 0 w^T 0]: zero pressure mean by a multiplier."""
    Ad, Bf = ref_dirichlet_blocks(A, B, bdofs)
    wcol = sparse.csr_matrix(w[:, None])
    return sparse.bmat([[Ad, -Bf.T, None], [Bf, None, wcol], [None, wcol.T, None]],
                       format="csc")


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("degree", [1, 5, 7])
@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("element", ["P0", "P1", "P1b", "P2"])
def test_field_evaluation_matches_reference(element, ncomp, degree):
    vs = FESpace(unit_square_mesh(4), element, n_components=ncomp)
    rule, _, gphys, _ = vs.tabulation(degree)
    dlam = vs.element.dlambda(rule.points)
    np.testing.assert_allclose(
        gphys, np.einsum("qbk,ckl->cqbl", dlam, vs.grad_lambda), rtol=0, atol=1e-13)
    c = np.random.default_rng(11).standard_normal(vs.n_dofs)
    vals = vs.eval_at_qp(c, degree)
    grad = vs.grad_at_qp(c, degree)
    nc, nq = vs.mesh.n_cells, len(rule.weights)
    assert vals.shape == (nc, nq, ncomp) and vals.flags.c_contiguous
    assert grad.shape == (nc, nq, ncomp, 2) and grad.flags.c_contiguous
    ref_v, ref_g = ref_values(vs, c, degree), ref_grad(vs, c, degree)
    assert np.abs(vals - ref_v).max() <= 1e-13 * np.abs(ref_v).max()
    # P0 gradients vanish, so the bound is absolute there
    assert np.abs(grad - ref_g).max() <= 1e-13 * max(np.abs(ref_g).max(), 1.0)


@pytest.mark.parametrize("pair", ["MINI", "TH"])
@pytest.mark.parametrize("p,delta", [(1.7, 0.1), (1.5, 0.0)])
def test_stress_residual_matches_reference(pair, p, delta):
    vs, _ = spaces(pair, 4)
    c = 0.5 * np.random.default_rng(12).standard_normal(vs.n_dofs)
    model = StressModel(p, delta)
    # at delta = 0 the stress is singular where sym Du vanishes; stay away
    A = 0.5 * (ref_grad(vs, c, 5) + np.swapaxes(ref_grad(vs, c, 5), -1, -2))
    t = np.sqrt(np.sum(A * A, axis=(-1, -2)))
    assert t.min() > 1e-3
    residual, state = assemble_stress(vs, c, model, jacobian=None)
    assert rel_err(residual, ref_residual(vs, c, model)) < 1e-13
    # the state handed back is the stress of c in three components
    for got, ref in [(state.a, A[..., 0, 0]), (state.b, A[..., 1, 1]),
                     (state.c, A[..., 0, 1]), (state.t, t),
                     (state.g, (delta + t) ** (p - 2.0))]:
        assert rel_err(got, ref) < 1e-13


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_rhs_matches_reference(pair):
    vs, _ = spaces(pair, 4)
    f = lambda X: np.column_stack([np.sin(3.0 * X[:, 0]), X[:, 0] * X[:, 1] ** 2])
    _, phi, _, xq = vs.tabulation(5)
    vals = f(xq.reshape(-1, 2)).reshape(xq.shape[0], xq.shape[1], 2)
    cell = np.einsum("cq,cqi,qa->cia", ref_weights(vs, 5), vals, phi)
    ref = np.zeros(vs.n_dofs)
    np.add.at(ref, vs.local_vector_dofs(), cell.reshape(len(cell), -1))
    assert rel_err(assemble_rhs(vs, f, degree=5), ref) < 1e-13


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_local_matvec_matches_global_matrix(pair):
    vs, _ = spaces(pair, 4)
    rng = np.random.default_rng(13)
    N = assemble_convection(vs, rng.standard_normal(vs.n_dofs))
    U = rng.standard_normal(vs.n_dofs)
    assert rel_err(local_matvec(vs, N, U), global_matrix(vs, N) @ U) < 1e-13


OPERATOR_CASES = [
    pytest.param("newton", 1.7, 0.1, 0.5, id="newton-1.7-0.1"),
    pytest.param("newton", 1.5, 0.0, 0.5, id="newton-1.5-0.0"),
    pytest.param("picard", 1.6, 0.1, 0.5, id="picard-1.6-0.1"),
    # below max |sym Du| = 1 the delta = 0 floor shrinks with the iterate
    pytest.param("newton", 1.5, 0.0, 1e-6, id="newton-1.5-0.0-small"),
    pytest.param("picard", 1.5, 0.0, 1e-6, id="picard-1.5-0.0-small"),
    pytest.param("newton", 1.5, 0.0, 0.0, id="newton-1.5-0.0-zero"),
    pytest.param("picard", 1.5, 0.0, 0.0, id="picard-1.5-0.0-zero"),
]


@pytest.mark.parametrize("pair", ["MINI", "TH"])
@pytest.mark.parametrize("jacobian,p,delta,scale", OPERATOR_CASES)
def test_stress_operator_matches_reference(pair, jacobian, p, delta, scale):
    vs, _ = spaces(pair, 4)
    c = scale * np.random.default_rng(7).standard_normal(vs.n_dofs)
    model = StressModel(p, delta)
    _, local = assemble_stress(vs, c, model, jacobian=jacobian)
    ref = ref_stress_local(vs, c, model, jacobian)
    assert rel_err(local, ref) < 1e-13
    assert rel_err(global_matrix(vs, local).toarray(),
                   global_matrix(vs, ref).toarray()) < 1e-13


@pytest.mark.parametrize("p", [1.3, 1.8])
@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-9, 1e-12])
def test_degenerate_linearizations_stay_exact_as_flow_vanishes(p, scale):
    """At delta = 0 the stress is homogeneous of degree p-1, so by Euler
    the Newton operator maps u to (p-1) times the stress residual and
    the Picard operator maps u to the residual.  The floor scales with
    the iterate, so both identities hold at every field size; a fixed
    floor of 1e-8 breaks them once |sym Du| nears it."""
    vs, _ = mini_spaces(4)
    c = scale * np.random.default_rng(3).standard_normal(vs.n_dofs)
    model = StressModel(p, 0.0)
    r, _ = assemble_stress(vs, c, model, jacobian=None)
    Kn = stress_matrix(vs, c, model, "newton")
    Kp = stress_matrix(vs, c, model, "picard")
    assert rel_err(Kn @ c, (p - 1.0) * r) < 1e-7
    assert rel_err(Kp @ c, r) < 1e-13


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_convection_matches_reference(pair):
    vs, _ = spaces(pair, 4)
    u = np.random.default_rng(8).standard_normal(vs.n_dofs)
    N = global_matrix(vs, assemble_convection(vs, u)).toarray()
    assert rel_err(N, ref_convection(vs, u).toarray()) < 1e-13


def step_operator(pair, n):
    """StepperContext at a random iterate, with M/kappa + N + K as element
    matrices (the data of ``kkt.factor``) and as a global matrix."""
    vs, qs = spaces(pair, n)
    rng = np.random.default_rng(9)
    model = StressModel(1.8, 0.1)
    ctx = StepperContext(vs, qs, model, kappa=0.05)
    U_prev = rng.standard_normal(vs.n_dofs)
    U = rng.standard_normal(vs.n_dofs)
    N = assemble_convection(vs, U_prev)
    _, K = assemble_stress(vs, U, model, jacobian="newton")
    data = ctx._fixed_data + N + K
    A = (assemble_mass(vs) / ctx.kappa + ref_convection(vs, U_prev)
         + global_matrix(vs, ref_stress_local(vs, U, model, "newton")))
    return ctx, data, A


def ref_interior(vs):
    """Global velocity dofs of the cell basis functions: the last
    n_cells * cell_dofs scalar dofs of every component."""
    ncell = vs.mesh.n_cells * vs.element.cell_dofs
    return np.concatenate([np.arange((i + 1) * vs.n_scalar - ncell, (i + 1) * vs.n_scalar)
                           for i in range(vs.n_components)])


def ref_condensed(K, interior):
    """Schur complement of the dense K onto every unknown but interior,
    with the kept index set."""
    kept = np.setdiff1d(np.arange(len(K)), interior)
    K_ki = K[np.ix_(kept, interior)]
    K_ii = K[np.ix_(interior, interior)]
    S = K[np.ix_(kept, kept)] - K_ki @ np.linalg.solve(K_ii, K[np.ix_(interior, kept)])
    return S, kept


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_cached_kkt_matches_bmat_build(pair):
    """The refilled pattern holds the Schur complement of the
    Dirichlet/bmat build of M/kappa + N + K, bubbles eliminated."""
    ctx, data, A = step_operator(pair, 4)
    ref, kept = ref_condensed(ref_pinned_matrix(A, ctx.B, ctx.bdofs).toarray(),
                              ref_interior(ctx.v_space))
    np.testing.assert_array_equal(ctx.kkt.retained, kept)
    assert rel_err(condensed(ctx.kkt, data), ref) < 1e-13
    if pair == "TH":  # nothing to eliminate: the bmat pattern itself
        assert ctx.kkt.nnz == np.count_nonzero(ref)


@pytest.mark.parametrize("pair", ["MINI", "TH"])
def test_pinned_solve_matches_augmented(pair):
    """Pinning plus the mean shift reproduces the multiplier solve."""
    ctx, data, A = step_operator(pair, 4)
    nu, nq = ctx.kkt.nu, ctx.kkt.nq
    rng = np.random.default_rng(10)
    v = rng.standard_normal(nu)
    v[ctx.bdofs] = 0.0
    # divergence data of a boundary-vanishing field sums to zero
    rhs = ctx.kkt.rhs(rng.standard_normal(nu), ctx.B @ v)
    u, q = ctx.kkt.split(ctx.kkt.factor(data)(rhs))
    ref = spsolve(ref_augmented_matrix(A, ctx.B, ctx.w, ctx.bdofs),
                  np.append(rhs, 0.0))
    u_ref, q_ref = ref[:nu], ref[nu : nu + nq]
    assert abs(ref[-1]) < 1e-10
    assert rel_err(u, u_ref) < 1e-12
    assert rel_err(q, q_ref) < 1e-10
    assert abs(ctx.w @ q) < 1e-12 * np.abs(q).max()


def test_recovered_bubbles_satisfy_full_rows():
    """After a Newton solve on the condensed system, the bubbles recovered
    cell by cell satisfy every row of the full pinned KKT system."""
    ctx, data, A = step_operator("MINI", 4)
    nu = ctx.kkt.nu
    full = ref_pinned_matrix(A, ctx.B, ctx.bdofs)
    rng = np.random.default_rng(11)
    rhs = ctx.kkt.rhs(rng.standard_normal(nu), np.zeros(ctx.kkt.nq))
    x = ctx.kkt.factor(data)(rhs)
    x[nu:] -= x[nu + PINNED]  # the pinned system's pressure, before the mean shift
    bubbles = ref_interior(ctx.v_space)
    assert len(bubbles) == 2 * ctx.v_space.mesh.n_cells
    r = full @ x - rhs
    assert np.linalg.norm(r[bubbles]) < 1e-10 * np.linalg.norm(rhs)
    assert np.linalg.norm(r) < 1e-10 * np.linalg.norm(rhs)
