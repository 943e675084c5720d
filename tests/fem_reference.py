"""Reference operators the tests compare against (the stress law on
full 2 x 2 tensors, field gradients, the equivalence ratios, the factors
of the stress derivative, the 4-index stress Jacobian and the sparse
matrix of vector element matrices) and closed-form flows that the
default manufactured family does not cover.

The package holds a symmetric tensor as its three components; the
references here work on full 2 x 2 tensors, so that the two forms are
compared against each other."""

import numpy as np
from scipy import sparse

from pfluid.pstructure import _require_regular, _safe_pow
from pfluid.verification import ManufacturedSolution


def sym_part(P):
    """Symmetric part of P, broadcasting over leading axes."""
    P = np.asarray(P, dtype=float)
    return 0.5 * (P + np.swapaxes(P, -1, -2))


def tensor_norm(P):
    """Frobenius norm over the trailing two axes."""
    P = np.asarray(P, dtype=float)
    return np.sqrt(np.einsum("...ij,...ij->...", P, P))


def stress(model, P):
    """S(P) = (delta + |sym P|)^(p-2) sym P."""
    A = sym_part(P)
    return model.weight(tensor_norm(A))[..., None, None] * A


def f_map(model, P):
    """F(P) = (delta + |sym P|)^((p-2)/2) sym P."""
    A = sym_part(P)
    return model.f_weight(tensor_norm(A))[..., None, None] * A


def ref_grad(vs, c, degree):
    """Field gradients (nc, nq, ncomp, d) from the tabulated gradients."""
    _, _, gphys, _ = vs.tabulation(degree)
    return np.einsum("cqbl,icb->cqil", gphys,
                     vs.coeffs_by_component(c)[:, vs.cell_dofs])


def equivalence_ratios(model, P, Q):
    """The ratios of ``pstructure.equivalence_ratios`` formed on 2 x 2
    tensors, as a dict over ``RATIO_NAMES``."""
    A, B = sym_part(P), sym_part(Q)
    ta, tb, tdiff = tensor_norm(A), tensor_norm(B), tensor_norm(A - B)
    SP, SQ = stress(model, A), stress(model, B)
    increment = np.sum((SP - SQ) * (A - B), axis=(-1, -2))
    shifted = model.shifted(ta)
    p, ssum = model.p, ta + tb
    second = (model.delta + ssum) ** (p - 3.0) * (model.delta + (p - 1.0) * ssum)
    return {
        "increment_vs_f_sq": increment / tensor_norm(f_map(model, A) - f_map(model, B)) ** 2,
        "increment_vs_shifted": increment / shifted.value(tdiff),
        "increment_vs_second": increment / (second * tdiff**2),
        "dissipation_vs_phi": np.sum(SQ * B, axis=(-1, -2)) / model.phi(tb),
        "stress_diff_vs_shifted_prime": tensor_norm(SP - SQ) / shifted.derivative(tdiff),
    }


def jacobian_factors(model, P):
    """Factors of the stress derivative, returned as (A, g, radial).

    With A = sym P and t = |A| the derivative is

        DS(P) = g Sym + radial A (x) A,

    g = (delta+t)^(p-2) and radial = g'(t)/t = (p-2)(delta+t)^(p-3)/t,
    where Sym is the projection onto symmetric tensors.  A has shape
    (..., d, d); g and radial have shape (...).  Raises
    DegenerateGradientError if delta = 0 and |sym P| is below the
    representable threshold, where (delta+t)^(p-3) overflows.
    """
    A = sym_part(P)
    t = tensor_norm(A)
    tot = model.delta + t
    _require_regular(model.delta, t)
    p = model.p
    g = _safe_pow(tot, p - 2.0)
    # the limit for t -> 0 (delta > 0) is zero since |A (x) A| = t^2
    tsafe = np.where(t > 0.0, t, 1.0)
    radial = (p - 2.0) * _safe_pow(tot, p - 3.0) / tsafe
    radial = np.where(t > 0.0, radial, 0.0)
    return A, g, radial


def stress_jacobian(model, P):
    """Derivative of ``stress`` in P, shape (..., d, d, d, d).

    Index convention: J[..., i, j, k, l] = d S_ij / d P_kl.  The result
    is symmetric under (i,j,k,l) -> (k,l,i,j).  Built from
    ``jacobian_factors``, which raises DegenerateGradientError at
    sym P = 0 when delta = 0.
    """
    A, g, radial = jacobian_factors(model, P)
    eye = np.eye(A.shape[-1])
    sym4 = 0.5 * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
    outer = np.einsum("...ij,...kl->...ijkl", A, A)
    return (g[..., None, None, None, None] * sym4
            + radial[..., None, None, None, None] * outer)


def global_matrix(v_space, local):
    """Sparse matrix of vector element matrices on local_vector_dofs()."""
    dofs = v_space.local_vector_dofs()
    rows = np.broadcast_to(dofs[:, :, None], local.shape)
    cols = np.broadcast_to(dofs[:, None, :], local.shape)
    n = v_space.n_dofs
    return sparse.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(n, n)).tocsr()


def solution_from(name, alpha, dalpha, fields):
    """ManufacturedSolution u = alpha(t) u_hat with zero pressure.

    fields maps points X of shape (..., 2) to [u_hat, grad u_hat,
    hess u_hat].
    """
    def velocity(X, order):
        return fields(np.asarray(X, dtype=float))[:order + 1]

    def pressure(X, order):
        X = np.asarray(X, dtype=float)
        return [np.zeros(X.shape[:-1]), np.zeros(X.shape)][:order + 1]

    return ManufacturedSolution(name=name, alpha=alpha, dalpha=dalpha,
                                beta=lambda t: 0.0, velocity=velocity,
                                pressure=pressure)


def pure_strain():
    """u = alpha(t) (x, -y) with alpha(t) = t - 1/2 + 1e-12.

    sym Du = alpha(t) diag(1, -1) at every point, so at t = 1/2
    |sym Du| = sqrt(2) 1e-12 everywhere: representable for the stress
    Jacobian, but degenerate for a delta = 0 forcing.
    """
    sign = np.array([1.0, -1.0])
    return solution_from(
        "pure-strain", alpha=lambda t: t - 0.5 + 1e-12, dalpha=lambda t: 1.0,
        fields=lambda X: [X * sign,
                          np.broadcast_to(np.diag(sign), X.shape[:-1] + (2, 2)),
                          np.zeros(X.shape[:-1] + (2, 2, 2))])
