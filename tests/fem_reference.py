"""Reference operators the tests compare against (the 4-index stress
Jacobian and the sparse matrix of vector element matrices) and closed-form
flows that the default manufactured family does not cover."""

import numpy as np
from scipy import sparse

from pfluid.verification import ManufacturedSolution


def stress_jacobian(model, P):
    """Derivative of model.stress in P, shape (..., d, d, d, d).

    Index convention: J[..., i, j, k, l] = d S_ij / d P_kl.  The result
    is symmetric under (i,j,k,l) -> (k,l,i,j).  Built from
    ``StressModel.jacobian_factors``, which raises
    DegenerateGradientError at sym P = 0 when delta = 0.
    """
    A, g, radial = model.jacobian_factors(P)
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


def solution_from(name, u, grad_u, hess_u, dt_u):
    """ManufacturedSolution of the given velocity fields, zero pressure."""
    return ManufacturedSolution(
        name=name, u=u, grad_u=grad_u, hess_u=hess_u, dt_u=dt_u,
        q=lambda t, X: np.zeros(X.shape[:-1]),
        grad_q=lambda t, X: np.zeros(X.shape[:-1] + (2,)),
        flow=lambda t, X: (u(t, X), dt_u(t, X), grad_u(t, X), hess_u(t, X)),
    )


def pure_strain():
    """u = alpha(t) (x, -y) with alpha(t) = t - 1/2 + 1e-12.

    sym Du = alpha(t) diag(1, -1) at every point, so at t = 1/2
    |sym Du| = sqrt(2) 1e-12 everywhere: representable for the stress
    Jacobian, but degenerate for a delta = 0 forcing.
    """
    sign = np.array([1.0, -1.0])

    def alpha(t):
        return t - 0.5 + 1e-12

    return solution_from(
        "pure-strain",
        u=lambda t, X: alpha(t) * X * sign,
        grad_u=lambda t, X: alpha(t) * np.broadcast_to(np.diag(sign),
                                                       X.shape[:-1] + (2, 2)),
        hess_u=lambda t, X: np.zeros(X.shape[:-1] + (2, 2, 2)),
        dt_u=lambda t, X: X * sign,
    )
