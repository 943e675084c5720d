"""Reference operators the tests compare against: the 4-index stress
Jacobian and the sparse matrix of vector element matrices."""

import numpy as np
from scipy import sparse


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
