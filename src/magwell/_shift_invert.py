"""Lowest eigenpairs of a sparse positive-definite matrix by shift-invert
Lanczos at sigma = 0: the one sparse eigen-solve route of the package."""
from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh, splu


def lowest_sparse_eigenpairs(H, k: int, return_eigenvectors: bool = False):
    """The k lowest eigenvalues of the sparse Hermitian positive-definite H,
    ascending, and with `return_eigenvectors` also the matching columns.

    H is factored once with a symmetric minimum-degree ordering (MMD on
    A^T + A, diagonal pivots preferred). It respects the symmetric structure
    and fills far less than scipy's default COLAMD column ordering. ARPACK
    then applies H^{-1} through that factor from a fixed start vector, so
    repeated calls are deterministic. The factor is local to the call and
    freed when it returns, so a caller that solves one matrix after another
    never holds two factors. ArpackNoConvergence propagates.
    """
    n = H.shape[0]
    lu = splu(H.tocsc(), permc_spec="MMD_AT_PLUS_A",
              options={"SymmetricMode": True})
    result = eigsh(H, k=k, sigma=0, which="LM", v0=np.full(n, 1.0 / np.sqrt(n)),
                   OPinv=LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype),
                   return_eigenvectors=return_eigenvectors)
    if not return_eigenvectors:
        return np.sort(result)
    vals, vecs = result
    order = np.argsort(vals)
    return vals[order], vecs[:, order]
