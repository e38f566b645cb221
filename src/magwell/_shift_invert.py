"""Lowest eigenpairs of a sparse Hermitian matrix by shift-invert Lanczos,
and Sylvester-inertia counts from the same factor: the one sparse
eigen-solve route of the package."""
from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh, splu


class ShiftRejected(Exception):
    """The factor of H - shift does not certify that shift lies below the
    spectrum of H. `negative_pivots` is the number of eigenvalues below the
    shift, or None when the factor's inertia cannot be trusted."""

    def __init__(self, negative_pivots: Optional[int]):
        super().__init__(f"negative pivots: {negative_pivots}")
        self.negative_pivots = negative_pivots


def _factor(H, shift: float):
    """LU factor of H - shift with a symmetric minimum-degree ordering (MMD
    on A^T + A). `diag_pivot_thresh=0` keeps every pivot on the diagonal
    unless it is exactly zero, so the factor of a Hermitian matrix is a
    symmetric one, P (H - shift) P^T = L D L^H with U = D L^H, whenever
    perm_r == perm_c. It fills far less than scipy's default COLAMD column
    ordering."""
    A = H - shift * sp.identity(H.shape[0], dtype=H.dtype, format="csc") if shift else H
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _negative_pivots(lu) -> Optional[int]:
    """Negative entries of diag(U) of a symmetric factor, which by Sylvester's
    law of inertia is the number of eigenvalues below the factored shift;
    None when the factor is not symmetric (perm_r != perm_c) or has a zero
    or non-finite pivot."""
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    d = lu.U.diagonal().real
    if not np.all(np.isfinite(d)) or np.any(d == 0.0):
        return None
    return int(np.count_nonzero(d < 0.0))


def count_below(H, shift: float) -> Optional[int]:
    """Number of eigenvalues of the sparse Hermitian H below `shift`, read
    from the inertia of one factor of H - shift (freed on return); None when
    that inertia cannot be trusted, including an exactly singular factor."""
    try:
        lu = _factor(H, shift)
    except RuntimeError:           # SuperLU: factor is exactly singular
        return None
    return _negative_pivots(lu)


def lowest_sparse_eigenpairs(H, k: int, return_eigenvectors: bool = False,
                             shift: float = 0.0):
    """The k lowest eigenvalues of the sparse Hermitian H, ascending, and
    with `return_eigenvectors` also the matching columns.

    H - shift is factored once (see `_factor`) and ARPACK applies its
    inverse from a fixed start vector, so repeated calls are deterministic.
    At shift 0 the caller vouches that H is positive definite and no inertia
    is read. A nonzero shift is used only when the same factor shows no
    negative pivot, i.e. the shift lies below the whole spectrum; otherwise
    that factor is freed and ShiftRejected is raised, so the caller can warn
    and solve again at shift 0. The factor is local to the call and freed
    when it returns, so a caller that solves one matrix after another never
    holds two factors. ArpackNoConvergence propagates.
    """
    n = H.shape[0]
    try:
        lu = _factor(H, shift)
    except RuntimeError:           # SuperLU: factor is exactly singular
        if shift:
            raise ShiftRejected(None) from None
        raise
    below = _negative_pivots(lu) if shift else 0
    if below != 0:
        del lu                     # free it before the caller refactors
        raise ShiftRejected(below)
    result = eigsh(H, k=k, sigma=shift, which="LM", v0=np.full(n, 1.0 / np.sqrt(n)),
                   OPinv=LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype),
                   return_eigenvectors=return_eigenvectors)
    if not return_eigenvectors:
        return np.sort(result)
    vals, vecs = result
    order = np.argsort(vals)
    return vals[order], vecs[:, order]
