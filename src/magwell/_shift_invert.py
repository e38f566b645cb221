"""Lowest eigenpairs of a sparse Hermitian matrix by shift-invert Lanczos:
the one sparse eigen-solve route of the package.

The Lanczos is the spectral transformation of Ericsson and Ruhe (Math.
Comp. 35, 1980): it runs on OP = (H - shift)^{-1}, applied by one sparse LU
factor, whose largest eigenvalues theta are the levels lambda = shift +
1/theta just above the shift. It keeps the whole Krylov basis, fully
reorthogonalised, and stops at the first step where the wanted Ritz pairs
pass two bounds in turn (`_lanczos`): (a) every value is converged to
rounding, r^2/gap <= eps |theta| with r = |beta_m s_{m,i}| (Kato-Temple,
`_ritz_test`), and only then (b) every vector's residual in H, read from
the Lanczos relation at the cost of one product with H - shift, is within
a tenth of RESIDUAL_TOL, the residual the 2D solver checks. ARPACK's test
r <= eps |theta| converges the vectors to rounding as well, which no
caller uses. It works from a single start vector, so it resolves no exact
multiplicity (the Krylov space holds one vector of each eigenspace) and
sees no level that an exact symmetry keeps orthogonal to that vector. The
2D solver splits off the one exact symmetry of its operator, the
reflection t -> -t, and solves or certifies each block on its own. This
module reads no inertia: the caller certifies that its shift lies below
the spectrum before the factor is built (the 2D solver by one banded
Cholesky per band of a lower bound, `model2d._bound_clears`).
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dstemr
from scipy.sparse.linalg import splu

from .sl_engine import ConvergenceError

LANCZOS_MAX_STEPS = 200       # cap on the Krylov basis, hence on its memory
RESIDUAL_TOL = 1e-9           # ten times the residual bound of a returned unit vector
_EPS = np.finfo(float).eps


def _factor(H, shift: float):
    """LU factor of H - shift with a symmetric minimum-degree ordering (MMD
    on A^T + A). `diag_pivot_thresh=0` keeps every pivot on the diagonal
    unless it is exactly zero, so the factor of a Hermitian matrix is a
    symmetric one, P (H - shift) P^T = L D L^H with U = D L^H, whenever
    perm_r == perm_c. It fills far less than scipy's default COLAMD column
    ordering. The options also fix every rounding of the factor and its
    solves, hence every byte of the levels, and keep the pivots that the
    tests' inertia oracle reads (`oracles.inertia_below`)."""
    A = H - shift * sp.identity(H.shape[0], dtype=H.dtype, format="csc") if shift else H
    return splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _ritz_test(alpha, beta, m: int, k: int):
    """(theta, S, passed): the min(k, m) largest eigenpairs (ascending) of
    the Lanczos tridiagonal T_m, and whether every one passes bound (a) of
    the stop rule, its value (see `_lanczos` for bound (b)). dstemr (LAPACK)
    computes only the pairs max(m - k, 1)..m (1-based), so every tested pair
    has its neighbours. With r_i = |beta_m s_{m,i}|, pair i passes when
    r_i^2 / gap_i <= eps |theta_i|, where gap_i is the distance to the
    nearest other Ritz value less that neighbour's own r, and gap_i <= 0
    fails. theta_i is then within rounding of an eigenvalue of the operator
    (the Kato-Temple bound; Parlett, The Symmetric Eigenvalue Problem, SIAM
    1998, 11.7). A failed dstemr passes nothing."""
    lo = max(m - k, 1)
    # dstemr overwrites its off-diagonal argument, hence the copy
    _, theta, S, info = dstemr(alpha[:m], beta[:m].copy(), 2, 0.0, 0.0, lo, m)
    count = m - lo + 1
    theta, S = theta[:count], S[:, :count]
    # a few pairs, tested at every step: plain floats, padded with a
    # neighbour at infinity on each side
    t = [-np.inf, *theta.tolist(), np.inf]
    r = [0.0, *np.abs(beta[m - 1] * S[m - 1]).tolist(), 0.0]
    passed = info == 0
    first = count - min(k, m)           # the first wanted pair
    for i in range(first + 1, count + 1):
        gap = min(t[i] - t[i - 1] - r[i - 1], t[i + 1] - t[i] - r[i + 1])
        passed = passed and gap > 0.0 and r[i] * r[i] <= _EPS * abs(t[i]) * gap
    return theta[first:], S[:, first:], passed


def _lanczos(solve, shifted, n: int, k: int, dtype):
    """(theta, Y, converged): the k largest Ritz values of the Hermitian
    operator `solve` = (H - shift)^{-1}, ascending, their Ritz vectors (None
    when unconverged) and whether all k passed the stop rule. `shifted`
    applies H - shift.

    Starts from solve(1/sqrt(n)). Each new vector is orthogonalised against
    the whole basis by two classical Gram-Schmidt passes; the basis is kept
    in Fortran order, so its leading columns are a view that BLAS reads in
    place. From step min(2k, n) on, the stop rule runs at every step in two
    steps, and the iteration stops at the first step where both pass:
    (a) the values of all k largest Ritz pairs are converged to rounding
    (`_ritz_test`); only then (b) the one product with H - shift gives
    next_norm = |(H - shift) v_{m+1}|, and every Ritz vector y_i has
    |beta_m s_{m,i}| next_norm <= RESIDUAL_TOL/10 |theta_i|. By the Lanczos
    relation (H - lambda_i) y_i = -(beta_m s_{m,i} / theta_i)
    (H - shift) v_{m+1}, the left side over |theta_i| is the residual in H
    of y_i at lambda_i = shift + 1/theta_i. Both follow from ARPACK's test
    |beta_m s_{m,i}| <= eps |theta_i| whenever r_i <= gap_i and
    RESIDUAL_TOL/10 >= eps |(H - shift) v_{m+1}|, so the rule never stops
    later than ARPACK's there. A zero beta means the Krylov space is
    invariant: its Ritz values are exact and their residuals zero.
    """
    m_max = min(n, LANCZOS_MAX_STEPS)
    V = np.empty((n, m_max), dtype=dtype, order="F")
    alpha = np.zeros(m_max)
    beta = np.zeros(m_max)
    w = solve(np.full(n, n ** -0.5, dtype=dtype))
    V[:, 0] = w / np.linalg.norm(w)
    m_test = min(2 * k, n)
    for j in range(m_max):
        w = solve(V[:, j])
        basis = V[:, :j + 1]
        for _ in range(2):
            c = (w.conj() @ basis).conj()          # basis^H w, no copy of the basis
            w -= basis @ c
            alpha[j] += c[j].real
        beta[j] = np.linalg.norm(w)
        m = j + 1
        if m >= k and (m >= m_test or beta[j] == 0.0):
            theta, S, passed = _ritz_test(alpha, beta, m, k)
            if passed:
                next_norm = np.linalg.norm(shifted(w)) / beta[j] if beta[j] else 0.0
                if np.all(np.abs(beta[j] * S[m - 1]) * next_norm
                          <= 0.1 * RESIDUAL_TOL * np.abs(theta)):
                    return theta, basis @ S, True
        if beta[j] == 0.0:
            break
        if m < m_max:
            V[:, m] = w / beta[j]
    theta = _ritz_test(alpha, beta, m, k)[0]
    return theta, None, False


def lowest_sparse_eigenpairs(H, k: int, *, shift: float = 0.0):
    """(values, vectors): the k lowest eigenvalues of the sparse Hermitian
    H, ascending, and their unit Ritz vectors as columns.

    H - shift is factored once (see `_factor`) and the shift-invert Lanczos
    (`_lanczos`) applies its inverse from a fixed start vector, so repeated
    calls are deterministic; it returns the k levels just above the shift,
    which are the k lowest when no level lies below it. It stops once the
    values are converged to rounding and each unit Ritz vector v has
    |H v - lambda v| <= RESIDUAL_TOL/10 (the stop rule of `_lanczos`). The
    caller vouches that no level lies at or below the shift (at 0, that H
    is positive definite): no inertia is read, so a shift above the ground
    state returns levels above it, not the lowest. The factor is local to
    the call and freed before it returns or raises, so a caller that solves
    one matrix after another never holds two factors. When the k levels do not
    converge within LANCZOS_MAX_STEPS steps, ConvergenceError carries the
    last Ritz values as `estimates`. A k outside 1..n, or one whose first
    test step min(2k, n) lies past the last step, raises ValueError first.
    """
    n = H.shape[0]
    if not 1 <= k <= n or min(2 * k, n) > LANCZOS_MAX_STEPS:
        raise ValueError(f"cannot take {k} eigenvalues of a matrix of order {n} "
                         f"in {LANCZOS_MAX_STEPS} Lanczos steps")
    lu = _factor(H, shift)
    theta, vecs, converged = _lanczos(lu.solve, lambda v: H @ v - shift * v, n, k, H.dtype)
    del lu                         # a raised error keeps this frame, not the factor
    vals = shift + 1.0 / theta
    order = np.argsort(vals)
    if not converged:
        raise ConvergenceError(
            f"shift-invert Lanczos: the {k} levels above {shift:.6e} did not "
            f"converge in {min(n, LANCZOS_MAX_STEPS)} steps",
            estimates=tuple(float(v) for v in vals[order]))
    return vals[order], vecs[:, order]
