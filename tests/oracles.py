"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the shooting oracle
integrates the Prufer phase ODE (no matrices at all); the finite-difference
oracles discretise -u'' + V u by the three-point stencil on a uniform grid,
assembled here (the library solves in a sine basis), and solve it by
tridiagonal QR or bisection through scipy's `eigh_tridiagonal`; the Hermite
oracle is Rayleigh-Ritz in Hermite functions. `band_minimum_oracle` gives
the five band-minimum columns by the Hermite route for k <= 3 and by
Richardson extrapolation over a pair of finite-difference grids for k >= 4,
with d2 from the bordered reduced-resolvent system there.
The fiber oracle reduces the 2D operator with an s-independent profile to
one 1D problem per discrete Fourier mode, bypassing the 2D sparse solve;
`reflection_blocks` splits the 2D operator by the reflection t -> -t with
explicit isometries Q, the reference for the reflection blocks that the
library assembles from the lower half of the grid.
`inertia_below` counts the levels of a sparse Hermitian matrix below a
point by Sylvester inertia of a symmetric SuperLU factor. `cut_lower_bound`
is the generic Dirichlet-Neumann lower bound that drops any set of links:
the reference for the bands of the banded lower bound with which the 2D
solver certifies a shift (`model2d._bound_clears`).
The large-alpha ratio compares the band with its semiclassical growth law.
`gauss_legendre_reference` is the quadrature rule of `sl_engine._rule` with
its Golub-Welsch nodes from LAPACK's tridiagonal solver, which the library
takes from numpy's dense `eigvalsh` instead.
These and the remaining helpers are small test-side computations that the
library itself never needs.
"""
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.sparse.linalg import splu

from magwell import _shift_invert
from magwell.model2d import Field2DConfig
from magwell.montgomery import _shifted_gauge, family_potential, lambda_m
from magwell.sl_engine import eigenvalue_converged


def prufer_phase(V, lam, L):
    """Total Prufer phase of -u'' + V u at energy lam across [-L, L].

    u = r sin(theta), u' = r cos(theta) gives the first-order equation
    theta' = cos^2 theta + (lam - V) sin^2 theta with theta(-L) = 0; lam is
    the m-th Dirichlet eigenvalue iff theta(L) = (m+1) pi, and theta(L) is
    strictly increasing in lam. The radial factor never appears, so the
    barrier regions cause no overflow.
    """
    def rhs(t, th):
        s = np.sin(th[0])
        c = np.cos(th[0])
        return [c * c + (lam - V(t)) * s * s]

    sol = solve_ivp(rhs, (-L, L), [0.0], rtol=1e-11, atol=1e-12, method="LSODA")
    return sol.y[0][-1]


def shooting_eigenvalue(V, m, L, lo, hi, tol=1e-10):
    target = (m + 1) * np.pi
    assert prufer_phase(V, lo, L) < target < prufer_phase(V, hi, L), \
        "bracket does not contain the eigenvalue"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if prufer_phase(V, mid, L) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# finite differences

def fd_operator(potential, half_width: float, n: int):
    """(diagonal, off-diagonal, interior points, spacing) of the
    central-difference -d^2/dt^2 + V on the uniform n-point grid of
    [-L, L], Dirichlet at the ends. The points are L (2i - (n-1))/(n-1), so
    the grid is mirror-symmetric bit for bit."""
    t = half_width * (2.0 * np.arange(n) - (n - 1)) / (n - 1)
    dt = 2.0 * half_width / (n - 1)
    ti = t[1:-1]
    diag = 2.0 / dt**2 + np.asarray(potential(ti), dtype=float)
    return diag, np.full(n - 3, -1.0 / dt**2), ti, dt


def dense_eigenvalues(potential, half_width: float, n: int, m_count: int) -> np.ndarray:
    """All-eigenvalue QR route (LAPACK stev) on the n-point grid."""
    diag, off, _, _ = fd_operator(potential, half_width, n)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stev")
    return np.sort(vals)[:m_count]


def dense_converged(potential, m: int, half_width: float, n: int) -> float:
    """Richardson-extrapolated continuum eigenvalue through the dense QR
    route on a fixed box: independent of both the sine basis and the
    adaptive truncation logic."""
    c = dense_eigenvalues(potential, half_width, n, m + 1)[m]
    f = dense_eigenvalues(potential, half_width, 2 * (n - 1) + 1, m + 1)[m]
    ff = dense_eigenvalues(potential, half_width, 4 * (n - 1) + 1, m + 1)[m]
    r1 = (4 * f - c) / 3
    r2 = (4 * ff - f) / 3
    # second extrapolation removes the next even order
    return (16 * r2 - r1) / 15


def fd_band(k: int, alpha: float, half_width: float, n: int):
    """(lambda_0, lambda_1, lambda_2, g, d2) of the finite-difference family
    operator on the n-point grid: g is the Hellmann-Feynman sum
    -2 sum(w u0^2) dt with w = t^{k+1}/(k+1) - alpha, the exact derivative
    of the discrete level, and d2 = 2 - 4 sum(w u0 x) dt with x from the
    bordered system [[T - lambda_0, u0], [u0^T, 0]] [x, mu] = [2 w u0, 0],
    which puts x orthogonal to u0, solved by sparse LU."""
    diag, off, t, dt = fd_operator(family_potential(k, alpha), half_width, n)
    lam, vec = eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
    u = vec[:, 0] / np.sqrt(dt)
    w = _shifted_gauge(k, alpha, t)
    tri = sp.diags([off, diag - lam[0], off], [-1, 0, 1])
    bordered = sp.bmat([[tri, u[:, None]], [u[None, :], None]], format="csc")
    x = splu(bordered, permc_spec="NATURAL").solve(np.r_[2.0 * w * u, 0.0])[:-1]
    return (*lam, -2.0 * float(np.sum(w * u * u) * dt),
            2.0 - 4.0 * float(np.sum(w * u * x) * dt))


# ---------------------------------------------------------------------------
# Hermite functions

def hermite_band(k: int, alpha: float, size: int = 160, scale: float = 0.6):
    """(levels, vectors as columns, G) of -d^2/dt^2 + (G - alpha)^2 with
    G = t^{k+1}/(k+1), by Rayleigh-Ritz in the Hermite functions
    psi_n(t/scale), n < size. Position is tridiagonal in that basis; the
    products are formed in a basis 2k + 4 larger, so the leading size x size
    block of every matrix is exact."""
    big = size + 2 * k + 4
    root = np.sqrt(np.arange(1, big) / 2.0)
    x = np.diag(root, 1) + np.diag(root, -1)
    p2 = np.diag(2.0 * np.arange(big) + 1.0) - x @ x
    g = np.linalg.matrix_power(scale * x, k + 1) / (k + 1)
    shifted = g - alpha * np.eye(big)
    h = p2 / scale**2 + shifted @ shifted
    lam, vec = np.linalg.eigh(h[:size, :size])
    return lam, vec, g[:size, :size]


def _hermite_slope(k: int, alpha: float) -> float:
    _, vec, g = hermite_band(k, alpha)
    u = vec[:, 0]
    return -2.0 * float(u @ g @ u - alpha)


def _hermite_columns(k: int) -> dict:
    """alpha_min as the root of the Hermite Hellmann-Feynman slope (secant
    steps), d2 as its central difference extrapolated over steps 2e-3 and
    1e-3, the levels from the basis at the root."""
    a0, a1 = 0.0, 0.3
    g0, g1 = _hermite_slope(k, a0), _hermite_slope(k, a1)
    for _ in range(40):
        if g1 == g0 or abs(a1 - a0) < 1e-14:
            break
        a0, a1, g0 = a1, a1 - g1 * (a1 - a0) / (g1 - g0), g1
        g1 = _hermite_slope(k, a1)

    def central(delta):
        return (_hermite_slope(k, a1 + delta) - _hermite_slope(k, a1 - delta)) / (2 * delta)

    lam = hermite_band(k, a1)[0]
    return {"alpha_min": a1, "nu_hat": lam[0], "lambda1": lam[1], "lambda2": lam[2],
            "d2": (4.0 * central(1e-3) - central(2e-3)) / 3.0}


def _fd_columns(k: int) -> dict:
    """The five columns on the box where the potential at alpha = 0 reaches
    1e4, (100 (k+1))^{1/(k+1)}, at 4097 and 8193 points, combined by one
    Richardson step; alpha_min is Newton's root of each grid's g, with d2
    as the slope."""
    half_width = (100.0 * (k + 1)) ** (1.0 / (k + 1))
    per_grid = []
    for n in (4097, 8193):
        alpha = 0.1
        for _ in range(30):
            lam0, lam1, lam2, g, d2 = fd_band(k, alpha, half_width, n)
            if abs(g / d2) < 1e-11:     # g carries rounding near 1e-12
                break
            alpha -= g / d2
        per_grid.append(np.array([alpha, lam0, lam1, lam2, d2]))
    coarse, fine = per_grid
    names = ("alpha_min", "nu_hat", "lambda1", "lambda2", "d2")
    return dict(zip(names, (4.0 * fine - coarse) / 3.0))


@lru_cache(maxsize=None)
def band_minimum_oracle(k: int) -> dict:
    """alpha_min, nu_hat, lambda1, lambda2 and d2 of the band minimum at k,
    by routes that share no code with `montgomery.minimizer_state`."""
    return _hermite_columns(k) if k <= 3 else _fd_columns(k)


def fiber_eigenvalues(config: Field2DConfig, h: float, mode: int,
                      m_count: int = 2) -> np.ndarray:
    """1D fiber spectrum of the s-independent-profile operator for one
    discrete Fourier mode, built on the same t grid and the same staggered
    link phases as the 2D assembly (so the union over modes reproduces the
    2D spectrum to solver accuracy).

    The fiber potential is the discrete s-symbol
    (2 h^2/ds^2)(1 - cos(2 pi m / n_s - theta(t))), fed through the
    finite-difference assembly after dividing by h^2.
    """
    n_s, n_t = config.grid_for(h)
    ds = config.S / n_s
    kappa = 2.0 * np.pi * mode / n_s
    omega_const = float(config.omega(np.array([0.0]))[0])

    def fiber_potential(t):
        theta = ds * t ** (config.k + 1) * omega_const / ((config.k + 1) * h)
        return (2.0 / ds**2) * (1.0 - np.cos(kappa - theta))

    diag, off, _, _ = fd_operator(fiber_potential, config.T, n_t)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                            select_range=(0, m_count - 1))
    return h**2 * vals


def reflection_blocks(operator):
    """The isometries Q that split the 2D operator H = `operator.hermitian`
    by the reflection t -> -t, as sparse matrices over the whole grid; the
    library assembles the exact blocks Q^T H Q from the lower half of the
    grid instead (`model2d.reflection_block`), which the rounded product
    Q.T @ H @ Q matches to a few eps.

    When P H P == H holds bit for bit, with P the reflection of the interior
    t rows, this returns [("even", Q_even), ("odd", Q_odd)]. The columns of
    Q_even are (e_i + e_Pi)/sqrt(2) over the row pairs and e_i on the centre
    row (odd interior count); those of Q_odd are (e_i - e_Pi)/sqrt(2).
    Without the symmetry the operator stays one block: [("full", None)].
    """
    H = operator.hermitian
    n_s, nt = operator.n_s, operator.n_t - 2
    i = np.arange(nt)[:, None]
    j = np.arange(n_s)[None, :]
    mirror = ((nt - 1 - i) * n_s + j).ravel()
    if (H[mirror][:, mirror] != H).nnz:
        return [("full", None)]
    N = H.shape[0]
    lo = (i[:nt // 2] * n_s + j).ravel()
    hi = mirror[:lo.size]
    col = np.arange(lo.size)
    w = np.full(lo.size, np.sqrt(0.5))
    centre = np.arange(lo.size, N - lo.size)    # the centre row, if any
    Q_even = sp.csr_matrix((np.concatenate([w, w, np.ones(centre.size)]),
                            (np.concatenate([lo, hi, centre]),
                             np.concatenate([col, col, centre]))),
                           shape=(N, N - lo.size))
    Q_odd = sp.csr_matrix((np.concatenate([w, -w]),
                           (np.concatenate([lo, hi]), np.concatenate([col, col]))),
                          shape=(N, lo.size))
    return [("even", Q_even), ("odd", Q_odd)]


def inertia_below(H, x: float) -> int:
    """The number of eigenvalues of the sparse Hermitian H below x, by
    Sylvester's law of inertia: the negative pivots of the factor of
    H - x that the solver makes (`_shift_invert._factor`), which is
    symmetric, P (H - x) P^T = L D L^H with U = D L^H. Reading `lu.U`
    makes SuperLU copy L and U. A factor that is not symmetric
    (perm_r != perm_c) or has a zero or non-finite pivot fails the test
    that asks."""
    lu = _shift_invert._factor(H, x)
    assert np.array_equal(lu.perm_r, lu.perm_c), "the factor is not symmetric"
    d = lu.U.diagonal().real
    assert np.all(np.isfinite(d)) and np.all(d != 0.0), "a pivot is zero or not finite"
    return int(np.count_nonzero(d < 0.0))


def cut_lower_bound(H, cut) -> sp.csr_matrix:
    """H_cut <= H for the sparse Hermitian H: every entry (r, c) of its COO
    form where the mask `cut` holds (a mask symmetric under r <-> c) is
    dropped and |H_rc| is subtracted from the diagonal entry r, so from
    both diagonal entries of a dropped pair. H - H_cut is then the sum over
    the dropped pairs of the 2x2 forms [[|a|, a], [conj(a), |a|]], each
    positive semidefinite: a discrete Dirichlet-Neumann bracketing (Reed and
    Simon IV, XIII.15). Each eigenvalue of H_cut lies at or below the
    matching one of H, so H_cut has at least as many eigenvalues below any
    x as H."""
    C = H.tocoo()
    loss = np.bincount(C.row[cut], weights=np.abs(C.data[cut]), minlength=H.shape[0])
    keep = ~cut
    kept = sp.csr_matrix((C.data[keep], (C.row[keep], C.col[keep])), shape=H.shape)
    return (kept - sp.diags(loss, dtype=float)).tocsr()


def gauss_legendre_reference(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 2 size + 64 point Gauss-Legendre rule: the
    positive eigenvalues of the Legendre Jacobi matrix by scipy's
    `eigvalsh_tridiagonal`, two Newton steps on P_q, the weights
    2/((1 - x^2) P_q'^2), and the mirror image of both."""
    q = 2 * size + 64
    j = np.arange(1.0, q)
    x = eigvalsh_tridiagonal(np.zeros(q), j / np.sqrt(4.0 * j * j - 1.0))[q // 2:]
    for _ in range(2):
        p_prev, p = np.ones_like(x), x
        for n in range(1, q):
            p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        dp = q * (p_prev - x * p) / (1.0 - x * x)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.r_[-x[::-1], x], np.r_[w[::-1], w]


def count_sign_changes(u: np.ndarray, floor: float = 1e-8) -> int:
    """Interior sign changes of an eigenfunction sampled at ascending t,
    ignoring samples below floor * max|u| (where the decaying tail is pure
    noise)."""
    v = u[np.abs(u) > floor * np.max(np.abs(u))]
    s = np.sign(v)
    return int(np.sum(s[1:] != s[:-1]))


def reflection_residuals(spectrum) -> np.ndarray:
    """|u(-t) - s u(t)| / |u(t)| at the mirror-symmetric nodes for each
    eigenfunction, with s = +1 for the levels labelled even and -1 for those
    labelled odd."""
    return np.array([
        np.linalg.norm(u[::-1] - (1.0 if p == "even" else -1.0) * u) / np.linalg.norm(u)
        for u, p in zip(spectrum.eigenfunctions, spectrum.parity)])


def dlambda_dalpha(k: int, alpha: float, tol: float = 1e-8) -> float:
    """d lambda_0/d alpha at (k, alpha, beta=1): the Hellmann-Feynman
    quadrature -2 sum(weights w u0^2) at the nodes of a converged solve."""
    _, spec = eigenvalue_converged(family_potential(k, alpha), 0, tol)
    u = spec.eigenfunctions[0]
    return -2.0 * float(np.sum(spec.weights * _shifted_gauge(k, alpha, spec.nodes) * u * u))


def large_alpha_ratio(k: int, alpha: float, tol: float = 1e-6) -> float:
    """lambda_0(alpha, 1) over its leading growth ((k+1) alpha)^{k/(k+1)}
    for odd k and alpha -> +infinity: the wells sit at t* with
    t*^{k+1}/(k+1) = alpha, where the harmonic frequency is t*^k."""
    return lambda_m(k, alpha, 1.0, 0, tol) / ((k + 1) * alpha) ** (k / (k + 1))
