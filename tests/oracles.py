"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the shooting oracle
integrates the Prufer phase ODE (no matrices at all), and the dense oracle
runs the full-QR tridiagonal eigensolver (LAPACK stev) instead of bisection.
The wrapper oracle reaches stebz and stein through scipy's checked
`eigh_tridiagonal`, which the library calls around.
The fiber oracle reduces the 2D operator with an s-independent profile to
one 1D problem per discrete Fourier mode, bypassing the 2D sparse solve.
The band-derivative helpers evaluate the Hellmann-Feynman and
reduced-resolvent quadratures of `montgomery` at points of the tests'
choosing; the large-alpha ratio compares the band with its semiclassical
growth law. These and the remaining helpers are small test-side
computations that the library itself never needs.
"""
import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal

from magwell.model2d import Field2DConfig
from magwell.montgomery import (_hellmann_feynman, _resolvent_d2, family_potential,
                                lambda_m)
from magwell.sl_engine import Grid1D, assemble, eigenvalue_converged, lowest_eigenpairs


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


def dense_eigenvalues(potential, grid: Grid1D, m_count: int) -> np.ndarray:
    """All-eigenvalue QR route (LAPACK stev) on the same discretization."""
    op = assemble(potential, grid)
    vals = eigh_tridiagonal(op.diagonal, op.offdiagonal,
                            eigvals_only=True, lapack_driver="stev")
    return np.sort(vals)[:m_count]


def wrapper_bisect(diag: np.ndarray, off: np.ndarray, m_count: int, vectors: bool):
    """(values, vectors as columns or None) of the m_count lowest levels
    through scipy's `eigh_tridiagonal` wrapper (select="i", stebz driver):
    the route `sl_engine._bisect` replaces with direct LAPACK calls."""
    out = eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="i",
                           select_range=(0, m_count - 1), lapack_driver="stebz")
    return out if vectors else (out, None)


def dense_converged(potential, m: int, half_width: float, n: int) -> float:
    """Richardson-extrapolated continuum eigenvalue through the dense QR
    route on a fixed box: independent of both the Sturm bisection and the
    adaptive truncation logic."""
    c = dense_eigenvalues(potential, Grid1D(half_width, n), m + 1)[m]
    f = dense_eigenvalues(potential, Grid1D(half_width, 2 * (n - 1) + 1), m + 1)[m]
    ff = dense_eigenvalues(potential, Grid1D(half_width, 4 * (n - 1) + 1), m + 1)[m]
    r1 = (4 * f - c) / 3
    r2 = (4 * ff - f) / 3
    # second extrapolation removes the next even order
    return (16 * r2 - r1) / 15


def fiber_eigenvalues(config: Field2DConfig, h: float, mode: int,
                      m_count: int = 2) -> np.ndarray:
    """1D fiber spectrum of the s-independent-profile operator for one
    discrete Fourier mode, built on the same t grid and the same staggered
    link phases as the 2D assembly (so the union over modes reproduces the
    2D spectrum to solver accuracy).

    The fiber potential is the discrete s-symbol
    (2 h^2/ds^2)(1 - cos(2 pi m / n_s - theta(t))), fed through the shared
    1D assembly after dividing by h^2.
    """
    n_s, n_t = config.grid_for(h)
    ds = config.S / n_s
    kappa = 2.0 * np.pi * mode / n_s
    omega_const = float(config.omega(np.array([0.0]))[0])

    def fiber_potential(t):
        theta = ds * t ** (config.k + 1) * omega_const / ((config.k + 1) * h)
        return (2.0 / ds**2) * (1.0 - np.cos(kappa - theta))

    grid = Grid1D(config.T, n_t)
    spec = lowest_eigenpairs(assemble(fiber_potential, grid), m_count)
    return h**2 * spec.eigenvalues


def count_sign_changes(u: np.ndarray, floor: float = 1e-8) -> int:
    """Interior sign changes of a discrete eigenfunction, ignoring samples
    below floor * max|u| (where the decaying tail is pure noise)."""
    v = u[np.abs(u) > floor * np.max(np.abs(u))]
    s = np.sign(v)
    return int(np.sum(s[1:] != s[:-1]))


def reflection_residuals(spectrum) -> np.ndarray:
    """|u(-t) - s u(t)| / |u(t)| for each eigenfunction, with s = +1 for the
    levels labelled even and -1 for those labelled odd."""
    return np.array([
        np.linalg.norm(u[::-1] - (1.0 if p == "even" else -1.0) * u) / np.linalg.norm(u)
        for u, p in zip(spectrum.eigenfunctions, spectrum.parity)])


def dlambda_dalpha(k: int, alpha: float, tol: float = 1e-8) -> float:
    """d lambda_0/d alpha at (k, alpha, beta=1): the Hellmann-Feynman
    quadrature -2 sum(w u0^2) dt on the grid of a converged solve."""
    _, spec = eigenvalue_converged(family_potential(k, alpha), 0, tol)
    return _hellmann_feynman(k, alpha, spec)


def d2_on_grid(k: int, alpha: float, grid: Grid1D) -> float:
    """Second alpha-derivative of the lowest discrete band on a fixed grid,
    through the reduced resolvent."""
    op = assemble(family_potential(k, alpha), grid)
    return _resolvent_d2(k, alpha, op, lowest_eigenpairs(op, 1))


def large_alpha_ratio(k: int, alpha: float, tol: float = 1e-6) -> float:
    """lambda_0(alpha, 1) over its leading growth ((k+1) alpha)^{k/(k+1)}
    for odd k and alpha -> +infinity: the wells sit at t* with
    t*^{k+1}/(k+1) = alpha, where the harmonic frequency is t*^k."""
    return lambda_m(k, alpha, 1.0, 0, tol) / ((k + 1) * alpha) ** (k / (k + 1))
