"""Band-function analysis for the one-parameter operator family

    Q(alpha, beta) = -d^2/dt^2 + (beta t^{k+1}/(k+1) - alpha)^2

on the line: scaling reduction to beta=1, minimization of the lowest band
lambda_0(alpha, 1) over alpha, eigenvalue derivatives in alpha, the
stationarity and norm identities satisfied at the minimum, non-degeneracy
criteria for the second derivative, and profile exports.

The coarse scan that brackets the band minimum takes values-only solves on
one fixed grid per k; everything it reports reduces to converged 1D
eigenpairs from `sl_engine`. Quadratures use the plain spacing-weighted sum
on the converged grid, which is exactly the discrete Hellmann-Feynman
pairing of the assembled matrix. The band minimum is the root of that
derivative on a fixed grid, found by Newton's method with the exact
discrete second derivative (the reduced resolvent) as its slope, so the
stationarity residual is at rounding level, not at grid level. For even k
the band is even in alpha (Montgomery, CMP 168, 1995), and its minimum is
taken at alpha = 0 exactly: there the potential is even bit for bit, so
every solve is split by parity, and the Newton run stops where it starts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .sl_engine import (
    ROUGH_GRID_POINTS,
    ConvergenceError,
    Grid1D,
    SolverError,
    Spectrum1D,
    TridiagonalOperator,
    _eigenvalues_only,
    _initial_half_width,
    assemble,
    eigenvalue_converged,
    lowest_eigenpairs,
)

SCAN_POINTS = 40                 # coarse-scan samples over the bracketing range
HF_TOL = 1e-5                    # largest stationarity residual a report may carry
D2_SLACK = 1e-3                  # how far d2 may fall below its condik lower bound
ALPHA_EVEN_TOL = 1e-4            # largest |alpha_min| a report for even k may carry


def _shifted_gauge(k: int, alpha: float, t: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """beta t^{k+1}/(k+1) - alpha, the gauge shifted by the momentum alpha.
    The power is taken of t*t, times t for even k, so on a mirror-symmetric
    grid its samples are even (odd k) or odd (even k) bit for bit; numpy's
    t ** 3, t ** 4, t ** 5, ... are not."""
    power = (t * t) ** ((k + 1) // 2) if k % 2 else t * (t * t) ** (k // 2)
    return beta * power / (k + 1) - alpha


def family_potential(k: int, alpha: float,
                     beta: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """The confining potential (beta t^{k+1}/(k+1) - alpha)^2; its samples
    are even in t bit for bit for odd k, and for even k at alpha = 0, so
    `sl_engine` splits the operator by parity there."""
    return lambda t: _shifted_gauge(k, alpha, t, beta) ** 2


def lambda_m(k: int, alpha: float, beta: float, m: int, tol: float = 1e-8) -> float:
    """m-th eigenvalue of Q(alpha, beta) via the exact scaling reduction

        lambda(alpha, beta) = beta^{2/(k+2)} lambda(beta^{-1/(k+2)} alpha, 1)

    for beta > 0 (a unitary dilation, hence valid for every eigenvalue).

    beta < 0 is removed first: for even k the substitution t -> -t flips the
    sign of t^{k+1} (so beta -> -beta at the same alpha), while for odd k
    t^{k+1} is even and the global sign flip of the linear expression gives
    lambda(alpha, beta) = lambda(-alpha, -beta) instead.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k}")
    if beta == 0:
        raise ValueError("beta must be nonzero")
    if beta < 0:
        beta = -beta
        if k % 2 == 1:
            alpha = -alpha
    scale = beta ** (2.0 / (k + 2))
    alpha1 = beta ** (-1.0 / (k + 2)) * alpha
    value, _ = eigenvalue_converged(family_potential(k, alpha1), m, tol / scale)
    return scale * value


# ---------------------------------------------------------------------------
# fixed-grid discrete band function helpers

def _hellmann_feynman(k: int, alpha: float, spectrum: Spectrum1D) -> float:
    """-2 sum(w u0^2) dt with w = t^{k+1}/(k+1) - alpha: the spacing-weighted
    Hellmann-Feynman quadrature, which is the exact alpha-derivative of the
    lowest discrete eigenvalue on the spectrum's grid."""
    grid = spectrum.grid
    u = spectrum.eigenfunctions[0]
    w = _shifted_gauge(k, alpha, grid.interior_points())
    return -2.0 * float(np.sum(w * u * u) * grid.spacing)


def _discrete_hf(k: int, alpha: float, grid: Grid1D) -> tuple[float, float]:
    """(d lambda_0/d alpha, lambda_0) of the discrete operator on the grid."""
    spec = lowest_eigenpairs(assemble(family_potential(k, alpha), grid), 1)
    return _hellmann_feynman(k, alpha, spec), float(spec.eigenvalues[0])


def _resolvent_d2(k: int, alpha: float, op: TridiagonalOperator,
                  spectrum: Spectrum1D) -> float:
    """2 - 4 <w u0, x>, the discrete second alpha-derivative of the lowest
    band (w = t^{k+1}/(k+1) - alpha), where x = du0/dalpha solves
    (T - lambda_0) x = 2 w u0 on span{u0}^perp. The system is shifted
    1e-10 |lambda_0| off the eigenvalue; the u0 component excited through
    that shift is projected away, two steps of iterative refinement remove
    the rest, and a relative residual above 1e-9 raises."""
    grid = op.grid
    dt = grid.spacing
    t = grid.interior_points()
    u = spectrum.eigenfunctions[0]
    lam = float(spectrum.eigenvalues[0])
    w = _shifted_gauge(k, alpha, t)
    rhs = 2.0 * w * u
    rhs -= (np.sum(rhs * u) * dt) * u

    n = op.size
    ab = np.zeros((3, n))
    ab[0, 1:] = op.offdiagonal
    ab[1, :] = op.diagonal - (lam + 1e-10 * abs(lam))
    ab[2, :-1] = op.offdiagonal
    x = solve_banded((1, 1), ab, rhs)
    x -= (np.sum(x * u) * dt) * u
    for _ in range(2):
        r = rhs - (op.matvec(x) - lam * x)
        dx = solve_banded((1, 1), ab, r)
        x += dx
        x -= (np.sum(x * u) * dt) * u
    resid = float(np.linalg.norm(op.matvec(x) - lam * x - rhs)
                  / np.linalg.norm(rhs))
    if resid > 1e-9:
        raise SolverError(f"reduced-resolvent solve stalled: residual {resid:.2e}")
    return 2.0 - 4.0 * float(np.sum(w * u * x) * dt)


# ---------------------------------------------------------------------------
# band minimization

@dataclass(frozen=True)
class MinimizerReport:
    """Converged facts about the band minimum for one k."""

    k: int
    alpha_min: float
    nu_hat: float
    lambda1: float
    lambda2: float
    d2: float
    d2_lower_bound: float
    condik_holds: bool
    condik_margin: float
    condik_odd_holds: Optional[bool]
    condik_odd_margin: Optional[float]
    norm_identity_residual: float
    hf_residual: float
    local_minima_scan: tuple[tuple[float, float], ...]

    def validate(self) -> None:
        """Raise SolverError on a report the theory rules out; this includes
        d2 more than D2_SLACK below the lower bound that the criterion
        (k+2) lambda_1 > (k+6) nu_hat implies when it holds."""
        if self.nu_hat < 0:
            raise SolverError(f"nu_hat negative: {self.nu_hat}")
        if not self.lambda1 > self.nu_hat:
            raise SolverError("lambda1 must exceed nu_hat")
        if self.hf_residual > HF_TOL:
            raise SolverError(f"stationarity residual too large: {self.hf_residual:.2e}")
        if self.k % 2 == 0 and abs(self.alpha_min) > ALPHA_EVEN_TOL:
            raise SolverError(
                f"even k={self.k} expected alpha_min ~ 0, got {self.alpha_min}")
        if self.condik_holds and self.d2 < self.d2_lower_bound - D2_SLACK:
            raise SolverError(
                f"k={self.k}: d2 {self.d2:.6f} below its lower bound "
                f"{self.d2_lower_bound:.6f}")


@dataclass(frozen=True)
class MinimizerState:
    """MinimizerReport plus the converged grid data the report came from."""

    report: MinimizerReport
    spectrum: Spectrum1D          # three eigenpairs at alpha_min on the final grid


def _stationary_alpha(k: int, grid: Grid1D, lo: float, hi: float,
                      start: float) -> float:
    """Root of g = d lambda_0/d alpha of the discrete operator on a fixed
    grid, inside a bracket with g(lo) < 0 < g(hi).

    Newton's method with the exact slope d2 from `_resolvent_d2`; each
    iterate shrinks the bracket, and a step that would leave it (or a slope
    that is not positive) is replaced by bisection. Stops when a step falls
    below 1e-13 or |g| below 1e-12. Raises ConvergenceError when g does not
    change sign over the bracket, or when the iteration cap is reached; the
    latter carries the last two iterates as `estimates`.
    """
    g_lo, g_hi = _discrete_hf(k, lo, grid)[0], _discrete_hf(k, hi, grid)[0]
    if not g_lo < 0.0 < g_hi:
        raise ConvergenceError(
            f"k={k}: d lambda_0/d alpha does not change sign on "
            f"[{lo:.6g}, {hi:.6g}] (g = {g_lo:.3e}, {g_hi:.3e})")
    alpha = start
    for _ in range(60):     # bisection alone shrinks any scan bracket below 1e-13
        op = assemble(family_potential(k, alpha), grid)
        spec = lowest_eigenpairs(op, 1)
        g = _hellmann_feynman(k, alpha, spec)
        if abs(g) < 1e-12:
            return alpha
        lo, hi = (alpha, hi) if g < 0.0 else (lo, alpha)
        d2 = _resolvent_d2(k, alpha, op, spec)
        step = -g / d2 if d2 > 0.0 else np.inf
        if not lo < alpha + step < hi:
            step = 0.5 * (lo + hi) - alpha
        prev, alpha = alpha, alpha + step
        if abs(step) < 1e-13:
            return alpha
    raise ConvergenceError(
        f"k={k}: stationary-point solve not converged after 60 steps; "
        f"last alpha {alpha:.15g}, d lambda_0/d alpha {g:.3e}",
        estimates=(float(prev), float(alpha)))


def _scan_brackets(alphas: np.ndarray, vals: np.ndarray) -> tuple[int, list[int]]:
    """Index of the smallest scan value, and the indices of every interior
    local minimum of the scan. Raises ConvergenceError when the smallest
    value sits on the scan boundary."""
    i_min = int(np.argmin(vals))
    if i_min in (0, len(vals) - 1):
        raise ConvergenceError(
            f"band minimum at scan boundary alpha={alphas[i_min]:.3f}; "
            "scan range too small")
    brackets = [i for i in range(1, len(vals) - 1)
                if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]]
    return i_min, brackets


def _scan_values(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(alphas, lambda_0 of the discrete operator at each) at SCAN_POINTS
    values of alpha over [-1, 2 + k], solved values-only on the one grid
    that `minimizer_state` describes."""
    alphas = np.linspace(-1.0, 2.0 + k, SCAN_POINTS)     # generous bracket
    L = max(_initial_half_width(family_potential(k, a), 0)
            for a in (alphas[0], alphas[-1]))
    grid = Grid1D(1.5 * L, ROUGH_GRID_POINTS)
    vals = np.array([_eigenvalues_only(assemble(family_potential(k, a), grid), 1)[0]
                     for a in alphas])
    return alphas, vals


def minimizer_state(k: int, tol: float = 1e-6) -> MinimizerState:
    """Locate the band minimum and populate every derived quantity.

    Stages: coarse scan of lambda_0(alpha, 1) over [-1, 2 + k] on one fixed
    grid (`_scan_values`); for every interior local minimum of the scan, the
    root of the discrete Hellmann-Feynman derivative in the scan bracket
    around it on a frozen reference grid (`_stationary_alpha`, started at
    the scan point), converged once; for even k a bracket that holds 0
    takes alpha = 0 exactly instead, as the band is even in alpha, and the
    reference grid is solved for only when some bracket still needs it.
    Then a converged solve at the global minimizer, tracking nu_hat,
    lambda_1 and lambda_2 at tol/10; on its grid the root is solved for
    again in the same bracket, started at the minimizer. When that moves
    it, a second such solve at the new root follows (for even k at 0 it
    does not, since g(0) vanishes to rounding there). The last solve gives
    the three levels, the eigenpairs, and the grid on which the identities
    and non-degeneracy data are evaluated. An even-k minimisation so makes
    two converged solves, both split by parity, and one Newton run; an odd-k
    one makes four and two.

    The scan values are never reported; they only pick the brackets, so
    the scan is not converged. Its one grid has the ROUGH_GRID_POINTS (257)
    points of the `_initial_half_width` grids, on 1.5 L, where L is the
    larger box `_initial_half_width` picks at alpha = -1 and alpha = 2 + k:
    the wells of every alpha in between lie inside it. A bracket that such
    a coarse scan gets wrong cannot pass silently, since `_stationary_alpha`
    raises ConvergenceError unless d lambda_0/d alpha changes sign over it.

    Nothing is cached: a caller that needs the state twice keeps the
    returned (immutable) value and passes it on.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    alphas, vals = _scan_values(k)
    i_min, brackets = _scan_brackets(alphas, vals)

    ref_grid = None      # frozen reference grid at the scan minimizer, when needed
    local_minima = []
    for i in brackets:
        if k % 2 == 0 and alphas[i - 1] < 0.0 < alphas[i + 1]:
            a_loc = 0.0          # the band is even in alpha
        else:
            if ref_grid is None:
                ref_grid = eigenvalue_converged(family_potential(k, alphas[i_min]), 0,
                                                min(tol, 1e-6) / 10.0)[1].grid
            a_loc = _stationary_alpha(k, ref_grid, alphas[i - 1], alphas[i + 1],
                                      alphas[i])
        lam_loc, _ = eigenvalue_converged(family_potential(k, a_loc), 0, tol)
        local_minima.append((float(a_loc), float(lam_loc)))
    i, (alpha_min, _) = min(zip(brackets, local_minima), key=lambda b: b[1][1])

    _, spec = eigenvalue_converged(family_potential(k, alpha_min), 2, tol / 10.0)
    root = _stationary_alpha(k, spec.grid, alphas[i - 1], alphas[i + 1], alpha_min)
    if root != alpha_min:
        alpha_min = root
        _, spec = eigenvalue_converged(family_potential(k, alpha_min), 2, tol / 10.0)
    nu_hat, lam1, lam2 = spec.extrapolants
    grid = spec.grid
    op = assemble(family_potential(k, alpha_min), grid)

    t = grid.interior_points()
    dt = grid.spacing
    u0 = spec.eigenfunctions[0]
    w = _shifted_gauge(k, alpha_min, t)
    hf_residual = abs(_hellmann_feynman(k, alpha_min, spec))
    norm_residual = abs(float(np.sum(w * w * u0 * u0) * dt) - nu_hat / (k + 2))

    d2 = _resolvent_d2(k, alpha_min, op, spec)

    bound = 2.0 * ((k + 2) * lam1 - (k + 6) * nu_hat) / ((k + 2) * (lam1 - nu_hat))
    margin = (k + 2) * lam1 - (k + 6) * nu_hat
    if k % 2 == 1:
        odd_margin = (k + 2) * lam2 - (k + 6) * nu_hat
        condik_odd_holds, condik_odd_margin = bool(odd_margin > 0), float(odd_margin)
    else:
        condik_odd_holds, condik_odd_margin = None, None

    report = MinimizerReport(
        k=k,
        alpha_min=float(alpha_min),
        nu_hat=float(nu_hat),
        lambda1=float(lam1),
        lambda2=float(lam2),
        d2=float(d2),
        d2_lower_bound=float(bound),
        condik_holds=bool(margin > 0),
        condik_margin=float(margin),
        condik_odd_holds=condik_odd_holds,
        condik_odd_margin=condik_odd_margin,
        norm_identity_residual=float(norm_residual),
        hf_residual=float(hf_residual),
        local_minima_scan=tuple(local_minima),
    )
    report.validate()
    return MinimizerState(report=report, spectrum=spec)


# ---------------------------------------------------------------------------
# profiles

@dataclass(frozen=True)
class ProfileTable:
    """Sampled band profile with its quadratic approximation at the minimum."""

    alpha: np.ndarray
    lambda0: np.ndarray
    lambda_quad: np.ndarray


def profile(report: MinimizerReport, alpha_range: tuple[float, float],
            n_samples: int) -> ProfileTable:
    """Tabulate lambda_0(alpha, 1) and the quadratic approximation

        lambda_quad(alpha) = nu_hat + (d2/2) (alpha - alpha_min)^2

    over alpha_range (lambda_0 converged to 1e-6), for the k of the given
    band-minimum report. lambda_quad(alpha_min) equals nu_hat by construction.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_samples)
    lam = np.array([eigenvalue_converged(family_potential(report.k, a), 0, 1e-6)[0]
                    for a in alphas])
    quad = report.nu_hat + 0.5 * report.d2 * (alphas - report.alpha_min) ** 2
    return ProfileTable(alpha=alphas, lambda0=lam, lambda_quad=quad)
