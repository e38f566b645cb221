"""Band-function analysis for the one-parameter operator family

    Q(alpha, beta) = -d^2/dt^2 + (beta t^{k+1}/(k+1) - alpha)^2

on the line: scaling reduction to beta=1, minimization of the lowest band
lambda_0(alpha, 1) over alpha, eigenvalue derivatives in alpha, the
stationarity and norm identities satisfied at the minimum, non-degeneracy
criteria for the second derivative, and profile exports.

Everything reduces to converged 1D eigenpairs from `sl_engine`; quadratures
use the plain spacing-weighted sum on the converged grid, which is exactly
the discrete Hellmann-Feynman pairing of the assembled matrix (so the
stationarity residual of a polished minimizer is at rounding level, not at
grid level).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .sl_engine import (
    ConfiningPotential,
    ConvergenceError,
    Grid1D,
    SolverError,
    Spectrum1D,
    TridiagonalOperator,
    _eigenvalues_only,
    assemble,
    eigenvalue_converged,
    lowest_eigenpairs,
)

GOLDEN_ALPHA_TOL = 1e-6          # alpha resolution of the golden-section stage
SCAN_POINTS = 40                 # coarse-scan samples over the bracketing range
HF_TOL = 1e-5                    # largest stationarity residual a report may carry
D2_SLACK = 1e-3                  # how far d2 may fall below its condik lower bound
ALPHA_EVEN_TOL = 1e-4            # largest |alpha_min| a report for even k may carry
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ModelParams:
    """One member of the operator family: (k, alpha, beta)."""

    k: int
    alpha: float
    beta: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if self.beta == 0:
            raise ValueError("beta must be nonzero")


def _shifted_gauge(k: int, alpha: float, t: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """beta t^{k+1}/(k+1) - alpha, the gauge shifted by the momentum alpha.
    For odd k the power is taken of t*t, so the samples on a mirror-symmetric
    grid are even bit for bit (numpy's t ** 4, t ** 6 and t ** 8 are not)."""
    power = (t * t) ** ((k + 1) // 2) if k % 2 else t ** (k + 1)
    return beta * power / (k + 1) - alpha


def family_potential(k: int, alpha: float, beta: float = 1.0) -> ConfiningPotential:
    """The confining potential (beta t^{k+1}/(k+1) - alpha)^2; for odd k its
    samples are even in t bit for bit, so `sl_engine` splits the operator by
    parity."""
    return ConfiningPotential(lambda t: _shifted_gauge(k, alpha, t, beta) ** 2)


def reduce_to_unit_beta(params: ModelParams) -> tuple[float, float]:
    """Map (k, alpha, beta) to the equivalent (alpha', beta'=|beta|) problem.

    beta < 0 is removed first: for even k the substitution t -> -t flips the
    sign of t^{k+1} (so beta -> -beta at the same alpha), while for odd k
    t^{k+1} is even and the global sign flip of the linear expression gives
    lambda(alpha, beta) = lambda(-alpha, -beta) instead.
    """
    alpha, beta = params.alpha, params.beta
    if beta < 0:
        beta = -beta
        if params.k % 2 == 1:
            alpha = -alpha
    return alpha, beta


def lambda_m(params: ModelParams, m: int, tol: float = 1e-8) -> float:
    """m-th eigenvalue of Q(alpha, beta) via the exact scaling reduction

        lambda(alpha, beta) = beta^{2/(k+2)} lambda(beta^{-1/(k+2)} alpha, 1)

    for beta > 0 (a unitary dilation, hence valid for every eigenvalue).
    """
    alpha, beta = reduce_to_unit_beta(params)
    k = params.k
    scale = beta ** (2.0 / (k + 2))
    alpha1 = beta ** (-1.0 / (k + 2)) * alpha
    value, _ = eigenvalue_converged(family_potential(k, alpha1), m, tol / scale)
    return scale * value


def lambda_m_direct(params: ModelParams, m: int, tol: float = 1e-8) -> float:
    """m-th eigenvalue computed with beta kept inside the potential.

    Bypasses the scaling reduction; exists so the scaling relation can be
    verified against an independent route.
    """
    alpha, beta = reduce_to_unit_beta(params)
    value, _ = eigenvalue_converged(family_potential(params.k, alpha, beta), m, tol)
    return value


# ---------------------------------------------------------------------------
# fixed-grid discrete band function helpers

def _discrete_hf(k: int, alpha: float, grid: Grid1D) -> tuple[float, float, Spectrum1D]:
    """(d lambda_0/d alpha, lambda_0, spectrum) of the discrete operator.

    The spacing-weighted quadrature of the Hellmann-Feynman integrand is the
    exact alpha-derivative of the discrete eigenvalue.
    """
    op = assemble(family_potential(k, alpha), grid)
    spec = lowest_eigenpairs(op, 1)
    u = spec.eigenfunctions[0]
    t = grid.interior_points()
    w = _shifted_gauge(k, alpha, t)
    hf = -2.0 * float(np.sum(w * u * u) * grid.spacing)
    return hf, float(spec.eigenvalues[0]), spec


def dlambda_dalpha(k: int, alpha: float, tol: float = 1e-8) -> float:
    """d lambda_0 / d alpha at (k, alpha, beta=1) by the Hellmann-Feynman
    quadrature -2 * integral of (t^{k+1}/(k+1) - alpha) u0^2 over the
    converged grid."""
    _, spec = eigenvalue_converged(family_potential(k, alpha), 0, tol)
    hf, _, _ = _discrete_hf(k, alpha, spec.grid)
    return hf


def _resolvent_d2(k: int, alpha: float, op: TridiagonalOperator,
                  spectrum: Spectrum1D, rtol: float = 1e-9) -> float:
    """2 - 4 <w u0, x>, the discrete second alpha-derivative of the lowest
    band (w = t^{k+1}/(k+1) - alpha), where x = du0/dalpha solves
    (T - lambda_0) x = 2 w u0 on span{u0}^perp. The system is shifted
    1e-10 |lambda_0| off the eigenvalue; the u0 component excited through
    that shift is projected away, two steps of iterative refinement remove
    the rest, and a relative residual above rtol raises."""
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
    if resid > rtol:
        raise SolverError(f"reduced-resolvent solve stalled: residual {resid:.2e}")
    return 2.0 - 4.0 * float(np.sum(w * u * x) * dt)


def _d2_on_grid(k: int, alpha: float, grid: Grid1D) -> float:
    """Discrete second derivative of the band function on a fixed grid,
    through the reduced-resolvent route."""
    op = assemble(family_potential(k, alpha), grid)
    return _resolvent_d2(k, alpha, op, lowest_eigenpairs(op, 1))


def d2lambda_dalpha2(k: int, alpha: float, tol: float = 1e-6) -> float:
    """Second alpha-derivative of the lowest band at (k, alpha, beta=1).

    Primary route: solve the reduced-resolvent equation for du0/dalpha on
    the orthogonal complement of u0 (valid at any alpha once the parallel
    component is projected out) and evaluate 2 - 4 * integral of
    (t^{k+1}/(k+1) - alpha) u0 du0/dalpha.

    A mandatory cross-check differences the discrete Hellmann-Feynman
    derivative on the same grid (step 1e-3); a mismatch beyond 10 * tol
    raises, since both routes compute the same discrete quantity.
    """
    _, spec = eigenvalue_converged(family_potential(k, alpha), 0, tol)
    grid = spec.grid
    d2 = _d2_on_grid(k, alpha, grid)
    delta = 1e-3
    hf_p, _, _ = _discrete_hf(k, alpha + delta, grid)
    hf_m, _, _ = _discrete_hf(k, alpha - delta, grid)
    d2_fd = (hf_p - hf_m) / (2.0 * delta)
    if abs(d2 - d2_fd) > 10.0 * tol:
        raise SolverError(
            f"second-derivative cross-check failed: resolvent {d2:.8f} vs "
            f"finite difference {d2_fd:.8f}")
    return d2


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


def _newton_polish(k: int, alpha: float, grid: Grid1D,
                   max_steps: int = 8) -> float:
    """Drive the discrete Hellmann-Feynman derivative to rounding level on a
    fixed grid. Quadratic flatness makes plain golden section stall near the
    minimum; Newton on the analytic derivative does not."""
    g, _, _ = _discrete_hf(k, alpha, grid)
    g_eps, _, _ = _discrete_hf(k, alpha + 1e-4, grid)
    slope = (g_eps - g) / 1e-4
    for _ in range(max_steps):
        if slope <= 0:
            break
        step = -g / slope
        alpha += step
        g, _, _ = _discrete_hf(k, alpha, grid)
        if abs(step) < 1e-13 or abs(g) < 1e-12:
            break
    return alpha


def _golden_section(f: Callable[[float], float], a: float, b: float,
                    xtol: float) -> float:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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


def minimizer_state(k: int, tol: float = 1e-6) -> MinimizerState:
    """Locate the band minimum and populate every derived quantity.

    Stages: coarse scan of lambda_0(alpha, 1) over [-1, 2 + k];
    golden-section refinement (alpha tolerance 1e-6) of every bracketed
    local minimum on a frozen reference grid, each Newton-polished there and
    converged once; then two converged solves at the global minimizer, each
    tracking nu_hat, lambda_1 and lambda_2 at tol/10: the first gives the
    grid on which the minimizer is Newton-polished against the discrete
    Hellmann-Feynman derivative, the second (at the polished minimizer)
    gives the three levels, the eigenpairs, and the grid on which the
    identities and non-degeneracy data are evaluated.

    Nothing is cached: a caller that needs the state twice keeps the
    returned (immutable) value and passes it on.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    alphas = np.linspace(-1.0, 2.0 + k, SCAN_POINTS)     # generous bracket
    scan_tol = max(tol, 1e-5)
    vals = np.array([
        eigenvalue_converged(family_potential(k, a), 0, scan_tol)[0]
        for a in alphas
    ])
    i_min, brackets = _scan_brackets(alphas, vals)

    # frozen reference grid at the scan minimizer
    _, ref_spec = eigenvalue_converged(family_potential(k, alphas[i_min]), 0,
                                       min(tol, 1e-6) / 10.0)
    ref_grid = ref_spec.grid

    def band(a: float) -> float:
        return float(_eigenvalues_only(assemble(family_potential(k, a), ref_grid), 1)[0])

    local_minima = []
    for i in brackets:
        a_loc = _golden_section(band, alphas[i - 1], alphas[i + 1], GOLDEN_ALPHA_TOL)
        a_loc = _newton_polish(k, a_loc, ref_grid)
        lam_loc, _ = eigenvalue_converged(family_potential(k, a_loc), 0, tol)
        local_minima.append((float(a_loc), float(lam_loc)))
    alpha_min = min(local_minima, key=lambda p: p[1])[0]

    _, spec = eigenvalue_converged(family_potential(k, alpha_min), 2, tol / 10.0)
    alpha_min = _newton_polish(k, alpha_min, spec.grid)
    _, spec = eigenvalue_converged(family_potential(k, alpha_min), 2, tol / 10.0)
    nu_hat, lam1, lam2 = spec.extrapolants
    grid = spec.grid
    op = assemble(family_potential(k, alpha_min), grid)

    t = grid.interior_points()
    dt = grid.spacing
    u0 = spec.eigenfunctions[0]
    w = _shifted_gauge(k, alpha_min, t)
    hf_residual = abs(-2.0 * float(np.sum(w * u0 * u0) * dt))
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
# profiles and asymptotic regimes

@dataclass(frozen=True)
class ProfileTable:
    """Sampled band profile with its quadratic approximation at the minimum."""

    k: int
    alpha: np.ndarray
    lambda0: np.ndarray
    lambda_quad: np.ndarray
    alpha_min: float
    nu_hat: float
    d2: float


def profile(state: MinimizerState, alpha_range: tuple[float, float],
            n_samples: int, tol: float = 1e-6) -> ProfileTable:
    """Tabulate lambda_0(alpha, 1) and the quadratic approximation

        lambda_quad(alpha) = nu_hat + (d2/2) (alpha - alpha_min)^2

    over alpha_range, for the k of the given minimizer state.
    lambda_quad(alpha_min) equals nu_hat by construction.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    r = state.report
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_samples)
    lam = np.array([
        eigenvalue_converged(family_potential(r.k, a), 0, tol)[0] for a in alphas
    ])
    quad = r.nu_hat + 0.5 * r.d2 * (alphas - r.alpha_min) ** 2
    return ProfileTable(k=r.k, alpha=alphas, lambda0=lam, lambda_quad=quad,
                        alpha_min=r.alpha_min, nu_hat=r.nu_hat, d2=r.d2)


def large_alpha_prediction(k: int, alpha: float) -> float:
    """Leading semiclassical growth of the band for alpha -> +infinity.

    The potential wells sit at t* with t*^{k+1}/(k+1) = alpha; the harmonic
    frequency there is t*^k, giving

        lambda_0(alpha, 1) ~ ((k+1) alpha)^{k/(k+1)}.
    """
    return ((k + 1) * alpha) ** (k / (k + 1))


@dataclass(frozen=True)
class LargeAlphaRow:
    alpha: float
    lambda0: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.lambda0 / self.predicted


def large_alpha_check(k: int, alpha_list: Sequence[float],
                      tol: float = 1e-6) -> list[LargeAlphaRow]:
    """Ratio of the computed band to its large-alpha asymptotic growth law,
    for odd k and increasing alpha. The approach to 1 is monotone over a
    well-chosen list; callers assert the loose 10% window at alpha = 50."""
    if k % 2 == 0:
        raise ValueError("large-alpha growth check applies to odd k")
    rows = []
    for a in alpha_list:
        lam, _ = eigenvalue_converged(family_potential(k, a), 0, tol)
        rows.append(LargeAlphaRow(alpha=float(a), lambda0=float(lam),
                                  predicted=large_alpha_prediction(k, a)))
    return rows
