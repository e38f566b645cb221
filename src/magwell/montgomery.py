"""Band-function analysis for the one-parameter operator family

    Q(alpha, beta) = -d^2/dt^2 + (beta t^{k+1}/(k+1) - alpha)^2

on the line: scaling reduction to beta=1, minimization of the lowest band
lambda_0(alpha, 1) over alpha, eigenvalue derivatives in alpha, the
stationarity and norm identities satisfied at the minimum, non-degeneracy
criteria for the second derivative, and profile exports.

Everything here is computed in the sine basis of `sl_engine`. On one basis
the family is H(alpha) = K + M_2 - 2 alpha M_1 + alpha^2, with M_1 and M_2
the Galerkin matrices of t^{k+1}/(k+1) and its square, so one `eigh` of
H(alpha) gives the lowest band, its exact alpha-derivative (Hellmann-Feynman)
g = -2 <u_0, (M_1 - alpha) u_0> and its second derivative, the eigen-sum
d2 = 2 - 8 sum_{n>0} <u_n, (M_1 - alpha) u_0>^2 / (lambda_n - lambda_0).
A coarse scan at a fixed small basis brackets the band minimum; the basis of
one converged solve near it carries the Newton run on g, whose slope is d2,
so the stationarity residual is at rounding level, and the one `eigh` at
the root gives every reported number. For even k the band is even in alpha
(Montgomery, CMP 168, 1995), and its minimum is taken at alpha = 0 exactly:
there the potential is even bit for bit, every solve is split by parity,
and no Newton run is needed. Quadratures are weighted sums at the basis
nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .sl_engine import (
    ConvergenceError,
    SineBasis,
    SolverError,
    Spectrum1D,
    _box_half_widths,
    _eigh,
    _spectrum,
    eigenvalue_converged,
)

SCAN_POINTS = 40                 # coarse-scan samples over the bracketing range
SCAN_SIZE = 32                   # sine-basis size of the coarse scan
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
# the band on one basis

def _gauge_matrices(k: int, basis: SineBasis) -> tuple[np.ndarray, np.ndarray]:
    """(M_1, M_2): the Galerkin matrices of t^{k+1}/(k+1) and its square."""
    g = _shifted_gauge(k, 0.0, basis.nodes())
    return basis.matrix(g), basis.matrix(g * g)


class _Band(NamedTuple):
    """Every level of H(alpha) on one basis (levels in the slots of
    `sl_engine._eigh`, vectors as columns), the slope g and the curvature
    d2 of the lowest."""

    values: np.ndarray
    vectors: np.ndarray
    parity: Optional[tuple[str, ...]]
    slope: float
    curvature: float


def _band(k: int, basis: SineBasis, alpha: float) -> _Band:
    """One `eigh` of H(alpha) = K + M_2 - 2 alpha M_1 + alpha^2 on the basis,
    split by parity where the potential is even (odd k, or alpha = 0)."""
    m1, m2 = _gauge_matrices(k, basis)
    h = m2 - 2.0 * alpha * m1
    h[np.diag_indices_from(h)] += basis.kinetic() + alpha * alpha
    values, vectors, parity = _eigh(h, basis.size, k % 2 == 1 or alpha == 0.0, True)
    c = vectors.T @ (m1 @ vectors[:, 0] - alpha * vectors[:, 0])
    d2 = 2.0 - 8.0 * float(np.sum(c[1:] ** 2 / (values[1:] - values[0])))
    return _Band(values, vectors, parity, -2.0 * float(c[0]), d2)


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
    """MinimizerReport plus the eigenpairs the report came from."""

    report: MinimizerReport
    spectrum: Spectrum1D          # three eigenpairs at alpha_min on the final basis


def _stationary_alpha(k: int, basis: SineBasis, lo: float, hi: float,
                      start: float) -> tuple[float, _Band]:
    """(root of g = d lambda_0/d alpha on one basis, the band there), inside
    a bracket with g(lo) < 0 < g(hi).

    Newton's method with the exact slope d2 of `_band`; each iterate
    shrinks the bracket, and a step that would leave it (or a slope that is
    not positive) is replaced by bisection. Stops at an iterate where |g|
    is below 1e-12 or the next step below 1e-13. Raises ConvergenceError
    when g does not change sign over the bracket, or when the iteration cap
    is reached; the latter carries the last two iterates as `estimates`.
    """
    g_lo, g_hi = _band(k, basis, lo).slope, _band(k, basis, hi).slope
    if not g_lo < 0.0 < g_hi:
        raise ConvergenceError(
            f"k={k}: d lambda_0/d alpha does not change sign on "
            f"[{lo:.6g}, {hi:.6g}] (g = {g_lo:.3e}, {g_hi:.3e})")
    alpha = start
    for _ in range(60):     # bisection alone shrinks any scan bracket below 1e-13
        band = _band(k, basis, alpha)
        g = band.slope
        if abs(g) < 1e-12:
            return alpha, band
        lo, hi = (alpha, hi) if g < 0.0 else (lo, alpha)
        step = -g / band.curvature if band.curvature > 0.0 else np.inf
        if not lo < alpha + step < hi:
            step = 0.5 * (lo + hi) - alpha
        if abs(step) < 1e-13:
            return alpha, band
        prev, alpha = alpha, alpha + step
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
    """(alphas, lambda_0 at each) at SCAN_POINTS values of alpha over
    [-1, 2 + k], solved values-only in the one basis that `minimizer_state`
    describes."""
    alphas = np.linspace(-1.0, 2.0 + k, SCAN_POINTS)     # generous bracket
    basis = SineBasis(max(_box_half_widths(family_potential(k, a), 0)[0]
                          for a in (alphas[0], alphas[-1])), SCAN_SIZE)
    m1, m2 = _gauge_matrices(k, basis)
    a = alphas[:, None, None]
    h = m2 - 2.0 * a * m1 + np.diag(basis.kinetic()) + a * a * np.eye(basis.size)
    block = slice(0, None, 2) if k % 2 else slice(None)     # odd k: the even levels
    return alphas, np.linalg.eigvalsh(h[:, block, block])[:, 0]


def minimizer_state(k: int, tol: float = 1e-6) -> MinimizerState:
    """Locate the band minimum and populate every derived quantity.

    Stages: coarse scan of lambda_0(alpha, 1) over [-1, 2 + k] in one fixed
    basis (`_scan_values`); one converged solve at the scan minimizer,
    tracking three levels at tol/10, which picks the basis of everything
    that follows; for every interior local minimum of the scan, the root of
    the Galerkin Hellmann-Feynman derivative in the scan bracket around it
    (`_stationary_alpha`, started at the scan point), together with
    lambda_0 there, which ranks the brackets; for even k a bracket that
    holds 0 takes alpha = 0 exactly instead, as the band is even in alpha,
    and the converged solve is made there too. At the lowest root one
    `eigh` of H(alpha) gives nu_hat, lambda_1, lambda_2, d2, and the
    eigenpairs on which the identities are evaluated. A minimisation so
    makes one converged solve and, for odd k, one Newton run per bracket.

    The scan values are never reported; they only pick the brackets, so
    the scan is not converged. Its basis has SCAN_SIZE (32) functions on
    the larger first box `_box_half_widths` picks at alpha = -1 and
    alpha = 2 + k: the wells of every alpha in between lie inside it. A
    bracket that such a coarse scan gets wrong cannot pass silently, since
    `_stationary_alpha` raises ConvergenceError unless d lambda_0/d alpha
    changes sign over it.

    No state is cached: a caller that needs the state twice keeps the
    returned (immutable) value and passes it on.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    alphas, vals = _scan_values(k)
    i_min, brackets = _scan_brackets(alphas, vals)

    def holds_zero(i):           # the band is even in alpha for even k
        return k % 2 == 0 and alphas[i - 1] < 0.0 < alphas[i + 1]

    start = 0.0 if holds_zero(i_min) else alphas[i_min]
    basis = eigenvalue_converged(family_potential(k, start), 2, tol / 10.0)[1].basis
    roots = [(0.0, _band(k, basis, 0.0)) if holds_zero(i) else
             _stationary_alpha(k, basis, alphas[i - 1], alphas[i + 1], alphas[i])
             for i in brackets]
    alpha_min, band = min(roots, key=lambda root: root[1].values[0])

    spec = _spectrum(basis, band.values[:3], band.vectors[:, :3],
                     band.parity[:3] if band.parity else None)
    nu_hat, lam1, lam2 = spec.eigenvalues
    d2 = band.curvature
    u0 = spec.eigenfunctions[0]
    w = _shifted_gauge(k, alpha_min, spec.nodes)
    hf_residual = abs(2.0 * float(np.sum(spec.weights * w * u0 * u0)))
    norm_residual = abs(float(np.sum(spec.weights * w * w * u0 * u0)) - nu_hat / (k + 2))

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
        local_minima_scan=tuple((float(a), float(b.values[0])) for a, b in roots),
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
