"""Converged eigenpairs of 1D Schrodinger operators -u'' + V(t) u with a
confining potential V, on an adaptively truncated interval.

The discrete operator is the second-order central-difference Laplacian plus
the sampled potential, with Dirichlet conditions at +-L. Eigenvalues of the
discrete matrix come from Sturm-sequence bisection (LAPACK stebz), and
eigenvectors from LAPACK stein on the bisected eigenvalues, in the same
call. On the mirror-symmetric grid an even potential gives a persymmetric
matrix, which is split by t -> -t into an even and an odd block, so each
level carries its parity by construction. Continuum eigenvalues are
obtained by doubling L until the Dirichlet truncation is negligible (Agmon
decay makes the error exponentially small once V exceeds the energy level)
and halving the spacing with Richardson extrapolation until successive
extrapolants agree.

All containers are immutable after construction and every operation is a
pure function, so parameter sweeps may call into this module concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal


class SolverError(Exception):
    """Base class for numerical failures in this package."""


class AssemblyError(SolverError):
    """The potential produced non-finite samples."""


class ConvergenceError(SolverError):
    """Adaptive refinement ran out of budget.

    Carries the last two eigenvalue estimates so callers can judge how far
    the iteration got.
    """

    def __init__(self, message: str, estimates: tuple[float, float] | None = None):
        super().__init__(message)
        self.estimates = estimates


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-half_width, half_width], endpoints included."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if not (self.half_width > 0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.n_points < 16:
            raise ValueError(f"n_points must be >= 16, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    def points(self) -> np.ndarray:
        """t_i = L (2i - (n-1)) / (n-1), so t_{n-1-i} == -t_i bit for bit."""
        n = self.n_points
        return self.half_width * (2.0 * np.arange(n) - (n - 1)) / (n - 1)

    def interior_points(self) -> np.ndarray:
        return self.points()[1:-1]


@dataclass(frozen=True)
class ConfiningPotential:
    """Evaluation rule t -> V(t) plus the caller's growth declaration.

    `confining=True` asserts V(t) -> +inf as |t| -> inf; the adaptive
    truncation relies on it and refuses potentials without the witness.
    """

    func: Callable[[np.ndarray], np.ndarray]
    confining: bool = True

    def __call__(self, t):
        return np.asarray(self.func(np.asarray(t, dtype=float)), dtype=float)


def as_potential(potential) -> ConfiningPotential:
    if isinstance(potential, ConfiningPotential):
        return potential
    return ConfiningPotential(potential)


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal matrix acting on interior grid values."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        self.diagonal.setflags(write=False)
        self.offdiagonal.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diagonal * v
        out[:-1] += self.offdiagonal * v[1:]
        out[1:] += self.offdiagonal * v[:-1]
        return out

    def norm_bound(self) -> float:
        """Infinity-norm bound, used for eigenvalue noise floors."""
        return float(np.max(np.abs(self.diagonal)) + 2.0 * np.max(np.abs(self.offdiagonal)))


@dataclass(frozen=True)
class Spectrum1D:
    """Low eigenpairs of a discrete 1D operator.

    Eigenvalues are those of the discrete matrix, ascending and simple
    within each parity class; eigenfunctions (rows) live on the interior
    points and carry discrete L2 norm 1, i.e. spacing * sum(u^2) == 1.
    `parity` labels each level "even" or "odd" under t -> -t when the matrix
    was split by that reflection (even levels in slots 0, 2, ..., odd ones
    in 1, 3, ...), and is None when it was not. `convergence_estimate` holds a
    per-eigenvalue error indication against the continuum operator where
    available (plain residuals for a fixed-grid solve). `extrapolants` holds
    the Richardson-extrapolated continuum eigenvalues of a converged solve,
    one per tracked level, and is None on a fixed-grid spectrum.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    grid: Grid1D
    convergence_estimate: np.ndarray = field(default=None)
    extrapolants: Optional[np.ndarray] = None
    parity: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        labels = np.array(self.parity or [""] * len(self.eigenvalues))
        if any(np.any(np.diff(self.eigenvalues[labels == p]) <= 0) for p in set(labels)):
            raise SolverError("eigenvalues not strictly increasing within a parity "
                              "class; 1D confining operators have simple spectrum")
        self.eigenvalues.setflags(write=False)
        self.eigenfunctions.setflags(write=False)
        if self.extrapolants is not None:
            self.extrapolants.setflags(write=False)


def assemble(potential, grid: Grid1D) -> TridiagonalOperator:
    """Central-difference discretization of -d^2/dt^2 + V on the grid interior.

    Dirichlet conditions at +-half_width. Raises AssemblyError if V returns
    a non-finite sample, reporting the offending t.
    """
    pot = as_potential(potential)
    ti = grid.interior_points()
    v = pot(ti)
    bad = ~np.isfinite(v)
    if np.any(bad):
        where = ti[bad][:5]
        raise AssemblyError(f"potential non-finite at t={where.tolist()}")
    dt = grid.spacing
    diag = 2.0 / dt**2 + v
    off = np.full(len(ti) - 1, -1.0 / dt**2)
    return TridiagonalOperator(diag, off, grid)


def _bisect(diag: np.ndarray, off: np.ndarray, m_count: int, vectors: bool):
    """(values, unit eigenvectors as columns or None) of the m_count lowest
    levels of one Jacobi matrix: LAPACK stebz, then stein."""
    try:
        out = eigh_tridiagonal(diag, off, eigvals_only=not vectors,
                               select="i", select_range=(0, m_count - 1),
                               lapack_driver="stebz")
    except Exception as exc:  # LAPACK reported a bisection or stein failure
        raise SolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    return out if vectors else (out, None)


def _stebz(operator: TridiagonalOperator, m_count: int, vectors: bool):
    """(values, vectors or None, parity or None) of the m_count lowest levels.

    An odd-sized matrix that is persymmetric bit for bit is split by t -> -t
    around its centre row c: the even block is rows c.. with its first
    off-diagonal times sqrt(2), the odd block rows c+1.. (Dirichlet at t=0).
    The levels of the two interlace, even first, so they fill the slots
    0, 2, ... and 1, 3, ... unsorted, and keep their labels even when a pair
    splits below rounding. Vectors are lifted back as u_c = v_0 and
    u_{c+-j} = v_j/sqrt(2) (even) or +-v_j/sqrt(2) (odd).
    """
    if m_count > operator.size:
        raise SolverError(f"requested {m_count} eigenvalues from operator of size "
                          f"{operator.size}")
    d, e = operator.diagonal, operator.offdiagonal
    if operator.size % 2 == 0 or not (np.array_equal(d, d[::-1])
                                      and np.array_equal(e, e[::-1])):
        return (*_bisect(d, e, m_count, vectors), None)
    c, n_odd = operator.size // 2, m_count // 2
    vals = np.empty(m_count)
    vals[0::2], v_even = _bisect(d[c:], np.r_[np.sqrt(2.0) * e[c], e[c + 1:]],
                                 m_count - n_odd, vectors)
    if n_odd:
        vals[1::2], v_odd = _bisect(d[c + 1:], e[c + 1:], n_odd, vectors)
    parity = tuple(("even", "odd")[i % 2] for i in range(m_count))
    if not vectors:
        return vals, None, parity
    vecs = np.zeros((operator.size, m_count))
    vecs[c, 0::2] = v_even[0]
    vecs[c + 1:, 0::2] = v_even[1:] / np.sqrt(2.0)
    if n_odd:
        vecs[c + 1:, 1::2] = v_odd / np.sqrt(2.0)
    vecs[:c] = vecs[:c:-1] * (-1.0) ** np.arange(m_count)
    return vals, vecs, parity


def _eigenvalues_only(operator: TridiagonalOperator, m_count: int) -> np.ndarray:
    return _stebz(operator, m_count, vectors=False)[0]


def lowest_eigenpairs(operator: TridiagonalOperator, m_count: int) -> Spectrum1D:
    """The m_count smallest eigenpairs of the discrete operator.

    Eigenvalues via Sturm-sequence bisection, eigenvectors via LAPACK stein
    on those eigenvalues, both per parity block when the matrix is split by
    t -> -t (see Spectrum1D.parity). Each eigenvector is normalized to
    discrete L2 norm 1 and signed so that its largest-magnitude entry is
    positive; an odd vector takes that magnitude at t and -t alike, and the
    tie goes to the smaller t. `convergence_estimate` holds the eigenpair
    residuals |T u - lambda u| relative to |u|.
    """
    if m_count < 1:
        raise ValueError("m_count must be >= 1")
    vals, vecs, parity = _stebz(operator, m_count, vectors=True)
    vecs = vecs.T / np.sqrt(operator.grid.spacing)
    peaks = vecs[np.arange(m_count), np.argmax(np.abs(vecs), axis=1)]
    vecs *= np.sign(peaks)[:, None]
    resid = np.array([np.linalg.norm(operator.matvec(u) - lam * u) / np.linalg.norm(u)
                      for lam, u in zip(vals, vecs)])
    return Spectrum1D(vals, vecs, operator.grid, resid, parity=parity)


def boundary_mass(spectrum: Spectrum1D, fraction: float = 0.9) -> float:
    """Discrete L2 mass of the highest computed eigenfunction beyond
    fraction * half_width; the Dirichlet truncation-quality indicator."""
    t = spectrum.grid.interior_points()
    u = spectrum.eigenfunctions[-1]
    edge = np.abs(t) > fraction * spectrum.grid.half_width
    return float(np.sum(u[edge] ** 2) * spectrum.grid.spacing)


def _initial_half_width(pot: ConfiningPotential, m: int,
                        probe_points: int = 257) -> float:
    """Smallest L with V(+-L) >= 4 * rough level estimate.

    Doubles from L=1 to bracket the crossing, then bisects down to it; a
    needlessly large box would put enormous potential samples on the wall
    and raise the floating-point noise floor of the eigenvalue bisection.
    """
    L = 1.0
    for _ in range(60):
        lam = _eigenvalues_only(assemble(pot, Grid1D(L, probe_points)), m + 1)[m]
        wall = min(float(pot(-L)), float(pot(L)))
        if wall >= 4.0 * max(lam, 0.25):
            break
        L *= 2.0
    else:
        raise ConvergenceError("could not find a confining box; is V confining?")
    if L == 1.0:
        return L
    target = 4.0 * max(lam, 0.25)
    lo, hi = L / 2.0, L
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if min(float(pot(-mid)), float(pot(mid))) >= target:
            hi = mid
        else:
            lo = mid
    return 1.02 * hi


def eigenvalue_converged(potential, m: int, tol: float,
                         probe_points: int = 513,
                         max_refinements: int = 12) -> tuple[float, Spectrum1D]:
    """m-th eigenvalue of the continuum operator -u'' + V u on the line.

    Doubles the truncation half-width until the wall exceeds the level and
    the boundary eigenfunction mass drops below tol^2, then halves the
    spacing with Richardson extrapolation until successive extrapolants
    differ by less than tol (or by less than the floating-point noise floor
    of the discrete eigenproblem, whichever is larger).

    Returns (extrapolated eigenvalue, Spectrum1D on the finest grid). The
    spectrum tracks the m+1 lowest eigenpairs and carries the extrapolants
    of all of them; its convergence_estimate is the distance from each
    discrete eigenvalue to its extrapolant plus the final extrapolant
    increment.
    """
    pot = as_potential(potential)
    if not pot.confining:
        raise ValueError("potential lacks the confining declaration")
    if tol <= 0:
        raise ValueError("tol must be positive")
    track = m + 1

    L = _initial_half_width(pot, m)
    for _ in range(24):
        grid = Grid1D(L, probe_points)
        spec = lowest_eigenpairs(assemble(pot, grid), track)
        lam = spec.eigenvalues[m]
        wall = min(float(pot(-L)), float(pot(L)))
        if wall >= lam + 1.0 and boundary_mass(spec) < max(tol**2, 1e-26):
            break
        L *= 2.0
    else:
        raise ConvergenceError("half-width doubling exhausted",
                               estimates=(float(lam), float(lam)))

    n = probe_points
    prev = spec.eigenvalues
    prev_R = None
    for _ in range(max_refinements):
        n = 2 * (n - 1) + 1
        op = assemble(pot, Grid1D(L, n))
        cur = _eigenvalues_only(op, track)
        lam_R = (4.0 * cur - prev) / 3.0
        noise = 32.0 * np.finfo(float).eps * op.norm_bound()
        if prev_R is not None:
            step = float(np.max(np.abs(lam_R - prev_R)))
            if step < max(tol, noise):
                spec = replace(lowest_eigenpairs(op, track),
                               convergence_estimate=np.abs(lam_R - cur) + step,
                               extrapolants=lam_R)
                return float(lam_R[m]), spec
        prev_R = lam_R
        prev = cur
    raise ConvergenceError(
        f"spacing refinement exhausted at n={n}",
        estimates=(float(prev_R[m]), float(lam_R[m])))
