"""Converged eigenpairs of 1D Schrodinger operators -u'' + V(t) u with a
confining potential V, by Dirichlet sine Galerkin on a truncated interval.

On the box [-T, T] the basis is phi_n(t) = sin(n theta)/sqrt(T), with
theta = pi (t + T)/(2T) and n = 1..N: orthonormal, zero at +-T, and
diagonal in the kinetic term, which is diag((n pi/(2T))^2). The potential
matrix is (V phi_n, phi_m) = (c_{|n-m|} - c_{n+m})/2, Toeplitz minus Hankel
in the cosine moments c_j = integral of V cos(j theta) over [-1, 1] in the
scaled variable x = t/T. The moments are taken by Gauss-Legendre quadrature
with 2N + 64 nodes; the nodes, the weights and the moment table depend on N
alone, so each size is computed once per process (`_rule`). Dense `eigh` gives the
levels and their coefficient vectors (Boyd, *Chebyshev and Fourier Spectral
Methods*, 2nd ed., 2001, ch. 3). The module needs numpy alone, so `montgomery`
and the 1D subcommands built on it run without importing scipy.

sin(n theta) is even in t for odd n and odd for even n. When V is even at
the nodes bit for bit, the matrix is split into those two blocks: the odd n
carry the even levels and the even n the odd ones, so each level carries its
parity by construction.

A converged solve takes its boxes from the potential (`_box_half_widths`):
each one reaches AGMON_DISTANCE further into the classically forbidden
region than the one before. On the first box N grows over SIZES until two
successive sizes agree to tol/10; the box is then checked by one
enlargement, to the next box at the next size, which must agree to tol/10
as well, and that enlarged solve is returned.

All containers are immutable after construction and every operation is a
pure function, so parameter sweeps may call into this module concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

SIZES = (32, 48, 64, 96, 128, 192, 256, 384, 512)   # basis sizes a converged solve climbs
ROUGH_SIZE = 32          # basis of the level estimates of the box search
AGMON_DISTANCE = 20.0    # decay exponent that each box adds: sqrt(V - lambda) summed over t
MAX_BOXES = 6            # boxes a converged solve may try, each checked by the next


class SolverError(Exception):
    """Base class for numerical failures in this package."""


class AssemblyError(SolverError):
    """The potential produced non-finite samples."""


class ConvergenceError(SolverError):
    """An iterative solve or adaptive refinement ran out of budget.

    Carries the last estimates (the last two of one quantity, or the last
    Ritz values of a Lanczos) so callers can judge how far the iteration got.
    """

    def __init__(self, message: str, estimates: tuple[float, ...] | None = None):
        super().__init__(message)
        self.estimates = estimates


class _Rule(NamedTuple):
    """Gauss-Legendre rule on [-1, 1] for basis size N, and the tables
    built on it."""

    x: np.ndarray          # nodes, x[::-1] == -x bit for bit
    w: np.ndarray          # weights, w[::-1] == w bit for bit
    moments: np.ndarray    # (2N+1, nodes): w_q cos(j theta_q), j = 0..2N
    sines: np.ndarray      # (N, nodes): sin(n theta_q), n = 1..N
    toeplitz: np.ndarray   # (N, N): |n - m|
    hankel: np.ndarray     # (N, N): n + m


@lru_cache(maxsize=16)
def _rule(size: int) -> _Rule:
    """The rule with q = 2 size + 64 nodes: the positive eigenvalues of the
    Jacobi matrix of the Legendre polynomials (Golub and Welsch, Math. Comp.
    23, 1969), by numpy's dense `eigvalsh` of its lower triangle, two Newton
    steps on P_q, whose three-term recurrence also gives
    P_q' = q (P_{q-1} - x P_q)/(1 - x^2) and the weights
    2/((1 - x^2) P_q'^2), and the mirror image of both."""
    q = 2 * size + 64
    j = np.arange(1.0, q)
    x = np.linalg.eigvalsh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))[q // 2:]
    for _ in range(2):
        p_prev, p = np.ones_like(x), x
        for n in range(1, q):
            p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        dp = q * (p_prev - x * p) / (1.0 - x * x)
        x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = np.r_[-x[::-1], x], np.r_[w[::-1], w]
    theta = 0.5 * np.pi * (x + 1.0)
    n = np.arange(1, size + 1)
    rule = _Rule(x, w, np.cos(np.outer(np.arange(2 * size + 1), theta)) * w,
                 np.sin(np.outer(n, theta)), np.abs(n[:, None] - n), n[:, None] + n)
    for a in rule:
        a.setflags(write=False)
    return rule


@dataclass(frozen=True)
class SineBasis:
    """The Dirichlet sine basis sin(n pi (t + T)/(2T))/sqrt(T), n = 1..size,
    on [-T, T] with T = half_width, and its quadrature nodes."""

    half_width: float
    size: int

    def __post_init__(self):
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")

    def nodes(self) -> np.ndarray:
        """The 2 size + 64 Gauss-Legendre nodes in t, mirror-symmetric bit
        for bit."""
        return self.half_width * _rule(self.size).x

    def weights(self) -> np.ndarray:
        """Quadrature weights in t: sum(weights * f(nodes)) integrates f."""
        return self.half_width * _rule(self.size).w

    def kinetic(self) -> np.ndarray:
        """Diagonal of the matrix of -d^2/dt^2."""
        return (np.arange(1, self.size + 1) * (0.5 * np.pi / self.half_width)) ** 2

    def matrix(self, samples: np.ndarray) -> np.ndarray:
        """Galerkin matrix (f phi_n, phi_m) of the function with these node
        samples."""
        rule = _rule(self.size)
        c = rule.moments @ samples
        return 0.5 * (c[rule.toeplitz] - c[rule.hankel])

    def functions(self, coefficients: np.ndarray) -> np.ndarray:
        """Node samples of the functions whose coefficient vectors are the
        columns of `coefficients`, one row per function."""
        return (coefficients.T @ _rule(self.size).sines) / np.sqrt(self.half_width)


@dataclass(frozen=True)
class Spectrum1D:
    """Low eigenpairs of a 1D operator in a sine basis.

    Eigenvalues are those of the Galerkin matrix, ascending and simple
    within each parity class. Eigenfunctions (rows) are samples at the
    basis nodes, with weighted L2 norm 1: sum(weights * u^2) == 1.
    `parity` labels each level "even" or "odd" under t -> -t when the matrix
    was split by that reflection (even levels in slots 0, 2, ..., odd ones
    in 1, 3, ...), and is None when it was not.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    basis: SineBasis
    parity: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        labels = np.array(self.parity or [""] * len(self.eigenvalues))
        if any(np.any(np.diff(self.eigenvalues[labels == p]) <= 0) for p in set(labels)):
            raise SolverError("eigenvalues not strictly increasing within a parity "
                              "class; 1D confining operators have simple spectrum")
        self.eigenvalues.setflags(write=False)
        self.eigenfunctions.setflags(write=False)

    @property
    def nodes(self) -> np.ndarray:
        return self.basis.nodes()

    @property
    def weights(self) -> np.ndarray:
        return self.basis.weights()


def _samples(potential, basis: SineBasis) -> np.ndarray:
    """V at the basis nodes; raises AssemblyError on a non-finite sample,
    reporting the offending t."""
    t = basis.nodes()
    v = np.asarray(potential(t), dtype=float)
    bad = ~np.isfinite(v)
    if np.any(bad):
        raise AssemblyError(f"potential non-finite at t={t[bad][:5].tolist()}")
    return v


def _eigh(hamiltonian: np.ndarray, count: int, split: bool, vectors: bool):
    """(values, coefficient vectors as columns or None, parity or None) of
    the count lowest levels of a Galerkin matrix.

    With `split`, the blocks of odd n (even levels) and even n (odd levels)
    are solved apart, their levels placed in the slots 0, 2, ... and
    1, 3, ... unsorted, and the vectors padded back to all n. Asking for
    more levels than the matrix has raises SolverError.
    """
    size = len(hamiltonian)
    if count > size:
        raise SolverError(f"requested {count} eigenvalues from a basis of size {size}")
    blocks = (slice(0, None, 2), slice(1, None, 2)) if split else (slice(None),)
    values = np.empty(count)
    vecs = np.zeros((size, count)) if vectors else None
    for first, block in enumerate(blocks):
        slots = slice(first, None, len(blocks))
        want = len(range(count)[slots])
        if vectors:
            w, v = np.linalg.eigh(hamiltonian[block, block])
            vecs[block, slots] = v[:, :want]
        else:
            w = np.linalg.eigvalsh(hamiltonian[block, block])
        values[slots] = w[:want]
    parity = tuple(("even", "odd")[i % 2] for i in range(count)) if split else None
    return values, vecs, parity


def _spectrum(basis: SineBasis, values: np.ndarray, coefficients: np.ndarray,
             parity: Optional[tuple[str, ...]]) -> Spectrum1D:
    """Spectrum1D of the levels with these coefficient vectors (columns).

    Each eigenfunction is signed so that its largest-magnitude sample is
    positive. A labelled level is made even or odd at the nodes bit for bit
    (its samples on t < 0 are those on t > 0, reflected), so an odd one
    takes its largest magnitude at t and -t alike, and the tie goes to the
    smaller t.
    """
    u = basis.functions(coefficients)
    if parity is not None:
        half = u.shape[1] // 2
        signs = np.array([1.0 if p == "even" else -1.0 for p in parity])
        u[:, :half] = u[:, :half - 1:-1] * signs[:, None]
    peaks = u[np.arange(len(u)), np.argmax(np.abs(u), axis=1)]
    return Spectrum1D(values, u * np.sign(peaks)[:, None], basis, parity)


def _solve(potential, basis: SineBasis, count: int, vectors: bool):
    """Levels of -u'' + V u on the basis: the values alone, or the
    Spectrum1D. The matrix is split by parity when V is even at the nodes
    bit for bit."""
    v = _samples(potential, basis)
    h = basis.matrix(v)
    h[np.diag_indices_from(h)] += basis.kinetic()
    values, vecs, parity = _eigh(h, count, np.array_equal(v, v[::-1]), vectors)
    return _spectrum(basis, values, vecs, parity) if vectors else values


def _box_half_widths(potential: Callable[[np.ndarray], np.ndarray],
                     m: int) -> list[float]:
    """Half-widths of the boxes of a converged solve for level m: the
    points beyond which the eigenfunction has decayed by exp(-j
    AGMON_DISTANCE), j = 1..MAX_BOXES.

    Doubles L from 1 until the wall min V(+-L) reaches 4 max(lambda, 0.25),
    with lambda the m-th level on [-L, L] in a ROUGH_SIZE basis (an upper
    bound of the true level, as Galerkin levels are), and takes on each side
    the last crossing of that wall height in (L/2, L]. From there it marches
    outward in steps of L/64, summing sqrt(V - lambda) by the rectangle rule
    (the Agmon distance from the wall), and notes where the sum passes each
    multiple of AGMON_DISTANCE; a box takes the larger of its two sides.
    """
    L = 1.0
    for _ in range(60):
        lam = _solve(potential, SineBasis(L, max(ROUGH_SIZE, 4 * (m + 1))), m + 1,
                     vectors=False)[m]
        wall = 4.0 * max(lam, 0.25)
        if min(float(potential(-L)), float(potential(L))) >= wall:
            break
        L *= 2.0
    else:
        raise ConvergenceError("could not find a confining box; is V confining?")
    step = L / 64.0
    goals = AGMON_DISTANCE * np.arange(1, MAX_BOXES + 1)
    ends = []
    for side in (-1.0, 1.0):
        t = L * np.arange(33, 65) / 64.0
        below = np.flatnonzero(np.asarray(potential(side * t), dtype=float) < wall)
        start, distance, passed = t[below[-1] + 1 if len(below) else 0], 0.0, []
        for _ in range(1000):        # 64 steps each
            t = start + step * np.arange(1, 65)
            climb = distance + step * np.cumsum(
                np.sqrt(np.maximum(np.asarray(potential(side * t), dtype=float) - lam, 0.0)))
            hit = np.searchsorted(climb, goals[len(passed):])
            passed += list(t[hit[hit < len(t)]])
            if len(passed) == MAX_BOXES:
                break
            start, distance = t[-1], climb[-1]
        else:
            raise ConvergenceError("could not find a confining box; is V confining?")
        ends.append(passed)
    return [max(a, b) for a, b in zip(*ends)]


def eigenvalue_converged(potential, m: int, tol: float) -> tuple[float, Spectrum1D]:
    """m-th eigenvalue of the continuum operator -u'' + V u on the line.

    On the first box of `_box_half_widths`, solves in the sine basis for
    the m+1 lowest levels at the sizes of SIZES of at least 2(m+1)
    functions in turn, values only, until
    two successive sizes agree to tol/10 on every level. Then solves once
    more, with eigenvectors, on the next box at the next size; when that
    agrees to tol/10 as well it is returned, as (its m-th level, its
    Spectrum1D), and otherwise the basis growth goes on from it on that
    box. Each basis is solved once, and only the returned one with
    eigenvectors. A potential that does not grow fast enough to confine
    raises ConvergenceError from the box search. A basis growth that passes
    the largest size, or a box check that fails on the last box, raises it
    with the last two estimates of the m-th level; an m that leaves fewer
    than two sizes raises SolverError.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    count = m + 1
    sizes = [n for n in SIZES if n >= 2 * count]
    if len(sizes) < 2:
        raise SolverError(f"level m={m} needs a basis beyond {SIZES[-1]} functions")
    boxes = _box_half_widths(potential, m)
    i, prev, cur = 0, None, None
    for half_width, check in zip(boxes, boxes[1:]):
        while prev is None or np.max(np.abs(cur - prev)) > tol / 10.0:
            if i == len(sizes):
                raise ConvergenceError(f"basis growth exhausted at N={sizes[-1]}",
                                       estimates=(float(prev[m]), float(cur[m])))
            prev, cur = cur, _solve(potential, SineBasis(half_width, sizes[i]), count,
                                    vectors=False)
            i += 1
        i = min(i, len(sizes) - 1)
        spec = _solve(potential, SineBasis(check, sizes[i]), count, vectors=True)
        prev, cur = cur, spec.eigenvalues
        if np.max(np.abs(cur - prev)) <= tol / 10.0:
            return float(cur[m]), spec
        i += 1
    raise ConvergenceError("box enlargement exhausted",
                           estimates=(float(prev[m]), float(cur[m])))
