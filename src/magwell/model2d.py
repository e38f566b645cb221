"""Direct discretization of the flat 2D magnetic operator whose field
vanishes to order k on a line, with a single non-degenerate miniwell along
that line. Measures true low eigenvalues over an h sweep and compares them
against the semiclassical predictions built from the 1D band data and the
miniwell operator.

Geometry: the flat cylinder [0, S) x [-T, T], field B = t^k omega(s) dt^ds
realized through the gauge A_s = t^{k+1} omega(s)/(k+1), A_t = 0. The
operator (h D_t)^2 + (h D_s - A_s)^2 is discretized with the gauge-covariant
(Peierls link) five-point scheme: the s-hops carry unit-modulus phases
exp(-i ds A_s/h) sampled at the staggered midpoints, which keeps discrete
gauge transformations exact unitary conjugations. The assembled operator is
complex Hermitian, bit for bit.

For odd k the gauge is even in t and the t grid is mirror-symmetric bit for
bit, so the link phases of each t row equal those of its mirror image and
the operator commutes exactly with the reflection t -> -t. The eigensolver
then splits it into even and odd blocks of about N/2 unknowns. Each block
is assembled straight from the lower half of the grid (plus the centre row
for the even block, when the interior t count is odd) as the exact
restriction Q^T H Q, Q the reflection isometry: the pair rows keep the
operator's own entries, at an even interior count the last pair row's hop
to its mirror image is summed onto its diagonal d as d +- hop, and a hop
to the centre row is sqrt(2) hop. The even block is built and solved
first, at a shift forecast just below the ground state, and the odd block
once that factor is freed. That a block
has no level at or below a point (the shift, or for the odd block the
largest even level) is certified before any factor, by one banded
Cholesky per t-band of a lower bound of the block (`_bound_clears`). An
uncertified shift is dropped for 0; an inconclusive odd bound has the odd
block solved too, its levels merged by value. The pairs of each solved
block are residual-checked on that block. The operator on the whole grid
is assembled only when it is solved as one block (even k, or blocks too
small for the levels asked).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded

from . import _workers
from ._files import read_fields
from ._shift_invert import RESIDUAL_TOL, lowest_sparse_eigenpairs
from .sl_engine import AssemblyError, ConvergenceError, SolverError
from .montgomery import _shifted_gauge, minimizer_state
from .miniwell import build_effective_operator, flat_model_geometry, spectrum_K
from .asymptotics import (_SQUARE_MAX, exponent_fit, fit_refusal, leading_exponent,
                          quasimode_energy, splitting_exponent)


GRID_BUDGET = (1024, 512)     # (max n_s, max n_t) of any assembled grid


class ResolutionError(SolverError):
    """The points-per-length grid cannot serve this h: it exceeds
    GRID_BUDGET, has no interior t row, or a link phase wraps too low
    inside the domain."""


def default_omega_profile(omega_min: float, a: float, s1: float, S: float
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth periodic intensity profile omega_min (1 + a sin^2(pi (s-s1)/S))
    with a single non-degenerate minimum at s1 and closed-form curvature."""

    def omega(s):
        return omega_min * (1.0 + a * np.sin(np.pi * (np.asarray(s) - s1) / S) ** 2)

    return omega


def _finite(key: str, value: float, positive: bool = False,
            squared: bool = False) -> float:
    """`value`, once it is a finite number (and > 0 when `positive`, and at
    most _SQUARE_MAX, about 1.34e154, when `squared`: S and h are squared);
    ValueError naming `key` otherwise."""
    if not (np.isfinite(value) and (value > 0 or not positive)):
        rule = "a finite number > 0" if positive else "a finite number"
        raise ValueError(f"{key} must be {rule}, got {value!r}")
    if squared and value > _SQUARE_MAX:
        raise ValueError(f"{key} must be at most {_SQUARE_MAX:.6g}, as it is "
                         f"squared, got {value!r}")
    return value


# The keys of a sweep config document and their kinds (see _files.read_fields)
SWEEP_FIELDS = {"k": "integer", "omega_min": "number", "a": "number",
                "S": "number", "s1": "number", "T": "number",
                "h_list": "numbers", "points_per_length": "integer"}


@dataclass(frozen=True)
class Field2DConfig:
    """Flat-cylinder model of a field vanishing to order k on the line t=0.

    `omega` maps s to the field coefficient (positive, S-periodic, unique
    minimum with positive curvature); `omega_min` and `curvature_abs2`, the
    second derivative of |omega|^2 at that minimum, are declared by the
    caller since the sweep predictions need them in closed form. Grid sizes
    follow the resolution rule, `points_per_length` nodes per magnetic
    length (`grid_for`), and must fit GRID_BUDGET. `omega` must be finite
    and not negative at the sample points (`s_midpoints`) of every grid of
    h_list that fits, else ValueError; a zero field is allowed.
    """

    k: int
    omega: Callable[[np.ndarray], np.ndarray]
    omega_min: float
    curvature_abs2: float
    S: float
    T: float
    h_list: tuple[float, ...]
    points_per_length: int = 20

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.points_per_length < 1:
            raise ValueError(f"points_per_length must be >= 1, "
                             f"got {self.points_per_length!r}")
        if not self.h_list:
            raise ValueError("h_list must hold at least one h")
        for key in ("omega_min", "curvature_abs2", "S", "T"):
            _finite(key, getattr(self, key), positive=True)
        for h in self.h_list:
            _finite("h", h, positive=True, squared=True)
        if sorted(self.h_list, reverse=True) != list(self.h_list):
            raise ValueError("h_list must be descending")
        for h in self.h_list:
            try:
                n_s = self.grid_for(h)[0]
            except ResolutionError:
                continue            # refused again, and skipped, by assemble_2d
            s = self.s_midpoints(n_s)
            with np.errstate(over="ignore", invalid="ignore"):
                w = np.asarray(self.omega(s), dtype=float)
            bad = ~(np.isfinite(w) & (w >= 0))
            if np.any(bad):
                raise ValueError(f"omega must be finite and >= 0 at every grid "
                                 f"sample, got {float(w[bad][0])!r} at "
                                 f"s={float(s[bad][0])!r} (h={h:g})")

    @classmethod
    def default(cls, k: int = 1, omega_min: float = 1.0, a: float = 1.0,
                S: float = 14.0, s1: float = 4.2, T: float = 0.8,
                h_list: Optional[Sequence[float]] = None, **kw) -> "Field2DConfig":
        if h_list is None:      # the default sweep: seven h from 0.02 to 0.002
            h_list = tuple(np.geomspace(0.02, 0.002, 7))
        # omega''(s1); a and S are checked first, as S divides, squared
        a = _finite("a", a, positive=True)
        S2 = _finite("S", S, positive=True, squared=True) ** 2
        if S2 < np.finfo(float).tiny:
            raise ValueError(f"S must be at least {np.sqrt(np.finfo(float).tiny):.6g}, "
                             f"as it divides squared, got {S!r}")
        curv_omega = omega_min * a * 2.0 * np.pi**2 / S2
        return cls(
            k=k,
            omega=default_omega_profile(omega_min, a, _finite("s1", s1), S),
            omega_min=omega_min,
            curvature_abs2=2.0 * omega_min * curv_omega,
            S=S, T=T, h_list=tuple(h_list), **kw)

    @classmethod
    def from_json(cls, source) -> "Field2DConfig":
        """Build the default-profile model from a JSON document (a path or
        an already parsed mapping) with keys of SWEEP_FIELDS;
        an absent key takes its value from `default`. Malformed documents
        raise ValueError naming the key (see `_files.read_fields`)."""
        return cls.default(**read_fields(source, "sweep config", SWEEP_FIELDS))

    def magnetic_length_t(self, h: float) -> float:
        return (h / self.omega_min) ** (1.0 / (self.k + 2))

    def magnetic_length_s(self, h: float) -> float:
        return h ** (1.0 / (2 * (self.k + 2)))

    def s_midpoints(self, n_s: int) -> np.ndarray:
        """The n_s staggered midpoints (j + 1/2) S/n_s, where omega is sampled."""
        return (np.arange(n_s) + 0.5) * (self.S / n_s)

    def grid_for(self, h: float) -> tuple[int, int]:
        """(n_s, n_t) of the points-per-length rule at this h:
        `points_per_length` nodes per magnetic length along s and across t.
        Raises ResolutionError when the grid exceeds GRID_BUDGET or has no
        interior t row (n_t < 3)."""

        def count(length: float, magnetic_length: float) -> float:
            spacing = magnetic_length / self.points_per_length
            # a spacing that underflows to 0 gives an infinite count
            return np.ceil(length / spacing) if spacing > 0 else np.inf

        n_t = count(2 * self.T, self.magnetic_length_t(h))
        n_s = count(self.S, self.magnetic_length_s(h))
        # a count past the float range stays a float and is refused below
        n_s, n_t = (int(c) if np.isfinite(c) else c for c in (n_s, n_t))
        n_t += 1
        max_s, max_t = GRID_BUDGET
        if not (n_s <= max_s and n_t <= max_t):
            raise ResolutionError(
                f"h={h:g}: grid ({n_s}, {n_t}) exceeds the grid budget "
                f"n_s <= {max_s}, n_t <= {max_t}")
        if n_t < 3:
            raise ResolutionError(
                f"h={h:g}: grid ({n_s}, {n_t}) has no interior t row; "
                f"it needs n_t >= 3")
        return n_s, n_t


@dataclass(frozen=True)
class MagneticOperator2D:
    """The discrete magnetic operator on the cylinder grid at one h, held
    as its grid and its link phases: `theta[i, j]` = ds A_s / h on the s
    link from node j to j + 1 of interior t row i.

    `hermitian` assembles the whole operator (complex Hermitian CSR, equal
    to its conjugate transpose bit for bit) at each access, and
    `reflection_block` one block of it; `lowest_eigenvalues_2d` builds only
    the blocks it solves or certifies, and checks residuals on those.
    """

    h: float
    k: int
    n_s: int
    n_t: int
    S: float
    T: float
    theta: np.ndarray

    @property
    def hermitian(self) -> sp.csr_matrix:
        return _assemble(self, self.n_t - 2)


def _check_wrap_clearance(config: Field2DConfig, h: float, t: np.ndarray,
                          theta: np.ndarray) -> None:
    """Spurious wells appear where a link phase wraps through 2 pi (the
    cos-form effective potential re-vanishes there); their zero-point energy
    h |t|^k omega must clear the physical energy window."""
    wrapped = np.max(np.abs(theta), axis=1) >= 2.0 * np.pi
    if not np.any(wrapped):
        return
    i = int(np.argmin(np.abs(t[wrapped])))
    t_wrap = float(np.abs(t[wrapped][i]))
    k = config.k
    w_min = config.omega_min
    zero_point = h * t_wrap**k * w_min
    window = 4.0 * w_min ** (2.0 / (k + 2)) * h ** float(leading_exponent(k))
    if zero_point < 10.0 * window:
        raise ResolutionError(
            f"link-phase wrap at |t|={t_wrap:.3f} (inside T={config.T}) sits "
            f"too low ({zero_point:.3e} vs window {window:.3e}); "
            f"raise points_per_length")


def assemble_2d(config: Field2DConfig, h: float) -> MagneticOperator2D:
    """Gauge-covariant five-point discretization at one h: its grid and
    link phases, from which `MagneticOperator2D` assembles its matrices.

    Dirichlet rows at t = +-T are eliminated; s is periodic. Refuses an h
    whose grid exceeds GRID_BUDGET or would admit low-lying link-wrap
    artifacts (ResolutionError), and a link phase that is not finite
    (AssemblyError).
    """
    n_s, n_t = config.grid_for(h)
    # interior nodes t_i = T (2i - (n_t - 1)) / (n_t - 1), i = 1..n_t-2:
    # mirror-symmetric bit for bit, so an A_s even in t gives an operator
    # that commutes exactly with the reflection t -> -t
    t = config.T * (2.0 * np.arange(1, n_t - 1) - (n_t - 1)) / (n_t - 1)
    ds = config.S / n_s
    # link phases ds A_s / h, A_s sampled at the staggered midpoints
    with np.errstate(over="ignore", invalid="ignore"):
        theta = (ds * np.outer(_shifted_gauge(config.k, 0.0, t),
                               config.omega(config.s_midpoints(n_s))) / h)
    bad = ~np.isfinite(theta)
    if np.any(bad):
        raise AssemblyError(f"h={h:g}: link phase non-finite at "
                            f"t={t[bad.any(axis=1)][:5].tolist()}")
    _check_wrap_clearance(config, h, t, theta)
    return MagneticOperator2D(h=h, k=config.k, n_s=n_s, n_t=n_t, S=config.S,
                              T=config.T, theta=theta)


def _assemble(operator: MagneticOperator2D, rows: int, parity: int = 0) -> sp.csr_matrix:
    """The operator on its first `rows` interior t rows (its principal
    submatrix there), or with parity +1 or -1 its exact restriction Q^T H Q
    to the functions of that parity (see `reflection_block`), as CSR with
    sorted indices: one COO build, whose duplicates the conversion sums.

    Unknown i n_s + j holds its s links, its diagonal and its t hops, with
    the values of a sparse sum of the t hops, the s links and then the
    diagonal: where the links and the diagonal share a column (n_s <= 2)
    they are summed in that order. The restriction keeps the operator's
    entries between pair rows. When the interior count nt is even, the t hop
    from the last pair row to its mirror image is summed last onto that
    row's diagonal entry d, d + parity hop; with a centre row, the even
    block's hops to it are sqrt(2) hop, and the odd block has no centre row.
    """
    n_s, h, nt = operator.n_s, operator.h, operator.n_t - 2
    dt = 2 * operator.T / (operator.n_t - 1)
    ds = operator.S / n_s
    hop = complex(-(h**2) / dt**2)
    link = -(h**2 / ds**2) * np.exp(-1j * operator.theta[:rows])
    diagonal = 2 * h**2 / dt**2 + 2 * h**2 / ds**2
    node = np.arange(rows * n_s, dtype=np.int32).reshape(rows, n_s)
    right = np.roll(node, -1, axis=1)
    below, above = node[:-1], node[1:]
    t_hop = np.full(below.shape, hop)
    if parity > 0 and nt % 2:
        t_hop[-1:] *= np.sqrt(2.0)
    seam = node[-1:] if parity and nt % 2 == 0 else node[:0]
    # + 0 gives the conjugate of a real link (theta = 0) the imaginary part
    # +0 that the sparse sum gives it
    row = np.concatenate([node, right, node, seam, below, above], axis=None)
    col = np.concatenate([right, node, node, seam, above, below], axis=None)
    data = np.concatenate([link, link.conj() + 0.0, np.full(node.shape, diagonal),
                           np.full(seam.shape, parity * hop), t_hop, t_hop], axis=None)
    return sp.coo_matrix((data, (row, col)), shape=(rows * n_s,) * 2).tocsr()


class ShiftCertificateWarning(UserWarning):
    """The 2D solve did more work than forecast: the lower bound of
    `_bound_clears` did not certify the forecast shift of a block, which was
    solved at 0 instead, or odd levels were merged into the lowest ones."""


def _mirror_symmetric(operator: MagneticOperator2D) -> bool:
    """Whether the link phases of each t row equal those of its mirror
    image, so that the operator commutes exactly with t -> -t."""
    return np.array_equal(operator.theta, operator.theta[::-1])


def reflection_block(operator: MagneticOperator2D, parity: int) -> sp.csr_matrix:
    """The block Q^T H Q of an operator H that commutes with the reflection
    t -> -t (`_mirror_symmetric`), on its even (parity 1) or odd (-1)
    functions, built from the lower half of the grid alone.

    The columns of Q are (e_i + parity e_Pi)/sqrt(2) over the unknowns i of
    the nt // 2 lowest interior t rows, P the reflection, and for the even
    block e_i on the centre row when the interior count nt is odd. The block
    takes the unknowns in that order, as the lower rows of the grid, and
    holds the exact entries of Q^T H Q, each the operator's own entry or
    one rounding from it (`_assemble`): the two blocks together have the
    spectrum of H."""
    nt = operator.n_t - 2
    return _assemble(operator, nt // 2 + (parity > 0) * (nt % 2), parity)


def _bound_cuts(operator: MagneticOperator2D, rows: int) -> tuple[list[int], int]:
    """(edges, j_star): where the lower bound of `_bound_clears` cuts a block
    on the first `rows` interior t rows. Its t-bands are the row runs
    [edges[b], edges[b + 1]): the rows with |t| < 3 l_t, and outside them
    one band per l_t, with l_t = (h / omega)^{1/(k+2)} the magnetic length
    at the weakest field that the outermost row's link phases ds g(t) omega
    / h sample (one band when they see none). The ring of each row opens
    after column j_star, whose link has the largest |theta|: the strongest
    field."""
    n_t = operator.n_t
    t = operator.T * (2.0 * np.arange(1, rows + 1) - (n_t - 1)) / (n_t - 1)
    phases = np.abs(operator.theta[0])
    ds = operator.S / operator.n_s
    with np.errstate(divide="ignore", invalid="ignore"):
        l_t = (ds * abs(_shifted_gauge(operator.k, 0.0, t[:1])[0]) / phases.min()
               ) ** (1.0 / (operator.k + 2))
        far = np.abs(t) / (l_t if l_t > 0 else np.inf) - 3.0
    band = np.where(far < 0, 0.0, np.sign(t) * (1.0 + np.floor(far)))
    edges = [0, *(np.flatnonzero(band[1:] != band[:-1]) + 1).tolist(), rows]
    return edges, int(np.argmax(phases))


def _bound_bands(operator: MagneticOperator2D, H: sp.csr_matrix, x: float):
    """H_cut - x, one t-band at a time, in LAPACK upper band storage
    (Fortran order), for a lower bound H_cut <= H of a block H of the
    operator on its first H.shape[0] // n_s interior t rows: the whole
    operator, or a reflection block restricted to them (`reflection_block`).

    H_cut drops the t hops between the bands of `_bound_cuts` and, on rings
    of three or more columns, the s link from column j_star to j_star + 1,
    and subtracts the modulus of each dropped entry from both of its
    diagonal entries. H - H_cut is then a sum of the positive semidefinite
    2x2 forms [[|a|, a], [conj(a), |a|]], so H_cut <= H: a discrete
    Dirichlet-Neumann bracketing (Reed and Simon IV, XIII.15). A band of m
    rows takes its unknowns column by column from j_star + 1, t fastest, so
    its t hops lie at offset 1 and its s links at offset m, its bandwidth.
    The entries are read straight from diagonals of the CSR H."""
    n_s = operator.n_s
    n = H.shape[0]
    rows = n // n_s
    edges, j_star = _bound_cuts(operator, rows)
    hop = H.diagonal(n_s)
    # link[u] = H[u, right(u)]: right(u) is u + 1, and u + 1 - n_s in the
    # last column
    link = np.zeros(n, dtype=H.dtype)
    if n_s > 1:
        link[:-1] = H.diagonal(1)
        link[n_s - 1::n_s] = H.diagonal(1 - n_s)[::n_s]
    loss = np.zeros(n)
    if n_s > 2:                 # open each ring after column j_star
        cut = slice(j_star, None, n_s)
        loss[cut] = np.abs(link[cut])
        loss[(j_star + 1) % n_s::n_s] = np.abs(link[cut])
    for e in edges[1:-1]:       # and drop the t hops between bands
        below = slice((e - 1) * n_s, e * n_s)
        loss[below] += np.abs(hop[below])
        loss[e * n_s:(e + 1) * n_s] += np.abs(hop[below])
    order = (j_star + 1 + np.arange(n_s)) % n_s
    diag = (H.diagonal() - loss).reshape(rows, n_s)[:, order]
    link = link.reshape(rows, n_s)[:, order]
    hop = hop.reshape(rows - 1, n_s)[:, order]
    for a, b in zip(edges[:-1], edges[1:]):
        m = b - a
        # store[c, r] is band column c m + r, so store's transpose is the
        # band in Fortran order
        store = np.zeros((n_s, m, m + 1), dtype=H.dtype)
        store[:, :, m] = diag[a:b].T - x
        store[:, 1:, m - 1] = hop[a:b - 1].T
        store[1:, :, 0] = link[a:b, :-1].T
        yield store.reshape(n_s * m, m + 1).T


def _bound_clears(operator: MagneticOperator2D, H: sp.csr_matrix, x: float) -> bool:
    """Whether the lower bound H_cut of `_bound_bands` lies above x, which
    proves that the block H has no level at or below x: one LAPACK banded
    Cholesky (pbtrf) of H_cut - x per t-band, each factored in place, and
    the answer is whether every one succeeds."""
    for band in _bound_bands(operator, H, x):
        try:
            cholesky_banded(band, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError:      # a pivot at or below 0
            return False
    return True


def _block_levels(operator: MagneticOperator2D, H, count: int, shift: float,
                  where: str) -> np.ndarray:
    """The `count` lowest levels of one block H of the operator, by
    shift-invert at `shift` once `_bound_clears` certifies that no level
    lies at or below it, else (with a warning) at 0; the certificate comes
    before any factor, so the block is factored once. Every pair the
    Lanczos returned satisfies |H v - lambda v| <= RESIDUAL_TOL |v| on this
    H; a larger residual raises ConvergenceError naming `where`."""
    if shift and not _bound_clears(operator, H, shift):
        warnings.warn(f"{where}: shift {shift:.6e} not certified below the "
                      f"spectrum; solved at 0", ShiftCertificateWarning, stacklevel=3)
        shift = 0.0
    vals, vecs = lowest_sparse_eigenpairs(H, count, shift=shift)
    for i, (value, v) in enumerate(zip(vals, vecs.T)):
        resid = np.linalg.norm(H @ v - value * v) / np.linalg.norm(v)
        if resid > RESIDUAL_TOL:
            raise ConvergenceError(f"{where}: eigenpair {i} residual {resid:.2e} "
                                   f"exceeds {RESIDUAL_TOL:g}")
    return vals


def lowest_eigenvalues_2d(operator: MagneticOperator2D, m_count: int,
                          shift: float = 0.0) -> np.ndarray:
    """m_count smallest eigenvalues of the operator, ascending.

    When the operator commutes exactly with the reflection t -> -t (its
    link phases equal their mirror image bit for bit) it is split into its
    even and odd blocks, each built from the lower half of the grid as
    its exact restriction Q^T H Q (`reflection_block`); otherwise, or when a
    block is too small to hold m_count levels, it is one block. The even
    block is built and solved first, and the odd block is built only once
    the even factor is freed; the split path builds no matrix of the whole
    grid. The first block is solved by shift-invert Lanczos for exactly
    m_count levels at `shift`, a forecast of a point below the ground
    state, once a lower bound H_cut <= H of the block is found to lie above
    it (`_bound_clears`, one banded Cholesky per t-band), before any factor
    is built; otherwise it is solved at 0. The bound is conservative where
    the period S is about one magnetic length h^{1/(2(k+2))} in s or less:
    opening each ring then costs more than the forecast's margin (at k=1,
    S = 0.5, h = 0.02 the bound lies at 0.61 lambda_0, the forecast at
    0.63), and that h is solved at 0. The odd block is certified by the
    same bound at the largest even level lambda_{m-1} (its bound lies
    1.45-2.24 times above lambda_3 on the default k=1 sweep); when that is
    inconclusive, the odd block is solved for m_count levels at `shift`,
    certified as the first, and its levels are merged with the even ones by
    value. A ShiftCertificateWarning is emitted for each shift not
    certified, and one naming their count when odd levels enter the lowest
    m_count; an inconclusive bound alone emits none. Every sparse factor
    uses the symmetric minimum-degree ordering MMD_AT_PLUS_A, and only one
    factor is alive at a time. The Lanczos runs from a single start vector,
    so within a block it resolves no exact multiplicity and sees no level
    that an exact symmetry keeps orthogonal to that vector; the reflection
    t -> -t is such a symmetry, which is why it is split off. A Lanczos
    that does not converge raises ConvergenceError with its last Ritz
    values. Each Lanczos stops once its Ritz vectors have residuals within
    RESIDUAL_TOL/10 = 1e-10 (see `_shift_invert`). Every pair of every
    solved block, odd pairs that do not enter the result included,
    satisfies |H_b v - lambda v| <= RESIDUAL_TOL |v| on the block H_b that
    was solved; a larger residual raises, naming h and the block. As each
    block is Q^T H Q with an isometry Q, the same bound holds for Q v on
    the whole operator, up to rounding."""
    where = f"h={operator.h:g}"
    if (operator.n_t - 2) // 2 * operator.n_s < m_count or not _mirror_symmetric(operator):
        return _block_levels(operator, operator.hermitian, m_count, shift,
                             f"{where}, full block")
    vals = _block_levels(operator, reflection_block(operator, 1), m_count, shift,
                         f"{where}, even block")
    odd = reflection_block(operator, -1)
    if _bound_clears(operator, odd, vals[-1]):
        return vals
    more = _block_levels(operator, odd, m_count, shift, f"{where}, odd block")
    merged = np.concatenate([vals, more])
    order = np.argsort(merged, kind="stable")[:m_count]
    entered = np.count_nonzero(order >= m_count)
    if entered:
        warnings.warn(f"{where}, odd block: {entered} of the {m_count} "
                      f"lowest levels; merged", ShiftCertificateWarning,
                      stacklevel=2)
    return merged[order]


@dataclass(frozen=True)
class Sweep2DReport:
    """Measured eigenvalues over the h sweep plus fitted scaling laws and
    the comparison against the miniwell predictions."""

    k: int
    omega_min: float
    nu_hat: float
    d2: float
    K_levels: tuple[float, ...]
    h_values: tuple[float, ...]
    eigenvalues: np.ndarray              # shape (len(h), m_count)
    z_predicted: np.ndarray              # same shape
    leading_fit_exponent: float
    leading_fit_coefficient: float
    leading_ratio_smallest_h: float      # lambda_0/h^lead / (nu_hat w^{2/(k+2)})
    splitting_fit_exponent: float
    splitting_coefficients: tuple[float, ...]   # extrapolated, per gap
    K_level_gaps: tuple[float, ...]
    skipped_h: tuple[float, ...]
    warnings_issued: tuple[str, ...]


def _intercept_fit(x: np.ndarray, y: np.ndarray) -> float:
    """Intercept of the least-squares line y = c0 + c1 x; used to remove the
    known first correction power from coefficient estimates."""
    A = np.column_stack([np.ones_like(x), x])
    return float(np.linalg.lstsq(A, y, rcond=None)[0][0])


def _solve_h(config: Field2DConfig, m_count: int, lead_coef: float,
             lead_pow: float, h: float) -> tuple[np.ndarray, list[Warning]]:
    """The lowest m_count levels at h, and the warnings their solve issued."""
    op = assemble_2d(config, h)
    # 0.97 of the leading term forecasts a shift just below lambda_0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals = lowest_eigenvalues_2d(op, m_count, shift=0.97 * lead_coef * h**lead_pow)
    return vals, [w.message for w in caught]


def run_sweep(config: Field2DConfig, m_count: int = 4) -> Sweep2DReport:
    """Measure the low spectrum across the h sweep and compare with the
    semiclassical predictions.

    Needs m_count >= 2, and an h_list that the power-law fits can take, at
    least 4 h spanning a decade (`fit_refusal`): ValueError otherwise,
    before any solve. Skips (and records) h values that `assemble_2d`
    refuses with ResolutionError; when the usable h left cannot be fitted,
    ConvergenceError. Each h is solved at the shift
    0.97 nu_hat omega_min^{2/(k+2)} h^{(2k+2)/(k+2)}, certified inside
    `lowest_eigenvalues_2d`; every failed certificate is
    warned and recorded in `warnings_issued`. Fits the leading power law on
    lambda_0(h) and the splitting law on lambda_1 - lambda_0; per-gap
    splitting coefficients are extrapolated to h -> 0 by removing the first
    correction power h^{1/(k+2)} (the half-power term cancels for profiles
    even about the minimum). Warns when the largest h sits outside the
    asymptotic window (leading term less than ten times the miniwell term).

    The h values are solved through `_workers.solved`: when BLAS runs one
    thread, side by side in forked worker processes, one per usable core,
    the smallest h (largest grid) first. Their levels, warnings and errors
    are taken in h_list order, as in process: the first error other than a
    skip is raised.
    """
    if m_count < 2:
        raise ValueError(f"the sweep fits level splittings, so it needs "
                         f"m_count >= 2, got {m_count}")
    refusal = fit_refusal(config.h_list)
    if refusal:
        raise ValueError(f"h_list cannot be fitted: {refusal}")
    report = minimizer_state(config.k).report
    nu_hat = report.nu_hat
    geom = flat_model_geometry(config.omega_min, config.curvature_abs2)
    kop = build_effective_operator(geom, report)
    levels = spectrum_K(kop, count=m_count).levels

    lead_pow = float(leading_exponent(config.k))
    split_pow = float(splitting_exponent(config.k))
    lead_coef = nu_hat * config.omega_min ** (2.0 / (config.k + 2))

    issued: list[str] = []
    kept, skipped, rows = [], [], []
    solve = partial(_solve_h, config, m_count, lead_coef, lead_pow)
    with _workers.solved(solve, config.h_list) as results:
        for h, result in zip(config.h_list, results):
            try:
                vals, messages = result()
            except ResolutionError as exc:
                skipped.append(h)
                issued.append(str(exc))
                continue
            for message in messages:
                warnings.warn(message, stacklevel=2)
                if isinstance(message, ShiftCertificateWarning):
                    issued.append(str(message))
            rows.append(vals)
            kept.append(h)
    if fit_refusal(kept):
        raise ConvergenceError(f"fewer than 4 usable h values in the sweep that span "
                               f"a decade: usable h [{', '.join(f'{h:g}' for h in kept)}]")

    hs = np.array(kept)
    lam = np.array(rows)
    z = np.array([[quasimode_energy(h, config.k, config.omega_min, lev,
                                    nu_hat=nu_hat) for lev in levels]
                  for h in hs])

    lead_term = lead_coef * hs[0] ** lead_pow
    mini_term = levels[0] * hs[0] ** split_pow
    if lead_term < 10.0 * mini_term:
        msg = (f"h={hs[0]:g} outside the asymptotic window: leading term "
               f"{lead_term:.3e} < 10 x miniwell term {mini_term:.3e}")
        warnings.warn(msg, stacklevel=2)
        issued.append(msg)

    fit0 = exponent_fit(hs, lam[:, 0])
    fit_split = exponent_fit(hs, lam[:, 1] - lam[:, 0])
    x = hs ** (1.0 / (config.k + 2))
    gaps = tuple(
        _intercept_fit(x, (lam[:, m + 1] - lam[:, m]) / hs**split_pow)
        for m in range(m_count - 1))
    k_gaps = tuple(float(levels[m + 1] - levels[m]) for m in range(m_count - 1))
    ratio = float(lam[-1, 0] / hs[-1] ** lead_pow / lead_coef)

    return Sweep2DReport(
        k=config.k,
        omega_min=config.omega_min,
        nu_hat=nu_hat,
        d2=report.d2,
        K_levels=tuple(float(v) for v in levels),
        h_values=tuple(float(v) for v in hs),
        eigenvalues=lam,
        z_predicted=z,
        leading_fit_exponent=fit0.exponent,
        leading_fit_coefficient=fit0.coefficient,
        leading_ratio_smallest_h=ratio,
        splitting_fit_exponent=fit_split.exponent,
        splitting_coefficients=gaps,
        K_level_gaps=k_gaps,
        skipped_h=tuple(float(v) for v in skipped),
        warnings_issued=tuple(issued),
    )
