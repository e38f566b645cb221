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
bit, so the operator commutes exactly with the reflection t -> -t. The
eigensolver then splits it into even and odd blocks of about N/2 unknowns.
It solves the even block at a shift forecast just below the ground state,
and certifies that shift, and the absence of odd levels among the lowest
ones, by Sylvester inertia of the factors it computes.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from ._files import load_json_object
from ._shift_invert import ShiftRejected, count_below, lowest_sparse_eigenpairs
from .sl_engine import ConvergenceError, SolverError
from .montgomery import _shifted_gauge
from .asymptotics import exponent_fit, leading_exponent, quasimode_energy, splitting_exponent


GRID_BUDGET = (1024, 512)     # (max n_s, max n_t) of any assembled grid


class ResolutionError(SolverError):
    """The grid under-resolves the magnetic length scales for this h."""


def default_omega_profile(omega_min: float, a: float, s1: float, S: float
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth periodic intensity profile omega_min (1 + a sin^2(pi (s-s1)/S))
    with a single non-degenerate minimum at s1 and closed-form curvature."""

    def omega(s):
        return omega_min * (1.0 + a * np.sin(np.pi * (np.asarray(s) - s1) / S) ** 2)

    return omega


@dataclass(frozen=True)
class Field2DConfig:
    """Flat-cylinder model of a field vanishing to order k on the line t=0.

    `omega` maps s to the field coefficient (positive, S-periodic, unique
    minimum at s1 with positive curvature); `omega_min`, `s1` and
    `curvature_abs2` = (|omega|^2)''(s1) are declared by the caller since the
    sweep predictions need them in closed form. Grid sizes follow the
    resolution rule `points_per_length` nodes per magnetic length unless
    pinned explicitly through n_s / n_t, and must fit GRID_BUDGET.
    """

    k: int
    omega: Callable[[np.ndarray], np.ndarray]
    omega_min: float
    s1: float
    curvature_abs2: float
    S: float
    T: float
    h_list: tuple[float, ...]
    points_per_length: int = 20
    n_s: Optional[int] = None
    n_t: Optional[int] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.omega_min <= 0 or self.curvature_abs2 <= 0:
            raise ValueError("need omega_min > 0 and positive miniwell curvature")
        if any(h <= 0 for h in self.h_list):
            raise ValueError("h values must be positive")
        if sorted(self.h_list, reverse=True) != list(self.h_list):
            raise ValueError("h_list must be descending")

    @classmethod
    def default(cls, k: int = 1, omega_min: float = 1.0, a: float = 1.0,
                S: float = 14.0, s1: float = 4.2, T: float = 0.8,
                h_list: Sequence[float] = (), points_per_length: int = 20,
                **kw) -> "Field2DConfig":
        if not h_list:
            h_list = tuple(np.geomspace(0.02, 0.002, 7))
        curv_omega = omega_min * a * 2.0 * np.pi**2 / S**2       # omega''(s1)
        return cls(
            k=k,
            omega=default_omega_profile(omega_min, a, s1, S),
            omega_min=omega_min,
            s1=s1,
            curvature_abs2=2.0 * omega_min * curv_omega,
            S=S, T=T, h_list=tuple(h_list),
            points_per_length=points_per_length, **kw)

    @classmethod
    def from_json(cls, source) -> "Field2DConfig":
        """Build the default-profile model from a JSON document (a path, an
        open file or an already parsed mapping) with keys k, omega_min, a,
        S, s1, T, h_list, points_per_length and the optional grid pins n_s,
        n_t. Malformed documents raise ValueError."""
        data = load_json_object(source, "sweep config")
        h_list = data.get("h_list", [])
        if not isinstance(h_list, (list, tuple)):
            raise ValueError(f"h_list must be a list of numbers, got {h_list!r}")
        try:
            pins = {key: None if data.get(key) is None else int(data[key])
                    for key in ("n_s", "n_t")}
            return cls.default(
                k=int(data.get("k", 1)),
                omega_min=float(data.get("omega_min", 1.0)),
                a=float(data.get("a", 1.0)),
                S=float(data.get("S", 14.0)),
                s1=float(data.get("s1", 4.2)),
                T=float(data.get("T", 0.8)),
                h_list=tuple(h_list),
                points_per_length=int(data.get("points_per_length", 20)),
                **pins,
            )
        except TypeError as exc:     # a value of the wrong JSON type
            raise ValueError(f"malformed sweep config: {exc}") from exc

    def magnetic_length_t(self, h: float) -> float:
        return (h / self.omega_min) ** (1.0 / (self.k + 2))

    def magnetic_length_s(self, h: float) -> float:
        return h ** (1.0 / (2 * (self.k + 2)))

    def required_grid(self, h: float) -> tuple[int, int]:
        """(n_s, n_t) demanded by the points-per-length rule at this h."""
        n_t = int(np.ceil(2 * self.T / (self.magnetic_length_t(h)
                                        / self.points_per_length))) + 1
        n_s = int(np.ceil(self.S / (self.magnetic_length_s(h)
                                    / self.points_per_length)))
        return n_s, n_t

    def grid_for(self, h: float) -> tuple[int, int]:
        """(n_s, n_t) used at this h: the pins, else the required grid.
        Raises ResolutionError when the grid under-resolves h or exceeds
        GRID_BUDGET."""
        need_s, need_t = self.required_grid(h)
        n_s = self.n_s or need_s
        n_t = self.n_t or need_t
        if n_s < need_s or n_t < need_t:
            raise ResolutionError(
                f"h={h:g} needs n_s >= {need_s}, n_t >= {need_t}; "
                f"got ({n_s}, {n_t})")
        max_s, max_t = GRID_BUDGET
        if n_s > max_s or n_t > max_t:
            raise ResolutionError(
                f"h={h:g}: grid ({n_s}, {n_t}) exceeds the grid budget "
                f"n_s <= {max_s}, n_t <= {max_t}")
        return n_s, n_t


@dataclass(frozen=True)
class MagneticOperator2D:
    """Assembled discrete magnetic operator on the cylinder grid.

    `hermitian` is the operator actually diagonalized (complex Hermitian
    CSR, equal to its conjugate transpose bit for bit).
    """

    hermitian: sp.csr_matrix
    h: float
    k: int
    n_s: int
    n_t: int
    S: float
    T: float

    @property
    def shape(self):
        return self.hermitian.shape


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
            f"too low ({zero_point:.3e} vs window {window:.3e}); refine n_s")


def assemble_2d(config: Field2DConfig, h: float) -> MagneticOperator2D:
    """Gauge-covariant five-point discretization at one h.

    Dirichlet rows at t = +-T are eliminated; s is periodic. Refuses grids
    that under-resolve the magnetic lengths (reporting what is required) or
    that would admit low-lying link-wrap artifacts.
    """
    n_s, n_t = config.grid_for(h)
    # interior nodes t_i = T (2i - (n_t - 1)) / (n_t - 1), i = 1..n_t-2:
    # mirror-symmetric bit for bit, so an A_s even in t gives an operator
    # that commutes exactly with the reflection t -> -t
    t = config.T * (2.0 * np.arange(1, n_t - 1) - (n_t - 1)) / (n_t - 1)
    dt = 2 * config.T / (n_t - 1)
    ds = config.S / n_s
    s_mid = (np.arange(n_s) + 0.5) * ds

    nt = len(t)
    N = nt * n_s
    # link phases ds A_s / h, A_s sampled at the staggered midpoints
    theta = ds * np.outer(_shifted_gauge(config.k, 0.0, t), config.omega(s_mid)) / h
    _check_wrap_clearance(config, h, t, theta)

    ii = np.arange(nt)
    jj = np.arange(n_s)
    I, J = np.meshgrid(ii, jj, indexing="ij")

    def idx(i, j):
        return i * n_s + j

    rows, cols, vals = [], [], []
    coef_t = -(h**2) / dt**2
    r = idx(I[:-1, :], J[:-1, :]).ravel()
    c = idx(I[:-1, :] + 1, J[:-1, :]).ravel()
    hop_t = np.full(r.size, coef_t, dtype=complex)
    rows += [r, c]
    cols += [c, r]
    vals += [hop_t, hop_t]

    link = -(h**2 / ds**2) * np.exp(-1j * theta)
    r = idx(I, J).ravel()
    c = idx(I, (J + 1) % n_s).ravel()
    rows += [r, c]
    cols += [c, r]
    vals += [link.ravel(), np.conj(link).ravel()]

    diag = np.full(N, 2 * h**2 / dt**2 + 2 * h**2 / ds**2, dtype=complex)
    H = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N)).tocsr()
    H += sp.diags(diag)
    return MagneticOperator2D(hermitian=H, h=h, k=config.k, n_s=n_s, n_t=n_t,
                              S=config.S, T=config.T)


class ShiftCertificateWarning(UserWarning):
    """An inertia certificate of the 2D solve failed, so the solve did more
    work: a refactorisation at shift 0, or a solve of the odd block."""


def reflection_blocks(operator: MagneticOperator2D) -> list[tuple[str, Optional[sp.csr_matrix]]]:
    """The isometries Q that split the operator by the reflection t -> -t.

    When P H P == H holds bit for bit, with P the reflection of the interior
    t rows, this returns [("even", Q_even), ("odd", Q_odd)]. The columns of
    Q_even are (e_i + e_Pi)/sqrt(2) over the row pairs and e_i on the centre
    row (odd interior count); those of Q_odd are (e_i - e_Pi)/sqrt(2). The
    blocks Q^T H Q have about N/2 unknowns each, and their spectra together
    are that of H. Without the symmetry (A_s odd in t, as for even k) the
    operator stays one block: [("full", None)].
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


def _pivots(count: Optional[int]) -> str:
    return "untrusted inertia" if count is None else f"{count} negative pivots"


def _block_pairs(H, count: int, shift: float, where: str):
    """The `count` lowest eigenpairs of one block, by shift-invert at
    `shift` when its factor certifies it, else (with a warning) at 0."""
    k_want = min(max(count + 2, 6), H.shape[0] - 2)
    if k_want < count:
        raise ValueError("operator too small for the requested eigenvalue count")
    try:
        try:
            vals, vecs = lowest_sparse_eigenpairs(H, k_want, True, shift=shift)
        except ShiftRejected as exc:
            warnings.warn(f"{where}: shift {shift:.6e} not below the spectrum "
                          f"({_pivots(exc.negative_pivots)}); refactored at 0",
                          ShiftCertificateWarning, stacklevel=3)
            vals, vecs = lowest_sparse_eigenpairs(H, k_want, True)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"2D eigensolver did not converge: {exc}") from exc
    return vals[:count], vecs[:, :count]


def lowest_eigenvalues_2d(operator: MagneticOperator2D, m_count: int,
                          tol: float = 1e-9, shift: float = 0.0) -> np.ndarray:
    """m_count smallest eigenvalues of the operator, ascending.

    When the operator commutes exactly with the reflection t -> -t it is
    split into its even and odd blocks (`reflection_blocks`); otherwise, or
    when a block is too small to hold m_count levels, it is one block. The
    first block is solved by shift-invert Lanczos at `shift`, a forecast of
    a point below the ground state: the shift is kept only when the factor
    of H_even - shift has no negative pivot (Sylvester inertia), and is
    otherwise replaced by 0. The odd block is
    certified the same way at the largest even level lambda_{m-1}: if the
    factor of H_odd - lambda_{m-1} has a negative pivot, or its inertia
    cannot be trusted, the odd block is solved too and its levels merged.
    Each failed certificate emits a ShiftCertificateWarning. Each block is
    factored once with the symmetric minimum-degree ordering MMD_AT_PLUS_A,
    and only one factor is alive at a time. Every returned pair satisfies
    |H v - lambda v| <= tol |v| on the full operator; a larger residual
    raises."""
    H = operator.hermitian
    where = f"h={operator.h:g}"
    blocks = reflection_blocks(operator)
    if any(Q is not None and Q.shape[1] - 2 < m_count for _, Q in blocks):
        blocks = [("full", None)]        # a block too small for m_count levels
    (name, Q), *rest = blocks
    block = H if Q is None else (Q.T @ H @ Q).tocsr()
    vals, vecs = _block_pairs(block, m_count, shift, f"{where}, {name} block")
    if Q is not None:
        vecs = Q @ vecs
    for name, Q in rest:
        block = (Q.T @ H @ Q).tocsr()
        below = count_below(block, vals[-1])
        if below == 0:
            continue
        warnings.warn(f"{where}, {name} block: {_pivots(below)} at lambda_"
                      f"{m_count - 1} = {vals[-1]:.6e}; solving the {name} "
                      f"block and merging", ShiftCertificateWarning, stacklevel=2)
        need = m_count if below is None else min(below, m_count)
        more, more_vecs = _block_pairs(block, need, shift, f"{where}, {name} block")
        order = np.argsort(np.concatenate([vals, more]), kind="stable")[:m_count]
        vals = np.concatenate([vals, more])[order]
        vecs = np.hstack([vecs, Q @ more_vecs])[:, order]
    for i in range(m_count):
        v = vecs[:, i]
        resid = np.linalg.norm(H @ v - vals[i] * v) / np.linalg.norm(v)
        if resid > tol:
            raise ConvergenceError(
                f"eigenpair {i} residual {resid:.2e} exceeds tol {tol:g}")
    return vals


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


def run_sweep(config: Field2DConfig, m_count: int = 4,
              tol: float = 1e-9) -> Sweep2DReport:
    """Measure the low spectrum across the h sweep and compare with the
    semiclassical predictions.

    Needs m_count >= 2 (ValueError otherwise). Skips (and records) h values
    whose grid exceeds GRID_BUDGET or under-resolves them. Each h
    is solved at the shift 0.97 nu_hat omega_min^{2/(k+2)} h^{(2k+2)/(k+2)},
    certified inside `lowest_eigenvalues_2d`; every failed certificate is
    warned and recorded in `warnings_issued`. Fits the leading power law on
    lambda_0(h) and the splitting law on lambda_1 - lambda_0; per-gap
    splitting coefficients are extrapolated to h -> 0 by removing the first
    correction power h^{1/(k+2)} (the half-power term cancels for profiles
    even about the minimum). Warns when the largest h sits outside the
    asymptotic window (leading term less than ten times the miniwell term).
    """
    from .montgomery import minimizer_state
    from .miniwell import build_effective_operator, flat_model_geometry, spectrum_K

    if m_count < 2:
        raise ValueError(f"the sweep fits level splittings, so it needs "
                         f"m_count >= 2, got {m_count}")
    st = minimizer_state(config.k)
    nu_hat = st.report.nu_hat
    d2 = st.report.d2
    geom = flat_model_geometry(config.omega_min, config.curvature_abs2)
    kop = build_effective_operator(geom, st)
    kspec = spectrum_K(kop, count=m_count + 2)
    levels = kspec.levels[:m_count]

    lead_pow = float(leading_exponent(config.k))
    split_pow = float(splitting_exponent(config.k))
    lead_coef = nu_hat * config.omega_min ** (2.0 / (config.k + 2))

    issued: list[str] = []
    kept, skipped, rows = [], [], []
    for h in config.h_list:
        try:
            op = assemble_2d(config, h)
        except ResolutionError as exc:
            skipped.append(h)
            issued.append(str(exc))
            continue
        # 0.97 of the leading term forecasts a shift just below lambda_0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows.append(lowest_eigenvalues_2d(op, m_count, tol,
                                              shift=0.97 * lead_coef * h**lead_pow))
        for w in caught:
            warnings.warn(w.message, stacklevel=2)
            if issubclass(w.category, ShiftCertificateWarning):
                issued.append(str(w.message))
        kept.append(h)
    if len(kept) < 4:
        raise ConvergenceError("fewer than 4 usable h values in the sweep")

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
        d2=d2,
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
