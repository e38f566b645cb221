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
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence

from ._files import load_json_object
from ._shift_invert import lowest_sparse_eigenpairs
from .sl_engine import ConvergenceError, SolverError
from .asymptotics import exponent_fit, leading_exponent, quasimode_energy, splitting_exponent


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
    pinned explicitly through n_s / n_t.
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
    grid_budget: tuple[int, int] = (1024, 512)   # (max n_s, max n_t)

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
        need_s, need_t = self.required_grid(h)
        n_s = self.n_s or need_s
        n_t = self.n_t or need_t
        if n_s < need_s or n_t < need_t:
            raise ResolutionError(
                f"h={h:g} needs n_s >= {need_s}, n_t >= {need_t}; "
                f"got ({n_s}, {n_t})")
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


def _link_phases(config: Field2DConfig, h: float, t: np.ndarray,
                 s_mid: np.ndarray) -> np.ndarray:
    A_mid = np.outer(t ** (config.k + 1) / (config.k + 1), config.omega(s_mid))
    ds = config.S / len(s_mid)
    return ds * A_mid / h


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


def assemble_2d(config: Field2DConfig, h: float,
                zero_gauge: bool = False) -> MagneticOperator2D:
    """Gauge-covariant five-point discretization at one h.

    Dirichlet rows at t = +-T are eliminated; s is periodic. Refuses grids
    that under-resolve the magnetic lengths (reporting what is required) or
    that would admit low-lying link-wrap artifacts. `zero_gauge` is a test
    hook that drops A entirely, leaving the plain Laplacian ⊗ structure.
    """
    n_s, n_t = config.grid_for(h)
    t_full = np.linspace(-config.T, config.T, n_t)
    t = t_full[1:-1]
    dt = 2 * config.T / (n_t - 1)
    ds = config.S / n_s
    s_mid = (np.arange(n_s) + 0.5) * ds

    nt = len(t)
    N = nt * n_s
    if zero_gauge:
        theta = np.zeros((nt, n_s))
    else:
        theta = _link_phases(config, h, t, s_mid)
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


def lowest_eigenvalues_2d(operator: MagneticOperator2D, m_count: int,
                          tol: float = 1e-9) -> np.ndarray:
    """m_count smallest eigenvalues by shift-invert Lanczos at sigma=0 (the
    operator is positive definite). The operator is factored once, with the
    symmetric minimum-degree ordering MMD_AT_PLUS_A, and that factor is freed
    before this returns, so a sweep holds one factor at a time. Every
    returned pair satisfies |H v - lambda v| <= tol |v|; a larger residual
    raises."""
    H = operator.hermitian
    k_want = min(max(m_count + 2, 6), H.shape[0] - 2)
    if k_want < m_count:
        raise ValueError("operator too small for the requested eigenvalue count")
    try:
        vals, vecs = lowest_sparse_eigenpairs(H, k_want, return_eigenvectors=True)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"2D eigensolver did not converge: {exc}") from exc
    vals, vecs = vals[:m_count], vecs[:, :m_count]
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

    Skips (and records) h values whose required grid exceeds the configured
    budget. Fits the leading power law on lambda_0(h) and the splitting law
    on lambda_1 - lambda_0; per-gap splitting coefficients are extrapolated
    to h -> 0 by removing the first correction power h^{1/(k+2)} (the
    half-power term cancels for profiles even about the minimum). Warns when
    the largest h sits outside the asymptotic window (leading term less than
    ten times the miniwell term).
    """
    from .montgomery import minimizer_state
    from .miniwell import build_effective_operator, flat_model_geometry, spectrum_K

    st = minimizer_state(config.k)
    nu_hat = st.report.nu_hat
    d2 = st.report.d2
    geom = flat_model_geometry(config.omega_min, config.curvature_abs2)
    kop = build_effective_operator(geom, config.k, st)
    kspec = spectrum_K(kop, count=m_count + 2)
    levels = kspec.levels[:m_count]

    issued: list[str] = []
    kept, skipped, rows = [], [], []
    for h in config.h_list:
        try:
            op = assemble_2d(config, h)
        except ResolutionError as exc:
            skipped.append(h)
            issued.append(str(exc))
            continue
        rows.append(lowest_eigenvalues_2d(op, m_count, tol))
        kept.append(h)
    if len(kept) < 4:
        raise ConvergenceError("fewer than 4 usable h values in the sweep")

    hs = np.array(kept)
    lam = np.array(rows)
    z = np.array([[quasimode_energy(h, config.k, config.omega_min, lev,
                                    nu_hat=nu_hat) for lev in levels]
                  for h in hs])

    lead_pow = float(leading_exponent(config.k))
    split_pow = float(splitting_exponent(config.k))
    lead_term = nu_hat * config.omega_min ** (2.0 / (config.k + 2)) \
        * hs[0] ** lead_pow
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
    ratio = float(lam[-1, 0] / hs[-1] ** lead_pow
                  / (nu_hat * config.omega_min ** (2.0 / (config.k + 2))))

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
