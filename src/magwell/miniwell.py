"""Effective operator of a non-degenerate miniwell: a second-scale magnetic
well formed where the field intensity along the vanishing hypersurface
attains its minimum.

Given pointwise geometric data at the miniwell (the field coefficient
vector, its first derivatives, the Hessian of its squared norm and the
field divergence), this module assembles the quadratic model operator

    K = c_omega * Delta_par + Delta_perp + sigma^T Omega sigma + A

acting on R^{n-1}, where Delta_par is the (negative) second derivative
along the distinguished direction e_omega, Delta_perp the Laplacian on its
orthogonal complement, Omega a symmetric matrix built from the miniwell
curvature, and A a constant (complex when the well sits at a nonzero
critical alpha and the field divergence does not vanish).

At a non-degenerate band minimum c_omega = d2/2 > 0, and K has the
anisotropic-oscillator point spectrum; an operator with c_omega <= 0 or an
Omega that is not positive definite is refused when it is built. The
validation oracle diagonalizes K directly, by Rayleigh-Ritz in a tensor
Hermite-function basis.
"""
from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ._files import read_fields
from ._shift_invert import lowest_sparse_eigenpairs
from .sl_engine import ConvergenceError, SolverError
from .montgomery import MinimizerReport

GRADIENT_TOL = 1e-8     # rejection threshold for the minimum condition


# The fields of a geometry document and their kinds (see _files.read_fields)
GEOMETRY_FIELDS = {"n": "integer", "omega01": "numbers", "domega01": "array",
                   "hess_abs2": "array", "domega_div": "number?"}


@dataclass(frozen=True)
class MiniwellGeometry:
    """Pointwise data of the field at the miniwell.

    Vectors have length n-1 and matrices are (n-1) x (n-1); indices follow
    [component j, coordinate r] for `domega01`. `domega_div` is accepted as
    an independent input (it equals trace(domega01) for data derived from an
    actual field; leaving it None uses that trace).
    """

    n: int
    omega01: np.ndarray
    domega01: np.ndarray
    hess_abs2: np.ndarray
    domega_div: Optional[float] = None

    def __post_init__(self):
        d = self.n - 1
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")

        def arr(name, value, shape):
            value = np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            value.setflags(write=False)
            object.__setattr__(self, name, value)
            return value

        w = arr("omega01", self.omega01, (d,))
        D = arr("domega01", self.domega01, (d, d))
        H = arr("hess_abs2", self.hess_abs2, (d, d))

        if not np.linalg.norm(w) > 0:
            raise ValueError("omega01 must be nonzero at a miniwell")
        grad = D.T @ w
        scale = max(1.0, float(np.max(np.abs(D)) * np.max(np.abs(w))))
        if np.max(np.abs(grad)) > GRADIENT_TOL * scale:
            raise ValueError(
                "geometry violates the minimum condition: sum_j "
                f"d_omega01[j,r] * omega01[j] = {grad.tolist()} != 0")
        if np.max(np.abs(H - H.T)) > 1e-12 * max(1.0, np.max(np.abs(H))):
            raise ValueError("hess_abs2 must be symmetric")
        if np.any(np.linalg.eigvalsh(H) <= 0):
            raise ValueError("hess_abs2 must be positive definite "
                             "(non-degenerate miniwell)")

    @property
    def omega_min(self) -> float:
        return float(np.linalg.norm(self.omega01))

    @property
    def e_omega(self) -> np.ndarray:
        return self.omega01 / self.omega_min

    @property
    def divergence(self) -> float:
        if self.domega_div is not None:
            return float(self.domega_div)
        return float(np.trace(self.domega01))

    @classmethod
    def from_json(cls, source) -> "MiniwellGeometry":
        """Load from a JSON document with fields of GEOMETRY_FIELDS: a path
        or an already parsed mapping. Malformed documents raise
        ValueError naming the field (see `_files.read_fields`)."""
        return cls(**read_fields(source, "geometry", GEOMETRY_FIELDS,
                                 required=("n", "omega01", "domega01", "hess_abs2")))


def flat_model_geometry(omega_min: float, curvature_abs2: float) -> MiniwellGeometry:
    """Geometry of the flat 2D validation model: one surface direction, the
    curvature of |omega|^2 at the minimum, and a field direction that does
    not turn (domega01 = 0)."""
    return MiniwellGeometry(
        n=2,
        omega01=np.array([omega_min]),
        domega01=np.zeros((1, 1)),
        hess_abs2=np.array([[curvature_abs2]]),
    )


# ---------------------------------------------------------------------------
# the operator K

def build_Omega(geometry: MiniwellGeometry, report: MinimizerReport) -> np.ndarray:
    """Potential matrix of K for the family k of `report`:

        Omega = w^{-(2k+2)/(k+2)} [ nu_hat/(2(k+2)) Hess(|omega|^2)
                                    + alpha_min^2 D^T D ]

    with w the field minimum and D the derivative matrix of the field
    coefficients. Symmetric by construction; positive definite whenever the
    Hessian is.
    """
    k = report.k
    w = geometry.omega_min
    pref = w ** (-(2.0 * k + 2.0) / (k + 2.0))
    nu = report.nu_hat
    am = report.alpha_min
    D = geometry.domega01
    om = pref * (nu / (2.0 * (k + 2)) * geometry.hess_abs2 + am**2 * (D.T @ D))
    if np.max(np.abs(om - om.T)) > 1e-10 * max(1.0, np.max(np.abs(om))):
        raise SolverError("Omega came out non-symmetric; geometry input is bad")
    return 0.5 * (om + om.T)


def build_A(geometry: MiniwellGeometry, report: MinimizerReport) -> complex:
    """The constant term of K, A = i w^{-1} div(omega01) alpha_min, with w
    the field minimum: its real part is zero at this order.

    K sits one factor h^{1/(k+2)} above the band minimum, where a correction
    linear in the fiber variable tau adds to A only through its expectation
    in the fiber ground state u0. The fiber potential
    (tau^{k+1}/(k+1) - alpha_min)^2 is even in tau: for odd k because
    tau^{k+1} is, for even k because alpha_min = 0 there (Montgomery, CMP
    168, 1995). So u0 is even, and every integrand odd in tau has zero
    expectation. The next Taylor coefficient of the vector potential and the
    first-order metric data pair with u0 only through such integrands
    (tau u0'' u0, tau^{k+2} (tau^{k+1}/(k+1) - alpha_min) u0^2 and
    tau (tau^{k+1}/(k+1) - alpha_min)^2 u0^2), and the metric Christoffel
    data through pairings that vanish by the normalization and stationarity
    of u0, so a geometry document that sets any of them is refused as
    holding unknown fields. The imaginary part is the divergence term; it
    vanishes for even k.
    """
    w = geometry.omega_min
    am = report.alpha_min
    return complex(0.0, w**-1 * geometry.divergence * am)


@dataclass(frozen=True)
class EffectiveOperatorK:
    """Assembled miniwell operator: kinetic weight along e_omega, potential
    matrix, constant term, and the family data it came from. Checked once,
    here: c_omega > 0 and Omega positive definite, both finite, else
    SolverError."""

    c_omega: float
    e_omega: np.ndarray
    Omega: np.ndarray
    A_const: complex
    alpha_min: float
    k: int

    def __post_init__(self):
        if not 0 < self.c_omega < np.inf:
            raise SolverError(
                f"c_omega = d2/2 must be positive and finite, got {self.c_omega}: "
                "K has discrete levels only at a non-degenerate band minimum, "
                "where the curvature d2 > 0")
        mu = np.linalg.eigvalsh(self.Omega)
        if not np.all((0 < mu) & (mu < np.inf)):
            raise SolverError("Omega must be positive definite and finite")
        self.e_omega.setflags(write=False)
        self.Omega.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.e_omega)

    def kinetic_matrix(self) -> np.ndarray:
        """M = I + (c_omega - 1) e e^T in the ambient frame, positive
        definite since c_omega > 0. Realized without choosing a basis
        completion, which keeps every spectral output frame-invariant."""
        e = self.e_omega
        return np.eye(self.dim) + (self.c_omega - 1.0) * np.outer(e, e)


def build_effective_operator(geometry: MiniwellGeometry,
                             report: MinimizerReport) -> EffectiveOperatorK:
    """Assemble K for the given geometry from the band-minimum data of
    `report`; k is the report's."""
    return EffectiveOperatorK(
        c_omega=0.5 * report.d2,
        e_omega=geometry.e_omega,
        Omega=build_Omega(geometry, report),
        A_const=build_A(geometry, report),
        alpha_min=report.alpha_min,
        k=report.k,
    )


@dataclass(frozen=True)
class KSpectrum:
    """The lowest levels of K, ascending, and whether Im A was dropped."""

    levels: np.ndarray
    imag_A_warning: bool


def _oscillator_levels(freqs: np.ndarray, offset: float, count: int) -> np.ndarray:
    """Ascending sums offset + sum_j (2 n_j + 1) freqs_j by best-first
    lattice expansion; degeneracies are listed with multiplicity."""
    d = len(freqs)
    start = (0,) * d
    heap = [(offset + float(np.sum(freqs)), start)]
    seen = {start}
    out = []
    while heap and len(out) < count:
        e, idx = heapq.heappop(heap)
        out.append(e)
        for j in range(d):
            nxt = idx[:j] + (idx[j] + 1,) + idx[j + 1:]
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (e + 2.0 * freqs[j], nxt))
    return np.array(out)


def _check_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"need at least one level, got count={count}")


def _check_imag(kop: EffectiveOperatorK) -> bool:
    if abs(kop.A_const.imag) > 1e-8:
        warnings.warn(
            f"K has a complex constant (Im A = {kop.A_const.imag:.3e}); "
            "energies use Re(A) only", stacklevel=3)
        return True
    return False


def spectrum_K(kop: EffectiveOperatorK, count: int = 8) -> KSpectrum:
    """The lowest `count` levels of K, in closed form: substitute
    sigma = M^{1/2} y to get the isotropic-kinetic oscillator with potential
    matrix M^{1/2} Omega M^{1/2}; levels are Re(A) + sum_j (2 n_j + 1)
    sqrt(mu_j) over its eigenvalues mu_j, enumerated ascending.
    """
    _check_count(count)
    warn = _check_imag(kop)
    e = kop.e_omega
    msqrt = np.eye(kop.dim) + (np.sqrt(kop.c_omega) - 1.0) * np.outer(e, e)
    mu = np.linalg.eigvalsh(msqrt @ kop.Omega @ msqrt)
    return KSpectrum(_oscillator_levels(np.sqrt(mu), kop.A_const.real, count), warn)


# ---------------------------------------------------------------------------
# validation oracle

HERMITE_START = 24      # Hermite functions per axis in the first basis
HERMITE_STEP = 8
HERMITE_CAP = 128
HERMITE_TOL = 1e-9      # agreement of successive bases that ends the loop


def _hermite_axis(scale: float, n: int):
    """(X, X^2, D, D^2) in the first n Hermite functions of width `scale`,
    built from the ladder operator a as x = s (a + a^T)/sqrt(2) and
    d/dx = (a - a^T)/(sqrt(2) s). The squares are formed at size n+1 and
    then truncated, which makes them the exact Galerkin compressions of x^2
    and d^2/dx^2 (a product of two truncations would lose the top level)."""
    a = sp.diags(np.sqrt(np.arange(1.0, n + 1.0)), 1)     # size n+1
    x = scale * (a + a.T) / np.sqrt(2.0)
    d = (a - a.T) / (np.sqrt(2.0) * scale)
    return tuple(m.tocsr()[:n, :n] for m in (x, x @ x, d, d @ d))


def _oracle_matrix(kop: EffectiveOperatorK, axes):
    """Real symmetric sparse matrix of -div(M grad) + sigma^T Omega sigma
    assembled from per-axis matrices (X, X^2, D, D^2); the mixed kinetic and
    potential terms are the tensor products D (x) D and X (x) X."""
    M = kop.kinetic_matrix()
    om = kop.Omega
    if kop.dim == 1:
        _, X2, _, D2 = axes[0]
        return -M[0, 0] * D2 + om[0, 0] * X2
    (Xa, X2a, Da, D2a), (Xb, X2b, Db, D2b) = axes
    Ia = sp.identity(Xa.shape[0])
    Ib = sp.identity(Xb.shape[0])
    return (-M[0, 0] * sp.kron(D2a, Ib) - M[1, 1] * sp.kron(Ia, D2b)
            - 2.0 * M[0, 1] * sp.kron(Da, Db)
            + om[0, 0] * sp.kron(X2a, Ib) + om[1, 1] * sp.kron(Ia, X2b)
            + 2.0 * om[0, 1] * sp.kron(Xa, Xb))


def spectrum_K_oracle(kop: EffectiveOperatorK, count: int) -> np.ndarray:
    """Lowest `count` levels of K by direct diagonalization, independent of
    the closed-form route: it reads only M, Omega and Re(A). The two must
    agree to 1e-4 on feasible cases.

    Rayleigh-Ritz in a tensor basis of Hermite functions, axis j scaled by
    (M_jj/Omega_jj)^{1/4}. Ritz values bound the levels from above and never
    increase with the basis, which grows from 24 functions per axis in steps
    of 8 until successive levels agree to 1e-9. Raises ConvergenceError,
    carrying the last two estimates, when 128 functions per axis do not
    suffice.
    """
    _check_count(count)
    if kop.dim > 2:
        raise ValueError("direct diagonalization is feasible for dim <= 2 only")
    scales = (np.diag(kop.kinetic_matrix()) / np.diag(kop.Omega)) ** 0.25
    sizes = range(max(HERMITE_START, count + 2), HERMITE_CAP + 1, HERMITE_STEP)
    if len(sizes) < 2:
        raise ValueError(f"count {count} exceeds what a basis of "
                         f"{HERMITE_CAP} functions per axis can resolve")
    prev = None
    for n in sizes:
        H = _oracle_matrix(kop, [_hermite_axis(s, n) for s in scales])
        levels = lowest_sparse_eigenpairs(H, count)[0] + kop.A_const.real
        if prev is not None and np.max(np.abs(levels - prev)) <= HERMITE_TOL:
            return levels
        prev, last = levels, prev
    j = int(np.argmax(np.abs(prev - last)))
    raise ConvergenceError(
        f"Hermite oracle unconverged at {HERMITE_CAP} functions per axis: "
        f"level {j} moved by {abs(prev[j] - last[j]):.2e} in the last step",
        estimates=(float(last[j]), float(prev[j])))
