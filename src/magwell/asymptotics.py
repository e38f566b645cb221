"""Semiclassical predictions from the band minimum and the miniwell levels:
two-term quasimode energies, two-sided bounds for the ground energy, spectral
gap windows, and power-law fits for measured data.

Exponent conventions, for vanishing order k and semiclassical parameter h:
the leading energy scale is h^{(2k+2)/(k+2)}, the miniwell splitting scale
h^{(2k+3)/(k+2)}, the ground-bound error h^{(6k+8)/(3(k+2))}, and the
quasimode residual h^{(4k+7)/(2(k+2))}. Every forecast keeps these exact
rationals; the proofs only assert the existence of the accompanying
constants, so those are configuration here (defaults 1), optionally fitted
from measured sweeps.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


# largest x with a finite x ** 2; every power of h taken here is below h^2
_SQUARE_MAX = float(np.sqrt(np.finfo(float).max))


def leading_exponent(k: int) -> Fraction:
    return Fraction(2 * k + 2, k + 2)


def splitting_exponent(k: int) -> Fraction:
    return Fraction(2 * k + 3, k + 2)


def bound_error_exponent(k: int) -> Fraction:
    return Fraction(6 * k + 8, 3 * (k + 2))


def residual_exponent(k: int) -> Fraction:
    return Fraction(4 * k + 7, 2 * (k + 2))


def quasimode_energy(h: float, k: int, omega_min: float, lambda_level: float,
                     nu_hat: float) -> float:
    """Two-term quasimode energy

        z(h) = nu_hat * omega_min^{2/(k+2)} h^{(2k+2)/(k+2)}
               + lambda_level * h^{(2k+3)/(k+2)}

    with `nu_hat` the band minimum for this k.
    """
    if not 0 < h <= _SQUARE_MAX:
        raise ValueError(f"h must be positive and at most {_SQUARE_MAX:.6g}, "
                         f"as powers of it up to h^2 are taken, got {h!r}")
    lead = nu_hat * omega_min ** (2.0 / (k + 2)) * h ** float(leading_exponent(k))
    return lead + lambda_level * h ** float(splitting_exponent(k))


def ground_energy_bounds(h: float, k: int, omega_min: float, C: float = 1.0,
                         *, nu_hat: float) -> tuple[float, float]:
    """Two-sided bounds for the ground energy:

        leading -+ C h^{(6k+8)/(3(k+2))},

    the error exponent exceeding the leading one by
    (6k+8)/(3(k+2)) - (2k+2)/(k+2) = 2/(3(k+2)) > 0, so the interval is
    genuinely higher order.
    """
    if not (0 < h <= _SQUARE_MAX and 0 <= C < np.inf):
        raise ValueError(f"need 0 < h <= {_SQUARE_MAX:.6g} and finite C >= 0, "
                         f"got h={h}, C={C}")
    lead = nu_hat * omega_min ** (2.0 / (k + 2)) * h ** float(leading_exponent(k))
    err = C * h ** float(bound_error_exponent(k))
    return lead - err, lead + err


def gap_intervals(h: float, k: int, omega_min: float,
                  K_levels: Sequence[float], c_res: float = 1.0,
                  *, nu_hat: float) -> list[tuple[float, float]]:
    """Predicted spectral gaps, one between each pair of consecutive levels.

    Each open interval (z_m, z_{m+1}) is shrunk on both sides by the
    quasimode residual margin r(h) = c_res * h^{(4k+7)/(2(k+2))}; a pair of
    levels closer than 2 r(h) (in splitting units) yields no predictable gap
    and is dropped with a warning.
    """
    if not (0 < h <= _SQUARE_MAX and 0 <= c_res < np.inf):
        raise ValueError(f"need 0 < h <= {_SQUARE_MAX:.6g} and finite c_res >= 0, "
                         f"got h={h}, c_res={c_res}")
    levels = np.asarray(K_levels, dtype=float)
    if np.any(np.diff(levels) <= 0):
        raise ValueError("K levels must be strictly ascending")
    r = c_res * h ** float(residual_exponent(k))
    out = []
    for m in range(len(levels) - 1):
        z_lo = quasimode_energy(h, k, omega_min, levels[m], nu_hat=nu_hat)
        z_hi = quasimode_energy(h, k, omega_min, levels[m + 1], nu_hat=nu_hat)
        if z_hi - z_lo <= 2.0 * r:
            warnings.warn(
                f"levels {m},{m + 1} too close at h={h:g}: gap "
                f"{z_hi - z_lo:.3e} <= 2 r(h) = {2 * r:.3e}; interval dropped",
                stacklevel=2)
            continue
        out.append((z_lo + r, z_hi - r))
    return out


@dataclass(frozen=True)
class ExponentFit:
    exponent: float
    coefficient: float
    r_squared: float


def fit_refusal(h_list: Sequence[float]) -> str:
    """Why `exponent_fit` refuses these h, or "" when it takes them: it
    needs at least 4 samples spanning a decade."""
    h = np.asarray(h_list, dtype=float)
    if len(h) < 4:
        return "need at least 4 samples"
    if np.max(h) / np.min(h) < 10.0 - 1e-9:
        return "h must span at least one decade"
    return ""


def exponent_fit(h_list: Sequence[float], energy_list: Sequence[float]) -> ExponentFit:
    """Least-squares power law through log(energy) = log(c) + p log(h).

    Requires at least 4 samples spanning a decade in h (`fit_refusal`) and
    positive energies.
    """
    h = np.asarray(h_list, dtype=float)
    e = np.asarray(energy_list, dtype=float)
    refusal = fit_refusal(h)
    if refusal:
        raise ValueError(refusal)
    if np.any(e <= 0):
        raise ValueError("energies must be positive")
    x = np.log(h)
    y = np.log(e)
    A = np.column_stack([x, np.ones_like(x)])
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    slope, intercept = coef
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ExponentFit(exponent=float(slope), coefficient=float(np.exp(intercept)),
                       r_squared=r2)


@dataclass(frozen=True)
class GapForecast:
    """Per-h quasimode energies, ground bounds, and predicted gap windows."""

    k: int
    omega_min: float
    nu_hat: float
    K_levels: tuple[float, ...]
    h_values: tuple[float, ...]
    z: np.ndarray                       # shape (len(h), len(levels))
    lower_bounds: tuple[float, ...]
    upper_bounds: tuple[float, ...]
    gap_windows: tuple[tuple[tuple[float, float], ...], ...]
    error_constant: float
    residual_constant: float


def build_forecast(k: int, omega_min: float, K_levels: Sequence[float],
                   h_values: Sequence[float], C: float = 1.0,
                   c_res: float = 1.0, *, nu_hat: float) -> GapForecast:
    """Assemble the full forecast over an h sweep for the band minimum
    nu_hat."""
    levels = tuple(float(v) for v in K_levels)
    hs = tuple(float(h) for h in h_values)
    z = np.array([[quasimode_energy(h, k, omega_min, lam, nu_hat=nu_hat)
                   for lam in levels] for h in hs])
    lo, hi, gaps = [], [], []
    for h in hs:
        b = ground_energy_bounds(h, k, omega_min, C, nu_hat=nu_hat)
        lo.append(b[0])
        hi.append(b[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gaps.append(tuple(gap_intervals(h, k, omega_min, levels, c_res,
                                            nu_hat=nu_hat)))
    return GapForecast(
        k=k, omega_min=omega_min, nu_hat=float(nu_hat), K_levels=levels,
        h_values=hs, z=z, lower_bounds=tuple(lo), upper_bounds=tuple(hi),
        gap_windows=tuple(gaps), error_constant=C, residual_constant=c_res,
    )
