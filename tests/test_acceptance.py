"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion on stdout. Run with `pytest tests/test_acceptance.py -s`
to watch the lines stream.
"""
import time

import numpy as np
import pytest

from magwell.asymptotics import (
    gap_intervals,
    leading_exponent,
    residual_exponent,
    splitting_exponent,
)
from magwell.miniwell import (
    EffectiveOperatorK,
    spectrum_K,
    spectrum_K_oracle,
)
from magwell.montgomery import (
    ModelParams,
    _discrete_hf,
    family_potential,
    lambda_m,
    lambda_m_direct,
    minimizer_state,
)
from magwell.sl_engine import eigenvalue_converged

from conftest import REFERENCE_BAND_DATA
from oracles import count_sign_changes, reflection_residuals


def _line(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_table_regression():
    """(alpha_min, nu_hat, lambda_1) reproduce the reference band data
    within +-0.01 for k = 1..7, inside the runtime budget."""
    t0 = time.time()
    results = {k: minimizer_state(k) for k in range(1, 8)}
    elapsed = time.time() - t0
    worst = 0.0
    for k, st in results.items():
        am, nu, l1 = REFERENCE_BAND_DATA[k]
        r = st.report
        worst = max(worst, abs(r.alpha_min - am), abs(r.nu_hat - nu),
                    abs(r.lambda1 - l1))
    ok = worst <= 0.01 and elapsed < 60.0
    _line(1, ok, f"table regression k=1..7: worst deviation {worst:.4f} "
                 f"(tol 0.01), fresh runtime {elapsed:.1f}s (budget 60s)")


def test_criterion_2_identity_suite(states):
    """Stationarity residual < 1e-5, norm-identity residual < 1e-4, and
    Hellmann-Feynman vs finite differences < 1e-5, for all k = 1..7.

    The derivative comparison pairs the quadrature with a central-difference
    oracle of the band function on one shared grid of moderate size: the
    identity is exact there, and a moderate matrix norm keeps the
    delta-divided eigenvalue rounding far below the tolerance.
    """
    from magwell.sl_engine import Grid1D, _initial_half_width, as_potential

    worst_st, worst_nm, worst_fd = 0.0, 0.0, 0.0
    for k, st in states.items():
        r = st.report
        worst_st = max(worst_st, r.hf_residual)
        worst_nm = max(worst_nm, r.norm_identity_residual)
        alpha = r.alpha_min + 0.15
        L = _initial_half_width(as_potential(family_potential(k, alpha)), 0)
        grid = Grid1D(L, 1025)
        hf, _, _ = _discrete_hf(k, alpha, grid)
        d = 1e-4
        _, lp, _ = _discrete_hf(k, alpha + d, grid)
        _, lm, _ = _discrete_hf(k, alpha - d, grid)
        worst_fd = max(worst_fd, abs(hf - (lp - lm) / (2 * d)))
    ok = worst_st < 1e-5 and worst_nm < 1e-4 and worst_fd < 1e-5
    _line(2, ok, f"identities k=1..7: stationarity {worst_st:.2e} (<1e-5), "
                 f"norm {worst_nm:.2e} (<1e-4), HF-vs-FD {worst_fd:.2e} (<1e-5)")


def test_criterion_3_nondegeneracy(states):
    """(k+2) lambda_1 > (k+6) nu_hat with positive margin for k = 1..7, and
    the computed second derivative clears its lower bound minus 1e-3."""
    min_margin = np.inf
    worst_gap = np.inf
    for k, st in states.items():
        r = st.report
        min_margin = min(min_margin, r.condik_margin)
        worst_gap = min(worst_gap, r.d2 - (r.d2_lower_bound - 1e-3))
    ok = min_margin > 0 and worst_gap >= 0
    _line(3, ok, f"non-degeneracy k=1..7: smallest margin {min_margin:.3f} "
                 f"(>0), d2 clears bound-1e-3 by {worst_gap:.4f}")


def test_criterion_4_scaling_law():
    """50 random (k, alpha, beta) satisfy the scaling relation to 1e-8."""
    rng = np.random.default_rng(0xD1CE)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 8))
        alpha = float(rng.uniform(-1.0, 1.5))
        beta = float(rng.uniform(0.25, 4.0))
        p = ModelParams(k, alpha, beta)
        scaled = lambda_m(p, 0, tol=1e-9)
        direct = lambda_m_direct(p, 0, tol=1e-9)
        worst = max(worst, abs(scaled - direct))
    ok = worst < 1e-8
    _line(4, ok, f"scaling law, 50 random triples: worst defect {worst:.2e} "
                 f"(<1e-8), {time.time() - t0:.1f}s")


def test_criterion_5_parity(states):
    """For odd k the m-th eigenfunction has parity (-1)^m with reflection
    residual below 1e-6 and m sign changes, m = 0..3."""
    worst = 0.0
    ok = True
    for k in (1, 3, 5, 7):
        alpha = states[k].report.alpha_min
        _, spec = eigenvalue_converged(family_potential(k, alpha), 3, 1e-8)
        ok &= spec.parity == ("even", "odd", "even", "odd")
        worst = max(worst, float(np.max(reflection_residuals(spec))))
        ok &= all(count_sign_changes(u) == m
                  for m, u in enumerate(spec.eigenfunctions))
    ok &= worst < 1e-6
    _line(5, ok, f"parity of eigenfunctions, odd k, m=0..3: labels alternate, "
                 f"m sign changes, worst residual {worst:.2e} (<1e-6)")


def test_criterion_6_k_oracle():
    """Closed-form K levels match the Hermite-Galerkin oracle to 1e-4 on 10
    random SPD configurations (surface dimension <= 2), and rotating the
    frame moves no level by more than 1e-10."""
    rng = np.random.default_rng(0xACE5)
    t0 = time.time()
    worst = 0.0
    for trial in range(10):
        dim = 2 if trial < 7 else 1
        c = float(rng.uniform(0.3, 4.0))
        v = rng.standard_normal(dim)
        e = v / np.linalg.norm(v)
        B = rng.standard_normal((dim, dim))
        om = B @ B.T + 0.3 * np.eye(dim)
        a0 = float(rng.uniform(-0.5, 0.5))
        kop = EffectiveOperatorK(c_omega=c, e_omega=e, Omega=om,
                                 A_const=complex(a0), alpha_min=0.35, k=1)
        closed = spectrum_K(kop, 6).levels
        oracle = spectrum_K_oracle(kop, 6)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    # frame rotation on a fixed configuration
    e = np.array([0.6, 0.8])
    om = np.array([[2.0, 0.5], [0.5, 1.2]])
    base = EffectiveOperatorK(2.2, e, om, 0j, 0.35, 1)
    lv = spectrum_K(base, 8).levels
    worst_rot = 0.0
    for th in (0.3, 1.1, 2.5):
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rot = EffectiveOperatorK(2.2, R @ e, R @ om @ R.T, 0j, 0.35, 1)
        lv_rot = spectrum_K(rot, 8).levels
        worst_rot = max(worst_rot, float(np.max(np.abs(lv - lv_rot))))
    ok = worst < 1e-4 and worst_rot < 1e-10
    _line(6, ok, f"K oracle, 10 random SPD configs: worst level defect "
                 f"{worst:.2e} (<1e-4); frame rotation {worst_rot:.2e} "
                 f"(<1e-10); {time.time() - t0:.0f}s")


def test_criterion_7_2d_powerlaws(sweep2d):
    """k=1 sweep: lambda_0 exponent within 2% of 4/3, leading coefficient
    ratio within 5% at the smallest h, splitting exponent within 5% of 5/3,
    splitting coefficients within 10% of the K-level gaps."""
    _, rep = sweep2d
    lead = float(leading_exponent(1))
    split = float(splitting_exponent(1))
    e1 = abs(rep.leading_fit_exponent - lead) / lead
    e2 = abs(rep.leading_ratio_smallest_h - 1.0)
    e3 = abs(rep.splitting_fit_exponent - split) / split
    e4 = max(abs(c - g) / g for c, g in
             zip(rep.splitting_coefficients, rep.K_level_gaps))
    # the scaled ground energy approaches its limit monotonically
    hs = np.array(rep.h_values)
    ratios = rep.eigenvalues[:, 0] / hs**lead
    monotone = bool(np.all(np.diff(ratios) < 0))  # h_values descend
    ok = e1 < 0.02 and e2 < 0.05 and e3 < 0.05 and e4 < 0.10 and monotone
    _line(7, ok,
          f"2D power laws: lambda_0 exponent {rep.leading_fit_exponent:.4f} "
          f"({100 * e1:.2f}% of 4/3, <2%); coefficient ratio "
          f"{rep.leading_ratio_smallest_h:.4f} ({100 * e2:.2f}%, <5%); "
          f"splitting exponent {rep.splitting_fit_exponent:.4f} "
          f"({100 * e3:.2f}% of 5/3, <5%); splitting coefficients within "
          f"{100 * e4:.2f}% of K gaps (<10%); scaled ground energy "
          f"monotone: {monotone}")


def test_criterion_8_gap_forecast(sweep2d):
    """Each measured level sits inside its predicted band z_m(h) +- c
    h^{(4k+7)/(2k+4)} for a c fitted on the large-h half, and no measured
    eigenvalue falls inside a predicted gap interval."""
    config, rep = sweep2d
    hs = np.array(rep.h_values)
    lam = rep.eigenvalues
    z = rep.z_predicted
    resid_pow = float(residual_exponent(1))
    scaled = np.abs(lam - z) / hs[:, None] ** resid_pow
    n_train = len(hs) // 2
    c_fit = 1.05 * float(np.max(scaled[:n_train]))

    inside = np.all(np.abs(lam - z) <= c_fit * hs[:, None] ** resid_pow)

    clean = True
    for i, h in enumerate(hs):
        bands = gap_intervals(h, 1, config.omega_min, rep.K_levels,
                              len(rep.K_levels) - 1, c_res=c_fit,
                              nu_hat=rep.nu_hat)
        for lo, hi in bands:
            clean &= not np.any((lam[i] > lo) & (lam[i] < hi))
    ok = bool(inside and clean)
    _line(8, ok, f"gap forecast: fitted band constant {c_fit:.3f}; all "
                 f"measured levels inside their bands: {inside}; predicted "
                 f"gaps contain no measured eigenvalue: {clean}")
