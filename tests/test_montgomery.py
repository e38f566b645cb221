import dataclasses

import numpy as np
import pytest

from magwell.montgomery import (
    SCAN_POINTS,
    MinimizerReport,
    ModelParams,
    _d2_on_grid,
    _discrete_hf,
    _scan_brackets,
    d2lambda_dalpha2,
    dlambda_dalpha,
    family_potential,
    lambda_m,
    lambda_m_direct,
    large_alpha_check,
    profile,
)
from magwell.sl_engine import ConvergenceError, SolverError, eigenvalue_converged

from conftest import REFERENCE_BAND_DATA

# frozen: 2((k+2) lambda1 - (k+6) nu_hat)/((k+2)(lambda1 - nu_hat)) with the
# k=1 reference values, 2(3*1.98 - 7*0.57)/(3*(1.98 - 0.57))
D2_BOUND_K1 = 0.92


class TestModelParams:
    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(1, 0.3, 0.0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(0, 0.3, 1.0)


class TestScaling:
    def test_exact_power_of_eight(self):
        lam_scaled = lambda_m(ModelParams(1, 0.0, 8.0), 0, 1e-10)
        lam_unit = lambda_m(ModelParams(1, 0.0, 1.0), 0, 1e-10)
        assert lam_scaled == pytest.approx(4.0 * lam_unit, abs=1e-9)

    def test_scaling_vs_direct_route(self):
        p = ModelParams(1, 0.4, 2.5)
        assert lambda_m(p, 0, 1e-9) == pytest.approx(
            lambda_m_direct(p, 0, 1e-9), abs=1e-8)

    def test_even_k_alpha_symmetry(self):
        a = lambda_m(ModelParams(2, 0.5, 1.0), 0, 1e-10)
        b = lambda_m(ModelParams(2, -0.5, 1.0), 0, 1e-10)
        assert a == pytest.approx(b, abs=1e-9)

    def test_negative_beta_even_k(self):
        # t -> -t maps beta to -beta at the same alpha
        p = ModelParams(2, 0.4, -1.7)
        assert lambda_m(p, 0, 1e-9) == pytest.approx(
            lambda_m_direct(p, 0, 1e-9), abs=1e-8)

    def test_negative_beta_odd_k(self):
        # the squared linear expression gives lambda(a, b) = lambda(-a, -b)
        p = ModelParams(1, 0.4, -1.7)
        assert lambda_m(p, 0, 1e-9) == pytest.approx(
            lambda_m_direct(p, 0, 1e-9), abs=1e-8)

    def test_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            k = int(rng.integers(1, 4))
            p = ModelParams(k, float(rng.uniform(-1, 2)), float(rng.uniform(0.3, 4)))
            assert lambda_m(p, 0, 1e-9) == pytest.approx(
                lambda_m_direct(p, 0, 1e-9), abs=1e-8)

    def test_even_k_symmetry_random_alpha(self):
        rng = np.random.default_rng(99)
        for k in (2, 4):
            for _ in range(3):
                a = float(rng.uniform(0.05, 1.5))
                lp = lambda_m(ModelParams(k, a, 1.0), 0, 1e-10)
                lm = lambda_m(ModelParams(k, -a, 1.0), 0, 1e-10)
                assert lp == pytest.approx(lm, abs=1e-9)


class TestMinimizer:
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_reference_values(self, k, states):
        r = states[k].report
        am, nu, l1 = REFERENCE_BAND_DATA[k]
        assert r.alpha_min == pytest.approx(am, abs=0.01)
        assert r.nu_hat == pytest.approx(nu, abs=0.01)
        assert r.lambda1 == pytest.approx(l1, abs=0.01)

    def test_even_k_minimum_at_zero(self, states):
        assert abs(states[2].report.alpha_min) < 1e-4
        assert abs(states[4].report.alpha_min) < 1e-4

    def test_single_local_minimum_recorded(self, states):
        # scan evidence, not a uniqueness certificate
        for k in (1, 2, 3):
            assert len(states[k].report.local_minima_scan) == 1

    def test_invariants(self, states):
        for k, st in states.items():
            r = st.report
            assert r.nu_hat >= 0
            assert r.lambda1 > r.nu_hat
            assert r.hf_residual < 1e-5

    def test_stationarity_at_rounding_level(self, states):
        # the minimizer is Newton-polished at the resolution the residual is
        # evaluated at, so only rounding is left
        for k, st in states.items():
            assert st.report.hf_residual < 1e-10, k


class TestDerivatives:
    def test_stationary_at_minimum(self, states):
        assert abs(dlambda_dalpha(1, states[1].report.alpha_min, 1e-8)) < 1e-5

    @pytest.mark.parametrize("k,alpha", [(1, 0.0), (3, 1.0)])
    def test_hf_vs_finite_difference(self, k, alpha):
        # oracle: central difference of the discrete band function computed
        # on the same converged grid (the quadrature path is not involved)
        hf = dlambda_dalpha(k, alpha, 1e-8)
        _, spec = eigenvalue_converged(family_potential(k, alpha), 0, 1e-8)
        delta = 1e-4
        _, lp, _ = _discrete_hf(k, alpha + delta, spec.grid)
        _, lm, _ = _discrete_hf(k, alpha - delta, spec.grid)
        assert hf == pytest.approx((lp - lm) / (2 * delta), abs=1e-6)

    def test_hf_vs_finite_difference_random(self):
        rng = np.random.default_rng(512)
        for _ in range(3):
            k = int(rng.integers(1, 5))
            alpha = float(rng.uniform(-0.5, 1.0))
            hf = dlambda_dalpha(k, alpha, 1e-8)
            _, spec = eigenvalue_converged(family_potential(k, alpha), 0, 1e-8)
            delta = 1e-4
            _, lp, _ = _discrete_hf(k, alpha + delta, spec.grid)
            _, lm, _ = _discrete_hf(k, alpha - delta, spec.grid)
            assert hf == pytest.approx((lp - lm) / (2 * delta), abs=1e-5)

    def test_d2_above_frozen_bound(self, states):
        assert states[1].report.d2 >= D2_BOUND_K1

    @pytest.mark.parametrize("k", list(range(1, 8)))
    def test_d2_vs_lambda_second_difference(self, k, states):
        # oracle: second central difference of the discrete band function,
        # step 1e-3. Both routes are evaluated on the same fixed moderate
        # box: the agreement is a grid-independent identity, and a modest
        # matrix norm keeps the 1/delta^2-amplified eigenvalue rounding far
        # below the tolerance.
        from magwell.sl_engine import Grid1D, _initial_half_width, as_potential

        alpha = states[k].report.alpha_min
        L = _initial_half_width(as_potential(family_potential(k, alpha)), 0)
        grid = Grid1D(L, 257)
        d2 = _d2_on_grid(k, alpha, grid)
        delta = 1e-3
        _, l0, _ = _discrete_hf(k, alpha, grid)
        _, lp, _ = _discrete_hf(k, alpha + delta, grid)
        _, lm, _ = _discrete_hf(k, alpha - delta, grid)
        fd = (lp - 2 * l0 + lm) / delta**2
        assert d2 == pytest.approx(fd, abs=1e-4)

    def test_d2_entry_point_cross_checks_itself(self):
        val = d2lambda_dalpha2(1, 0.2, 1e-6)
        assert np.isfinite(val)

    def test_d2_large_k_window(self, states):
        # observational: the second derivative drifts toward 2 with k
        d2_7 = states[7].report.d2
        assert 0.0 < d2_7 < 2.5
        assert d2_7 > states[1].report.d2


class TestIdentities:
    def test_norm_identity_value_k1(self, states):
        st = states[1]
        grid = st.spectrum.grid
        t = grid.interior_points()
        u0 = st.spectrum.eigenfunctions[0]
        w = t**2 / 2 - st.report.alpha_min
        integral = float(np.sum(w**2 * u0**2) * grid.spacing)
        assert integral == pytest.approx(0.57 / 3, abs=0.01)

    def test_stationarity_forced_by_symmetry_k2(self, states):
        assert states[2].report.hf_residual < 1e-6

    def test_norm_identity_k4(self, states):
        assert states[4].report.norm_identity_residual < 1e-5

    def test_report_object(self, states):
        rep = states[1].report
        assert isinstance(rep, MinimizerReport)
        assert rep.hf_residual < 1e-4
        assert rep.norm_identity_residual < 1e-4


class TestNondegeneracy:
    def test_condik_k1_margin(self, states):
        r = states[1].report
        # 3 * 1.98 = 5.94 > 7 * 0.57 = 3.99
        assert r.condik_holds
        assert r.condik_margin == pytest.approx(5.94 - 3.99, abs=0.05)

    def test_condik_k7(self, states):
        r = states[7].report
        assert r.condik_holds
        assert r.condik_margin == pytest.approx(32.94 - 11.96, abs=0.1)

    def test_condik_odd_uses_lambda2(self, states):
        r = states[1].report
        lam2 = r.lambda2
        nu = r.nu_hat
        assert r.condik_odd_holds
        assert r.condik_odd_margin == pytest.approx(3 * lam2 - 7 * nu, rel=1e-9)

    def test_even_k_has_no_odd_refinement(self, states):
        assert states[2].report.condik_odd_holds is None

    def test_validate_rejects_d2_below_bound(self, states):
        r = states[1].report
        r.validate()
        low = dataclasses.replace(r, d2=r.d2_lower_bound - 2e-3)
        with pytest.raises(SolverError, match="below its lower bound"):
            low.validate()

    def test_sharper_odd_bound_also_holds(self, states):
        # with du0/dalpha even, lambda_1 can be replaced by lambda_2 in the
        # bound; the result is sharper and must still sit below d2
        r = states[1].report
        bound2 = 2 * ((1 + 2) * r.lambda2 - (1 + 6) * r.nu_hat) / (
            (1 + 2) * (r.lambda2 - r.nu_hat))
        assert r.d2 >= bound2 - 1e-3


class TestProfile:
    def test_k2_profile(self, states):
        table = profile(states[2], (-1.0, 1.0), 21, tol=1e-6)
        assert len(table.alpha) == 21
        i_min = int(np.argmin(table.lambda0))
        assert abs(table.alpha[i_min]) < 0.15
        assert table.lambda0[i_min] == pytest.approx(0.66, abs=0.01)
        # quadratic model equals nu_hat at the minimum by construction
        quad_at_min = table.nu_hat + 0.5 * table.d2 * (
            table.alpha_min - table.alpha_min) ** 2
        assert quad_at_min == table.nu_hat

    def test_quadratic_hugs_profile_near_minimum(self, states):
        st = states[1].report
        table = profile(states[1], (st.alpha_min - 0.2, st.alpha_min + 0.2), 9,
                        tol=1e-7)
        assert np.all(table.lambda_quad <= table.lambda0 + 0.05)

    def test_band_grows_toward_negative_alpha(self):
        lam_m2 = lambda_m(ModelParams(1, -2.0, 1.0), 0, 1e-6)
        lam_m1 = lambda_m(ModelParams(1, -1.0, 1.0), 0, 1e-6)
        assert lam_m2 > lam_m1 > 1.0


class TestLargeAlpha:
    def test_k1_ratio_window(self):
        rows = large_alpha_check(1, [10.0, 50.0])
        r10, r50 = rows[0].ratio, rows[1].ratio
        assert 0.9 <= r50 <= 1.1
        assert abs(r50 - 1.0) < abs(r10 - 1.0)

    def test_k3_ratio_window(self):
        rows = large_alpha_check(3, [50.0])
        assert 0.85 <= rows[0].ratio <= 1.15

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            large_alpha_check(2, [10.0])


class TestScanErrors:
    def test_boundary_minimum_raises(self):
        # a scan window strictly left of the true minimum has its smallest
        # value at the edge
        alphas = np.linspace(-3.0, -1.0, SCAN_POINTS)
        vals = 2.0 - alphas           # decreasing toward the right edge
        with pytest.raises(ConvergenceError, match="boundary"):
            _scan_brackets(alphas, vals)
        with pytest.raises(ConvergenceError, match="boundary"):
            _scan_brackets(alphas, vals[::-1])

    def test_brackets_are_interior_local_minima(self):
        alphas = np.linspace(-1.0, 3.0, 9)
        vals = np.array([5.0, 4.0, 3.0, 4.0, 5.0, 2.0, 6.0, 7.0, 8.0])
        assert _scan_brackets(alphas, vals) == (5, [2, 5])
