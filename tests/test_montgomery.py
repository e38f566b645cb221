import dataclasses

import numpy as np
import pytest

from magwell.montgomery import (
    SCAN_POINTS,
    MinimizerReport,
    _band,
    _scan_brackets,
    _scan_values,
    _stationary_alpha,
    family_potential,
    lambda_m,
    minimizer_state,
    profile,
)
from magwell.sl_engine import ConvergenceError, SineBasis, SolverError, eigenvalue_converged

from conftest import REFERENCE_BAND_DATA
from oracles import band_minimum_oracle, dlambda_dalpha, large_alpha_ratio

# frozen: 2((k+2) lambda1 - (k+6) nu_hat)/((k+2)(lambda1 - nu_hat)) with the
# k=1 reference values, 2(3*1.98 - 7*0.57)/(3*(1.98 - 0.57))
D2_BOUND_K1 = 0.92

# frozen band-minimum columns, agreed on by the Hermite and sine routes to
# about 1e-12
REFERENCE_K1 = {"alpha_min": 0.346758403750, "nu_hat": 0.569820317442,
                "lambda1": 1.98744363136, "lambda2": 4.10924313168,
                "d2": 1.57612689328}
REFERENCE_D2_K5 = 1.91291751013
COLUMNS = ("alpha_min", "nu_hat", "lambda1", "lambda2", "d2")


def direct(k, alpha, beta):
    """lambda_0 of Q(alpha, beta) solved with beta, of either sign, kept
    inside the potential: the route the scaling reduction must reproduce."""
    return eigenvalue_converged(family_potential(k, alpha, beta), 0, 1e-9)[0]


class TestLambdaMArguments:
    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError, match="beta must be nonzero"):
            lambda_m(1, 0.3, 0.0, 0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            lambda_m(0, 0.3, 1.0, 0)


class TestFamilyPotential:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_even_at_zero_shift_bit_for_bit(self, k):
        # so that `sl_engine` splits the operator at alpha = 0 by parity
        for n in (32, 96, 512):
            v = family_potential(k, 0.0)(SineBasis(5.7, n).nodes())
            assert np.array_equal(v, v[::-1]), n


class TestScaling:
    def test_exact_power_of_eight(self):
        lam_scaled = lambda_m(1, 0.0, 8.0, 0, 1e-10)
        lam_unit = lambda_m(1, 0.0, 1.0, 0, 1e-10)
        assert lam_scaled == pytest.approx(4.0 * lam_unit, abs=1e-9)

    def test_scaling_vs_direct_route(self):
        assert lambda_m(1, 0.4, 2.5, 0, 1e-9) == pytest.approx(
            direct(1, 0.4, 2.5), abs=1e-8)

    def test_even_k_alpha_symmetry(self):
        a = lambda_m(2, 0.5, 1.0, 0, 1e-10)
        b = lambda_m(2, -0.5, 1.0, 0, 1e-10)
        assert a == pytest.approx(b, abs=1e-9)

    def test_negative_beta_even_k(self):
        # t -> -t maps beta to -beta at the same alpha
        assert lambda_m(2, 0.4, -1.7, 0, 1e-9) == pytest.approx(
            direct(2, 0.4, -1.7), abs=1e-8)

    def test_negative_beta_odd_k(self):
        # the squared linear expression gives lambda(a, b) = lambda(-a, -b)
        assert lambda_m(1, 0.4, -1.7, 0, 1e-9) == pytest.approx(
            direct(1, 0.4, -1.7), abs=1e-8)

    def test_random_triples(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            k = int(rng.integers(1, 4))
            alpha, beta = float(rng.uniform(-1, 2)), float(rng.uniform(0.3, 4))
            assert lambda_m(k, alpha, beta, 0, 1e-9) == pytest.approx(
                direct(k, alpha, beta), abs=1e-8)

    def test_even_k_symmetry_random_alpha(self):
        rng = np.random.default_rng(99)
        for k in (2, 4):
            for _ in range(3):
                a = float(rng.uniform(0.05, 1.5))
                lp = lambda_m(k, a, 1.0, 0, 1e-10)
                lm = lambda_m(k, -a, 1.0, 0, 1e-10)
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
        # the band is even in alpha, so its minimum is taken at 0 exactly, on
        # an operator split by parity, where the Hellmann-Feynman sum of an
        # odd gauge against an even u0^2 cancels to rounding
        for k in (2, 4, 6, 8):
            st = states[k] if k in states else minimizer_state(k)
            assert st.report.alpha_min == 0.0, k
            assert st.spectrum.parity == ("even", "odd", "even"), k
            assert st.report.hf_residual < 1e-15, k

    @pytest.mark.parametrize("k,solves,roots", [(1, 1, 1), (2, 1, 0), (3, 1, 1),
                                                (4, 1, 0)])
    def test_solve_counts(self, monkeypatch, k, solves, roots):
        # one converged solve picks the basis; odd k run Newton on it once,
        # even k take alpha = 0 exactly and run none
        from magwell import montgomery
        calls = {"eigenvalue_converged": 0, "_stationary_alpha": 0}

        def counted(name):
            real = getattr(montgomery, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return spy

        for name in calls:
            monkeypatch.setattr(montgomery, name, counted(name))
        minimizer_state(k)
        assert calls == {"eigenvalue_converged": solves, "_stationary_alpha": roots}

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
        # the minimizer is solved for on the basis the residual is evaluated
        # on, so only rounding is left
        for k, st in states.items():
            assert st.report.hf_residual < 1e-10, k


class TestDerivatives:
    def test_stationary_at_minimum(self, states):
        assert abs(dlambda_dalpha(1, states[1].report.alpha_min, 1e-8)) < 1e-5

    @staticmethod
    def fixed_basis(k, alpha):
        """The basis of a converged solve at (k, alpha)."""
        return eigenvalue_converged(family_potential(k, alpha), 0, 1e-8)[1].basis

    @pytest.mark.parametrize("k,alpha", [(1, 0.0), (3, 1.0)])
    def test_hf_vs_finite_difference(self, k, alpha):
        # oracle: central difference of the band on the basis of a converged
        # solve, against the quadrature at its nodes
        hf = dlambda_dalpha(k, alpha, 1e-8)
        basis, delta = self.fixed_basis(k, alpha), 1e-4
        lp = _band(k, basis, alpha + delta).values[0]
        lm = _band(k, basis, alpha - delta).values[0]
        assert hf == pytest.approx((lp - lm) / (2 * delta), abs=1e-6)

    def test_hf_vs_finite_difference_random(self):
        rng = np.random.default_rng(512)
        for _ in range(3):
            k = int(rng.integers(1, 5))
            alpha = float(rng.uniform(-0.5, 1.0))
            hf = dlambda_dalpha(k, alpha, 1e-8)
            basis, delta = self.fixed_basis(k, alpha), 1e-4
            lp = _band(k, basis, alpha + delta).values[0]
            lm = _band(k, basis, alpha - delta).values[0]
            assert hf == pytest.approx((lp - lm) / (2 * delta), abs=1e-5)

    def test_d2_above_frozen_bound(self, states):
        assert states[1].report.d2 >= D2_BOUND_K1

    @pytest.mark.parametrize("k", list(range(1, 8)))
    def test_d2_vs_lambda_second_difference(self, k, states):
        # oracle: second central difference of the band, step 1e-3, on the
        # basis of the minimizer state; the eigen-sum is the exact second
        # derivative on that basis
        alpha = states[k].report.alpha_min
        basis, delta = states[k].spectrum.basis, 1e-3
        l0, lp, lm = (_band(k, basis, a).values[0] for a in (alpha, alpha + delta, alpha - delta))
        fd = (lp - 2 * l0 + lm) / delta**2
        assert _band(k, basis, alpha).curvature == pytest.approx(fd, abs=1e-4)

    def test_d2_resolvent_vs_hf_difference(self):
        # oracle: central difference of the Hellmann-Feynman slope on one
        # basis, step 1e-3; the eigen-sum is the reduced resolvent in the
        # eigenbasis, so both routes compute the same quantity
        tol = 1e-6
        basis, delta = self.fixed_basis(1, 0.2), 1e-3
        d2 = _band(1, basis, 0.2).curvature
        hf_p = _band(1, basis, 0.2 + delta).slope
        hf_m = _band(1, basis, 0.2 - delta).slope
        assert np.isfinite(d2)
        assert abs(d2 - (hf_p - hf_m) / (2 * delta)) <= 10 * tol

    def test_d2_large_k_window(self, states):
        # observational: the second derivative drifts toward 2 with k
        d2_7 = states[7].report.d2
        assert 0.0 < d2_7 < 2.5
        assert d2_7 > states[1].report.d2


class TestColumnsVsOracles:
    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("k", list(range(1, 8)))
    def test_five_columns_within_tol(self, k, tol):
        # oracles: Hermite Rayleigh-Ritz for k <= 3, Richardson over two
        # finite-difference grids (d2 from the bordered resolvent) for k >= 4
        r = minimizer_state(k, tol).report
        oracle = band_minimum_oracle(k)
        for name in COLUMNS:
            assert abs(getattr(r, name) - oracle[name]) <= tol, name

    def test_reference_values(self, states):
        r = states[1].report
        for name in COLUMNS:
            assert getattr(r, name) == pytest.approx(REFERENCE_K1[name], abs=1e-10), name
        assert states[5].report.d2 == pytest.approx(REFERENCE_D2_K5, abs=1e-10)


class TestIdentities:
    def test_norm_identity_value_k1(self, states):
        spec = states[1].spectrum
        u0 = spec.eigenfunctions[0]
        w = spec.nodes**2 / 2 - states[1].report.alpha_min
        integral = float(np.sum(spec.weights * w**2 * u0**2))
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
        table = profile(states[2].report, (-1.0, 1.0), 21)
        assert len(table.alpha) == 21
        i_min = int(np.argmin(table.lambda0))
        assert abs(table.alpha[i_min]) < 0.15
        assert table.lambda0[i_min] == pytest.approx(0.66, abs=0.01)
        # the quadratic model equals nu_hat at the minimum exactly
        report = states[2].report
        at_min = profile(report, (report.alpha_min, report.alpha_min), 1)
        assert at_min.lambda_quad[0] == report.nu_hat

    def test_quadratic_hugs_profile_near_minimum(self, states):
        st = states[1].report
        table = profile(st, (st.alpha_min - 0.2, st.alpha_min + 0.2), 9)
        assert np.all(table.lambda_quad <= table.lambda0 + 0.05)

    def test_band_grows_toward_negative_alpha(self):
        lam_m2 = lambda_m(1, -2.0, 1.0, 0, 1e-6)
        lam_m1 = lambda_m(1, -1.0, 1.0, 0, 1e-6)
        assert lam_m2 > lam_m1 > 1.0


class TestLargeAlpha:
    def test_k1_ratio_window(self):
        r10, r50 = large_alpha_ratio(1, 10.0), large_alpha_ratio(1, 50.0)
        assert 0.9 <= r50 <= 1.1
        assert abs(r50 - 1.0) < abs(r10 - 1.0)

    def test_k3_ratio_window(self):
        assert 0.85 <= large_alpha_ratio(3, 50.0) <= 1.15


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


class TestFixedGridScan:
    @pytest.mark.parametrize("k", list(range(1, 13)))
    def test_brackets_match_converged_scan(self, k):
        # oracle: the same scan by converged solves at 1e-5 (box doubling
        # and Richardson refinement per point)
        alphas, vals = _scan_values(k)
        converged = np.array([eigenvalue_converged(family_potential(k, a), 0, 1e-5)[0]
                              for a in alphas])
        assert _scan_brackets(alphas, vals) == _scan_brackets(alphas, converged)


class TestStationarySolve:
    @staticmethod
    def scan_bracket(k, alpha):
        """The basis of a converged solve at the scan point nearest alpha,
        and that point with its two scan neighbours."""
        alphas = np.linspace(-1.0, 2.0 + k, SCAN_POINTS)
        i = int(np.argmin(np.abs(alphas - alpha)))
        _, spec = eigenvalue_converged(family_potential(k, alphas[i]), 0, 1e-7)
        return spec.basis, alphas[i - 1], alphas[i + 1], alphas[i]

    @pytest.mark.parametrize("k", [1, 4, 5])
    def test_wide_bracket_reaches_scan_root(self, k, states):
        # started at 1 + k, where the band is concave, the first steps on
        # [-1, 2 + k] are bisections; the root is still the scan bracket's
        basis, lo, hi, start = self.scan_bracket(k, states[k].report.alpha_min)
        root, band = _stationary_alpha(k, basis, lo, hi, start)
        assert lo < root < hi
        assert abs(band.slope) < 1e-11
        assert band.values[0] == _band(k, basis, root).values[0]
        wide, _ = _stationary_alpha(k, basis, -1.0, 2.0 + k, 1.0 + k)
        assert wide == pytest.approx(root, abs=1e-12)

    def test_iteration_cap_carries_last_iterates(self, states, monkeypatch):
        # a Newton slope 1e6 times too steep keeps every step inside the
        # bracket but a millionth of the distance to the root, so the 60
        # steps run out; the error carries the last two iterates
        from magwell import montgomery
        true_band = montgomery._band
        monkeypatch.setattr(montgomery, "_band", lambda *args: true_band(*args)._replace(
            curvature=1e6 * true_band(*args).curvature))
        basis, lo, hi, _ = self.scan_bracket(1, states[1].report.alpha_min)
        with pytest.raises(ConvergenceError, match="not converged after 60 steps") as err:
            _stationary_alpha(1, basis, lo, hi, lo + 0.01 * (hi - lo))
        before, last = err.value.estimates
        assert lo < before < last < hi
        assert f"last alpha {last:.15g}" in str(err.value)

    def test_bracket_without_sign_change_raises(self, states):
        basis, lo, hi, _ = self.scan_bracket(1, states[1].report.alpha_min)
        with pytest.raises(ConvergenceError, match="does not change sign"):
            _stationary_alpha(1, basis, hi, hi + 1.0, hi + 0.5)
