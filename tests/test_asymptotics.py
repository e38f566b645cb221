from fractions import Fraction

import numpy as np
import pytest

from magwell.asymptotics import (
    bound_error_exponent,
    build_forecast,
    exponent_fit,
    gap_intervals,
    ground_energy_bounds,
    leading_exponent,
    quasimode_energy,
    residual_exponent,
    splitting_exponent,
)

NU_HAT_K1 = 0.57   # reference band minimum for k=1, stable to 1e-2


class TestQuasimodeEnergy:
    def test_k1_frozen_value(self):
        # 0.57 * 0.01^{4/3} = 1.2279e-3 with the reference nu_hat
        z = quasimode_energy(0.01, 1, 1.0, 0.0, nu_hat=NU_HAT_K1)
        assert z == pytest.approx(1.228e-3, abs=2e-5)

    def test_leading_ratio_exact(self):
        h = 0.037
        z = quasimode_energy(h, 1, 1.0, 0.0, nu_hat=NU_HAT_K1)
        assert z / h ** (4 / 3) == pytest.approx(NU_HAT_K1, rel=1e-14)

    def test_field_scale_prefactor(self):
        h, k = 0.02, 3
        z1 = quasimode_energy(h, k, 1.0, 0.0, nu_hat=0.68)
        z2 = quasimode_energy(h, k, 2.0, 0.0, nu_hat=0.68)
        assert z2 == pytest.approx(2 ** (2 / (k + 2)) * z1, rel=1e-14)

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            quasimode_energy(0.0, 1, 1.0, 0.0, nu_hat=NU_HAT_K1)


class TestGroundBounds:
    def test_degenerate_interval_at_zero_constant(self):
        lo, hi = ground_energy_bounds(0.01, 1, 1.0, C=0.0, nu_hat=NU_HAT_K1)
        assert lo == hi

    def test_error_exponent_k1(self):
        assert bound_error_exponent(1) == Fraction(14, 9)
        assert bound_error_exponent(1) > Fraction(4, 3)

    def test_interval_width(self):
        h = 1e-3
        lo, hi = ground_energy_bounds(h, 1, 1.0, C=1.0, nu_hat=NU_HAT_K1)
        assert hi - lo == pytest.approx(2 * h ** (14 / 9), rel=1e-12)


class TestGapIntervals:
    def test_two_gaps_disjoint(self):
        gaps = gap_intervals(0.001, 1, 1.0, [2.0, 4.0, 6.0], nu_hat=NU_HAT_K1)
        assert len(gaps) == 2
        assert gaps[0][1] < gaps[1][0]
        for lo, hi in gaps:
            assert lo < hi

    def test_midpoint_spacing(self):
        h, k = 0.002, 1
        levels = [1.0, 3.5, 7.0]
        gaps = gap_intervals(h, k, 1.0, levels, nu_hat=NU_HAT_K1)
        mid = [0.5 * (lo + hi) for lo, hi in gaps]
        z = [quasimode_energy(h, k, 1.0, lam, nu_hat=NU_HAT_K1)
             for lam in levels]
        zmid = [0.5 * (z[i] + z[i + 1]) for i in range(2)]
        assert mid[0] == pytest.approx(zmid[0], rel=1e-12)
        # midpoints differ by the level-difference times the splitting power
        assert mid[1] - mid[0] == pytest.approx(
            (np.diff(levels).mean()) * h ** (5 / 3), rel=1e-9)

    def test_margin_vanishes_relative_to_gap(self):
        k = 1
        margins = []
        for h in (1e-2, 1e-3, 1e-4, 1e-5):
            r = h ** float(residual_exponent(k))
            gap = 2.0 * h ** float(splitting_exponent(k))
            margins.append(r / gap)
        assert margins == sorted(margins, reverse=True)
        assert margins[-1] < 0.1

    def test_close_levels_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="dropped"):
            gaps = gap_intervals(0.5, 1, 1.0, [1.0, 1.0 + 1e-6], nu_hat=NU_HAT_K1)
        assert gaps == []


class TestExponentFit:
    def test_exact_power_law(self):
        h = np.geomspace(0.2, 0.002, 9)
        fit = exponent_fit(h, 3.0 * h ** (4 / 3))
        assert fit.exponent == pytest.approx(4 / 3, abs=1e-10)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(314)
        h = np.geomspace(0.3, 0.003, 12)
        e = 2.0 * h ** 1.5 * (1.0 + 0.01 * rng.standard_normal(len(h)))
        fit = exponent_fit(h, e)
        assert fit.exponent == pytest.approx(1.5, abs=0.02)

    def test_two_term_window_refit(self):
        nu = NU_HAT_K1
        h_wide = np.geomspace(0.5, 0.005, 10)
        h_narrow = np.geomspace(0.02, 0.0002, 10)
        e = lambda h: nu * h ** (4 / 3) + h ** (5 / 3)
        f_wide = exponent_fit(h_wide, e(h_wide))
        f_narrow = exponent_fit(h_narrow, e(h_narrow))
        assert 4 / 3 < f_narrow.exponent < f_wide.exponent < 5 / 3
        assert abs(f_narrow.exponent - 4 / 3) < abs(f_wide.exponent - 4 / 3)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="4 samples"):
            exponent_fit([0.1, 0.01, 0.001], [1, 2, 3])
        with pytest.raises(ValueError, match="decade"):
            exponent_fit([0.1, 0.08, 0.06, 0.04], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="positive"):
            exponent_fit([0.1, 0.05, 0.02, 0.01], [1.0, 0.5, -0.2, 0.1])


class TestExponentHierarchy:
    @pytest.mark.parametrize("k", list(range(1, 21)))
    def test_symbolic_orderings(self, k):
        lead = leading_exponent(k)
        split = splitting_exponent(k)
        bound = bound_error_exponent(k)
        resid = residual_exponent(k)
        assert lead == Fraction(2 * k + 2, k + 2)
        assert lead < bound            # ground-bound error is higher order
        assert split < resid           # quasimode residual beats the splitting
        assert lead < split


class TestForecast:
    def test_build_and_serialize(self):
        fc = build_forecast(1, 1.0, [1.0, 3.0, 5.0],
                            [0.01, 0.005, 0.002, 0.001], nu_hat=NU_HAT_K1)
        # ordering invariant: z increases with the level index at fixed h
        assert np.all(np.diff(fc.z, axis=1) > 0)
        assert np.all(fc.z >= 0)
        for row in fc.gap_windows:
            flat = [v for g in row for v in g]
            assert flat == sorted(flat)

    @pytest.mark.parametrize("h,C,c_res,name", [
        (np.nan, 1.0, 1.0, "h"), (np.inf, 1.0, 1.0, "h"), (-0.01, 1.0, 1.0, "h"),
        (0.01, np.nan, 1.0, "C"), (0.01, np.inf, 1.0, "C"), (0.01, -1.0, 1.0, "C"),
        (0.01, 1.0, np.nan, "c_res"), (0.01, 1.0, np.inf, "c_res"),
        (0.01, 1.0, -1.0, "c_res"),
    ])
    def test_rejects_nonfinite_or_negative_inputs(self, h, C, c_res, name):
        # a negative c_res would widen each gap window past both levels
        with pytest.raises(ValueError, match=name):
            build_forecast(1, 1.0, [1.0, 3.0], [h], C=C, c_res=c_res,
                           nu_hat=NU_HAT_K1)
