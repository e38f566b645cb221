import dataclasses
import math

import numpy as np
import pytest

from magwell._files import write_json
from magwell.miniwell import (
    EffectiveOperatorK,
    MiniwellGeometry,
    build_A,
    build_Omega,
    build_effective_operator,
    flat_model_geometry,
    spectrum_K,
    spectrum_K_oracle,
)
from magwell.sl_engine import ConvergenceError, SolverError


def make_geometry(dim=2, **overrides):
    base = dict(
        n=dim + 1,
        omega01=np.ones(dim) / np.sqrt(dim),
        domega01=np.zeros((dim, dim)),
        hess_abs2=np.eye(dim) * 2.0,
    )
    base.update(overrides)
    return MiniwellGeometry(**base)


def make_kop(c_omega, e_omega, Omega, A=0.0, alpha_min=0.35, k=1):
    e = np.asarray(e_omega, dtype=float)
    return EffectiveOperatorK(c_omega=c_omega, e_omega=e / np.linalg.norm(e),
                              Omega=np.asarray(Omega, dtype=float),
                              A_const=complex(A), alpha_min=alpha_min, k=k)


@pytest.fixture(scope="module")
def report_k1(states):
    return states[1].report


@pytest.fixture(scope="module")
def report_k2(states):
    return states[2].report


class TestGeometry:
    def test_gradient_condition_enforced(self):
        # domega01^T omega01 != 0 violates the minimum condition
        with pytest.raises(ValueError, match="minimum condition"):
            make_geometry(domega01=np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_gradient_condition_allows_tangential_rows(self):
        # rows orthogonal to omega01 are fine
        w = np.array([1.0, 0.0])
        D = np.array([[0.0, 0.0], [0.3, 0.5]])   # D^T w = 0
        g = make_geometry(omega01=w, domega01=D)
        assert g.omega_min == pytest.approx(1.0)

    def test_hessian_must_be_spd(self):
        with pytest.raises(ValueError, match="positive definite"):
            make_geometry(hess_abs2=np.diag([1.0, -2.0]))

    def test_zero_field_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_geometry(omega01=np.zeros(2))

    def test_divergence_defaults_to_trace(self):
        # first row zero keeps D^T omega01 = 0 for omega01 along e_1
        w = np.array([1.0, 0.0])
        D = np.array([[0.0, 0.0], [0.3, 0.4]])
        g = make_geometry(omega01=w, domega01=D)
        assert g.divergence == pytest.approx(0.4)
        g2 = make_geometry(omega01=w, domega01=D, domega_div=1.23)
        assert g2.divergence == 1.23

    def test_json_round_trip(self, tmp_path):
        g = make_geometry(domega_div=0.7)
        path = tmp_path / "geom.json"
        write_json(path, g)
        for source in (str(path), path):
            g2 = MiniwellGeometry.from_json(source)
            for f in dataclasses.fields(g):
                assert np.array_equal(getattr(g2, f.name), getattr(g, f.name)), f.name
            assert g2.domega_div == 0.7

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            MiniwellGeometry.from_json({"n": 2, "omega01": [1.0],
                                        "domega01": [[0.0]],
                                        "hess_abs2": [[1.0]], "bogus": 1})

    @pytest.mark.parametrize("value,token", [(math.nan, "NaN"), (math.inf, "Infinity"),
                                             (-math.inf, "-Infinity")])
    def test_mapping_with_non_finite_number_rejected(self, tmp_path, value, token):
        # a file holding the same token gives the same message, which names
        # the field
        message = (r"^hess_abs2 must be a rectangular array of finite numbers, "
                   rf"got \[\[{value!r}\]\]$")
        with pytest.raises(ValueError, match=message):
            MiniwellGeometry.from_json({"n": 2, "omega01": [1.0],
                                        "domega01": [[0.0]],
                                        "hess_abs2": [[value]]})
        path = tmp_path / "geom.json"
        path.write_text('{"n": 2, "omega01": [1.0], "domega01": [[0.0]], '
                        f'"hess_abs2": [[{token}]]}}')
        with pytest.raises(ValueError, match=message):
            MiniwellGeometry.from_json(path)


class TestOmega:
    def test_even_k_isotropic_case(self, report_k2):
        g = make_geometry(dim=1, omega01=np.array([1.0]),
                          domega01=np.zeros((1, 1)),
                          hess_abs2=np.array([[2.0]]))
        om = build_Omega(g, report_k2)
        assert om[0, 0] == pytest.approx(report_k2.nu_hat / (2 + 2), rel=1e-12)

    def test_k1_diagonal_hessian(self, report_k1):
        g = make_geometry(dim=2, omega01=np.array([1.0, 0.0]),
                          hess_abs2=np.diag([2.0, 4.0]))
        om = build_Omega(g, report_k1)
        assert np.allclose(np.diag(om), [0.57 / 6 * 2, 0.57 / 6 * 4], atol=0.01)
        assert om[0, 1] == 0.0

    def test_field_scale_prefactor(self, report_k1):
        k = 1
        g1 = make_geometry(dim=2, omega01=np.array([1.0, 0.0]))
        c = 3.7
        g2 = make_geometry(dim=2, omega01=np.array([c, 0.0]))
        om1 = build_Omega(g1, report_k1)
        om2 = build_Omega(g2, report_k1)
        assert np.allclose(om2, om1 * c ** (-(2 * k + 2) / (k + 2)), rtol=1e-12)


def former_real_integrands(state):
    """The three fiber integrands that the real part of A once paired with
    the vector-potential and metric data, at the nodes of the ground state:
    tau u0'' u0 (with u0'' = (w^2 - nu_hat) u0, the eigenvalue equation),
    (tau^{k+2}/(k+2)) w u0^2 and tau w^2 u0^2, with
    w = tau^{k+1}/(k+1) - alpha_min."""
    k, am = state.report.k, state.report.alpha_min
    spec = state.spectrum
    t, weights = spec.nodes, spec.weights
    u = spec.eigenfunctions[0]
    w = t ** (k + 1) / (k + 1) - am
    upp = (w * w - state.report.nu_hat) * u
    return (float(np.sum(weights * t * upp * u)),
            float(np.sum(weights * t ** (k + 2) / (k + 2) * w * u * u)),
            float(np.sum(weights * t * w * w * u * u)))


class TestA:
    def test_flat_model_A_is_zero(self, states):
        g = flat_model_geometry(1.0, 0.5)
        a = build_A(g, states[1].report)
        assert a == 0j

    def test_even_k_A_is_real(self, states):
        g = make_geometry(dim=2, domega_div=0.8)
        a = build_A(g, states[2].report)
        # the only imaginary term carries alpha_min, which vanishes for even k
        assert abs(a.imag) < 1e-10

    @pytest.mark.parametrize("k", range(1, 8))
    def test_former_real_terms_vanish_by_parity(self, states, k):
        # the fiber potential is even in tau, so is u0, and each integrand is
        # odd: what build_A leaves out is rounding
        for value in former_real_integrands(states[k]):
            assert abs(value) <= 1e-11

    def test_term_selectivity(self, states):
        rep = states[1].report
        base_kwargs = dict(dim=2, omega01=np.array([2.0, 0.0]))
        zero = build_A(make_geometry(**base_kwargs), rep)
        assert zero == pytest.approx(complex(0, 0))

        a = build_A(make_geometry(**base_kwargs, domega_div=0.6), rep)
        assert a.real == 0.0
        assert a.imag == pytest.approx(0.6 * rep.alpha_min / 2.0)


class TestSpectrumK:
    def test_isotropic_2d(self):
        kop = make_kop(1.0, [1.0, 0.0], np.eye(2))
        ks = spectrum_K(kop, 6)
        assert np.allclose(ks.levels, [2, 4, 4, 6, 6, 6])

    def test_anisotropic_kinetic_1d(self):
        kop = make_kop(4.0, [1.0], np.array([[1.0]]))
        ks = spectrum_K(kop, 3)
        assert np.allclose(ks.levels, [2, 6, 10])

    def test_shifted_diag(self):
        kop = make_kop(1.0, [1.0, 0.0], np.diag([4.0, 9.0]), A=1.0)
        ks = spectrum_K(kop, 3)
        assert np.allclose(ks.levels, [6, 10, 12])

    @pytest.mark.parametrize("c", [0.0, -0.5, math.nan, math.inf])
    def test_bad_c_omega_refused_at_construction(self, c):
        # zero, negative, NaN or inf: K has discrete levels only at a
        # non-degenerate band minimum, where c_omega = d2/2 is positive
        with pytest.raises(SolverError, match=r"^c_omega = d2/2 must be positive"):
            make_kop(c, [1.0], np.array([[1.0]]))

    def test_omega_must_be_spd(self):
        with pytest.raises(SolverError, match="positive definite"):
            make_kop(1.0, [1.0, 0.0], np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_omega_refused_at_construction(self, value):
        with pytest.raises(SolverError, match="positive definite and finite"):
            make_kop(1.0, [1.0, 0.0], np.diag([1.0, value]))

    def test_imaginary_A_warns(self):
        kop = make_kop(1.0, [1.0], np.array([[1.0]]), A=1.0 + 1e-5j)
        with pytest.warns(UserWarning, match="complex constant"):
            ks = spectrum_K(kop, 2)
        assert ks.imag_A_warning

    def test_level_gap_equals_twice_frequency_1d(self):
        kop = make_kop(2.0, [1.0], np.array([[3.0]]))
        ks = spectrum_K(kop, 5)
        gaps = np.diff(ks.levels)
        mu = np.sqrt(2.0 * 3.0)
        assert np.allclose(gaps, 2.0 * mu, atol=1e-10)


class TestOracle:
    def test_oscillator_1d(self):
        kop = make_kop(1.0, [1.0], np.array([[1.0]]))
        lv = spectrum_K_oracle(kop, 3)
        assert np.allclose(lv, [1, 3, 5], rtol=0, atol=1e-10)

    def test_random_spd_2d(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((2, 2))
        Om = B @ B.T + 0.4 * np.eye(2)
        e = rng.standard_normal(2)
        kop = make_kop(2.0, e, Om)
        closed = spectrum_K(kop, 5).levels
        oracle = spectrum_K_oracle(kop, 5)
        assert np.max(np.abs(closed - oracle)) < 1e-4

    def test_near_degenerate_pair(self):
        # levels 3 and 4 lie 6.7e-3 apart; a finite-difference pair of grids
        # once swapped them and missed the closed form by 3.2e-3
        kop = make_kop(0.34363789450727167,
                       [-0.7707701163951114, -0.6371133554339182],
                       [[2.077618140965868, -0.7486777164309614],
                        [-0.7486777164309614, 1.0832030988225914]],
                       A=-0.34553891893856015)
        closed = spectrum_K(kop, 6).levels
        oracle = spectrum_K_oracle(kop, 6)
        assert np.max(np.abs(closed - oracle)) < 1e-4

    def test_basis_cap_raises(self):
        # a rotated 1e4-anisotropic well is too elongated for an axis-aligned
        # Hermite basis of 128 functions per axis
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        kop = make_kop(1.0, [1.0, 0.0], R @ np.diag([0.01, 100.0]) @ R.T)
        with pytest.raises(ConvergenceError, match="128") as info:
            spectrum_K_oracle(kop, 6)
        before, after = info.value.estimates
        assert after <= before      # Ritz values never increase

    def test_zero_count_refused(self):
        kop = make_kop(1.0, [1.0], np.array([[1.0]]))
        with pytest.raises(ValueError, match="need at least one level"):
            spectrum_K_oracle(kop, 0)

    def test_dim3_refused(self):
        kop = make_kop(1.0, [1.0, 0.0, 0.0], np.eye(3))
        with pytest.raises(ValueError, match="dim <= 2"):
            spectrum_K_oracle(kop, 2)


class TestFrameInvariance:
    def test_rotated_geometry_same_levels(self, states):
        st = states[1]
        w = np.array([1.3, 0.0])
        D = np.array([[0.0, 0.0], [0.2, 0.6]])
        H = np.array([[2.0, 0.4], [0.4, 3.0]])
        g = make_geometry(dim=2, omega01=w, domega01=D, hess_abs2=H)
        kop = build_effective_operator(g, st.report)
        # this geometry has nonzero divergence at nonzero alpha_min, so the
        # complex-constant warning must fire (and rotation preserves Im A)
        with pytest.warns(UserWarning, match="complex constant"):
            lv = spectrum_K(kop, 6).levels

        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        g_rot = make_geometry(dim=2, omega01=R @ w, domega01=R @ D @ R.T,
                              hess_abs2=R @ H @ R.T)
        kop_rot = build_effective_operator(g_rot, st.report)
        assert kop_rot.A_const.imag == pytest.approx(kop.A_const.imag, abs=1e-14)
        with pytest.warns(UserWarning, match="complex constant"):
            lv_rot = spectrum_K(kop_rot, 6).levels
        assert np.max(np.abs(lv - lv_rot)) < 1e-10


class TestBuildEffectiveOperator:
    def test_flat_model_assembly(self, states):
        st = states[1]
        geom = flat_model_geometry(1.0, 0.4)
        kop = build_effective_operator(geom, st.report)
        assert kop.c_omega == pytest.approx(0.5 * st.report.d2)
        assert kop.A_const == 0j
        assert kop.Omega[0, 0] == pytest.approx(
            st.report.nu_hat / (2 * 3) * 0.4, rel=1e-12)
        M = kop.kinetic_matrix()
        assert M[0, 0] == pytest.approx(kop.c_omega)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_c_omega_is_half_a_positive_curvature(self, states, k):
        # every band minimum the package computes is non-degenerate
        report = states[k].report
        kop = build_effective_operator(flat_model_geometry(1.0, 0.4), report)
        assert kop.c_omega == report.d2 / 2 > 0
