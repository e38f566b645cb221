import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from magwell.sl_engine import (
    AssemblyError,
    ConfiningPotential,
    ConvergenceError,
    Grid1D,
    SolverError,
    Spectrum1D,
    assemble,
    boundary_mass,
    _eigenvalues_only,
    eigenvalue_converged,
    lowest_eigenpairs,
)
from magwell.montgomery import family_potential

from oracles import (
    count_sign_changes,
    dense_converged,
    dense_eigenvalues,
    reflection_residuals,
    shooting_eigenvalue,
)

# frozen from the Prufer shooting oracle in tests/oracles.py
GROUND_QUARTIC_HALF = 0.667986259218      # -u'' + (t^2/2)^2 u
GROUND_QUARTIC = 1.060362090438           # -u'' + t^4 u


def V_harmonic(t):
    return t**2


def V_family_k1(t, alpha=0.35):
    return (t**2 / 2 - alpha) ** 2


class TestGrid:
    def test_spacing_and_endpoints(self):
        g = Grid1D(2.0, 17)
        t = g.points()
        assert t[0] == -2.0 and t[-1] == 2.0
        assert np.allclose(np.diff(t), g.spacing)
        assert g.spacing == pytest.approx(4.0 / 16)

    @pytest.mark.parametrize("L, n", [(9.582312144488096, 8193), (0.3, 17),
                                      (2.0, 64), (11.989236065894366, 16385)])
    def test_mirror_symmetric_bit_for_bit(self, L, n):
        t = Grid1D(L, n).interior_points()
        assert np.array_equal(t, -t[::-1])

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid1D(-1.0, 64)
        with pytest.raises(ValueError):
            Grid1D(1.0, 8)


class TestAssemble:
    def test_free_laplacian_stencil(self):
        g = Grid1D(1.0, 17)
        op = assemble(lambda t: np.zeros_like(t), g)
        dt = g.spacing
        assert np.allclose(op.diagonal, 2.0 / dt**2)
        assert np.allclose(op.offdiagonal, -1.0 / dt**2)

    def test_harmonic_ground_on_fine_grid(self):
        op = assemble(V_harmonic, Grid1D(10.0, 4001))
        spec = lowest_eigenpairs(op, 1)
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-5)

    def test_matches_hand_built_matrix(self):
        # independent construction with explicit loops
        g = Grid1D(3.0, 41)
        op = assemble(V_family_k1, g)
        t = g.points()
        dt = 2.0 * g.half_width / (g.n_points - 1)
        n = g.n_points - 2
        dense = np.zeros((n, n))
        for i in range(n):
            ti = t[i + 1]
            dense[i, i] = 2.0 / dt**2 + (ti**2 / 2 - 0.35) ** 2
            if i + 1 < n:
                dense[i, i + 1] = -1.0 / dt**2
                dense[i + 1, i] = -1.0 / dt**2
        assert np.array_equal(np.diag(dense), op.diagonal)
        assert np.array_equal(np.diag(dense, 1), op.offdiagonal)

    def test_nonfinite_potential_rejected(self):
        def bad(t):
            return np.where(np.abs(t) < 0.5, np.nan, t**2)

        with pytest.raises(AssemblyError, match="t="):
            assemble(bad, Grid1D(2.0, 65))


class TestLowestEigenpairs:
    def test_oscillator_first_three(self):
        op = assemble(V_harmonic, Grid1D(12.0, 4001))
        spec = lowest_eigenpairs(op, 3)
        assert np.allclose(spec.eigenvalues, [1.0, 3.0, 5.0], atol=1e-6)

    def test_quartic_ground_matches_dense_oracle(self):
        g = Grid1D(6.0, 2001)
        op = assemble(lambda t: t**4, g)
        spec = lowest_eigenpairs(op, 2)
        oracle = dense_eigenvalues(lambda t: t**4, g, 2)
        assert np.allclose(spec.eigenvalues, oracle, atol=1e-8)

    def test_box_ground_state(self):
        L = 2.0
        op = assemble(lambda t: np.zeros_like(t), Grid1D(L, 2001))
        spec = lowest_eigenpairs(op, 1)
        exact = np.pi**2 / (2 * L) ** 2
        assert spec.eigenvalues[0] == pytest.approx(exact, rel=1e-5)

    def test_normalization_and_residuals(self):
        g = Grid1D(8.0, 1001)
        op = assemble(V_harmonic, g)
        spec = lowest_eigenpairs(op, 4)
        for u in spec.eigenfunctions:
            assert np.sum(u**2) * g.spacing == pytest.approx(1.0, abs=1e-12)
        assert np.all(spec.convergence_estimate < 1e-8)

    def test_sign_convention(self):
        spec = lowest_eigenpairs(assemble(V_family_k1, Grid1D(6.0, 801)), 4)
        for u in spec.eigenfunctions:
            assert u[np.argmax(np.abs(u))] > 0
        assert spec.extrapolants is None

    def test_too_many_requested(self):
        op = assemble(V_harmonic, Grid1D(2.0, 16))
        with pytest.raises(SolverError):
            lowest_eigenpairs(op, 100)


class TestEigenvalueConverged:
    def test_oscillator_m4(self):
        val, _ = eigenvalue_converged(V_harmonic, 4, 1e-7)
        assert val == pytest.approx(9.0, abs=1e-7)

    def test_family_k1_near_table_value(self):
        val, _ = eigenvalue_converged(V_family_k1, 0, 1e-6)
        assert val == pytest.approx(0.57, abs=1e-2)

    def test_quartic_half_vs_shooting_oracle(self):
        val, _ = eigenvalue_converged(lambda t: (t**2 / 2) ** 2, 0, 1e-9)
        assert val == pytest.approx(GROUND_QUARTIC_HALF, abs=1e-7)

    def test_quartic_vs_shooting_oracle(self):
        val, _ = eigenvalue_converged(lambda t: t**4, 0, 1e-9)
        assert val == pytest.approx(GROUND_QUARTIC, abs=1e-7)

    def test_frozen_oracle_value_reproduces_live(self):
        # the frozen constants come from this oracle; keep it honest
        live = shooting_eigenvalue(lambda t: (t**2 / 2) ** 2, 0, 6.0, 0.1, 1.5)
        assert live == pytest.approx(GROUND_QUARTIC_HALF, abs=1e-9)

    def test_extrapolants_carry_every_level(self):
        val, spec = eigenvalue_converged(V_harmonic, 2, 1e-8)
        assert spec.extrapolants[2] == val
        assert np.allclose(spec.extrapolants, [1.0, 3.0, 5.0], atol=1e-8)

    def test_boundary_mass_is_small(self):
        _, spec = eigenvalue_converged(V_harmonic, 2, 1e-8)
        assert boundary_mass(spec) < 1e-16

    def test_rejects_nonconfining_declaration(self):
        pot = ConfiningPotential(lambda t: t**2, confining=False)
        with pytest.raises(ValueError):
            eigenvalue_converged(pot, 0, 1e-6)

    def test_nonconvergence_carries_last_estimates(self):
        # starved refinement budget: the error must expose how far it got
        with pytest.raises(ConvergenceError) as err:
            eigenvalue_converged(V_harmonic, 0, 1e-14, probe_points=17,
                                 max_refinements=2)
        assert err.value.estimates is not None
        lo, hi = err.value.estimates
        assert abs(lo - 1.0) < 0.1 and abs(hi - 1.0) < 0.1


ALTERNATING = ("even", "odd", "even", "odd")


class TestParity:
    def test_family_k1_even_odd_sequence(self):
        _, spec = eigenvalue_converged(V_family_k1, 3, 1e-8)
        assert spec.parity == ALTERNATING
        assert np.all(reflection_residuals(spec) == 0.0)

    @pytest.mark.parametrize("alpha", [5.0, 10.0, 20.0, 50.0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_double_wells_split_exactly(self, k, alpha):
        # the even and odd levels of the double well merge to working
        # precision as alpha grows; each keeps its label and matches the
        # unsplit matrix
        _, spec = eigenvalue_converged(family_potential(k, alpha), 3, 1e-8)
        assert spec.parity == ALTERNATING
        assert np.all(reflection_residuals(spec) == 0.0)
        op = assemble(family_potential(k, alpha), spec.grid)
        whole = eigvalsh_tridiagonal(op.diagonal, op.offdiagonal,
                                     select="i", select_range=(0, 3))
        assert np.max(np.abs(spec.eigenvalues - whole)) <= 1e-14 * op.norm_bound()

    def test_values_only_match_eigenpairs(self):
        op = assemble(family_potential(1, 10.0), Grid1D(12.0, 1025))
        vals = _eigenvalues_only(op, 3)
        assert np.array_equal(vals, lowest_eigenpairs(op, 3).eigenvalues)

    def test_odd_sign_tie_goes_to_smaller_t(self):
        spec = lowest_eigenpairs(assemble(V_family_k1, Grid1D(6.0, 801)), 2)
        u = spec.eigenfunctions[1]
        assert np.argmax(np.abs(u)) < len(u) // 2 and u[np.argmax(np.abs(u))] > 0

    def test_broken_symmetry_gives_none(self):
        _, spec = eigenvalue_converged(lambda t: t**2 + t, 0, 1e-8)
        assert spec.parity is None

    def test_even_point_count_is_not_split(self):
        spec = lowest_eigenpairs(assemble(V_harmonic, Grid1D(8.0, 1000)), 3)
        assert spec.parity is None


class TestInvariants:
    def test_eigenvalue_monotone_in_potential(self):
        g = Grid1D(8.0, 1201)
        s1 = lowest_eigenpairs(assemble(lambda t: t**2, g), 4)
        s2 = lowest_eigenpairs(assemble(lambda t: t**2 + 0.5 + 0.1 * t**4, g), 4)
        assert np.all(s1.eigenvalues <= s2.eigenvalues)

    def test_refinement_gains_factor_three(self):
        # second-order stencil: error drops ~4x per halving once asymptotic
        vals = []
        for n in (801, 1601, 3201):
            op = assemble(V_harmonic, Grid1D(9.0, n))
            vals.append(lowest_eigenpairs(op, 3).eigenvalues)
        for m in range(3):
            d1 = abs(vals[1][m] - vals[0][m])
            d2 = abs(vals[2][m] - vals[1][m])
            assert d1 / d2 >= 3.0

    def test_oscillation_theorem(self):
        _, spec = eigenvalue_converged(V_family_k1, 5, 1e-7)
        for m, u in enumerate(spec.eigenfunctions):
            assert count_sign_changes(u) == m

    def test_random_confining_polynomials_vs_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c2 = rng.uniform(0.2, 2.0)
            c4 = rng.uniform(0.05, 1.0)
            c1 = rng.uniform(-1.0, 1.0)
            pot = lambda t, a=c1, b=c2, c=c4: c * t**4 + b * t**2 + a * t
            m = int(rng.integers(0, 3))
            val, spec = eigenvalue_converged(pot, m, 1e-9)
            oracle = dense_converged(pot, m, spec.grid.half_width, 769)
            assert val == pytest.approx(oracle, abs=1e-7)


class TestSerialization:
    def test_spectrum_rejects_nonincreasing(self):
        g = Grid1D(1.0, 16)
        with pytest.raises(SolverError):
            Spectrum1D(np.array([1.0, 1.0]), np.zeros((2, 14)), g,
                       np.zeros(2))
