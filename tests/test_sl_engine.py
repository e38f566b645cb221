import numpy as np
import pytest

from magwell import sl_engine
from magwell.sl_engine import (
    AssemblyError,
    ConvergenceError,
    SineBasis,
    SolverError,
    Spectrum1D,
    _eigh,
    _solve,
    eigenvalue_converged,
)
from magwell.montgomery import SCAN_SIZE, family_potential

from oracles import (
    count_sign_changes,
    dense_converged,
    gauss_legendre_reference,
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


def galerkin_matrix(potential, basis):
    """The matrix `sl_engine` solves: kinetic diagonal plus the potential's
    Galerkin matrix."""
    return basis.matrix(potential(basis.nodes())) + np.diag(basis.kinetic())


class TestSineBasis:
    @pytest.mark.parametrize("half_width, size", [(9.582312144488096, 96), (0.3, 32),
                                                  (2.0, 48), (11.989236065894366, 512)])
    def test_nodes_mirror_symmetric_bit_for_bit(self, half_width, size):
        basis = SineBasis(half_width, size)
        t, w = basis.nodes(), basis.weights()
        assert len(t) == 2 * size + 64
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(t) > 0) and np.sum(w) == pytest.approx(2 * half_width)

    @pytest.mark.parametrize("size", sorted({*range(1, 65), *sl_engine.SIZES, SCAN_SIZE}))
    def test_rule_matches_the_lapack_route_bit_for_bit(self, size):
        # every output rests on these nodes: after the two Newton steps, the
        # start from numpy's dense eigvalsh must give the bits that LAPACK's
        # tridiagonal solver gave
        x, w = gauss_legendre_reference(size)
        rule = sl_engine._rule(size)
        assert np.array_equal(rule.x, x) and np.array_equal(rule.w, w)

    def test_functions_orthonormal_at_the_nodes(self):
        basis = SineBasis(3.0, 64)
        u = basis.functions(np.eye(64))
        gram = (u * basis.weights()) @ u.T
        assert np.max(np.abs(gram - np.eye(64))) < 1e-13


class TestGrid:
    """The quadrature nodes of the sine basis, at which the levels'
    eigenfunctions are sampled."""

    def test_spacing_and_endpoints(self):
        # Gauss-Legendre nodes crowd the ends: each end node sits closer to
        # its end than any two nodes sit to each other, and the widest gap,
        # at the middle, is about pi T/(q + 1/2) for q nodes
        basis = SineBasis(2.0, 17)
        t = basis.nodes()
        gaps = np.diff(t)
        assert -2.0 < t[0] and t[-1] < 2.0
        assert t[0] + 2.0 < gaps.min() and 2.0 - t[-1] < gaps.min()
        assert gaps.max() == pytest.approx(np.pi * 2.0 / (len(t) + 0.5), rel=1e-2)
        assert gaps.max() < np.pi * 2.0 / len(t)

    def test_invalid(self):
        for half_width, size in ((-1.0, 64), (np.inf, 64), (1.0, 0)):
            with pytest.raises(ValueError):
                SineBasis(half_width, size)


class TestAssemble:
    def test_free_laplacian_is_diagonal(self):
        basis = SineBasis(1.0, 32)
        h = galerkin_matrix(lambda t: np.zeros_like(t), basis)
        assert np.array_equal(h, np.diag((np.arange(1, 33) * np.pi / 2.0) ** 2))

    def test_harmonic_ground_in_fixed_basis(self):
        spec = _solve(V_harmonic, SineBasis(10.0, 96), 1, vectors=True)
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)

    def test_matches_hand_built_matrix(self):
        # independent construction with explicit loops over the quadrature
        # of sin(n theta) sin(m theta) V / T
        basis = SineBasis(3.0, 16)
        t, w = basis.nodes(), basis.weights()
        theta = np.pi * (t + 3.0) / 6.0
        dense = np.zeros((16, 16))
        for n in range(1, 17):
            for m in range(1, 17):
                dense[n - 1, m - 1] = sum(
                    wq * V_family_k1(tq) * np.sin(n * th) * np.sin(m * th) / 3.0
                    for tq, wq, th in zip(t, w, theta))
            dense[n - 1, n - 1] += (n * np.pi / 6.0) ** 2
        assert np.max(np.abs(galerkin_matrix(V_family_k1, basis) - dense)) < 1e-12

    def test_nonfinite_potential_rejected(self):
        def bad(t):
            return np.where(np.abs(t) < 0.5, np.nan, t**2)

        with pytest.raises(AssemblyError, match="t="):
            _solve(bad, SineBasis(2.0, 32), 1, vectors=False)


class TestLowestEigenpairs:
    def test_oscillator_first_three(self):
        spec = _solve(V_harmonic, SineBasis(12.0, 128), 3, vectors=True)
        assert np.allclose(spec.eigenvalues, [1.0, 3.0, 5.0], atol=1e-10)

    def test_quartic_ground_matches_dense_oracle(self):
        spec = _solve(lambda t: t**4, SineBasis(6.0, 96), 2, vectors=True)
        oracle = [dense_converged(lambda t: t**4, m, 6.0, 769) for m in (0, 1)]
        assert np.allclose(spec.eigenvalues, oracle, atol=1e-8)

    def test_box_ground_state(self):
        # the sine basis diagonalises the box exactly
        L = 2.0
        spec = _solve(lambda t: np.zeros_like(t), SineBasis(L, 32), 1, vectors=True)
        assert spec.eigenvalues[0] == pytest.approx(np.pi**2 / (2 * L) ** 2, rel=1e-14)

    def test_normalization_and_residuals(self):
        basis = SineBasis(8.0, 64)
        spec = _solve(V_harmonic, basis, 4, vectors=True)
        for u in spec.eigenfunctions:
            assert np.sum(spec.weights * u**2) == pytest.approx(1.0, abs=1e-12)
        h = galerkin_matrix(V_harmonic, basis)
        vals, vecs, _ = _eigh(h, 4, split=True, vectors=True)
        resid = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
        assert np.all(resid < 1e-12 * np.abs(h).max())

    def test_sign_convention(self):
        spec = _solve(V_family_k1, SineBasis(6.0, 64), 4, vectors=True)
        for u in spec.eigenfunctions:
            assert u[np.argmax(np.abs(u))] > 0

    def test_too_many_requested(self):
        with pytest.raises(SolverError):
            _solve(V_harmonic, SineBasis(2.0, 32), 100, vectors=False)


class TestEigenvalueConverged:
    def test_vectors_only_on_the_returned_basis(self, monkeypatch):
        # the box search and the basis growth solve values only, each basis
        # once; the one solve with eigenvectors is the box check, returned
        calls = []
        true_solve = sl_engine._solve

        def spy(potential, basis, count, vectors):
            calls.append((basis, vectors))
            return true_solve(potential, basis, count, vectors)

        monkeypatch.setattr(sl_engine, "_solve", spy)
        _, spec = eigenvalue_converged(family_potential(1, 0.3), 2, 1e-7)
        assert [basis for basis, vectors in calls if vectors] == [spec.basis]
        values_only = [basis for basis, vectors in calls if not vectors]
        assert len(set(values_only)) == len(values_only)

    def test_oscillator_m4(self):
        val, _ = eigenvalue_converged(V_harmonic, 4, 1e-7)
        assert val == pytest.approx(9.0, abs=1e-7)

    def test_high_oscillator_level(self):
        # the box search and the basis growth size their bases from m; a
        # level no size of SIZES can hold is refused
        val, _ = eigenvalue_converged(V_harmonic, 40, 1e-8)
        assert val == pytest.approx(81.0, abs=1e-8)
        with pytest.raises(SolverError, match="beyond"):
            eigenvalue_converged(V_harmonic, 300, 1e-8)

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

    def test_spectrum_carries_every_level(self):
        val, spec = eigenvalue_converged(V_harmonic, 2, 1e-8)
        assert spec.eigenvalues[2] == val
        assert np.allclose(spec.eigenvalues, [1.0, 3.0, 5.0], atol=1e-8)

    def test_boundary_mass_is_small(self):
        # weighted mass of the highest level beyond 0.9 of the half-width
        _, spec = eigenvalue_converged(V_harmonic, 2, 1e-8)
        edge = np.abs(spec.nodes) > 0.9 * spec.basis.half_width
        assert np.sum(spec.weights[edge] * spec.eigenfunctions[-1][edge] ** 2) < 1e-16

    def test_nonconfining_potential_raises_convergence_error(self):
        # no wall ever rises above the level, so the box search gives up
        for pot in (lambda t: 0 * t, lambda t: -t**2):
            with pytest.raises(ConvergenceError, match="could not find a confining box"):
                eigenvalue_converged(pot, 0, 1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, np.inf, np.nan])
    def test_rejects_tol_outside_zero_to_inf(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            eigenvalue_converged(V_harmonic, 0, tol)

    def test_nonconvergence_carries_last_estimates(self, monkeypatch):
        # basis sizes whose levels alternate by +-0.01 about 1 never agree:
        # the growth runs through every size and the error exposes the last
        # two levels it saw
        fed = []

        def alternating(potential, basis, count, vectors):
            fed.append(1.0 + 0.01 * (-1) ** len(fed))
            return np.array([fed[-1]])

        monkeypatch.setattr(sl_engine, "_box_half_widths", lambda potential, m: [4.0, 6.0])
        monkeypatch.setattr(sl_engine, "_solve", alternating)
        with pytest.raises(ConvergenceError, match="basis growth exhausted") as err:
            eigenvalue_converged(V_harmonic, 0, 1e-6)
        assert len(fed) == len(sl_engine.SIZES)
        assert err.value.estimates == tuple(fed[-2:])

    def test_failed_box_checks_carry_last_estimates(self, monkeypatch):
        # each box converges in the basis, and each larger box sits 0.01
        # higher: every check fails, and after the last box the error
        # carries the level of the one before it and the last check's
        boxes = [4.0 + i for i in range(sl_engine.MAX_BOXES)]
        true_solve = sl_engine._solve

        def drifting(potential, basis, count, vectors):
            spec = true_solve(potential, basis, count, vectors)
            shift = 0.01 * boxes.index(basis.half_width)
            if vectors:
                return Spectrum1D(spec.eigenvalues + shift, spec.eigenfunctions.copy(),
                                  basis, spec.parity)
            return spec + shift

        monkeypatch.setattr(sl_engine, "_box_half_widths", lambda potential, m: boxes)
        monkeypatch.setattr(sl_engine, "SIZES", tuple(range(32, 112, 4)))
        monkeypatch.setattr(sl_engine, "_solve", drifting)
        with pytest.raises(ConvergenceError, match="box enlargement exhausted") as err:
            eigenvalue_converged(V_harmonic, 0, 1e-2)
        before, last = err.value.estimates
        assert last - before == pytest.approx(0.01, abs=1e-6)
        assert last == pytest.approx(1.0 + 0.01 * (len(boxes) - 1), abs=1e-6)


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
        h = galerkin_matrix(family_potential(k, alpha), spec.basis)
        whole = np.linalg.eigvalsh(h)[:4]
        norm_bound = np.max(np.sum(np.abs(h), axis=1))
        assert np.max(np.abs(spec.eigenvalues - whole)) <= 1e-14 * norm_bound

    @pytest.mark.parametrize("k", list(range(1, 8)))
    def test_split_matches_whole_matrix(self, k):
        # each parity block gives the whole matrix's levels of that parity,
        # and the same eigenvectors up to sign
        basis = SineBasis(4.0, 64)
        h = galerkin_matrix(family_potential(k, 0.3 if k % 2 else 0.0), basis)
        vals, vecs, parity = _eigh(h, 6, split=True, vectors=True)
        whole_vals, whole_vecs = np.linalg.eigh(h)
        assert parity == ALTERNATING + ("even", "odd")
        assert np.allclose(vals, whole_vals[:6], rtol=0, atol=1e-12 * np.abs(h).max())
        overlap = np.abs(np.sum(vecs * whole_vecs[:, :6], axis=0))
        assert np.allclose(overlap, 1.0, atol=1e-10)

    def test_values_only_match_eigenpairs(self):
        basis = SineBasis(12.0, 128)
        vals = _solve(family_potential(1, 10.0), basis, 3, vectors=False)
        spec = _solve(family_potential(1, 10.0), basis, 3, vectors=True)
        h = galerkin_matrix(family_potential(1, 10.0), basis)
        assert np.max(np.abs(vals - spec.eigenvalues)) <= 1e-14 * np.abs(h).max()

    def test_odd_sign_tie_goes_to_smaller_t(self):
        spec = _solve(V_family_k1, SineBasis(6.0, 64), 2, vectors=True)
        u = spec.eigenfunctions[1]
        assert np.argmax(np.abs(u)) < len(u) // 2 and u[np.argmax(np.abs(u))] > 0

    def test_broken_symmetry_gives_none(self):
        _, spec = eigenvalue_converged(lambda t: t**2 + t, 0, 1e-8)
        assert spec.parity is None


class TestInvariants:
    def test_eigenvalue_monotone_in_potential(self):
        basis = SineBasis(8.0, 96)
        s1 = _solve(lambda t: t**2, basis, 4, vectors=True)
        s2 = _solve(lambda t: t**2 + 0.5 + 0.1 * t**4, basis, 4, vectors=True)
        assert np.all(s1.eigenvalues <= s2.eigenvalues)

    def test_basis_growth_converges_spectrally(self):
        # the sine series of a smooth eigenfunction converges faster than
        # any power: each size of SIZES gains a factor 100 at least until
        # rounding takes over
        errors = [np.max(np.abs(_solve(V_harmonic, SineBasis(9.0, n), 3, vectors=False)
                                - [1.0, 3.0, 5.0])) for n in (32, 48, 64)]
        assert errors[1] < 1e-2 * errors[0] and errors[2] < max(1e-2 * errors[1], 1e-12)

    def test_refinement_gains_factor_three(self):
        # each larger basis moves every level less than a third as far as
        # the step before it did
        vals = [_solve(V_harmonic, SineBasis(9.0, n), 3, vectors=False) for n in (16, 24, 32)]
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
            oracle = dense_converged(pot, m, spec.basis.half_width, 769)
            assert val == pytest.approx(oracle, abs=1e-7)


class TestSerialization:
    def test_spectrum_rejects_nonincreasing(self):
        with pytest.raises(SolverError):
            Spectrum1D(np.array([1.0, 1.0]), np.zeros((2, 96)), SineBasis(1.0, 16))
