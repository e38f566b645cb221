"""The shift-invert Lanczos of `magwell._shift_invert` against dense
`eigvalsh`: complex Hermitian and real symmetric matrices, near-degenerate
pairs, the residual bound of its stop rule, the factor it makes, which the
inertia oracle reads, and the typed failure."""
import numpy as np
import pytest
import scipy.sparse as sp

from magwell import _shift_invert
from magwell._shift_invert import (
    LANCZOS_MAX_STEPS,
    RESIDUAL_TOL,
    lowest_sparse_eigenpairs,
)
from magwell.miniwell import EffectiveOperatorK, _hermite_axis, _oracle_matrix
from magwell.model2d import Field2DConfig, assemble_2d
from magwell.sl_engine import ConvergenceError

from oracles import inertia_below, reflection_blocks


def reflection_block():
    """Complex Hermitian even block of a small k=1 operator on the (38, 24)
    grid: 418 unknowns, block index i*38 + j for column j."""
    cfg = Field2DConfig.default(k=1, S=3.0, s1=0.9, h_list=(0.5,),
                                points_per_length=11)
    op = assemble_2d(cfg, 0.5)
    assert (op.n_s, op.n_t) == (38, 24)
    name, Q = reflection_blocks(op)[0]
    assert name == "even"
    return (Q.T @ op.hermitian @ Q).tocsr()


def rotated_diagonal(d):
    """Q^T diag(d) Q for Q a product of two layers of plane rotations on
    neighbouring unknowns: a real symmetric pentadiagonal matrix whose
    spectrum is d, with every eigenvector spread over several unknowns."""
    n = len(d)
    Q = sp.identity(n, format="csr")
    for first, phi in ((0, 0.7), (1, 0.4)):
        R = sp.lil_matrix(sp.identity(n))
        for a in range(first, n - 1, 2):
            R[a, a], R[a, a + 1] = np.cos(phi), -np.sin(phi)
            R[a + 1, a], R[a + 1, a + 1] = np.sin(phi), np.cos(phi)
        Q = R.tocsr() @ Q
    H = (Q.T @ sp.diags(d) @ Q).tocsr()
    return (0.5 * (H + H.T)).tocsr()


class TestAgainstDense:
    def test_complex_hermitian_block(self):
        B = reflection_block()
        assert B.dtype == np.complex128
        # the reference levels are the Rayleigh quotients of LAPACK's
        # eigenvectors: its eigenvalues alone are off by 1.5e-12 relative
        # with one BLAS thread
        dense, V = np.linalg.eigh(B.toarray())
        ref = np.real(np.sum(V[:, :4].conj() * (B @ V[:, :4]), axis=0))
        vals, vecs = lowest_sparse_eigenpairs(B, 4)
        assert np.max(np.abs(vals - ref) / ref) < 1e-12
        resid = np.linalg.norm(B @ vecs - vecs * vals, axis=0)
        assert np.max(resid) < 1e-12 * dense[-1]
        # the same levels at a certified shift just below the ground state
        shifted = lowest_sparse_eigenpairs(B, 4, shift=0.9 * dense[0])[0]
        assert np.max(np.abs(shifted - ref) / ref) < 1e-12

    def test_real_symmetric_oracle_matrix(self):
        # a tensor Hermite basis of the K oracle, 24^2 unknowns
        kop = EffectiveOperatorK(c_omega=0.4, e_omega=np.array([0.6, 0.8]),
                                 Omega=np.array([[1.5, 0.2], [0.2, 0.8]]),
                                 A_const=0j, alpha_min=0.35, k=1)
        scales = (np.diag(kop.kinetic_matrix()) / np.diag(kop.Omega)) ** 0.25
        H = _oracle_matrix(kop, [_hermite_axis(s, 24) for s in scales])
        assert H.dtype == np.float64
        dense = np.linalg.eigvalsh(H.toarray())
        vals = lowest_sparse_eigenpairs(H, 6)[0]
        assert np.max(np.abs(vals - dense[:6]) / dense[:6]) < 1e-12

    @staticmethod
    def check_pair_resolved(split):
        # levels 1 and 1 + split, then a gap: a Ritz value that settled on
        # the pair as one level would skip the second and return 1.5 as the
        # second lowest
        d = np.concatenate([[1.0, 1.0 + split], np.linspace(1.5, 40.0, 298)])
        H = rotated_diagonal(d)
        dense = np.linalg.eigvalsh(H.toarray())
        vals = lowest_sparse_eigenpairs(H, 4)[0]
        assert np.max(np.abs(vals - dense[:4])) < 1e-13
        assert vals[1] - vals[0] == pytest.approx(split, abs=1e-13)

    def test_near_degenerate_pair_is_resolved(self):
        self.check_pair_resolved(1e-10)

    def test_pair_split_by_1e_12_is_resolved(self):
        # the values converge to rounding long before the vectors do; the
        # pair is still told apart
        self.check_pair_resolved(1e-12)


def spied_stop_rule(monkeypatch):
    """The events of the stop rule in one solve, in order: ("values", m,
    theta, S, beta_m, passed) for each test of the Ritz values and
    ("product", m, next_norm) for each product with H - shift, where
    next_norm = |(H - shift) v_{m+1}|; ("return", m) ends a solve that
    returned its Ritz pairs at step m."""
    events = []
    ritz_test, lanczos = _shift_invert._ritz_test, _shift_invert._lanczos

    def spy_ritz(alpha, beta, m, k):
        theta, S, passed = ritz_test(alpha, beta, m, k)
        events.append(("values", m, theta, S, beta[m - 1], passed))
        return theta, S, passed

    def spy_lanczos(solve, shifted, n, k, dtype):
        def spy_shifted(w):
            out = shifted(w)
            # w = beta_m v_{m+1} with beta_m = |w|
            events.append(("product", events[-1][1],
                           np.linalg.norm(out) / np.linalg.norm(w)))
            return out

        theta, Y, converged = lanczos(solve, spy_shifted, n, k, dtype)
        if converged:
            events.append(("return", events[-1][1]))
        return theta, Y, converged

    monkeypatch.setattr(_shift_invert, "_ritz_test", spy_ritz)
    monkeypatch.setattr(_shift_invert, "_lanczos", spy_lanczos)
    return events


def residual_bounds(values, product):
    """|beta_m s_{m,i}| next_norm / |theta_i| of each tested pair: bound
    (b) of the stop rule, the residual in H of its Ritz vector."""
    _, _, theta, S, beta_m, _ = values
    return np.abs(beta_m * S[-1]) * product[2] / np.abs(theta)


class TestStopRule:
    @staticmethod
    def block_and_shift(at):
        B = reflection_block()
        dense = np.linalg.eigvalsh(B.toarray())
        return B, dense, 0.9 * dense[0] if at == "shift" else 0.0

    @pytest.mark.parametrize("at", ["zero", "shift"])
    def test_residual_bound_is_the_residual(self, monkeypatch, at):
        # rule (b) reads the residual |B y - lambda y| of each Ritz vector
        # from the Lanczos relation; on the returned pairs it agrees with
        # the residual computed from the vectors, to rounding in B
        B, dense, shift = self.block_and_shift(at)
        events = spied_stop_rule(monkeypatch)
        vals, vecs = lowest_sparse_eigenpairs(B, 4, shift=shift)
        values = [e for e in events if e[0] == "values"][-1]
        product = [e for e in events if e[0] == "product"][-1]
        assert values[1] == product[1]
        levels = shift + 1.0 / values[2]
        bound = residual_bounds(values, product)[np.argsort(levels)]
        resid = np.linalg.norm(B @ vecs - vecs * vals, axis=0)
        assert np.all(bound <= 0.1 * RESIDUAL_TOL)
        assert np.max(np.abs(bound - resid)) <= 4 * np.finfo(float).eps * dense[-1]
        # the bound is not at the rounding floor everywhere, so it is tested
        assert np.max(resid) > 20 * np.finfo(float).eps * dense[-1]

    @pytest.mark.parametrize("at", ["zero", "shift"])
    def test_product_only_once_all_values_pass(self, monkeypatch, at):
        # each test step checks the values of all k pairs; the product with
        # B - shift runs at exactly the steps where every value passed, and
        # the Lanczos returns at the first of them whose residuals pass
        B, _, shift = self.block_and_shift(at)
        events = spied_stop_rule(monkeypatch)
        lowest_sparse_eigenpairs(B, 4, shift=shift)
        assert events[-1][0] == "return"
        values = [e for e in events if e[0] == "values"]
        assert all(len(e[2]) == 4 for e in values)
        assert [e[1] for e in values] == list(range(values[0][1], events[-1][1] + 1))
        passed = {e[1]: e for e in values if e[5]}
        products = [e for e in events if e[0] == "product"]
        assert [e[1] for e in products] == list(passed)
        within = [bool(np.all(residual_bounds(passed[e[1]], e) <= 0.1 * RESIDUAL_TOL))
                  for e in products]
        assert within == [False] * (len(within) - 1) + [True]
        assert products[-1][1] == events[-1][1]

    def test_vectors_meet_the_residual_tol(self):
        # the values converge with residuals above 1e-12; rule (b) keeps
        # the vectors within RESIDUAL_TOL
        B = reflection_block()
        vals, vecs = lowest_sparse_eigenpairs(B, 4)
        residual = np.max(np.linalg.norm(B @ vecs - vecs * vals, axis=0))
        assert 1e-12 < residual <= RESIDUAL_TOL


class TestShiftCertificate:
    def test_inertia_below_counts_the_levels_under_a_shift(self):
        # the solver's factor of B - shift is symmetric, and its negative
        # pivots count the levels below the shift (Sylvester inertia)
        B = reflection_block()
        dense = np.linalg.eigvalsh(B.toarray())
        for below in (0, 1, 3):
            shift = 0.5 * (dense[below - 1] + dense[below]) if below else 0.9 * dense[0]
            assert inertia_below(B, shift) == below


class TestFailures:
    def test_unconverged_levels_raise_with_estimates(self):
        # 2000 levels evenly spread over [1, 1.001], 5e-7 apart: the value
        # bound needs far more Lanczos steps than the basis cap allows to
        # set the lowest two apart from their neighbours (1000 such levels
        # converge within the cap)
        assert LANCZOS_MAX_STEPS < 2000
        d = np.linspace(1.0, 1.001, 2000)
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            lowest_sparse_eigenpairs(sp.diags(d).tocsr(), 2)
        estimates = err.value.estimates
        assert len(estimates) == 2 and estimates[0] < estimates[1]
        assert np.all(np.abs(np.array(estimates) - d[:2]) < 1e-4)

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (400, 101)],
                             ids=["0", "4", "101"])
    def test_count_outside_the_order_rejected(self, n, k, monkeypatch):
        # 101 of 400 levels: the stop rule would first be tested at step 202,
        # past the last of LANCZOS_MAX_STEPS, so the count is refused unsolved
        factored = []
        monkeypatch.setattr(_shift_invert, "splu", lambda *a, **kw: factored.append(a))
        H = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
        with pytest.raises(ValueError, match=f"order {n}"):
            lowest_sparse_eigenpairs(H, k)
        assert factored == []
