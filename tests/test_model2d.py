import dataclasses
import json
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from magwell._shift_invert import count_below, lowest_sparse_eigenpairs
from magwell.miniwell import EffectiveOperatorK, _hermite_axis, _oracle_matrix
from magwell.model2d import (
    Field2DConfig,
    ResolutionError,
    ShiftCertificateWarning,
    assemble_2d,
    lowest_eigenvalues_2d,
    reflection_blocks,
    run_sweep,
)
from magwell.sl_engine import ConvergenceError

from oracles import fiber_eigenvalues


def constant_profile_config(S=4.0, T=0.8, h=(0.02,), omega0=1.0):
    return Field2DConfig(
        k=1,
        omega=lambda s: omega0 * np.ones_like(np.asarray(s, dtype=float)),
        omega_min=omega0, s1=0.0, curvature_abs2=1.0,
        S=S, T=T, h_list=tuple(h))


def small_config(n_s=24, n_t=18, h=(0.5,), k=1):
    """Deliberately tiny grids for structural checks; a relaxed
    points-per-length factor keeps the resolution rule satisfied."""
    return Field2DConfig(
        k=k,
        omega=lambda s: 1.0 + 0.5 * np.sin(np.pi * np.asarray(s) / 2.0) ** 2,
        omega_min=1.0, s1=0.0, curvature_abs2=2.0 * 0.5 * 2 * np.pi**2 / 4.0,
        S=2.0, T=0.6, h_list=tuple(h), n_s=n_s, n_t=n_t,
        points_per_length=6)


class TestConfig:
    def test_default_profile_declarations(self):
        cfg = Field2DConfig.default(k=1, S=14.0, s1=4.2)
        s = np.linspace(0, 14.0, 2000, endpoint=False)
        w = cfg.omega(s)
        assert w.min() == pytest.approx(cfg.omega_min, abs=1e-6)
        assert s[np.argmin(w)] == pytest.approx(cfg.s1, abs=0.01)
        # declared curvature matches a finite difference of |omega|^2
        d = 1e-4
        w2 = lambda x: cfg.omega(np.array([x]))[0] ** 2
        fd = (w2(cfg.s1 + d) - 2 * w2(cfg.s1) + w2(cfg.s1 - d)) / d**2
        assert fd == pytest.approx(cfg.curvature_abs2, rel=1e-5)

    def test_h_list_must_descend(self):
        with pytest.raises(ValueError, match="descending"):
            Field2DConfig.default(k=1, h_list=(0.01, 0.02))

    def test_grid_budget_refusal_names_budget(self):
        cfg = Field2DConfig.default(k=1)
        with pytest.raises(ResolutionError, match=r"grid budget n_s <= 1024, n_t <= 512"):
            cfg.grid_for(1e-4)           # would be (1300, 691)
        # the default sweep (criterion 7 and the benchmark) fits the budget
        for h in cfg.h_list:
            n_s, n_t = cfg.grid_for(h)
            assert n_s <= 1024 and n_t <= 512

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 1, "omega_min": 2.0, "a": 0.5,
                                    "S": 10.0, "s1": 3.0, "T": 0.7,
                                    "h_list": [0.05, 0.02]}))
        for source in (str(path), path):
            cfg = Field2DConfig.from_json(source)
            assert cfg.omega_min == 2.0
            assert cfg.h_list == (0.05, 0.02)


class TestAssembly:
    def test_hermitian_bit_exact(self):
        cfg = small_config()
        op = assemble_2d(cfg, 0.5)
        H = op.hermitian
        assert (H != H.getH()).nnz == 0

    def test_zero_field_matches_separable_laplacian(self):
        cfg = dataclasses.replace(
            small_config(n_s=20, n_t=16),
            omega=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
        h = 0.5
        op = assemble_2d(cfg, h)
        # the 4th level is odd in t, so the odd block is solved and merged
        with pytest.warns(ShiftCertificateWarning, match="odd block"):
            vals = lowest_eigenvalues_2d(op, 6, tol=1e-8)
        n_s, n_t = cfg.grid_for(h)
        dt = 2 * cfg.T / (n_t - 1)
        ds = cfg.S / n_s
        # closed-form: Dirichlet chain + periodic ring eigenvalues
        e_t = (2 / dt**2) * (1 - np.cos(np.pi * np.arange(1, n_t - 1)
                                        / (n_t - 1)))
        e_s = (2 / ds**2) * (1 - np.cos(2 * np.pi * np.arange(n_s) / n_s))
        combo = np.sort((h**2 * (e_t[:, None] + e_s[None, :])).ravel())
        assert np.allclose(vals, combo[:6], atol=1e-8)

    def test_resolution_refusal_reports_requirement(self):
        cfg = small_config(n_s=24, n_t=18, h=(1e-4,))
        with pytest.raises(ResolutionError, match="needs n_s >="):
            assemble_2d(cfg, 1e-4)

    def test_link_wrap_refusal(self):
        # a very tall domain wraps the link phase inside |t| <= T while the
        # plain points-per-length rule is still satisfied
        cfg = Field2DConfig(
            k=1,
            omega=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            omega_min=1.0, s1=0.0, curvature_abs2=1.0,
            S=2.0, T=3.3, h_list=(0.02,))
        with pytest.raises(ResolutionError, match="link-phase wrap"):
            assemble_2d(cfg, 0.02)


class TestEigenvalues:
    def test_small_grid_matches_dense(self):
        cfg = small_config(n_s=22, n_t=14)
        op = assemble_2d(cfg, 0.5)
        with pytest.warns(ShiftCertificateWarning, match="odd block"):
            vals = lowest_eigenvalues_2d(op, 5, tol=1e-9)
        dense = np.linalg.eigvalsh(op.hermitian.toarray())
        assert np.allclose(vals, dense[:5], atol=1e-9)

    def test_residual_contract(self):
        # pairs that meet the default tol are returned; a tol below any
        # reachable residual makes the same solve raise
        op = assemble_2d(small_config(), 0.5)
        assert len(lowest_eigenvalues_2d(op, 3)) == 3
        with pytest.raises(ConvergenceError, match="residual"):
            lowest_eigenvalues_2d(op, 3, tol=1e-300)


def mirror_permutation(op):
    """Unknown index of the mirror image t -> -t of each unknown."""
    nt = op.n_t - 2
    i = np.arange(nt)[:, None]
    j = np.arange(op.n_s)[None, :]
    return ((nt - 1 - i) * op.n_s + j).ravel()


class TestReflectionBlocks:
    @pytest.mark.parametrize("n_t", [17, 18])      # odd, even interior count
    def test_block_spectra_union_is_full_spectrum(self, n_t):
        op = assemble_2d(small_config(n_s=14, n_t=n_t), 0.5)
        H = op.hermitian
        names, blocks = [], []
        for name, Q in reflection_blocks(op):
            B = (Q.T @ H @ Q).tocsr()
            assert (B != B.getH()).nnz == 0
            names.append(name)
            blocks.append(np.linalg.eigvalsh(B.toarray()))
        assert names == ["even", "odd"]
        assert sum(len(b) for b in blocks) == H.shape[0]
        dense = np.linalg.eigvalsh(H.toarray())
        union = np.sort(np.concatenate(blocks))
        assert np.max(np.abs(union - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_blocks_too_small_solve_whole_operator(self):
        # 126 unknowns split 70 + 56: 100 levels need the whole operator
        op = assemble_2d(small_config(n_s=14, n_t=11), 0.5)
        dense = np.linalg.eigvalsh(op.hermitian.toarray())
        vals = lowest_eigenvalues_2d(op, 100)
        assert np.max(np.abs(vals - dense[:100])) <= 1e-12 * dense[-1]

    def test_reflection_symmetry_odd_k_only(self):
        # A_s = t^{k+1} omega/(k+1) is even in t for k=1 and odd for k=2
        for k, symmetric in ((1, True), (2, False)):
            op = assemble_2d(small_config(k=k), 0.5)
            H = op.hermitian
            p = mirror_permutation(op)
            assert ((H[p][:, p] != H).nnz == 0) is symmetric
            blocks = reflection_blocks(op)
            assert [name for name, _ in blocks] == (
                ["even", "odd"] if symmetric else ["full"])

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_default_grid_splits_odd_k(self, k):
        # t^{k+1} is taken of t*t, so A_s is even in t bit for bit
        cfg = Field2DConfig.default(k=k)
        op = assemble_2d(cfg, cfg.h_list[0])
        assert [name for name, _ in reflection_blocks(op)] == ["even", "odd"]

    @staticmethod
    def asymptotic_operator():
        # 9,996 unknowns at h=0.1, where the 4 lowest levels are all even
        cfg = Field2DConfig.default(k=1, S=5.0, s1=1.5, T=0.8, h_list=(0.1,))
        return assemble_2d(cfg, 0.1)

    def test_certified_shift_matches_shift_zero(self):
        op = self.asymptotic_operator()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShiftCertificateWarning)
            ref = lowest_eigenvalues_2d(op, 4)
            vals = lowest_eigenvalues_2d(op, 4, shift=0.97 * ref[0])
        assert np.allclose(vals, ref, rtol=1e-12, atol=0)

    def test_shift_above_ground_state_falls_back(self):
        op = self.asymptotic_operator()
        ref = lowest_eigenvalues_2d(op, 4)
        with pytest.warns(ShiftCertificateWarning,
                          match=r"h=0.1, even block: .*\(1 negative pivots\)"):
            vals = lowest_eigenvalues_2d(op, 4, shift=0.5 * (ref[0] + ref[1]))
        assert np.allclose(vals, ref, rtol=1e-12, atol=0)

    def test_count_below_matches_dense(self):
        op = assemble_2d(small_config(k=2), 0.5)
        dense = np.linalg.eigvalsh(op.hermitian.toarray())
        for x in (0.5 * dense[0], 0.5 * (dense[2] + dense[3]), dense[40] + 1e-6):
            assert count_below(op.hermitian, x) == np.count_nonzero(dense < x)


class TestShiftInvertRoute:
    """The factor-once route against scipy's own sigma=0 shift-invert, which
    factors with its default COLAMD ordering."""

    @staticmethod
    def scipy_lowest(H, k):
        v0 = np.full(H.shape[0], H.shape[0] ** -0.5)
        return np.sort(eigsh(H, k=k, sigma=0, which="LM", v0=v0,
                             return_eigenvectors=False))

    def test_complex_hermitian_2d_operator(self):
        cfg = Field2DConfig.default(k=1, S=5.0, s1=1.5, T=0.8, h_list=(0.1,))
        op = assemble_2d(cfg, 0.1)
        assert 8_000 < op.shape[0] < 12_000
        vals = lowest_eigenvalues_2d(op, 4)
        ref = self.scipy_lowest(op.hermitian, 6)[:4]
        assert np.max(np.abs(vals - ref) / ref) < 1e-10

    def test_real_symmetric_oracle_matrix(self):
        # a tensor Hermite basis of the K oracle, 64^2 unknowns
        kop = EffectiveOperatorK(c_omega=0.4, e_omega=np.array([0.6, 0.8]),
                                 Omega=np.array([[1.5, 0.2], [0.2, 0.8]]),
                                 A_const=0j, alpha_min=0.35, k=1)
        scales = (np.diag(kop.kinetic_matrix()) / np.diag(kop.Omega)) ** 0.25
        H = _oracle_matrix(kop, [_hermite_axis(s, 64) for s in scales])
        assert H.dtype == np.float64
        vals = lowest_sparse_eigenpairs(H, 5)
        ref = self.scipy_lowest(H.tocsc(), 5)
        assert np.max(np.abs(vals - ref) / ref) < 1e-10


class TestFiberOracle:
    def test_constant_profile_fiber_union(self):
        cfg = constant_profile_config()
        h = 0.02
        op = assemble_2d(cfg, h)
        vals2d = lowest_eigenvalues_2d(op, 5)
        n_s, _ = cfg.grid_for(h)
        fib = np.sort(np.concatenate(
            [fiber_eigenvalues(cfg, h, m, 2) for m in range(n_s)]))[:5]
        assert np.max(np.abs(vals2d - fib)) < 1e-7


class TestGaugeInvariance:
    def test_phase_conjugation(self):
        # adding the gradient of the periodic phi(s) = 0.3 sin(2 pi s/S) to
        # the link phases is an exact unitary conjugation (it adds no flux);
        # eigenvalues must not move
        cfg = constant_profile_config(S=3.0, h=(0.05,))
        h = 0.05
        op = assemble_2d(cfg, h)
        vals = lowest_eigenvalues_2d(op, 4)

        n_s, _ = cfg.grid_for(h)
        ds = cfg.S / n_s
        s_mid = (np.arange(n_s) + 0.5) * ds
        dphi_mid = 0.3 * (2 * np.pi / cfg.S) * np.cos(2 * np.pi * s_mid / cfg.S)

        # shift every link phase theta -> theta + ds*dphi/h: the forward
        # s-link (i, j) -> (i, j+1) gains exp(-i ds dphi_j/h), its mirror
        # the conjugate; node (i, j) is row i*n_s + j
        H2 = op.hermitian.tocoo()
        rows, cols = H2.row, H2.col
        j_row, j_col = rows % n_s, cols % n_s
        same_t = rows // n_s == cols // n_s
        forward = same_t & (j_col == (j_row + 1) % n_s)
        backward = same_t & (j_row == (j_col + 1) % n_s)
        data = H2.data.copy()
        data[forward] *= np.exp(-1j * ds * dphi_mid[j_row[forward]] / h)
        data[backward] *= np.exp(1j * ds * dphi_mid[j_col[backward]] / h)
        H2 = sp.csr_matrix((data, (rows, cols)), shape=H2.shape)
        assert (H2 != H2.getH()).nnz == 0
        vals2 = lowest_eigenvalues_2d(dataclasses.replace(op, hermitian=H2), 4)
        assert np.max(np.abs(vals - vals2)) < 1e-9


class TestSweepSmoke:
    def test_quick_sweep_report(self):
        # large-h fast sweep exercising the report plumbing end to end
        cfg = Field2DConfig.default(k=1, S=8.0, s1=2.4, T=0.8,
                                    h_list=tuple(np.geomspace(0.2, 0.02, 5)))
        with pytest.warns(UserWarning, match="asymptotic window"):
            rep = run_sweep(cfg, m_count=3)
        assert rep.eigenvalues.shape == (5, 3)
        assert np.all(np.diff(rep.eigenvalues, axis=1) > 0)
        assert np.all(rep.eigenvalues > 0)
        assert len(rep.splitting_coefficients) == 2

    def test_failed_certificates_recorded(self):
        # on a short cylinder at large h, levels odd in t are among the
        # lowest four: the odd-block certificate fails, warns, and is recorded
        cfg = Field2DConfig.default(k=1, S=3.0, s1=0.9, T=0.8,
                                    h_list=tuple(np.geomspace(0.5, 0.05, 4)))
        with pytest.warns(UserWarning, match="asymptotic window"), \
                pytest.warns(ShiftCertificateWarning, match="odd block"):
            rep = run_sweep(cfg, m_count=4)
        certs = [w for w in rep.warnings_issued if "block" in w]
        assert certs[0].startswith("h=0.5, odd block: 2 negative pivots")
        assert np.all(np.diff(rep.eigenvalues, axis=1) > 0)

    def test_budget_skips_recorded(self):
        # pinned 48x48 grid satisfies the rule at large h only; the sweep
        # must skip (and record) the h values that outgrow it
        cfg = Field2DConfig.default(
            k=1, S=2.0, s1=0.6, T=0.8,
            h_list=tuple(np.geomspace(0.2, 0.004, 6)),
            points_per_length=6, n_s=48, n_t=48)
        with pytest.warns(UserWarning):
            rep = run_sweep(cfg, m_count=2)
        assert len(rep.skipped_h) >= 1
        assert len(rep.h_values) + len(rep.skipped_h) == 6


class TestGridConvergence:
    def test_halving_stays_within_tolerance(self):
        # refining the grid moves the low eigenvalues by less than the
        # advertised accuracy scale
        h = 0.05
        base = Field2DConfig.default(k=1, S=8.0, s1=2.4, T=0.8, h_list=(h,))
        n_s0, n_t0 = base.required_grid(h)
        fine = Field2DConfig.default(k=1, S=8.0, s1=2.4, T=0.8, h_list=(h,),
                                     n_s=2 * n_s0, n_t=2 * n_t0)
        v0 = lowest_eigenvalues_2d(assemble_2d(base, h), 2)
        v1 = lowest_eigenvalues_2d(assemble_2d(fine, h), 2)
        scale = v0[0]
        assert np.max(np.abs(v0 - v1)) < 5e-3 * scale
