import dataclasses
import gc
import json
import multiprocessing
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from magwell import _shift_invert, model2d
from magwell._workers import sweep_workers
from magwell._shift_invert import RESIDUAL_TOL, lowest_sparse_eigenpairs
from magwell.asymptotics import leading_exponent
from magwell.miniwell import EffectiveOperatorK, _hermite_axis, _oracle_matrix
from magwell.model2d import (
    Field2DConfig,
    ResolutionError,
    ShiftCertificateWarning,
    assemble_2d,
    lowest_eigenvalues_2d,
    reflection_block,
    run_sweep,
)
from magwell.montgomery import minimizer_state
from magwell.sl_engine import AssemblyError, ConvergenceError

from conftest import set_blas_threads
from oracles import cut_lower_bound, fiber_eigenvalues, inertia_below, reflection_blocks


def constant_profile_config(S=4.0, T=0.8, h=(0.02,), omega0=1.0, k=1):
    return Field2DConfig(
        k=k,
        omega=lambda s: omega0 * np.ones_like(np.asarray(s, dtype=float)),
        omega_min=omega0, curvature_abs2=1.0,
        S=S, T=T, h_list=tuple(h))


def small_config(points_per_length=11, k=1):
    """Deliberately tiny grids for structural checks at h=0.5, set by a
    small points-per-length factor: 11 gives (n_s, n_t) = (25, 18) at k=1."""
    return Field2DConfig(
        k=k,
        omega=lambda s: 1.0 + 0.5 * np.sin(np.pi * np.asarray(s) / 2.0) ** 2,
        omega_min=1.0, curvature_abs2=2.0 * 0.5 * 2 * np.pi**2 / 4.0,
        S=2.0, T=0.6, h_list=(0.5,), points_per_length=points_per_length)


def band_matrix(band):
    """The sparse Hermitian matrix whose LAPACK upper band storage is `band`."""
    m = band.shape[0] - 1
    upper = sp.diags([band[m - k, k:] for k in range(m + 1)], range(m + 1), format="csr")
    return (upper + sp.triu(upper, 1).getH()).tocsr()


def lowest_level(H):
    """The lowest level of the sparse Hermitian H: dense up to 2,000
    unknowns, else by the shift-invert Lanczos at 0."""
    if H.shape[0] <= 2000:
        return np.linalg.eigvalsh(H.toarray())[0]
    return lowest_sparse_eigenpairs(H, 1)[0][0]


def bound_bottom(op, H):
    """The lowest level of the lower bound H_cut of the shift certificate of
    the block H (`model2d._bound_bands`): the least over its t-bands."""
    return min(lowest_level(band_matrix(band)) for band in model2d._bound_bands(op, H, 0.0))


class TestConfig:
    def test_default_profile_declarations(self):
        s1 = 4.2
        cfg = Field2DConfig.default(k=1, S=14.0, s1=s1)
        s = np.linspace(0, 14.0, 2000, endpoint=False)
        w = cfg.omega(s)
        assert w.min() == pytest.approx(cfg.omega_min, abs=1e-6)
        assert s[np.argmin(w)] == pytest.approx(s1, abs=0.01)
        # declared curvature matches a finite difference of |omega|^2
        d = 1e-4
        w2 = lambda x: cfg.omega(np.array([x]))[0] ** 2
        fd = (w2(s1 + d) - 2 * w2(s1) + w2(s1 - d)) / d**2
        assert fd == pytest.approx(cfg.curvature_abs2, rel=1e-5)

    def test_h_list_must_descend(self):
        with pytest.raises(ValueError, match="descending"):
            Field2DConfig.default(k=1, h_list=(0.01, 0.02))

    def test_default_sweep_grids(self):
        # the points-per-length grids of the default sweep (criterion 7);
        # every other h, from the first, is the sweep2d benchmark
        cfg = Field2DConfig.default(k=1)
        assert [cfg.grid_for(h) for h in cfg.h_list] == [
            (538, 119), (573, 135), (611, 154), (652, 175), (695, 198),
            (740, 225), (789, 255)]

    def test_grid_budget_refusal_names_budget(self):
        cfg = Field2DConfig.default(k=1)
        with pytest.raises(ResolutionError, match=r"grid budget n_s <= 1024, n_t <= 512"):
            cfg.grid_for(1e-4)           # would be (1300, 691)
        # the default sweep (criterion 7 and the benchmark) fits the budget
        for h in cfg.h_list:
            n_s, n_t = cfg.grid_for(h)
            assert n_s <= 1024 and n_t <= 512

    def test_grid_without_interior_t_row_refused(self):
        # at h = 1e5 one magnetic length across t is wider than the strip
        # [-T, T] at 20 points per length: the grid keeps only its two
        # Dirichlet rows, and the refusal names the h and the grid
        cfg = Field2DConfig.default(k=1)
        with pytest.raises(ResolutionError,
                           match=r"h=100000: grid \(42, 2\) has no interior t row"):
            cfg.grid_for(1e5)
        assert cfg.grid_for(1e4)[1] >= 3

    def test_underflowing_magnetic_length_is_an_infinite_grid(self):
        # h / omega_min underflows to 0, and so does the magnetic length
        # across t: the count is infinite and refused with the budget
        cfg = Field2DConfig.default(k=1, omega_min=1e150, h_list=(1e-175,))
        assert cfg.magnetic_length_t(1e-175) == 0.0
        with pytest.raises(ResolutionError, match=r"h=1e-175: grid \(\d+, inf\) "
                           r"exceeds the grid budget"):
            cfg.grid_for(1e-175)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 1, "omega_min": 2.0, "a": 0.5,
                                    "S": 10.0, "s1": 3.0, "T": 0.7,
                                    "h_list": [0.05, 0.02]}))
        for source in (str(path), path):
            cfg = Field2DConfig.from_json(source)
            assert cfg.omega_min == 2.0
            assert cfg.h_list == (0.05, 0.02)

    @pytest.mark.parametrize("key,value", [("k", 1.7), ("k", True),
                                           ("points_per_length", 12.9),
                                           ("points_per_length", False)])
    def test_json_rejects_non_integral_counts(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            Field2DConfig.from_json({key: value})

    @pytest.mark.parametrize("doc", [{"omega_min": float("nan")},
                                     {"h_list": [0.05, float("inf"), 0.01]},
                                     {"T": np.float64("-inf")}])
    def test_json_mapping_with_non_finite_number_rejected(self, doc):
        # the refusal names the key and shows its value
        key, = doc
        with pytest.raises(ValueError, match=rf"^{key} must be a (list of )?finite "
                                             rf"numbers?, got .*(inf|nan)"):
            Field2DConfig.from_json(doc)

    @pytest.mark.parametrize("kw,message", [
        ({"S": 0.0}, "S must be a finite number > 0"),
        ({"T": -0.8}, "T must be a finite number > 0"),
        ({"T": float("inf")}, "T must be a finite number > 0"),
        ({"s1": float("nan")}, "s1 must be a finite number"),
        ({"omega_min": float("nan")}, "omega_min must be a finite number > 0"),
        ({"a": 0.0}, "a must be a finite number > 0"),
        ({"h_list": (0.05, float("nan"))}, "h must be a finite number > 0"),
        # S divides squared, and 1e-300 squared underflows to 0
        ({"S": 1e-300}, "S must be at least 1.49167e-154, as it divides squared"),
        # pi (s - s1) overflows, so the profile is NaN at every sample
        ({"s1": 1e308}, "omega must be finite and >= 0 at every grid sample, got nan"),
    ])
    def test_out_of_range_values_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            Field2DConfig.default(k=1, **kw)

    def test_negative_profile_sample_rejected(self):
        # a zero field is allowed (see TestAssembly); a negative one is not
        with pytest.raises(ValueError, match="omega must be finite and >= 0 .* got -"):
            Field2DConfig(k=1, omega=np.cos, omega_min=1.0, curvature_abs2=1.0,
                          S=8.0, T=0.8, h_list=(0.5,))

    def test_json_absent_keys_take_the_defaults(self):
        got = Field2DConfig.from_json({"k": 2.0})
        want = Field2DConfig.default(k=2)
        assert got.k == 2 and isinstance(got.k, int)
        for f in dataclasses.fields(Field2DConfig):
            if f.name != "omega":
                assert getattr(got, f.name) == getattr(want, f.name), f.name


class TestAssembly:
    def test_nonfinite_link_phase_refused(self):
        # a profile that is finite at every sample whose link phase
        # ds A_s omega / h still overflows
        cfg = Field2DConfig(k=1, omega=lambda s: np.full(np.shape(s), 1e308),
                            omega_min=1.0, curvature_abs2=1.0, S=8.0, T=3.0,
                            h_list=(0.05,))
        with pytest.raises(AssemblyError, match="h=0.05: link phase non-finite"):
            assemble_2d(cfg, 0.05)

    def test_hermitian_bit_exact(self):
        cfg = small_config()
        op = assemble_2d(cfg, 0.5)
        H = op.hermitian
        assert (H != H.getH()).nnz == 0

    def test_zero_field_matches_separable_laplacian(self):
        cfg = dataclasses.replace(
            small_config(points_per_length=9),
            omega=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
        h = 0.5
        op = assemble_2d(cfg, h)
        # the 4th level is odd in t, so the odd block is solved and merged
        with pytest.warns(ShiftCertificateWarning, match="odd block"):
            vals = lowest_eigenvalues_2d(op, 6)
        n_s, n_t = cfg.grid_for(h)
        dt = 2 * cfg.T / (n_t - 1)
        ds = cfg.S / n_s
        # closed-form: Dirichlet chain + periodic ring eigenvalues
        e_t = (2 / dt**2) * (1 - np.cos(np.pi * np.arange(1, n_t - 1)
                                        / (n_t - 1)))
        e_s = (2 / ds**2) * (1 - np.cos(2 * np.pi * np.arange(n_s) / n_s))
        combo = np.sort((h**2 * (e_t[:, None] + e_s[None, :])).ravel())
        assert np.allclose(vals, combo[:6], atol=1e-8)

    def test_link_wrap_refusal(self):
        # a very tall domain wraps the link phase inside |t| <= T while the
        # plain points-per-length rule is still satisfied
        cfg = Field2DConfig(
            k=1,
            omega=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            omega_min=1.0, curvature_abs2=1.0,
            S=2.0, T=3.3, h_list=(0.02,))
        with pytest.raises(ResolutionError, match="link-phase wrap"):
            assemble_2d(cfg, 0.02)


class TestEigenvalues:
    def test_small_grid_matches_dense(self):
        cfg = small_config(points_per_length=8)
        op = assemble_2d(cfg, 0.5)
        with pytest.warns(ShiftCertificateWarning, match="odd block"):
            vals = lowest_eigenvalues_2d(op, 5)
        dense = np.linalg.eigvalsh(op.hermitian.toarray())
        assert np.allclose(vals, dense[:5], atol=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 17: at shift 0 the Lanczos misses levels of an even-k "
        "operator whose symmetry s -> 2 s1 - s, t -> -t it does not split off"))
    def test_even_k_default_profile_at_shift_zero(self):
        # k=2, N = 9,240: the inertia of H - lambda_3 (1 + 1e-9) counts the
        # levels at or below the returned lambda_3, which should be four
        cfg = Field2DConfig.default(k=2, S=8.0, s1=2.4, points_per_length=12)
        op = assemble_2d(cfg, 0.01363)
        assert op.hermitian.shape[0] == 9240
        vals = lowest_eigenvalues_2d(op, 4)
        assert inertia_below(op.hermitian, vals[-1] * (1 + 1e-9)) == 4

    def test_residual_contract(self, monkeypatch):
        # pairs that meet RESIDUAL_TOL are returned; the same solve raises
        # once its Lanczos vectors are perturbed past it
        op = assemble_2d(small_config(), 0.5)
        assert len(lowest_eigenvalues_2d(op, 3)) == 3

        def perturbed(H, count, shift=0.0):
            vals, vecs = lowest_sparse_eigenpairs(H, count, shift=shift)
            return vals, vecs + 1e-6

        monkeypatch.setattr(model2d, "lowest_sparse_eigenpairs", perturbed)
        with pytest.raises(ConvergenceError, match=r"^h=0.5, even block: eigenpair 0 "
                                                   r"residual .* exceeds 1e-09$"):
            lowest_eigenvalues_2d(op, 3)


def mirror_permutation(op):
    """Unknown index of the mirror image t -> -t of each unknown."""
    nt = op.n_t - 2
    i = np.arange(nt)[:, None]
    j = np.arange(op.n_s)[None, :]
    return ((nt - 1 - i) * op.n_s + j).ravel()


class TestReflectionBlocks:
    @pytest.mark.parametrize("points_per_length, n_t", [(10, 17), (11, 18)],
                             ids=["17", "18"])     # odd, even interior count
    def test_block_spectra_union_is_full_spectrum(self, points_per_length, n_t):
        op = assemble_2d(small_config(points_per_length), 0.5)
        assert op.n_t == n_t
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
        op = assemble_2d(small_config(points_per_length=6), 0.5)
        assert (op.n_s, op.n_t) == (14, 11)
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
            assert model2d._mirror_symmetric(op) is symmetric
            blocks = reflection_blocks(op)
            assert [name for name, _ in blocks] == (
                ["even", "odd"] if symmetric else ["full"])

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_default_grid_splits_odd_k(self, k):
        # t^{k+1} is taken of t*t, so A_s is even in t bit for bit
        cfg = Field2DConfig.default(k=k)
        op = assemble_2d(cfg, cfg.h_list[0])
        assert [name for name, _ in reflection_blocks(op)] == ["even", "odd"]
        assert model2d._mirror_symmetric(op)

    def test_odd_k_beyond_one_matches_dense(self):
        # k=3: 741 unknowns, 342 of them in the odd block; the levels are
        # the even block's, and the bound certifies the shift and the odd
        # block without a warning
        cfg = Field2DConfig.default(k=3, S=8.0, s1=2.4, h_list=(0.2,),
                                    points_per_length=6)
        op = assemble_2d(cfg, 0.2)
        assert [name for name, _ in reflection_blocks(op)] == ["even", "odd"]
        dense = np.linalg.eigvalsh(op.hermitian.toarray())
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShiftCertificateWarning)
            vals = lowest_eigenvalues_2d(op, 4)
            shifted = lowest_eigenvalues_2d(op, 4, shift=0.97 * dense[0])
        assert np.max(np.abs(vals - dense[:4]) / dense[:4]) < 1e-11
        assert np.max(np.abs(shifted - dense[:4]) / dense[:4]) < 1e-11
        odd = reflection_block(op, -1)
        assert odd.shape[0] == 342
        assert bound_bottom(op, odd) > vals[-1]
        assert model2d._bound_clears(op, odd, vals[-1])

    @staticmethod
    def asymptotic_operator():
        # 9,996 unknowns at h=0.1, where the 4 lowest levels are all even
        cfg = Field2DConfig.default(k=1, S=5.0, s1=1.5, T=0.8, h_list=(0.1,))
        return assemble_2d(cfg, 0.1)

    @staticmethod
    def forecast_shift(h):
        # run_sweep's shift at k=1, omega_min = 1: 0.97 nu_hat h^{4/3}
        return 0.97 * minimizer_state(1).report.nu_hat * h ** float(leading_exponent(1))

    def test_certified_shift_matches_shift_zero(self):
        op = self.asymptotic_operator()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShiftCertificateWarning)
            ref = lowest_eigenvalues_2d(op, 4)
            vals = lowest_eigenvalues_2d(op, 4, shift=self.forecast_shift(0.1))
        assert np.allclose(vals, ref, rtol=1e-12, atol=0)

    def test_shift_just_below_the_ground_state_falls_back(self):
        # the bound lies below 0.97 lambda_0 on this grid, though above the
        # forecast shift: a conservative certificate, which warns and
        # solves at 0
        op = self.asymptotic_operator()
        ref = lowest_eigenvalues_2d(op, 4)
        assert self.forecast_shift(0.1) < bound_bottom(op, reflection_block(op, 1)) \
            < 0.97 * ref[0]
        with pytest.warns(ShiftCertificateWarning,
                          match=r"^h=0.1, even block: shift .* not certified below "
                                r"the spectrum; solved at 0$"):
            vals = lowest_eigenvalues_2d(op, 4, shift=0.97 * ref[0])
        assert np.array_equal(vals, ref)

    def test_shift_above_ground_state_falls_back(self):
        op = self.asymptotic_operator()
        ref = lowest_eigenvalues_2d(op, 4)
        shift = 0.5 * (ref[0] + ref[1])
        with pytest.warns(ShiftCertificateWarning,
                          match=rf"^h=0.1, even block: shift {shift:.6e} not certified "
                                r"below the spectrum; solved at 0$"):
            vals = lowest_eigenvalues_2d(op, 4, shift=shift)
        assert np.array_equal(vals, ref)

    def test_rejected_shift_factors_each_block_once(self, monkeypatch):
        # the bound rejects the shift before any factor: the even block is
        # factored once, at 0, and the odd block is certified unfactored
        op = self.asymptotic_operator()
        ref = lowest_eigenvalues_2d(op, 4)
        factored = []
        factor = _shift_invert._factor

        def spy(H, shift):
            factored.append((H.shape[0], shift))
            return factor(H, shift)

        monkeypatch.setattr(_shift_invert, "_factor", spy)
        with pytest.warns(ShiftCertificateWarning):
            lowest_eigenvalues_2d(op, 4, shift=0.5 * (ref[0] + ref[1]))
        assert factored == [(reflection_block(op, 1).shape[0], 0.0)]

    def test_inconclusive_bound_solves_the_odd_block(self, monkeypatch):
        # with the bound made inconclusive, the odd block is solved; none of
        # its levels enters the lowest four, no warning is emitted, and the
        # levels are the even block's
        op = self.asymptotic_operator()
        even = reflection_block(op, 1)
        odd = reflection_block(op, -1)
        solved = []

        def spy(H, count, shift=0.0):
            pairs = lowest_sparse_eigenpairs(H, count, shift=shift)
            solved.append(pairs[0])
            return pairs

        monkeypatch.setattr(model2d, "lowest_sparse_eigenpairs", spy)
        monkeypatch.setattr(model2d, "_bound_clears", lambda operator, H, x: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShiftCertificateWarning)
            vals = lowest_eigenvalues_2d(op, 4)
        assert len(solved) == 2 and solved[1][0] > vals[-1]
        # the bound lowest_eigenvalues_2d uses settles it unsolved
        monkeypatch.undo()
        assert model2d._bound_clears(op, odd, vals[-1])
        assert np.array_equal(vals, lowest_sparse_eigenpairs(even, 4)[0])

    def test_odd_pairs_checked_when_the_odd_block_is_solved(self, monkeypatch):
        # an inconclusive bound makes the odd block be solved; none of its
        # levels enters the lowest four, yet its pairs are checked on that
        # block
        op = self.asymptotic_operator()
        solved = []

        def perturbed(H, count, shift=0.0):
            vals, vecs = lowest_sparse_eigenpairs(H, count, shift=shift)
            solved.append(H.shape[0])
            return vals, vecs + 1e-6 if len(solved) == 2 else vecs

        monkeypatch.setattr(model2d, "lowest_sparse_eigenpairs", perturbed)
        monkeypatch.setattr(model2d, "_bound_clears", lambda operator, H, x: False)
        with pytest.raises(ConvergenceError, match=r"^h=0.1, odd block: eigenpair 0 "
                                                   r"residual .* exceeds 1e-09$"):
            lowest_eigenvalues_2d(op, 4)
        assert len(solved) == 2

    def test_bands_are_magnetic_lengths(self):
        # at h = 0.002 on the default grid, l_t = h^{1/3} spans about 20
        # rows: the inner band holds the rows with |t| < 3 l_t, and each
        # band outside it one magnetic length
        cfg = Field2DConfig.default(k=1)
        h = 0.002
        op = assemble_2d(cfg, h)
        rows = (op.n_t - 2) // 2 + 1
        edges, j_star = model2d._bound_cuts(op, rows)
        assert edges[0] == 0 and edges[-1] == rows
        heights = np.diff(edges)
        dt = 2 * cfg.T / (op.n_t - 1)
        l_t = cfg.magnetic_length_t(h)
        assert abs(heights[-1] * dt - 3 * l_t) <= dt
        assert np.all(np.abs(heights[1:-1] * dt - l_t) <= dt)
        assert heights[0] * dt <= l_t + dt
        # the ring opens where the field is strongest, s1 + S/2
        s = cfg.s_midpoints(op.n_s)[j_star]
        assert abs(s - (4.2 + 7.0)) <= cfg.S / op.n_s


def blocks(op):
    """(name, block) of each nonempty block that lowest_eigenvalues_2d
    solves or certifies: even and odd when the operator is mirror-symmetric,
    else the full one."""
    if not model2d._mirror_symmetric(op):
        return [("full", op.hermitian)]
    pairs = [("even", reflection_block(op, 1)), ("odd", reflection_block(op, -1))]
    return [(name, H) for name, H in pairs if H.shape[0]]


def oracle_bands(op, H):
    """The bands of `model2d._bound_bands(op, H, 0)`, built instead by the
    oracles' `cut_lower_bound` from the same cut set (the t hops between the
    bands of `_bound_cuts` and, on rings of three or more columns, the link
    after column j_star), in the same order, in upper band storage."""
    n_s = op.n_s
    rows = H.shape[0] // n_s
    edges, j_star = model2d._bound_cuts(op, rows)
    C = H.tocoo()
    band_of = np.repeat(np.searchsorted(edges, np.arange(rows), side="right"), n_s)
    after = (j_star + 1) % n_s
    ring = (n_s > 2) & (C.row // n_s == C.col // n_s) & (
        ((C.row % n_s == j_star) & (C.col % n_s == after))
        | ((C.col % n_s == j_star) & (C.row % n_s == after)))
    bound = cut_lower_bound(H, (band_of[C.row] != band_of[C.col]) | ring)
    order = (j_star + 1 + np.arange(n_s)) % n_s
    for a, b in zip(edges[:-1], edges[1:]):
        m = b - a
        index = (np.arange(a, b)[None, :] * n_s + order[:, None]).ravel()
        upper = sp.triu(bound[index][:, index], format="coo")
        assert np.all(upper.col - upper.row <= m)
        band = np.zeros((m + 1, index.size), dtype=H.dtype)
        band[m + upper.row - upper.col, upper.col] = upper.data
        yield band


def bound_grids():
    """The grids on which the lower bound of the shift certificate is
    checked: the (25, 18) grid at k=1 (even and odd blocks) and at k=2 (the
    full block), the h = 0.1 asymptotic operator, and the nine smallest
    grids that grid_for accepts, with n_s of 1 to 3 and n_t of 3 to 5."""
    yield pytest.param(small_config(), 0.5, id="small-k1")
    yield pytest.param(small_config(k=2), 0.5, id="small-k2")
    yield pytest.param(Field2DConfig.default(k=1, S=5.0, s1=1.5, T=0.8, h_list=(0.1,)),
                       0.1, id="asymptotic-h0.1")
    for S, n_s in ((0.5, 1), (1.5, 2), (2.5, 3)):
        for T, n_t in ((0.5, 3), (0.9, 4), (1.3, 5)):
            cfg = Field2DConfig.default(k=1, S=S, s1=0.1, T=T, h_list=(0.5,),
                                        points_per_length=1)
            yield pytest.param(cfg, 0.5, id=f"grid-{n_s}x{n_t}")


class TestBoundCertificate:
    """The lower bound H_cut <= H by which `model2d._bound_clears` certifies
    that a block has no level at or below a point."""

    @pytest.mark.parametrize("config, h", bound_grids())
    def test_bound_is_below_and_decides_the_cholesky(self, config, h):
        op = assemble_2d(config, h)
        for name, H in blocks(op):
            bottom = bound_bottom(op, H)
            norm = abs(H).sum(axis=1).max()
            assert 0 < bottom <= lowest_level(H) + 1e-12 * norm, name
            assert model2d._bound_clears(op, H, bottom * (1 - 1e-6)), name
            assert not model2d._bound_clears(op, H, bottom * (1 + 1e-6)), name

    @pytest.mark.parametrize("config, h", bound_grids())
    def test_bands_are_the_oracle_cut(self, config, h):
        # the off-diagonal entries are copied, so they agree bit for bit;
        # the diagonal loses up to three moduli, summed in another order
        op = assemble_2d(config, h)
        for name, H in blocks(op):
            got = list(model2d._bound_bands(op, H, 0.0))
            want = list(oracle_bands(op, H))
            assert len(got) == len(want), name
            for g, w in zip(got, want):
                assert g.flags.f_contiguous and g.shape == w.shape, name
                assert np.array_equal(g[:-1], w[:-1]), name
                assert np.allclose(g[-1], w[-1], rtol=4 * np.finfo(float).eps, atol=0), name

    def test_every_band_is_checked(self):
        # an even block of 22 rows in two t-bands; the diagonal of one band
        # at a time is lowered past the Gershgorin bound of the block, so
        # that band alone has a bound level below x, and the certificate
        # fails
        cfg = Field2DConfig.default(k=1, S=1.0, s1=0.3, T=0.8, h_list=(0.01,),
                                    points_per_length=6)
        op = assemble_2d(cfg, 0.01)
        H = reflection_block(op, 1)
        rows = H.shape[0] // op.n_s
        edges, _ = model2d._bound_cuts(op, rows)
        assert len(edges) == 3
        bottom = bound_bottom(op, H)
        x = 0.5 * bottom
        assert model2d._bound_clears(op, H, x)
        for a, b in zip(edges[:-1], edges[1:]):
            lowered = np.zeros(H.shape[0])
            lowered[a * op.n_s:b * op.n_s] = 2.0 * abs(H).sum(axis=1).max()
            assert not model2d._bound_clears(op, (H - sp.diags(lowered)).tocsr(), x)

    def test_no_inertia_is_read_on_any_path(self, monkeypatch):
        # a certified shift, a rejected one, the odd block solved and
        # merged, and the full block of even k: no factor's U (or L) is read
        factor = _shift_invert._factor

        class NoInertia:
            def __init__(self, lu):
                self.lu = lu

            def __getattr__(self, name):
                assert name not in ("U", "L"), f"lu.{name} read"
                return getattr(self.lu, name)

        monkeypatch.setattr(_shift_invert, "_factor",
                            lambda H, shift: NoInertia(factor(H, shift)))
        op = TestReflectionBlocks.asymptotic_operator()
        ref = lowest_eigenvalues_2d(op, 4)
        lowest_eigenvalues_2d(op, 4, shift=TestReflectionBlocks.forecast_shift(0.1))
        with pytest.warns(ShiftCertificateWarning, match="not certified"):
            lowest_eigenvalues_2d(op, 4, shift=0.5 * (ref[0] + ref[1]))
        small = assemble_2d(small_config(points_per_length=8), 0.5)
        with pytest.warns(ShiftCertificateWarning, match="odd block"):
            lowest_eigenvalues_2d(small, 5, shift=0.9 * lowest_eigenvalues_2d(small, 1)[0])
        full = assemble_2d(small_config(k=2), 0.5)
        lowest_eigenvalues_2d(full, 3, shift=0.9 * lowest_eigenvalues_2d(full, 1)[0])

    def test_short_period_forecast_not_certified(self):
        # S = 0.5 is about one magnetic length in s at h = 0.02 (0.52):
        # opening the ring there costs more than the 3% margin of the
        # forecast, so that h is solved at 0, with a warning; a period of
        # 1.9 magnetic lengths or more cleared at every h tried
        config = Field2DConfig.from_json({"k": 1, "S": 0.5,
                                          "h_list": [0.02, 0.01, 0.005, 0.002]})
        rep, _ = recorded_sweep(config, 4)
        certs = [w for w in rep.warnings_issued if "block" in w]
        assert [w for w in certs if "not certified" in w] == [certs[0]]
        assert re.fullmatch(r"h=0.02, even block: shift \S+ not certified below "
                            r"the spectrum; solved at 0", certs[0])
        assert "h=0.002, odd block: 1 of the 4 lowest levels; merged" in certs


def folded_grids():
    """The grids on which the folded blocks are checked: the four of the
    sweep2d benchmark, k = 1 and 3 on S = 8 at four h (odd and even
    interior t counts), and the smallest that grid_for accepts, with n_s of
    1 to 3 (links that share a column) and n_t of 3 to 5."""
    sweep = Field2DConfig.default(k=1)
    for h in np.geomspace(0.02, 0.002, 7)[::2]:
        yield pytest.param(sweep, float(h), id=f"sweep2d-h{h:.3g}")
    for k in (1, 3):
        for h in (0.2, 0.1, 0.05, 0.02):
            cfg = Field2DConfig.default(k=k, S=8.0, s1=2.4, h_list=(h,))
            yield pytest.param(cfg, h, id=f"k{k}-S8-h{h:g}")
    for S, n_s in ((0.5, 1), (1.5, 2), (2.5, 3)):
        for T, n_t in ((0.5, 3), (0.9, 4), (1.3, 5)):
            cfg = Field2DConfig.default(k=1, S=S, s1=0.1, T=T, h_list=(0.5,),
                                        points_per_length=1)
            yield pytest.param(cfg, 0.5, id=f"grid-{n_s}x{n_t}")


def residual_grids():
    """The grids on which block residuals are compared with whole-grid
    ones: k = 1 and 3 on S = 8 at three h, and the largest h of sweep2d."""
    for k in (1, 3):
        for h in (0.2, 0.05, 0.02):
            cfg = Field2DConfig.default(k=k, S=8.0, s1=2.4, h_list=(h,))
            yield pytest.param(cfg, h, id=f"k{k}-S8-h{h:g}")
    yield pytest.param(Field2DConfig.default(k=1), 0.02, id="sweep2d-h0.02")


class TestFoldedBlocks:
    @pytest.mark.parametrize("config, h", folded_grids())
    def test_blocks_equal_the_isometry_products_bit_for_bit(self, config, h):
        op = assemble_2d(config, h)
        H = op.hermitian
        blocks = reflection_blocks(op)
        assert [name for name, _ in blocks] == ["even", "odd"]
        assert model2d._mirror_symmetric(op)
        for (name, Q), parity in zip(blocks, (1, -1)):
            want = (Q.T @ H @ Q).tocsr()
            got = reflection_block(op, parity)
            assert got.shape == want.shape, name
            assert np.array_equal(got.indptr, want.indptr), name
            assert np.array_equal(got.indices, want.indices), name
            assert got.data.tobytes() == want.data.tobytes(), name

    def test_even_block_factored_with_no_full_grid_matrix(self, monkeypatch):
        # k=1 on the (25, 18) grid: when its even block of 200 unknowns is
        # factored, no sparse matrix of the grid's order, 400, exists
        op = assemble_2d(small_config(), 0.5)
        N = op.n_s * (op.n_t - 2)
        factored = []
        factor = _shift_invert._factor

        def spy(H, shift):
            orders = {n for obj in gc.get_objects() if sp.issparse(obj)
                      for n in obj.shape}
            factored.append((H.shape[0], N in orders))
            return factor(H, shift)

        monkeypatch.setattr(_shift_invert, "_factor", spy)
        lowest_eigenvalues_2d(op, 3)
        assert factored[0] == (N // 2, False)
        assert not any(full for _, full in factored)

    def test_split_solve_assembles_no_whole_grid_matrix(self, monkeypatch):
        # k=1 on the (25, 18) grid: every matrix built spans 8 of the 16
        # interior t rows
        op = assemble_2d(small_config(), 0.5)
        rows = []
        assemble = model2d._assemble

        def spy(operator, count, parity=0):
            rows.append(count)
            return assemble(operator, count, parity)

        monkeypatch.setattr(model2d, "_assemble", spy)
        lowest_eigenvalues_2d(op, 3)
        assert rows and max(rows) < op.n_t - 2

    @pytest.mark.parametrize("config, h", residual_grids())
    def test_block_residuals_are_the_whole_grid_residuals(self, config, h):
        # Q is an isometry and each block is Q^T H Q: the residual of a
        # block pair on its block and that of Q v on the whole operator
        # agree to rounding, eps ||H||_1, and both meet RESIDUAL_TOL
        op = assemble_2d(config, h)
        H = op.hermitian
        rounding = np.finfo(float).eps * abs(H).sum(axis=0).max()
        for (name, Q), parity in zip(reflection_blocks(op), (1, -1)):
            block = reflection_block(op, parity)
            vals, vecs = lowest_sparse_eigenpairs(block, 4)
            on_block = np.linalg.norm(block @ vecs - vecs * vals, axis=0)
            grid = Q @ vecs
            on_grid = np.linalg.norm(H @ grid - grid * vals, axis=0)
            on_block /= np.linalg.norm(vecs, axis=0)
            on_grid /= np.linalg.norm(grid, axis=0)
            assert np.max(np.abs(on_block - on_grid)) <= rounding, name
            assert max(on_block.max(), on_grid.max()) <= RESIDUAL_TOL, name


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
        assert 8_000 < op.hermitian.shape[0] < 12_000
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
        vals = lowest_sparse_eigenpairs(H, 5)[0]
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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 17: the single-vector Lanczos returns one copy of an "
        "exactly double level"))
    def test_constant_field_double_level(self):
        # k=2, N = 28,785: Fourier modes +p and -p have the same fiber
        # levels, so the union is l0, l1, l1, l2 (ratios 1, 1.0702, 1.0702,
        # 1.2779); the 2D solve returns 1, 1.0702, 1.2779, 1.6135
        h = 0.01
        cfg = constant_profile_config(S=8.0, h=(h,), k=2)
        op = assemble_2d(cfg, h)
        assert op.hermitian.shape[0] == 28785
        vals2d = lowest_eigenvalues_2d(op, 4)
        n_s, _ = cfg.grid_for(h)
        fib = np.sort(np.concatenate(
            [fiber_eigenvalues(cfg, h, m, 2) for m in range(n_s)]))[:4]
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
        # the shifted link phases assemble that conjugated operator
        op2 = dataclasses.replace(op, theta=op.theta + ds * dphi_mid / h)
        assert abs(op2.hermitian - H2).max() <= 1e-13 * abs(H2).max()
        vals2 = lowest_eigenvalues_2d(op2, 4)
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
        with pytest.warns(UserWarning, match="asymptotic window"), \
                pytest.warns(ShiftCertificateWarning, match="odd block"):
            rep = run_sweep(certificate_sweep(), m_count=4)
        certs = [w for w in rep.warnings_issued if "block" in w]
        assert certs[0] == "h=0.5, odd block: 1 of the 4 lowest levels; merged"
        assert np.all(np.diff(rep.eigenvalues, axis=1) > 0)

    def test_budget_skips_recorded(self):
        with pytest.warns(UserWarning):
            rep = run_sweep(budget_sweep(), m_count=2)
        assert rep.skipped_h == (5e-6, 4e-6)
        assert rep.h_values == (0.2, 0.1, 0.05, 0.02)


def certificate_sweep():
    # on a short cylinder at large h, levels odd in t are among the
    # lowest four: the odd-block certificate fails, warns, and is recorded
    return Field2DConfig.default(k=1, S=3.0, s1=0.9, T=0.8,
                                 h_list=tuple(np.geomspace(0.5, 0.05, 4)))


def budget_sweep():
    # the grids of the four large h are small; those of the two smallest,
    # (92, 563) and (96, 606), exceed the grid budget, and the sweep must
    # skip (and record) them
    return Field2DConfig.default(
        k=1, S=2.0, s1=0.6, T=0.8,
        h_list=(0.2, 0.1, 0.05, 0.02, 5e-6, 4e-6), points_per_length=6)


def recorded_sweep(config, m_count):
    """run_sweep's report and the warnings it issued, as (category, text)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run_sweep(config, m_count)
    return rep, [(w.category, str(w.message)) for w in caught]


class TestSweepPool:
    @pytest.mark.parametrize("sweep, m_count", [(certificate_sweep, 4), (budget_sweep, 2)])
    def test_pool_matches_in_process(self, monkeypatch, sweep, m_count):
        config = sweep()
        set_blas_threads(monkeypatch, None)
        assert sweep_workers(len(config.h_list)) == 1
        serial, serial_warnings = recorded_sweep(config, m_count)
        set_blas_threads(monkeypatch, 1)
        assert sweep_workers(len(config.h_list)) == 2
        pooled, pooled_warnings = recorded_sweep(config, m_count)
        assert multiprocessing.active_children() == []
        assert pooled.eigenvalues.tobytes() == serial.eigenvalues.tobytes()
        assert pooled.warnings_issued == serial.warnings_issued
        assert pooled.skipped_h == serial.skipped_h
        assert pooled_warnings == serial_warnings
        assert any(c is ShiftCertificateWarning for c, _ in pooled_warnings) \
            == (sweep is certificate_sweep)

    def test_lambda_profile(self, blas):
        # fork hands the config to the workers unpickled, so a profile that
        # cannot be pickled still runs there
        base = certificate_sweep()
        config = dataclasses.replace(base, omega=lambda s: base.omega(s))
        rep, _ = recorded_sweep(config, 4)
        ref, _ = recorded_sweep(base, 4)
        assert rep.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
        assert multiprocessing.active_children() == []

    def test_every_h_skipped_raises(self, blas):
        # the grid of every h exceeds the grid budget, (642, 516) and up:
        # each h is skipped before assembly, and the sweep is left with too
        # few h to fit
        config = Field2DConfig.from_json({
            "k": 1, "omega_min": 1.0, "a": 1.0, "S": 8.0, "s1": 2.4,
            "T": 0.8, "h_list": [2.4e-4, 2.2e-4, 2e-4, 1.8e-4]})
        with pytest.raises(ConvergenceError, match="fewer than 4 usable h"):
            run_sweep(config)
        assert multiprocessing.active_children() == []

    def test_first_error_in_h_order_raised(self, blas, monkeypatch):
        # the second h and the smallest one (solved first in a pool) fail:
        # the second one's error is raised, with its type and estimates
        config = certificate_sweep()
        failing = (config.h_list[1], config.h_list[3])
        solve = model2d.lowest_eigenvalues_2d

        def failing_solve(op, m_count, shift=0.0):
            if op.h in failing:
                raise ConvergenceError(f"forced at h={op.h}", estimates=(op.h,))
            return solve(op, m_count, shift=shift)

        monkeypatch.setattr(model2d, "lowest_eigenvalues_2d", failing_solve)
        with pytest.raises(ConvergenceError, match="forced at h=") as info:
            recorded_sweep(config, 4)
        assert info.value.estimates == (failing[0],)
        assert multiprocessing.active_children() == []


class TestSweepWorkers:
    PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

    @pytest.mark.parametrize("env, cores, n_h, workers", [
        ({}, 2, 4, 1),
        (PINNED, 2, 4, 2),
        (PINNED, 1, 4, 1),
        (PINNED, 8, 4, 4),
        (PINNED, 2, 1, 1),
        ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 2, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}, 2, 4, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, 4, 2),
        ({"GOTO_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 4, 2),
    ])
    def test_sizing_rule(self, monkeypatch, env, cores, n_h, workers):
        set_blas_threads(monkeypatch, None, cores)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert sweep_workers(n_h) == workers


class TestGridConvergence:
    def test_halving_stays_within_tolerance(self):
        # refining the grid moves the low eigenvalues by less than the
        # advertised accuracy scale
        h = 0.05
        base = Field2DConfig.default(k=1, S=8.0, s1=2.4, T=0.8, h_list=(h,))
        fine = dataclasses.replace(base, points_per_length=2 * base.points_per_length)
        v0 = lowest_eigenvalues_2d(assemble_2d(base, h), 2)
        v1 = lowest_eigenvalues_2d(assemble_2d(fine, h), 2)
        scale = v0[0]
        assert np.max(np.abs(v0 - v1)) < 5e-3 * scale
