import json

import numpy as np
import pytest

from conftest import assert_ll1_invariants
from tensplit.core import DenseTensor, norm_frobenius
from tensplit.dataset import COLOR_MIXING, synthetic_color_ensemble
from tensplit.decomp import (
    BlockTerm,
    DecompConfig,
    LL1Factors,
    greedy_cosine_match,
    ll1_nn,
    reconstruct,
)
from tensplit.features import (
    CommonBasis,
    CommonFeatureBank,
    SubsetRule,
    build_feature_bank,
    common_basis_qr,
    estimate_mixing,
    fit_feature_bank,
    load_split,
    save_split,
    split_features,
    split_single,
    stacked_pca,
)


def rank1_block(rng, o, p, q, L=1):
    a = rng.uniform(0.2, 1.0, size=(o, L))
    a /= np.linalg.norm(a, axis=0)
    b = rng.uniform(0.2, 1.0, size=(p, L))
    b /= np.linalg.norm(b, axis=0)
    c = rng.uniform(0.1, 1.0, size=q)
    c /= np.linalg.norm(c)
    return BlockTerm(a=a, b=b, c=c, weights=rng.uniform(1.0, 2.0, size=L))


class TestBank:
    def test_single_term_unit_weight_slice(self):
        a = np.array([[0.6], [0.8]])
        b = np.array([[1.0], [0.0], [0.0]])
        term = BlockTerm(a=a, b=b, c=np.array([1.0]), weights=np.array([1.0]))
        bank = build_feature_bank(LL1Factors(terms=[term], fit_history=[]))
        np.testing.assert_allclose(bank.slices[0], a @ b.T, atol=1e-15)
        assert bank.n_features == 1
        assert bank.n_images == 1

    def test_reconstruct_equivalence(self):
        rng = np.random.default_rng(0)
        terms = [rank1_block(rng, 5, 6, 7, L) for L in (2, 1)]
        f = LL1Factors(terms=terms, fit_history=[])
        bank = build_feature_bank(f)
        stack = np.zeros((5, 6, 7))
        for k in range(bank.n_features):
            stack += bank.slices[k][:, :, None] * bank.mixing[None, None, :, k].reshape(1, 1, 7)
        assert np.max(np.abs(stack - reconstruct(f).to_array())) < 1e-10

    def test_color_ensemble_bases_recovered(self):
        ds = synthetic_color_ensemble(12, 12, seed=1)
        cfg = DecompConfig(seed=1, max_sweeps=300)
        bank = fit_feature_bank(ds.tensor, [1, 1, 1], cfg, n_restarts=5)
        assert_ll1_invariants(bank.source)
        # regenerate the base slices the generator used
        from tensplit.seeds import make_rng

        rng = make_rng(1, "color-ensemble")
        bases = [np.outer(rng.uniform(0.0, 1.0, size=12), rng.uniform(0.0, 1.0, size=12))
                 for _ in range(3)]
        est = np.column_stack([s.ravel() for s in bank.slices])
        ref = np.column_stack([b.ravel() for b in bases])
        scores, _ = greedy_cosine_match(est, ref)
        assert np.min(scores) > 1 - 1e-6

    def test_mixing_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            CommonFeatureBank(slices=[np.ones((2, 2))], mixing=np.array([[-1.0]]))

    def test_fit_feature_bank_restart_validation(self):
        ds = synthetic_color_ensemble(6, 6, seed=0)
        with pytest.raises(ValueError):
            fit_feature_bank(ds.tensor, [1], n_restarts=0)


class TestSubsetRule:
    def test_default_keeps_positive_weights(self):
        rule = SubsetRule()
        keep = rule.select(np.array([0.5, 0.0, 0.1]))
        assert list(keep) == [True, False, True]

    def test_tau_scales_the_row_maximum(self):
        rule = SubsetRule(tau=0.5)
        keep = rule.select(np.array([1.0, 0.6, 0.4]))
        assert list(keep) == [True, True, False]

    def test_tau_above_one_empties_selection(self):
        rule = SubsetRule(tau=1.1)
        assert not rule.select(np.array([1.0, 0.5])).any()

    def test_all_zero_row(self):
        assert not SubsetRule().select(np.zeros(3)).any()

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            SubsetRule(tau=-0.1)


class TestSplit:
    def identical_slice_tensor(self, seed=0, q=5):
        rng = np.random.default_rng(seed)
        base = np.outer(rng.uniform(0.2, 1, 9), rng.uniform(0.2, 1, 7)) + np.outer(
            rng.uniform(0.2, 1, 9), rng.uniform(0.2, 1, 7)
        )
        return DenseTensor(np.repeat(base[:, :, None], q, axis=2))

    def test_identical_slices_have_no_individual_part(self):
        t = self.identical_slice_tensor()
        bank = fit_feature_bank(t, [2], DecompConfig(seed=0, max_sweeps=300),
                                n_restarts=3)
        split = split_features(t, bank)
        for q in range(t.shape[2]):
            ind = split.individual.to_array()[:, :, q]
            ref = t.to_array()[:, :, q]
            assert np.linalg.norm(ind) <= 1e-6 * np.linalg.norm(ref)

    def test_additivity_is_exact(self):
        t = self.identical_slice_tensor(seed=1)
        bank = fit_feature_bank(t, [2], DecompConfig(seed=0, max_sweeps=100))
        split = split_features(t, bank)
        np.testing.assert_array_equal(
            split.common.to_array() + split.individual.to_array(), t.to_array()
        )

    def test_rank1_weighted_common_parts(self):
        # one pattern shared at weights 1, 4, 8: individual parts vanish and
        # the common part of the second slice is 4x the first
        rng = np.random.default_rng(2)
        pattern = np.outer(rng.uniform(0.2, 1, 8), rng.uniform(0.2, 1, 6))
        c = np.array([1.0, 4.0, 8.0])
        t = DenseTensor(pattern[:, :, None] * c[None, None, :])
        bank = fit_feature_bank(t, [1], DecompConfig(seed=0, max_sweeps=200),
                                n_restarts=3)
        split = split_features(t, bank)
        com = split.common.to_array()
        ind = split.individual.to_array()
        assert np.linalg.norm(ind) <= 1e-6 * norm_frobenius(t)
        ratio = np.linalg.norm(com[:, :, 1]) / np.linalg.norm(com[:, :, 0])
        assert abs(ratio - 4.0) < 1e-6

    def test_zero_weight_feature_excluded_for_positive_tau(self):
        # mixing row [256, 0, 256]: the zero-weight feature never enters
        rng = np.random.default_rng(3)
        slices = [np.outer(rng.uniform(0.2, 1, 5), rng.uniform(0.2, 1, 4))
                  for _ in range(3)]
        mixing = COLOR_MIXING.copy()
        mixing /= np.linalg.norm(mixing, axis=0)
        bank = CommonFeatureBank(slices=slices, mixing=mixing)
        stack = np.zeros((5, 4, 5))
        for q in range(5):
            for k in range(3):
                stack[:, :, q] += mixing[q, k] * slices[k]
        t = DenseTensor(stack)
        for tau in (0.0, 0.25, 0.5):
            split = split_features(t, bank, SubsetRule(tau))
            assert 1 not in split.selected[2]  # green base absent in slice 3

    def test_tau_monotonicity(self):
        rng = np.random.default_rng(4)
        slices = [np.outer(rng.uniform(0.2, 1, 5), rng.uniform(0.2, 1, 4))
                  for _ in range(3)]
        mixing = rng.uniform(0.0, 1.0, size=(6, 3))
        bank = CommonFeatureBank(slices=slices, mixing=mixing)
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(5, 4, 6)))
        taus = [0.0, 0.3, 0.6, 0.9, 1.1]
        splits = [split_features(t, bank, SubsetRule(tau)) for tau in taus]
        for lo, hi in zip(splits, splits[1:]):
            for q in range(6):
                assert set(hi.selected[q]) <= set(lo.selected[q])
        assert norm_frobenius(splits[-1].common) == 0.0
        assert splits[-1].individual == t

    def test_tau_zero_individual_is_decomposition_residual(self):
        rng = np.random.default_rng(5)
        t = DenseTensor(rng.uniform(0.1, 1.0, size=(6, 5, 4)))
        f = ll1_nn(t, [1, 1], DecompConfig(seed=0, max_sweeps=60))
        bank = build_feature_bank(f)
        split = split_features(t, bank)
        residual = t.to_array() - reconstruct(f).to_array()
        assert np.max(np.abs(split.individual.to_array() - residual)) < 1e-10

    def test_split_with_external_weights(self):
        rng = np.random.default_rng(6)
        slices = [np.outer(rng.uniform(0.2, 1, 5), rng.uniform(0.2, 1, 4))
                  for _ in range(2)]
        bank = CommonFeatureBank(slices=slices, mixing=np.zeros((0, 2)))
        weights = np.array([[2.0, 0.5], [1.0, 3.0]])
        stack = np.stack(
            [weights[q, 0] * slices[0] + weights[q, 1] * slices[1] for q in range(2)],
            axis=2,
        )
        split = split_features(DenseTensor(stack), bank, weights=weights)
        assert norm_frobenius(split.individual) < 1e-10

    def test_split_single_matches_split_features(self):
        rng = np.random.default_rng(7)
        slices = [np.outer(rng.uniform(0.2, 1, 5), rng.uniform(0.2, 1, 4))
                  for _ in range(2)]
        mixing = rng.uniform(0.1, 1.0, size=(3, 2))
        bank = CommonFeatureBank(slices=slices, mixing=mixing)
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(5, 4, 3)))
        split = split_features(t, bank)
        for q in range(3):
            com, ind, kept = split_single(bank, t.to_array()[:, :, q], mixing[q])
            np.testing.assert_array_equal(com, split.common.to_array()[:, :, q])
            np.testing.assert_array_equal(ind, split.individual.to_array()[:, :, q])
            assert kept == split.selected[q]

    def test_slice_accessors(self):
        rng = np.random.default_rng(8)
        slices = [np.outer(rng.uniform(0.2, 1, 3), rng.uniform(0.2, 1, 4))]
        bank = CommonFeatureBank(slices=slices, mixing=np.ones((2, 1)))
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(3, 4, 2)))
        split = split_features(t, bank)
        assert len(split.common_slices()) == 2
        np.testing.assert_array_equal(
            split.common_slices()[1], split.common.to_array()[:, :, 1]
        )

    def test_shape_validation(self):
        bank = CommonFeatureBank(slices=[np.ones((3, 3))], mixing=np.ones((2, 1)))
        with pytest.raises(ValueError):
            split_features(DenseTensor(np.zeros((4, 4, 2))), bank)
        with pytest.raises(ValueError):
            split_features(DenseTensor(np.zeros((3, 3, 5))), bank)
        with pytest.raises(ValueError):
            split_features(DenseTensor(np.zeros((3, 3, 2))), bank,
                           weights=np.ones((2, 2)))
        with pytest.raises(ValueError):
            split_features(DenseTensor(np.zeros((3, 3))), bank)


class TestEstimateMixing:
    def test_recovers_known_weights(self):
        rng = np.random.default_rng(9)
        slices = [np.outer(rng.uniform(0.2, 1, 6), rng.uniform(0.2, 1, 5))
                  for _ in range(3)]
        bank = CommonFeatureBank(slices=slices, mixing=np.zeros((0, 3)))
        truth = np.array([2.0, 0.5, 1.25])
        image = sum(w * s for w, s in zip(truth, slices))
        got = estimate_mixing(bank, image)
        np.testing.assert_allclose(got, truth, atol=1e-8)

    def test_nonnegative_output(self):
        rng = np.random.default_rng(10)
        slices = [np.outer(rng.uniform(0.2, 1, 6), rng.uniform(0.2, 1, 5))
                  for _ in range(3)]
        bank = CommonFeatureBank(slices=slices, mixing=np.zeros((0, 3)))
        got = estimate_mixing(bank, rng.standard_normal((6, 5)))
        assert np.all(got >= 0.0)

    def test_stack_matches_single_images(self):
        rng = np.random.default_rng(12)
        slices = [np.outer(rng.uniform(0.2, 1, 6), rng.uniform(0.2, 1, 5))
                  for _ in range(3)]
        bank = CommonFeatureBank(slices=slices, mixing=np.zeros((0, 3)))
        weights = np.column_stack([[2.0, 0.5, 1.25], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]])
        stack = np.einsum("opk,kq->opq", np.stack(slices, axis=2), weights)
        stack += 0.05 * rng.standard_normal(stack.shape)
        stack = np.concatenate([stack, -stack[:, :, :1]], axis=2)
        got = estimate_mixing(bank, stack)
        assert got.shape == (4, 3)
        for q in range(4):
            np.testing.assert_array_equal(got[q], estimate_mixing(bank, stack[:, :, q]))
        with pytest.raises(ValueError):
            estimate_mixing(bank, np.zeros((5, 6, 2)))


class TestStackedPca:
    def test_identical_rank1_blocks_need_one_component(self):
        rng = np.random.default_rng(11)
        block = np.outer(rng.uniform(0.2, 1, 8), rng.uniform(0.2, 1, 4))
        loadings, scores = stacked_pca([block, block, block], 1)
        assert loadings.shape == (8, 1)
        assert scores.shape == (12, 1)
        recon = scores @ loadings.T
        stacked = np.vstack([block.T] * 3)
        assert np.max(np.abs(recon - stacked)) < 1e-10

    def test_shared_component_leads(self):
        rng = np.random.default_rng(12)
        shared = rng.standard_normal(10)
        shared /= np.linalg.norm(shared)
        blocks = []
        for _ in range(3):
            noise = rng.standard_normal((10, 4)) * 0.1
            weights = rng.uniform(3.0, 5.0, size=4)
            blocks.append(np.outer(shared, weights) + noise)
        loadings, _ = stacked_pca(blocks, 2)
        assert abs(loadings[:, 0] @ shared) > 0.99

    def test_overlarge_rank_trailing_scores_vanish(self):
        rng = np.random.default_rng(13)
        block = np.outer(rng.uniform(0.2, 1, 6), rng.uniform(0.2, 1, 3))
        loadings, scores = stacked_pca([block, block], 4)
        assert np.max(np.abs(scores[:, 1:])) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            stacked_pca([], 1)
        with pytest.raises(ValueError):
            stacked_pca([np.ones((3, 2)), np.ones((4, 2))], 1)
        with pytest.raises(ValueError):
            stacked_pca([np.ones((3, 2))], 0)


class TestCommonBasis:
    def test_shared_column_accepted_with_tiny_cost(self):
        rng = np.random.default_rng(14)
        shared = rng.standard_normal(10)
        shared /= np.linalg.norm(shared)
        xs = [np.column_stack([shared * rng.uniform(1, 3),
                               rng.standard_normal((10, 3))]) for _ in range(4)]
        cb = common_basis_qr(xs, m_max=3, seed=1)
        assert cb.n_columns == 1
        assert cb.residual_costs[0] < 1e-10
        assert abs(abs(cb.basis[:, 0] @ shared) - 1.0) < 1e-8

    def test_orthogonal_blocks_accept_nothing(self):
        xs = [np.eye(12)[:, 3 * i : 3 * i + 3] for i in range(4)]
        cb = common_basis_qr(xs, m_max=2, threshold=0.1 * 4, seed=2)
        assert cb.n_columns == 0

    def test_two_block_shared_plane(self):
        rng = np.random.default_rng(15)
        s1 = rng.standard_normal(10)
        s1 /= np.linalg.norm(s1)
        s2 = rng.standard_normal(10)
        s2 -= s1 * (s1 @ s2)
        s2 /= np.linalg.norm(s2)
        span = np.column_stack([s1, s2])
        xs = []
        for _ in range(2):
            mix = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            xs.append(np.column_stack([span @ mix, rng.standard_normal((10, 2))]))
        cb = common_basis_qr(xs, m_max=4, seed=3)
        assert cb.n_columns == 2
        svals = np.linalg.svd(cb.basis.T @ span, compute_uv=False)
        angles = np.arccos(np.clip(svals, -1.0, 1.0))
        assert np.max(angles) < 1e-4

    def test_cost_histories_non_increasing(self):
        rng = np.random.default_rng(16)
        shared = rng.standard_normal(8)
        xs = [np.column_stack([shared, rng.standard_normal((8, 2))])
              for _ in range(3)]
        cb = common_basis_qr(xs, m_max=2, seed=4)
        assert cb.histories
        for h in cb.histories:
            assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(17)
        span = np.linalg.qr(rng.standard_normal((12, 3)))[0][:, :3]
        xs = [np.column_stack([span @ (np.eye(3) + 0.1 * rng.standard_normal((3, 3))),
                               rng.standard_normal((12, 2))]) for _ in range(3)]
        cb = common_basis_qr(xs, m_max=3, seed=5)
        if cb.n_columns:
            eye = np.eye(cb.n_columns)
            assert np.max(np.abs(cb.basis.T @ cb.basis - eye)) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            common_basis_qr([], 1)
        with pytest.raises(ValueError):
            common_basis_qr([np.ones((3, 2)), np.ones((4, 2))], 1)
        with pytest.raises(ValueError):
            common_basis_qr([np.ones((3, 2))], 0)
        with pytest.raises(ValueError):
            CommonBasis(basis=np.ones((3, 2)), residual_costs=[1.0], iterations=[1])


class TestSplitSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        slices = [np.outer(rng.uniform(0.2, 1, 4), rng.uniform(0.2, 1, 3))]
        bank = CommonFeatureBank(slices=slices, mixing=rng.uniform(0.1, 1, (2, 1)))
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(4, 3, 2)))
        split = split_features(t, bank, SubsetRule(0.5))
        save_split(split, tmp_path / "s", tau=0.5)
        again = load_split(tmp_path / "s")
        assert again.common == split.common
        assert again.individual == split.individual
        assert again.selected == split.selected
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["tau"] == 0.5
        assert manifest["shape"] == [4, 3, 2]
