import json
import tracemalloc
import warnings

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
    CommonFeatureBank,
    SubsetRule,
    build_feature_bank,
    estimate_mixing,
    fit_feature_bank,
    load_split,
    save_split,
    split_features,
    split_single,
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

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 2.0])
    def test_mask_is_select_per_row(self, tau):
        # every row that `select` can meet: a row holding a NaN or +inf
        # keeps nothing, at tau 0 too (0 * inf), with no warning
        rows = np.array([[0.5, 0.2, 0.5, 0.1],
                         [0.7, 0.1, np.inf, 0.3],
                         [0.4, np.nan, 0.9, 0.2],
                         [0.5, -np.inf, 0.3, 0.8],
                         [-1.0, -0.5, -2.0, -0.1],
                         [0.3, -0.3, 0.0, 0.6],
                         [0.0, 0.0, 0.0, 0.0],
                         [-0.0, 0.0, -0.0, 0.0],
                         [np.inf, np.inf, 1.0, 0.0],
                         [5e-324, 0.0, 1e-300, 1e300]])
        rule = SubsetRule(tau)
        before = rows.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masked = rule.mask(rows)
            want = np.array([np.where(rule.select(r), r, 0.0) for r in rows])
        assert masked.tobytes() == want.tobytes()
        assert not np.shares_memory(masked, rows)
        assert rows.tobytes() == before.tobytes()
        assert not masked[[1, 2, 4, 6, 7, 8]].any()
        assert rule.mask(np.zeros((3, 0))).shape == (3, 0)


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
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(5, 4, 3)))
        for order in ("C", "F"):
            bank = CommonFeatureBank(slices=[np.asarray(s, order=order) for s in slices],
                                     mixing=mixing)
            split = split_features(t, bank)
            for q in range(3):
                com, ind, kept = split_single(bank, t.to_array()[:, :, q], mixing[q])
                assert com.flags.writeable and ind.flags.writeable
                np.testing.assert_array_equal(com, split.common.to_array()[:, :, q])
                np.testing.assert_array_equal(ind, split.individual.to_array()[:, :, q])
                assert kept == split.selected[q]

    @pytest.mark.parametrize("tau", [0.0, 0.3, 1.1])
    def test_split_is_the_per_image_accumulation(self, tau):
        # oracle: image q's common part built on O x P slices from zero, one
        # kept feature at a time in ascending k, then subtracted from image q;
        # for the bank's mixing and for external weights whose rows hold
        # zeros only, ties, the smallest subnormal and a weight of 1e300
        # (`test_mask_is_select_per_row` masks the rows that split_features
        # rejects)
        rng = np.random.default_rng(19)
        slices = [rng.standard_normal((7, 6)) for _ in range(4)]
        mixing = rng.uniform(0.0, 1.0, size=(5, 4)) * (rng.uniform(size=(5, 4)) > 0.3)
        external = np.array([[0.5, 0.0, 0.3, 0.8],
                             [0.0, 0.0, 0.0, 0.0],
                             [0.2, 0.2, 0.2, 0.2],
                             [0.4, 5e-324, 0.9, 0.2],
                             [0.7, 0.1, 1e300, 0.3]])
        t = DenseTensor(rng.standard_normal((7, 6, 5)))
        rule = SubsetRule(tau)
        bank = CommonFeatureBank(slices=slices, mixing=mixing)
        for weights in (None, external):
            rows = mixing if weights is None else weights
            before = rows.copy()
            masked = rule.mask(rows)
            assert not np.shares_memory(masked, rows)
            assert masked.tobytes() == np.where([rule.select(r) for r in rows],
                                                rows, 0.0).tobytes()
            common = np.zeros(t.shape)
            for q, row in enumerate(rows):
                for k in np.flatnonzero(rule.select(row)):
                    common[:, :, q] += row[k] * slices[k]
            for layout in ("F", "C"):  # slices set after construction keep their layout
                bank.slices = [np.asarray(s, order=layout) for s in slices]
                split = split_features(t, bank, rule, weights=weights)
                assert np.array_equal(split.common.values, common)
                assert np.array_equal(split.individual.values, t.values - common)
                assert split.selected == [np.flatnonzero(rule.select(r)).tolist()
                                          for r in rows]
            assert rows.tobytes() == before.tobytes()  # the caller's weights are kept

    def test_banks_hold_f_ordered_slices(self):
        rng = np.random.default_rng(18)
        t = DenseTensor(rng.uniform(0.1, 1.0, size=(7, 6, 5)))
        fitted = build_feature_bank(ll1_nn(t, [2, 1], DecompConfig(seed=0, max_sweeps=20)))
        c_ordered = [np.ascontiguousarray(s) for s in fitted.slices]
        assert all(s.flags.c_contiguous and not s.flags.f_contiguous for s in c_ordered)
        built = CommonFeatureBank(slices=c_ordered, mixing=fitted.mixing)
        for bank in (fitted, built):
            assert all(s.flags.f_contiguous and s.dtype == np.float64 for s in bank.slices)
        want = split_features(t, fitted)
        got = split_features(t, built)
        np.testing.assert_array_equal(got.common.values, want.common.values)
        np.testing.assert_array_equal(got.individual.values, want.individual.values)
        assert got.selected == want.selected

    def test_stack_split_is_exact_and_lean(self):
        # images in [1, 1.2] and common parts in [0.6, 2): each difference
        # is exact (Sterbenz), so common + individual must give the image back
        rng = np.random.default_rng(8)
        slices = [rng.uniform(0.5, 1.0, size=(64, 64)) for _ in range(2)]
        mixing = rng.uniform(0.6, 1.0, size=(400, 2))
        bank = CommonFeatureBank(slices=slices, mixing=mixing)
        t = DenseTensor(rng.uniform(1.0, 1.2, size=(64, 64, 400)))
        tracemalloc.start()
        try:
            split = split_features(t, bank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * t.values.nbytes
        np.testing.assert_array_equal(
            split.common.values + split.individual.values, t.values
        )
        for q in range(400):
            com, ind, kept = split_single(bank, t.values[:, :, q], mixing[q])
            np.testing.assert_array_equal(com, split.common.values[:, :, q])
            np.testing.assert_array_equal(ind, split.individual.values[:, :, q])
            assert kept == split.selected[q]

    def test_external_weights_must_be_finite_and_nonnegative(self):
        rng = np.random.default_rng(20)
        bank = CommonFeatureBank(slices=[rng.standard_normal((4, 3)) for _ in range(4)],
                                 mixing=rng.uniform(size=(2, 4)))
        t = DenseTensor(rng.standard_normal((4, 3, 2)))
        for bad in (np.nan, np.inf, -np.inf, -0.5, -5e-324):
            weights = np.array([[0.7, 0.1, bad, 0.3], [0.2, 0.4, 0.1, 0.9]])
            with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
                split_features(t, bank, weights=weights)
            with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
                split_single(bank, t.values[:, :, 0], weights[0])
        # -0.0 is nonnegative, and keeps no feature
        weights = np.array([[0.7, -0.0, 0.0, 0.3], [0.2, 0.4, 0.1, 0.9]])
        assert split_features(t, bank, weights=weights).selected == [[0, 3], [0, 1, 2, 3]]

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
