import tracemalloc

import numpy as np
import pytest

from tensplit import dtf
from tensplit.core import (
    DenseTensor,
    fold,
    frontal_slice,
    khatri_rao,
    mode_n_product,
    norm_frobenius,
    outer_product,
    unfold,
)
from tensplit.dataset import EnsembleDataset, group_tensor
from tensplit.features import CommonFeatureBank, split_features


def unfold_by_enumeration(arr, mode):
    """Reference unfolding: row = mode index, column counts the remaining
    indices with the lowest remaining mode varying fastest."""
    shape = arr.shape
    rest = [n for n in range(arr.ndim) if n != mode]
    n_cols = 1
    for n in rest:
        n_cols *= shape[n]
    out = np.zeros((shape[mode], n_cols))
    for idx in np.ndindex(*shape):
        col = 0
        stride = 1
        for n in rest:
            col += idx[n] * stride
            stride *= shape[n]
        out[idx[mode], col] = arr[idx]
    return out


class TestDenseTensor:
    def test_basic_properties(self):
        arr = np.arange(24, dtype=float).reshape(2, 3, 4)
        t = DenseTensor(arr)
        assert t.shape == (2, 3, 4)
        assert t.order == 3
        assert t.size == 24
        assert t[1, 2, 3] == arr[1, 2, 3]

    def test_values_are_read_only(self):
        t = DenseTensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.values[0, 0] = 5.0

    def test_source_mutation_does_not_leak(self):
        arr = np.ones((2, 2))
        t = DenseTensor(arr)
        arr[0, 0] = 7.0
        assert t[0, 0] == 1.0

    def test_flat_is_first_index_fastest(self):
        arr = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert list(DenseTensor(arr).flat) == [1.0, 2.0, 3.0, 4.0]

    def test_from_flat_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4, 2))
        t = DenseTensor(arr)
        again = DenseTensor.from_flat(t.shape, t.flat)
        assert again == t

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DenseTensor(np.float64(3.0))
        with pytest.raises(ValueError):
            DenseTensor(np.zeros((2, 0, 3)))
        with pytest.raises(ValueError):
            DenseTensor(np.zeros((1,) * 9))

    def test_equality_is_bitwise(self):
        a = DenseTensor(np.array([[1.0, 2.0]]))
        b = DenseTensor(np.array([[1.0, 2.0]]))
        c = DenseTensor(np.array([[1.0, 2.0 + 1e-16]]))
        assert a == b
        assert a == c  # 2.0 + 1e-16 rounds to 2.0
        assert a != DenseTensor(np.array([[1.0, 2.1]]))


def traced_peak(fn):
    """fn's result and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAdopt:
    """Arrays the package has just built are adopted, not copied."""

    def test_public_construction_copies(self):
        arr = np.asfortranarray(np.ones((3, 4)))
        t = DenseTensor(arr)
        assert not np.shares_memory(t.values, arr)
        assert arr.flags.writeable

    def test_wrap_adopts_read_only_and_rejects_foreign_layouts(self):
        arr = np.zeros((3, 4, 2), order="F")
        t = DenseTensor._wrap(arr)
        assert np.shares_memory(t.values, arr) and not arr.flags.writeable
        for bad in (np.zeros((3, 4)), np.zeros((3, 4), dtype=np.float32, order="F")):
            with pytest.raises(ValueError, match="F-ordered float64"):
                DenseTensor._wrap(bad)
        with pytest.raises(ValueError, match="extent"):
            DenseTensor._wrap(np.zeros((3, 0), order="F"))

    def test_split_features_peaks_at_two_stacks(self):
        rng = np.random.default_rng(8)
        bank = CommonFeatureBank(slices=[rng.uniform(0.5, 1.0, (64, 64)) for _ in range(2)],
                                 mixing=rng.uniform(0.6, 1.0, (400, 2)))
        t = DenseTensor(rng.uniform(1.0, 1.2, (64, 64, 400)))
        split, peak = traced_peak(lambda: split_features(t, bank))
        # the common and the individual stack, nothing more
        assert peak < 2.1 * t.values.nbytes
        assert not np.shares_memory(split.common.values, split.individual.values)

    def test_readers_and_builders_make_one_copy(self, tmp_path):
        arr = np.random.default_rng(1).standard_normal((32, 32, 64))
        dtf.write_tensor(DenseTensor(arr), tmp_path / "t.dtf1")
        t, peak = traced_peak(lambda: dtf.read_tensor(tmp_path / "t.dtf1"))
        assert t == DenseTensor(arr) and t.values.flags.aligned
        assert peak < 1.25 * arr.nbytes  # the bytes read, adopted, and a finiteness mask
        ds = EnsembleDataset(tensor=t, labels=list(range(64)))
        (sub, labels), peak = traced_peak(lambda: group_tensor(ds, range(0, 64, 2)))
        assert sub == DenseTensor(arr[:, :, ::2]) and labels == list(range(0, 64, 2))
        assert peak < 0.6 * arr.nbytes
        m = unfold(t, 1)
        back, peak = traced_peak(lambda: fold(m, 1, t.shape))
        assert back == t and peak < 1.1 * arr.nbytes


class TestUnfoldFold:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            order = rng.integers(1, 5)
            shape = tuple(int(s) for s in rng.integers(1, 5, size=order))
            arr = rng.standard_normal(shape)
            t = DenseTensor(arr)
            for mode in range(order):
                expected = unfold_by_enumeration(arr, mode)
                np.testing.assert_array_equal(unfold(t, mode), expected)

    def test_known_small_case(self):
        # shape (2, 2, 2): mode-0 columns are (j, k) pairs with j fastest
        arr = np.zeros((2, 2, 2))
        for i, j, k in np.ndindex(2, 2, 2):
            arr[i, j, k] = 100 * i + 10 * j + k
        m = unfold(DenseTensor(arr), 0)
        np.testing.assert_array_equal(
            m, np.array([[0.0, 10.0, 1.0, 11.0], [100.0, 110.0, 101.0, 111.0]])
        )

    def test_fold_inverts_unfold_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            order = rng.integers(1, 6)
            shape = tuple(int(s) for s in rng.integers(1, 5, size=order))
            t = DenseTensor(rng.standard_normal(shape))
            for mode in range(order):
                assert fold(unfold(t, mode), mode, shape) == t

    def test_mode_out_of_range(self):
        t = DenseTensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            unfold(t, 2)
        with pytest.raises(ValueError):
            unfold(t, -1)

    def test_fold_shape_mismatch(self):
        t = DenseTensor(np.zeros((2, 3, 4)))
        m = unfold(t, 0)
        with pytest.raises(ValueError):
            fold(m, 0, (2, 3, 5))
        with pytest.raises(ValueError):
            fold(m, 1, (2, 3, 4))


class TestModeProduct:
    def test_matches_tensordot_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            order = rng.integers(2, 5)
            shape = tuple(int(s) for s in rng.integers(1, 5, size=order))
            mode = int(rng.integers(0, order))
            t = DenseTensor(rng.standard_normal(shape))
            m = rng.standard_normal((int(rng.integers(1, 6)), shape[mode]))
            got = mode_n_product(t, m, mode).to_array()
            want = np.moveaxis(np.tensordot(m, t.to_array(), axes=(1, mode)), 0, mode)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_unfolding_identity_bitwise(self):
        rng = np.random.default_rng(4)
        t = DenseTensor(rng.standard_normal((3, 4, 5)))
        m = rng.standard_normal((6, 4))
        p = mode_n_product(t, m, 1)
        np.testing.assert_array_equal(unfold(p, 1), m @ unfold(t, 1))

    def test_dimension_mismatch(self):
        t = DenseTensor(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            mode_n_product(t, np.zeros((2, 5)), 1)


class TestProducts:
    def test_outer_product_small(self):
        t = outer_product([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])
        np.testing.assert_array_equal(
            t.to_array(), np.array([[3.0, 4.0, 5.0], [6.0, 8.0, 10.0]])
        )

    def test_outer_product_three_way(self):
        a, b, c = np.array([1.0, 2.0]), np.array([1.0, 3.0]), np.array([2.0, 5.0])
        t = outer_product([a, b, c])
        want = np.einsum("i,j,k->ijk", a, b, c)
        np.testing.assert_array_equal(t.to_array(), want)

    def test_outer_product_validation(self):
        with pytest.raises(ValueError):
            outer_product([np.array([1.0])])
        with pytest.raises(ValueError):
            outer_product([np.array([1.0]), np.array([])])

    def test_khatri_rao_single_columns_is_kron(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0], [5.0]])
        np.testing.assert_array_equal(
            khatri_rao(a, b), np.array([[3.0], [4.0], [5.0], [6.0], [8.0], [10.0]])
        )

    def test_khatri_rao_columns_are_kron_columns(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((5, 4))
        kr = khatri_rao(a, b)
        assert kr.shape == (15, 4)
        for j in range(4):
            np.testing.assert_array_equal(kr[:, j], np.kron(a[:, j], b[:, j]))

    def test_khatri_rao_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_khatri_rao_gram_identity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((4, 3))
        kr = khatri_rao(a, b)
        want = (a.T @ a) * (b.T @ b)
        assert np.max(np.abs(kr.T @ kr - want)) < 1e-12


class TestSlicesAndNorm:
    def test_frontal_slice(self):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((3, 4, 5))
        t = DenseTensor(arr)
        for q in range(5):
            np.testing.assert_array_equal(frontal_slice(t, q), arr[:, :, q])
        with pytest.raises(ValueError):
            frontal_slice(t, 5)
        with pytest.raises(ValueError):
            frontal_slice(DenseTensor(arr[:, :, 0]), 0)

    def test_norm_frobenius(self):
        arr = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert norm_frobenius(DenseTensor(arr)) == 5.0
        assert norm_frobenius(arr) == 5.0
        for k in (-560, 560):  # squares underflow or overflow
            assert norm_frobenius(DenseTensor(np.ldexp(arr, k))) == np.ldexp(5.0, k)
