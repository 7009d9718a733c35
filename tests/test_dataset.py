import json

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import mutated_bytes
from tensplit.core import DenseTensor
from tensplit.dataset import (
    COLOR_MIXING,
    EnsembleDataset,
    PgmFormatError,
    SplitPlan,
    group_tensor,
    load_dataset,
    load_pgm_ensemble,
    make_group_splits,
    read_pgm,
    save_dataset,
    synthetic_color_ensemble,
    synthetic_face_fixture,
)
from tensplit.seeds import make_rng


def write_p5(path, width, height, maxval, raster_bytes, header_sep=b"\n"):
    head = f"P5 {width} {height} {maxval}".encode() + header_sep
    path.write_bytes(head + raster_bytes)
    return path


class TestReadPgm:
    def test_binary_2x2(self, tmp_path):
        p = write_p5(tmp_path / "a.pgm", 2, 2, 255, bytes([0, 255, 128, 64]))
        img = read_pgm(p)
        np.testing.assert_allclose(
            img, np.array([[0.0, 128 / 255], [1.0, 64 / 255]])
        )

    def test_binary_rectangular_layout(self, tmp_path):
        # raster streams down the first axis, so sample i+w*j lands at [i, j]
        p = write_p5(tmp_path / "a.pgm", 3, 2, 255, bytes([10, 20, 30, 40, 50, 60]))
        img = read_pgm(p) * 255
        np.testing.assert_allclose(img, [[10, 40], [20, 50], [30, 60]])

    def test_ascii_matches_binary(self, tmp_path):
        pb = write_p5(tmp_path / "b.pgm", 2, 2, 255, bytes([0, 255, 128, 64]))
        pa = tmp_path / "a.pgm"
        pa.write_bytes(b"P2\n# a comment\n2 2\n255\n0 255\n128 64\n")
        np.testing.assert_array_equal(read_pgm(pa), read_pgm(pb))

    def test_sixteen_bit_big_endian(self, tmp_path):
        raster = (258).to_bytes(2, "big") + (65535).to_bytes(2, "big")
        p = write_p5(tmp_path / "a.pgm", 2, 1, 65535, raster)
        np.testing.assert_allclose(read_pgm(p), [[258 / 65535], [1.0]])

    def test_raster_may_start_with_whitespace_byte(self, tmp_path):
        p = write_p5(tmp_path / "a.pgm", 2, 1, 255, bytes([10, 32]))
        np.testing.assert_allclose(read_pgm(p), [[10 / 255], [32 / 255]])

    def test_header_comments_and_spacing(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5\t#c1\n # c2\n 2\n1 # trailing\n255\n" + bytes([7, 9]))
        np.testing.assert_allclose(read_pgm(p) * 255, [[7], [9]])

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            (b"P3 2 2 255\n" + bytes(4), "magic"),
            (b"P5 2 2 255\n" + bytes(3), "truncated raster"),
            (b"P5 2 2 255\n" + bytes(5), "trailing"),
            (b"P5 2 2", "truncated header"),
            (b"P5 2 2 255", "whitespace"),
            (b"P5 0 2 255\n", "width"),
            (b"P5 2 0 255\n", "height"),
            (b"P5 2 2 0\n" + bytes(4), "maxval"),
            (b"P5 2 2 65536\n" + bytes(8), "maxval"),
            (b"P5 two 2 255\n" + bytes(4), "non-numeric"),
            (b"P5 2 2 100\n" + bytes([0, 0, 0, 200]), "exceeds maxval"),
            (b"P2 2 1 255\n0 1 2\n", "trailing"),
            (b"P2 2 1 255\n0\n", "truncated"),
            (b"P2\n2000000000 2000000000\n255\n1 2 3\n", "truncated"),
            (b"P2 2 1 255\n0 xy\n", "non-numeric"),
            (b"P2 2 1 255\n0 -3\n", "negative"),
            (b"P2 2 1 10\n0 11\n", "exceeds maxval"),
        ],
    )
    def test_rejects_malformed_input(self, tmp_path, payload, fragment):
        p = tmp_path / "bad.pgm"
        p.write_bytes(payload)
        with pytest.raises(PgmFormatError, match=fragment):
            read_pgm(p)


_PGM_SEEDS = [b"P5 3 2 255\n" + bytes([0, 9, 255, 128, 10, 32]),
              b"P5\n# c\n2 1\n65535\n" + (258).to_bytes(2, "big") + (65535).to_bytes(2, "big"),
              b"P2\n# a comment\n3 2\n255\n0 1 2\n3 4 255\n"]
# header and sample tokens that stress the parser: signs, huge values,
# comments, separators
_PGM_TOKENS = [b"9" * 400, b"9" * 5000, b"-1", b"+7", b"1_0", b"65536", b"2147483648",
               b"#", b" ", b"\n", b"P2", b"P5", b"0"]


class TestMutatedPgm:
    @settings(max_examples=400)
    @given(data=mutated_bytes(_PGM_SEEDS, _PGM_TOKENS))
    def test_reads_or_raises_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "mutated.pgm"
        path.write_bytes(data)
        try:
            img = read_pgm(path)
        except PgmFormatError:
            return
        assert img.ndim == 2 and np.all((img >= 0.0) & (img <= 1.0))

    def test_sample_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P2 2 1 255\n1 " + b"9" * 400 + b"\n")
        with pytest.raises(PgmFormatError, match="exceeds maxval"):
            read_pgm(path)


class TestEnsemble:
    def test_load_pgm_ensemble_stacks_in_order(self, tmp_path):
        paths = []
        for q in range(3):
            paths.append(
                write_p5(tmp_path / f"{q}.pgm", 2, 2, 255,
                         bytes([q, q + 10, q + 20, q + 30]))
            )
        ds = load_pgm_ensemble(paths, labels=[5, 6, 7])
        assert ds.tensor.shape == (2, 2, 3)
        assert ds.labels == [5, 6, 7]
        assert ds.meta["kind"] == "pgm"
        for q, p in enumerate(paths):
            np.testing.assert_array_equal(ds.image(q), read_pgm(p))

    def test_load_pgm_ensemble_validation(self, tmp_path):
        p1 = write_p5(tmp_path / "a.pgm", 2, 2, 255, bytes(4))
        p2 = write_p5(tmp_path / "b.pgm", 3, 2, 255, bytes(6))
        with pytest.raises(ValueError):
            load_pgm_ensemble([], [])
        with pytest.raises(ValueError):
            load_pgm_ensemble([p1], [0, 1])
        with pytest.raises(ValueError, match="size"):
            load_pgm_ensemble([p1, p2], [0, 1])

    def test_dataset_validation(self):
        t3 = DenseTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            EnsembleDataset(tensor=DenseTensor(np.zeros((2, 2))), labels=[0, 0])
        with pytest.raises(ValueError):
            EnsembleDataset(tensor=t3, labels=[])
        with pytest.raises(ValueError):
            EnsembleDataset(tensor=t3, labels=[0, 1, 2])


class TestSyntheticColor:
    def test_mixing_table(self):
        np.testing.assert_array_equal(
            COLOR_MIXING,
            [
                [128, 128, 128],
                [256, 256, 0],
                [256, 0, 256],
                [0, 256, 256],
                [256, 128, 32],
            ],
        )

    def test_shape_labels_nonnegative(self):
        ds = synthetic_color_ensemble(7, 9, seed=3)
        assert ds.tensor.shape == (7, 9, 5)
        assert ds.labels == [0, 1, 2, 3, 4]
        assert np.all(ds.tensor.to_array() >= 0)
        assert ds.meta["mixing"] == COLOR_MIXING.tolist()

    def test_slices_follow_the_mixing_rows(self):
        seed = 11
        ds = synthetic_color_ensemble(6, 5, seed=seed)
        rng = make_rng(seed, "color-ensemble")
        bases = [
            np.outer(rng.uniform(0.0, 1.0, size=6), rng.uniform(0.0, 1.0, size=5))
            for _ in range(3)
        ]
        design = np.column_stack([b.ravel() for b in bases])
        for q in range(5):
            coef, *_ = np.linalg.lstsq(design, ds.image(q).ravel(), rcond=None)
            np.testing.assert_allclose(coef, COLOR_MIXING[q], atol=1e-10)

    def test_deterministic_per_seed(self):
        a = synthetic_color_ensemble(8, 8, seed=4).tensor
        b = synthetic_color_ensemble(8, 8, seed=4).tensor
        c = synthetic_color_ensemble(8, 8, seed=5).tensor
        assert a == b
        assert a != c

    def test_size_validation(self):
        with pytest.raises(ValueError):
            synthetic_color_ensemble(0, 4, seed=0)


class TestFaceFixture:
    def test_shape_and_labels(self):
        ds = synthetic_face_fixture(height=12, width=10, seed=0,
                                    n_classes=4, per_class=6)
        assert ds.tensor.shape == (12, 10, 24)
        assert ds.labels == sum(([c] * 6 for c in range(4)), [])
        assert np.all(ds.tensor.to_array() >= 0)

    def test_deterministic(self):
        a = synthetic_face_fixture(seed=2).tensor
        b = synthetic_face_fixture(seed=2).tensor
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_face_fixture(height=3, n_classes=4)
        with pytest.raises(ValueError):
            synthetic_face_fixture(n_classes=1)


class TestGroupSplits:
    def test_partition_properties(self):
        ds = synthetic_face_fixture(n_classes=3, per_class=5, height=6)
        plan = make_group_splits(ds, groups=4, train=2, seed=7)
        assert plan.n_groups == 4
        assert sorted(plan.train_groups + plan.test_groups) == [0, 1, 2, 3]
        assert len(plan.train_groups) == 2
        seen = set()
        for g in range(4):
            labs = sorted(ds.labels[i] for i in plan.members[g])
            assert labs == [0, 1, 2]  # one sample of every class
            for i in plan.members[g]:
                assert i not in seen
                seen.add(i)

    def test_deterministic_and_seed_sensitive(self):
        ds = synthetic_face_fixture(n_classes=3, per_class=6, height=6)
        p1 = make_group_splits(ds, 5, 2, seed=1)
        p2 = make_group_splits(ds, 5, 2, seed=1)
        p3 = make_group_splits(ds, 5, 2, seed=2)
        assert p1.members == p2.members
        assert p1.train_groups == p2.train_groups
        assert p1.members != p3.members or p1.train_groups != p3.train_groups

    def test_too_few_samples_per_class(self):
        ds = synthetic_face_fixture(n_classes=3, per_class=3, height=6)
        with pytest.raises(ValueError, match="needs >="):
            make_group_splits(ds, groups=4, train=1, seed=0)

    def test_train_bounds(self):
        ds = synthetic_face_fixture(n_classes=2, per_class=4, height=4)
        with pytest.raises(ValueError):
            make_group_splits(ds, groups=3, train=0, seed=0)
        with pytest.raises(ValueError):
            make_group_splits(ds, groups=3, train=3, seed=0)
        with pytest.raises(ValueError):
            make_group_splits(ds, groups=1, train=1, seed=0)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            SplitPlan(train_groups=[0], test_groups=[0, 1], seed=0,
                      members=[[0], [1]])
        with pytest.raises(ValueError, match="cover"):
            SplitPlan(train_groups=[0], test_groups=[], seed=0,
                      members=[[0], [1]])
        with pytest.raises(ValueError, match="two groups"):
            SplitPlan(train_groups=[0], test_groups=[1], seed=0,
                      members=[[0], [0]])

    def test_group_tensor(self):
        ds = synthetic_face_fixture(n_classes=2, per_class=3, height=4)
        sub, labels = group_tensor(ds, [4, 0])
        assert sub.shape == (4, 10, 2)
        assert labels == [ds.labels[4], ds.labels[0]]
        np.testing.assert_array_equal(sub.to_array()[:, :, 0], ds.image(4))
        np.testing.assert_array_equal(sub.to_array()[:, :, 1], ds.image(0))


class TestDatasetSerialization:
    def test_round_trip(self, tmp_path):
        ds = synthetic_color_ensemble(5, 6, seed=9)
        save_dataset(ds, tmp_path / "d")
        again = load_dataset(tmp_path / "d")
        assert again.tensor == ds.tensor
        assert again.labels == ds.labels
        assert again.meta == ds.meta
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["shape"] == [5, 6, 5]
        assert manifest["labels"] == [0, 1, 2, 3, 4]

    def test_manifest_shape_cross_check(self, tmp_path):
        ds = synthetic_color_ensemble(5, 6, seed=9)
        save_dataset(ds, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        manifest["shape"] = [5, 6, 4]
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="shape"):
            load_dataset(tmp_path / "d")
