"""Argument checks at the public entry points of the NNLS solver, the
experiment config and the components it reaches: values that make no sense
raise ValueError up front."""

import numpy as np
import pytest

from tensplit.classify import ExperimentConfig
from tensplit.core import DenseTensor
from tensplit.dataset import (make_group_splits, save_dataset, synthetic_color_ensemble,
                              synthetic_face_fixture)
from tensplit.decomp import DecompConfig, cpd_als, hosvd, ll1_nn
from tensplit.features import SubsetRule, fit_feature_bank
from tensplit.kernels import ConvergenceError, nnls, nnls_multi
from tensplit.seeds import derive_seed, make_rng


class TestNnlsArguments:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-3,
                                     True, None, "1e-10"])
    def test_tol_must_be_a_finite_number_at_least_zero(self, tol):
        with pytest.raises(ValueError, match="tol"):
            nnls(np.eye(2), [1.0, 2.0], tol=tol)
        with pytest.raises(ValueError, match="tol"):
            nnls_multi(np.eye(2), np.ones((2, 3)), tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, True, False, -1, 3.0, "5"])
    def test_max_iter_must_be_none_or_an_integer_at_least_zero(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            nnls(np.eye(2), [1.0, 2.0], max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter"):
            nnls_multi(np.eye(2), np.ones((2, 3)), max_iter=max_iter)

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-10, np.float64(1e-6), np.float32(0.5)])
    def test_valid_tolerances_solve(self, tol):
        np.testing.assert_array_equal(nnls(np.eye(2), [1.0, 2.0], tol=tol), [1.0, 2.0])

    @pytest.mark.parametrize("max_iter", [None, 1, 30, np.int64(4), np.int32(2)])
    def test_valid_caps_solve(self, max_iter):
        np.testing.assert_array_equal(nnls(np.eye(2), [1.0, 2.0], max_iter=max_iter),
                                      [1.0, 2.0])

    def test_a_zero_cap_still_raises_convergence_error(self):
        with pytest.raises(ConvergenceError):
            nnls(np.eye(2), [1.0, 2.0], max_iter=0)


class TestExperimentConfigFields:
    @pytest.mark.parametrize("kwargs", [
        {"realizations": 2.5},
        {"realizations": True},
        {"realizations": "3"},
        {"k": 2.5},
        {"k": True},
        {"ranks": [1.5]},
        {"ranks": [1, 2.0]},
        {"ranks": [True]},
        {"ranks": [np.float64(1.0)]},
        {"tau": True},
        {"tau": "0.5"},
        {"tau": None},
        {"seed": 2.5},
        {"seed": True},
    ])
    def test_fractional_and_boolean_fields_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_numpy_integers_and_numbers_are_accepted(self):
        cfg = ExperimentConfig(realizations=np.int64(2), k=np.int32(3),
                               ranks=[np.int64(2), 1], tau=np.float64(0.25))
        assert cfg.realizations == 2 and cfg.k == 3 and cfg.ranks == [2, 1]
        assert ExperimentConfig(tau=0).tau == 0

    def test_range_messages_are_kept(self):
        with pytest.raises(ValueError, match="realizations must be >= 1"):
            ExperimentConfig(realizations=0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            ExperimentConfig(k=0)


@pytest.mark.parametrize("field, value, message", [
    ("realizations", 2.5, "realizations must be an integer, got 2.5"),
    ("k", True, "k must be an integer, got True"),
    ("ranks", [1.5], "ranks must be a nonempty list of positive integers, got [1.5]"),
    ("tau", True, "tau must be a nonnegative number, got True"),
    ("dataset", {"kind": "face-fixture", "height": 8, "width": 6, "n_classes": 2,
                 "per_class": True}, "per_class must be a positive integer, got True"),
])
def test_the_cli_keeps_its_own_messages_and_exit_code(capsys, tmp_path, field, value, message):
    from test_cli import experiment_config, run_cli

    cfg = experiment_config(tmp_path, **{field: value})
    code, payload = run_cli(capsys, ["experiment", str(cfg), "--dry-run"])
    assert code == 3
    assert payload["error"] == message


class TestSeedsAndCounts:
    """Seeds, split counts, tau and rel_tol, each checked by the component
    that uses it: a bool or a fraction raises ValueError naming the field,
    where it was once truncated or taken as a number."""

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"seed": True}, {"seed": "0"}, {"seed": None},
        {"rel_tol": True}, {"rel_tol": "1e-8"},
    ])
    def test_decomp_config(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            DecompConfig(**kwargs)

    @pytest.mark.parametrize("args, kwargs, field", [
        ((6, True, 0), {}, "train"),
        ((6, 3.0, 0), {}, "train"),
        ((True, 1, 0), {}, "groups"),
        ((6.0, 3, 0), {}, "groups"),
        ((6, 3), {"seed": 2.7}, "seed"),
        ((6, 3), {"seed": False}, "seed"),
    ])
    def test_group_splits(self, args, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            make_group_splits(synthetic_face_fixture(), *args, **kwargs)

    @pytest.mark.parametrize("make", [
        lambda: synthetic_face_fixture(seed=1.5),
        lambda: synthetic_color_ensemble(4, 4, seed=True),
        lambda: make_rng(2.0, "stream"),
        lambda: derive_seed(False, "stream"),
    ])
    def test_every_seeded_stream(self, make):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            make()

    @pytest.mark.parametrize("tau", [True, "0.5", None])
    def test_subset_rule(self, tau):
        with pytest.raises(ValueError, match="^tau must be a nonnegative number"):
            SubsetRule(tau)

    def test_numpy_integers_are_accepted(self, tmp_path):
        ds = synthetic_face_fixture()
        want = make_group_splits(ds, 6, 3, 5)
        got = make_group_splits(ds, np.int64(6), np.int32(3), np.int64(5))
        assert (got.members, got.train_groups) == (want.members, want.train_groups)
        fixture = synthetic_face_fixture(seed=np.int64(2)).tensor
        assert fixture == synthetic_face_fixture(seed=2).tensor
        fixture = synthetic_face_fixture(np.int64(8), np.int32(6), seed=np.int64(0),
                                         n_classes=np.int64(2), per_class=np.int64(3))
        assert fixture.tensor == synthetic_face_fixture(8, 6, n_classes=2, per_class=3).tensor
        color = synthetic_color_ensemble(np.int64(4), np.int32(3), seed=np.uint32(1))
        for generated in (fixture, color):  # its manifest is JSON
            save_dataset(generated, tmp_path / generated.meta["kind"])
        t = DenseTensor(np.random.default_rng(0).uniform(size=(3, 4, 5)))
        assert cpd_als(t, np.int64(2), DecompConfig(max_sweeps=3)).rank == 2
        f = ll1_nn(t, [np.int32(2), 1], DecompConfig(max_sweeps=3))
        assert [term.block_rank for term in f.terms] == [2, 1]
        assert hosvd(t, [np.int64(2), 2, 1]).core.shape == (2, 2, 1)
        assert derive_seed(np.uint32(7), "a") == derive_seed(7, "a")
        assert DecompConfig(seed=np.int64(3), rel_tol=np.float32(1e-6)).seed == 3
        assert SubsetRule(np.float64(0.5)).tau == 0.5


class TestRanksAndExtents:
    """Decomposition ranks and the synthetic generators' extents and counts:
    a bool, a fraction, a string or None raises ValueError naming the rank
    or the field, where it was once truncated or failed in Python's own terms."""

    @pytest.mark.parametrize("rank", [2.0, 2.5, True, "2", None, 0, -1])
    def test_cpd_rank(self, rank):
        with pytest.raises(ValueError, match="^rank must be a positive integer"):
            cpd_als(DenseTensor(np.ones((3, 4, 5))), rank)

    @pytest.mark.parametrize("ranks", [[1.7, True], [1, 2.0], [True], ["1"], [None], [1, 0]])
    def test_block_ranks(self, ranks):
        t = DenseTensor(np.ones((3, 4, 5)))
        with pytest.raises(ValueError, match="^every block rank L must be a positive integer"):
            ll1_nn(t, ranks)
        with pytest.raises(ValueError, match="^every block rank L must be a positive integer"):
            fit_feature_bank(t, ranks)

    @pytest.mark.parametrize("mlrank, n", [([2.9, 2, True], 0), ([2, 2, True], 2),
                                           ([2, "2", 1], 1), ([2, 2, 1.0], 2)])
    def test_hosvd_mlrank(self, mlrank, n):
        with pytest.raises(ValueError, match=rf"^mlrank\[{n}\] must be an integer"):
            hosvd(DenseTensor(np.ones((3, 4, 5))), mlrank)

    @pytest.mark.parametrize("field", ["height", "width", "n_classes", "per_class"])
    @pytest.mark.parametrize("value", [True, 2.0, 4.5, "4", None])
    def test_face_fixture(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
            synthetic_face_fixture(**{field: value})

    @pytest.mark.parametrize("field", ["height", "width"])
    @pytest.mark.parametrize("value", [True, 2.0, "4", None, 0])
    def test_color_ensemble(self, field, value):
        extents = {"height": 4, "width": 4, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
            synthetic_color_ensemble(**extents, seed=0)
