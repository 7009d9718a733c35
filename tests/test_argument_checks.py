"""Argument checks at the public entry points of the NNLS solver, the
experiment config and the components it reaches: values that make no sense
raise ValueError up front."""

import numpy as np
import pytest

from tensplit.classify import ExperimentConfig
from tensplit.dataset import make_group_splits, synthetic_color_ensemble, synthetic_face_fixture
from tensplit.decomp import DecompConfig
from tensplit.features import SubsetRule
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

    def test_numpy_integers_are_accepted(self):
        ds = synthetic_face_fixture()
        want = make_group_splits(ds, 6, 3, 5)
        got = make_group_splits(ds, np.int64(6), np.int32(3), np.int64(5))
        assert (got.members, got.train_groups) == (want.members, want.train_groups)
        fixture = synthetic_face_fixture(seed=np.int64(2)).tensor
        assert fixture == synthetic_face_fixture(seed=2).tensor
        assert derive_seed(np.uint32(7), "a") == derive_seed(7, "a")
        assert DecompConfig(seed=np.int64(3), rel_tol=np.float32(1e-6)).seed == 3
        assert SubsetRule(np.float64(0.5)).tau == 0.5
