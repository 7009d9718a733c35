"""Argument checks at the public entry points of the NNLS solver and the
experiment config: values that make no sense raise ValueError up front."""

import numpy as np
import pytest

from tensplit.classify import ExperimentConfig
from tensplit.kernels import ConvergenceError, nnls, nnls_multi


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
    ("realizations", 2.5, "config field 'realizations': must be an integer"),
    ("k", True, "config field 'k': must be an integer"),
    ("ranks", [1.5], "config field 'ranks': must be positive integers"),
    ("tau", True, "config field 'tau': must be a number"),
])
def test_the_cli_keeps_its_own_messages_and_exit_code(capsys, tmp_path, field, value, message):
    from test_cli import experiment_config, run_cli

    cfg = experiment_config(tmp_path, **{field: value})
    code, payload = run_cli(capsys, ["experiment", str(cfg), "--dry-run"])
    assert code == 3
    assert payload["error"] == message
