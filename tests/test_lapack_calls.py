"""The direct LAPACK gufunc calls of the NNLS kernel and the CPD update.

`kernels._lapack` calls numpy.linalg's stacked gufuncs without the
numpy.linalg wrappers.  Its results must equal the wrappers' bit for bit,
and a LAPACK failure must raise the wrappers' LinAlgError.  A fitted
block-term stack must then reach LAPACK through the helper alone.
"""

import numpy as np
import pytest

import tensplit.decomp as decomp
from tensplit.core import DenseTensor
from tensplit.dataset import group_tensor, make_group_splits, synthetic_face_fixture
from tensplit.decomp import DecompConfig
from tensplit.kernels import _lapack, nnls_multi


def spd_stack(rng, n_mats, n):
    a = rng.standard_normal((n_mats, 3 * n, n)) * np.exp(rng.uniform(-4.0, 4.0, (n_mats, 1, n)))
    return a.swapaxes(1, 2) @ a


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_eigenvalues_equal_eigvalsh_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        g = spd_stack(rng, 7, n)
        np.testing.assert_array_equal(_lapack("eigvalsh_lo", g), np.linalg.eigvalsh(g))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_solves_equal_numpy_solve_bit_for_bit(n):
    rng = np.random.default_rng(10 + n)
    for _ in range(20):
        g = spd_stack(rng, 6, n)
        rhs = rng.standard_normal((6, 4, n, 1))
        np.testing.assert_array_equal(_lapack("solve", g[:, None], rhs),
                                      np.linalg.solve(g[:, None], rhs))
        m = rng.standard_normal((n, 9))  # one matrix, several right-hand sides
        np.testing.assert_array_equal(_lapack("solve", g[0], m), np.linalg.solve(g[0], m))


def test_a_singular_system_raises_linalgerror_like_numpy():
    g = np.array([[[1.0, 2.0], [2.0, 4.0]], [[2.0, 0.0], [0.0, 1.0]]])
    rhs = np.ones((2, 2, 1))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(g, rhs)
    with pytest.raises(np.linalg.LinAlgError):
        _lapack("solve", g, rhs)


def test_a_failure_leaves_no_floating_point_state_behind():
    with pytest.raises(np.linalg.LinAlgError):
        _lapack("solve", np.zeros((1, 2, 2)), np.ones((1, 2, 1)))
    assert np.geterr()["invalid"] == "warn"
    assert np.geterrcall() is None


def test_a_fitted_stack_calls_no_numpy_linalg_wrapper(monkeypatch):
    ds = synthetic_face_fixture(12, 10, seed=5)
    plan = make_group_splits(ds, groups=6, train=3, seed=5)
    images = group_tensor(ds, [q for g in plan.train_groups for q in plan.members[g]])[0]
    stack = DenseTensor(images.values.reshape(12, 10, -1, len(plan.train_groups), order="F"))
    calls = []
    for name in ("eigvalsh", "solve"):
        wrapped = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _f=wrapped, _n=name, **k: calls.append(_n) or _f(*a, **k))
    cfgs = [DecompConfig(max_sweeps=20, seed=s) for s in range(len(plan.train_groups))]
    results = decomp._ll1_stack(stack, [1, 1], cfgs)
    assert calls == []
    assert all(r.diagnostics.sweeps >= 2 for r in results)


def test_cpd_calls_no_numpy_linalg_wrapper(monkeypatch):
    calls = []
    for name in ("eigvalsh", "solve"):
        wrapped = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _f=wrapped, _n=name, **k: calls.append(_n) or _f(*a, **k))
    t = DenseTensor(np.random.default_rng(3).random((5, 4, 6)))
    decomp.cpd_als(t, 2, DecompConfig(max_sweeps=5))
    nnls_multi(np.eye(3), np.ones((3, 2)))
    assert calls == []
