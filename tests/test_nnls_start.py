"""The mixing NNLS's unconstrained first admission, against cold Lawson-Hanson.

`cold_nnls_stack` below is the Gram-form `kernels._nnls_stack` as it was
before its rows were first solved on the full passive set: every row with a
dual above `tol` at x = 0 starts Lawson-Hanson from zero and admits one
coordinate at a time.  It covers well-conditioned designs only, the path
the new start changes.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import tensplit.kernels as kernels
from tensplit.kernels import ConvergenceError


def cold_nnls_stack(a, yst, tol=1e-10, max_iter=None):
    n = a.shape[2]
    if max_iter is None:
        max_iter = max(30, 10 * n)
    shift = np.frexp(np.maximum.reduce(np.abs(a), axis=(1, 2)))[1]
    a = np.ldexp(a, -shift[:, None, None])
    g = np.matmul(a.swapaxes(1, 2), a)
    aty = np.matmul(np.ascontiguousarray(yst)[:, :, None, :], a[:, None])[:, :, 0, :]
    assert not kernels._ill_conditioned(g).any()
    n_rhs = aty.shape[1]
    x = cold_lawson_hanson(aty.reshape(-1, n), np.repeat(g, n_rhs, axis=0), tol, max_iter)
    return np.ldexp(x.reshape(aty.shape), -shift[:, None, None])


def cold_lawson_hanson(rhs, g, tol, max_iter):
    n_rows, n = rhs.shape
    eye = np.eye(n)
    out = np.zeros((n_rows, n))
    rows = np.arange(n_rows)
    x = np.zeros((n_rows, n))
    passive = np.zeros((n_rows, n), dtype=bool)
    blocked = np.zeros((n_rows, n), dtype=bool)
    outer = 0
    while True:
        w = rhs - np.matmul(x[:, None, :], g)[:, 0, :]
        w[passive | blocked] = -np.inf
        going = np.maximum.reduce(w, axis=1) > tol
        if not going.all():
            out[rows[~going]] = x[~going]
            if not going.any():
                return out
            rows, x, passive, blocked, w, rhs, g = (
                v[going] for v in (rows, x, passive, blocked, w, rhs, g))
        outer += 1
        if outer > max_iter:
            raise ConvergenceError("cap", index=int(rows[0]))
        j = w.argmax(axis=1)
        live = np.arange(rows.size)
        passive[live, j] = True
        x_before = x
        inner = 0
        while True:
            gm = np.where(passive[:, :, None] & passive[:, None, :], g, eye)
            z = np.linalg.solve(gm, np.where(passive, rhs, 0.0)[:, :, None])[:, :, 0]
            z = np.where(passive, z, 0.0)
            bad = passive & (z <= 0.0)
            if not bad.any():
                x = z
                break
            infeasible = bad.any(axis=1)
            inner += 1
            if inner > 3 * n:
                raise ConvergenceError("feasibility", index=int(rows[infeasible][0]))
            denom = x - z
            steps = np.divide(x, denom, out=np.where(bad, 0.0, np.inf),
                              where=bad & (denom > 0.0))
            alpha = np.where(infeasible, steps.min(axis=1), 0.0)
            x = np.where(infeasible[:, None], x + alpha[:, None] * (z - x), z)
            drop = passive & (x <= tol) & infeasible[:, None]
            x[drop] = 0.0
            passive &= ~drop
            x[~passive.any(axis=1)] = 0.0
        stuck = np.logical_and.reduce(x == x_before, axis=1)
        if stuck.any():
            shelved, js = live[stuck], j[stuck]
            passive[shelved, js] = False
            x[shelved, js] = 0.0
            blocked[shelved, js] = True
        blocked &= stuck[:, None]
        if outer >= n and passive.all():
            out[rows] = x
            return out


def _objectives(a, yst, x):
    r = yst - np.matmul(x, a.swapaxes(1, 2))
    return np.sum(r * r, axis=2)


shapes = dict(designs=st.integers(1, 5), rows=st.integers(4, 12), cols=st.integers(1, 5),
              rhs=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
              shift=st.sampled_from([0, -40, 35]))


class TestUnconstrainedStart:
    @given(**shapes)
    def test_positive_optima_equal_cold_lawson_hanson(self, designs, rows, cols, rhs,
                                                      seed, shift):
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.standard_normal((designs, rows, cols)), shift)
        # optima in [0.5, 1.5], moved by noise far smaller than that margin
        x_true = rng.uniform(0.5, 1.5, (designs, rhs, cols))
        yst = np.matmul(x_true, a.swapaxes(1, 2))
        yst += 1e-3 * np.ldexp(rng.standard_normal(yst.shape), shift)
        g = a.swapaxes(1, 2) @ a
        assume(not kernels._ill_conditioned(np.ldexp(g, -2 * shift)).any())
        unconstrained = np.linalg.solve(g[:, None], (yst @ a)[..., None])[..., 0]
        assume((unconstrained > 0.1).all())
        got = kernels._nnls_stack(a, yst)
        assert got.tobytes() == cold_nnls_stack(a, yst).tobytes()

    @given(**shapes)
    def test_mixed_stacks_reach_the_same_objective(self, designs, rows, cols, rhs, seed,
                                                   shift):
        rng = np.random.default_rng(seed)
        a = np.ldexp(rng.standard_normal((designs, rows, cols)), shift)
        yst = rng.standard_normal((designs, rhs, rows))
        assume(not kernels._ill_conditioned(a.swapaxes(1, 2) @ np.ldexp(a, -2 * shift)).any())
        got = kernels._nnls_stack(a, yst)
        want = cold_nnls_stack(a, yst)
        assert (got >= 0.0).all()
        np.testing.assert_allclose(_objectives(a, yst, got), _objectives(a, yst, want),
                                   rtol=0.0, atol=1e-8)

    def test_mixed_stacks_clip_and_settle(self):
        # the property above covers both kinds of row: some clip to zero,
        # some are settled by the first solve
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 10, 4))
        yst = rng.standard_normal((4, 6, 10))
        got = kernels._nnls_stack(a, yst)
        assert (got == 0.0).any(axis=2).any() and (got > 0.0).all(axis=2).any()
        np.testing.assert_allclose(_objectives(a, yst, got),
                                   _objectives(a, yst, cold_nnls_stack(a, yst)),
                                   rtol=0.0, atol=1e-8)

    def test_cap_names_the_design_lawson_hanson_fails_on(self):
        a = np.stack([np.vstack([np.eye(3), np.eye(3)]) / 2.0] * 2)
        # design 0's optima are positive: one solve, one admission; design
        # 1's are [1, 0.5, 0], which take cold Lawson-Hanson two admissions
        yst = np.stack([np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]]) @ a[0].T,
                        np.array([[1.0, 0.5, -1.0], [1.0, 0.5, -2.0]]) @ a[1].T])
        with pytest.raises(ConvergenceError) as info:
            kernels._nnls_stack(a, yst, max_iter=1)
        assert info.value.index == 1
        got = kernels._nnls_stack(a, yst, max_iter=2)
        np.testing.assert_allclose(got[1], [[1.0, 0.5, 0.0], [1.0, 0.5, 0.0]])
        assert (got[1, :, 2] == 0.0).all()
