import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import nnls_bruteforce
from tensplit import kernels
from tensplit.kernels import (
    GRAM_COND_MAX,
    ConvergenceError,
    nnls,
    nnls_multi,
    pinv,
    svd,
)


def singular_values_by_charpoly(m):
    """Reference singular values: square roots of the eigenvalues of m^T m,
    found as roots of its characteristic polynomial."""
    g = m.T @ m
    eigs = np.roots(np.poly(g))
    eigs = np.sort(np.real(eigs))[::-1]
    return np.sqrt(np.clip(eigs, 0.0, None))


class TestSvd:
    def test_matches_charpoly_roots_2x2(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((2, 2))
            got = svd(m).s
            want = singular_values_by_charpoly(m)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_matches_charpoly_roots_3x3(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            got = svd(m).s
            want = singular_values_by_charpoly(m)
            assert np.max(np.abs(got - want)) < 1e-7

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((6, 4))
        res = svd(m)
        assert np.max(np.abs((res.u * res.s) @ res.v.T - m)) < 1e-12
        assert np.max(np.abs(res.u.T @ res.u - np.eye(4))) < 1e-12
        assert np.max(np.abs(res.v.T @ res.v - np.eye(4))) < 1e-12
        assert np.all(np.diff(res.s) <= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestPinv:
    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(3)
        for shape in [(5, 3), (3, 5), (4, 4)]:
            m = rng.standard_normal(shape)
            p = pinv(m)
            assert np.max(np.abs(m @ p @ m - m)) < 1e-10
            assert np.max(np.abs(p @ m @ p - p)) < 1e-10
            assert np.max(np.abs((m @ p).T - m @ p)) < 1e-10
            assert np.max(np.abs((p @ m).T - p @ m)) < 1e-10

    def test_rank_deficient(self):
        u = np.array([[1.0], [2.0]])
        m = u @ u.T  # rank 1
        p = pinv(m)
        assert np.max(np.abs(m @ p @ m - m)) < 1e-12

    def test_one_by_one_matches_svd_path(self):
        rng = np.random.default_rng(9)
        mags = 10.0 ** rng.uniform(-130.0, 130.0, size=2000)
        for x in np.concatenate([mags, -mags, [1.0, -1.0, 1e-129, 1e129]]):
            m = np.array([[x]])
            res = svd(m)
            inv = np.divide(1.0, res.s, out=np.zeros_like(res.s),
                            where=res.s > np.finfo(np.float64).eps * res.s[0])
            np.testing.assert_array_equal(pinv(m), (res.v * inv) @ res.u.T)

    def test_one_by_one_edge_cases(self):
        np.testing.assert_array_equal(pinv(np.zeros((1, 1))), np.zeros((1, 1)))
        np.testing.assert_array_equal(pinv(np.array([[1e200]])), np.array([[1e-200]]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                pinv(np.array([[bad]]))


class TestNnls:
    def test_known_unconstrained_case(self):
        # well-posed problem whose unconstrained optimum is positive
        a = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        y = np.array([3.0, 4.0, 5.0])
        x = nnls(a, y)
        np.testing.assert_allclose(x, [3.0, 2.0], atol=1e-12)

    def test_clamps_to_zero(self):
        a = np.array([[1.0], [0.0]])
        y = np.array([-2.0, 1.0])
        x = nnls(a, y)
        assert x[0] == 0.0  # exact zero, not merely small

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rng.standard_normal((6, 3))
            y = rng.standard_normal(6)
            x = nnls(a, y)
            assert np.all(x >= 0.0)
            r = y - a @ x
            assert abs(float(r @ r) - nnls_bruteforce(a, y)) < 1e-8

    def test_dual_feasibility_at_solution(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal((8, 4))
            y = rng.standard_normal(8)
            x = nnls(a, y)
            w = a.T @ (y - a @ x)
            # inactive coordinates have non-positive gradient direction
            assert np.max(w[x == 0.0], initial=-np.inf) <= 1e-8
            # active coordinates are stationary
            assert np.max(np.abs(w[x > 0.0]), initial=0.0) <= 1e-8

    def test_iteration_cap_raises(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([1.0, 1.0])
        with pytest.raises(ConvergenceError):
            nnls(a, y, max_iter=0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nnls(np.zeros((3, 2)), np.zeros(4))


def _ill_conditioned_design():
    """A non-singular design whose Gram matrix is too ill-conditioned to
    trust, with right-hand sides that end on different passive sets."""
    rng = np.random.default_rng(13)
    u, v, w = rng.standard_normal((3, 8))
    a = np.column_stack([u, u + 1e-6 * v, w])
    ys = np.column_stack([2.0 * u - w, w, u + 3.0 * w, -u,
                          a @ [0.0, 1.0, 0.5] + 1e-3 * rng.standard_normal(8),
                          rng.standard_normal(8)])
    return a, ys


def _columnwise_designs():
    """(name, a, ys, tol) batches whose columns take different paths
    through the active-set iteration."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((8, 4))
    supports = np.array([[1.0, 0.0, 0.0, 2.0, 0.5],
                         [0.0, 1.5, 0.0, 0.0, 0.5],
                         [0.0, 0.0, 1.0, 0.0, 0.5],
                         [0.0, 0.7, 0.0, 1.0, 0.5]])
    yield ("different passive sets", a,
           a @ supports + 1e-3 * rng.standard_normal((8, 5)), 1e-10)
    # at tol 0, rounding noise in the dual admits coordinates that make no
    # progress: without the shelf both designs cycle to ConvergenceError
    rng = np.random.default_rng(10)
    a = rng.standard_normal((6, 3))
    yield ("duplicated right-hand side, shelved admissions", a,
           np.column_stack([a[:, 0], a[:, 0], a @ [0.0, 1.0, 0.5]]), 0.0)
    rng = np.random.default_rng(1)
    a0 = rng.standard_normal((6, 2))
    yield ("duplicated design column, shelved admissions",
           np.column_stack([a0[:, 0], a0[:, 0], a0[:, 1]]),
           np.column_stack([a0 @ [1.0, 0.0], a0 @ [0.7, 0.3], -a0[:, 1]]), 0.0)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((7, 3))
    # a^T y = -1 componentwise, so x = 0 satisfies the optimality conditions
    zero = -a @ np.linalg.solve(a.T @ a, np.ones(3))
    yield ("all-zero solution", a,
           np.column_stack([zero, rng.standard_normal(7)]), 1e-10)
    for tol in (1e-10, 0.0):
        yield ("ill-conditioned, least-squares subproblems",
               *_ill_conditioned_design(), tol)


class TestNnlsMulti:
    def test_matches_columnwise(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 3))
        ys = rng.standard_normal((6, 5))
        out = nnls_multi(a, ys)
        assert out.shape == (3, 5)
        for j in range(5):
            np.testing.assert_array_equal(out[:, j], nnls(a, ys[:, j]))
        for name, a, ys, tol in _columnwise_designs():
            out = nnls_multi(a, ys, tol=tol)
            for j in range(ys.shape[1]):
                np.testing.assert_array_equal(out[:, j], nnls(a, ys[:, j], tol=tol),
                                              err_msg=name)
            if name == "different passive sets":
                assert len({tuple(col > 0.0) for col in out.T}) > 1
            if name == "all-zero solution":
                assert np.all(out[:, 0] == 0.0)
            if name.startswith("ill-conditioned"):
                assert np.linalg.cond(a.T @ a) > GRAM_COND_MAX
                assert len({tuple(col > 0.0) for col in out.T}) > 1

    def test_ill_conditioned_design_falls_back_to_lstsq(self):
        rng = np.random.default_rng(12)
        u, v, w = rng.standard_normal((3, 8))
        a = np.column_stack([u, u + 1e-6 * v, w])
        assert np.linalg.cond(a.T @ a) > GRAM_COND_MAX
        ys = np.column_stack([2.0 * u - w, rng.standard_normal(8)])
        out = nnls_multi(a, ys)
        assert np.all(out >= 0.0)
        assert out[2, 0] == 0.0  # exact zero, not merely small
        for j in range(ys.shape[1]):
            r = ys[:, j] - a @ out[:, j]
            assert abs(float(r @ r) - nnls_bruteforce(a, ys[:, j])) < 1e-8

    def test_tall_ill_conditioned_design_is_solved_on_its_qr_factor(self, monkeypatch):
        rng = np.random.default_rng(15)
        u, v, w, z = rng.standard_normal((4, 500))
        a = np.column_stack([u, u + 1e-6 * v, w, z])
        assert np.linalg.cond(a.T @ a) > GRAM_COND_MAX
        ys = np.column_stack([2.0 * u - w, a @ [0.0, 1.0, 0.5, 2.0],
                              a @ [1.0, 0.0, 0.0, -1.0] + 1e-3 * rng.standard_normal(500),
                              rng.standard_normal(500)])
        shapes = set()
        lstsq_passive = kernels._lstsq_passive

        def spy(design, b, passive):
            shapes.add(design.shape)
            return lstsq_passive(design, b, passive)

        monkeypatch.setattr(kernels, "_lstsq_passive", spy)
        out = nnls_multi(a, ys)
        assert shapes == {(4, 4)}
        assert np.all(out >= 0.0)
        for j in range(ys.shape[1]):
            y = ys[:, j]
            r = y - a @ out[:, j]
            assert abs(float(r @ r) - nnls_bruteforce(a, y)) <= 1e-8 * (1.0 + y @ y)

    def test_iteration_cap_raises(self):
        for a, ys in [(np.eye(2), np.ones((2, 3))), _ill_conditioned_design()]:
            with pytest.raises(ConvergenceError):
                nnls_multi(a, ys, max_iter=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        rng = np.random.default_rng(14)
        a, ys = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
        a_bad, ys_bad = a.copy(), ys.copy()
        a_bad[2, 1] = ys_bad[4, 0] = bad
        for a_in, ys_in in [(a, ys_bad), (a_bad, ys)]:
            with pytest.raises(ValueError, match="non-finite"):
                nnls_multi(a_in, ys_in)
            with pytest.raises(ValueError, match="non-finite"):
                nnls(a_in, ys_in[:, 0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            nnls_multi(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_empty_problems_have_empty_solutions(self):
        a, ys = np.ones((4, 3)), np.ones((4, 2))
        np.testing.assert_array_equal(nnls_multi(a, ys[:, :0]), np.zeros((3, 0)))
        np.testing.assert_array_equal(nnls_multi(a[:, :0], ys), np.zeros((0, 2)))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gram_matches_unscaled_problem(self):
        # a design times 2^k, whose Gram matrix overflows, has the unscaled
        # problem's solution times 2^-k exactly; so has a design times 2^-k
        # whose Gram matrix underflows, times 2^k
        for seed in range(60):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(4, 12)), int(rng.integers(2, 6))
            if seed % 2:
                a = rng.standard_normal((m, n))
                ys = rng.standard_normal((m, 2))
            else:
                a = rng.uniform(0.0, 1.0, size=(m, n))
                ys = a @ rng.uniform(-0.5, 1.0, size=(n, 2)) + 0.05 * rng.standard_normal((m, 2))
            want = nnls_multi(a, ys)
            for k in (515, int(rng.integers(516, 550)), 550):
                scaled = np.ldexp(a, k)
                assert not np.isfinite(scaled.T @ scaled).all()
                np.testing.assert_array_equal(nnls_multi(scaled, ys), np.ldexp(want, -k),
                                              err_msg=f"seed {seed}, scale 2^{k}")
                scaled = np.ldexp(a, -k)
                assert np.max(np.diag(scaled.T @ scaled)) < np.finfo(np.float64).tiny
                np.testing.assert_array_equal(nnls_multi(scaled, ys), np.ldexp(want, k),
                                              err_msg=f"seed {seed}, scale 2^-{k}")


class TestNnlsProperties:
    @given(rows=st.integers(3, 10), cols=st.integers(2, 5), rhs=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), nonneg=st.booleans(),
           k=st.one_of(st.integers(-560, 560), st.integers(500, 525), st.integers(-525, -500)))
    def test_matches_bruteforce(self, rows, cols, rhs, seed, nonneg, k):
        # k runs over every scale, and often across the ones where the
        # Gram matrix of a * 2^k starts to overflow or underflow; the
        # solution scales exactly, so the objective does not depend on k
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, (rows, cols)) if nonneg else rng.standard_normal((rows, cols))
        ys = rng.standard_normal((rows, rhs))
        x = nnls_multi(np.ldexp(a, k), ys)
        np.testing.assert_array_equal(x, np.ldexp(nnls_multi(a, ys), -k))
        assert np.all(x >= 0.0)
        for j in range(rhs):
            y = ys[:, j]
            r = y - a @ np.ldexp(x[:, j], k)
            assert abs(float(r @ r) - nnls_bruteforce(a, y)) <= 1e-8 * (1.0 + y @ y)
