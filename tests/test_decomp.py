import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_ll1_invariants
from tensplit import decomp
from tensplit.core import DenseTensor, khatri_rao, norm_frobenius, unfold
from tensplit.dataset import synthetic_face_fixture
from tensplit.decomp import (
    BlockTerm,
    DecompConfig,
    KruskalFactors,
    LL1Factors,
    TuckerFactors,
    cpd_als,
    fit_error,
    greedy_cosine_match,
    hosvd,
    ll1_nn,
    load_factors,
    reconstruct,
    save_factors,
)
from tensplit.dtf import DtfFormatError
from tensplit.kernels import nnls_multi, pinv


def kruskal_by_triple_sum(factors, weights):
    """Reference reconstruction: explicit sum over components and indices."""
    shape = tuple(f.shape[0] for f in factors)
    out = np.zeros(shape)
    for r in range(weights.size):
        term = weights[r] * factors[0][:, r]
        for f in factors[1:]:
            term = np.multiply.outer(term, f[:, r])
        out += term
    return out


def ll1_by_triple_sum(terms):
    o, p, q = terms[0].a.shape[0], terms[0].b.shape[0], terms[0].c.size
    out = np.zeros((o, p, q))
    for t in terms:
        for l in range(t.block_rank):
            out += t.weights[l] * np.einsum(
                "i,j,k->ijk", t.a[:, l], t.b[:, l], t.c
            )
    return out


def ll1_dense_residual_fits(t, ranks, seed, sweeps):
    """Reference fit history of the block-term sweep from random init, with
    each term's A/B update regressing the dense residual left by the other
    terms on the Khatri-Rao product of a column-tiled mixing vector.
    Assumes no factor column collapses to zero (that draws random columns)."""
    arr = t.values
    O, P, Q = t.shape
    rng = np.random.default_rng(seed)
    a, b, c = [], [], []
    for L in ranks:
        a.append(rng.standard_normal((O, L)))
        b.append(rng.standard_normal((P, L)))
        c.append(rng.uniform(0.0, 1.0, size=Q))
    w = []
    for k in range(len(ranks)):
        na, nb, nc = (np.linalg.norm(m, axis=0) for m in (a[k], b[k], c[k]))
        a[k], b[k], c[k] = a[k] / na, b[k] / nb, c[k] / nc
        w.append(na * nb * nc)

    def slice_of(n):
        return (a[n] * w[n]) @ b[n].T

    def term(n):
        return slice_of(n)[:, :, None] * c[n][None, None, :]

    x3 = unfold(t, 2)
    fits = []
    for _ in range(sweeps):
        for k, L in enumerate(ranks):
            res = DenseTensor(arr - sum(term(n) for n in range(len(ranks)) if n != k))
            ck_rep = np.tile(c[k][:, None], (1, L))
            kr = khatri_rao(ck_rep, b[k])
            a_hat = unfold(res, 0) @ kr @ pinv(kr.T @ kr)
            kr = khatri_rao(ck_rep, a_hat)
            b_hat = unfold(res, 1) @ kr @ pinv(kr.T @ kr)

            slices = [slice_of(n) for n in range(len(ranks))]
            slices[k] = a_hat @ b_hat.T
            mixing = nnls_multi(np.column_stack([s.ravel(order="F") for s in slices]),
                                x3.T)
            na, nb = np.linalg.norm(a_hat, axis=0), np.linalg.norm(b_hat, axis=0)
            a[k], b[k] = a_hat / na, b_hat / nb
            for n in range(len(ranks)):
                gamma = np.linalg.norm(mixing[n])
                c[n] = mixing[n] / gamma
                w[n] = na * nb * gamma if n == k else w[n] * gamma
        recon = sum(term(n) for n in range(len(ranks)))
        fits.append(np.linalg.norm(arr - recon) / np.linalg.norm(arr))
    return fits


def cpd_khatri_rao_fits(t, rank, cfg):
    """Reference fit history of cfg.max_sweeps CPD sweeps, each mode update
    regressing its unfolding on the Khatri-Rao product of the other two
    factors, with the fit taken from the dense reconstruction.  A zero
    column is replaced by a random unit column, drawn as cpd_als draws it."""
    arr = t.values
    I, J, K = t.shape
    rng = np.random.default_rng(cfg.seed)

    def unit_columns(m):
        norms = np.linalg.norm(m, axis=0)
        m = m / np.where(norms == 0.0, 1.0, norms)
        for j in np.flatnonzero(norms == 0.0):
            col = rng.standard_normal(m.shape[0])
            m[:, j] = col / np.linalg.norm(col)
        return m, norms

    if cfg.init == "random":
        a = rng.standard_normal((I, rank))
        b = rng.standard_normal((J, rank))
        c = rng.uniform(0.0, 1.0, size=(K, rank))
    else:
        a, b, c = (np.linalg.svd(unfold(t, n), full_matrices=False)[0][:, :rank]
                   for n in range(3))
        # a column that clips to all zeros is negated first, as in cpd_als
        flip = ~np.clip(c, 0.0, None).any(axis=0)
        c = np.clip(np.where(flip, -c, c), 0.0, None)
    x1, x2, x3 = (unfold(t, n) for n in range(3))
    fits = []
    for _ in range(cfg.max_sweeps):
        a, _ = unit_columns(x1 @ khatri_rao(c, b) @ pinv((c.T @ c) * (b.T @ b)))
        b, _ = unit_columns(x2 @ khatri_rao(c, a) @ pinv((c.T @ c) * (a.T @ a)))
        c, w = unit_columns(x3 @ khatri_rao(b, a) @ pinv((b.T @ b) * (a.T @ a)))
        recon = kruskal_by_triple_sum([a, b, c], w)
        fits.append(np.linalg.norm(arr - recon) / np.linalg.norm(arr))
    return fits


def random_orthonormal(rng, rows, cols):
    m = rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(m)
    return q[:, :cols]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecompConfig(max_sweeps=0)
        with pytest.raises(ValueError):
            DecompConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            DecompConfig(init="magic")

    @pytest.mark.parametrize("cap", [2.5, 2.0, True, False, "3"])
    def test_sweep_cap_must_be_an_integer(self, cap):
        # a fractional cap was never reached by ll1_nn and broke range() in
        # cpd_als; True ran one sweep
        with pytest.raises(ValueError, match="max_sweeps must be a positive integer"):
            DecompConfig(max_sweeps=cap)

    def test_numpy_integer_sweep_cap(self):
        t = DenseTensor(np.random.default_rng(0).uniform(0.1, 1.0, (4, 3, 5)))
        cfg = DecompConfig(max_sweeps=np.int64(3), rel_tol=1e-300)
        assert cpd_als(t, 2, cfg).diagnostics.sweeps == 3
        assert ll1_nn(t, [1, 1], cfg).diagnostics.sweeps == 3


class TestReconstruct:
    def test_kruskal_matches_triple_sum(self):
        rng = np.random.default_rng(0)
        factors = [rng.standard_normal((n, 3)) for n in (4, 5, 6)]
        weights = rng.uniform(0.5, 2.0, size=3)
        f = KruskalFactors(factors=factors, weights=weights)
        want = kruskal_by_triple_sum(factors, weights)
        assert np.max(np.abs(reconstruct(f).to_array() - want)) < 1e-12

    def test_ll1_matches_triple_sum(self):
        rng = np.random.default_rng(1)
        terms = []
        for L in (2, 1):
            terms.append(
                BlockTerm(
                    a=rng.standard_normal((4, L)),
                    b=rng.standard_normal((5, L)),
                    c=rng.uniform(0.0, 1.0, size=6),
                    weights=rng.uniform(0.5, 2.0, size=L),
                )
            )
        f = LL1Factors(terms=terms, fit_history=[])
        want = ll1_by_triple_sum(terms)
        assert np.max(np.abs(reconstruct(f).to_array() - want)) < 1e-12

    def test_tucker_identity_core(self):
        rng = np.random.default_rng(2)
        core = DenseTensor(rng.standard_normal((3, 3, 3)))
        f = TuckerFactors(core=core, factors=[np.eye(3)] * 3)
        assert reconstruct(f) == core

    def test_type_error(self):
        with pytest.raises(TypeError):
            reconstruct(object())

    def test_kruskal_needs_three_factors(self):
        with pytest.raises(ValueError, match="3 factor matrices, got 2"):
            KruskalFactors(factors=[np.ones((2, 1))] * 2, weights=np.ones(1))

    def test_fit_error_shape_mismatch(self):
        f = KruskalFactors(
            factors=[np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1))],
            weights=np.ones(1),
        )
        with pytest.raises(ValueError):
            fit_error(DenseTensor(np.zeros((2, 2, 3))), f)


class TestCpdAls:
    def test_rank1_exact_recovery(self):
        rng = np.random.default_rng(3)
        a, b, c = rng.standard_normal(8), rng.standard_normal(9), rng.standard_normal(10)
        t = DenseTensor(np.einsum("i,j,k->ijk", a, b, c))
        f = cpd_als(t, 1, DecompConfig(seed=0, max_sweeps=200))
        assert fit_error(t, f) < 1e-8
        for est, ref in zip(f.factors, (a, b, c)):
            cos = abs(est[:, 0] @ ref) / np.linalg.norm(ref)
            assert cos > 1 - 1e-6

    def test_rank2_orthogonal_recovery(self):
        rng = np.random.default_rng(4)
        mats = [random_orthonormal(rng, n, 2) for n in (8, 9, 10)]
        weights = np.array([3.0, 1.0])
        t = DenseTensor(kruskal_by_triple_sum(mats, weights))
        f = cpd_als(t, 2, DecompConfig(seed=1, max_sweeps=300))
        assert fit_error(t, f) < 1e-8
        for est, ref in zip(f.factors, mats):
            scores, _ = greedy_cosine_match(est, ref)
            assert np.min(scores) > 1 - 1e-6

    def test_unit_columns_and_nonneg_weights(self):
        rng = np.random.default_rng(5)
        t = DenseTensor(rng.standard_normal((5, 6, 7)))
        f = cpd_als(t, 3, DecompConfig(seed=2, max_sweeps=50))
        for m in f.factors:
            assert np.max(np.abs(np.linalg.norm(m, axis=0) - 1.0)) < 1e-10
        assert np.all(f.weights >= 0.0)

    def test_fit_history_non_increasing(self):
        rng = np.random.default_rng(6)
        t = DenseTensor(rng.standard_normal((5, 6, 7)))
        f = cpd_als(t, 2, DecompConfig(seed=3, max_sweeps=60))
        h = f.diagnostics.fit_history
        assert len(h) >= 2
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_degenerate_rank_flag(self):
        t = DenseTensor(np.ones((2, 2, 2)))
        f = cpd_als(t, 5, DecompConfig(seed=0, max_sweeps=5))
        assert "degenerate-rank" in f.diagnostics.flags

    def test_zero_tensor_gets_unit_columns_and_zero_weights(self):
        # every update is zero: each column is redrawn, flagged per mode
        f = cpd_als(DenseTensor(np.zeros((3, 4, 5))), 2, DecompConfig(seed=0))
        for m in f.factors:
            np.testing.assert_allclose(np.linalg.norm(m, axis=0), 1.0, rtol=1e-15)
        np.testing.assert_array_equal(f.weights, [0.0, 0.0])
        assert set(f.diagnostics.flags) == {"zero-column:mode0", "zero-column:mode1",
                                            "zero-column:mode2"}

    def test_hosvd_init_pads_missing_singular_vectors(self):
        # rank 5 exceeds every unfolding's rank of 2 x 3 x 4: zero columns pad
        # each mode's singular vectors, and the zero ones are redrawn
        t = DenseTensor(np.random.default_rng(3).uniform(0.0, 1.0, (2, 3, 4)))
        f = cpd_als(t, 5, DecompConfig(seed=2, max_sweeps=20, init="hosvd"))
        assert f.diagnostics.flags[0] == "degenerate-rank"
        assert "zero-column:mode0" in f.diagnostics.flags
        for m in f.factors:
            np.testing.assert_allclose(np.linalg.norm(m, axis=0), 1.0, rtol=1e-12)
        h = f.diagnostics.fit_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))

    def test_non_convergence_reported_not_raised(self):
        rng = np.random.default_rng(7)
        t = DenseTensor(rng.standard_normal((6, 6, 6)))
        f = cpd_als(t, 2, DecompConfig(seed=0, max_sweeps=2))
        assert f.diagnostics.converged is False
        assert f.diagnostics.sweeps == 2

    def test_hosvd_init(self):
        rng = np.random.default_rng(8)
        a, b, c = rng.standard_normal(6), rng.standard_normal(7), rng.standard_normal(8)
        t = DenseTensor(np.einsum("i,j,k->ijk", a, b, c))
        f = cpd_als(t, 1, DecompConfig(seed=0, init="hosvd"))
        assert fit_error(t, f) < 1e-8

    def test_hosvd_init_flips_all_negative_singular_vectors(self, face_stack):
        # the face stack's leading mode-2 singular vector is all <= 0; clipped
        # unflipped, it started C with a zero column and A, B with two more
        for rank in (4, 6, 8):
            f = cpd_als(face_stack, rank, DecompConfig(seed=0, max_sweeps=3, init="hosvd"))
            assert not [fl for fl in f.diagnostics.flags if fl.startswith("zero-column")]

    def test_extreme_scales_match_unscaled_fits(self):
        # the squares of entries times 2^-560 underflow, times 2^560 overflow
        arr = np.random.default_rng(3).standard_normal((4, 5, 6))
        cfg = DecompConfig(seed=3, max_sweeps=40)
        want = cpd_als(DenseTensor(arr), 2, cfg).diagnostics.fit_history
        for k in (-560, 560):
            t = DenseTensor(np.ldexp(arr, k))
            f = cpd_als(t, 2, cfg)
            assert len(f.diagnostics.fit_history) == len(want)
            np.testing.assert_allclose(f.diagnostics.fit_history, want, rtol=1e-10, atol=0)
            np.testing.assert_allclose(fit_error(t, f), want[-1], rtol=1e-10, atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cpd_als(DenseTensor(np.zeros((2, 2))), 1)
        with pytest.raises(ValueError):
            cpd_als(DenseTensor(np.zeros((2, 2, 2))), 0)


class TestHosvd:
    def test_full_rank_exact(self):
        rng = np.random.default_rng(9)
        t = DenseTensor(rng.standard_normal((5, 6, 7)))
        f = hosvd(t, (5, 6, 7))
        assert fit_error(t, f) < 1e-10
        for n, m in enumerate(f.factors):
            eye = np.eye(m.shape[1])
            assert np.max(np.abs(m.T @ m - eye)) < 1e-10

    def test_single_mode_truncation_error_is_sigma_tail(self):
        rng = np.random.default_rng(10)
        t = DenseTensor(rng.standard_normal((5, 6, 7)))
        s = np.linalg.svd(unfold(t, 0), compute_uv=False)
        for r in (1, 2, 4):
            f = hosvd(t, (r, 6, 7))
            err = fit_error(t, f) * norm_frobenius(t)
            want = float(np.sqrt(np.sum(s[r:] ** 2)))
            assert abs(err - want) < 1e-10

    def test_core_shape(self):
        rng = np.random.default_rng(11)
        t = DenseTensor(rng.standard_normal((5, 6, 7)))
        f = hosvd(t, (2, 3, 4))
        assert f.core.shape == (2, 3, 4)
        assert f.shape == (5, 6, 7)

    def test_validation(self):
        t = DenseTensor(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            hosvd(t, (1, 2))
        with pytest.raises(ValueError):
            hosvd(t, (1, 2, 4))
        with pytest.raises(ValueError):
            hosvd(DenseTensor(np.zeros((2, 2))), (1, 1))

    def test_rank_is_bounded_by_the_unfolding_rank(self):
        # the mode-0 unfolding of a 10 x 2 x 2 tensor has rank at most 4
        t = DenseTensor(np.random.default_rng(12).standard_normal((10, 2, 2)))
        with pytest.raises(ValueError, match=r"mlrank\[0\]=8 out of range 1\.\.4"):
            hosvd(t, (8, 2, 2))
        f = hosvd(t, (4, 2, 2))
        assert f.core.shape == (4, 2, 2)
        assert fit_error(t, f) < 1e-10


class TestLL1:
    def build_target(self, seed=12, q=7):
        rng = np.random.default_rng(seed)
        terms = []
        for L in (2, 1):
            a = random_orthonormal(rng, 8, L)
            b = random_orthonormal(rng, 9, L)
            c = rng.uniform(0.1, 1.0, size=q)
            c /= np.linalg.norm(c)
            terms.append(BlockTerm(a=a, b=b, c=c,
                                   weights=rng.uniform(1.0, 3.0, size=L)))
        f = LL1Factors(terms=terms, fit_history=[])
        return reconstruct(f), terms

    def test_recovery_and_invariants(self):
        t, _ = self.build_target()
        best = None
        for seed in range(6):
            f = ll1_nn(t, [2, 1], DecompConfig(seed=seed, max_sweeps=400))
            assert_ll1_invariants(f)
            if best is None or f.fit_history[-1] < best.fit_history[-1]:
                best = f
            if best.fit_history[-1] < 1e-8:
                break
        assert best.fit_history[-1] < 1e-6

    def test_rank1_target_single_term(self):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal(6), rng.standard_normal(7)
        c = rng.uniform(0.1, 1.0, size=5)
        t = DenseTensor(np.einsum("i,j,k->ijk", a, b, c))
        f = ll1_nn(t, [1], DecompConfig(seed=0, max_sweeps=200))
        assert_ll1_invariants(f)
        assert f.fit_history[-1] < 1e-8
        # the mixing vector matches c up to scale
        cos = abs(f.terms[0].c @ c) / np.linalg.norm(c)
        assert cos > 1 - 1e-8

    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(14)
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(6, 5, 4)))
        for seed in range(3):
            f = ll1_nn(t, [1, 1], DecompConfig(seed=seed, max_sweeps=40))
            assert_ll1_invariants(f)

    def test_sweep_cap_reported(self):
        rng = np.random.default_rng(15)
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(6, 5, 4)))
        f = ll1_nn(t, [1, 1], DecompConfig(seed=0, max_sweeps=3))
        assert f.diagnostics.sweeps == 3
        assert f.diagnostics.converged is False

    def test_hosvd_init(self):
        t, _ = self.build_target(seed=16)
        f = ll1_nn(t, [2, 1], DecompConfig(seed=0, max_sweeps=400, init="hosvd"))
        assert_ll1_invariants(f)

    def test_hosvd_init_takes_one_svd_per_mode(self, monkeypatch):
        t, _ = self.build_target(seed=16)
        shapes = []
        real_svd = decomp.svd

        def counting_svd(m):
            shapes.append(m.shape)
            return real_svd(m)

        monkeypatch.setattr(decomp, "svd", counting_svd)
        ll1_nn(t, [2, 1], DecompConfig(seed=0, max_sweeps=2, init="hosvd"))
        assert shapes == [(8, 63), (9, 56), (7, 72)]

    def test_four_terms_match_dense_residual_update(self):
        rng = np.random.default_rng(17)
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(7, 6, 9)))
        ranks = [2, 2, 2, 2]
        f = ll1_nn(t, ranks, DecompConfig(seed=3, max_sweeps=60, rel_tol=1e-300))
        assert_ll1_invariants(f)
        assert len(f.fit_history) == 60
        assert not [fl for fl in f.diagnostics.flags if fl.startswith("zero-column")]
        want = ll1_dense_residual_fits(t, ranks, seed=3, sweeps=20)
        np.testing.assert_allclose(f.fit_history[:20], want, rtol=0, atol=1e-10)

    def test_extreme_scales_agree(self):
        # inputs whose squares underflow or overflow are fitted in range
        arr = np.random.default_rng(3).standard_normal((4, 5, 6))
        cfg = DecompConfig(seed=3, max_sweeps=20)
        small, big = (ll1_nn(DenseTensor(np.ldexp(arr, k)), [2, 1], cfg) for k in (-560, 560))
        assert len(small.fit_history) == len(big.fit_history) == 20
        np.testing.assert_allclose(small.fit_history, big.fit_history, rtol=1e-10, atol=0)
        for f, k in ((small, -560), (big, 560)):
            assert_ll1_invariants(f)
            np.testing.assert_allclose(fit_error(DenseTensor(np.ldexp(arr, k)), f),
                                       f.fit_history[-1], rtol=1e-10, atol=0)

    def test_validation(self):
        t = DenseTensor(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            ll1_nn(t, [])
        with pytest.raises(ValueError):
            ll1_nn(t, [0])
        with pytest.raises(ValueError):
            ll1_nn(DenseTensor(np.zeros((2, 2))), [1])


def _counting(monkeypatch, name):
    calls = []
    real = getattr(decomp, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(decomp, name, counted)
    return calls


def _model_scale(f):
    """Sum of the norms of the model's terms: the S of the fit's rounding
    bound."""
    if isinstance(f, KruskalFactors):
        return float(np.sum(f.weights))
    return sum(float(np.linalg.norm(term.slice())) for term in f.terms)


def _assert_fit_matches_dense(t, f, history):
    """The recorded last fit against fit_error: the Gram-form expansion
    errs by an amount absolute in the squared fit, a small multiple of eps
    times (||T|| + S)^2 / ||T||^2."""
    fe = fit_error(t, f)
    scale = (1.0 + _model_scale(f) / norm_frobenius(t)) ** 2
    assert abs(history[-1] ** 2 - fe ** 2) <= 1e-12 * scale, (history[-1], fe)


@pytest.fixture(scope="module")
def face_stack():
    return synthetic_face_fixture(64, 64, seed=1, n_classes=4, per_class=10).tensor


class TestDimensionTree:
    """The CPD sweep contracts the input with one factor at a time."""

    def test_cpd_forms_no_khatri_rao(self, monkeypatch, face_stack):
        calls = _counting(monkeypatch, "khatri_rao")
        f = cpd_als(face_stack, 8, DecompConfig(seed=1, max_sweeps=30))
        assert f.diagnostics.sweeps == 30
        assert calls == []

    def test_matches_khatri_rao_sweep(self, face_stack):
        noise = DenseTensor(np.random.default_rng(17).standard_normal((7, 6, 9)))
        readme = synthetic_face_fixture(12, 10, seed=0).tensor  # 24 slices of 12 x 10
        wide = DenseTensor(np.random.default_rng(19).standard_normal((9, 5, 30)))
        # rank 5 over 2 x 2 slices: B^T B * A^T A is singular, so the C update takes pinv
        thin = DenseTensor(np.random.default_rng(23).standard_normal((2, 2, 9)))
        for t, rank, init in ((noise, 4, "random"), (face_stack, 8, "hosvd"),
                              (readme, 8, "random"), (wide, 4, "hosvd"), (thin, 5, "random")):
            cfg = DecompConfig(seed=5, max_sweeps=30, rel_tol=1e-300, init=init)
            f = cpd_als(t, rank, cfg)
            np.testing.assert_allclose(f.diagnostics.fit_history,
                                       cpd_khatri_rao_fits(t, rank, cfg), rtol=0, atol=1e-10)


class TestGramFit:
    """The per-sweep fit is taken in Gram form, with a dense fallback."""

    def test_cpd_builds_no_dense_model(self, monkeypatch, face_stack):
        calls = _counting(monkeypatch, "_model_x3")
        f = cpd_als(face_stack, 8, DecompConfig(seed=1, max_sweeps=30))
        assert f.diagnostics.sweeps == 30
        assert calls == []

    def test_ll1_builds_no_dense_model(self, monkeypatch, face_stack):
        calls = _counting(monkeypatch, "_model_x3")
        f = ll1_nn(face_stack, [2, 2, 2, 2], DecompConfig(seed=1, max_sweeps=10))
        assert f.diagnostics.sweeps == 10
        assert calls == []

    def test_every_sweep_takes_the_one_gram_fit(self, monkeypatch, face_stack):
        calls = _counting(monkeypatch, "_gram_fits")
        # fitted exactly, so every sweep then falls back to the dense fit
        rank1 = DenseTensor(np.einsum("i,j,k->ijk", *(np.arange(1.0, n) for n in (5, 6, 7))))
        runs = [cpd_als(face_stack, 8, DecompConfig(seed=1, max_sweeps=12)),
                ll1_nn(face_stack, [2, 2], DecompConfig(seed=1, max_sweeps=7)),
                cpd_als(rank1, 1, DecompConfig(seed=2, max_sweeps=9)),
                ll1_nn(rank1, [1], DecompConfig(seed=2, max_sweeps=9))]
        assert len(calls) == sum(f.diagnostics.sweeps for f in runs)

    def test_exact_fit_falls_back_to_dense(self):
        # the rank-1 tensors of AC1 are fitted far below what the expansion
        # resolves, so the last fit is the dense one bit for bit
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a, b, c = rng.standard_normal(8), rng.standard_normal(9), rng.standard_normal(10)
            t = DenseTensor(a[:, None, None] * b[None, :, None] * c[None, None, :])
            f = cpd_als(t, 1, DecompConfig(seed=seed, max_sweeps=200))
            assert f.diagnostics.fit_history[-1] == fit_error(t, f)

    def test_last_fit_matches_fit_error(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            t = DenseTensor(rng.standard_normal((5, 6, 7)))
            cfg = DecompConfig(seed=seed, max_sweeps=40)
            fc = cpd_als(t, 2 + seed % 2, cfg)
            fl = ll1_nn(t, [2, 1], cfg)
            for f, hist in ((fc, fc.diagnostics.fit_history), (fl, fl.fit_history)):
                np.testing.assert_allclose(hist[-1], fit_error(t, f), rtol=1e-12, atol=0)
        # the 64 x 64 x 40 fit stack of the cli-pipeline benchmark at seed 102:
        # rank-8 components that nearly cancel, weights summing to 12.5 ||T||.
        # ||T^||^2, summed in double, errs by about eps (sum w)^2, some 3e-10
        # of this fit of 0.0073
        ds = synthetic_face_fixture(64, 64, seed=102, n_classes=4, per_class=110)
        t = DenseTensor(ds.tensor.values[:, :, [q for q in range(440) if q % 110 < 10]])
        f = cpd_als(t, 8, DecompConfig(seed=102))
        np.testing.assert_allclose(f.diagnostics.fit_history[-1], fit_error(t, f), rtol=1e-9,
                                   atol=0)


_SMALL_CASES = dict(
    shape=st.tuples(*[st.integers(2, 6)] * 3),
    seed=st.integers(0, 2**32 - 1),
    sweeps=st.integers(1, 30),
    nonneg=st.booleans(),
)


def _small_tensor(shape, seed, nonneg):
    rng = np.random.default_rng(seed)
    return DenseTensor(rng.uniform(0.0, 1.0, shape) if nonneg else rng.standard_normal(shape))


def _assert_non_increasing(history):
    assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))


class TestSweepProperties:
    @given(rank=st.integers(1, 3), **_SMALL_CASES)
    def test_cpd(self, shape, seed, sweeps, nonneg, rank):
        t = _small_tensor(shape, seed, nonneg)
        f = cpd_als(t, rank, DecompConfig(seed=seed % 1000, max_sweeps=sweeps))
        _assert_non_increasing(f.diagnostics.fit_history)
        _assert_fit_matches_dense(t, f, f.diagnostics.fit_history)

    @given(ranks=st.lists(st.integers(1, 3), min_size=1, max_size=3), **_SMALL_CASES)
    def test_ll1(self, shape, seed, sweeps, nonneg, ranks):
        t = _small_tensor(shape, seed, nonneg)
        f = ll1_nn(t, ranks, DecompConfig(seed=seed % 1000, max_sweeps=sweeps))
        assert_ll1_invariants(f)
        _assert_fit_matches_dense(t, f, f.fit_history)


class TestGreedyMatch:
    def test_permutation_and_sign(self):
        rng = np.random.default_rng(17)
        ref = random_orthonormal(rng, 6, 3)
        est = ref[:, [2, 0, 1]] * np.array([1.0, -1.0, 1.0])
        scores, perm = greedy_cosine_match(est, ref)
        assert np.min(scores) > 1 - 1e-12
        assert list(perm) == [1, 2, 0]


class TestSerialization:
    def test_kruskal_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        t = DenseTensor(rng.standard_normal((4, 5, 6)))
        f = cpd_als(t, 2, DecompConfig(seed=1, max_sweeps=20))
        save_factors(f, tmp_path / "k")
        g = load_factors(tmp_path / "k")
        assert isinstance(g, KruskalFactors)
        for a, b in zip(f.factors, g.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(f.weights, g.weights)
        assert g.diagnostics.fit_history == f.diagnostics.fit_history
        assert g.diagnostics.seed == 1

    def test_tucker_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        t = DenseTensor(rng.standard_normal((4, 5, 6)))
        f = hosvd(t, (2, 3, 4))
        save_factors(f, tmp_path / "h")
        g = load_factors(tmp_path / "h")
        assert isinstance(g, TuckerFactors)
        assert g.core == f.core
        for a, b in zip(f.factors, g.factors):
            np.testing.assert_array_equal(a, b)

    def test_ll1_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(4, 5, 6)))
        f = ll1_nn(t, [2, 1], DecompConfig(seed=2, max_sweeps=15))
        save_factors(f, tmp_path / "l")
        g = load_factors(tmp_path / "l")
        assert isinstance(g, LL1Factors)
        assert g.fit_history == f.fit_history
        for ta, tb in zip(f.terms, g.terms):
            np.testing.assert_array_equal(ta.a, tb.a)
            np.testing.assert_array_equal(ta.b, tb.b)
            np.testing.assert_array_equal(ta.c, tb.c)
            np.testing.assert_array_equal(ta.weights, tb.weights)
        assert reconstruct(g) == reconstruct(f)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -5.0])
    def test_invalid_weights_are_rejected(self, tmp_path, weight):
        import json

        t = DenseTensor(np.random.default_rng(22).uniform(0.0, 1.0, size=(4, 5, 6)))
        cfg = DecompConfig(seed=0, max_sweeps=5)
        for name, f in (("cpd", cpd_als(t, 2, cfg)), ("ll1", ll1_nn(t, [2, 1], cfg))):
            save_factors(f, tmp_path / name)
            path = tmp_path / name / "manifest.json"
            manifest = json.loads(path.read_text())
            lam = manifest["lambda"]
            manifest["lambda"] = ([weight, *lam[1:]] if name == "cpd"
                                  else [[weight, *lam[0][1:]], *lam[1:]])
            path.write_text(json.dumps(manifest))
            with pytest.raises(DtfFormatError, match="lambda weights must be finite"):
                load_factors(tmp_path / name)

    def test_manifest_fields(self, tmp_path):
        import json

        rng = np.random.default_rng(21)
        t = DenseTensor(rng.uniform(0.0, 1.0, size=(4, 5, 6)))
        f = ll1_nn(t, [2, 1], DecompConfig(seed=3, max_sweeps=10))
        save_factors(f, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["type"] == "ll1"
        assert manifest["K"] == 2
        assert manifest["ranks"] == [2, 1]
        assert len(manifest["lambda"]) == 2
        assert manifest["seed"] == 3
        assert manifest["sweeps"] == 10
