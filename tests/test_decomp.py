import numpy as np
import pytest
from hypothesis import given, settings
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


class TestGramFit:
    """The per-sweep fit is taken in Gram form, with a dense fallback."""

    @pytest.fixture(scope="class")
    def face_stack(self):
        return synthetic_face_fixture(64, 64, seed=1, n_classes=4, per_class=10).tensor

    def test_cpd_builds_no_dense_model(self, monkeypatch, face_stack):
        calls = _counting(monkeypatch, "_kruskal_array")
        f = cpd_als(face_stack, 8, DecompConfig(seed=1, max_sweeps=30))
        assert f.diagnostics.sweeps == 30
        assert calls == []

    def test_ll1_builds_no_dense_model(self, monkeypatch, face_stack):
        calls = _counting(monkeypatch, "_ll1_array")
        f = ll1_nn(face_stack, [2, 2, 2, 2], DecompConfig(seed=1, max_sweeps=10))
        assert f.diagnostics.sweeps == 10
        assert calls == []

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
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rank=st.integers(1, 3), **_SMALL_CASES)
    def test_cpd(self, shape, seed, sweeps, nonneg, rank):
        t = _small_tensor(shape, seed, nonneg)
        f = cpd_als(t, rank, DecompConfig(seed=seed % 1000, max_sweeps=sweeps))
        _assert_non_increasing(f.diagnostics.fit_history)
        _assert_fit_matches_dense(t, f, f.diagnostics.fit_history)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
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
