"""The stacked LL1 fit and the stacked NNLS it runs on.

`ll1_per_tensor` below is the one-tensor LL1 sweep written out as it was
before the sweep was stacked: every numpy call on one tensor's 2-D arrays,
with `nnls_multi` and `pinv` called per tensor.  The stacked fit of an
O x P x Q x d tensor must give its results bit for bit, for each of the d
ensembles of any stack.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tensplit.decomp as decomp
import tensplit.features as features_mod
import tensplit.kernels as kernels
from conftest import assert_ll1_invariants
from tensplit.classify import ExperimentConfig, run_experiment
from tensplit.core import DenseTensor, unfold
from tensplit.dataset import group_tensor, make_group_splits, synthetic_face_fixture
from tensplit.decomp import DecompConfig, ll1_nn
from tensplit.features import fit_feature_bank
from tensplit.kernels import ConvergenceError, nnls_multi, pinv

_EPS = np.finfo(np.float64).eps


def _unit_columns(m, rng, flags, what):
    norms = np.linalg.norm(m, axis=0)
    if norms.all():
        return m / norms, norms
    zero = norms == 0.0
    out = np.divide(m, norms, out=np.empty_like(m), where=~zero)
    for j in np.flatnonzero(zero):
        col = rng.standard_normal(m.shape[0])
        out[:, j] = col / np.linalg.norm(col)
        flags.append(f"zero-column:{what}")
    return out, norms


def _unit_nonneg(v, rng, flags, what):
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        col = rng.uniform(0.0, 1.0, size=v.size) + _EPS
        flags.append(f"zero-column:{what}")
        return col / np.linalg.norm(col), 0.0
    return v / norm, norm


def ll1_per_tensor(t, ranks, cfg):
    """Oracle: the LL1 sweep of one tensor, one 2-D numpy call at a time."""
    norm_t = decomp.norm_frobenius(t)
    shift = 0 if 2.0 ** -500 <= norm_t <= 2.0 ** 500 else math.frexp(norm_t)[1]
    if shift:
        t = DenseTensor(np.ldexp(t.values, -shift))
        norm_t = decomp.norm_frobenius(t)
    rng = np.random.default_rng(cfg.seed)
    flags = []
    O, P, Q = t.shape
    n_terms = len(ranks)
    a_mats, b_mats, c_vecs, w_vecs = [], [], [], []
    if cfg.init == "random":
        for L in ranks:
            a_mats.append(rng.standard_normal((O, L)))
            b_mats.append(rng.standard_normal((P, L)))
            c_vecs.append(rng.uniform(0.0, 1.0, size=Q))
    else:
        total = sum(ranks)
        ua, ub, uc = decomp._hosvd_factor_init(t, [total, total, n_terms])
        offset = 0
        for k, L in enumerate(ranks):
            a_mats.append(ua[:, offset:offset + L].copy())
            b_mats.append(ub[:, offset:offset + L].copy())
            ck = np.clip(uc[:, k], 0.0, None)
            if not ck.any():
                ck = np.clip(-uc[:, k], 0.0, None)
            c_vecs.append(ck)
            offset += L
    for k in range(n_terms):
        a_mats[k], na = _unit_columns(a_mats[k], rng, flags, f"init-a{k}")
        b_mats[k], nb = _unit_columns(b_mats[k], rng, flags, f"init-b{k}")
        c_vecs[k], nc = _unit_nonneg(c_vecs[k], rng, flags, f"init-c{k}")
        w_vecs.append(np.abs(na) * np.abs(nb) * nc)

    def term_slice(n):
        return (a_mats[n] * w_vecs[n]) @ b_mats[n].T

    x3 = unfold(t, 2)
    norm_sq = float(np.sum(np.square(t.flat)))
    history = []
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        for k in range(n_terms):
            ck = c_vecs[k]
            slices = [term_slice(n) for n in range(n_terms)]
            m_k = np.reshape(ck @ x3, (O, P), order="F")
            for n in range(n_terms):
                if n != k:
                    m_k -= (c_vecs[n] @ ck) * slices[n]
            ck_sq = ck @ ck
            a_hat = m_k @ b_mats[k] @ pinv(ck_sq * (b_mats[k].T @ b_mats[k]))
            b_hat = m_k.T @ a_hat @ pinv(ck_sq * (a_hat.T @ a_hat))
            slices[k] = a_hat @ b_hat.T
            regressor = np.column_stack([s.ravel(order="F") for s in slices])
            mixing_raw = nnls_multi(regressor, x3.T)
            a_mats[k], na = _unit_columns(a_hat, rng, flags, f"a{k}")
            b_mats[k], nb = _unit_columns(b_hat, rng, flags, f"b{k}")
            for n in range(n_terms):
                cn, gamma = _unit_nonneg(mixing_raw[n], rng, flags, f"c{n}")
                c_vecs[n] = cn
                if n == k:
                    w_vecs[k] = np.abs(na) * np.abs(nb) * gamma
                else:
                    w_vecs[n] = w_vecs[n] * gamma
        # X_3 R as the last mixing solve forms it, one row at a time; the
        # solve scales R by 1 / scale to a peak in [0.5, 1), and the bound
        # counts its underflow as `decomp._ll1_stack` derives it
        xr = np.stack([row @ regressor for row in np.ascontiguousarray(x3)])
        s = 2.0 ** math.frexp(float(np.max(np.abs(regressor))))[1]
        underflow = (O * P * n_terms * (Q * (1.0 + norm_t) + 4 * n_terms * s) * s
                     + n_terms * (Q + n_terms))
        (fit,) = decomp._gram_fits(xr[None], (regressor.T @ regressor)[None], mixing_raw[None],
                                   [norm_sq], [norm_t], [history], t.size, O * P, [underflow])
        if fit is None:
            fit = decomp._relative_fit(x3, (regressor @ mixing_raw).T, norm_t)
        history.append(fit)
        if decomp._converged(history, cfg.rel_tol):
            converged = True
            break
    for k in range(n_terms):
        if np.any(c_vecs[k] == 0.0):
            flags.append(f"zero-mixing-entries:term{k}")
    terms = [(a_mats[k], b_mats[k], c_vecs[k], np.ldexp(w_vecs[k], shift))
             for k in range(n_terms)]
    return terms, history, sweeps, converged, flags


def assert_same_fit(f, want):
    """f, an LL1Factors, equals the oracle's result bit for bit."""
    terms, history, sweeps, converged, flags = want
    assert f.fit_history == history
    assert f.diagnostics.fit_history == history
    assert (f.diagnostics.sweeps, f.diagnostics.converged) == (sweeps, converged)
    assert f.diagnostics.flags == flags
    for term, (a, b, c, w) in zip(f.terms, terms, strict=True):
        for got, ref in ((term.a, a), (term.b, b), (term.c, c), (term.weights, w)):
            assert got.tobytes() == ref.tobytes()
            assert got.shape == ref.shape


def stack(ts):
    """The order-4 stack of same-shape order-3 tensors, ensemble index last."""
    return DenseTensor(np.stack([t.values for t in ts], axis=3))


def ensembles(t):
    """The order-3 ensembles of an order-4 stack, each as its own tensor."""
    return [DenseTensor(t.values[:, :, :, g]) for g in range(t.shape[3])]


def fixture_groups(seed, n_groups=6, train=3):
    """The training groups of a fixture split, as one order-4 stack."""
    ds = synthetic_face_fixture()
    plan = make_group_splits(ds, n_groups, train, seed=seed)
    return stack([group_tensor(ds, plan.members[g])[0] for g in plan.train_groups])


def _lstsq_spy(monkeypatch):
    """Designs solved by least squares rather than in Gram form."""
    shapes = []
    real = kernels._lstsq_passive

    def spy(a, b, passive):
        shapes.append(a.shape)
        return real(a, b, passive)

    monkeypatch.setattr(kernels, "_lstsq_passive", spy)
    return shapes


class TestStackedFit:
    def check(self, ts, ranks, cfgs):
        fits = decomp._ll1_stack(ts, ranks, cfgs)
        for t, cfg, f in zip(ensembles(ts), cfgs, fits, strict=True):
            want = ll1_per_tensor(t, ranks, cfg)
            assert_same_fit(f, want)
            assert_same_fit(ll1_nn(t, ranks, cfg), want)
        return fits

    def test_groups_converging_at_different_sweeps(self):
        for seed, ranks in ((3, [1, 1]), (1, [2, 1]), (7, [2, 1])):
            cfgs = [DecompConfig(seed=10 * seed + g, max_sweeps=200) for g in range(3)]
            fits = self.check(fixture_groups(seed), ranks, cfgs)
            assert len({f.diagnostics.sweeps for f in fits}) > 1

    def test_hosvd_init(self):
        ts = fixture_groups(3)
        cfgs = [DecompConfig(seed=g, max_sweeps=100, init="hosvd") for g in range(3)]
        for ranks in ([1, 1], [2, 1]):
            self.check(ts, ranks, cfgs)

    def test_zero_columns_ill_conditioning_and_scales_in_one_stack(self, monkeypatch):
        rng = np.random.default_rng(3)
        rank1 = np.multiply.outer(np.outer(rng.uniform(0.5, 1, 6), rng.uniform(0.5, 1, 5)),
                                  rng.uniform(0.5, 1, 4))
        base = np.random.default_rng(5).uniform(0.1, 1.0, (6, 5, 4))
        arrays = [base, rank1, np.ldexp(base, -560), np.ldexp(base, 560)]
        ts = DenseTensor(np.stack(arrays, axis=3))
        cfgs = [DecompConfig(seed=s, max_sweeps=40) for s in (0, 3, 0, 0)]
        lstsq = _lstsq_spy(monkeypatch)
        fits = decomp._ll1_stack(ts, [1, 1, 1], cfgs)
        assert lstsq, "no group reached the least-squares NNLS path"
        drew = [any(fl.startswith("zero-column") for fl in f.diagnostics.flags) for f in fits]
        assert drew == [False, True, False, False]
        monkeypatch.undo()
        self.check(ts, [1, 1, 1], cfgs)
        # both extreme scales are fitted as the same in-range tensor
        assert fits[2].fit_history == fits[3].fit_history
        for f in fits:
            assert_ll1_invariants(f)
        # an all-zero tensor draws every column and records absolute fits
        ts = DenseTensor(np.stack([base, np.zeros((6, 5, 4))], axis=3))
        fits = self.check(ts, [2, 1], cfgs[:2])
        assert fits[1].fit_history[-1] == 0.0
        assert "zero-column:a0" in fits[1].diagnostics.flags

    def test_fallback_fits_match_per_tensor(self, monkeypatch):
        # at rel_tol 1e-300 the fits of these groups settle below what the
        # Gram form resolves, so some sweeps take the fit from R M
        calls = []
        real = decomp._model_x3

        def counted(regressor, mixing):
            calls.append(1)
            return real(regressor, mixing)

        monkeypatch.setattr(decomp, "_model_x3", counted)
        ts = fixture_groups(1)
        cfgs = [DecompConfig(seed=10 + g, max_sweeps=200, rel_tol=1e-300) for g in range(3)]
        fits = decomp._ll1_stack(ts, [2, 1], cfgs)
        monkeypatch.undo()
        assert calls, "no sweep took the residual fallback"
        for t, cfg, f in zip(ensembles(ts), cfgs, fits, strict=True):
            assert_same_fit(f, ll1_per_tensor(t, [2, 1], cfg))

    def test_two_block_ranks_and_sweep_caps(self):
        rng = np.random.default_rng(9)
        ts = DenseTensor(rng.uniform(0.0, 1.0, (7, 6, 5, 4)))
        cfgs = [DecompConfig(seed=s, max_sweeps=m, rel_tol=1e-300)
                for s, m in ((1, 5), (2, 30), (3, 1), (4, 30))]
        fits = self.check(ts, [2, 1], cfgs)
        assert [f.diagnostics.sweeps for f in fits] == [5, 30, 1, 30]

    def test_validation(self):
        one, two = DenseTensor(np.ones((3, 3, 2))), DenseTensor(np.ones((3, 3, 2, 2)))
        with pytest.raises(ValueError, match="stack of 2 ensembles needs 2 configs, got 1"):
            decomp._ll1_stack(two, [1], [DecompConfig()])
        with pytest.raises(ValueError, match="stack of 1 ensembles needs 1 configs, got 2"):
            decomp._ll1_stack(one, [1], [DecompConfig()] * 2)
        for order in (2, 5):
            t = DenseTensor(np.ones((3,) * order))
            with pytest.raises(ValueError, match=f"got order {order}"):
                decomp._ll1_stack(t, [1], [DecompConfig()])
        with pytest.raises(ValueError, match="order-3 tensor, got order 4"):
            ll1_nn(two, [1])
        # fit_feature_bank: one config per ensemble of the stack
        with pytest.raises(ValueError, match="stack of 1 ensembles needs 1 configs, got 2"):
            fit_feature_bank(one, [1], [DecompConfig()] * 2)
        for cfg in (None, DecompConfig()):
            with pytest.raises(ValueError, match="stack of 2 ensembles needs 2 configs, got 1"):
                fit_feature_bank(two, [1], cfg)
        with pytest.raises(ValueError, match="stack of 2 ensembles needs 2 configs, got 3"):
            fit_feature_bank(two, [1], [DecompConfig()] * 3)
        # the stack of one is the order-3 tensor
        alone = decomp._ll1_stack(DenseTensor(one.values[:, :, :, None]), [1],
                                  [DecompConfig(max_sweeps=5)])
        assert_same_fit(alone[0], ll1_per_tensor(one, [1], DecompConfig(max_sweeps=5)))

    def test_convergence_error_names_the_tensor(self, monkeypatch):
        real = kernels._nnls_stack

        def stall_second(a, yst, *args):
            if a.shape[0] > 1:
                raise ConvergenceError("stalled", index=1)
            return real(a, yst, *args)

        monkeypatch.setattr(decomp, "_nnls_stack", stall_second)
        ts = fixture_groups(0)
        with pytest.raises(ConvergenceError, match="term 0: stalled") as info:
            decomp._ll1_stack(ts, [1, 1], [DecompConfig(seed=g) for g in range(3)])
        assert info.value.index == 1
        # a tensor that has left the stack no longer counts
        cfgs = [DecompConfig(seed=0, max_sweeps=1)] + [DecompConfig(seed=g) for g in (1, 2)]
        calls = []

        def stall_late(a, yst, *args):
            calls.append(a.shape[0])
            if a.shape[0] == 2:
                raise ConvergenceError("stalled", index=1)
            return real(a, yst, *args)

        monkeypatch.setattr(decomp, "_nnls_stack", stall_late)
        with pytest.raises(ConvergenceError) as info:
            decomp._ll1_stack(ts, [1, 1], cfgs)
        assert calls == [3, 3, 2] and info.value.index == 2


def _handoff_spy(monkeypatch):
    """Record each mixing solve of the LL1 sweep, with a copy of its design
    (the sweep rewrites R in place), and each `_gram_fits` call with the
    last solve before it."""
    solves, handed = [], []
    real_solve, real_fits = kernels._nnls_stack, decomp._gram_fits

    def solve(a, yst, *args):
        out = real_solve(a, yst, *args)
        solves.append((a.copy(), yst, out))
        return out

    def fits(xr, gram, mixing, *args):
        handed.append((xr, gram, mixing, solves[-1]))
        return real_fits(xr, gram, mixing, *args)

    monkeypatch.setattr(decomp, "_nnls_stack", solve)
    monkeypatch.setattr(decomp, "_gram_fits", fits)
    return solves, handed


class TestMixingHandOff:
    """The per-sweep fit takes X_3 R and R^T R from the sweep's last mixing
    solve, which forms them on its design scaled by 2^shift: unscaled, they
    are R^T R as one matmul forms it and X_3 R one row at a time."""

    def check(self, monkeypatch, ts, ranks, cfgs, scaled=False):
        solves, handed = _handoff_spy(monkeypatch)
        fits = decomp._ll1_stack(ts, ranks, cfgs)
        monkeypatch.undo()
        sweeps = max(f.diagnostics.sweeps for f in fits)
        assert len(handed) == sweeps and len(solves) == len(ranks) * sweeps
        for sweep, (xr, gram, mixing, (a, x3, out)) in enumerate(handed):
            assert out is solves[len(ranks) * (sweep + 1) - 1][2]  # the sweep's last solve
            x, got_xr, got_gram, scale = out
            assert xr is got_xr and gram is got_gram
            assert mixing.tobytes() == np.ascontiguousarray(x.swapaxes(1, 2)).tobytes()
            want_xr = np.stack([[row @ r for row in np.ascontiguousarray(y)]
                                for y, r in zip(x3, a)])
            assert xr.tobytes() == want_xr.tobytes()
            assert gram.tobytes() == (a.swapaxes(1, 2) @ a).tobytes()
            peaks = np.abs(a).max(axis=(1, 2))
            assert (scale / 2 <= peaks).all() and (peaks < scale).all()
            if scaled:
                assert (np.abs(np.log2(scale)) >= 30).all()
        for t, cfg, f in zip(ensembles(ts), cfgs, fits, strict=True):
            assert_same_fit(f, ll1_per_tensor(t, ranks, cfg))
        return fits

    @pytest.mark.parametrize("ranks", [[1, 1], [2, 1]])
    def test_fixture_groups(self, monkeypatch, ranks):
        cfgs = [DecompConfig(seed=g, max_sweeps=30) for g in range(3)]
        self.check(monkeypatch, fixture_groups(3), ranks, cfgs)

    def test_groups_converging_at_different_sweeps(self, monkeypatch):
        cfgs = [DecompConfig(seed=10 + g, max_sweeps=200) for g in range(3)]
        fits = self.check(monkeypatch, fixture_groups(1), [2, 1], cfgs)
        assert len({f.diagnostics.sweeps for f in fits}) > 1

    @pytest.mark.parametrize("power", [-40, 40])
    def test_designs_far_from_unit_scale(self, monkeypatch, power):
        # in range, so the fit is not rescaled, but its R has a peak near 2^power
        ts = DenseTensor(np.ldexp(fixture_groups(3).values, power))
        cfgs = [DecompConfig(seed=g, max_sweeps=20) for g in range(3)]
        self.check(monkeypatch, ts, [2, 1], cfgs, scaled=True)


class TestFeatureBankList:
    def test_list_equals_single_fits_with_restarts(self):
        ts = fixture_groups(4)
        cfgs = [DecompConfig(seed=g, max_sweeps=60) for g in range(3)]
        banks = fit_feature_bank(ts, [1, 1], cfgs, n_restarts=3)
        for t, cfg, bank in zip(ensembles(ts), cfgs, banks, strict=True):
            one = fit_feature_bank(t, [1, 1], cfg, n_restarts=3)
            assert one.mixing.tobytes() == bank.mixing.tobytes()
            for s, s1 in zip(bank.slices, one.slices, strict=True):
                assert s.tobytes() == s1.tobytes()
            assert bank.source.fit_history == one.source.fit_history

    def test_harness_fits_keep_the_invariants(self, monkeypatch):
        runs = []
        real = decomp._ll1_stack

        def spy(ts, ranks, cfgs):
            fits = real(ts, ranks, cfgs)
            runs.append(ts.shape[3])
            for f in fits:
                assert_ll1_invariants(f)
            return fits

        monkeypatch.setattr(features_mod, "_ll1_stack", spy)
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        cfg = ExperimentConfig(seed=0, realizations=3, ranks=[1, 1], max_sweeps=200)
        run_experiment(ds, plan, "ll1", cfg)
        assert runs == [9]  # one stacked fit of the 3 groups of all 3 realizations

    def test_failure_names_the_group(self, monkeypatch):
        def stall(ts, ranks, cfgs):
            raise ConvergenceError("stalled", index=2)

        monkeypatch.setattr(features_mod, "_ll1_stack", stall)
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        with pytest.raises(ConvergenceError, match=f"failed on group "
                           f"{plan.train_groups[2]} of realization 0: stalled"):
            run_experiment(ds, plan, "ll1", ExperimentConfig(realizations=1))


def gram_fits_per_tensor(xr, gram, mixing, norm_sq, norms, histories, size, n_round,
                         underflow):
    """Oracle: `decomp._gram_fits` one tensor at a time, its statistics
    taken by np.sum, np.diag, np.linalg.norm and np.max, and its rounding
    bound and resolution rule written out as its comment derives them."""
    n_terms, q = mixing.shape[1:]
    n = max(size.bit_length() + 23, n_round + n_terms + n_terms * q) + 2
    u = decomp._EPS / 2
    gamma = n * u / (1.0 - n * u)
    own = size + n_terms * (n_terms + 2) * q
    fits = []
    for pos, mix in enumerate(mixing):
        inner = float(np.sum(mix * xr[pos].T))
        model_sq = float(np.sum(mix * (gram[pos] @ mix)))
        scale = float(np.sqrt(np.diag(gram[pos])) @ np.linalg.norm(mix, axis=1))
        reach = float(np.max(np.abs(mix)))
        err2 = norm_sq[pos] - 2.0 * inner + model_sq
        bound = (gamma * (norms[pos] + scale) ** 2
                 + (underflow[pos] + own) * decomp._SUBNORMAL * (1.0 + reach) ** 2)
        fit = None
        if norms[pos] > 0 and err2 > 2.0 * bound and math.isfinite(err2 + bound):
            fit = math.sqrt(err2) / norms[pos]
            fit_bound = bound / (math.sqrt(err2) * norms[pos]) + decomp._EPS * fit
            if histories[pos] and abs(fit - histories[pos][-1]) <= 2.0 * fit_bound:
                fit = None
        fits.append(fit)
    return fits


class TestGramFits:
    # Q * K runs across numpy's 8- and 128-term pairwise summation blocks;
    # signed mixing is CPD's, the nonnegative one with exact zeros LL1's
    @given(tensors=st.integers(1, 7), terms=st.integers(1, 5), q=st.integers(1, 300),
           rows=st.integers(1, 12), zeros=st.floats(0.0, 0.5), signed=st.booleans(),
           shift=st.sampled_from([0, 0, -500, -535]),
           moves=st.lists(st.sampled_from([None, 0.0, 1e-12, 1e-3]), min_size=7, max_size=7),
           scales=st.lists(st.sampled_from([1.0, 2.0 ** -40, 2.0 ** 40]), min_size=7,
                           max_size=7),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_per_tensor_fits(self, tensors, terms, q, rows, zeros, signed, shift,
                                    moves, scales, seed):
        rng = np.random.default_rng(seed)
        regressor = rng.standard_normal((tensors, rows, terms)) * 2.0 ** shift
        x3 = rng.standard_normal((tensors, q, rows)) * 2.0 ** shift
        # laid out as in the sweep: the mixing rows (tensors, Q, K), viewed
        # as (tensors, K, Q)
        if signed:
            mixing = rng.standard_normal((tensors, q, terms))
        else:
            mixing = rng.uniform(0.0, 1.0, (tensors, q, terms))
            mixing[rng.uniform(size=mixing.shape) < zeros] = 0.0
        mixing = mixing.swapaxes(1, 2)
        xr, gram = x3 @ regressor, regressor.swapaxes(1, 2) @ regressor
        norm_sq = [float(np.sum(np.square(x))) for x in x3]
        norms = [float(np.linalg.norm(x)) for x in x3]
        # each tensor's products counted as if taken on a design scaled by 1 / scale
        counts = (q * rows, rows, [(q + terms * s) * s * rows * terms + (q + terms) * terms
                                   for s in scales[:tensors]])
        fresh = gram_fits_per_tensor(xr, gram, mixing, norm_sq, norms, [[]] * tensors,
                                     *counts)
        # a last fit equal to this one's, just off it or far from it
        histories = [[] if move is None else [(fit or 0.5) * (1.0 + move)]
                     for fit, move in zip(fresh, moves)]
        want = gram_fits_per_tensor(xr, gram, mixing, norm_sq, norms, histories, *counts)
        got = decomp._gram_fits(xr, gram, mixing, norm_sq, norms, histories, *counts)
        assert len(got) == tensors
        assert got == want
        assert all(a is None or a == b for a, b in zip(got, fresh))

    def test_negative_mixing_keeps_the_underflow_term(self):
        # all of M is -1, so max(M) would zero the bound's underflow term;
        # R and T sit where their Gram products underflow
        rng = np.random.default_rng(3)
        regressor = rng.uniform(0.5, 1.0, (1, 4, 2)) * 2.0 ** -536
        x3 = rng.uniform(0.5, 1.0, (1, 3, 4)) * 2.0 ** -536
        mixing = -np.ones((1, 2, 3))
        xr, gram = x3 @ regressor, regressor.swapaxes(1, 2) @ regressor
        args = (xr, gram, mixing, [float(np.sum(np.square(x3)))],
                [float(np.linalg.norm(x3))], [[]], 12, 4, [(3 + 2) * 4 * 2])
        assert decomp._gram_fits(*args) == gram_fits_per_tensor(*args) == [None]


def _design(rng, kind, m, n):
    if kind == 0:
        return rng.standard_normal((m, n))
    a = rng.uniform(0.0, 1.0, (m, n))
    if kind == 2 and n > 1:  # ill-conditioned: least-squares subproblems
        a[:, 1] = a[:, 0] + 1e-7 * rng.standard_normal(m)
    return a


class TestNnlsStack:
    @given(designs=st.integers(1, 4), rows=st.integers(3, 9), cols=st.integers(1, 4),
           rhs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.integers(0, 2), min_size=4, max_size=4),
           shifts=st.lists(st.sampled_from([0, 0, -560, -30, 40, 530]), min_size=4,
                           max_size=4))
    def test_equals_nnls_multi_per_design(self, designs, rows, cols, rhs, seed, kinds,
                                          shifts):
        rng = np.random.default_rng(seed)
        a = np.stack([np.ldexp(_design(rng, kinds[i], rows, cols), shifts[i])
                      for i in range(designs)])
        yst = rng.standard_normal((designs, rhs, rows))
        x = kernels._nnls_stack(a, yst)
        assert x.shape == (designs, rhs, cols)
        for i in range(designs):
            want = nnls_multi(a[i], yst[i].T)
            assert x[i].T.tobytes() == np.ascontiguousarray(want).tobytes()

    @given(designs=st.integers(1, 4), rows=st.integers(3, 9), cols=st.integers(1, 4),
           rhs=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.integers(0, 2), min_size=4, max_size=4),
           shifts=st.lists(st.sampled_from([0, -30, 40, 300]), min_size=4, max_size=4))
    def test_stats_are_the_unscaled_products(self, designs, rows, cols, rhs, seed, kinds,
                                             shifts):
        # in the normal range, whichever path solves each design
        rng = np.random.default_rng(seed)
        a = np.stack([np.ldexp(_design(rng, kinds[i], rows, cols), shifts[i])
                      for i in range(designs)])
        yst = rng.standard_normal((designs, rhs, rows))
        x, aty, g, scale = kernels._nnls_stack(a, yst, True)
        assert x.tobytes() == kernels._nnls_stack(a, yst).tobytes()
        assert aty.tobytes() == np.stack([[y @ ai for y in ys]
                                          for ys, ai in zip(yst, a)]).tobytes()
        assert g.tobytes() == (a.swapaxes(1, 2) @ a).tobytes()
        peaks = np.abs(a).max(axis=(1, 2))
        assert (scale / 2 <= peaks).all() and (peaks < scale).all()

    def test_empty_stats(self):
        for n, r in ((0, 2), (2, 0)):
            x, aty, g, scale = kernels._nnls_stack(np.ones((3, 4, n)), np.ones((3, r, 4)), True)
            assert x.shape == aty.shape == (3, r, n) and not (x.any() or aty.any())
            assert g.tobytes() == np.full((3, n, n), 4.0).tobytes()  # a^T a of all-ones 4 x n designs
            assert scale.tolist() == [1.0] * 3

    def test_full_passive_sets_finish_without_a_dual(self, monkeypatch):
        # every row's solution is positive in both coordinates, so the
        # stack's first solve, on the full passive set, settles every row
        # and Lawson-Hanson takes no dual; started cold on the same rows, it
        # fills every passive set in two admissions and the rows finish there
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 1.0, (2, 8, 2))
        yst = (a @ rng.uniform(0.5, 1.0, (2, 2, 3))).swapaxes(1, 2)
        rows_per_dual = []
        real = kernels._lawson_hanson

        def spy(b, n, tol, max_iter, dual, solve):
            def counted(b, x):
                rows_per_dual.append(len(x))
                return dual(b, x)
            return real(b, n, tol, max_iter, dual=counted, solve=solve)

        monkeypatch.setattr(kernels, "_lawson_hanson", spy)
        x = kernels._nnls_stack(a, yst)
        assert (x > 0.0).all()
        assert rows_per_dual == []
        g = np.repeat(a.swapaxes(1, 2) @ a, 3, axis=0)
        aty = (yst @ a).reshape(6, 2)
        cold = kernels._lawson_hanson(
            (aty, g), 2, 1e-10, 30, solve=partial(kernels._solve_passive, np.eye(2)),
            dual=lambda b, x: b[0] - np.matmul(x[:, None, :], b[1])[:, 0, :])
        assert rows_per_dual == [6, 6]
        np.testing.assert_allclose(cold, x.reshape(6, 2), rtol=1e-12)

    def test_failing_design_is_named(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.5, 1.0, (3, 6, 2))
        # designs 0 and 2 stop at x = 0 without an admission; design 1 needs some
        ys = np.stack([-np.ones((6, 2)), a[1] @ [[1.0, 0.5], [0.5, 1.0]], -np.ones((6, 2))])
        yst = ys.transpose(0, 2, 1)
        with pytest.raises(ConvergenceError) as info:
            kernels._nnls_stack(a, yst, max_iter=0)
        assert info.value.index == 1
        a[1, :, 1] = a[1, :, 0]  # singular Gram matrix: the least-squares path
        with pytest.raises(ConvergenceError) as info:
            kernels._nnls_stack(a, yst, max_iter=0)
        assert info.value.index == 1

    def test_pinv_stack_equals_pinv(self):
        rng = np.random.default_rng(4)
        for shape in ((5, 1, 1), (4, 3, 3), (3, 2, 4)):
            ms = rng.standard_normal(shape)
            if shape[1:] == (1, 1):
                ms[1, 0, 0], ms[3, 0, 0] = 1e-140, 0.0  # off the 1 / x path
            got = kernels._pinv_stack(ms)
            for m, p in zip(ms, got, strict=True):
                assert p.tobytes() == pinv(m).tobytes()
