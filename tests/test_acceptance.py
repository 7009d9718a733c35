"""Acceptance battery.

One test per shipped criterion; each prints a single [AC#] PASS/FAIL line
to the live terminal (bypassing capture) and then asserts.  Block-term
runs triggered here, including those inside the experiment harness, are
funneled through an invariant checker so the sweep-monotonicity /
nonnegativity / unit-norm guarantees are enforced on every run.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import tensplit.features as features_mod
from conftest import assert_ll1_invariants, nnls_bruteforce
from tensplit.classify import ExperimentConfig, run_experiment
from tensplit.core import DenseTensor, fold, mode_n_product, unfold
from tensplit.dataset import (
    COLOR_MIXING,
    load_pgm_ensemble,
    make_group_splits,
    synthetic_color_ensemble,
    synthetic_face_fixture,
)
from tensplit.decomp import (
    DecompConfig,
    cpd_als,
    fit_error,
    greedy_cosine_match,
    hosvd,
    ll1_nn,
)
from tensplit.features import common_basis_qr, fit_feature_bank, split_features
from tensplit.kernels import nnls

LL1_RUNS = []


def checked_ll1(t, ranks, cfg):
    f = ll1_nn(t, ranks, cfg)
    assert_ll1_invariants(f)
    LL1_RUNS.append(f)
    return f


@contextmanager
def criterion(capsys, number, label):
    """Guarantee exactly one [AC#] line whether the body passes or fails."""
    rec = {"detail": ""}
    try:
        yield rec
    except BaseException:
        with capsys.disabled():
            print(f"\n[AC{number}] {label}: FAIL")
        raise
    suffix = f" ({rec['detail']})" if rec["detail"] else ""
    with capsys.disabled():
        print(f"\n[AC{number}] {label}{suffix}: PASS")


def test_ac1_exact_rank1_cpd_recovery(capsys):
    with criterion(capsys, 1, "rank-1 recovery, 50 tensors 8x9x10") as rec:
        start = time.perf_counter()
        worst_fit, worst_cos, max_sweeps = 0.0, 1.0, 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(8)
            b = rng.standard_normal(9)
            c = rng.standard_normal(10)
            t = DenseTensor(a[:, None, None] * b[None, :, None] * c[None, None, :])
            f = cpd_als(t, 1, DecompConfig(seed=seed, max_sweeps=200))
            worst_fit = max(worst_fit, f.diagnostics.fit_history[-1])
            max_sweeps = max(max_sweeps, f.diagnostics.sweeps)
            for est, true in zip(f.factors, (a, b, c)):
                cos = abs(est[:, 0] @ true) / np.linalg.norm(true)
                worst_cos = min(worst_cos, cos)
        elapsed = time.perf_counter() - start
        rec["detail"] = (f"worst fit {worst_fit:.1e}, worst cosine deficit "
                         f"{1 - worst_cos:.1e}, max sweeps {max_sweeps}, "
                         f"{elapsed:.2f}s")
        assert worst_fit < 1e-8
        assert worst_cos > 1 - 1e-6
        assert max_sweeps <= 200
        assert elapsed < 5.0


def test_ac2_color_ensemble_rank_identity(capsys):
    with criterion(capsys, 2, "color-ensemble rank identity") as rec:
        start = time.perf_counter()
        ds = synthetic_color_ensemble(16, 16, seed=0)
        best = None
        for restart in range(20):
            f = checked_ll1(ds.tensor, [1, 1, 1],
                            DecompConfig(seed=restart, max_sweeps=500))
            if best is None or f.fit_history[-1] < best.fit_history[-1]:
                best = f
            if best.fit_history[-1] < 1e-6:
                break
        best_fit = best.fit_history[-1]

        est = np.column_stack([term.c for term in best.terms])
        ref = COLOR_MIXING / np.linalg.norm(COLOR_MIXING, axis=0)
        _, perm = greedy_cosine_match(est, ref)
        col_err = 0.0
        for j in range(3):
            e = est[:, perm[j]]
            scale = float(e @ ref[:, j]) / float(e @ e)
            col_err = max(col_err, np.linalg.norm(scale * e - ref[:, j]))

        rank2 = min(
            checked_ll1(ds.tensor, [1, 1],
                        DecompConfig(seed=r, max_sweeps=500)).fit_history[-1]
            for r in range(20)
        )
        elapsed = time.perf_counter() - start
        rec["detail"] = (f"fit {best_fit:.1e}, mixing column error {col_err:.1e}, "
                         f"best rank-2 fit {rank2:.3f}, {elapsed:.2f}s")
        assert best_fit < 1e-6
        assert col_err < 1e-3
        assert rank2 > 0.05
        assert elapsed < 10.0


def test_ac3_block_term_invariants(capsys):
    with criterion(capsys, 3, "block-term sweep invariants") as rec:
        for seed in range(3):
            rng = np.random.default_rng(seed)
            t = DenseTensor(rng.uniform(0.1, 1.0, size=(6, 5, 4)))
            checked_ll1(t, [2, 1], DecompConfig(seed=seed, max_sweeps=80))
        fx = synthetic_face_fixture()
        checked_ll1(fx.tensor, [1, 1], DecompConfig(seed=0, max_sweeps=60))
        for f in LL1_RUNS:
            assert_ll1_invariants(f)
        rec["detail"] = (f"{len(LL1_RUNS)} runs so far: fit non-increasing, "
                         f"mixing >= 0, unit columns")


def test_ac4_nnls_matches_support_enumeration(capsys):
    with criterion(capsys, 4, "NNLS vs exhaustive support search, 200 problems") as rec:
        worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((6, 3))
            y = rng.standard_normal(6)
            x = nnls(a, y)
            r = y - a @ x
            worst = max(worst, abs(float(r @ r) - nnls_bruteforce(a, y)))
        rec["detail"] = f"worst objective gap {worst:.1e}"
        assert worst <= 1e-8


def test_ac5_hosvd_full_rank_exactness(capsys):
    with criterion(capsys, 5, "HOSVD exactness, 100 tensors 5x6x7") as rec:
        worst_err, worst_orth = 0.0, 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            t = DenseTensor(rng.standard_normal((5, 6, 7)))
            tk = hosvd(t, (5, 6, 7))
            worst_err = max(worst_err, fit_error(t, tk))
            for factor in tk.factors:
                gram = factor.T @ factor
                worst_orth = max(worst_orth,
                                 np.max(np.abs(gram - np.eye(gram.shape[0]))))
        rec["detail"] = (f"worst reconstruction {worst_err:.1e}, "
                         f"worst orthonormality {worst_orth:.1e}")
        assert worst_err < 1e-10
        assert worst_orth < 1e-10


def test_ac6_feature_split_soundness(capsys):
    with criterion(capsys, 6, "identical-slice split") as rec:
        rng = np.random.default_rng(0)
        base = np.outer(rng.uniform(0.2, 1, 9), rng.uniform(0.2, 1, 7)) + np.outer(
            rng.uniform(0.2, 1, 9), rng.uniform(0.2, 1, 7)
        )
        t = DenseTensor(np.repeat(base[:, :, None], 5, axis=2))
        bank = fit_feature_bank(t, [2], DecompConfig(seed=0, max_sweeps=300),
                                n_restarts=3)
        assert_ll1_invariants(bank.source)
        LL1_RUNS.append(bank.source)
        split = split_features(t, bank)
        ratio = 0.0
        for q in range(5):
            ratio = max(ratio, np.linalg.norm(split.individual.to_array()[:, :, q])
                        / np.linalg.norm(base))
        additive = np.array_equal(
            split.common.to_array() + split.individual.to_array(), t.to_array()
        )
        rec["detail"] = f"individual ratio {ratio:.1e}, additivity exact {additive}"
        assert ratio < 1e-6
        assert additive


def test_ac7_layout_identities(capsys):
    with criterion(capsys, 7, "unfold/fold and mode-product identities") as rec:
        rng = np.random.default_rng(0)
        n_shapes, worst = 1000, 0.0
        for _ in range(n_shapes):
            order = int(rng.integers(1, 6))
            shape = tuple(int(x) for x in rng.integers(1, 5, size=order))
            arr = rng.standard_normal(shape)
            t = DenseTensor(arr)
            for mode in range(order):
                assert fold(unfold(t, mode), mode, shape) == t
                rows = int(rng.integers(1, 5))
                m = rng.standard_normal((rows, shape[mode]))
                got = mode_n_product(t, m, mode).to_array()
                ref = np.moveaxis(np.tensordot(m, arr, axes=([1], [mode])), 0, mode)
                scale = max(1.0, float(np.max(np.abs(ref))))
                worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
        rec["detail"] = (f"{n_shapes} shapes, fold(unfold) bit-exact, "
                         f"worst mode-product deviation {worst:.1e}")
        assert worst <= 1e-12


def test_ac8a_fixture_classification(capsys, monkeypatch):
    with criterion(capsys, 8, "fixture classification ordering") as rec:
        harness_fits = []
        ll1_stack = features_mod._ll1_stack

        def spying_stack(ts, ranks, cfgs):
            fits = ll1_stack(ts, ranks, cfgs)
            for f in fits:
                assert_ll1_invariants(f)
            harness_fits.extend(fits)
            LL1_RUNS.extend(fits)
            return fits

        monkeypatch.setattr(features_mod, "_ll1_stack", spying_stack)
        start = time.perf_counter()
        ds = synthetic_face_fixture()
        plan = make_group_splits(ds, groups=6, train=3, seed=0)
        cfg = ExperimentConfig(seed=0, realizations=10, ranks=[1, 1],
                               max_sweeps=200)
        raw = run_experiment(ds, plan, "raw", cfg)
        ll1 = run_experiment(ds, plan, "ll1", cfg)
        elapsed = time.perf_counter() - start
        rec["detail"] = (f"10 realizations: individual-feature mean {ll1.mean:.3f} "
                         f">= raw mean {raw.mean:.3f}, {elapsed:.1f}s")
        assert ll1.mean >= raw.mean
        assert elapsed < 60.0
        assert len(harness_fits) == 10 * 3  # realizations x training groups


@pytest.mark.skipif("TENSPLIT_ORL_DIR" not in os.environ,
                    reason="set TENSPLIT_ORL_DIR to a face database in s<N>/<M>.pgm layout")
def test_ac8b_external_faces_classification(capsys):
    with criterion(capsys, "8b", "external face database ordering") as rec:
        root = Path(os.environ["TENSPLIT_ORL_DIR"])
        paths, labels = [], []
        subjects = sorted(
            (d for d in root.iterdir() if d.is_dir() and d.name.startswith("s")),
            key=lambda d: int(d.name[1:]),
        )
        for d in subjects:
            for p in sorted(d.glob("*.pgm"), key=lambda p: int(p.stem)):
                paths.append(p)
                labels.append(int(d.name[1:]))
        ds = load_pgm_ensemble(paths, labels)
        plan = make_group_splits(ds, groups=10, train=5, seed=0)
        cfg = ExperimentConfig(seed=0, realizations=20, ranks=[1, 1],
                               max_sweeps=100)
        raw = run_experiment(ds, plan, "raw", cfg)
        ll1 = run_experiment(ds, plan, "ll1", cfg)
        rec["detail"] = (f"{len(paths)} images, 20 realizations: individual "
                         f"{ll1.mean:.3f} vs raw {raw.mean:.3f}")
        assert ll1.mean > raw.mean


def test_ac9_common_basis_baseline(capsys):
    with criterion(capsys, 9, "alternating common-basis baseline") as rec:
        rng = np.random.default_rng(0)
        shared = rng.standard_normal(10)
        shared /= np.linalg.norm(shared)
        xs = [np.column_stack([shared * rng.uniform(1, 3),
                               rng.standard_normal((10, 3))]) for _ in range(4)]
        cb = common_basis_qr(xs, m_max=3, seed=1)
        assert cb.n_columns >= 1
        cost = cb.residual_costs[0]

        ortho = [np.eye(12)[:, 3 * i : 3 * i + 3] for i in range(4)]
        cb0 = common_basis_qr(ortho, m_max=2, threshold=0.1 * 4, seed=2)

        histories_ok = all(
            all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))
            for h in cb.histories + cb0.histories
        )
        rec["detail"] = (f"shared-column cost {cost:.1e}, orthogonal blocks "
                         f"accepted {cb0.n_columns}, costs non-increasing "
                         f"{histories_ok}")
        assert cost < 1e-10
        assert cb0.n_columns == 0
        assert histories_ok
