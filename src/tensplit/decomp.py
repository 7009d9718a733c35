"""Tensor decompositions: CPD via ALS, truncated HOSVD, and the
rank-(L,L,1) block-term decomposition with a nonnegative stacking mode.

All three operate on order-3 tensors.  Factor columns are returned with
unit Euclidean norm; the norms are absorbed into per-component weights.
The LL1 sweep updates each term's two matrix factors against the residual
left by the other terms (Gauss-Seidel), then refreshes the whole mixing
matrix by row-wise nonnegative least squares against the collapsed term
slices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from . import dtf
from .core import DenseTensor, fold, khatri_rao, mode_n_product, norm_frobenius, unfold
from .kernels import ConvergenceError, nnls_multi, pinv, svd

_EPS = np.finfo(np.float64).eps

INIT_RANDOM = "random"
INIT_HOSVD = "hosvd"


@dataclass
class DecompConfig:
    max_sweeps: int = 500
    rel_tol: float = 1e-8
    seed: int = 0
    init: str = INIT_RANDOM

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.init not in (INIT_RANDOM, INIT_HOSVD):
            raise ValueError(f"unknown init scheme {self.init!r}")


@dataclass
class Diagnostics:
    sweeps: int = 0
    converged: bool = True
    fit_history: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    seed: int | None = None


@dataclass
class KruskalFactors:
    """CPD result: unit-norm factor columns plus nonnegative weights."""

    factors: list  # one I_n x R matrix per mode
    weights: np.ndarray  # length R, >= 0
    diagnostics: Diagnostics | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        ranks = {f.shape[1] for f in self.factors}
        if len(ranks) != 1:
            raise ValueError("factor matrices must share one column count")
        if self.weights.shape != (ranks.pop(),):
            raise ValueError("weights length must equal the factor rank")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


@dataclass
class TuckerFactors:
    """HOSVD result: dense core plus orthonormal mode factors."""

    core: DenseTensor
    factors: list

    def __post_init__(self):
        if self.core.order != len(self.factors):
            raise ValueError("core order must match the factor count")
        for n, f in enumerate(self.factors):
            if f.shape[1] != self.core.shape[n]:
                raise ValueError(f"factor {n} columns do not match the core extent")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)


@dataclass
class BlockTerm:
    """One rank-(L,L,1) term: unit-norm a, b columns and mixing vector c,
    with the scale carried in `weights`."""

    a: np.ndarray  # O x L
    b: np.ndarray  # P x L
    c: np.ndarray  # length Q, entries >= 0, unit norm
    weights: np.ndarray  # length L, >= 0

    def __post_init__(self):
        if self.a.shape[1] != self.b.shape[1] or self.a.shape[1] != self.weights.size:
            raise ValueError("a, b and weights must agree on the block rank L")
        if self.a.shape[1] < 1:
            raise ValueError("block rank L must be >= 1")

    @property
    def block_rank(self) -> int:
        return self.a.shape[1]

    def slice(self) -> np.ndarray:
        """The O x P common-feature slice A diag(weights) B^T."""
        return (self.a * self.weights) @ self.b.T


@dataclass
class LL1Factors:
    terms: list
    fit_history: list
    diagnostics: Diagnostics | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.terms) < 1:
            raise ValueError("need at least one block term")

    @property
    def shape(self) -> tuple[int, int, int]:
        t = self.terms[0]
        return (t.a.shape[0], t.b.shape[0], t.c.size)


def _normalize_columns(m: np.ndarray, rng: np.random.Generator, flags: list, what: str):
    """Scale columns to unit norm; a zero column is replaced by a fresh
    random unit column with weight 0."""
    norms = np.linalg.norm(m, axis=0)
    out = np.empty_like(m)
    for j, nj in enumerate(norms):
        if nj == 0.0:
            col = rng.standard_normal(m.shape[0])
            out[:, j] = col / np.linalg.norm(col)
            flags.append(f"zero-column:{what}")
        else:
            out[:, j] = m[:, j] / nj
    return out, norms


def _normalize_nonneg_vector(v: np.ndarray, rng: np.random.Generator, flags: list, what: str):
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        col = rng.uniform(0.0, 1.0, size=v.size) + _EPS
        flags.append(f"zero-column:{what}")
        return col / np.linalg.norm(col), 0.0
    return v / norm, norm


def _converged(history: list, rel_tol: float) -> bool:
    # fit values are already scaled by the input norm, so once prev drops
    # under 1 this is an absolute test on the change in relative fit
    if len(history) < 2:
        return False
    prev, cur = history[-2], history[-1]
    return abs(prev - cur) < rel_tol * max(1.0, prev)


def _relative_fit(t: DenseTensor, recon: np.ndarray, norm_t: float) -> float:
    err = float(np.linalg.norm((t.values - recon).ravel()))
    return err / norm_t if norm_t > 0 else err


def _require_order3(t: DenseTensor, op: str) -> None:
    if t.order != 3:
        raise ValueError(f"{op} requires an order-3 tensor, got order {t.order}")


def _hosvd_factor_init(t: DenseTensor, cols_per_mode: list[int]) -> list[np.ndarray]:
    out = []
    for mode, cols in enumerate(cols_per_mode):
        u = svd(unfold(t, mode)).u
        if u.shape[1] < cols:
            u = np.hstack([u, np.zeros((u.shape[0], cols - u.shape[1]))])
        out.append(u[:, :cols].copy())
    return out


def cpd_als(t: DenseTensor, rank: int, cfg: DecompConfig | None = None) -> KruskalFactors:
    """Canonical polyadic decomposition by alternating least squares.

    Each mode update solves its exact least-squares subproblem via the
    Khatri-Rao regressor and the Hadamard product of Gram matrices, so the
    relative fit recorded per sweep is non-increasing.  Non-convergence at
    the sweep cap is reported through diagnostics, not raised.
    """
    _require_order3(t, "cpd_als")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    cfg = cfg or DecompConfig()
    rng = np.random.default_rng(cfg.seed)
    flags: list[str] = []

    I, J, K = t.shape
    feasible = min(min(I, J * K), min(J, I * K), min(K, I * J))
    if rank > feasible:
        flags.append("degenerate-rank")

    x1, x2, x3 = unfold(t, 0), unfold(t, 1), unfold(t, 2)
    if cfg.init == INIT_RANDOM:
        a = rng.standard_normal((I, rank))
        b = rng.standard_normal((J, rank))
        c = rng.uniform(0.0, 1.0, size=(K, rank))
    else:
        a, b, c = _hosvd_factor_init(t, [rank, rank, rank])
        c = np.clip(c, 0.0, None)

    norm_t = norm_frobenius(t)
    history: list[float] = []
    weights = np.ones(rank)
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        a = x1 @ khatri_rao(c, b) @ pinv(hadamard_gram(c, b))
        a, _ = _normalize_columns(a, rng, flags, "mode0")
        b = x2 @ khatri_rao(c, a) @ pinv(hadamard_gram(c, a))
        b, _ = _normalize_columns(b, rng, flags, "mode1")
        c = x3 @ khatri_rao(b, a) @ pinv(hadamard_gram(b, a))
        c, weights = _normalize_columns(c, rng, flags, "mode2")

        recon = _kruskal_array([a, b, c], weights)
        history.append(_relative_fit(t, recon, norm_t))
        if _converged(history, cfg.rel_tol):
            converged = True
            break

    # weights are column norms, hence nonnegative; flip any residual -0.0
    weights = np.abs(weights)
    diag = Diagnostics(sweeps=sweeps, converged=converged, fit_history=history,
                       flags=flags, seed=cfg.seed)
    return KruskalFactors(factors=[a, b, c], weights=weights, diagnostics=diag)


def hadamard_gram(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(u^T u) * (v^T v): the Gram matrix of khatri_rao(u, v)."""
    return (u.T @ u) * (v.T @ v)


def hosvd(t: DenseTensor, mlrank) -> TuckerFactors:
    """Truncated higher-order SVD.

    Mode factors are the leading left singular vectors of each unfolding;
    the core is the input contracted with the factor transposes.  With full
    multilinear rank the reconstruction is exact.
    """
    _require_order3(t, "hosvd")
    mlrank = tuple(int(r) for r in mlrank)
    if len(mlrank) != 3:
        raise ValueError("mlrank must have one entry per mode")
    for n, r in enumerate(mlrank):
        if not 1 <= r <= t.shape[n]:
            raise ValueError(f"mlrank[{n}]={r} out of range 1..{t.shape[n]}")
    factors = [svd(unfold(t, n)).u[:, :r].copy() for n, r in enumerate(mlrank)]
    core = t
    for n, f in enumerate(factors):
        core = mode_n_product(core, f.T, n)
    return TuckerFactors(core=core, factors=factors)


def ll1_nn(t: DenseTensor, ranks, cfg: DecompConfig | None = None) -> LL1Factors:
    """Rank-(L_k, L_k, 1) block-term decomposition with a nonnegative
    mixing mode.

    Per sweep, for each term k: subtract the other terms' reconstructions,
    update the term's two matrix factors by exact least squares (Khatri-Rao
    regressor, pseudoinverse of the Hadamard Gram), then refresh the whole
    mixing matrix by nonnegative least squares of the original mode-2
    unfolding against the collapsed slices of all terms, and renormalize.
    The mixing vectors come back elementwise >= 0 with exact zeros allowed;
    zero entries are flagged in diagnostics.
    """
    _require_order3(t, "ll1_nn")
    ranks = [int(L) for L in ranks]
    if len(ranks) < 1:
        raise ValueError("need at least one block term")
    if any(L < 1 for L in ranks):
        raise ValueError("every block rank L must be >= 1")
    cfg = cfg or DecompConfig()
    rng = np.random.default_rng(cfg.seed)
    flags: list[str] = []

    O, P, Q = t.shape
    n_terms = len(ranks)

    a_mats: list[np.ndarray] = []
    b_mats: list[np.ndarray] = []
    c_vecs: list[np.ndarray] = []
    w_vecs: list[np.ndarray] = []
    if cfg.init == INIT_RANDOM:
        for L in ranks:
            a_mats.append(rng.standard_normal((O, L)))
            b_mats.append(rng.standard_normal((P, L)))
            c_vecs.append(rng.uniform(0.0, 1.0, size=Q))
    else:
        total = sum(ranks)
        ua, ub = _hosvd_factor_init(t, [total, total])
        uc = _hosvd_factor_init(t, [0, 0, n_terms])[2]
        offset = 0
        for k, L in enumerate(ranks):
            a_mats.append(ua[:, offset : offset + L].copy())
            b_mats.append(ub[:, offset : offset + L].copy())
            ck = np.clip(uc[:, k], 0.0, None)
            if not ck.any():
                ck = np.clip(-uc[:, k], 0.0, None)
            c_vecs.append(ck)
            offset += L
    for k in range(n_terms):
        a_mats[k], na = _normalize_columns(a_mats[k], rng, flags, f"init-a{k}")
        b_mats[k], nb = _normalize_columns(b_mats[k], rng, flags, f"init-b{k}")
        c_vecs[k], nc = _normalize_nonneg_vector(c_vecs[k], rng, flags, f"init-c{k}")
        w_vecs.append(np.abs(na) * np.abs(nb) * nc)

    def term_array(k: int) -> np.ndarray:
        s = (a_mats[k] * w_vecs[k]) @ b_mats[k].T
        return s[:, :, None] * c_vecs[k][None, None, :]

    x3 = unfold(t, 2)  # Q x (O*P), columns in layout order of each slice
    norm_t = norm_frobenius(t)
    history: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        for k in range(n_terms):
            L = ranks[k]
            others = np.zeros((O, P, Q))
            for n in range(n_terms):
                if n != k:
                    others += term_array(n)
            res = t.values - others
            res1 = np.reshape(res, (O, -1), order="F")
            res2 = np.reshape(np.moveaxis(res, 1, 0), (P, -1), order="F")

            ck_rep = np.tile(c_vecs[k][:, None], (1, L))
            a_hat = res1 @ khatri_rao(ck_rep, b_mats[k]) @ pinv(
                hadamard_gram(ck_rep, b_mats[k])
            )
            b_hat = res2 @ khatri_rao(ck_rep, a_hat) @ pinv(
                hadamard_gram(ck_rep, a_hat)
            )

            # joint mixing update: one collapsed column per term, original rhs
            cols = []
            for n in range(n_terms):
                if n == k:
                    cols.append((a_hat @ b_hat.T).ravel(order="F"))
                else:
                    cols.append(
                        ((a_mats[n] * w_vecs[n]) @ b_mats[n].T).ravel(order="F")
                    )
            regressor = np.column_stack(cols)
            try:
                mixing_raw = nnls_multi(regressor, x3.T)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"mixing-mode NNLS failed while updating term {k}: {exc}"
                ) from exc

            a_mats[k], na = _normalize_columns(a_hat, rng, flags, f"a{k}")
            b_mats[k], nb = _normalize_columns(b_hat, rng, flags, f"b{k}")
            for n in range(n_terms):
                cn, gamma = _normalize_nonneg_vector(
                    mixing_raw[n], rng, flags, f"c{n}"
                )
                c_vecs[n] = cn
                if n == k:
                    w_vecs[k] = np.abs(na) * np.abs(nb) * gamma
                else:
                    w_vecs[n] = w_vecs[n] * gamma

        recon = np.zeros((O, P, Q))
        for n in range(n_terms):
            recon += term_array(n)
        history.append(_relative_fit(t, recon, norm_t))
        if _converged(history, cfg.rel_tol):
            converged = True
            break

    terms = []
    for k in range(n_terms):
        if np.any(c_vecs[k] == 0.0):
            flags.append(f"zero-mixing-entries:term{k}")
        terms.append(
            BlockTerm(a=a_mats[k], b=b_mats[k], c=c_vecs[k], weights=w_vecs[k])
        )
    diag = Diagnostics(sweeps=sweeps, converged=converged, fit_history=history,
                       flags=flags, seed=cfg.seed)
    return LL1Factors(terms=terms, fit_history=history, diagnostics=diag)


def _kruskal_array(factors: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
    lead = factors[0] * weights
    chain = reduce(khatri_rao, factors[:0:-1])
    m = lead @ chain.T
    return np.reshape(m, tuple(f.shape[0] for f in factors), order="F")


def reconstruct(f) -> DenseTensor:
    """Dense tensor reconstructed from any factor bundle."""
    if isinstance(f, KruskalFactors):
        return DenseTensor(_kruskal_array(f.factors, f.weights))
    if isinstance(f, TuckerFactors):
        out = f.core
        for n, fac in enumerate(f.factors):
            out = mode_n_product(out, fac, n)
        return out
    if isinstance(f, LL1Factors):
        O, P, Q = f.shape
        for term in f.terms:
            if (term.a.shape[0], term.b.shape[0], term.c.size) != (O, P, Q):
                raise ValueError("block terms have inconsistent dimensions")
        arr = np.zeros((O, P, Q))
        for term in f.terms:
            arr += term.slice()[:, :, None] * term.c[None, None, :]
        return DenseTensor(arr)
    raise TypeError(f"cannot reconstruct from {type(f).__name__}")


def fit_error(t: DenseTensor, f) -> float:
    """Relative Frobenius reconstruction error ||t - rec|| / ||t||.

    For an all-zero input the absolute error is returned instead.
    """
    rec = reconstruct(f)
    if rec.shape != t.shape:
        raise ValueError(f"shape mismatch: tensor {t.shape} vs factors {rec.shape}")
    return _relative_fit(t, rec.values, norm_frobenius(t))


def greedy_cosine_match(estimated: np.ndarray, reference: np.ndarray):
    """Greedily pair columns by maximum absolute cosine.

    Returns (scores, perm) where perm[j] is the estimated column matched to
    reference column j.  Deterministic tie-breaking by column order.
    """
    est = estimated / np.linalg.norm(estimated, axis=0)
    ref = reference / np.linalg.norm(reference, axis=0)
    cos = np.abs(ref.T @ est)
    scores = np.zeros(ref.shape[1])
    perm = np.full(ref.shape[1], -1)
    free = list(range(est.shape[1]))
    # visit reference columns by best available match, largest first
    order = np.argsort(-cos.max(axis=1), kind="stable")
    for j in order:
        row = cos[j, free]
        pick = free[int(np.argmax(row))]
        scores[j] = cos[j, pick]
        perm[j] = pick
        free.remove(pick)
        if not free:
            break
    return scores, perm


# ---------------------------------------------------------------------------
# factor bundle serialization: a directory of DTF1 files plus manifest.json

_MANIFEST = "manifest.json"


def _matrix_tensor(m: np.ndarray) -> DenseTensor:
    return DenseTensor(np.atleast_2d(m))


def save_factors(f, outdir) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    diag = getattr(f, "diagnostics", None) or Diagnostics()
    manifest = {
        "fit_history": list(diag.fit_history),
        "seed": diag.seed,
        "sweeps": diag.sweeps,
        "converged": diag.converged,
        "flags": list(diag.flags),
    }
    if isinstance(f, KruskalFactors):
        manifest.update(type="cpd", K=f.rank, ranks=[1] * f.rank,
                        **{"lambda": f.weights.tolist()})
        for n, fac in enumerate(f.factors):
            dtf.write_tensor(_matrix_tensor(fac), outdir / f"factor{n}.dtf1")
    elif isinstance(f, TuckerFactors):
        manifest.update(type="hosvd", K=1, ranks=list(f.core.shape),
                        **{"lambda": []})
        dtf.write_tensor(f.core, outdir / "core.dtf1")
        for n, fac in enumerate(f.factors):
            dtf.write_tensor(_matrix_tensor(fac), outdir / f"factor{n}.dtf1")
    elif isinstance(f, LL1Factors):
        manifest.update(type="ll1", K=len(f.terms),
                        ranks=[t.block_rank for t in f.terms],
                        **{"lambda": [t.weights.tolist() for t in f.terms]})
        manifest["fit_history"] = list(f.fit_history)
        for k, term in enumerate(f.terms):
            dtf.write_tensor(_matrix_tensor(term.a), outdir / f"term{k:02d}_a.dtf1")
            dtf.write_tensor(_matrix_tensor(term.b), outdir / f"term{k:02d}_b.dtf1")
            dtf.write_tensor(_matrix_tensor(term.c[:, None]), outdir / f"term{k:02d}_c.dtf1")
    else:
        raise TypeError(f"cannot serialize {type(f).__name__}")
    (outdir / _MANIFEST).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def load_factors(indir):
    indir = Path(indir)
    manifest = json.loads((indir / _MANIFEST).read_text())
    diag = Diagnostics(
        sweeps=manifest.get("sweeps", 0),
        converged=manifest.get("converged", True),
        fit_history=list(manifest.get("fit_history", [])),
        flags=list(manifest.get("flags", [])),
        seed=manifest.get("seed"),
    )
    kind = manifest["type"]
    if kind == "cpd":
        factors = [dtf.read_tensor(indir / f"factor{n}.dtf1").to_array() for n in range(3)]
        weights = np.asarray(manifest["lambda"], dtype=np.float64)
        return KruskalFactors(factors=factors, weights=weights, diagnostics=diag)
    if kind == "hosvd":
        core = dtf.read_tensor(indir / "core.dtf1")
        factors = [dtf.read_tensor(indir / f"factor{n}.dtf1").to_array() for n in range(3)]
        return TuckerFactors(core=core, factors=factors)
    if kind == "ll1":
        terms = []
        for k in range(manifest["K"]):
            a = dtf.read_tensor(indir / f"term{k:02d}_a.dtf1").to_array()
            b = dtf.read_tensor(indir / f"term{k:02d}_b.dtf1").to_array()
            c = dtf.read_tensor(indir / f"term{k:02d}_c.dtf1").to_array().ravel()
            weights = np.asarray(manifest["lambda"][k], dtype=np.float64)
            terms.append(BlockTerm(a=a, b=b, c=c, weights=weights))
        return LL1Factors(terms=terms, fit_history=diag.fit_history, diagnostics=diag)
    raise ValueError(f"unknown factor bundle type {kind!r}")
