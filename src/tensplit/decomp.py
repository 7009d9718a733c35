"""Tensor decompositions: CPD via ALS, truncated HOSVD, and the
rank-(L,L,1) block-term decomposition with a nonnegative stacking mode.

All three operate on order-3 tensors.  Factor columns are returned with
unit Euclidean norm; the norms are absorbed into per-component weights.
The LL1 sweep updates each term's two matrix factors in turn (Gauss-Seidel)
by least squares on an O x P matrix: the input contracted with the term's
mixing vector, less the other terms' slices weighted by how much their
mixing vectors overlap it.  It then refreshes the whole mixing matrix by
row-wise nonnegative least squares against the term slices.

CPD and LL1 record the relative fit of every sweep in Gram form,
||T - T^||^2 = ||T||^2 - 2 <T, T^> + ||T^||^2, from products the sweep
already holds, so no dense model is built.  Where a rounding-error bound
says the expansion cannot resolve the fit or its change since the last
sweep, the fit is taken from the dense reconstruction instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from . import dtf
from .core import DenseTensor, khatri_rao, mode_n_product, norm_frobenius, unfold
from .kernels import ConvergenceError, nnls_multi, pinv, svd

_EPS = np.finfo(np.float64).eps
_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
_EPS_EXT = float(np.finfo(np.longdouble).eps)

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
    err = float(np.linalg.norm(t.values - recon))
    return err / norm_t if norm_t > 0 else err


# Rounding bound of the Gram-form fit (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., section 3.1), with u = eps / 2 and
# gamma_m = m u / (1 - m u).  A computed sum of products, in any summation
# order, is within gamma_m times the sum of the products' absolute values
# when no product passes through more than m roundings (eq. 3.5).  The
# model T^ is a sum of terms whose norms add up to S (CPD: the weights, the
# factor columns being unit; LL1: ||R_k|| ||M_k|| over the regressor
# columns R_k and mixing rows M_k), so by Cauchy-Schwarz the absolute
# values of the products in <T, T^> sum to at most ||T|| S, and those in
# ||T^||^2 to at most S^2.  With N the entries of T:
#   * ||T||^2 is np.sum(np.square(T)) over a contiguous array, which numpy
#     sums pairwise in blocks of at most 128 terms with eight accumulators,
#     so each square passes through at most floor(log2 N) + 23 roundings,
#     its own included;
#   * each product of <T, T^> and ||T^||^2 passes through the roundings
#     counted where they are formed (`n_round`);
#   * the two operations joining the three add 2 u (||T|| + S)^2.
# So |computed err^2 - err^2| <= gamma_n (||T|| + S)^2 to first order, n
# being the largest count plus 2.  (LL1 stores renormalized factors, which
# moves T^ by a few ulps of S, far inside this.)  Under gradual underflow
# each product may instead err by half the smallest subnormal, and on its
# way to err^2 it is multiplied by at most (1 + Z)^2, with Z bounding the
# factors it meets, so the callers add the number of products times the
# smallest subnormal times (1 + Z)^2.  `_resolved_fit` doubles the bound,
# covering the second-order terms and the bound's own rounding.
def _gamma(m: int, eps: float = _EPS) -> float:
    u = eps / 2
    return m * u / (1.0 - m * u)


def _resolved_fit(err2: float, bound: float, norm_t: float, history: list):
    """The relative fit sqrt(err2) / norm_t of an expanded squared error
    err2 within `bound` of the exact one, or None where the bound cannot
    resolve the fit or its change from the last recorded fit.

    With err2 > 2 bound the exact squared error x has x >= err2 / 2, so
    |sqrt(err2) - sqrt(x)| = |err2 - x| / (sqrt(err2) + sqrt(x)) <=
    bound / sqrt(err2); two more roundings, the root and the division, add
    eps times the fit.
    """
    if not (norm_t > 0 and err2 > 2.0 * bound and math.isfinite(err2 + bound)):
        return None
    root = math.sqrt(err2)
    fit = root / norm_t
    fit_bound = bound / (root * norm_t) + _EPS * fit
    if history and abs(fit - history[-1]) <= 2.0 * fit_bound:
        return None
    return fit


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
    relative fit recorded per sweep is non-increasing.  That fit is taken
    in Gram form from the mode-2 product X_3 (B kr A) of the last update:
    <T, T^> = sum((X_3 (B kr A)) * (C diag(w))) and
    ||T^||^2 = w^T (A^T A * B^T B * C^T C) w, the latter in extended
    precision; where its rounding bound cannot resolve the fit or its
    change, the dense reconstruction gives it.  Non-convergence at the
    sweep cap is reported through diagnostics, not raised.
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
    norm_sq = float(np.sum(np.square(t.flat)))
    # Components that nearly cancel have weights far above ||T||, and
    # double-precision Gram matrices then put an error of about
    # eps (sum w)^2 into ||T^||^2: on a 64x64x40 face stack at rank 8
    # (sum w = 12.5 ||T||) it moved the fit 0.0073 by 2.3e-10 of itself.
    # So ||T^||^2 is summed in np.longdouble (a 64-bit significand on
    # x86-64), with its own gamma, and rounded to double once.
    # Roundings per product of ||T||^2, of <T, T^> (Khatri-Rao entry, GEMM
    # of length IJ, C diag(w), product, sum of KR), plus one for rounding
    # ||T^||^2; and in ||T^||^2 (three Gram matrices of lengths I, J, K, two
    # Hadamard products, two sums of R, two products).  Products formed,
    # for the underflow term: the squares of T, Khatri-Rao, GEMM, the rest.
    n_round = max(t.size.bit_length() + 23, I * J + K * rank + 2) + 3
    gamma_model = _gamma(I + J + K + 2 * rank + 4, _EPS_EXT)
    n_products = t.size * (1 + 2 * rank) + (I + J + 3 * K + 4) * rank ** 2
    history: list[float] = []
    weights = np.ones(rank)
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        a = x1 @ khatri_rao(c, b) @ pinv(hadamard_gram(c, b))
        a, _ = _normalize_columns(a, rng, flags, "mode0")
        b = x2 @ khatri_rao(c, a) @ pinv(hadamard_gram(c, a))
        b, _ = _normalize_columns(b, rng, flags, "mode1")
        m3 = x3 @ khatri_rao(b, a)
        c = m3 @ pinv(hadamard_gram(b, a))
        c, weights = _normalize_columns(c, rng, flags, "mode2")

        inner = float(np.sum(m3 * (c * weights)))
        ea, eb, ec, ew = (v.astype(np.longdouble) for v in (a, b, c, weights))
        model_sq = float(ew @ (np.dot(ea.T, ea) * np.dot(eb.T, eb) * np.dot(ec.T, ec))
                         @ ew)
        # an underflowed product meets at most entries of T and weights
        scale = float(np.sum(weights))
        bound = (_gamma(n_round) * (norm_t + scale) ** 2 + gamma_model * scale ** 2
                 + n_products * _SUBNORMAL * (1.0 + norm_t + scale) ** 2)
        fit = _resolved_fit(norm_sq - 2.0 * inner + model_sq, bound, norm_t, history)
        if fit is None:
            fit = _relative_fit(t, _kruskal_array([a, b, c], weights), norm_t)
        history.append(fit)
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

    Per sweep, for each term k with slice S_k = A_k diag(w_k) B_k^T and
    mixing vector c_k: contract the input with c_k and subtract the other
    slices weighted by their overlap with c_k,
    M_k = T x_3 c_k - sum_{n != k} (c_n^T c_k) S_n, an O x P matrix.  The
    exact least-squares updates are then A_k = M_k B_k ((c_k^T c_k) B_k^T B_k)^+
    and B_k = M_k^T A_k ((c_k^T c_k) A_k^T A_k)^+, with no O x P x Q
    residual formed.  The whole mixing matrix is then refreshed by
    nonnegative least squares of the original mode-2 unfolding against the
    vectorized slices of all terms, and everything is renormalized.
    The mixing vectors come back elementwise >= 0 with exact zeros allowed;
    zero entries are flagged in diagnostics.

    After a sweep the model is the last mixing update's regressor R (one
    vectorized slice per column) times its raw mixing M, so the recorded
    fit is taken in Gram form: <T, T^> = sum(M * (X_3 R)^T) and
    ||T^||^2 = sum(M * (R^T R M)).  Where its rounding bound cannot resolve
    the fit or its change, the dense reconstruction gives it.
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
        ua, ub, uc = _hosvd_factor_init(t, [total, total, n_terms])
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

    def term_slice(n: int) -> np.ndarray:
        return (a_mats[n] * w_vecs[n]) @ b_mats[n].T

    x3 = unfold(t, 2)  # Q x (O*P), columns in layout order of each slice
    norm_t = norm_frobenius(t)
    norm_sq = float(np.sum(np.square(t.flat)))
    # roundings per product of ||T||^2, of <T, T^> (GEMM of length OP,
    # product, sum of KQ) and of ||T^||^2 (R^T R of length OP, sum of K,
    # two products, sum of KQ); products formed: the squares of T, X_3 R,
    # R^T R, R^T R M and the two elementwise ones
    n_round = max(t.size.bit_length() + 23, O * P + n_terms + n_terms * Q) + 2
    n_products = (t.size * (1 + n_terms) + (O * P + Q) * n_terms ** 2
                  + 2 * n_terms * Q)
    history: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, cfg.max_sweeps + 1):
        for k in range(n_terms):
            ck = c_vecs[k]
            slices = [term_slice(n) for n in range(n_terms)]
            # T x_3 c_k as one matrix-vector product on the contiguous view x3
            m_k = np.reshape(ck @ x3, (O, P), order="F")
            for n in range(n_terms):
                if n != k:
                    m_k -= (c_vecs[n] @ ck) * slices[n]
            ck_sq = ck @ ck
            a_hat = m_k @ b_mats[k] @ pinv(ck_sq * (b_mats[k].T @ b_mats[k]))
            b_hat = m_k.T @ a_hat @ pinv(ck_sq * (a_hat.T @ a_hat))
            slices[k] = a_hat @ b_hat.T

            # joint mixing update: one vectorized slice per term, original rhs
            regressor = np.column_stack([s.ravel(order="F") for s in slices])
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

        gram = regressor.T @ regressor
        inner = float(np.sum(mixing_raw * (x3 @ regressor).T))
        model_sq = float(np.sum(mixing_raw * (gram @ mixing_raw)))
        scale = float(np.sqrt(np.diag(gram)) @ np.linalg.norm(mixing_raw, axis=1))
        # an underflowed product meets at most two mixing entries
        reach = float(np.max(mixing_raw))
        bound = (_gamma(n_round) * (norm_t + scale) ** 2
                 + n_products * _SUBNORMAL * (1.0 + reach) ** 2)
        fit = _resolved_fit(norm_sq - 2.0 * inner + model_sq, bound, norm_t, history)
        if fit is None:
            recon = _ll1_array([term_slice(n) for n in range(n_terms)], c_vecs)
            fit = _relative_fit(t, recon, norm_t)
        history.append(fit)
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


def _ll1_array(slices: list[np.ndarray], mixing: list[np.ndarray]) -> np.ndarray:
    """Dense sum over terms of each O x P slice times its mixing vector."""
    arr = np.zeros(slices[0].shape + (mixing[0].size,))
    for s, c in zip(slices, mixing):
        arr += s[:, :, None] * c[None, None, :]
    return arr


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
        return DenseTensor(_ll1_array([term.slice() for term in f.terms],
                                      [term.c for term in f.terms]))
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
