"""Tensor decompositions: CPD via ALS, truncated HOSVD, and the
rank-(L,L,1) block-term decomposition with a nonnegative stacking mode.

All three operate on order-3 tensors.  Factor columns are returned with
unit Euclidean norm; the norms are absorbed into per-component weights.
The CPD sweep reads the input as its stack of image slices T_k and forms
no Khatri-Rao product.  Two batched per-slice products serve its three
updates: T x_2 B^T (slices B^T T_k^T), contracted with C, gives the A
update, and T x_1 A^T (slices A^T T_k), contracted with C or with B, the
B and C updates.  Each update solves one R x R system on the Hadamard
product of two Gram matrices, each Gram formed once per sweep, or takes
its pseudoinverse where pinv would drop a singular value.  The LL1 sweep
updates each term's two matrix factors in turn (Gauss-Seidel) by least
squares on an O x P matrix: the input contracted with the term's mixing
vector, less the other terms' slices weighted by how much their mixing
vectors overlap it.  After each term it refreshes the whole mixing matrix
by row-wise NNLS against the term slices: K solves per sweep, which
with the K contractions make 2K passes over the input.  It runs on an
order-4 stack of same-shape ensembles at once, read in place, each step
one batched call, and gives each ensemble the result it gets alone, bit
for bit; `ll1_nn` is its one-ensemble case.

CPD and LL1 take the relative fit of every sweep from one function,
`_gram_fits`, in Gram form, ||T - T^||^2 = ||T||^2 - 2 <T, T^> + ||T^||^2,
for a model whose mode-3 unfolding is (R M)^T (CPD: R = B kr A,
M = (C diag(w))^T): from the X_3 R and R^T R the sweep already holds and
the mixing M (the C update's, or LL1's last mixing solve's, with R scaled
by a power of two and M by its inverse), so no dense model is built and
the input is not read again.  It reduces the statistics of a whole stack
at once, each equal to the tensor's own bit for bit; a CPD fit is the
stack of one.  Where their rounding bound cannot resolve the fit or its
change since the last sweep, the caller takes the fit from the residual
X_3 - (R M)^T (`_model_x3`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import dtf
from .core import (DenseTensor, _check_count, _finite_nonneg, _is_number, fold, khatri_rao,
                   mode_n_product, norm_frobenius, unfold)
from .kernels import (ConvergenceError, _gufunc, _linalg_errstate, _nnls_scaled, _pinv_stack,
                      pinv, svd)

_EPS = np.finfo(np.float64).eps
_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)

INIT_RANDOM = "random"
INIT_HOSVD = "hosvd"


@dataclass
class DecompConfig:
    """Settings of a CPD or LL1 fit.  max_sweeps >= 1 and the seed >= 0 of the
    random start and of zero-column redraws are integers, rel_tol > 0 a finite
    number, numpy's included; a bool or a misplaced fraction raises ValueError."""

    max_sweeps: int = 500
    rel_tol: float = 1e-8
    seed: int = 0
    init: str = INIT_RANDOM

    def __post_init__(self):
        _check_count("max_sweeps", self.max_sweeps)  # a fractional cap is never reached
        if not (_is_number(self.rel_tol) and 0 < self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be a finite positive number, got {self.rel_tol!r}")
        if not (_is_number(self.seed, integral=True) and self.seed >= 0):  # default_rng's rule
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
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
        if len(self.factors) != 3:
            raise ValueError(f"a CPD model has 3 factor matrices, got {len(self.factors)}")
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
        if self.a.ndim != 2 or self.b.ndim != 2 or self.c.ndim != 1:
            raise ValueError("a and b must be matrices and c a vector")
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
        if len({(t.a.shape[0], t.b.shape[0], t.c.size) for t in self.terms}) > 1:
            raise ValueError("block terms have inconsistent dimensions")

    @property
    def shape(self) -> tuple[int, int, int]:
        t = self.terms[0]
        return (t.a.shape[0], t.b.shape[0], t.c.size)


def _normalize_columns(m: np.ndarray, rngs: list, flags: list, what: str):
    """Scale the columns of each matrix m[i] of a stack to unit norm; a zero
    column is replaced by a fresh random unit column drawn from rngs[i],
    with weight 0 and a flag in flags[i].  Norms are summed as
    np.linalg.norm(m[i], axis=0) sums them, so none is negative or -0.0."""
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    if np.count_nonzero(norms) == norms.size:  # norms.all() takes 3x as long here
        return m / norms[:, None, :], norms
    zero = norms == 0.0
    out = np.divide(m, norms[:, None, :], out=np.empty_like(m), where=~zero[:, None, :])
    for i, j in zip(*np.nonzero(zero)):
        col = rngs[i].standard_normal(m.shape[1])
        out[i, :, j] = col / np.linalg.norm(col)
        flags[i].append(f"zero-column:{what}")
    return out, norms


def _normalize_nonneg_vectors(v: np.ndarray, rngs: list, flags: list, names: list):
    """Scale each row v[i, n], a nonnegative vector, to unit norm; a zero row
    is replaced by a fresh random positive unit vector drawn from rngs[i],
    with norm 0 and a flag names[n] in flags[i].  Each norm is a dot product
    over a contiguous copy of its row, as np.linalg.norm takes it."""
    v = np.ascontiguousarray(v)
    norms = np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])
    if np.count_nonzero(norms) == norms.size:  # as in _normalize_columns
        return v / norms[..., None], norms
    out = np.divide(v, norms[..., None], out=np.empty_like(v), where=norms[..., None] != 0.0)
    for i, n in zip(*np.nonzero(norms == 0.0)):
        col = rngs[i].uniform(0.0, 1.0, size=v.shape[-1]) + _EPS
        out[i, n] = col / np.linalg.norm(col)
        flags[i].append(f"zero-column:{names[n]}")
    return out, norms


def _converged(history: list, rel_tol: float) -> bool:
    # fit values are already scaled by the input norm, so once prev drops
    # under 1 this is an absolute test on the change in relative fit
    if len(history) < 2:
        return False
    prev, cur = history[-2], history[-1]
    return abs(prev - cur) < rel_tol * max(1.0, prev)


def _relative_fit(x: np.ndarray, model: np.ndarray, norm_t: float) -> float:
    err = norm_frobenius(x - model)
    return err / norm_t if norm_t > 0 else err


def _gram_fits(xr: np.ndarray, gram: np.ndarray, mixing: np.ndarray, norm_sq: list,
               norms: list, histories: list, size: int, n_round: int, underflow: int) -> list:
    """The relative fit of each model R M of a stack in Gram form,
    ||T - T^||^2 = ||T||^2 - 2 <T, T^> + ||T^||^2, or None where the bound
    below cannot resolve the fit or its change from the last fit in
    histories[g].  The caller passes the X_3 R (xr) and R^T R (gram) it
    holds, the mixing M (one row per column of R), each T's ||T||^2 and
    ||T|| (`_x3_in_range`) and its number of entries, the most roundings
    an entry of X_3 R or R^T R has passed through (n_round) and the number
    of products that formed them (underflow), the same for every T.
    <T, T^> = sum(M * (X_3 R)^T), ||T^||^2 = sum(M * R^T R M),
    the bound's S = sum_k ||R_k|| ||M_k|| and
    max|M| are each one reduction over the stack, equal to each tensor's
    own bit for bit while every tensor's block of the reduced array is one
    contiguous run of memory laid out as its own array: numpy then sums
    each block in one pairwise loop in memory order.
    """
    inner = np.add.reduce(mixing * xr.swapaxes(1, 2), axis=(1, 2)).tolist()
    model_sq = np.add.reduce(mixing * (gram @ mixing), axis=(1, 2)).tolist()
    lengths = np.sqrt(np.add.reduce(mixing * mixing, axis=2))  # ||M_k||, as np.linalg.norm
    scales = np.matmul(np.sqrt(gram.diagonal(0, 1, 2))[:, None, :],
                       lengths[:, :, None])[:, 0, 0].tolist()
    reaches = np.maximum.reduce(np.abs(mixing), axis=(1, 2)).tolist()
    # Rounding bound (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.1), with u = eps / 2 and
    # gamma_m = m u / (1 - m u).  A computed sum of products, in any
    # summation order, is within gamma_m times the sum of the products'
    # absolute values when no product passes through more than m roundings
    # (eq. 3.5).  T^ is a sum of terms R_k M_k whose norms add up to S, so
    # by Cauchy-Schwarz the absolute values of the products in <T, T^> sum
    # to at most ||T|| S, and those in ||T^||^2 to at most S^2.  With N
    # entries of T and M of K rows of length Q:
    #   * ||T||^2 is np.sum(np.square(T)) over a contiguous array, which
    #     numpy sums pairwise in blocks of at most 128 terms with eight
    #     accumulators, so each square passes through at most
    #     floor(log2 N) + 23 roundings, its own included;
    #   * a product of <T, T^> passes through its X_3 R entry's n_round,
    #     one product and a sum of KQ; one of ||T^||^2 through its R^T R
    #     entry's n_round, a sum of K (R^T R M), one product and a sum of KQ;
    #   * the two operations joining the three add 2 u (||T|| + S)^2.
    # So |computed err^2 - err^2| <= gamma_n (||T|| + S)^2 to first order, n
    # being the largest count plus 2.  (The stored factors, LL1's
    # renormalized, and the fallback's model put it a few ulps of S off the
    # R M passed here, far inside this; `_ll1_stack` bounds LL1's underflow.)
    # Under gradual underflow a product may instead err by up to half the
    # smallest subnormal, while sums in the subnormal range are exact
    # (Higham, section 2.1).  So in units of half the smallest subnormal
    # summed over their entries, underflow adds at most one unit per
    # product to X_3 R and R^T R, `underflow` in all.  The products formed
    # here, the squares of T, those of R^T R M and the two elementwise, add
    # one unit each.  On its way to err^2 an error in an entry of X_3 R or
    # R^T R meets at most two entries of M and otherwise numbers of modulus at
    # most 1 (the callers see to it), so add the units times the smallest
    # subnormal times (1 + max|M|)^2, the largest modulus since CPD's M,
    # unlike LL1's, may have negative entries.  (An entry that overflowed
    # makes err^2 non-finite: no fit.)  The bound is doubled, covering the
    # second-order terms and its own rounding.  With
    # err2 > 2 bound the exact squared error x has x >= err2 / 2, so
    # |sqrt(err2) - sqrt(x)| = |err2 - x| / (sqrt(err2) + sqrt(x)) <=
    # bound / sqrt(err2); two more roundings, the root and the division,
    # add eps times the fit.
    n_terms, q = mixing.shape[1:]
    n = max(size.bit_length() + 23, n_round + n_terms + n_terms * q) + 2
    u = _EPS / 2
    gamma = n * u / (1.0 - n * u)
    units = underflow + size + n_terms * (n_terms + 2) * q
    fits = []
    for t_sq, t_norm, history, t_inner, t_model_sq, scale, reach in zip(
            norm_sq, norms, histories, inner, model_sq, scales, reaches):
        err2 = t_sq - 2.0 * t_inner + t_model_sq
        bound = gamma * (t_norm + scale) ** 2 + units * _SUBNORMAL * (1.0 + reach) ** 2
        fit = None
        if t_norm > 0 and err2 > 2.0 * bound and math.isfinite(err2 + bound):
            root = math.sqrt(err2)
            fit = root / t_norm
            fit_bound = bound / (root * t_norm) + _EPS * fit
            if history and abs(fit - history[-1]) <= 2.0 * fit_bound:
                fit = None
        fits.append(fit)
    return fits


def _require_order3(t: DenseTensor, op: str) -> None:
    if t.order != 3:
        raise ValueError(f"{op} requires an order-3 tensor, got order {t.order}")


def _x3_in_range(t: DenseTensor) -> tuple:
    """(x3, norms, norm_sq, shifts) of an O x P x Q tensor or an O x P x Q x d
    stack: x3[g] is ensemble g's X_3, Q x (O*P), in a C-ordered view of t,
    with norm norms[g] and squared norm norm_sq[g], summed as `_gram_fits`
    counts it.  Where its norm lies outside [2^-500, 2^500] and the fit's
    squares could underflow or overflow, x3 is one np.ldexp copy with x3[g]
    scaled exactly by the 2^-shift that puts its norm in [0.5, 1); weights
    scale back."""
    O, P, Q = t.shape[:3]
    x3 = t.values.reshape(O * P, Q, -1, order="F").transpose(2, 1, 0)
    norms = [norm_frobenius(x) for x in x3]
    shifts = [0 if 2.0 ** -500 <= n <= 2.0 ** 500 or not 0.0 < n < math.inf
              else math.frexp(n)[1] for n in norms]
    if any(shifts):
        x3 = np.ldexp(x3, -np.array(shifts)[:, None, None])
        norms = [norm_frobenius(x) for x in x3]
    return x3, norms, [float(np.sum(np.square(x))) for x in x3], shifts


def _nonneg_columns(u: np.ndarray) -> np.ndarray:
    """The columns of u clipped at 0; a column that clips to all zeros is
    its negation clipped instead, a singular vector's sign being arbitrary."""
    out = np.clip(u, 0.0, None)
    flip = ~out.any(axis=0)
    out[:, flip] = np.clip(-u[:, flip], 0.0, None)
    return out


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

    Each mode update solves its exact least-squares subproblem: the input
    contracted with the other two factors (X_n times their Khatri-Rao
    product) solved against the Hadamard product of their Gram matrices,
    or times its pseudoinverse where pinv would drop a singular value, so
    the relative fit recorded per sweep is non-increasing.
    The contractions read the input as its K image slices T_k, I x J views
    of it, and no Khatri-Rao matrix is formed.  T x_2 B^T, the products
    B^T T_k^T of one batched matmul, is summed against C over k for the A
    update; T x_1 A^T, the products A^T T_k with the new A, is summed
    against C over k for the B update and against the new B over j for the
    C update's m3 = X_3 (B kr A).  A slice times an R-column factor is small
    enough that BLAS does not pack it, which a GEMM over a whole unfolding
    with only R output rows does.  A^T A, B^T B and C^T C are each formed
    once per sweep and serve the two Hadamard systems they enter.

    The fit of the model R M, R = B kr A and M = (C diag(w))^T, is taken in
    Gram form (`_gram_fits`) from the m3 = X_3 R and R^T R = B^T B * A^T A
    of the C update; where its rounding bound cannot resolve the fit or its
    change, the residual X_3 - (R M)^T gives it.  An input whose norm lies
    outside [2^-500, 2^500] is fitted scaled by a power of two, and the
    weights are scaled back.
    Non-convergence at the sweep cap is reported through diagnostics, not raised.
    """
    _require_order3(t, "cpd_als")
    _check_count("rank", rank)
    (x3,), (norm_t,), (norm_sq,), (shift,) = _x3_in_range(t)
    t = DenseTensor._wrap(x3.T.reshape(t.shape, order="F"))  # t, or t scaled
    cfg = cfg or DecompConfig()
    rng = np.random.default_rng(cfg.seed)
    flags: list[str] = []

    I, J, K = t.shape
    feasible = min(min(I, J * K), min(J, I * K), min(K, I * J))
    if rank > feasible:
        flags.append("degenerate-rank")

    slices = t.values.transpose(2, 0, 1)  # slices[k] = T_k, an I x J view of t
    if cfg.init == INIT_RANDOM:
        a = rng.standard_normal((I, rank))
        b = rng.standard_normal((J, rank))
        c = rng.uniform(0.0, 1.0, size=(K, rank))
    else:
        a, b, c = _hosvd_factor_init(t, [rank, rank, rank])
        c = _nonneg_columns(c)

    # For `_gram_fits`: an entry of m3 passes through I roundings in A^T T_k
    # and J with B, one of B^T B * A^T A through I + J + 1, so n_round =
    # I + J + 1 and a product of ||T^||^2, the most rounded, passes through
    # I + J + R + R K + 1.  M = (C diag(w))^T is taken as formed, as the
    # dense fallback and `reconstruct` form it.  Products formed: the
    # I J K R of A^T T_k, the J K R with B and the (I + J + 1) R^2 of the
    # Gram matrices; after an underflow in one come only entries of unit
    # columns of A and B or of B^T B, and two of M.
    n_products = t.size * rank + J * K * rank + (I + J + 1) * rank ** 2
    history: list[float] = []
    weights = np.ones(rank)
    converged = False
    sweeps = 0
    gb, gc = b.T @ b, c.T @ c
    for sweeps in range(1, cfg.max_sweeps + 1):
        # tb[k, r, i] = sum_j T[i, j, k] B[j, r], summed against C over k
        tb = np.matmul(b.T, slices.swapaxes(1, 2))
        a = _times_inverse(np.matmul(tb.transpose(1, 2, 0), c.T[:, :, None])[:, :, 0].T, gc * gb)
        a = _normalize_columns(a[None], [rng], [flags], "mode0")[0][0]
        ga = a.T @ a
        # ta[k, r, j] = sum_i T[i, j, k] A[i, r], summed against C over k
        ta = np.matmul(a.T, slices)
        b = _times_inverse(np.matmul(ta.transpose(1, 2, 0), c.T[:, :, None])[:, :, 0].T, gc * ga)
        b = _normalize_columns(b[None], [rng], [flags], "mode1")[0][0]
        gb = b.T @ b
        # and against the new B over j: m3 = X_3 (B kr A)
        m3 = np.matmul(ta.transpose(1, 0, 2), b.T[:, :, None])[:, :, 0].T
        gab = gb * ga
        c = _times_inverse(m3, gab)
        (c,), (weights,) = _normalize_columns(c[None], [rng], [flags], "mode2")
        gc = c.T @ c

        mixing = (c * weights).T
        (fit,) = _gram_fits(m3[None], gab[None], mixing[None], [norm_sq], [norm_t],
                            [history], t.size, I + J + 1, n_products)
        if fit is None:
            fit = _relative_fit(x3, _model_x3(khatri_rao(b, a), mixing), norm_t)
        history.append(fit)
        if _converged(history, cfg.rel_tol):
            converged = True
            break

    # weights are column norms, hence nonnegative; flip any residual -0.0
    weights = np.ldexp(np.abs(weights), shift)
    diag = Diagnostics(sweeps=sweeps, converged=converged, fit_history=history,
                       flags=flags, seed=cfg.seed)
    return KruskalFactors(factors=[a, b, c], weights=weights, diagnostics=diag)


def _times_inverse(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """m @ pinv(g) for a symmetric positive semidefinite g, by a solve
    where g's smallest eigenvalue is above pinv's cutoff."""
    with _linalg_errstate():  # entered once for both gufunc calls
        eig = _gufunc("eigvalsh_lo", g)  # ascending
        if eig[0] > g.shape[0] * _EPS * eig[-1]:
            return _gufunc("solve", g, m.T).T
    return m @ pinv(g)


def hosvd(t: DenseTensor, mlrank) -> TuckerFactors:
    """Truncated higher-order SVD.

    Mode factors are the leading left singular vectors of each unfolding;
    the core is the input contracted with the factor transposes.  With full
    multilinear rank the reconstruction is exact.  mlrank[n] is at most
    the rank the mode-n unfolding can have, min(I_n, prod_{m != n} I_m).
    """
    _require_order3(t, "hosvd")
    mlrank = list(mlrank)
    if len(mlrank) != 3:
        raise ValueError("mlrank must have one entry per mode")
    for n, r in enumerate(mlrank):
        if not _is_number(r, integral=True):
            raise ValueError(f"mlrank[{n}] must be an integer, got {r!r}")
        top = min(t.shape[n], t.size // t.shape[n])
        if not 1 <= r <= top:
            raise ValueError(f"mlrank[{n}]={r} out of range 1..{top}")
    factors = _hosvd_factor_init(t, mlrank)
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
    residual formed.  After each term, the whole mixing matrix is refreshed
    by nonnegative least squares of the original mode-2 unfolding against
    the vectorized slices of all terms (K solves per sweep), and everything
    is renormalized.
    The mixing vectors come back elementwise >= 0 with exact zeros allowed;
    zero entries are flagged in diagnostics.

    After a sweep the model is the last mixing update's regressor R (one
    vectorized slice per column) times its raw mixing M.  That solve scaled
    R by a power of two, 2^s, and the recorded fit is taken in Gram form
    (`_gram_fits`) from what it formed: X_3 R' (one row at a time) and
    R'^T R' of R' = R 2^s, and its solution M 2^-s.  Where its rounding
    bound cannot resolve the fit or its change, the residual X_3 - (R M)^T
    gives it.  As in cpd_als, an input whose norm lies outside
    [2^-500, 2^500] is fitted scaled by a power of two, and the weights are
    scaled back.  This is the one-tensor case of `_ll1_stack`.
    """
    _require_order3(t, "ll1_nn")
    return _ll1_stack(t, ranks, [cfg or DecompConfig()])[0]


def _ll1_stack(t: DenseTensor, ranks, cfgs: list) -> list:
    """ll1_nn of each ensemble t[:, :, :, g] of an O x P x Q x d stack, with
    config cfgs[g], bit for bit; an order-3 tensor is the stack of one.

    The stack is read in place, as the view of its d X_3 unfoldings; it is
    copied, once, only to scale ensembles into range (`_x3_in_range`).
    Each step of the sweep runs once for the stack (batched GEMMs and
    pseudoinverses, one stacked mixing NNLS per term), as does the Gram-form fit
    (`_gram_fits`), on the statistics and solution of the last term's solve
    as `_nnls_scaled` returns them; so a sweep reads the X_3 views 2K times,
    once per contraction and once per solve.  Init and
    replacement draws, flags, the resolved fit with its fallback to the
    residual of the last mixing update's R M, and the convergence test
    stay per ensemble; one leaves the stack when it converges or reaches
    its sweep cap.  A ConvergenceError names the failing ensemble in `index`.
    """
    if t.order not in (3, 4):
        raise ValueError(f"ll1_nn takes order 3 or a stack of order 4, got order {t.order}")
    ranks = list(ranks)
    if len(ranks) < 1:
        raise ValueError("need at least one block term")
    for L in ranks:
        _check_count("every block rank L", L)
    O, P, Q, d = (*t.shape, 1)[:4]
    if len(cfgs) != d:
        raise ValueError(f"a stack of {d} ensembles needs {d} configs, got {len(cfgs)}")
    n_terms = len(ranks)
    x3, norms, norm_sq, shifts = _x3_in_range(t)
    rngs = [np.random.default_rng(cfg.seed) for cfg in cfgs]
    flags: list[list[str]] = [[] for _ in cfgs]

    inits = [_ll1_init(x.T.reshape(O, P, Q, order="F"), ranks, cfg.init, rng)
             for x, cfg, rng in zip(x3, cfgs, rngs)]
    stacked = []  # per term (A, B, c, w), stacked over ensembles
    for k, term in enumerate(zip(*inits)):
        a, b, c = (np.stack(v) for v in zip(*term))
        a, na = _normalize_columns(a, rngs, flags, f"init-a{k}")
        b, nb = _normalize_columns(b, rngs, flags, f"init-b{k}")
        c, nc = _normalize_nonneg_vectors(c[:, None], rngs, flags, [f"init-c{k}"])
        stacked.append((a, b, c, na * nb * nc))
    a_mats, b_mats, c_vecs, w_vecs = (list(v) for v in zip(*stacked))
    mixing = np.concatenate(c_vecs, axis=1)  # mixing[i, n]: term n's mixing vector c_n
    c_names = [f"c{n}" for n in range(n_terms)]

    histories: list[list[float]] = [[] for _ in cfgs]
    results: list = [None] * d
    live = np.arange(d)  # the ensemble at each position of the stack
    sweep = 0
    while live.size:
        sweep += 1
        ids = live.tolist()
        live_rngs, live_flags = ([v[i] for i in ids] for v in (rngs, flags))
        # R, one vectorized slice per term: slots[..., n] is term n's slice transposed
        regressor = np.empty((live.size, O * P, n_terms))
        slots = regressor.reshape(live.size, P, O, n_terms)
        for k in range(n_terms):
            ck = mixing[:, k]
            # c_n . c_k as one dot each; M_k^T = T x_3 c_k less each S_n^T = B_n (A_n w_n)^T
            overlap = np.matmul(mixing[:, :, None, :], ck[:, None, :, None])[:, :, 0, 0]
            m_k = np.matmul(ck[:, None, :], x3).reshape(-1, P, O)
            for n in range(n_terms):
                if n != k:
                    s = b_mats[n] @ (a_mats[n] * w_vecs[n][:, None, :]).swapaxes(1, 2)
                    slots[..., n] = s
                    m_k -= overlap[:, n, None, None] * s
            ck_sq = overlap[:, k, None, None]
            bk = b_mats[k]
            a_hat = m_k.swapaxes(1, 2) @ bk @ _pinv_stack(ck_sq * (bk.swapaxes(1, 2) @ bk))
            b_hat = m_k @ a_hat @ _pinv_stack(ck_sq * (a_hat.swapaxes(1, 2) @ a_hat))
            slots[..., k] = b_hat @ a_hat.swapaxes(1, 2)

            # joint mixing update against the original rhs
            try:
                x, xs, aty, g = _nnls_scaled(regressor, x3)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"mixing-mode NNLS failed while updating term {k}: {exc}",
                    index=int(live[exc.index]),
                ) from exc
            mixing_raw = x.swapaxes(1, 2)

            a_mats[k], na = _normalize_columns(a_hat, live_rngs, live_flags, f"a{k}")
            b_mats[k], nb = _normalize_columns(b_hat, live_rngs, live_flags, f"b{k}")
            mixing, gamma = _normalize_nonneg_vectors(mixing_raw, live_rngs, live_flags, c_names)
            for n in range(n_terms):
                w_vecs[n] = (na * nb if n == k else w_vecs[n]) * gamma[:, n, None]

        # For `_gram_fits`: the last solve's X_3 R' and R'^T R', sums of OP
        # products (n_round = OP), OP K (Q + K) products in all, and its
        # solution x', R' = R 2^s being R scaled by the power of two that
        # puts its peak in [0.5, 1): the fit is that of the model R' x'.
        # R' x' is R M exactly unless s < 0 and an entry of R' or of
        # M = x' 2^s lands below the normal range.  Rounded there by at most
        # half the smallest subnormal, u_s, it puts entry (j, q) of R' x' at
        # most u_s sum_k (|x'_kq| + |R_jk|) off that of R M, the fallback's model.
        fits = _gram_fits(aty, g, xs.swapaxes(1, 2), [norm_sq[i] for i in ids],
                          [norms[i] for i in ids], [histories[i] for i in ids], O * P * Q,
                          O * P, O * P * n_terms * (Q + n_terms))
        keep = np.ones(live.size, dtype=bool)
        for pos, (i, fit) in enumerate(zip(ids, fits)):
            history = histories[i]
            if fit is None:
                model = _model_x3(regressor[pos], mixing_raw[pos])
                fit = _relative_fit(x3[pos], model, norms[i])
            history.append(fit)
            converged = _converged(history, cfgs[i].rel_tol)
            if converged or sweep == cfgs[i].max_sweeps:
                keep[pos] = False
                terms = [BlockTerm(a=a_mats[n][pos], b=b_mats[n][pos], c=mixing[pos, n],
                                   weights=np.ldexp(w_vecs[n][pos], shifts[i]))
                         for n in range(n_terms)]
                flags[i] += [f"zero-mixing-entries:term{n}"
                             for n, term in enumerate(terms) if np.any(term.c == 0.0)]
                diag = Diagnostics(sweeps=sweep, converged=converged, fit_history=history,
                                   flags=flags[i], seed=cfgs[i].seed)
                results[i] = LL1Factors(terms=terms, fit_history=history, diagnostics=diag)
        if not keep.all():
            live, x3, mixing = live[keep], x3[keep], mixing[keep]
            for mats in (a_mats, b_mats, w_vecs):
                mats[:] = [m[keep] for m in mats]
    return results


def _ll1_init(arr: np.ndarray, ranks: list, init: str, rng: np.random.Generator) -> list:
    """Unnormalized initial (A_k, B_k, c_k) of every term: drawn from rng,
    or taken from the HOSVD of the F-ordered O x P x Q array arr, wrapped
    as a tensor in place, with each c_k clipped to >= 0."""
    O, P, Q = arr.shape
    if init == INIT_RANDOM:
        return [(rng.standard_normal((O, L)), rng.standard_normal((P, L)),
                 rng.uniform(0.0, 1.0, size=Q)) for L in ranks]
    cols = [sum(ranks), sum(ranks), len(ranks)]
    ua, ub, uc = _hosvd_factor_init(DenseTensor._wrap(arr), cols)
    uc = _nonneg_columns(uc)
    ends = np.cumsum(ranks)
    return [(ua[:, e - L:e].copy(), ub[:, e - L:e].copy(), uc[:, k])
            for k, (L, e) in enumerate(zip(ranks, ends))]


def _model_x3(regressor: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """X^_3 = (R M)^T, Q x (O*P), of the model whose regressor R holds one
    vectorized O x P slice per column and whose mixing M one length-Q row
    per column of R: the one place a dense CPD or LL1 model is formed."""
    return (regressor @ mixing).T


def reconstruct(f) -> DenseTensor:
    """Dense tensor reconstructed from any factor bundle; a CPD or LL1
    model is folded from its mode-3 unfolding (R M)^T (`_model_x3`)."""
    if isinstance(f, KruskalFactors):
        a, b, c = f.factors
        return fold(_model_x3(khatri_rao(b, a), (c * f.weights).T), 2, f.shape)
    if isinstance(f, TuckerFactors):
        out = f.core
        for n, fac in enumerate(f.factors):
            out = mode_n_product(out, fac, n)
        return out
    if isinstance(f, LL1Factors):
        regressor = np.stack([term.slice().ravel(order="F") for term in f.terms], axis=1)
        return fold(_model_x3(regressor, np.stack([term.c for term in f.terms])), 2, f.shape)
    raise TypeError(f"cannot reconstruct from {type(f).__name__}")


def fit_error(t: DenseTensor, f) -> float:
    """Relative Frobenius reconstruction error ||t - rec|| / ||t||.

    For an all-zero input the absolute error is returned instead.
    """
    rec = reconstruct(f)
    if rec.shape != t.shape:
        raise ValueError(f"shape mismatch: tensor {t.shape} vs factors {rec.shape}")
    return _relative_fit(t.values, rec.values, norm_frobenius(t))


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
# factor bundles (see dtf.write_bundle)


@cache
def _provenance() -> dict:
    """The versions a bundle's numbers depend on, read once per process:
    this package's, numpy's, and the name and version of the BLAS numpy
    was built against.  Neither the kernel that BLAS picks at run time nor
    its thread count is known to numpy, so neither is recorded."""
    from . import __version__

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"tensplit": __version__, "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def save_factors(f, outdir) -> None:
    """Write a factor bundle; its manifest carries the fit diagnostics and
    a `provenance` stamp (`_provenance`), which `load_factors` ignores."""
    diag = getattr(f, "diagnostics", None) or Diagnostics()
    manifest = {
        "fit_history": list(diag.fit_history),
        "seed": diag.seed,
        "sweeps": diag.sweeps,
        "converged": diag.converged,
        "flags": list(diag.flags),
        "provenance": dict(_provenance()),
    }
    if isinstance(f, KruskalFactors):
        manifest.update(type="cpd", K=f.rank, ranks=[1] * f.rank,
                        **{"lambda": f.weights.tolist()})
        tensors = {f"factor{n}": DenseTensor(m) for n, m in enumerate(f.factors)}
    elif isinstance(f, TuckerFactors):
        manifest.update(type="hosvd", K=1, ranks=list(f.core.shape),
                        **{"lambda": []})
        tensors = {"core": f.core}
        tensors.update((f"factor{n}", DenseTensor(m)) for n, m in enumerate(f.factors))
    elif isinstance(f, LL1Factors):
        manifest.update(type="ll1", K=len(f.terms),
                        ranks=[t.block_rank for t in f.terms],
                        **{"lambda": [t.weights.tolist() for t in f.terms]})
        manifest["fit_history"] = list(f.fit_history)
        tensors = {}
        for k, term in enumerate(f.terms):
            for part, m in (("a", term.a), ("b", term.b), ("c", term.c[:, None])):
                tensors[f"term{k:02d}_{part}"] = DenseTensor(m)
    else:
        raise TypeError(f"cannot serialize {type(f).__name__}")
    dtf.write_bundle(outdir, manifest, tensors)


def load_factors(indir):
    return dtf.read_bundle(indir, _factors_from_bundle)


def _bundle_weights(values) -> np.ndarray:
    """A manifest's `lambda` weights, which must be finite and >= 0."""
    weights = np.asarray(values, dtype=np.float64)
    if not _finite_nonneg(weights):
        raise ValueError(f"lambda weights must be finite and >= 0, got {values}")
    return weights


def _factors_from_bundle(manifest: dict, tensor):
    diag = Diagnostics(
        sweeps=manifest.get("sweeps", 0),
        converged=manifest.get("converged", True),
        fit_history=list(manifest.get("fit_history", [])),
        flags=list(manifest.get("flags", [])),
        seed=manifest.get("seed"),
    )
    kind = manifest["type"]
    if kind == "cpd":
        factors = [tensor(f"factor{n}").to_array() for n in range(3)]
        weights = _bundle_weights(manifest["lambda"])
        return KruskalFactors(factors=factors, weights=weights, diagnostics=diag)
    if kind == "hosvd":
        core = tensor("core")
        factors = [tensor(f"factor{n}").to_array() for n in range(3)]
        return TuckerFactors(core=core, factors=factors)
    if kind == "ll1":
        terms = []
        for k in range(manifest["K"]):
            a, b, c = (tensor(f"term{k:02d}_{part}").to_array() for part in "abc")
            weights = _bundle_weights(manifest["lambda"][k])
            c = c.ravel()
            if not _finite_nonneg(c):
                raise ValueError(f"term {k} mixing entries must be finite and >= 0")
            terms.append(BlockTerm(a=a, b=b, c=c, weights=weights))
        return LL1Factors(terms=terms, fit_history=diag.fit_history, diagnostics=diag)
    raise ValueError(f"unknown factor bundle type {kind!r}")
