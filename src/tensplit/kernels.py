"""Matrix factorizations and constrained least squares.

SVD, QR and the pseudoinverse are thin wrappers over LAPACK (deterministic
for a given input).  The nonnegative least-squares solver is an active-set
method in the Lawson-Hanson style, implemented here because its exact
behaviour (dual tolerance, iteration cap, exact zeros in the solution) is
part of this package's contract.  There is one iteration, batched over
right-hand sides: every column of a multi-column problem advances in the
same few numpy calls, and each column's result is independent of the batch
it came in.  It is given one of two subproblem solvers: stacked solves of
the normal equations on a^T a and a^T y, or, for designs whose Gram matrix
is ill-conditioned, least squares on the design itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import _as_matrix


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before converging."""


@dataclass
class SvdResult:
    u: np.ndarray  # orthonormal columns
    s: np.ndarray  # singular values, descending, >= 0
    v: np.ndarray  # orthonormal columns; u @ diag(s) @ v.T reconstructs


@dataclass
class QrResult:
    q: np.ndarray  # orthonormal columns
    r: np.ndarray  # upper triangular


def svd(m) -> SvdResult:
    """Thin singular value decomposition."""
    m = _as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input has non-finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdResult(u=u, s=s, v=vh.T)


def pinv(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below `tol` are dropped.

    Default tol is max(rows, cols) * machine epsilon * largest singular value.
    """
    m = _as_matrix(m)
    if tol is None and m.shape == (1, 1) and 1e-130 < abs(m[0, 0]) < 1e130:
        # the SVD of [[x]] is |x| with unit signs, so 1 / x is the SVD
        # path's result bit for bit where LAPACK does not rescale x
        return 1.0 / m
    res = svd(m)
    s_max = float(res.s[0]) if res.s.size else 0.0
    if tol is None:
        tol = max(m.shape) * np.finfo(np.float64).eps * s_max
    elif tol < 0:
        raise ValueError("tol must be nonnegative")
    inv = np.divide(1.0, res.s, out=np.zeros_like(res.s), where=res.s > tol)
    return (res.v * inv) @ res.u.T


def qr(m) -> QrResult:
    """Thin QR factorization; requires rows >= cols."""
    m = _as_matrix(m)
    if m.shape[0] < m.shape[1]:
        raise ValueError(f"qr needs rows >= cols, got shape {m.shape}")
    q, r = np.linalg.qr(m, mode="reduced")
    return QrResult(q=q, r=r)


# Normal equations square the design's condition number, so a Gram matrix
# with a condition number above this is solved on the design itself.
GRAM_COND_MAX = 1e8


def nnls(a, y, tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
    """Solve min ||a x - y||_2 subject to x >= 0.

    One right-hand side of :func:`nnls_multi`, which holds the solver and
    its contract.
    """
    return nnls_multi(a, np.ravel(y)[:, None], tol=tol, max_iter=max_iter)[:, 0]


def nnls_multi(a, ys, tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
    """Column-wise nnls: column j of the result solves
    min ||a x - ys[:, j]||_2 subject to x >= 0.

    Lawson-Hanson active-set iteration: grow the passive (positive) set by
    the most violated dual coordinate, solve the unconstrained LS problem on
    that set, and step back toward feasibility when the subproblem solution
    leaves the nonnegative orthant.  Inactive coordinates are exact zeros.
    `tol` is the dual feasibility threshold; a coordinate whose admission
    makes no numerical progress is shelved until the iterate next moves,
    which keeps near-degenerate problems from cycling.  The iteration cap
    defaults to 10 * cols admissions, with at most 3 * cols feasibility
    steps per admission; either cap raises ConvergenceError.  Non-finite
    entries in `a` or `ys` raise ValueError.

    One iteration advances every unfinished column together and is given
    the dual and the passive-set subproblem solver of one of two
    representations.  Normally it runs in Gram form (Bro & De Jong's
    FNNLS): a^T a and a^T ys are formed once, the dual is a^T ys - a^T a x
    and each step is one stacked K x K solve.  A Gram matrix that is
    non-finite or ill-conditioned (condition number above GRAM_COND_MAX)
    is not trusted: the dual is then a^T (y - a x) and each subproblem is
    least squares on the passive columns of `a`, one column of ys at a
    time.  A design whose Gram matrix overflows is first scaled by a power
    of two to a largest entry in [0.5, 1), and the solution scaled back, so
    the absolute `tol` thresholds act as on that design.  Either way each
    column's arithmetic is the same whichever columns share the call, so
    column j equals nnls(a, ys[:, j]) bit for bit.
    """
    a = _as_matrix(a, "a")
    ys = _as_matrix(ys, "ys")
    m, n = a.shape
    if ys.shape[0] != m:
        raise ValueError(f"a has {m} rows but ys has {ys.shape[0]}")
    if max_iter is None:
        max_iter = max(30, 10 * n)
    if n == 0 or ys.shape[1] == 0:
        return np.zeros((n, ys.shape[1]))
    g = a.T @ a
    shift = 0
    if not np.isfinite(g).all() and np.isfinite(a).all():
        # The Gram matrix overflowed.  Scaling by a power of two is exact
        # and commutes with every rounding, so solving on the design scaled
        # to a largest entry in [0.5, 1) and scaling the solution back
        # gives every power-of-two multiple of a design one result.
        shift = int(np.frexp(np.max(np.abs(a)))[1])
        a = np.ldexp(a, -shift)
        g = a.T @ a
    yst = np.ascontiguousarray(ys.T)
    # one matrix-vector product per column: a column's a^T y must not
    # depend on how many columns share the call
    aty = np.matmul(yst[:, None, :], a)[:, 0, :]
    finite = np.isfinite(g).all() and np.isfinite(aty).all()
    if not finite and not (np.isfinite(a).all() and np.isfinite(ys).all()):
        raise ValueError("nnls input has non-finite entries")
    if finite and not _ill_conditioned(g):
        x = _lawson_hanson(
            aty, n, tol, max_iter,
            dual=lambda b, x: b - np.matmul(x[:, None, :], g)[:, 0, :],
            solve=partial(_solve_passive, g, np.eye(n)),
        )
    else:
        x = _lawson_hanson(yst, n, tol, max_iter, dual=partial(_residual_dual, a),
                           solve=partial(_lstsq_passive, a))
    return (np.ldexp(x, -shift) if shift else x).T


def _ill_conditioned(g: np.ndarray) -> bool:
    """Whether the symmetric Gram matrix g has a condition number above
    GRAM_COND_MAX; a singular g counts as ill-conditioned."""
    eig = np.linalg.eigvalsh(g)  # ascending
    return not eig[0] * GRAM_COND_MAX > eig[-1]


def _lawson_hanson(b: np.ndarray, n: int, tol: float, max_iter: int,
                   dual, solve) -> np.ndarray:
    """Lawson-Hanson for every row q of b at once; returns one solution row
    of length n per row of b.

    `dual(b, x)` gives the dual a^T (y - a x) of each row, and
    `solve(b, passive)` the least-squares solution of each row on its
    passive set, with exact zeros off it.  Rows leave the state arrays when
    they finish (`rows` maps the rest to their rows of b).  All remaining
    rows admit a coordinate together, so one admission count covers them
    all.  Feasibility is restored on every remaining row until all are
    feasible: a row that already is gets the same solve again, which
    leaves it unchanged.
    """
    n_rhs = b.shape[0]
    out = np.zeros((n_rhs, n))
    rows = np.arange(n_rhs)
    x = np.zeros((n_rhs, n))
    passive = np.zeros((n_rhs, n), dtype=bool)
    blocked = np.zeros((n_rhs, n), dtype=bool)
    outer = 0
    while True:
        w = dual(b, x)
        w[passive | blocked] = -np.inf
        going = w.max(axis=1) > tol
        if not going.all():
            out[rows[~going]] = x[~going]
            if not going.any():
                return out
            rows, b, x, passive, blocked, w = (
                v[going] for v in (rows, b, x, passive, blocked, w)
            )
        outer += 1
        if outer > max_iter:
            raise ConvergenceError(
                f"nnls failed to converge within {max_iter} iterations "
                f"(likely an ill-conditioned design matrix)"
            )
        j = w.argmax(axis=1)  # the first of the largest candidates
        live = np.arange(rows.size)
        passive[live, j] = True
        x_before = x  # the loop below rebinds x before changing it
        inner = 0
        while True:
            z = solve(b, passive)
            bad = passive & (z <= 0.0)
            infeasible = bad.any(axis=1)
            if not infeasible.any():
                x = z
                break
            inner += 1
            if inner > 3 * n:
                raise ConvergenceError("nnls feasibility restoration failed to settle")
            # step from x toward z, stopping at the first coordinate to hit 0
            denom = x - z
            steps = np.divide(x, denom, out=np.where(bad, 0.0, np.inf),
                              where=bad & (denom > 0.0))
            alpha = np.where(infeasible, steps.min(axis=1), 0.0)
            x = np.where(infeasible[:, None], x + alpha[:, None] * (z - x), z)
            drop = passive & (x <= tol) & infeasible[:, None]
            x[drop] = 0.0
            passive &= ~drop
            x[~passive.any(axis=1)] = 0.0
        # an admission that went nowhere is shelved until x moves
        stuck = (x == x_before).all(axis=1)
        if stuck.any():
            shelved, js = live[stuck], j[stuck]
            passive[shelved, js] = False
            x[shelved, js] = 0.0
            blocked[shelved, js] = True
        blocked[~stuck] = False


def _solve_passive(g: np.ndarray, eye: np.ndarray, rhs: np.ndarray,
                   passive: np.ndarray) -> np.ndarray:
    """Per row q, solve g[P, P] z[P] = rhs[q, P] on the passive set P of
    passive[q], with exact zeros off P: one stacked solve over copies of g
    whose rows and columns outside P are those of the identity `eye`."""
    gm = np.where(passive[:, :, None] & passive[:, None, :], g, eye)
    z = np.linalg.solve(gm, np.where(passive, rhs, 0.0)[:, :, None])[:, :, 0]
    return np.where(passive, z, 0.0)


def _residual_dual(a: np.ndarray, yst: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per row q, the dual a^T (yst[q] - a x[q]); an entry that overflowed
    to NaN becomes -inf, so it is never admitted."""
    w = np.array([a.T @ (y - a @ xq) for y, xq in zip(yst, x)])
    w[np.isnan(w)] = -np.inf
    return w


def _lstsq_passive(a: np.ndarray, yst: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Per row q, least squares of yst[q] on the columns of `a` in the
    passive set of passive[q], with exact zeros off it."""
    z = np.zeros(passive.shape)
    for zq, y, p in zip(z, yst, passive):
        zq[p] = np.linalg.lstsq(a[:, p], y, rcond=None)[0]
    return z
