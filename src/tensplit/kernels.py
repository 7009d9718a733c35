"""Matrix factorizations and constrained least squares.

SVD, QR and the pseudoinverse are thin wrappers over LAPACK (deterministic
for a given input).  The nonnegative least-squares solver is an active-set
method in the Lawson-Hanson style, implemented here because its exact
behaviour (dual tolerance, iteration cap, exact zeros in the solution) is
part of this package's contract.  It works in Gram form, on a^T a and
a^T y, and is batched over right-hand sides: every column of a multi-column
problem advances in the same few stacked numpy calls, and each column's
result is independent of the batch it came in.  Designs whose Gram matrix
is ill-conditioned fall back to least squares on the design itself.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    a = _as_matrix(a, "a")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != a.shape[0]:
        raise ValueError(f"a has {a.shape[0]} rows but y has {y.size} entries")
    return nnls_multi(a, y[:, None], tol=tol, max_iter=max_iter)[:, 0]


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
    steps per admission; either cap raises ConvergenceError.

    The iteration runs in Gram form (Bro & De Jong's FNNLS): a^T a and
    a^T ys are formed once, and every unfinished column advances together,
    one stacked K x K solve per step.  Each column's arithmetic is the same
    whichever columns share the call, so column j equals
    nnls(a, ys[:, j]) bit for bit.  A non-finite or ill-conditioned Gram
    matrix (condition number above GRAM_COND_MAX) falls back to the same
    iteration with least squares on the columns of `a`, one column of ys
    at a time.
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
    # one matrix-vector product per column: a column's a^T y must not
    # depend on how many columns share the call
    aty = np.matmul(np.ascontiguousarray(ys.T)[:, None, :], a)[:, 0, :]
    if not (np.isfinite(g).all() and np.isfinite(aty).all()) or _ill_conditioned(g):
        return np.column_stack(
            [_nnls_lstsq(a, ys[:, j], tol, max_iter) for j in range(ys.shape[1])]
        )
    return _nnls_gram(g, aty, tol, max_iter).T


def _ill_conditioned(g: np.ndarray) -> bool:
    """Whether the symmetric Gram matrix g has a condition number above
    GRAM_COND_MAX; a singular g counts as ill-conditioned."""
    eig = np.linalg.eigvalsh(g)  # ascending
    return not eig[0] * GRAM_COND_MAX > eig[-1]


def _max_iter_error(max_iter: int) -> ConvergenceError:
    return ConvergenceError(
        f"nnls failed to converge within {max_iter} iterations "
        f"(likely an ill-conditioned design matrix)"
    )


def _restore_error() -> ConvergenceError:
    return ConvergenceError("nnls feasibility restoration failed to settle")


def _nnls_gram(g: np.ndarray, b: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Lawson-Hanson on the normal equations g x = b[q] for every row q of
    b at once; returns one solution row per row of b.

    Rows leave the state arrays when they finish (`rows` maps the rest to
    their rows of b).  All remaining rows admit a coordinate together, so
    one admission count covers them all.  Feasibility is restored on every
    remaining row until all are feasible: a row that already is gets the
    same solve again, which leaves it unchanged.
    """
    n_rhs, n = b.shape
    out = np.zeros((n_rhs, n))
    rows = np.arange(n_rhs)
    x = np.zeros((n_rhs, n))
    passive = np.zeros((n_rhs, n), dtype=bool)
    blocked = np.zeros((n_rhs, n), dtype=bool)
    eye = np.eye(n)
    outer = 0
    while True:
        w = b - np.matmul(x[:, None, :], g)[:, 0, :]
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
            raise _max_iter_error(max_iter)
        j = w.argmax(axis=1)  # the first of the largest candidates
        live = np.arange(rows.size)
        passive[live, j] = True
        x_before = x  # the loop below rebinds x before changing it
        inner = 0
        while True:
            z = _solve_passive(g, eye, b, passive)
            bad = passive & (z <= 0.0)
            infeasible = bad.any(axis=1)
            if not infeasible.any():
                x = z
                break
            inner += 1
            if inner > 3 * n:
                raise _restore_error()
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


def _nnls_lstsq(a: np.ndarray, y: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """The iteration of nnls_multi for one right-hand side, with each
    subproblem solved by least squares on the passive columns of `a`."""
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    outer = 0
    while True:
        w = a.T @ (y - a @ x)
        candidates = ~passive & ~blocked & (w > tol)
        if not candidates.any():
            break
        outer += 1
        if outer > max_iter:
            raise _max_iter_error(max_iter)
        j = int(np.flatnonzero(candidates)[np.argmax(w[candidates])])
        passive[j] = True
        x_before = x.copy()
        inner = 0
        while True:
            z = np.zeros(n)
            z[passive], *_ = np.linalg.lstsq(a[:, passive], y, rcond=None)
            if np.all(z[passive] > 0.0):
                x = z
                break
            inner += 1
            if inner > 3 * n:
                raise _restore_error()
            # step from x toward z, stopping at the first coordinate to hit 0
            mask = passive & (z <= 0.0)
            denom = x[mask] - z[mask]
            steps = np.divide(x[mask], denom, out=np.zeros_like(denom),
                              where=denom > 0.0)
            alpha = float(np.min(steps))
            x = x + alpha * (z - x)
            drop = passive & (x <= tol)
            x[drop] = 0.0
            passive &= ~drop
            if not passive.any():
                x = np.zeros(n)
                break
        if np.array_equal(x, x_before):
            # admission of j went nowhere; shelve it until x moves
            passive[j] = False
            x[j] = 0.0
            blocked[j] = True
        else:
            blocked[:] = False
    return x
