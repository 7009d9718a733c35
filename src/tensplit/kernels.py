"""Matrix factorizations and constrained least squares.

SVD and the pseudoinverse are thin wrappers over LAPACK (deterministic for a
given input); stacked eigenvalues and solves call numpy.linalg's gufuncs
directly (`_lapack`).  The nonnegative least-squares solver is an active-set
method in the Lawson-Hanson style, implemented here because its exact
behaviour (dual tolerance, iteration cap, exact zeros in the solution) is
part of this package's contract.  There is one iteration, batched over
right-hand sides and over a stack of same-shape designs: every row of the
batch carries its own design's Gram matrix, all rows advance in the same few
numpy calls, and each row's result is independent of the batch it came in.
It is given one of two subproblem solvers: stacked solves of the normal
equations on a^T a and a^T y, or, for designs whose Gram matrix is
ill-conditioned, least squares on the design's n x n QR factor.  In Gram
form a row first admits all of its coordinates in one solve (Van Benthem &
Keenan's FC-NNLS start), and only rows it leaves infeasible iterate; a stack
of finite, well-conditioned designs is solved whole.  The pseudoinverse
likewise takes a stack of matrices, each giving pinv's result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .core import _as_matrix, _is_number


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before converging; `index`,
    where known, is the failing problem's position in the stack it was in."""

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index


@dataclass
class SvdResult:
    u: np.ndarray  # orthonormal columns
    s: np.ndarray  # singular values, descending, >= 0
    v: np.ndarray  # orthonormal columns; u @ diag(s) @ v.T reconstructs


def svd(m) -> SvdResult:
    """Thin singular value decomposition."""
    m = _as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise ValueError("svd input has non-finite entries")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdResult(u=u, s=s, v=vh.T)


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values at or below
    max(rows, cols) * machine epsilon * the largest one are dropped."""
    return _pinv_stack(_as_matrix(m)[None])[0]


def _pinv_stack(ms: np.ndarray) -> np.ndarray:
    """pinv of each matrix of an (n, rows, cols) stack, bit for bit."""
    if (ms.shape[1:] == (1, 1) and np.minimum.reduce(ms, axis=None, initial=1.0) > 1e-130
            and np.maximum.reduce(ms, axis=None, initial=1.0) < 1e130):
        # the SVD of [[x]] is |x| with unit signs, so 1 / x is the SVD path's
        # result bit for bit where LAPACK does not rescale x (a negative x too)
        return 1.0 / ms
    if not np.isfinite(ms).all():
        raise ValueError("svd input has non-finite entries")
    u, s, vh = np.linalg.svd(ms, full_matrices=False)
    s_max = s[:, :1] if s.shape[1] else np.zeros((s.shape[0], 1))
    tol = max(ms.shape[1:]) * np.finfo(np.float64).eps * s_max
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > tol)
    return (vh.swapaxes(1, 2) * inv[:, None, :]) @ u.swapaxes(1, 2)


def _linalg_failed(err, flag):
    raise LinAlgError("LAPACK found a singular matrix or did not converge")


# The errstate numpy.linalg's wrappers call LAPACK under: a LAPACK failure
# (an invalid result) raises LinAlgError.
_linalg_errstate = partial(np.errstate, call=_linalg_failed, invalid="call", over="ignore",
                           divide="ignore", under="ignore")


def _gufunc(name: str, *args) -> np.ndarray:
    """numpy.linalg's LAPACK gufunc `name` on float64 arrays, called as its
    wrapper calls it but without the wrapper's checks: the same result bit
    for bit.  Call it under `_linalg_errstate()`, entered once around a
    caller's gufunc calls."""
    return getattr(_umath_linalg, name)(*args, signature="d" * len(args) + "->d")


def _lapack(name: str, *args) -> np.ndarray:
    """`_gufunc` under its own `_linalg_errstate()`: a LAPACK failure
    raises LinAlgError."""
    with _linalg_errstate():
        return _gufunc(name, *args)


# Normal equations square the design's condition number, so a Gram matrix
# with a condition number above this is solved on the design's QR factor.
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
    `tol` is the dual feasibility threshold, applied to the design scaled by
    a power of two to a largest |entry| in [0.5, 1), the solution being
    scaled back; a coordinate whose admission makes no numerical progress is
    shelved until the iterate next moves, which keeps near-degenerate
    problems from cycling.  The iteration cap defaults to 10 * cols
    admissions, with at most 3 * cols feasibility steps per admission;
    either cap raises ConvergenceError.  Non-finite entries, a `tol`
    outside [0, inf) and a `max_iter` not None or an int >= 0 raise ValueError.

    One iteration advances every unfinished column together and is given
    the dual and the passive-set subproblem solver of one of two
    representations.  Normally it runs in Gram form (Bro & De Jong's
    FNNLS): a^T a and a^T ys are formed once, the dual is a^T ys - a^T a x
    and each step is one stacked K x K solve.  There a column with a dual
    above `tol` at x = 0 first admits every coordinate at once, by one
    solve of a^T a x = a^T y; a strictly positive solution is its result,
    bit for bit the full-passive-set solve Lawson-Hanson would end with
    (save where a dual lies within `tol` of 0, a coordinate the iteration
    leaves at zero).  That solve is one admission, skipped when `max_iter`
    < 1; a column it leaves infeasible iterates from x = 0 under the full
    cap.  A Gram matrix that is non-finite or ill-conditioned (condition
    number above GRAM_COND_MAX) is not trusted: a is factored once as
    a = q r, r being n x n for a tall a, with the square root of the Gram
    condition number; the dual is then r^T (q^T y - r x) and each
    subproblem is least squares on the passive columns of r, one column of
    ys at a time.  Either way each column's arithmetic is the same
    whichever columns share the call, so column j equals nnls(a, ys[:, j])
    bit for bit.  This is the one-design case of `_nnls_scaled`: a finite,
    well-conditioned design makes no gathers and calls LAPACK's gufuncs.
    """
    if not (_is_number(tol) and 0 <= tol < np.inf):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not (max_iter is None or _is_number(max_iter, integral=True) and max_iter >= 0):
        raise ValueError(f"max_iter must be None or an integer >= 0, got {max_iter!r}")
    a = _as_matrix(a, "a")
    ys = _as_matrix(ys, "ys")
    if ys.shape[0] != a.shape[0]:
        raise ValueError(f"a has {a.shape[0]} rows but ys has {ys.shape[0]}")
    return _nnls_stack(a[None], ys.T[None], tol=tol, max_iter=max_iter)[0].T


def _nnls_stack(a: np.ndarray, yst: np.ndarray, tol: float = 1e-10,
                max_iter: int | None = None) -> np.ndarray:
    """`_nnls_scaled`'s result alone."""
    return _nnls_scaled(a, yst, tol, max_iter)[0]


def _nnls_scaled(a: np.ndarray, yst: np.ndarray, tol: float = 1e-10,
                 max_iter: int | None = None) -> tuple:
    """nnls_multi of each design of a stack: for a of shape (d, m, n) and
    yst of shape (d, r, m), row q of result[i] is nnls(a[i], yst[i, q]) bit
    for bit.  Each design has its own scale, finiteness and conditioning
    test; the rows of all well-conditioned designs share one unconstrained
    solve and, where it is infeasible, one Gram-form iteration; each
    ill-conditioned design is solved alone by least squares on its QR
    factor.  A ConvergenceError names the failing design in `index`.

    Returns (result, xs, aty, g): beside the result, what the solver had
    for each design as it solved it, a[i] scaled by a power of two to a
    peak in [0.5, 1): its solution xs[i], which one np.ldexp scales back
    to result[i], aty[i, q] = a[i]^T yst[i, q], one matmul per row, and
    g[i] = a[i]^T a[i], one matmul.  `decomp._ll1_stack` takes its fit
    from them."""
    n = a.shape[2]
    if max_iter is None:
        max_iter = max(30, 10 * n)
    # Scaling by a power of two is exact and commutes with every rounding,
    # so every power-of-two multiple of a design gets one result.
    # Unscaled, a design far from unit scale overflows or underflows its
    # Gram matrix, or puts its duals or solution below the absolute `tol`:
    # wrong supports or a ConvergenceError.  2^shift scales a design's peak
    # into [0.5, 1) and its solution back; a zero design gets shift 0.
    peak = np.maximum.reduce(np.abs(a), axis=(1, 2), initial=0.0)  # NaN or inf where a has one
    shift = -np.frexp(peak)[1][:, None, None]
    a = np.ldexp(a, shift)
    g = np.matmul(a.swapaxes(1, 2), a)
    yst = np.ascontiguousarray(yst)
    # one matrix-vector product per row: a row's a^T y must not depend on
    # how many rows share the call
    aty = np.matmul(yst[:, :, None, :], a[:, None])[:, :, 0, :]
    if aty.size == 0:  # no unknowns or no right-hand sides
        x = np.zeros(aty.shape)
        return x, x.copy(), aty, g
    # a design is finite where its peak is, and so then is g: |g| <= its rows
    finite = np.isfinite(peak) & np.isfinite(aty).all(axis=(1, 2))
    if not finite.all():  # the common case makes no per-design test
        for i in (~finite).nonzero()[0]:
            if not (np.isfinite(a[i]).all() and np.isfinite(yst[i]).all()):
                raise ValueError("nnls input has non-finite entries")
    with _linalg_errstate():  # entered once for both gufunc calls
        gram = finite & ~_ill_conditioned(g)
        rhs, gg = (aty, g) if gram.all() else (aty[gram], g[gram])  # common: no gathers
        going = np.maximum.reduce(rhs, axis=2) > tol  # the dual at x = 0
        xg = np.zeros(rhs.shape)
        if max_iter >= 1:
            # one solve per row, as Lawson-Hanson's on a full passive set
            z = _gufunc("solve", gg[:, None], rhs[..., None])[..., 0]
            settled = going & np.logical_and.reduce(z > 0.0, axis=2)
            xg = np.where(settled[..., None], z, xg)
            going ^= settled
    i = None  # the design being solved by least squares
    try:
        if going.any():
            design = going.nonzero()[0]  # the rest start cold, as they would alone
            xg[going] = _lawson_hanson(
                (rhs[going], gg[design]), n, tol, max_iter,
                solve=partial(_solve_passive, np.eye(n)),
                dual=lambda b, x: b[0] - np.matmul(x[:, None, :], b[1])[:, 0, :])
        x = xg
        if rhs is not aty:
            x = np.empty(aty.shape)
            x[gram] = xg
            for i in (~gram).nonzero()[0]:
                # a = q r: ||a x - y||^2 and ||r x - q^T y||^2 differ by a constant,
                # and r (at most n x n) has the square root of g's condition number
                q, r = np.linalg.qr(a[i])
                qty = np.matmul(yst[i][:, None, :], q)[:, 0, :]  # per row, as a^T y
                x[i] = _lawson_hanson((qty,), n, tol, max_iter,
                                      dual=partial(_residual_dual, r),
                                      solve=partial(_lstsq_passive, r))
    except ConvergenceError as exc:
        exc.index = int(gram.nonzero()[0][design[exc.index]] if i is None else i)
        raise
    return np.ldexp(x, shift), x, aty, g


def _ill_conditioned(g: np.ndarray) -> np.ndarray:
    """Whether each symmetric Gram matrix of the stack g has a condition
    number above GRAM_COND_MAX; a singular one counts as ill-conditioned.
    Call it under `_linalg_errstate()`."""
    eig = _gufunc("eigvalsh_lo", g)  # ascending
    return ~(eig[:, 0] * GRAM_COND_MAX > eig[:, -1])


def _lawson_hanson(b: tuple, n: int, tol: float, max_iter: int,
                   dual, solve) -> np.ndarray:
    """Lawson-Hanson for every row q of the arrays in b at once; returns one
    solution row of length n per row.

    `b` holds the per-row data (right-hand side first, then whatever the
    representation carries per row); `dual(b, x)` gives the dual
    a^T (y - a x) of each row, and `solve(b, passive)` the least-squares
    solution of each row on its passive set, with exact zeros off it.
    Rows leave the state arrays when they finish (`rows` maps the rest to
    their rows of b).  All remaining rows admit a coordinate together, so
    one admission count covers them all.  Feasibility is restored on every
    remaining row until all are feasible: a row that already is gets the
    same solve again, which leaves it unchanged.  A ConvergenceError
    carries the first failing row in `index`.
    """
    n_rows = b[0].shape[0]
    out = np.zeros((n_rows, n))
    rows = np.arange(n_rows)
    x = np.zeros((n_rows, n))
    passive = np.zeros((n_rows, n), dtype=bool)
    blocked = np.zeros((n_rows, n), dtype=bool)
    outer = 0
    while True:
        w = dual(b, x)
        w[passive | blocked] = -np.inf
        going = np.maximum.reduce(w, axis=1) > tol
        if not going.all():
            out[rows[~going]] = x[~going]
            if not going.any():
                return out
            rows, x, passive, blocked, w = (
                v[going] for v in (rows, x, passive, blocked, w)
            )
            b = tuple(v[going] for v in b)
        outer += 1
        if outer > max_iter:
            raise ConvergenceError(f"nnls failed to converge within {max_iter} iterations "
                                   f"(likely an ill-conditioned design matrix)",
                                   index=int(rows[0]))
        j = w.argmax(axis=1)  # the first of the largest candidates
        live = np.arange(rows.size)
        passive[live, j] = True
        x_before = x  # the loop below rebinds x before changing it
        inner = 0
        while True:
            z = solve(b, passive)
            bad = passive & (z <= 0.0)
            if not bad.any():
                x = z
                break
            infeasible = bad.any(axis=1)
            inner += 1
            if inner > 3 * n:
                raise ConvergenceError("nnls feasibility restoration failed to settle",
                                       index=int(rows[infeasible][0]))
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
        stuck = np.logical_and.reduce(x == x_before, axis=1)
        if stuck.any():
            shelved, js = live[stuck], j[stuck]
            passive[shelved, js] = False
            x[shelved, js] = 0.0
            blocked[shelved, js] = True
        blocked &= stuck[:, None]
        # rows with full passive sets have nothing left to admit: no dual
        if outer >= n and passive.all():
            out[rows] = x
            return out


def _solve_passive(eye: np.ndarray, b: tuple, passive: np.ndarray) -> np.ndarray:
    """Per row q, solve g[P, P] z[P] = rhs[q, P] on the passive set P of
    passive[q], g being the row's Gram matrix, with exact zeros off P: one
    stacked solve over copies of the g whose rows and columns outside P are
    those of the identity `eye`."""
    rhs, g = b
    gm = np.where(passive[:, :, None] & passive[:, None, :], g, eye)
    z = _lapack("solve", gm, np.where(passive, rhs, 0.0)[:, :, None])[:, :, 0]
    return np.where(passive, z, 0.0)


def _residual_dual(a: np.ndarray, b: tuple, x: np.ndarray) -> np.ndarray:
    """Per row q, the dual a^T (yst[q] - a x[q]); an entry that overflowed
    to NaN becomes -inf, so it is never admitted."""
    w = np.array([a.T @ (y - a @ xq) for y, xq in zip(b[0], x)])
    w[np.isnan(w)] = -np.inf
    return w


def _lstsq_passive(a: np.ndarray, b: tuple, passive: np.ndarray) -> np.ndarray:
    """Per row q, least squares of yst[q] on the columns of `a` in the
    passive set of passive[q], with exact zeros off it."""
    z = np.zeros(passive.shape)
    for zq, y, p in zip(z, b[0], passive):
        zq[p] = np.linalg.lstsq(a[:, p], y, rcond=None)[0]
    return z
