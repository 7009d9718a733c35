"""Dense N-way arrays and the multilinear primitives built on them.

Layout convention, used everywhere in this package including the DTF1 file
format: flat element order is the generalized column-major order, i.e. the
first index varies fastest.  Mode-n unfolding keeps mode n as the row index
and orders the columns by the remaining modes in ascending order, the first
of them varying fastest.  Modes are 0-based, like numpy axes.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np

MAX_ORDER = 8


class DenseTensor:
    """Immutable dense tensor of float64 values.

    Instances are safe to share between threads: the backing array is made
    non-writeable at construction and every operation returns a new tensor.
    """

    __slots__ = ("_arr",)

    def __init__(self, values):
        self._adopt(np.array(values, dtype=np.float64, order="F", copy=True))

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DenseTensor":
        """Adopt, without copying, a fresh F-ordered float64 array that the
        package owns and no caller holds; it becomes read-only."""
        if arr.dtype != np.float64 or not arr.flags.f_contiguous:
            raise ValueError("only an F-ordered float64 array can be adopted")
        t = cls.__new__(cls)
        t._adopt(arr)
        return t

    def _adopt(self, arr: np.ndarray) -> None:
        if arr.ndim < 1:
            raise ValueError("tensor order must be at least 1")
        if arr.ndim > MAX_ORDER:
            raise ValueError(
                f"tensor order {arr.ndim} exceeds the supported maximum {MAX_ORDER}"
            )
        if any(e < 1 for e in arr.shape):
            raise ValueError(f"every extent must be >= 1, got shape {arr.shape}")
        arr.flags.writeable = False
        self._arr = arr

    @classmethod
    def from_flat(cls, shape: Sequence[int], flat) -> "DenseTensor":
        """Build a tensor from its flat layout-order representation."""
        shape = tuple(int(e) for e in shape)
        flat = np.asarray(flat, dtype=np.float64).ravel()
        if math.prod(shape) != flat.size:
            raise ValueError(
                f"flat data has {flat.size} elements, shape {shape} needs {math.prod(shape)}"
            )
        return cls(flat.reshape(shape, order="F"))

    @property
    def shape(self) -> tuple[int, ...]:
        return self._arr.shape

    @property
    def order(self) -> int:
        return self._arr.ndim

    @property
    def size(self) -> int:
        return self._arr.size

    @property
    def values(self) -> np.ndarray:
        """Read-only ndarray view of the elements."""
        v = self._arr.view()
        v.flags.writeable = False
        return v

    @property
    def flat(self) -> np.ndarray:
        """Read-only 1-D view of the elements in layout order."""
        return self._arr.reshape(-1, order="F")

    def to_array(self) -> np.ndarray:
        """Writable copy of the elements as an ndarray."""
        return self._arr.copy()

    def __getitem__(self, key):
        return self._arr[key]

    def __eq__(self, other):
        if not isinstance(other, DenseTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._arr, other._arr)

    def __repr__(self):
        return f"DenseTensor(shape={self.shape})"


def _check_mode(order: int, mode: int) -> None:
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range for an order-{order} tensor")


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim {m.ndim}")
    return m


def unfold(t: DenseTensor, mode: int) -> np.ndarray:
    """Mode-n unfolding: rows index `mode`, columns cycle the remaining
    modes in ascending order with the first of them varying fastest."""
    _check_mode(t.order, mode)
    return np.reshape(
        np.moveaxis(t.values, mode, 0), (t.shape[mode], -1), order="F"
    )


def fold(m, mode: int, shape: Sequence[int]) -> DenseTensor:
    """Exact inverse of :func:`unfold` under the same column convention."""
    m = _as_matrix(m)
    shape = tuple(int(e) for e in shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    if m.shape[0] != shape[mode] or m.shape[1] != math.prod(rest):
        raise ValueError(
            f"matrix of shape {m.shape} is inconsistent with folding mode {mode} of {shape}"
        )
    out = np.empty(shape, order="F")
    np.moveaxis(out, mode, 0)[...] = m.reshape((shape[mode],) + rest, order="F")
    return DenseTensor._wrap(out)


def mode_n_product(t: DenseTensor, m, mode: int) -> DenseTensor:
    """Multiply `t` along `mode` by the matrix `m`.

    Implemented literally as fold(m @ unfold(t, mode), ...) so the unfolding
    identity holds bit-exactly.
    """
    m = _as_matrix(m)
    _check_mode(t.order, mode)
    if m.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns but mode {mode} extent is {t.shape[mode]}"
        )
    new_shape = list(t.shape)
    new_shape[mode] = m.shape[0]
    return fold(m @ unfold(t, mode), mode, new_shape)


def outer_product(vectors: Sequence) -> DenseTensor:
    """Outer product of N >= 2 vectors: a rank-1 tensor of order N."""
    if len(vectors) < 2:
        raise ValueError("outer_product needs at least 2 vectors")
    vs = []
    for i, v in enumerate(vectors):
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError(f"input {i} is not a nonempty vector")
        vs.append(v)
    return DenseTensor(reduce(np.multiply.outer, vs))


def khatri_rao(a, b) -> np.ndarray:
    """Column-wise Kronecker product.

    Column j of the result is kron(a[:, j], b[:, j]); the b-index varies
    fastest, matching the package layout convention.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column counts differ: a has {a.shape[1]}, b has {b.shape[1]}"
        )
    m, k = a.shape
    n = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(m * n, k)


def frontal_slice(t: DenseTensor, q: int) -> np.ndarray:
    """Frontal slice t[:, :, q] of an order-3 tensor, as a fresh matrix."""
    if t.order != 3:
        raise ValueError(f"frontal_slice needs an order-3 tensor, got order {t.order}")
    if not 0 <= q < t.shape[2]:
        raise ValueError(f"slice index {q} out of range for extent {t.shape[2]}")
    return np.array(t.values[:, :, q], order="F")


def norm_frobenius(t) -> float:
    """Frobenius norm of a tensor or array, summed in memory order.

    A result below 2^-500 or infinite, from finite entries, may come from
    squares that underflowed or overflowed, so it is taken again on the
    entries scaled by the power of two that puts the largest |entry| in
    [0.5, 1).  Entries of largest |entry| in [2^-500, 2^500] whose squares
    sum to a finite value never take that path.
    """
    x = t.flat if isinstance(t, DenseTensor) else np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore"):  # retried on scaled entries below
        norm = float(np.linalg.norm(x))
    if 2.0 ** -500 <= norm < math.inf or not x.size:
        return norm
    big = float(max(np.max(x), -np.min(x)))
    if not 0.0 < big < math.inf:  # all zero, or not finite
        return norm
    e = math.frexp(big)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(x, -e))), e)
