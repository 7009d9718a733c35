"""DTF1 binary tensor files, and bundles of them.

Format: 4-byte magic ``DTF1``, uint32 little-endian order N (1..8), then N
uint64 little-endian extents, then prod(extents) float64 little-endian values
in layout order (first index fastest).

A bundle is a directory of named tensors, each in ``<name>.dtf1``, plus a
``manifest.json`` object describing them.  The manifest is written last, so
a bundle whose writing was cut short has none.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .core import MAX_ORDER, DenseTensor

MAGIC = b"DTF1"
MANIFEST = "manifest.json"


class DtfFormatError(ValueError):
    """Raised when a DTF1 file or a bundle is malformed."""


def write_tensor(t: DenseTensor, path) -> None:
    header = MAGIC + struct.pack("<I", t.order)
    header += struct.pack(f"<{t.order}Q", *t.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(t.flat, dtype="<f8"))  # no payload copy


def read_tensor(path) -> DenseTensor:
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != MAGIC:
        raise DtfFormatError(f"{path}: not a DTF1 file (bad magic)")
    (order,) = struct.unpack_from("<I", data, 4)
    if not 1 <= order <= MAX_ORDER:
        raise DtfFormatError(f"{path}: unsupported tensor order {order}")
    header_end = 8 + 8 * order
    if len(data) < header_end:
        raise DtfFormatError(f"{path}: truncated extent table")
    shape = struct.unpack_from(f"<{order}Q", data, 8)
    if any(e < 1 for e in shape):
        raise DtfFormatError(f"{path}: zero extent in shape {shape}")
    count = math.prod(shape)
    expected = header_end + 8 * count
    if len(data) < expected:
        raise DtfFormatError(
            f"{path}: truncated payload ({len(data) - header_end} of {8 * count} bytes)"
        )
    if len(data) > expected:
        raise DtfFormatError(f"{path}: {len(data) - expected} trailing bytes")
    values = np.frombuffer(data, dtype="<f8", count=count, offset=header_end)
    if not np.isfinite(values).all():
        raise DtfFormatError(f"{path}: payload has non-finite values")
    # the tensor adopts the bytes just read: the payload is not copied
    values = values.astype(np.float64, copy=False).reshape(shape, order="F")
    return DenseTensor._wrap(values)


def write_bundle(outdir, manifest: dict, tensors: dict) -> None:
    """Write each tensor of `tensors` (name -> DenseTensor) to
    ``<name>.dtf1`` in `outdir`, creating it, then `manifest` as JSON."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, t in tensors.items():
        write_tensor(t, outdir / f"{name}.dtf1")
    (outdir / MANIFEST).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def read_bundle(indir, build):
    """Return ``build(manifest, tensor)`` for the bundle in `indir`, where
    `tensor(name)` reads ``<name>.dtf1``.  A manifest that is not a JSON
    object, or that `build` rejects with KeyError, IndexError, TypeError or
    ValueError, raises DtfFormatError naming the directory."""
    indir = Path(indir)
    raw = (indir / MANIFEST).read_bytes()
    try:
        manifest = json.loads(raw.decode("utf-8"))
        if not isinstance(manifest, dict):
            raise TypeError(f"expected a JSON object, got {type(manifest).__name__}")
        return build(manifest, lambda name: read_tensor(indir / f"{name}.dtf1"))
    except DtfFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DtfFormatError(f"{indir}: malformed bundle: {exc!r}") from exc
