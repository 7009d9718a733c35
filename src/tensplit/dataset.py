"""Ensemble datasets: PGM ingestion, synthetic generators, group splits.

An ensemble is an order-3 tensor of images stacked along the last mode,
one class label per image.  PGM rasters are read as a flat stream filling
the slice in layout order (first index fastest), so a width x height image
becomes a width x height matrix whose first axis walks the raster row.
Pixel values are scaled to [0, 1] by the header maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dtf
from .core import DenseTensor, _is_number
from .seeds import make_rng, seed_sequence

_WHITESPACE = b" \t\n\r\x0b\x0c"


class PgmFormatError(ValueError):
    """Malformed or truncated PGM input."""


@dataclass
class EnsembleDataset:
    """Image stack with one label per slice along the last mode."""

    tensor: DenseTensor
    labels: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tensor.order != 3:
            raise ValueError("ensemble tensor must be order 3")
        if not self.labels:
            raise ValueError("labels must be nonempty")
        if len(self.labels) != self.tensor.shape[2]:
            raise ValueError("label count must equal the stacking extent")

    @property
    def n_images(self) -> int:
        return self.tensor.shape[2]


@dataclass
class SplitPlan:
    """Partition of group IDs into train and test, with group membership."""

    train_groups: list
    test_groups: list
    seed: int
    members: list  # members[g] = sample indices belonging to group g

    def __post_init__(self):
        train, test = set(self.train_groups), set(self.test_groups)
        if train & test:
            raise ValueError("train and test groups must be disjoint")
        if train | test != set(range(len(self.members))):
            raise ValueError("train and test groups must cover all groups")
        seen: set[int] = set()
        for group in self.members:
            for idx in group:
                if idx in seen:
                    raise ValueError(f"sample {idx} assigned to two groups")
                seen.add(idx)

    @property
    def n_groups(self) -> int:
        return len(self.members)


def _skip_space(data: bytes, pos: int) -> int:
    while pos < len(data):
        ch = data[pos]
        if ch in _WHITESPACE:
            pos += 1
        elif ch == ord("#"):
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        else:
            break
    return pos


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    pos = _skip_space(data, pos)
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    if pos == start:
        raise PgmFormatError("truncated header")
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str, low: int, high: int) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        value = int(token)
    except ValueError:
        raise PgmFormatError(f"non-numeric {what}: {token!r}") from None
    if not low <= value <= high:
        raise PgmFormatError(f"{what} {value} out of range {low}..{high}")
    return value, pos


def read_pgm(path) -> np.ndarray:
    """Decode one P5 (binary) or P2 (ASCII) PGM file.

    Returns a width x height float matrix with values in [0, 1].  Rejects
    unknown magic, out-of-range values, truncated rasters, and trailing
    bytes after the raster.
    """
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P2"):
        raise PgmFormatError(f"unsupported magic {magic!r}, expected P5 or P2")
    width, pos = _header_int(data, pos, "width", 1, 2**31 - 1)
    height, pos = _header_int(data, pos, "height", 1, 2**31 - 1)
    maxval, pos = _header_int(data, pos, "maxval", 1, 65535)
    count = width * height

    if magic == b"P5":
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmFormatError("missing whitespace before binary raster")
        pos += 1
        itemsize = 2 if maxval > 255 else 1
        need = count * itemsize
        raster = data[pos : pos + need]
        if len(raster) < need:
            raise PgmFormatError(
                f"truncated raster: expected {need} bytes, found {len(raster)}"
            )
        if pos + need != len(data):
            raise PgmFormatError(f"{len(data) - pos - need} trailing bytes after raster")
        dtype = ">u2" if itemsize == 2 else np.uint8
        values = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    else:
        # each sample takes a separator and a digit: a header that declares
        # more samples than the file can hold is rejected before allocating
        if len(data) - pos < 2 * count:
            raise PgmFormatError(
                f"truncated raster: {count} samples need at least {2 * count} "
                f"bytes, found {len(data) - pos}"
            )
        values = np.empty(count)
        for i in range(count):
            token, pos = _next_token(data, pos)
            try:
                value = int(token)
            except ValueError:
                raise PgmFormatError(f"non-numeric sample: {token!r}") from None
            if value > maxval:  # and so no sample overflows a float
                raise PgmFormatError("sample value exceeds maxval")
            values[i] = value
        if _skip_space(data, pos) != len(data):
            raise PgmFormatError("trailing content after ASCII raster")
    if np.any(values > maxval):
        raise PgmFormatError("sample value exceeds maxval")
    if np.any(values < 0):
        raise PgmFormatError("negative sample value")
    return values.reshape((width, height), order="F") / maxval


def load_pgm_ensemble(paths: list, labels: list) -> EnsembleDataset:
    """Stack PGM images along the last mode in argument order, copying each
    into one buffer as it is decoded; a size mismatch stops the reading."""
    if not paths:
        raise ValueError("need at least one image path")
    if len(paths) != len(labels):
        raise ValueError("one label per image path required")
    first = read_pgm(paths[0])
    stack = np.empty(first.shape + (len(paths),), order="F")
    for q, p in enumerate(paths):
        image = read_pgm(p) if q else first
        if image.shape != first.shape:
            raise ValueError(f"image {p} has size {image.shape}, expected {first.shape}")
        stack[:, :, q] = image
    return EnsembleDataset(tensor=DenseTensor._wrap(stack), labels=list(labels),
                           meta={"kind": "pgm", "paths": [str(p) for p in paths]})


COLOR_MIXING = np.array(
    [
        [128.0, 128.0, 128.0],
        [256.0, 256.0, 0.0],
        [256.0, 0.0, 256.0],
        [0.0, 256.0, 256.0],
        [256.0, 128.0, 32.0],
    ]
)


def synthetic_color_ensemble(height: int, width: int, seed: int) -> EnsembleDataset:
    """Five-slice ensemble mixing three random nonnegative rank-1 bases.

    Slice q is sum_k COLOR_MIXING[q, k] * base_k with base_k an outer
    product of uniform(0, 1) vectors, so the stack has tensor rank 3 and
    every entry is nonnegative.
    """
    if height < 1 or width < 1:
        raise ValueError("height and width must be >= 1")
    rng = make_rng(seed, "color-ensemble")
    bases = [
        np.outer(rng.uniform(0.0, 1.0, size=height), rng.uniform(0.0, 1.0, size=width))
        for _ in range(3)
    ]
    stack = np.zeros((height, width, COLOR_MIXING.shape[0]), order="F")
    for q in range(COLOR_MIXING.shape[0]):
        for k in range(3):
            stack[:, :, q] += COLOR_MIXING[q, k] * bases[k]
    meta = {
        "kind": "color-ensemble",
        "seed": seed,
        "mixing": COLOR_MIXING.tolist(),
    }
    return EnsembleDataset(tensor=DenseTensor._wrap(stack),
                           labels=list(range(COLOR_MIXING.shape[0])), meta=meta)


def synthetic_face_fixture(height: int = 12, width: int = 10, seed: int = 0,
                           n_classes: int = 4, per_class: int = 6) -> EnsembleDataset:
    """Small labeled ensemble where shared structure swamps class structure.

    Every image is a wide random mix of two shared nonnegative rank-1
    backgrounds plus a faint class-specific band and a trace of noise.
    Raw pixel distances are dominated by the background mix, while the
    class band survives in the individual part after common-feature
    subtraction.
    """
    if height < n_classes:
        raise ValueError("height must be >= n_classes, one band per class")
    if n_classes < 2 or per_class < 1:
        raise ValueError("need >= 2 classes and >= 1 sample per class")
    rng = make_rng(seed, "face-fixture")
    bases = [
        np.outer(rng.uniform(0.0, 1.0, size=height), rng.uniform(0.0, 1.0, size=width))
        for _ in range(2)
    ]
    rows_per_band = height // n_classes
    bumps = []
    for c in range(n_classes):
        bump = np.zeros((height, width))
        lo = c * rows_per_band
        hi = height if c == n_classes - 1 else lo + rows_per_band
        bump[lo:hi, :] = rng.uniform(0.5, 1.0, size=(hi - lo, width))
        bumps.append(0.08 * bump)

    stack = np.zeros((height, width, n_classes * per_class), order="F")
    labels = []
    q = 0
    for c in range(n_classes):
        for _ in range(per_class):
            w1, w2 = rng.uniform(0.5, 2.5, size=2)
            noise = rng.uniform(0.0, 0.01, size=(height, width))
            stack[:, :, q] = w1 * bases[0] + w2 * bases[1] + bumps[c] + noise
            labels.append(c)
            q += 1
    meta = {
        "kind": "face-fixture",
        "seed": seed,
        "n_classes": n_classes,
        "per_class": per_class,
    }
    return EnsembleDataset(tensor=DenseTensor._wrap(stack), labels=labels, meta=meta)


def check_split(groups: int, train: int, seed: int) -> None:
    """Raise ValueError unless `groups` >= 2, `train` with 1 <= train < groups
    and `seed` are integers, numpy's included, and not bools."""
    if not (_is_number(groups, integral=True) and groups >= 2):
        raise ValueError(f"groups must be an integer >= 2, got {groups!r}")
    if not (_is_number(train, integral=True) and 1 <= train < groups):
        raise ValueError(f"train must be an integer with 1 <= train < groups, got {train!r}")
    seed_sequence(seed)  # checks the seed


def make_group_splits(ds: EnsembleDataset, groups: int, train: int, seed: int) -> SplitPlan:
    """Assign one sample of every class to each group, then partition the
    groups into train and test; `check_split` checks the arguments.

    Per class, a seeded shuffle picks which sample lands in which group;
    samples beyond the first `groups` per class stay unused.  A second
    shuffle selects which `train` group IDs form the training side.
    """
    check_split(groups, train, seed)
    by_class: dict = {}
    for idx, lab in enumerate(ds.labels):
        by_class.setdefault(lab, []).append(idx)
    for lab in sorted(by_class):
        if len(by_class[lab]) < groups:
            raise ValueError(
                f"class {lab!r} has {len(by_class[lab])} samples, needs >= {groups}"
            )
    rng = make_rng(seed, "group-splits")
    members: list[list[int]] = [[] for _ in range(groups)]
    for lab in sorted(by_class):
        picks = rng.permutation(by_class[lab])[:groups]
        for g in range(groups):
            members[g].append(int(picks[g]))
    order = rng.permutation(groups)
    train_groups = sorted(int(g) for g in order[:train])
    test_groups = sorted(int(g) for g in order[train:])
    return SplitPlan(train_groups=train_groups, test_groups=test_groups,
                     seed=seed, members=members)


def group_tensor(ds: EnsembleDataset, member_indices) -> tuple[DenseTensor, list]:
    """Sub-stack of the given samples, with their labels."""
    # indexing the F-ordered stack builds a fresh F-ordered sub-stack
    arr = ds.tensor.values[:, :, list(member_indices)]
    return DenseTensor._wrap(arr), [ds.labels[q] for q in member_indices]


def save_dataset(ds: EnsembleDataset, outdir) -> None:
    manifest = {
        "shape": list(ds.tensor.shape),
        "labels": list(ds.labels),
        "source": ds.meta,
    }
    dtf.write_bundle(outdir, manifest, {"tensor": ds.tensor})


def load_dataset(indir) -> EnsembleDataset:
    def build(manifest: dict, tensor) -> EnsembleDataset:
        t = tensor("tensor")
        if list(t.shape) != list(manifest["shape"]):
            raise ValueError("manifest shape does not match the stored tensor")
        return EnsembleDataset(tensor=t, labels=list(manifest["labels"]),
                               meta=dict(manifest["source"]))

    return dtf.read_bundle(indir, build)
