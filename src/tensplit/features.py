"""Common and individual feature extraction for image ensembles.

A block-term decomposition of a stacked ensemble yields a bank of shared
feature slices plus per-image nonnegative mixing weights.  Each image then
splits exactly into the mixed common part and an individual remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dtf
from .core import DenseTensor
from .decomp import DecompConfig, LL1Factors, _ll1_stack
from .kernels import nnls_multi


@dataclass
class CommonFeatureBank:
    """Shared O x P feature slices and the Q x K nonnegative mixing matrix.
    Each slice is held as an F-ordered float64 matrix, like the image stacks."""

    slices: list  # K matrices, each O x P
    mixing: np.ndarray  # Q x K, entries >= 0, unit columns
    source: LL1Factors | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.slices = [np.asfortranarray(s, dtype=np.float64) for s in self.slices]
        if len(self.slices) != self.mixing.shape[1]:
            raise ValueError("one mixing column per feature slice required")
        shapes = {s.shape for s in self.slices}
        if len(shapes) > 1:
            raise ValueError("feature slices must share one shape")
        if np.any(self.mixing < 0):
            raise ValueError("mixing weights must be nonnegative")

    @property
    def n_features(self) -> int:
        return len(self.slices)

    @property
    def n_images(self) -> int:
        return self.mixing.shape[0]


@dataclass
class SubsetRule:
    """Keep features whose mixing weight exceeds tau times the row maximum.

    tau = 0 keeps every feature with a strictly positive weight.
    """

    tau: float = 0.0

    def __post_init__(self):
        # tau above 1 is allowed: it empties the selection
        if not self.tau >= 0.0:
            raise ValueError("tau must be nonnegative")

    def select(self, row: np.ndarray) -> np.ndarray:
        top = float(np.max(row, initial=0.0))
        if top == 0.0:
            return np.zeros(row.size, dtype=bool)
        return row > self.tau * top


@dataclass
class FeatureSplit:
    """Per-image additive split: slice = common + individual, exactly."""

    common: DenseTensor  # O x P x Q
    individual: DenseTensor  # O x P x Q
    selected: list  # per image, indices of the features kept

    def __post_init__(self):
        if self.common.shape != self.individual.shape:
            raise ValueError("common and individual stacks must match in shape")
        if self.common.order != 3:
            raise ValueError("feature splits are stacks of matrix slices")
        if len(self.selected) != self.common.shape[2]:
            raise ValueError("need one selection per image")


def build_feature_bank(f: LL1Factors) -> CommonFeatureBank:
    """Collapse block-term factors into a common feature bank.

    Slice k is A_k diag(weights_k) B_k^T; mixing column k is the term's
    nonnegative unit vector along the stacking mode.
    """
    slices = [term.slice() for term in f.terms]
    mixing = np.column_stack([term.c for term in f.terms])
    return CommonFeatureBank(slices=slices, mixing=mixing, source=f)


def fit_feature_bank(t: DenseTensor, ranks, cfg: DecompConfig | list | None = None,
                     n_restarts: int = 1) -> CommonFeatureBank | list:
    """Decompose a stacked ensemble into a common feature bank.

    Runs the block-term decomposition `n_restarts` times with seeds
    cfg.seed, cfg.seed + 1, ... and keeps the run with the best final fit.

    `t` may also be an O x P x Q x d stack of same-shape ensembles and `cfg`
    a list of d configs: bank g of the list returned is that of t[:, :, :, g]
    and cfg[g] alone, bit for bit, each restart fitting the stack in place in
    one sweep.  A ConvergenceError names the failing ensemble in `index`.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    single = cfg is None or isinstance(cfg, DecompConfig)
    cfgs = [cfg or DecompConfig()] if single else list(cfg)
    best, best_fit = [None] * len(cfgs), [np.inf] * len(cfgs)
    for r in range(n_restarts):
        run_cfgs = [replace(c, seed=c.seed + r) for c in cfgs]
        for i, result in enumerate(_ll1_stack(t, ranks, run_cfgs)):
            if result.fit_history[-1] < best_fit[i]:
                best[i], best_fit[i] = result, result.fit_history[-1]
    banks = [build_feature_bank(f) for f in best]
    return banks[0] if single else banks


def estimate_mixing(bank: CommonFeatureBank, images: np.ndarray) -> np.ndarray:
    """Nonnegative mixing weights of images against the bank slices.

    `images` is one O x P image, giving a vector of K weights, or an
    O x P x n stack, giving an n x K matrix whose row q holds the weights
    of images[:, :, q].  The regressor and its Gram matrix are built once
    per call and the images are solved together; row q equals the
    single-image result for images[:, :, q] exactly.
    """
    images = np.asarray(images, dtype=np.float64)
    stack = images[:, :, None] if images.ndim == 2 else images
    if stack.ndim != 3 or stack.shape[:2] != bank.slices[0].shape:
        raise ValueError(
            f"image slices {stack.shape[:2]} do not match bank slices "
            f"{bank.slices[0].shape}"
        )
    regressor = np.column_stack([s.ravel(order="F") for s in bank.slices])
    weights = nnls_multi(regressor, stack.reshape(regressor.shape[0], -1, order="F")).T
    return weights[0] if images.ndim == 2 else weights


def split_single(bank: CommonFeatureBank, image: np.ndarray,
                 weights: np.ndarray, rule: SubsetRule | None = None):
    """Split one O x P image given its K mixing weights: the one-image case
    of `split_features`.

    Returns writable (common, individual, selected_indices) with
    common + individual == image exactly.
    """
    split = split_features(DenseTensor(np.expand_dims(image, -1)), bank, rule,
                           weights=np.reshape(weights, (1, -1)))
    return (split.common.to_array()[:, :, 0], split.individual.to_array()[:, :, 0],
            split.selected[0])


def _subtract_common(rows: np.ndarray | None, slices: list, weights: np.ndarray,
                     rule: SubsetRule, common: np.ndarray | None = None) -> list:
    """Image q's common part, sum_k weights[q, k] * slice_k, added in
    ascending k over the features the rule keeps for weights[q], into a zero
    row or into row q of a zero `common`; unless `rows` is None, it is
    subtracted in place from image row q of `rows`.  Returns the indices
    kept per row."""
    flat = [s.reshape(-1, order="F") for s in slices]  # F-ordered: views
    selected = []
    for q, row in enumerate(weights):
        kept = np.flatnonzero(rule.select(row))
        out = np.zeros(rows.shape[1]) if common is None else common[q]
        for k in kept:
            out += row[k] * flat[k]
        if rows is not None:
            rows[q] -= out
        selected.append(kept.tolist())
    return selected


def split_features(t: DenseTensor, bank: CommonFeatureBank,
                   rule: SubsetRule | None = None,
                   weights: np.ndarray | None = None) -> FeatureSplit:
    """Split every slice of a stacked ensemble into common and individual
    parts.

    By default the bank's own mixing rows are used; pass `weights` (Q x K)
    to split held-out images with externally estimated mixing instead.
    Image q's common part is sum_k weights[q, k] * slice_k, added in
    ascending k over the features the rule keeps for weights[q]; its
    individual part is slice q minus that, elementwise.
    """
    if t.order != 3:
        raise ValueError("expected a stacked ensemble of matrix slices")
    rule = rule or SubsetRule()
    n_images = t.shape[2]
    slice_shape = bank.slices[0].shape
    if t.shape[:2] != slice_shape:
        raise ValueError(
            f"ensemble slices {t.shape[:2]} do not match bank slices {slice_shape}"
        )
    if weights is None:
        if bank.n_images != n_images:
            raise ValueError("bank mixing rows do not cover this ensemble")
        weights = bank.mixing
    elif weights.shape != (n_images, bank.n_features):
        raise ValueError("weights must be n_images x n_features")

    # the common stack is filled through its Q x (O P) row view, in place
    common = np.zeros(t.shape, order="F")
    selected = _subtract_common(None, bank.slices, weights, rule,
                                common=common.reshape(-1, n_images, order="F").T)
    individual = np.subtract(t.values, common, order="F")
    return FeatureSplit(common=DenseTensor._wrap(common),
                        individual=DenseTensor._wrap(individual), selected=selected)


def save_split(split: FeatureSplit, outdir, tau: float = 0.0) -> None:
    manifest = {
        "tau": tau,
        "shape": list(split.common.shape),
        "selected": [list(map(int, s)) for s in split.selected],
    }
    dtf.write_bundle(outdir, manifest, {"common": split.common,
                                        "individual": split.individual})


def load_split(indir) -> FeatureSplit:
    return dtf.read_bundle(indir, lambda manifest, tensor: FeatureSplit(
        common=tensor("common"),
        individual=tensor("individual"),
        selected=[list(s) for s in manifest["selected"]],
    ))
