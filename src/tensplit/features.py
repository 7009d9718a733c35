"""Common and individual feature extraction for image ensembles.

A block-term decomposition of a stacked ensemble yields a bank of shared
feature slices plus per-image nonnegative mixing weights.  Each image then
splits exactly into the mixed common part and an individual remainder.
Two matrix baselines are provided: PCA of the vertically stacked blocks,
and an alternating scheme that grows one shared orthonormal basis across
blocks one column at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dtf
from .core import DenseTensor, frontal_slice
from .decomp import DecompConfig, LL1Factors, ll1_nn
from .kernels import nnls, nnls_multi, qr, svd

_EPS = np.finfo(np.float64).eps


@dataclass
class CommonFeatureBank:
    """Shared O x P feature slices and the Q x K nonnegative mixing matrix."""

    slices: list  # K matrices, each O x P
    mixing: np.ndarray  # Q x K, entries >= 0, unit columns
    source: LL1Factors | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
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

    def common_slices(self) -> list:
        arr = self.common.to_array()
        return [arr[:, :, q] for q in range(arr.shape[2])]

    def individual_slices(self) -> list:
        arr = self.individual.to_array()
        return [arr[:, :, q] for q in range(arr.shape[2])]


@dataclass
class CommonBasis:
    """Shared orthonormal columns found across blocks, with per-column cost."""

    basis: np.ndarray  # O x M
    residual_costs: list  # final cost J per accepted column
    iterations: list  # alternating iterations spent per column
    histories: list = field(default_factory=list)  # cost per iteration, per column

    def __post_init__(self):
        if self.basis.ndim != 2:
            raise ValueError("basis must be a matrix")
        if len(self.residual_costs) != self.basis.shape[1]:
            raise ValueError("one cost per basis column required")

    @property
    def n_columns(self) -> int:
        return self.basis.shape[1]


def build_feature_bank(f: LL1Factors) -> CommonFeatureBank:
    """Collapse block-term factors into a common feature bank.

    Slice k is A_k diag(weights_k) B_k^T; mixing column k is the term's
    nonnegative unit vector along the stacking mode.
    """
    slices = [term.slice() for term in f.terms]
    mixing = np.column_stack([term.c for term in f.terms])
    return CommonFeatureBank(slices=slices, mixing=mixing, source=f)


def fit_feature_bank(t: DenseTensor, ranks, cfg: DecompConfig | None = None,
                     n_restarts: int = 1) -> CommonFeatureBank:
    """Decompose a stacked ensemble into a common feature bank.

    Runs the block-term decomposition `n_restarts` times with seeds
    cfg.seed, cfg.seed + 1, ... and keeps the run with the best final fit.
    """
    if n_restarts < 1:
        raise ValueError("n_restarts must be >= 1")
    cfg = cfg or DecompConfig()
    best = None
    best_fit = np.inf
    for r in range(n_restarts):
        run_cfg = DecompConfig(max_sweeps=cfg.max_sweeps, rel_tol=cfg.rel_tol,
                               seed=cfg.seed + r, init=cfg.init)
        result = ll1_nn(t, ranks, run_cfg)
        fit = result.fit_history[-1]
        if fit < best_fit:
            best, best_fit = result, fit
    return build_feature_bank(best)


def estimate_mixing(bank: CommonFeatureBank, images: np.ndarray) -> np.ndarray:
    """Nonnegative mixing weights of images against the bank slices.

    `images` is one O x P image, giving a vector of K weights, or an
    O x P x n stack, giving an n x K matrix whose row q holds the weights
    of images[:, :, q].  The regressor and its Gram matrix are built once
    per call and the images are solved together; row q equals the
    single-image result for images[:, :, q] exactly.
    """
    images = np.asarray(images, dtype=np.float64)
    regressor = np.column_stack([s.ravel(order="F") for s in bank.slices])
    if images.ndim == 3:
        if images.shape[:2] != bank.slices[0].shape:
            raise ValueError(
                f"image slices {images.shape[:2]} do not match bank slices "
                f"{bank.slices[0].shape}"
            )
        return nnls_multi(regressor, images.reshape(regressor.shape[0], -1, order="F")).T
    return nnls(regressor, images.ravel(order="F"))


def split_single(bank: CommonFeatureBank, image: np.ndarray,
                 weights: np.ndarray, rule: SubsetRule | None = None):
    """Split one image given its mixing weights.

    Returns (common, individual, selected_indices) with
    common + individual == image exactly.
    """
    rule = rule or SubsetRule()
    image = np.asarray(image, dtype=np.float64)
    keep = rule.select(np.asarray(weights, dtype=np.float64))
    common = np.zeros_like(image)
    for k in np.flatnonzero(keep):
        common += weights[k] * bank.slices[k]
    return common, image - common, np.flatnonzero(keep).tolist()


def split_features(t: DenseTensor, bank: CommonFeatureBank,
                   rule: SubsetRule | None = None,
                   weights: np.ndarray | None = None) -> FeatureSplit:
    """Split every slice of a stacked ensemble into common and individual
    parts.

    By default the bank's own mixing rows are used; pass `weights` (Q x K)
    to split held-out images with externally estimated mixing instead.
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

    common = np.zeros(t.shape)
    individual = np.zeros(t.shape)
    selected = []
    for q in range(n_images):
        img = frontal_slice(t, q)
        com, ind, keep = split_single(bank, img, weights[q], rule)
        common[:, :, q] = com
        individual[:, :, q] = ind
        selected.append(keep)
    return FeatureSplit(common=DenseTensor(common),
                        individual=DenseTensor(individual),
                        selected=selected)


def stacked_pca(xs: list, n_components: int):
    """PCA of blocks stacked vertically.

    Each block is samples-in-columns (O x Q_i); blocks are transposed and
    stacked into a (sum Q_i) x O data matrix.  Returns (loadings, scores):
    loadings is O x M with orthonormal columns, scores is (sum Q_i) x M.
    """
    if not xs:
        raise ValueError("need at least one block")
    rows = [np.asarray(x, dtype=np.float64).T for x in xs]
    widths = {r.shape[1] for r in rows}
    if len(widths) != 1:
        raise ValueError("blocks must share the feature dimension")
    data = np.vstack(rows)
    if not 1 <= n_components <= min(data.shape):
        raise ValueError(f"n_components out of range 1..{min(data.shape)}")
    res = svd(data)
    loadings = res.v[:, :n_components].copy()
    scores = res.u[:, :n_components] * res.s[:n_components]
    return loadings, scores


def _orthonormal_bases(xs: list) -> list:
    return [qr(np.asarray(x, dtype=np.float64)).q for x in xs]


def common_basis_qr(xs: list, m_max: int, threshold: float | None = None,
                    seed: int = 0, max_iter: int = 200,
                    rel_tol: float = 1e-9) -> CommonBasis:
    """Grow a shared orthonormal basis across blocks, one column at a time.

    Each candidate column a alternates between per-block projections
    z_i = Q_i^T a and the normalized mean of the projections Q_i z_i, kept
    orthogonal to the columns already accepted; its cost is
    J = sum_i ||Q_i z_i - a||^2, non-increasing across iterations.  The
    iteration stops on a relative cost change below rel_tol or at max_iter.
    A column is accepted while J < threshold (default 0.01 * number of
    blocks), then deflated from every block; extraction stops at the first
    rejection or at m_max.
    """
    if not xs:
        raise ValueError("need at least one block")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    dims = {np.asarray(x).shape[0] for x in xs}
    if len(dims) != 1:
        raise ValueError("blocks must share the row dimension")
    n_rows = dims.pop()
    n_blocks = len(xs)
    if threshold is None:
        threshold = 0.01 * n_blocks
    rng = np.random.default_rng(seed)

    bases = _orthonormal_bases(xs)
    accepted: list[np.ndarray] = []
    costs: list[float] = []
    iterations: list[int] = []
    histories: list[list] = []

    def orthogonalize(v: np.ndarray) -> np.ndarray:
        for col in accepted:
            v = v - col * (col @ v)
        return v

    for _ in range(m_max):
        if any(q.shape[1] == 0 for q in bases):
            break
        a = orthogonalize(rng.standard_normal(n_rows))
        norm = np.linalg.norm(a)
        if norm == 0.0:
            break
        a /= norm
        history: list[float] = []
        iters = 0
        for iters in range(1, max_iter + 1):
            mean = np.zeros(n_rows)
            for q in bases:
                mean += q @ (q.T @ a)
            mean = orthogonalize(mean)
            norm = np.linalg.norm(mean)
            if norm == 0.0:
                history.append(float(n_blocks))
                break
            a = mean / norm
            cost = 0.0
            for q in bases:
                z = q.T @ a
                cost += float(np.sum((q @ z - a) ** 2))
            history.append(cost)
            if len(history) >= 2 and abs(history[-2] - cost) <= rel_tol * abs(history[-2]):
                break
        cost = history[-1]
        if not cost < threshold:
            break
        accepted.append(a.copy())
        costs.append(cost)
        iterations.append(iters)
        histories.append(history)
        # deflate the accepted direction, then restore orthonormal columns
        new_bases = []
        for q in bases:
            deflated = q - np.outer(a, a @ q)
            u, s, _ = np.linalg.svd(deflated, full_matrices=False)
            keep = s > max(deflated.shape) * _EPS * (s[0] if s.size else 0.0)
            new_bases.append(u[:, : int(np.count_nonzero(keep))])
        bases = new_bases

    basis = np.column_stack(accepted) if accepted else np.zeros((n_rows, 0))
    return CommonBasis(basis=basis, residual_costs=costs, iterations=iterations,
                       histories=histories)


def save_split(split: FeatureSplit, outdir, tau: float = 0.0) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    dtf.write_tensor(split.common, outdir / "common.dtf1")
    dtf.write_tensor(split.individual, outdir / "individual.dtf1")
    manifest = {
        "tau": tau,
        "shape": list(split.common.shape),
        "selected": [list(map(int, s)) for s in split.selected],
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def load_split(indir) -> FeatureSplit:
    indir = Path(indir)
    manifest = json.loads((indir / "manifest.json").read_text())
    return FeatureSplit(
        common=dtf.read_tensor(indir / "common.dtf1"),
        individual=dtf.read_tensor(indir / "individual.dtf1"),
        selected=[list(s) for s in manifest["selected"]],
    )
