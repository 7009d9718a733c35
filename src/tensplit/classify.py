"""Classifiers and the experiment harness comparing raw-pixel features
against individual features left after common-feature subtraction.

Both classifiers are deterministic: neighbors are ordered by (distance,
training index) and every tie falls back to the lowest class ID.  A
feature vector is an image row, or the individual part of one: the row
less its weighted common slices (`LabeledVectors`).  The search runs in two
steps.  One GEMM per block of test vectors, with a few K-column products
for K slices, expands every squared distance between individual parts
from the rows, their weights and the slices' Gram matrix; widened by its
rounding-error bound, that expansion discards the training vectors (or
class centroids) that cannot be among the nearest.  A block takes as many
test vectors as keep its test-by-training matrices within 1 MiB each
(`_BLOCK_BYTES`), and at least one.  Individual parts are formed and the
exact norm of their difference is computed only where it can change the
prediction: to rank more than k remaining candidates, or to break a tied
vote among exactly k.  So neighbors, votes and predictions are those of a
full exact search over the individual parts, and where the squared norms
leave [2^-1000, 2^1000] the rows and slices are first scaled by one power
of two, so that distances neither overflow nor underflow to ties.  The experiment harness
repeats the split/decompose/classify cycle over seeded realizations and
aggregates one report per (method, classifier) cell; mean and stddev are
computed from the sorted per-run list so aggregation order cannot matter.
It decomposes the training groups of consecutive realizations together, in
one stacked fit per distinct block ranks: as many realizations at a time as
keep their training images within 16 MiB (`_BATCH_BYTES`), and at least
one.  Those are gathered once, into one buffer the fit reads in place, and
live only for that fit: each realization's image rows are then copied once,
and every method's features are those rows, with mixing weights for a
fitted method; class means are mean rows with mean weights, and no image
is split before the search.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import DenseTensor, _check_count, _finite_nonneg, _is_number, unfold
from .dataset import EnsembleDataset, SplitPlan, group_tensor, make_group_splits
from .decomp import DecompConfig
from .features import (
    CommonFeatureBank,
    SubsetRule,
    _common_parts,
    estimate_mixing,
    fit_feature_bank,
)
from .kernels import ConvergenceError
from .seeds import derive_seed, seed_sequence

METHOD_RAW = "raw"
METHOD_CPD = "cpd"
METHOD_LL1 = "ll1"
METHODS = (METHOD_RAW, METHOD_CPD, METHOD_LL1)

CLASSIFIER_KNN = "knn"
CLASSIFIER_CENTROID = "centroid"
CLASSIFIERS = (CLASSIFIER_KNN, CLASSIFIER_CENTROID)


@dataclass
class LabeledVectors:
    """Labelled feature vectors over the rows of one n x d float64 matrix,
    feature vector i with label labels[i].  The rows are converted once, on
    construction: a list of equal-length rows is accepted too, and an empty
    list gives 0 rows.

    `slices` (K x d, one flattened common slice per row) and `weights`
    (n x K, finite and nonnegative) default to K = 0, and then feature
    vector i is row i.  Otherwise it is the individual part of row i: the
    row less weights[i, k] * slices[k] over the positive weights, in
    ascending k, as `features._common_parts` sums it.  The searches
    expand its distances from the rows and the weights, and form an
    individual part only where they need it exactly (`_individual`)."""

    vectors: np.ndarray
    labels: list
    weights: np.ndarray | None = None
    slices: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.shape == (0,):
            self.vectors = self.vectors.reshape(0, 0)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be the rows of one matrix")
        if len(self.vectors) != len(self.labels):
            raise ValueError("one label per vector required")
        if self.slices is None:
            self.slices = np.zeros((0, self.dim))
        self.slices = np.asarray(self.slices, dtype=np.float64)
        if self.weights is None:
            self.weights = np.zeros((len(self), len(self.slices)))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.slices.ndim != 2 or self.slices.shape[1] != self.dim:
            raise ValueError("slices must be the rows of one matrix, one value per dimension")
        if self.weights.shape != (len(self), len(self.slices)):
            raise ValueError("weights must hold one row per vector and one column per slice")
        if not _finite_nonneg(self.weights):
            raise ValueError("weights must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # true class x predicted class counts
    per_run: list
    mean: float
    stddev: float
    class_ids: list

    def __post_init__(self):
        n = len(self.class_ids)
        if self.confusion.shape != (n, n):
            raise ValueError("confusion matrix must be square over class_ids")


def _report(class_ids: list, confusion: np.ndarray, per_run: list) -> EvalReport:
    total = int(confusion.sum())
    trace = int(np.trace(confusion))
    accuracy = trace / total if total else 0.0
    runs = sorted(per_run)
    mean = statistics.fmean(runs) if runs else 0.0
    stddev = statistics.pstdev(runs) if len(runs) > 1 else 0.0
    return EvalReport(accuracy=accuracy, confusion=confusion, per_run=list(per_run),
                      mean=mean, stddev=stddev, class_ids=list(class_ids))


_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
# Bytes of each query-by-training float64 matrix of one distance block: a
# block holds two of them (and two boolean ones) while it is filtered.
_BLOCK_BYTES = 1 << 20
# Training-group bytes of the realizations fitted in one stacked LL1 sweep:
# bounds the one buffer of training images gathered for the fit, freed when
# the fit returns, before any image rows are featurized.
_BATCH_BYTES = 16 << 20


def _expansion(rows: np.ndarray, sq: np.ndarray, weights: np.ndarray, smat: np.ndarray,
               gram: np.ndarray) -> tuple:
    """(norms, scales, omega, weights, products): the terms of the distance
    expansion for feature rows x with squared norms sq and weights w over
    the slices S_k, the rows of smat, whose Gram matrix is gram.  Per row:
    the individual part's squared norm expanded as ||x||^2 - 2 w.(S x) +
    w^T G w; the scale (||x|| + s)^2 of its rounding, formed as ||x||^2 +
    s (2 ||x|| + s) with s = sum_k w_k ||S_k||; the weights; and the
    products S x.  omega is the largest (1 + sum_k w_k)^2, and at least 1.
    Without slices, norms and scales are sq, and omega is 1."""
    products = (smat @ rows.T).T  # a shade faster than rows @ smat.T at K << n
    norms = (sq - 2.0 * np.einsum("ij,ij->i", weights, products)
             + np.einsum("ij,ij->i", weights @ gram, weights))
    spread = weights @ np.sqrt(np.diagonal(gram))
    scales = sq + spread * (2.0 * np.sqrt(sq) + spread)
    omega = np.fmax.reduce((1.0 + weights.sum(axis=1)) ** 2, initial=1.0)
    return norms, scales, omega, weights, products


def _prefilter(xb: np.ndarray, xterms: tuple, tmat: np.ndarray, tterms: tuple,
               gram: np.ndarray, k: int) -> np.ndarray:
    """Boolean matrix, row i true at every row t of tmat that can be among
    the k nearest to xb[i] under the exact distance between their
    individual parts, for 1 <= k <= len(tmat).  xterms and tterms are the
    `_expansion` terms of the rows of xb and of tmat, over slices whose
    Gram matrix is gram.

    One GEMM and three small products expand the squared distances as
    ||a||^2 + ||b||^2 - 2 <a, b> for the individual parts a = x - sum_i u_i
    S_i and b = t - sum_j v_j S_j, with <a, b> = x.t - u.(S t) - v.(S x) +
    u^T G v; the expansion is widened by the slack below.  A vector with
    any non-finite entry in its row keeps every index.
    """
    # Slack derivation (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.1), with u = eps / 2, gamma_m = m u /
    # (1 - m u), n the dimension, K the slices, s_x = sum_i u_i ||S_i||,
    # N_x = ||x|| + s_x >= ||a||, s_t and N_t likewise, S = N_x^2 + N_t^2
    # (the scales) and D = ||a - b||^2 <= 2 S.  A computed dot product of
    # length m, in any summation order and so in any blocking, is within
    # gamma_m |x|.|y| <= gamma_m ||x|| ||y|| of the exact one (eq. 3.5), so:
    #   * x.t, S x, S t and G err by gamma_n times their operands' norms;
    #     the K-long contractions bring each norm within gamma_{n+2K+2}
    #     N_x^2 (resp. N_t^2), their two additions included, and <a, b>
    #     within gamma_{n+2K+3} N_x N_t <= gamma_{n+2K+3} S / 2 (doubled in
    #     `approx`); the sum of the norms and the final sum add u S and
    #     2 u S: |approx - D| <= (2 n + 4 K + 8) u S;
    #   * `_individual` forms a as x less a K-term sum, within gamma_{K+1}
    #     (|x| + sum_i u_i |S_i|) entry by entry, so ||a' - a|| <= gamma_{K+1}
    #     N_x, likewise b', and ||a' - b'||^2 is within 4 (K + 1) u S of D;
    #     the exact path's norm of a' - b' rounds each difference (twice
    #     once squared), each square, n - 1 additions and the square root
    #     (twice once squared), so its distance d has |d^2 - ||a' - b'||^2|
    #     <= gamma_{n+4} 2 S, whether a 1-D or a row-wise norm forms it.
    # Hence |d^2 - approx| <= (2 n + 4 K + 10) eps S to first order, and
    # c = 4 times n + 4 K + 4 more than doubles that for K >= 1, covering
    # the second-order terms, the roundings of the scales, of the slack and
    # of approx +- slack, and the u D <= eps S below.  Without slices every
    # K term is an exact zero and the bound is the raw expansion's, (2 n +
    # 5.5) eps S, which 4 (n + 4) doubles.  Under gradual underflow each
    # product may instead err by half the smallest subnormal, an error the
    # weights then scale: with omega the largest (1 + sum of weights)^2 of
    # a side and W = omega_x omega_t, the expansion's products (x.t
    # counted twice) and its contractions' make at most (4 n + 14 K) W
    # such errors and the exact path's squares n more, while the K
    # products of each entry of a' and b' weigh sqrt(D) times their sum,
    # at most u D + one subnormal: 4 (n + 4 K + 4) W smallest subnormals
    # cover them all.  So with tau the k-th smallest approx + slack of a
    # vector, at least k rows have d^2 <= tau, and a row with approx -
    # slack > tau has d^2 > tau: with k rows strictly nearer, it cannot be
    # among the k nearest whatever the tie order.  Requiring approx + 2 S
    # to be finite also keeps the exact path, whose partial sums stay near
    # or below 2 S, from overflowing.
    #
    # Formed in place, in two matrices: (-2 g) + s is s - 2 g exactly, and
    # the slack is formed twice, for approx + slack and for approx - slack.
    (xnorm, xscale, xomega, u, px), (tnorm, tscale, tomega, v, pt) = xterms, tterms
    factor = 4.0 * (tmat.shape[1] + 4 * u.shape[1] + 4)
    floor = _SUBNORMAL * (xomega * tomega)

    def slack(out):
        np.add(xscale[:, None], tscale, out=out)
        out *= _EPS
        out += floor
        out *= factor

    approx = xb @ tmat.T
    bound = np.matmul(u, pt.T)
    approx -= bound
    np.matmul(px, v.T, out=bound)
    approx -= bound
    np.matmul(u @ gram, v.T, out=bound)
    approx += bound
    approx *= -2.0
    np.add(xnorm[:, None], tnorm, out=bound)
    approx += bound
    np.add(xscale[:, None], tscale, out=bound)
    bound *= 2.0
    bound += approx
    finite = np.all(np.isfinite(bound), axis=1)
    slack(bound)
    bound += approx
    bound.partition(k - 1, axis=1)
    tau = bound[:, k - 1:k].copy()
    slack(bound)
    approx -= bound
    keep = approx <= tau
    keep[~finite] = True
    return keep


def _in_range(tmat: np.ndarray, xmat: np.ndarray, smat: np.ndarray) -> tuple:
    """(tmat, tsq, smat, blocks): the training rows and their squared
    norms, the slices, and the test rows in blocks, each block with its
    rows' squared norms, as the search takes them.  A block holds as many
    test rows as keep its query-by-training matrix within `_BLOCK_BYTES`,
    and at least one; so a block's GEMM packs tmat once for all of its rows.

    Where the largest squared norm of a row or a slice lies outside
    [2^-1000, 2^1000], the distances' squares could overflow, or underflow
    until every candidate ties.  The three matrices are then scaled by the
    one power of two that puts their largest finite |entry| in [0.5, 1),
    and taken again, in range; the weights are left alone.  That scaling
    is exact and scales every individual part and every distance alike, so
    neighbors, votes and predictions are those of the unscaled search
    without overflow or underflow.
    """
    rows = max(1, _BLOCK_BYTES // (8 * len(tmat)))
    tsq = np.einsum("ij,ij->i", tmat, tmat)
    blocks = [(xb, np.einsum("ij,ij->i", xb, xb))
              for xb in (xmat[start:start + rows] for start in range(0, len(xmat), rows))]
    top = max(np.fmax.reduce(sq, initial=0.0)
              for sq in [tsq, np.einsum("ij,ij->i", smat, smat)] + [sq for _, sq in blocks])
    if 2.0 ** -1000 <= top <= 2.0 ** 1000:
        return tmat, tsq, smat, blocks
    big = max(max(np.fmax.reduce(m, axis=None, initial=0.0),
                  -np.fmin.reduce(m, axis=None, initial=0.0)) for m in (tmat, xmat, smat))
    if not 0.0 < big < math.inf:  # all zero, or an entry no scaling brings in range
        return tmat, tsq, smat, blocks
    shift = math.frexp(big)[1]
    return _in_range(*(np.ldexp(m, -shift) for m in (tmat, xmat, smat)))


def _individual(rows: np.ndarray, weights: np.ndarray, smat: np.ndarray, at) -> np.ndarray:
    """rows[at] (`at` a sequence of indices) less the rows' common parts,
    weights[i, k] * smat[k] over the positive weights of row i in ascending
    k, in a new matrix: the common parts are summed by
    `features._common_parts` and subtracted as the split subtracts them, a
    row at a time, so that no copy of the rows is held beside them."""
    if not len(smat):
        return rows[at]
    out = np.zeros((len(at), rows.shape[1]))
    _common_parts(smat, weights[at], out)
    for i, row in zip(at, out):
        np.subtract(rows[i], row, out=row)
    return out


def _candidates(tmat: np.ndarray, tterms: tuple, blocks: list, weights: np.ndarray,
                smat: np.ndarray, gram: np.ndarray, k: int):
    """Yield (x, w, candidates) for every test row of the blocks of
    `_in_range`, in order: the row and its weights as 1-row matrices, and
    the ascending indices of the rows of tmat that `_prefilter` keeps for
    it.  tterms are the `_expansion` terms of tmat."""
    start = 0
    for xb, xsq in blocks:
        xw = weights[start:start + len(xb)]
        keep = _prefilter(xb, _expansion(xb, xsq, xw, smat, gram), tmat, tterms, gram, k)
        for i, row in enumerate(keep):
            yield xb[i:i + 1], xw[i:i + 1], np.flatnonzero(row)
        start += len(xb)


def _nearest(tmat: np.ndarray, weights: np.ndarray, smat: np.ndarray, x: np.ndarray,
             w: np.ndarray, cand: np.ndarray, k: int) -> tuple:
    """(indices, distances) of the k rows of tmat among cand whose
    individual parts are nearest to that of the one row x with weights w,
    ordered by (distance, index); the distance is `np.linalg.norm(t - x)`
    row by row over the individual parts, and NaN distances order last."""
    dist = np.linalg.norm(_individual(tmat, weights, smat, cand)
                          - _individual(x, w, smat, [0]), axis=1)
    order = np.argsort(dist, kind="stable")[:k]
    return cand[order], dist[order]


def knn_classify(train: LabeledVectors, test: LabeledVectors, k: int = 1) -> EvalReport:
    """Euclidean k-nearest-neighbor majority vote over the feature vectors
    of `LabeledVectors`; train and test must share their slices.

    Neighbors are ordered by (distance, training index), where the distance
    of training vector t is `np.linalg.norm(t - x)` row by row.  A GEMM
    expansion of the squared distances, widened by its rounding-error bound,
    first discards the training vectors that cannot be among the k nearest.
    Exact distances are computed only where they can change the prediction:
    among more than k remaining candidates, to find the k nearest, and
    among the k nearest when their vote ties.  So the neighbors, the votes
    and the predictions are those of a full search.  NaN distances order
    last.  Vote ties go to the tied class with the smallest summed neighbor
    distance, then to the lowest class ID.
    """
    _check_count("k", k)
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    if len(test) and train.dim != test.dim:
        raise ValueError(f"dimension mismatch: train {train.dim} vs test {test.dim}")
    if len(test) and not (train.slices is test.slices
                          or np.array_equal(train.slices, test.slices)):
        raise ValueError("train and test vectors must share their slices")
    class_ids = sorted(set(train.labels) | set(test.labels))
    index = {lab: i for i, lab in enumerate(class_ids)}
    confusion = np.zeros((len(class_ids), len(class_ids)), dtype=np.int64)
    tmat, tsq, smat, blocks = _in_range(train.vectors, test.vectors, train.slices)
    gram = smat @ smat.T
    tterms = _expansion(tmat, tsq, train.weights, smat, gram)
    labels = train.labels
    k = min(k, len(train))
    for (x, w, cand), true in zip(_candidates(tmat, tterms, blocks, test.weights, smat, gram, k),
                                  test.labels):
        dist = None
        if len(cand) > k:
            cand, dist = _nearest(tmat, train.weights, smat, x, w, cand, k)
        counts = Counter(labels[i] for i in cand)
        best = max(counts.values())
        tied = [lab for lab, n in counts.items() if n == best]
        pred = tied[0]
        if len(tied) > 1:
            if dist is None:
                cand, dist = _nearest(tmat, train.weights, smat, x, w, cand, k)
            totals: dict = {}
            for i, d in zip(cand, dist):
                totals[labels[i]] = totals.get(labels[i], 0.0) + float(d)
            pred = min(tied, key=lambda lab: (totals[lab], lab))
        confusion[index[true], index[pred]] += 1
    per_run = [int(np.trace(confusion)) / len(test)] if len(test) else []
    return _report(class_ids, confusion, per_run)


def nearest_centroid(train: LabeledVectors, test: LabeledVectors) -> EvalReport:
    """Assign each test vector to the class with the closest mean vector.

    This is `knn_classify` with k = 1 against the class means, each
    labelled with its class: the mean row with the mean weights over the
    same slices, whose feature vector is the mean of the class's feature
    vectors up to rounding, and no individual part is formed to take it.
    The means are in ascending class order, so distance ties go to the
    lowest class ID; NaN distances order last.
    """
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    rows: dict = {}
    for i, lab in enumerate(train.labels):
        rows.setdefault(lab, []).append(i)
    labs = sorted(rows)
    means = np.empty((len(labs), train.dim))
    weights = np.empty((len(labs), len(train.slices)))
    # finite weights of 2^1000 and more could sum to inf: their column is
    # averaged scaled by the power of two that puts its largest in [0.5, 1)
    shift = np.frexp(np.max(train.weights, axis=0, initial=0.0))[1]
    shift[shift <= 1000] = 0
    for lab, mean, w in zip(labs, means, weights):
        at = rows.pop(lab)  # no index list is held through the search
        np.mean(train.vectors[at], axis=0, out=mean)
        np.mean(np.ldexp(train.weights[at], -shift), axis=0, out=w)
    np.ldexp(weights, shift, out=weights)
    return knn_classify(LabeledVectors(means, labs, weights=weights, slices=train.slices),
                        test, k=1)


@dataclass
class ExperimentConfig:
    """Settings of an experiment grid.  `realizations`, `k` and the block
    `ranks` are integers >= 1; `SubsetRule` checks `tau`, `seed_sequence`
    the seed, which names streams and may be negative, and `DecompConfig`
    `max_sweeps` and `rel_tol`.  numpy's numbers are accepted; a bool or a
    misplaced fraction raises ValueError."""

    seed: int = 0
    realizations: int = 100
    classifier: str = CLASSIFIER_KNN
    k: int = 1
    ranks: list = field(default_factory=lambda: [1])
    tau: float = 0.0
    max_sweeps: int = 200
    rel_tol: float = 1e-8

    def __post_init__(self):
        for name in ("realizations", "k"):
            if not _is_number(getattr(self, name), integral=True):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        ranks = self.ranks
        if not (isinstance(ranks, (list, tuple)) and ranks
                and all(_is_number(L, True) and L >= 1 for L in ranks)):
            raise ValueError(f"ranks must be a nonempty list of positive integers, got {ranks!r}")
        SubsetRule(self.tau)
        seed_sequence(self.seed)
        DecompConfig(max_sweeps=self.max_sweeps, rel_tol=self.rel_tol)


def check_grid(methods, classifiers) -> None:
    """Raise ValueError unless `methods` and `classifiers` are nonempty lists of known names."""
    for kind, names, known in (("methods", methods, METHODS),
                               ("classifiers", classifiers, CLASSIFIERS)):
        if not (isinstance(names, (list, tuple)) and names):
            raise ValueError(f"{kind} must be a nonempty list, got {names!r}")
        for name in names:
            if name not in known:
                raise ValueError(f"unknown {kind[:-1]} {name!r}, expected one of {known}")


def _fit_banks(ds: EnsembleDataset, plans: list, batch: list, ranks: list,
               cfg: ExperimentConfig) -> dict:
    """{r: banks of plans[r].train_groups} for every realization r of the
    batch, all fitted in one stacked sweep of their images, gathered once."""
    where = [(r, gid) for r in batch for gid in plans[r].train_groups]
    dcfgs = [DecompConfig(max_sweeps=cfg.max_sweeps, rel_tol=cfg.rel_tol,
                          seed=derive_seed(cfg.seed, "realization", r, "group", gid))
             for r, gid in where]
    images = group_tensor(ds, [q for r, gid in where for q in plans[r].members[gid]])[0]
    try:  # the groups are of one size, as run_grid checks
        banks = fit_feature_bank(DenseTensor._wrap(images.values.reshape(
            *images.shape[:2], -1, len(where), order="F")), ranks, dcfgs)
    except ConvergenceError as exc:
        r, gid = where[exc.index]
        raise ConvergenceError(f"decomposition failed on group {gid} of realization {r}: "
                               f"{exc}") from exc
    out = {r: [] for r in batch}
    for (r, _), bank in zip(where, banks):
        out[r].append(bank)
    return out


def _featurize(raw: tuple, banks: list, rule: SubsetRule) -> tuple:
    """The raw (training, held-out) features of one realization over the
    same two matrices of image rows, each row with its mixing weights over
    the pooled slices of all banks, zero where the rule drops a feature, so
    that its feature vector is its individual part (`LabeledVectors`); no
    row is copied or split here.  A row of an (equal-sized) training group
    takes its own bank's mixing, zero at the other groups' slices; a
    held-out row takes its nonnegative mixing estimate against the pooled
    banks."""
    slices = [s for bank in banks for s in bank.slices]
    pooled = CommonFeatureBank(slices=slices, mixing=np.zeros((0, len(slices))))
    held_out = raw[1].vectors.T.reshape(*slices[0].shape, -1, order="F")
    test_weights = estimate_mixing(pooled, held_out)
    train_weights = np.zeros((len(raw[0]), len(slices)))  # one block per bank
    at = 0
    for q, bank in enumerate(banks):
        train_weights[q * bank.n_images:(q + 1) * bank.n_images,
                      at:at + bank.n_features] = bank.mixing
        at += bank.n_features
    smat = np.stack([s.ravel(order="F") for s in slices])
    return tuple(LabeledVectors(lv.vectors, lv.labels, weights=rule.mask(w), slices=smat)
                 for lv, w in zip(raw, (train_weights, test_weights)))


def run_grid(ds: EnsembleDataset, plan: SplitPlan, methods, classifiers,
             cfg: ExperimentConfig | None = None) -> dict:
    """Split, featurize and classify over seeded realizations; return
    {method: {classifier: EvalReport}} (cfg.classifier is unused).

    Realization 0 uses the given plan; realization r regenerates the group
    assignment with seed plan.seed + r.  Features per method: raw uses
    vectorized images; ll1 decomposes each training group with block ranks
    cfg.ranks, trains on the individual parts, and projects test images
    through the pooled training bank (nonnegative mixing estimate, then
    subtraction); cpd does the same with one rank-1 term per configured
    block, so at all-ones ranks it shares ll1's features.

    Realizations are taken in consecutive batches whose training groups
    hold at most _BATCH_BYTES of float64 values together, with at least one
    realization per batch.  Per distinct ranks, a batch's training images
    are gathered once and fitted in place as one order-4 stack of groups,
    each group with the seed it has alone, and freed when the fit returns.
    Each realization of the batch then copies its training and held-out
    image rows once each, the raw features, which every method shares: a
    fitted method adds their mixing weights over the pooled slices
    (`_featurize`), and its banks are released.  Each classifier runs once
    on those features and splits no image it need not measure exactly.  A
    plan without training images raises ValueError, and so do training
    groups that differ in size if a method is fit.
    """
    check_grid(methods, classifiers)
    cfg = cfg or ExperimentConfig()
    rule = SubsetRule(cfg.tau)
    # featurization key: None for raw pixels, else the effective block ranks
    keys = {m: None if m == METHOD_RAW
            else tuple([1] * len(cfg.ranks) if m == METHOD_CPD else cfg.ranks)
            for m in methods}
    fitted = [key for key in dict.fromkeys(keys.values()) if key is not None]
    sizes = [len(plan.members[gid]) for gid in plan.train_groups]
    if not sum(sizes):
        raise ValueError("training set must be nonempty")
    if fitted and len(set(sizes)) > 1:
        raise ValueError(f"training groups of sizes {sizes} cannot be fitted together")
    class_ids = sorted(set(ds.labels))
    index = {lab: i for i, lab in enumerate(class_ids)}
    cells = {(m, c): (np.zeros((len(class_ids),) * 2, dtype=np.int64), [])
             for m in keys for c in classifiers}
    plans = [plan] + [make_group_splits(ds, plan.n_groups, len(plan.train_groups),
                                        seed=plan.seed + r)
                      for r in range(1, cfg.realizations)]
    # a group holds one sample per class, so all realizations train on as
    # many images as plan does
    train_bytes = 8 * ds.tensor.shape[0] * ds.tensor.shape[1] * sum(sizes)
    per_batch = max(1, _BATCH_BYTES // train_bytes)
    rows = unfold(ds.tensor, 2)  # row q: image q, vectorized; a view
    for start in range(0, cfg.realizations, per_batch):
        batch = list(range(start, min(start + per_batch, cfg.realizations)))
        banks = {key: _fit_banks(ds, plans, batch, list(key), cfg) for key in fitted}
        for r in batch:
            idx = [[q for gid in groups for q in plans[r].members[gid]]
                   for groups in (plans[r].train_groups, plans[r].test_groups)]
            raw = tuple(LabeledVectors(rows[i], [ds.labels[q] for q in i]) for i in idx)
            for key in dict.fromkeys(keys.values()):
                # the banks are dropped once featurized: the features hold their slices
                train, test = _featurize(raw, banks[key].pop(r), rule) if key else raw
                sharing = [m for m in keys if keys[m] == key]
                for c in dict.fromkeys(classifiers):
                    rep = (knn_classify(train, test, cfg.k) if c == CLASSIFIER_KNN
                           else nearest_centroid(train, test))
                    at = np.ix_(*[[index[lab] for lab in rep.class_ids]] * 2)
                    for m in sharing:
                        confusion, per_run = cells[m, c]
                        confusion[at] += rep.confusion
                        per_run.append(rep.accuracy)
            del raw, train, test
    return {m: {c: _report(class_ids, *cells[m, c]) for c in classifiers} for m in keys}


def run_experiment(ds: EnsembleDataset, plan: SplitPlan, method: str,
                   cfg: ExperimentConfig | None = None) -> EvalReport:
    """The (method, cfg.classifier) cell of `run_grid`, computed alone."""
    cfg = cfg or ExperimentConfig()
    return run_grid(ds, plan, [method], [cfg.classifier], cfg)[method][cfg.classifier]


def report_csv(report: EvalReport) -> str:
    """One row per realization plus the aggregate row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["realization", "accuracy"])
    for r, acc in enumerate(report.per_run):
        writer.writerow([r, f"{acc:.6f}"])
    writer.writerow(["mean", f"{report.mean:.6f}"])
    writer.writerow(["stddev", f"{report.stddev:.6f}"])
    return buf.getvalue()


def cell_records(grid: dict) -> dict:
    """{method: {classifier: record}} of a {method: {classifier: EvalReport}}
    grid: the cells of `summary_json` and of the CLI experiment payload."""
    return {method: {clf: {"accuracy": rep.accuracy, "mean": rep.mean,
                           "stddev": rep.stddev, "realizations": len(rep.per_run)}
                     for clf, rep in row.items()}
            for method, row in grid.items()}


def summary_json(grid: dict) -> str:
    """JSON summary of a {method: {classifier: EvalReport}} grid."""
    return json.dumps(cell_records(grid), sort_keys=True, indent=2) + "\n"
