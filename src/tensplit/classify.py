"""Classifiers and the experiment harness comparing raw-pixel features
against individual features left after common-feature subtraction.

Both classifiers are deterministic: neighbors are ordered by (distance,
training index) and every tie falls back to the lowest class ID.  The search
runs in two steps.  One GEMM per block of test vectors expands every squared
distance as ||x||^2 + ||t||^2 - 2 x.t; widened by its rounding-error bound,
that expansion discards the training vectors (or class centroids) that
cannot be among the nearest.  A block takes as many test vectors as keep
its test-by-training matrices within 1 MiB each (`_BLOCK_BYTES`), and at
least one.  The exact norm of the difference is computed only where it can
change the prediction: to rank more than k remaining candidates, or to
break a tied vote among exactly k.  So neighbors, votes and predictions
are those of a full exact search, and where the squared norms leave
[2^-1000, 2^1000] both sides are first scaled by one power of two, so that
distances neither overflow nor underflow to ties.  The experiment harness
repeats the split/decompose/classify cycle over seeded realizations and
aggregates one report per (method, classifier) cell; mean and stddev are
computed from the sorted per-run list so aggregation order cannot matter.
It decomposes the training groups of consecutive realizations together, in
one stacked fit per distinct block ranks: as many realizations at a time as
keep their training images within 16 MiB (`_BATCH_BYTES`), and at least
one.  Those are gathered once, into one buffer the fit reads in place, and
live only for that fit: each realization is then featurized in place, in
one copy each of its training and held-out image rows.
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

from .core import DenseTensor, _is_number, unfold
from .dataset import EnsembleDataset, SplitPlan, group_tensor, make_group_splits
from .decomp import DecompConfig
from .features import (
    CommonFeatureBank,
    SubsetRule,
    _subtract_common,
    estimate_mixing,
    fit_feature_bank,
)
from .kernels import ConvergenceError
from .seeds import derive_seed

METHOD_RAW = "raw"
METHOD_CPD = "cpd"
METHOD_LL1 = "ll1"
METHODS = (METHOD_RAW, METHOD_CPD, METHOD_LL1)

CLASSIFIER_KNN = "knn"
CLASSIFIER_CENTROID = "centroid"
CLASSIFIERS = (CLASSIFIER_KNN, CLASSIFIER_CENTROID)


@dataclass
class LabeledVectors:
    """Feature vectors as the rows of one n x d float64 matrix, row i with
    label labels[i].  It is converted once, on construction: a list of
    equal-length rows is accepted too, and an empty list gives 0 rows."""

    vectors: np.ndarray
    labels: list

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.shape == (0,):
            self.vectors = self.vectors.reshape(0, 0)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be the rows of one matrix")
        if len(self.vectors) != len(self.labels):
            raise ValueError("one label per vector required")

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
# block holds three of them (and two boolean ones) while it is filtered.
_BLOCK_BYTES = 1 << 20
# Training-group bytes of the realizations fitted in one stacked LL1 sweep:
# bounds the one buffer of training images gathered for the fit, freed when
# the fit returns, before any image rows are featurized.
_BATCH_BYTES = 16 << 20


def _prefilter(xb: np.ndarray, xsq: np.ndarray, tmat: np.ndarray, tsq: np.ndarray,
               k: int) -> np.ndarray:
    """Boolean matrix, row i true at every row t of tmat that can be among
    the k nearest to xb[i] under the exact distance ||t - x||, for
    1 <= k <= len(tmat); xsq and tsq hold the squared norms of the rows of
    xb and of tmat.

    One GEMM expands the squared distances as ||x||^2 + ||t||^2 - 2 x.t,
    widened by the slack below.  A vector with any non-finite entry in its
    row keeps every index.
    """
    # Slack derivation (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.1), with u = eps / 2, gamma_m = m u /
    # (1 - m u), S = ||x||^2 + ||t||^2 and D = ||x - t||^2 <= 2 S.  A
    # computed dot product of length n, in any summation order and so in
    # any blocking of the rows, is within gamma_n |x|.|y| of the exact one
    # (eq. 3.5), so:
    #   * the norms err by gamma_n ||x||^2 and gamma_n ||t||^2, the GEMM
    #     entry by gamma_n |x|.|t| <= gamma_n S / 2 (doubled in `approx`),
    #     and the sum and the difference forming `approx` add u S and
    #     2 u S: to first order, |approx - D| <= (2 n + 3) u S;
    #   * the exact path rounds each difference (twice once squared), each
    #     square, n - 1 additions and the square root (twice once squared),
    #     so its distance d has |d^2 - D| <= gamma_{n+4} D <= 2 (n + 4) u S,
    #     whether a 1-D or a row-wise norm forms it.
    # Hence |d^2 - approx| <= (2 n + 5.5) eps S to first order; c = 4
    # doubles that, covering the second-order terms and the roundings of
    # the slack and of approx +- slack.  Under gradual underflow the 3 n
    # products of the expansion and the n squares of the exact path may
    # instead each err by half the smallest subnormal, 5 n / 2 of them at
    # most with the GEMM's counted twice, which 4 (n + 4) smallest
    # subnormals cover.  So with tau the k-th smallest approx + slack of a
    # vector, at least k rows have d^2 <= tau, and a row with
    # approx - slack > tau has d^2 > tau: with k rows strictly nearer, it
    # cannot be among the k nearest whatever the tie order.  Requiring
    # approx + 2 S to be finite also keeps the exact path, whose partial
    # sums stay near or below 2 S, from overflowing.
    #
    # Formed in place, in three matrices: (-2 g) + scale is scale - 2 g
    # exactly, for the GEMM entry g.
    n = tmat.shape[1]
    scale = xsq[:, None] + tsq
    approx = xb @ tmat.T
    approx *= -2.0
    approx += scale
    bound = scale * 2.0
    bound += approx
    finite = np.all(np.isfinite(bound), axis=1)
    slack = scale
    slack *= _EPS
    slack += _SUBNORMAL
    slack *= 4.0 * (n + 4)
    np.add(approx, slack, out=bound)
    bound.partition(k - 1, axis=1)
    approx -= slack
    keep = approx <= bound[:, k - 1:k]
    keep[~finite] = True
    return keep


def _in_range(tmat: np.ndarray, xmat: np.ndarray) -> tuple:
    """(tmat, tsq, blocks): the training rows and their squared norms, and
    the test rows in blocks, each block with its rows' squared norms, as
    the search takes them.  A block holds as many test rows as keep its
    query-by-training matrix within `_BLOCK_BYTES`, and at least one; so a
    block's GEMM packs tmat once for all of its rows.

    Where the largest squared norm lies outside [2^-1000, 2^1000], the
    distances' squares could overflow, or underflow until every candidate
    ties.  Both matrices are then scaled by the one power of two that puts
    their largest finite |entry| in [0.5, 1), and taken again, in range.
    That scaling is exact and scales every distance alike, so neighbors,
    votes and predictions are those of the unscaled search without
    overflow or underflow.
    """
    rows = max(1, _BLOCK_BYTES // (8 * len(tmat)))
    tsq = np.einsum("ij,ij->i", tmat, tmat)
    blocks = [(xb, np.einsum("ij,ij->i", xb, xb))
              for xb in (xmat[start:start + rows] for start in range(0, len(xmat), rows))]
    top = max(np.fmax.reduce(sq, initial=0.0) for sq in [tsq] + [sq for _, sq in blocks])
    if 2.0 ** -1000 <= top <= 2.0 ** 1000:
        return tmat, tsq, blocks
    big = max(max(np.fmax.reduce(m, axis=None, initial=0.0),
                  -np.fmin.reduce(m, axis=None, initial=0.0)) for m in (tmat, xmat))
    if not 0.0 < big < math.inf:  # all zero, or an entry no scaling brings in range
        return tmat, tsq, blocks
    shift = math.frexp(big)[1]
    return _in_range(np.ldexp(tmat, -shift), np.ldexp(xmat, -shift))


def _candidates(tmat: np.ndarray, tsq: np.ndarray, blocks: list, k: int):
    """Yield (x, candidates) for every test row x of the blocks of
    `_in_range`, in order: the ascending indices of the rows of tmat that
    `_prefilter` keeps for x."""
    for xb, xsq in blocks:
        for x, row in zip(xb, _prefilter(xb, xsq, tmat, tsq, k)):
            yield x, np.flatnonzero(row)


def _nearest(tmat: np.ndarray, x: np.ndarray, cand: np.ndarray, k: int) -> tuple:
    """(indices, distances) of the k rows of tmat among cand nearest to x,
    ordered by (distance, index); the distance is `np.linalg.norm(t - x)`
    row by row, and NaN distances order last."""
    dist = np.linalg.norm(tmat[cand] - x, axis=1)
    order = np.argsort(dist, kind="stable")[:k]
    return cand[order], dist[order]


def knn_classify(train: LabeledVectors, test: LabeledVectors, k: int = 1) -> EvalReport:
    """Euclidean k-nearest-neighbor majority vote.

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
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    if len(test) and train.dim != test.dim:
        raise ValueError(f"dimension mismatch: train {train.dim} vs test {test.dim}")
    class_ids = sorted(set(train.labels) | set(test.labels))
    index = {lab: i for i, lab in enumerate(class_ids)}
    confusion = np.zeros((len(class_ids), len(class_ids)), dtype=np.int64)
    tmat, tsq, blocks = _in_range(train.vectors, test.vectors)
    labels = train.labels
    k = min(k, len(train))
    for (x, cand), true in zip(_candidates(tmat, tsq, blocks, k), test.labels):
        dist = None
        if len(cand) > k:
            cand, dist = _nearest(tmat, x, cand, k)
        counts = Counter(labels[i] for i in cand)
        best = max(counts.values())
        tied = [lab for lab, n in counts.items() if n == best]
        pred = tied[0]
        if len(tied) > 1:
            if dist is None:
                cand, dist = _nearest(tmat, x, cand, k)
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
    labelled with its class, so the distance to a mean c is the row-wise
    `np.linalg.norm(c - x)` of its search.  The means are in ascending
    class order, so distance ties go to the lowest class ID; NaN distances
    order last.
    """
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    rows: dict = {}
    for i, lab in enumerate(train.labels):
        rows.setdefault(lab, []).append(i)
    labs = sorted(rows)
    means = np.empty((len(labs), train.dim))
    for lab, mean in zip(labs, means):
        np.mean(train.vectors[rows[lab]], axis=0, out=mean)
    return knn_classify(LabeledVectors(vectors=means, labels=labs), test, k=1)


@dataclass
class ExperimentConfig:
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
        if len(self.ranks) == 0 or not all(_is_number(L, True) and L >= 1 for L in self.ranks):
            raise ValueError("ranks must be a nonempty list of positive integers")
        if not _is_number(self.tau):
            raise ValueError(f"tau must be a number, got {self.tau!r}")
        SubsetRule(self.tau)  # range checks
        DecompConfig(max_sweeps=self.max_sweeps, rel_tol=self.rel_tol)


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


def _featurize(ds: EnsembleDataset, plan: SplitPlan, banks: list | None,
               rule: SubsetRule) -> tuple:
    """Training and held-out vectors of one realization, gathered once each
    from the dataset's image rows: raw pixels without banks, else their
    individual parts, split in place.  Each (equal-sized) training group is
    split by its own bank, the held-out images through the pooled banks
    with nonnegative mixing estimates."""
    rows = unfold(ds.tensor, 2)  # row q: image q, vectorized; a view
    idx = [[q for gid in groups for q in plan.members[gid]]
           for groups in (plan.train_groups, plan.test_groups)]
    train, test = (LabeledVectors(vectors=rows[i], labels=[ds.labels[q] for q in i])
                   for i in idx)
    if banks is not None:
        for part, bank in zip(np.split(train.vectors, len(banks)), banks):
            _subtract_common(part, bank.slices, bank.mixing, rule)
        slices = [s for bank in banks for s in bank.slices]
        pooled = CommonFeatureBank(slices=slices, mixing=np.zeros((0, len(slices))))
        held_out = test.vectors.T.reshape(*ds.tensor.shape[:2], -1, order="F")
        _subtract_common(test.vectors, slices, estimate_mixing(pooled, held_out), rule)
    return train, test


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
    each group with the seed it has alone, and freed when the fit returns;
    each realization of the batch is then split in place in one copy each
    of its training and held-out image rows, and each classifier runs once.
    Training groups that differ in size raise ValueError if a method is fit.
    """
    for kind, names, known in (("method", methods, METHODS),
                               ("classifier", classifiers, CLASSIFIERS)):
        for name in names:
            if name not in known:
                raise ValueError(f"unknown {kind} {name!r}, expected one of {known}")
    cfg = cfg or ExperimentConfig()
    rule = SubsetRule(cfg.tau)
    # featurization key: None for raw pixels, else the effective block ranks
    keys = {m: None if m == METHOD_RAW
            else tuple([1] * len(cfg.ranks) if m == METHOD_CPD else cfg.ranks)
            for m in methods}
    fitted = [key for key in dict.fromkeys(keys.values()) if key is not None]
    sizes = [len(plan.members[gid]) for gid in plan.train_groups]
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
    for start in range(0, cfg.realizations, per_batch):
        batch = list(range(start, min(start + per_batch, cfg.realizations)))
        banks = {key: _fit_banks(ds, plans, batch, list(key), cfg) for key in fitted}
        for r in batch:
            for key in dict.fromkeys(keys.values()):
                train, test = _featurize(ds, plans[r], banks[key][r] if key else None, rule)
                sharing = [m for m in keys if keys[m] == key]
                for c in dict.fromkeys(classifiers):
                    rep = (knn_classify(train, test, cfg.k) if c == CLASSIFIER_KNN
                           else nearest_centroid(train, test))
                    at = np.ix_(*[[index[lab] for lab in rep.class_ids]] * 2)
                    for m in sharing:
                        confusion, per_run = cells[m, c]
                        confusion[at] += rep.confusion
                        per_run.append(rep.accuracy)
                del train, test
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
