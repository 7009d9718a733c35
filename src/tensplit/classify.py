"""Classifiers and the experiment harness comparing raw-pixel features
against individual features left after common-feature subtraction.

Both classifiers are deterministic: neighbors are ordered by (distance,
training index) and every tie falls back to the lowest class ID.  The search
runs in two steps.  One GEMM per block of test vectors expands every squared
distance as ||x||^2 + ||t||^2 - 2 x.t; widened by its rounding-error bound,
that expansion discards the training vectors (or class centroids) that
cannot be among the nearest.  The remaining candidates are re-ranked by the
exact norm of the difference, so neighbors, distances and predictions are
those of a full exact search.  The experiment harness repeats the
split/decompose/classify cycle over seeded realizations and aggregates one
report per (method, classifier) cell; mean and stddev are computed from the
sorted per-run list so aggregation order cannot matter.  It decomposes the
training groups of consecutive realizations together, in one stacked fit
per distinct block ranks: as many realizations at a time as keep their
training stacks within 16 MiB (`_BATCH_BYTES`), and at least one.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field

import numpy as np

from .core import unfold
from .dataset import EnsembleDataset, SplitPlan, group_tensor, make_group_splits
from .decomp import DecompConfig
from .features import (
    CommonFeatureBank,
    SubsetRule,
    estimate_mixing,
    fit_feature_bank,
    split_features,
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
    vectors: list  # equal-length 1-D float arrays
    labels: list

    def __post_init__(self):
        if len(self.vectors) != len(self.labels):
            raise ValueError("one label per vector required")
        dims = {np.asarray(v).shape for v in self.vectors}
        if len(dims) > 1:
            raise ValueError("vectors must share one length")
        for d in dims:
            if len(d) != 1:
                raise ValueError("vectors must be one-dimensional")

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return int(np.asarray(self.vectors[0]).size) if self.vectors else 0

    def matrix(self) -> np.ndarray:
        return np.asarray(self.vectors, dtype=np.float64)


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


# Test vectors stacked per distance GEMM: bounds the block's copy of the
# vectors and its query-by-training distance matrices.
_BLOCK_ROWS = 32
_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
# Training-group bytes that the realizations of one stacked LL1 fit may
# hold together: bounds the batch's group tensors and the fit's stacked copy.
_BATCH_BYTES = 16 << 20


def _candidates(tmat: np.ndarray, vectors: list, k: int):
    """Yield (x, candidates) for every test vector x, in order: the ascending
    indices of the rows t of tmat that can be among the k nearest to x under
    the exact distance ||t - x||.

    Vectors are stacked `_BLOCK_ROWS` at a time; one GEMM per block expands
    the squared distances as ||x||^2 + ||t||^2 - 2 x.t, widened by the slack
    below.  A vector with any non-finite entry in its row keeps every index.
    """
    # Slack derivation (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., section 3.1), with u = eps / 2, gamma_m = m u /
    # (1 - m u), S = ||x||^2 + ||t||^2 and D = ||x - t||^2 <= 2 S.  A
    # computed dot product of length n, in any summation order, is within
    # gamma_n |x|.|y| of the exact one (eq. 3.5), so:
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
    # cannot be among the k nearest whatever the tie order.  Requiring approx + 2 S to be finite also keeps the exact
    # path, whose partial sums stay near or below 2 S, from overflowing.
    n = tmat.shape[1]
    k = min(k, tmat.shape[0])
    tsq = np.einsum("ij,ij->i", tmat, tmat)
    for start in range(0, len(vectors), _BLOCK_ROWS):
        xb = np.asarray(vectors[start:start + _BLOCK_ROWS], dtype=np.float64)
        scale = np.einsum("ij,ij->i", xb, xb)[:, None] + tsq
        approx = scale - 2.0 * (xb @ tmat.T)
        slack = 4.0 * (n + 4) * (_EPS * scale + _SUBNORMAL)
        tau = np.partition(approx + slack, k - 1, axis=1)[:, k - 1:k]
        keep = approx - slack <= tau
        keep[~np.all(np.isfinite(approx + 2.0 * scale), axis=1)] = True
        for x, row in zip(xb, keep):
            yield x, np.flatnonzero(row)


def knn_classify(train: LabeledVectors, test: LabeledVectors, k: int = 1) -> EvalReport:
    """Euclidean k-nearest-neighbor majority vote.

    Neighbors are ordered by (distance, training index), where the distance
    of training vector t is `np.linalg.norm(t - x)` row by row.  A GEMM
    expansion of the squared distances, widened by its rounding-error bound,
    first discards the training vectors that cannot be among the k nearest;
    only the rest get the exact distance, so the neighbors and their
    distances are those of a full search.  NaN distances order last.  Vote
    ties go to the tied class with the smallest summed neighbor distance,
    then to the lowest class ID.
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
    tmat = train.matrix()
    for (x, cand), true in zip(_candidates(tmat, test.vectors, k), test.labels):
        dist = np.linalg.norm(tmat[cand] - x, axis=1)
        counts: dict = {}
        totals: dict = {}
        for i in np.argsort(dist, kind="stable")[:k]:
            lab = train.labels[cand[i]]
            counts[lab] = counts.get(lab, 0) + 1
            totals[lab] = totals.get(lab, 0.0) + float(dist[i])
        best = max(counts.values())
        tied = [lab for lab, n in counts.items() if n == best]
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
    tmat = train.matrix()
    labs = sorted(set(train.labels))
    means = [tmat[[i for i, l in enumerate(train.labels) if l == lab]].mean(axis=0)
             for lab in labs]
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
    n_restarts: int = 1

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.ranks or any(int(L) < 1 for L in self.ranks):
            raise ValueError("ranks must be a nonempty list of positive integers")
        SubsetRule(self.tau)  # range check


def _featurize_raw(ds: EnsembleDataset, plan: SplitPlan):
    rows = unfold(ds.tensor, 2)  # row q: image q, vectorized; a view
    out = []
    for groups in (plan.train_groups, plan.test_groups):
        vecs, labels = [], []
        for gid in groups:
            for q in plan.members[gid]:
                vecs.append(rows[q])
                labels.append(ds.labels[q])
        out.append(LabeledVectors(vectors=vecs, labels=labels))
    return out[0], out[1]


def _fit_banks(plans: list, batch: list, groups: dict, ranks: list,
               cfg: ExperimentConfig) -> dict:
    """{r: banks of plans[r].train_groups} for every realization r of the
    batch, all fitted in one stacked sweep."""
    where = [(r, gid) for r in batch for gid in plans[r].train_groups]
    dcfgs = [DecompConfig(max_sweeps=cfg.max_sweeps, rel_tol=cfg.rel_tol,
                          seed=derive_seed(cfg.seed, "realization", r, "group", gid))
             for r, gid in where]
    try:
        # every training group has one sample per class, so one shape
        banks = fit_feature_bank([sub for r in batch for sub, _ in groups[r]], ranks,
                                 dcfgs, n_restarts=cfg.n_restarts)
    except ConvergenceError as exc:
        if exc.index is None:
            at = f"one of the training groups of realizations {batch}"
        else:
            r, gid = where[exc.index]
            at = f"group {gid} of realization {r}"
        raise ConvergenceError(f"decomposition failed on {at}: {exc}") from exc
    out = {r: [] for r in batch}
    for (r, _), bank in zip(where, banks):
        out[r].append(bank)
    return out


def _train_vectors(groups: list, banks: list, rule: SubsetRule) -> LabeledVectors:
    """The individual parts of the training groups, split by their own banks."""
    return LabeledVectors(
        vectors=[v for (sub, _), bank in zip(groups, banks)
                 for v in unfold(split_features(sub, bank, rule).individual, 2)],
        labels=[lab for _, labels in groups for lab in labels],
    )


def _test_vectors(ds: EnsembleDataset, plan: SplitPlan, banks: list,
                  rule: SubsetRule) -> LabeledVectors:
    """The individual parts of the held-out images, split through the pooled
    training banks with nonnegative mixing estimates."""
    pooled_slices = [s for bank in banks for s in bank.slices]
    pooled = CommonFeatureBank(
        slices=pooled_slices, mixing=np.zeros((0, len(pooled_slices)))
    )
    test_idx = [q for gid in plan.test_groups for q in plan.members[gid]]
    held_out, labels = group_tensor(ds, test_idx)
    weights = estimate_mixing(pooled, held_out.values)
    split = split_features(held_out, pooled, rule, weights=weights)
    return LabeledVectors(vectors=list(unfold(split.individual, 2)), labels=labels)


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
    realization per batch.  Per distinct ranks, the training groups of a
    whole batch are decomposed in one stacked fit, each group with the seed
    it has alone; each realization of the batch is then featurized in turn
    and each classifier runs once on it.
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
    class_ids = sorted(set(ds.labels))
    index = {lab: i for i, lab in enumerate(class_ids)}
    cells = {(m, c): (np.zeros((len(class_ids),) * 2, dtype=np.int64), [])
             for m in keys for c in classifiers}
    plans = [plan] + [make_group_splits(ds, plan.n_groups, len(plan.train_groups),
                                        seed=plan.seed + r)
                      for r in range(1, cfg.realizations)]
    # a group holds one sample per class, so all realizations train on as
    # many images as plan does
    train_bytes = 8 * ds.tensor.shape[0] * ds.tensor.shape[1] * sum(
        len(plan.members[gid]) for gid in plan.train_groups)
    per_batch = max(1, _BATCH_BYTES // train_bytes)
    for start in range(0, cfg.realizations, per_batch):
        batch = list(range(start, min(start + per_batch, cfg.realizations)))
        groups = {r: [group_tensor(ds, plans[r].members[gid])
                      for gid in plans[r].train_groups]
                  for r in batch} if fitted else {}
        banks = {key: _fit_banks(plans, batch, groups, list(key), cfg) for key in fitted}
        for r in batch:
            for key in dict.fromkeys(keys.values()):
                if key is None:
                    train, test = _featurize_raw(ds, plans[r])
                else:
                    # held-out split first: its temporaries are freed before
                    # the training vectors join the training stacks; the last
                    # featurization of r takes those stacks, freeing them
                    test = _test_vectors(ds, plans[r], banks[key][r], rule)
                    train = _train_vectors(
                        groups.pop(r) if key == fitted[-1] else groups[r],
                        banks[key].pop(r), rule)
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


def summary_json(grid: dict) -> str:
    """JSON summary of a {method: {classifier: EvalReport}} grid."""
    out = {}
    for method, row in grid.items():
        out[method] = {}
        for clf, rep in row.items():
            out[method][clf] = {
                "accuracy": rep.accuracy,
                "mean": rep.mean,
                "stddev": rep.stddev,
                "realizations": len(rep.per_run),
            }
    return json.dumps(out, sort_keys=True, indent=2) + "\n"
