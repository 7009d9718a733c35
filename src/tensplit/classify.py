"""Classifiers and the experiment harness comparing raw-pixel features
against individual features left after common-feature subtraction.

Both classifiers are deterministic: neighbors are ordered by (distance,
training index) and every tie falls back to the lowest class ID.  The
experiment harness repeats the split/decompose/classify cycle over seeded
realizations and aggregates one report; mean and stddev are computed from
the sorted per-run list so aggregation order cannot matter.
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
    split_single,
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


def _predict_one_knn(train: np.ndarray, labels: list, x: np.ndarray, k: int):
    dist = np.linalg.norm(train - x, axis=1)
    order = sorted(range(len(labels)), key=lambda i: (dist[i], i))
    top = order[: min(k, len(order))]
    counts: dict = {}
    totals: dict = {}
    for i in top:
        lab = labels[i]
        counts[lab] = counts.get(lab, 0) + 1
        totals[lab] = totals.get(lab, 0.0) + float(dist[i])
    best = max(counts.values())
    tied = [lab for lab, n in counts.items() if n == best]
    return min(tied, key=lambda lab: (totals[lab], lab))


def knn_classify(train: LabeledVectors, test: LabeledVectors, k: int = 1) -> EvalReport:
    """Euclidean k-nearest-neighbor majority vote.

    Vote ties go to the tied class with the smallest summed neighbor
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
    tmat = train.matrix()
    for x, true in zip(test.vectors, test.labels):
        pred = _predict_one_knn(tmat, train.labels, np.asarray(x, dtype=np.float64), k)
        confusion[index[true], index[pred]] += 1
    per_run = [int(np.trace(confusion)) / len(test)] if len(test) else []
    return _report(class_ids, confusion, per_run)


def nearest_centroid(train: LabeledVectors, test: LabeledVectors) -> EvalReport:
    """Assign each test vector to the class with the closest mean vector.

    Distance ties go to the lowest class ID.
    """
    if len(train) == 0:
        raise ValueError("training set must be nonempty")
    if len(test) and train.dim != test.dim:
        raise ValueError(f"dimension mismatch: train {train.dim} vs test {test.dim}")
    class_ids = sorted(set(train.labels) | set(test.labels))
    index = {lab: i for i, lab in enumerate(class_ids)}
    tmat = train.matrix()
    centroids = {}
    for lab in sorted(set(train.labels)):
        rows = [i for i, l in enumerate(train.labels) if l == lab]
        centroids[lab] = tmat[rows].mean(axis=0)
    confusion = np.zeros((len(class_ids), len(class_ids)), dtype=np.int64)
    for x, true in zip(test.vectors, test.labels):
        x = np.asarray(x, dtype=np.float64)
        pred, best = None, np.inf
        for lab in sorted(centroids):
            d = float(np.linalg.norm(x - centroids[lab]))
            if d < best:
                pred, best = lab, d
        confusion[index[true], index[pred]] += 1
    per_run = [int(np.trace(confusion)) / len(test)] if len(test) else []
    return _report(class_ids, confusion, per_run)


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


def _featurize_split(ds: EnsembleDataset, plan: SplitPlan, ranks: list,
                     cfg: ExperimentConfig, realization: int):
    rule = SubsetRule(cfg.tau)
    train_vecs, train_labels = [], []
    pooled_slices = []
    for gid in plan.train_groups:
        sub, labels = group_tensor(ds, plan.members[gid])
        dcfg = DecompConfig(
            max_sweeps=cfg.max_sweeps,
            rel_tol=cfg.rel_tol,
            seed=derive_seed(cfg.seed, "realization", realization, "group", gid),
        )
        try:
            bank = fit_feature_bank(sub, ranks, dcfg, n_restarts=cfg.n_restarts)
        except ConvergenceError as exc:
            raise ConvergenceError(f"decomposition failed on group {gid}: {exc}") from exc
        split = split_features(sub, bank, rule)
        ind = unfold(split.individual, 2)
        for i, lab in enumerate(labels):
            train_vecs.append(ind[i])
            train_labels.append(lab)
        pooled_slices.extend(bank.slices)

    pooled = CommonFeatureBank(
        slices=pooled_slices, mixing=np.zeros((0, len(pooled_slices)))
    )
    test_idx = [q for gid in plan.test_groups for q in plan.members[gid]]
    images = ds.tensor.values[:, :, test_idx]
    weights = estimate_mixing(pooled, images)
    test_vecs, test_labels = [], []
    for i, q in enumerate(test_idx):
        _, individual, _ = split_single(pooled, images[:, :, i], weights[i], rule)
        test_vecs.append(individual.ravel(order="F"))
        test_labels.append(ds.labels[q])
    return (LabeledVectors(vectors=train_vecs, labels=train_labels),
            LabeledVectors(vectors=test_vecs, labels=test_labels))


def _classify(train: LabeledVectors, test: LabeledVectors, cfg: ExperimentConfig):
    if cfg.classifier == CLASSIFIER_KNN:
        return knn_classify(train, test, cfg.k)
    return nearest_centroid(train, test)


def run_experiment(ds: EnsembleDataset, plan: SplitPlan, method: str,
                   cfg: ExperimentConfig | None = None) -> EvalReport:
    """Repeat split/featurize/classify over seeded realizations.

    Realization 0 uses the given plan; realization r regenerates the group
    assignment with seed plan.seed + r.  Features per method: raw uses
    vectorized images; ll1 decomposes each training group with block ranks
    cfg.ranks, trains on the individual parts, and projects test images
    through the pooled training bank (nonnegative mixing estimate, then
    subtraction); cpd does the same with one rank-1 term per configured
    block.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    cfg = cfg or ExperimentConfig()
    class_ids = sorted(set(ds.labels))
    index = {lab: i for i, lab in enumerate(class_ids)}
    confusion = np.zeros((len(class_ids), len(class_ids)), dtype=np.int64)
    per_run = []
    for r in range(cfg.realizations):
        if r == 0:
            p = plan
        else:
            p = make_group_splits(ds, plan.n_groups, len(plan.train_groups),
                                  seed=plan.seed + r)
        if method == METHOD_RAW:
            train, test = _featurize_raw(ds, p)
        else:
            ranks = [1] * len(cfg.ranks) if method == METHOD_CPD else list(cfg.ranks)
            train, test = _featurize_split(ds, p, ranks, cfg, r)
        rep = _classify(train, test, cfg)
        per_run.append(rep.accuracy)
        for i, true in enumerate(rep.class_ids):
            for j, pred in enumerate(rep.class_ids):
                if rep.confusion[i, j]:
                    confusion[index[true], index[pred]] += rep.confusion[i, j]
    return _report(class_ids, confusion, per_run)


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
