"""The layers that the benchmark's tracer patches, checked by the test suite.

`bench/tracer.py` wraps named functions of this package for the
benchmark's traced runs (`python3 bench/run.py ... --trace 1`) and reads
their arguments and results.  Untraced runs call the program unpatched, so
a renamed layer, or an argument the tracer can no longer read, breaks only
the traced path.  These tests load the tracer by path, install it on the
imported package and run one tiny traced cell per classifier.
"""

import importlib.util
from pathlib import Path

import pytest

import tensplit.classify as ts_classify
import tensplit.cli  # noqa: F401  the tracer patches only loaded modules
from tensplit.dataset import make_group_splits, synthetic_face_fixture

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    t = module.Tracer()
    t.install()
    t.enabled = True
    yield t
    t.uninstall()


def test_every_traced_layer_exists(tracer):
    assert tracer.absent == []


@pytest.mark.parametrize("classifier, searched", [("knn", 4), ("centroid", 2)])
def test_traced_cell_counts_distance_evaluations(tracer, classifier, searched):
    # 2 classes x 4 groups, 2 of them for training: 4 training and 4 test
    # images; the centroid search runs against the 2 class means
    ds = synthetic_face_fixture(height=8, width=6, n_classes=2, per_class=4, seed=1)
    plan = make_group_splits(ds, 4, 2, seed=0)
    cfg = ts_classify.ExperimentConfig(realizations=1, classifier=classifier,
                                       max_sweeps=3)
    report = ts_classify.run_experiment(ds, plan, "ll1", cfg)
    assert report.confusion.sum() == 4
    assert tracer.counts[f"classify.run_experiment.ll1.{classifier}.calls"] == 1
    assert tracer.counts["classify.knn_classify.calls"] == 1
    assert tracer.counts["classify.knn_classify.distance_evals"] == searched * 4
