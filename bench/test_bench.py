"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest bench -q

They prove that a corrupted program output is counted as a failed
operation, and that tracing restores the program and survives a traced
function that no longer exists.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tensplit  # noqa: E402
import tensplit.classify as ts_classify  # noqa: E402
import tensplit.features as ts_features  # noqa: E402
import tensplit.kernels as ts_kernels  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def _corrupt_confusion(real):
    def run_experiment(*args, **kwargs):
        report = real(*args, **kwargs)
        report.confusion[0, 0] += 1
        return report
    return run_experiment


def test_corrupted_cell_counts_as_failure(monkeypatch, tmp_path):
    state = wl.FixtureGrid().setup(0, tmp_path)
    ops = [op for op in wl.FixtureGrid().ops(state) if op.label.startswith("raw.")]
    assert run.run_pass(ops)[1:3] == (2, 0)
    monkeypatch.setattr(ts_classify, "run_experiment",
                        _corrupt_confusion(ts_classify.run_experiment))
    assert run.run_pass(ops)[1:3] == (2, 2)


def test_raising_operation_counts_as_failure():
    def boom():
        raise ValueError("broken")
    ok = wl.Op(label="ok", run=lambda: 1, check=lambda r: [])
    bad = wl.Op(label="bad", run=boom, check=lambda r: [])
    unreadable = wl.Op(label="unreadable", run=lambda: 1, check=lambda r: 1 / 0)
    assert run.run_pass([ok, bad, ok, unreadable])[1:3] == (4, 2)


def test_corrupted_split_counts_as_failure(monkeypatch, tmp_path):
    pipeline = wl.CliPipeline()
    pipeline.generate(0, tmp_path)
    ops = pipeline.ops(pipeline.setup(0, tmp_path))
    real = ts_features.split_single

    def split_single(*args, **kwargs):
        common, individual, keep = real(*args, **kwargs)
        return common, individual + 1e-3, keep

    monkeypatch.setattr(ts_features, "split_single", split_single)
    _, attempted, failed, outputs = run.run_pass(ops)
    assert (attempted, failed) == (4, 1)
    assert set(outputs) == {"fit.ll1", "fit.cpd", "fit.hosvd"}
    # checked artifacts are removed, so a later pass cannot reuse them
    assert not any(p.is_dir() for p in tmp_path.iterdir())


@pytest.mark.parametrize("stdout, code", [
    ('{"status": "ok"}\n{"status": "ok"}\n', 0),  # two lines
    ("", 0),  # no line
    ("not json\n", 0),
    ('{"status": "ok"}\n', 4),  # exit 4 must say non-converged
    ('{"status": "non-converged"}\n', 0),
    ('{"status": "error", "code": 3}\n', 3),
])
def test_bad_cli_output_is_a_problem(stdout, code):
    assert wl.parse_cli_output(stdout, code)[1]


@pytest.mark.parametrize("stdout, code", [
    ('{"status": "ok", "fit": 0.5}\n', 0),
    ('{"status": "non-converged", "fit": 0.5}\n', 4),
])
def test_good_cli_output_passes(stdout, code):
    assert wl.parse_cli_output(stdout, code)[1] == []


def _ll1(seed=0):
    t = tensplit.DenseTensor(np.random.default_rng(seed).uniform(0, 1, (6, 5, 4)))
    f = tensplit.ll1_nn(t, [1, 1], tensplit.DecompConfig(seed=seed, max_sweeps=5))
    return f, {"fit": f.fit_history[-1]}


def test_ll1_bundle_checks():
    f, payload = _ll1()
    assert wl.check_ll1_bundle(f, payload) == []
    f.terms[0].c[0] = -f.terms[0].c[0] - 1e-3
    assert wl.check_ll1_bundle(f, payload)

    f, payload = _ll1()
    f.terms[1].a[:, 0] *= 2.0
    assert wl.check_ll1_bundle(f, payload)

    f, payload = _ll1()
    f.fit_history.append(f.fit_history[-1] + 0.1)
    assert wl.check_ll1_bundle(f, payload)

    f, payload = _ll1()
    assert wl.check_ll1_bundle(f, {"fit": payload["fit"] + 1e-6})


def test_split_check():
    held = np.random.default_rng(0).uniform(0, 1, (4, 3, 2))
    common = 0.5 * held
    assert wl.check_split(held, common, held - common) == []
    assert wl.check_split(held, common, held - common + 1e-6)
    assert wl.check_split(held, common[:, :, :1], held - common)


def test_tracer_records_nested_spans_and_restores_program():
    real_nnls, real_multi = ts_kernels.nnls, ts_kernels.nnls_multi
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        ts_kernels.nnls_multi(np.eye(3), np.ones((3, 2)))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert ts_kernels.nnls is real_nnls and ts_kernels.nnls_multi is real_multi
    assert tracer.counts["kernels.nnls_multi.calls"] == 1
    assert tracer.counts["kernels.nnls.calls"] == 2
    assert tracer.counts["kernels.nnls_multi.rhs"] == 2
    root = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in root] == ["kernels.nnls_multi"]
    spans, _ = run.span_totals(tracer, 1.0)
    total, children = spans["total"]["kernels.nnls_multi"], spans["total"]["kernels.nnls"]
    assert tracer.self_s["kernels.nnls_multi"] == pytest.approx(total - children)
    assert tracer.top_level_s() == pytest.approx(total)


def test_tracer_reports_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(ts_kernels, "nnls_multi")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["kernels.nnls_multi"]


def test_absent_layer_metrics_are_omitted():
    spec = [{"name": "kernels.nnls_multi.s", "unit": "s"},
            {"name": "kernels.nnls.s", "unit": "s"},
            {"name": "decomp.ll1_nn.s_per_sweep", "unit": "s"},
            {"name": "trace.coverage", "unit": "ratio"}]
    spans = {"total": {"kernels.nnls": 2.0}, "self": {}}
    metrics = run.layer_metrics(spec, spans, {}, ["kernels.nnls_multi"],
                                {"trace.coverage": 0.99})
    assert metrics == {"kernels.nnls.s": {"value": 2.0, "unit": "s"},
                       "decomp.ll1_nn.s_per_sweep": {"value": 0.0, "unit": "s"},
                       "trace.coverage": {"value": 0.99, "unit": "ratio"}}


def test_tracer_counts_convergence_errors():
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        with pytest.raises(ts_kernels.ConvergenceError):
            ts_kernels.nnls(np.eye(2), np.ones(2), max_iter=0)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert tracer.counts["kernels.nnls.errors"] == 1
    assert tracer.counts["kernels.nnls.calls"] == 1
    assert tracer.top_level_s() > 0.0


def test_run_time_is_summed_medians_at_reference_speed():
    times = [[1.0, 4.0], [3.0, 2.0], [2.0, 9.0]]  # passes x operations
    assert run.pass_seconds(times) == 2.0 + 4.0
    # a host running reference() twice as slow halves every wall time
    assert run.host_scale([2 * run.REF_S] * 3) == 0.5
