"""tensplit benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload fixture-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, measured untraced.  With ``--trace 1`` it carries the
per-layer metrics: the run spends half its time on untraced passes and
half on traced ones, and the difference of their median pass times is
the tracing overhead.  A line with the environment stamp and the
workload's outputs precedes the result line.  Spans of a traced run are
written to ``.bench-out/`` in the checkout.

Times are host-scaled.  A shared host runs the same code up to twice as
slow for stretches of seconds to minutes, with CPU time equal to wall
time.  So a fixed calibration kernel, ``reference()``, runs untimed
between the timed intervals, and the median wall time of the intervals is
scaled by ``REF_S`` over the median time of ``reference()`` in the same
phase (set-up or passes).  A reported second is a second on a host where
``reference()`` takes ``REF_S``.  Unscaled wall times are printed on the
line before the result.

BLAS runs single-threaded: ``main`` sets the thread variables before
numpy loads.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 11
MIN_PASSES = 3
REF_S = 0.020  # seconds reference() takes on the host reported times refer to


def log(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr, flush=True)


_STREAM = []  # the 16 MiB array reference() reads, made on first use


def reference() -> float:
    """Wall time of a fixed calibration kernel: interpreter bytecode, small
    matrix products, dot products over 1 MiB and four reads of 16 MiB, the
    mix of work the program does.  It calls no program code, so a change
    to the program cannot change it."""
    import numpy as np

    if not _STREAM:
        _STREAM.append(np.ones(1 << 21))
    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i % 7
    a = np.full((16, 16), 1.0 / 16)  # a fixed point of a @ a
    for _ in range(1200):
        a = a @ a
    x = np.linspace(0.0, 1.0, 1 << 17)
    for _ in range(60):
        total += float(np.dot(x, x))
    for _ in range(4):
        total += float(_STREAM[0].sum())
    return time.perf_counter() - start


def host_scale(refs: list) -> float:
    """Factor from wall seconds to seconds at the reference host speed."""
    return REF_S / statistics.median(refs)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing tensplit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tensplit"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_pass(ops, tracer=None, refs=None):
    """Run one pass; return (wall seconds of each operation, attempted,
    failed, outputs).  When `refs` is a list, reference() runs after each
    operation, untimed, and its times are appended to it.

    An operation fails when it raises or when its output check fails."""
    seconds, failed, outputs = [], 0, {}
    for op in ops:
        start = time.perf_counter()
        if tracer is not None:
            tracer.enabled = True
        try:
            result = op.run()
            problems = None
        except Exception:  # a failed operation is counted, not fatal
            problems = [f"raised:\n{traceback.format_exc()}"]
        finally:
            if tracer is not None:
                tracer.enabled = False
            seconds.append(time.perf_counter() - start)
        if problems is None:
            try:
                problems = op.check(result)
            except Exception:  # an unreadable output fails its check
                problems = [f"check raised:\n{traceback.format_exc()}"]
        if problems:
            failed += 1
            log(f"{op.label} failed: {'; '.join(problems)}")
        else:
            outputs.update(op.output(result))
        if refs is not None:
            refs.append(reference())
    return seconds, len(ops), failed, outputs


def pass_seconds(times: list) -> float:
    """Sum over operations of each one's median time across the passes."""
    return sum(statistics.median(op_times) for op_times in zip(*times))


def measure(ops, seconds: float, tracer=None):
    """Repeat passes until another would overrun `seconds` (at least
    MIN_PASSES); return the per-operation wall times of each pass, the
    reference() times taken between operations, attempted, failed and
    outputs."""
    times, refs, attempted, failed, outputs = [], [reference()], 0, 0, {}
    start = time.perf_counter()
    while True:
        t, a, f, out = run_pass(ops, tracer, refs)
        times.append(t)
        attempted += a
        failed += f
        outputs = outputs or out
        elapsed = time.perf_counter() - start
        if len(times) >= MIN_PASSES and elapsed + elapsed / len(times) > seconds:
            return times, refs, attempted, failed, outputs


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def layer_value(name: str, spans: dict, counts: dict) -> float:
    """Value of a per-layer metric named <module>.<function>[...].<stat>."""
    layer, _, stat = name.rpartition(".")
    if stat == "s":
        return spans["total"].get(layer, 0.0)
    if stat == "self_s":
        return spans["self"].get(layer, 0.0)
    if stat == "s_per_sweep":
        sweeps = counts.get(f"{layer}.sweeps", 0.0)
        return spans["total"].get(layer, 0.0) / sweeps if sweeps else 0.0
    if stat == "converged_ratio":
        calls = counts.get(f"{layer}.calls", 0.0)
        return counts.get(f"{layer}.converged", 0.0) / calls if calls else 0.0
    return counts.get(name, 0.0)


def layer_metrics(spec: list, spans: dict, counts: dict, absent: list,
                  measured: dict) -> dict:
    """Per-layer metrics of `spec`, leaving out those of absent layers."""
    metrics = {}
    for m in spec:
        name = m["name"]
        if any(name.startswith(layer + ".") for layer in absent):
            continue
        value = measured[name] if name in measured else layer_value(name, spans, counts)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def span_totals(tracer, scale: float) -> tuple[dict, dict]:
    total: dict = {}
    for name, start, end, _ in tracer.spans:
        total[name] = total.get(name, 0.0) + (end - start) * scale
    spans = {"total": total, "self": {k: v * scale for k, v in tracer.self_s.items()}}
    counts = {k: v * scale for k, v in tracer.counts.items()}
    return spans, counts


def merge(a: dict, b: dict) -> dict:
    return {k: a.get(k, 0.0) + b.get(k, 0.0) for k in set(a) | set(b)}


def traced_metrics(spec: list, workload, seed: int, tmp: Path, seconds: float,
                   out_dir: Path) -> tuple[dict, int, int, dict]:
    from tracer import Tracer

    setup_tracer, body_tracer = Tracer(), Tracer()
    setup_tracer.install()
    setup_tracer.enabled = True
    try:
        state = workload.setup(seed, tmp)
    finally:
        setup_tracer.enabled = False
        setup_tracer.uninstall()

    ops = workload.ops(state)
    plain, plain_refs, a0, f0, outputs = measure(ops, seconds / 2)
    body_tracer.install()
    try:
        traced, traced_refs, a1, f1, _ = measure(ops, seconds / 2, body_tracer)
    finally:
        body_tracer.uninstall()

    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    setup_tracer.write(out_dir / f"trace-{stem}-setup.jsonl")
    body_tracer.write(out_dir / f"trace-{stem}-passes.jsonl")

    s_spans, s_counts = span_totals(setup_tracer, 1.0)
    b_spans, b_counts = span_totals(body_tracer, 1.0 / len(traced))
    spans = {k: merge(s_spans[k], b_spans[k]) for k in ("total", "self")}
    counts = merge(s_counts, b_counts)
    for layer in body_tracer.absent:
        log(f"layer {layer} is absent from the program; its metrics are omitted")
    measured = {
        "trace.overhead_s": (pass_seconds(traced) * host_scale(traced_refs)
                             - pass_seconds(plain) * host_scale(plain_refs)),
        "trace.coverage": body_tracer.top_level_s() / sum(map(sum, traced)),
    }
    metrics = layer_metrics(spec, spans, counts, body_tracer.absent, measured)
    return metrics, a0 + a1, f0 + f1, outputs


def untraced_metrics(spec: list, workload, seed: int, tmp: Path,
                     seconds: float) -> tuple[dict, int, int, dict]:
    setups, setup_refs, state = [], [reference()], None
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        start = time.perf_counter()
        state = workload.setup(seed, tmp)
        setups.append(imp + time.perf_counter() - start)
        setup_refs.append(reference())

    times, refs, attempted, failed, outputs = measure(workload.ops(state), seconds)
    values = {
        "setup_s": statistics.median(setups) * host_scale(setup_refs),
        "run_s": pass_seconds(times) * host_scale(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    outputs.update({"wall.setup_s": statistics.median(setups),
                    "wall.run_s": pass_seconds(times),
                    "wall.reference_s": statistics.median(refs)})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return metrics, attempted, failed, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in BLAS_VARS:  # before anything loads numpy
        os.environ[var] = BLAS_THREADS
    if not (SRC / "tensplit" / "__init__.py").is_file():
        log(f"no tensplit sources under {SRC}; run from the root of a checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        tmp = Path(tmp)
        workload.generate(args.seed, tmp)
        if args.trace:
            metrics, attempted, failed, outputs = traced_metrics(
                spec["per_layer"], workload, args.seed, tmp, args.seconds,
                ROOT / ".bench-out")
        else:
            metrics, attempted, failed, outputs = untraced_metrics(
                spec["end_to_end"], workload, args.seed, tmp, args.seconds)

    print(json.dumps({"workload": workload.name, "env": environment(args.seed),
                      "outputs": outputs}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
