"""The three benchmark workloads and the checks on their outputs.

Each workload has three phases:

* ``generate(seed, tmp)`` writes the inputs the program sees (PGM or DTF1
  files) into a temporary directory.  It is neither timed nor traced.
* ``setup(seed, tmp)`` is what a user pays before the first result: ingest
  and split plan.  It is timed as ``setup_s`` together with the import.
* ``ops(state)`` lists the operations of one pass.  One operation is one
  ``run_experiment`` cell or one CLI call; it is timed alone, then its
  output is checked outside the timed region.

Program functions are looked up through their modules at call time, so
the tracer's patches apply to calls made here.

Why these workloads (see README.md for the per-layer map):

* fixture-grid: tiny 12x10 slices, so Python-level NNLS and sweep overhead
  dominate; every LL1 run does the full 200 sweeps; two classifiers per
  method recompute the same decompositions.
* orl-pgm: 92x112 PGM images, 40 classes x 10; large slices put the time
  in kNN over 10,304-dimensional vectors, dense LL1 intermediates, test
  image projection and full-tensor copies; one classifier per method.
* cli-pipeline: the only workload reaching cpd_als, hosvd and DTF1 I/O,
  and LL1 at four terms instead of two.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tensplit.classify as ts_classify
import tensplit.cli as ts_cli
import tensplit.core as ts_core
import tensplit.dataset as ts_dataset
import tensplit.decomp as ts_decomp
import tensplit.dtf as ts_dtf

TOL = 1e-9  # unit-norm and reconstruction tolerance on float64 outputs

# fixture-grid: the README face fixture and its grid
GRID_SHAPE = (12, 10)
GRID_SPLIT = (6, 3)  # groups, train groups
GRID_RANKS = [1, 1]
GRID_REALIZATIONS = 2
# Only a fit change of exactly zero is below this, so every LL1 run does the
# full 200 sweeps and a pass does the same work for every seed.
GRID_REL_TOL = 1e-300

# orl-pgm: ORL-shaped synthetic faces written as 8-bit P5 files
ORL_SIZE = (92, 112)  # PGM width, height, as in the ORL headers
ORL_CLASSES, ORL_PER_CLASS = 40, 10
ORL_SPLIT = (10, 5)
ORL_RANKS = [1, 1]
ORL_MAX_SWEEPS = 5
ORL_CELLS = (("raw", "knn"), ("raw", "centroid"), ("ll1", "knn"))

# cli-pipeline: 64x64 fixture stacks, fitted (40) and held out (400)
CLI_SHAPE = (64, 64)
CLI_CLASSES = 4
CLI_FIT_PER_CLASS, CLI_HELD_PER_CLASS = 10, 100
CLI_LL1_SWEEPS = 10


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]  # returns the problems found; empty when ok
    output: Callable[[object], dict] = lambda result: {}


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def check_cell(report, n_test: int, realizations: int) -> list:
    problems = []
    total = int(np.asarray(report.confusion).sum())
    if total != n_test * realizations:
        problems.append(f"confusion total {total} != {n_test} x {realizations}")
    if len(report.per_run) != realizations:
        problems.append(f"{len(report.per_run)} per-run accuracies, expected {realizations}")
    if not 0.0 <= report.mean <= 1.0:
        problems.append(f"mean accuracy {report.mean} outside [0, 1]")
    return problems


def parse_cli_output(stdout: str, code: int) -> tuple[dict | None, list]:
    """Exactly one JSON object line; exit 0 with ok or 4 with non-converged."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None, [f"{len(lines)} stdout lines, expected exactly 1"]
    try:
        payload = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if not isinstance(payload, dict):
        return None, ["stdout JSON is not an object"]
    status = payload.get("status")
    if (code, status) not in ((0, "ok"), (4, "non-converged")):
        return payload, [f"exit code {code} with status {status!r}"]
    return payload, []


def _unit_columns(m: np.ndarray, what: str) -> list:
    norms = np.linalg.norm(np.asarray(m), axis=0)
    if norms.size and np.max(np.abs(norms - 1.0)) > TOL:
        return [f"{what} columns are not unit norm"]
    return []


def _non_increasing(history: list, what: str) -> list:
    h = np.asarray(history, dtype=np.float64)
    if h.size == 0 or not np.all(np.isfinite(h)):
        return [f"{what} fit history empty or non-finite"]
    if np.any(np.diff(h) > TOL):
        return [f"{what} fit increased"]
    return []


def check_ll1_bundle(factors, payload: dict) -> list:
    problems = _non_increasing(factors.fit_history, "ll1")
    for k, term in enumerate(factors.terms):
        if np.any(term.c < 0.0):
            problems.append(f"term {k} mixing has negative entries")
        problems += _unit_columns(term.c[:, None], f"term {k} mixing")
        problems += _unit_columns(term.a, f"term {k} a")
        problems += _unit_columns(term.b, f"term {k} b")
    if not problems and payload.get("fit") != factors.fit_history[-1]:
        problems.append("payload fit differs from the bundle's last fit")
    return problems


def check_cpd_bundle(factors, payload: dict) -> list:
    problems = _non_increasing(factors.diagnostics.fit_history, "cpd")
    for n, f in enumerate(factors.factors):
        problems += _unit_columns(f, f"cpd factor {n}")
    if np.any(factors.weights < 0.0):
        problems.append("cpd weights are negative")
    return problems


def check_hosvd_bundle(factors, payload: dict) -> list:
    problems = []
    fit = payload.get("fit")
    if not isinstance(fit, float) or not 0.0 <= fit <= 1.0:
        problems.append(f"hosvd fit {fit!r} outside [0, 1]")
    for n, f in enumerate(factors.factors):
        if not np.allclose(f.T @ f, np.eye(f.shape[1]), atol=TOL):
            problems.append(f"hosvd factor {n} is not orthonormal")
    return problems


def check_split(held: np.ndarray, common: np.ndarray, individual: np.ndarray) -> list:
    if common.shape != held.shape or individual.shape != held.shape:
        return [f"split shapes {common.shape}/{individual.shape} != input {held.shape}"]
    err = float(np.max(np.abs(common + individual - held)))
    if not err <= TOL * max(1.0, float(np.max(np.abs(held)))):
        return [f"common + individual misses the input by {err:.3g}"]
    return []


# ---------------------------------------------------------------------------
# experiment-cell workloads


def _n_test(plan) -> int:
    return sum(len(plan.members[g]) for g in plan.test_groups)


def _cell_op(state: dict, method: str, clf: str, realizations: int, **cfg) -> Op:
    ds, plan, seed = state["ds"], state["plan"], state["seed"]
    n_test = _n_test(plan)

    def run():
        ecfg = ts_classify.ExperimentConfig(seed=seed, realizations=realizations,
                                            classifier=clf, **cfg)
        return ts_classify.run_experiment(ds, plan, method, ecfg)

    return Op(label=f"{method}.{clf}", run=run,
              check=lambda rep: check_cell(rep, n_test, realizations),
              output=lambda rep: {f"acc.{method}.{clf}": rep.mean})


class FixtureGrid:
    name = "fixture-grid"

    def generate(self, seed: int, tmp: Path) -> None:
        pass  # the face fixture is built by the program during set-up

    def setup(self, seed: int, tmp: Path) -> dict:
        ds = ts_dataset.synthetic_face_fixture(*GRID_SHAPE, seed=seed)
        plan = ts_dataset.make_group_splits(ds, *GRID_SPLIT, seed=seed)
        return {"ds": ds, "plan": plan, "seed": seed}

    def ops(self, state: dict) -> list:
        return [_cell_op(state, m, c, GRID_REALIZATIONS, ranks=GRID_RANKS,
                         rel_tol=GRID_REL_TOL)
                for m in ts_classify.METHODS for c in ts_classify.CLASSIFIERS]


def write_pgm(path: Path, img: np.ndarray) -> None:
    """8-bit P5 file of a width x height slice with values in [0, 1]."""
    width, height = img.shape
    raster = np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    path.write_bytes(header + raster.ravel(order="F").tobytes())


class OrlPgm:
    name = "orl-pgm"

    def generate(self, seed: int, tmp: Path) -> None:
        ds = ts_dataset.synthetic_face_fixture(*ORL_SIZE, seed=seed,
                                               n_classes=ORL_CLASSES,
                                               per_class=ORL_PER_CLASS)
        arr = ds.tensor.values / ds.tensor.values.max()
        for q, lab in enumerate(ds.labels):
            d = tmp / f"s{lab + 1}"
            d.mkdir(exist_ok=True)
            write_pgm(d / f"{q % ORL_PER_CLASS + 1}.pgm", arr[:, :, q])
        (tmp / "labels.json").write_text(json.dumps(ds.labels))

    def setup(self, seed: int, tmp: Path) -> dict:
        labels = json.loads((tmp / "labels.json").read_text())
        paths = [tmp / f"s{lab + 1}" / f"{q % ORL_PER_CLASS + 1}.pgm"
                 for q, lab in enumerate(labels)]
        ds = ts_dataset.load_pgm_ensemble(paths, labels)
        plan = ts_dataset.make_group_splits(ds, *ORL_SPLIT, seed=seed)
        return {"ds": ds, "plan": plan, "seed": seed}

    def ops(self, state: dict) -> list:
        return [_cell_op(state, m, c, 1, ranks=ORL_RANKS, max_sweeps=ORL_MAX_SWEEPS)
                for m, c in ORL_CELLS]


# ---------------------------------------------------------------------------
# CLI workload


def call_cli(argv: list) -> tuple[int, str]:
    """Run ``tensplit.cli.main`` in-process, capturing its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ts_cli.main(argv)
    return code, buf.getvalue()


def _cli_op(label: str, argv: list, check_artifact, consumed=()) -> Op:
    """One CLI call; `consumed` artifacts are removed once checked, so the
    next pass cannot pass its check on a stale file."""
    def check(result):
        code, stdout = result
        payload, problems = parse_cli_output(stdout, code)
        problems = problems or check_artifact(payload)
        for path in consumed:
            shutil.rmtree(path, ignore_errors=True)
        return problems

    def output(result):
        payload, problems = parse_cli_output(result[1], result[0])
        fit = payload.get("fit") if payload and not problems else None
        return {f"fit.{label}": fit} if isinstance(fit, float) else {}

    return Op(label=label, run=lambda: call_cli(argv), check=check, output=output)


class CliPipeline:
    name = "cli-pipeline"

    def generate(self, seed: int, tmp: Path) -> None:
        per_class = CLI_FIT_PER_CLASS + CLI_HELD_PER_CLASS
        ds = ts_dataset.synthetic_face_fixture(*CLI_SHAPE, seed=seed,
                                               n_classes=CLI_CLASSES,
                                               per_class=per_class)
        arr = ds.tensor.values
        fit_idx = [q for q in range(arr.shape[2]) if q % per_class < CLI_FIT_PER_CLASS]
        held_idx = [q for q in range(arr.shape[2]) if q % per_class >= CLI_FIT_PER_CLASS]
        ts_dtf.write_tensor(ts_core.DenseTensor(arr[:, :, fit_idx]), tmp / "fit.dtf1")
        ts_dtf.write_tensor(ts_core.DenseTensor(arr[:, :, held_idx]), tmp / "heldout.dtf1")

    def setup(self, seed: int, tmp: Path) -> dict:
        # the CLI ingests its own inputs inside each call
        return {"seed": seed, "tmp": tmp}

    def ops(self, state: dict) -> list:
        tmp, seed = state["tmp"], str(state["seed"])
        fit, held = str(tmp / "fit.dtf1"), str(tmp / "heldout.dtf1")
        bank = {m: str(tmp / f"bank-{m}") for m in ("ll1", "cpd", "hosvd")}
        split_out = str(tmp / "split")

        def load(method, checker):
            return lambda payload: checker(ts_decomp.load_factors(bank[method]), payload)

        def check_split_files(payload):
            return check_split(ts_dtf.read_tensor(held).values,
                               ts_dtf.read_tensor(Path(split_out) / "common.dtf1").values,
                               ts_dtf.read_tensor(Path(split_out) / "individual.dtf1").values)

        return [
            _cli_op("ll1", ["decompose", fit, "--method", "ll1", "--ranks", "2,2,2,2",
                            "--max-sweeps", str(CLI_LL1_SWEEPS), "--seed", seed,
                            "--out", bank["ll1"]], load("ll1", check_ll1_bundle)),
            _cli_op("cpd", ["decompose", fit, "--method", "cpd", "--ranks", "8",
                            "--seed", seed, "--out", bank["cpd"]],
                    load("cpd", check_cpd_bundle), [bank["cpd"]]),
            _cli_op("hosvd", ["decompose", fit, "--method", "hosvd", "--ranks", "8,8,8",
                              "--out", bank["hosvd"]], load("hosvd", check_hosvd_bundle),
                    [bank["hosvd"]]),
            _cli_op("split", ["split", held, bank["ll1"], "--out", split_out],
                    check_split_files, [split_out, bank["ll1"]]),
        ]


WORKLOADS = {w.name: w for w in (FixtureGrid(), OrlPgm(), CliPipeline())}
