"""Command line front end.

Four subcommands: decompose, split, experiment, synth.  Every run prints
exactly one JSON object line to standard output (including failures) and
sends human-readable logging to standard error.  Exit codes: 0 success,
2 input or output failure (a malformed input file or bundle, or an input
too large for memory), 3 invalid configuration or arguments, 4 a numeric
routine did not converge (artifacts are still written).

The default output directory is ./out, overridable by the TENSPLIT_OUT
environment variable; an explicit --out wins over both.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import dataset as ds_mod
from . import decomp as dc
from . import features as ft
from .classify import (
    ExperimentConfig,
    cell_records,
    check_grid,
    report_csv,
    run_grid,
    summary_json,
)
from .core import norm_frobenius
from .dataset import PgmFormatError
from .dtf import DtfFormatError, read_tensor
from .kernels import ConvergenceError

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

OUT_ENV = "TENSPLIT_OUT"

log = logging.getLogger("tensplit")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _HelpShown(Exception):
    """Raised by --help with the usage text, in place of argparse's exit."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments and prints --help to
    # stdout; remap errors to the configuration exit code, keep stdout JSON
    def error(self, message):
        raise CliError(EXIT_CONFIG, message)

    def print_help(self, file=None):
        raise _HelpShown(self.format_help())


def _out_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(OUT_ENV, "out"))


def _parse_ranks(text: str) -> list:
    try:
        ranks = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise CliError(EXIT_CONFIG, f"invalid ranks {text!r}") from None
    if not ranks:
        raise CliError(EXIT_CONFIG, "ranks must be a nonempty comma-separated list")
    return ranks


def cmd_decompose(args) -> tuple[dict, int]:
    t = read_tensor(args.input)
    ranks = _parse_ranks(args.ranks)
    out = _out_dir(args.out)
    cfg = dc.DecompConfig(max_sweeps=args.max_sweeps, rel_tol=args.tol, seed=args.seed)

    # the library checks the input's order and the ranks, raising ValueError
    if args.method == "cpd":
        if len(ranks) != 1:
            raise CliError(EXIT_CONFIG, "cpd takes a single rank")
        result = dc.cpd_als(t, ranks[0], cfg)
    elif args.method == "hosvd":
        result = dc.hosvd(t, ranks)
    else:
        result = dc.ll1_nn(t, ranks, cfg)

    dc.save_factors(result, out)
    log.info("wrote factor bundle to %s", out)
    if args.method == "hosvd":  # no sweeps
        fit, sweeps, converged, flags = dc.fit_error(t, result), 0, True, []
    else:
        diag = result.diagnostics
        fit = diag.fit_history[-1] if diag.fit_history else None
        sweeps, converged, flags = diag.sweeps, diag.converged, diag.flags
    payload = {"status": "ok" if converged else "non-converged", "method": args.method,
               "fit": fit, "sweeps": sweeps, "flags": flags, "out": str(out)}
    return payload, EXIT_OK if converged else EXIT_NUMERIC


def cmd_split(args) -> tuple[dict, int]:
    t = read_tensor(args.input)
    factors = dc.load_factors(args.bank)
    if not isinstance(factors, dc.LL1Factors):
        raise CliError(EXIT_CONFIG, "bank directory must hold a block-term bundle")
    bank = ft.build_feature_bank(factors)
    rule = ft.SubsetRule(args.tau)
    # estimate_mixing and split_features check the input's order and slices
    weights = ft.estimate_mixing(bank, t.values)
    split = ft.split_features(t, bank, rule, weights=weights)
    out = _out_dir(args.out)
    ft.save_split(split, out, tau=args.tau)
    log.info("wrote feature split to %s", out)
    total = norm_frobenius(t)
    payload = {
        "status": "ok",
        "out": str(out),
        "tau": args.tau,
        "common_ratio": norm_frobenius(split.common) / total if total else 0.0,
        "individual_ratio": norm_frobenius(split.individual) / total if total else 0.0,
    }
    return payload, EXIT_OK


# the CLI's defaults, over ExperimentConfig's, which give the rest
_CONFIG_DEFAULTS = {"methods": ["raw", "ll1"], "classifiers": ["knn"], "realizations": 10,
                    "out": None}

_DATASET_KEYS = {  # the keys `_build_dataset` reads, per dataset kind
    "face-fixture": {"kind", "height", "width", "seed", "n_classes", "per_class"},
    "pgm": {"kind", "paths", "labels"}, "dataset-dir": {"kind", "path"}}


def _config_error(field: str, message: str):
    raise CliError(EXIT_CONFIG, f"config field {field!r}: {message}")


def load_experiment_config(path) -> tuple[dict, ExperimentConfig]:
    """Read an experiment config file and check its schema: a JSON object
    of known keys, whose `dataset` and `split` objects hold known keys for
    a known dataset kind.  Returns the config, defaults filled in, and its
    ExperimentConfig.  The library checks every value, all but the
    dataset's here, before any dataset file is read."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_CONFIG, f"malformed config: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliError(EXIT_CONFIG, "config must be a JSON object")
    settings = vars(ExperimentConfig())
    del settings["classifier"]  # the grid takes a list of classifiers
    cfg = {**settings, **_CONFIG_DEFAULTS}
    for key in raw:
        if key not in cfg and key not in ("dataset", "split"):
            _config_error(key, "unknown field")
    for obj in ("dataset", "split"):
        if not isinstance(raw.get(obj), dict):
            _config_error(obj, "required object")
    kind = raw["dataset"].get("kind")
    if not isinstance(kind, str) or kind not in _DATASET_KEYS:
        _config_error("dataset.kind", f"unknown kind {kind!r}")
    allowed = {"dataset": _DATASET_KEYS[kind], "split": {"groups", "train", "seed"}}
    for obj, keys in allowed.items():
        for key in raw[obj]:
            if key not in keys:
                _config_error(f"{obj}.{key}", "unknown field")

    cfg.update(raw)
    cfg["split"] = {"seed": cfg["seed"], **raw["split"]}
    check_grid(cfg["methods"], cfg["classifiers"])
    ds_mod.check_split(**cfg["split"])  # its keys are the keywords
    return cfg, ExperimentConfig(**{key: cfg[key] for key in settings})


def _build_dataset(entry: dict) -> ds_mod.EnsembleDataset:
    kind = entry["kind"]  # checked, with the keys, by load_experiment_config
    if kind == "face-fixture":  # its keys are the generator's keywords
        return ds_mod.synthetic_face_fixture(**{k: v for k, v in entry.items() if k != "kind"})
    if kind == "pgm":
        if not (isinstance(entry.get("paths"), list) and isinstance(entry.get("labels"), list)):
            _config_error("dataset", "pgm kind needs 'paths' and 'labels' lists")
        return ds_mod.load_pgm_ensemble(entry["paths"], entry["labels"])
    if not isinstance(entry.get("path"), str):  # the dataset-dir kind
        _config_error("dataset", "dataset-dir kind needs a 'path' string")
    return ds_mod.load_dataset(entry["path"])


def cmd_experiment(args) -> tuple[dict, int]:
    cfg, ecfg = load_experiment_config(args.config)
    ds = _build_dataset(cfg["dataset"])
    plan = ds_mod.make_group_splits(ds, **cfg["split"])

    if args.dry_run:
        payload = {
            "status": "dry-run",
            "plan": {
                "train_groups": plan.train_groups,
                "test_groups": plan.test_groups,
                "seed": plan.seed,
                "members": plan.members,
            },
            "methods": cfg["methods"],
            "classifiers": cfg["classifiers"],
            "realizations": cfg["realizations"],
        }
        return payload, EXIT_OK

    out = _out_dir(args.out if args.out else cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    log.info("running methods=%s classifiers=%s", cfg["methods"], cfg["classifiers"])
    grid = run_grid(ds, plan, cfg["methods"], cfg["classifiers"], ecfg)
    for method, row in grid.items():
        for clf, report in row.items():
            (out / f"{method}_{clf}.csv").write_text(report_csv(report))
    (out / "summary.json").write_text(summary_json(grid))
    resolved = {k: v for k, v in cfg.items() if k != "out"}
    (out / "config.json").write_text(json.dumps(resolved, sort_keys=True, indent=2) + "\n")
    log.info("wrote reports to %s", out)
    return {"status": "ok", "out": str(out), "cells": cell_records(grid)}, EXIT_OK


def cmd_synth(args) -> tuple[dict, int]:
    if args.kind == "color-ensemble":
        ds = ds_mod.synthetic_color_ensemble(args.height, args.width, args.seed)
    else:
        ds = ds_mod.synthetic_face_fixture(
            height=args.height, width=args.width, seed=args.seed
        )
    out = _out_dir(args.out)
    ds_mod.save_dataset(ds, out)
    log.info("wrote dataset to %s", out)
    payload = {
        "status": "ok",
        "kind": args.kind,
        "out": str(out),
        "shape": list(ds.tensor.shape),
    }
    return payload, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tensplit",
                     description="dense tensor decompositions and feature splitting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[], help="factor an order-3 tensor")
    p.add_argument("input", help="input .dtf1 file")
    p.add_argument("--method", required=True, choices=["cpd", "hosvd", "ll1"])
    p.add_argument("--ranks", required=True,
                   help="comma-separated: cpd R, hosvd R1,R2,R3, ll1 L1,...,LK")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-sweeps", type=int, default=500)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("split", help="split an ensemble against a feature bank")
    p.add_argument("input", help="input .dtf1 file")
    p.add_argument("bank", help="factor bundle directory from decompose --method ll1")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("experiment", help="run a classification experiment grid")
    p.add_argument("config", help="experiment config JSON file")
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved split plan and exit")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", default="color-ensemble",
                   choices=["color-ensemble", "face-fixture"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    error = None
    try:
        args = parser.parse_args(argv)
        payload, code = args.func(args)
    except _HelpShown as exc:
        sys.stderr.write(str(exc))
        payload, code = {"status": "help"}, EXIT_OK
    except CliError as exc:
        error, code = exc, exc.code
    except (DtfFormatError, PgmFormatError, OSError, MemoryError) as exc:
        error, code = exc, EXIT_IO
    except ConvergenceError as exc:
        error, code = exc, EXIT_NUMERIC
    except (ValueError, KeyError, TypeError) as exc:
        error, code = exc, EXIT_CONFIG
    if error is not None:
        log.error("%s", error)
        payload = {"status": "error", "code": code,
                   "error": str(error) or type(error).__name__}
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
