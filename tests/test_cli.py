import argparse
import contextlib
import io
import json
import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_bytes
import tensplit.features as features_mod
from tensplit import cli
from tensplit.cli import OUT_ENV, build_parser, main
from tensplit.core import DenseTensor
from tensplit.dataset import (
    load_dataset,
    make_group_splits,
    save_dataset,
    synthetic_face_fixture,
)
from tensplit.decomp import DecompConfig, LL1Factors, cpd_als, ll1_nn, load_factors, save_factors
from tensplit.dtf import DtfFormatError, read_tensor, write_tensor
from tensplit.kernels import ConvergenceError


def run_cli(capsys, argv):
    """Invoke the CLI in-process and enforce the one-JSON-line contract."""
    code = main(argv)
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 1, f"expected exactly one stdout line, got {lines!r}"
    return code, json.loads(lines[0])


def rank1_tensor_file(path, shape=(4, 3, 5), seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.2, 1.0, shape[0])
    b = rng.uniform(0.2, 1.0, shape[1])
    c = rng.uniform(0.2, 1.0, shape[2])
    t = DenseTensor(a[:, None, None] * b[None, :, None] * c[None, None, :])
    write_tensor(t, path)
    return t


def identical_slice_file(path, q=5, seed=0):
    rng = np.random.default_rng(seed)
    base = np.outer(rng.uniform(0.2, 1, 8), rng.uniform(0.2, 1, 6)) + np.outer(
        rng.uniform(0.2, 1, 8), rng.uniform(0.2, 1, 6)
    )
    t = DenseTensor(np.repeat(base[:, :, None], q, axis=2))
    write_tensor(t, path)
    return t


def _drop(manifest, key):
    return {k: v for k, v in manifest.items() if k != key}


def _spoil_weight(w):
    """Damage setting the first `lambda` weight of a block-term manifest to w
    (JSON has NaN and Infinity)."""
    return lambda m: json.dumps(
        {**m, "lambda": [[w, *m["lambda"][0][1:]], *m["lambda"][1:]]}).encode()


# Damage to a bundle's manifest.json: each maps the manifest a bundle was
# written with to the bytes that replace it.
_ANY_DAMAGE = {
    "not-json": lambda m: b"{oops",
    "json-list": lambda m: b"[1, 2]",
    "not-utf8": lambda m: b"\xff\xfe" + json.dumps(m).encode(),
}
_BANK_DAMAGE = {
    **_ANY_DAMAGE,
    "short-lambda": lambda m: json.dumps({**m, "lambda": m["lambda"][:-1]}).encode(),
    "no-type": lambda m: json.dumps(_drop(m, "type")).encode(),
    "K-string": lambda m: json.dumps({**m, "K": str(m["K"])}).encode(),
    "lambda-nan": _spoil_weight(float("nan")),
    "lambda-inf": _spoil_weight(float("inf")),
    "lambda-negative": _spoil_weight(-5.0),
}
# Damage to one tensor file of a two-term block-term bundle: each names the
# file and maps the array written there to the array that replaces it.
_TERM_DAMAGE = {
    "a-rows": ("term01_a", lambda m: np.ones((m.shape[0] - 1, m.shape[1]))),
    "a-order-3": ("term00_a", lambda m: m[:, :, None]),
    "c-negative": ("term01_c", lambda m: np.concatenate([-m[:1], m[1:]])),
    "c-length": ("term01_c", lambda m: m[:-1]),
}
_DATASET_DAMAGE = {
    **_ANY_DAMAGE,
    "short-labels": lambda m: json.dumps({**m, "labels": m["labels"][:-1]}).encode(),
    "no-labels": lambda m: json.dumps(_drop(m, "labels")).encode(),
    "labels-int": lambda m: json.dumps({**m, "labels": 3}).encode(),
    "shape": lambda m: json.dumps({**m, "shape": m["shape"][:2] + [1]}).encode(),
}


def damage_manifest(bundle, damage) -> None:
    path = bundle / "manifest.json"
    path.write_bytes(damage(json.loads(path.read_text())))


def experiment_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "face-fixture", "height": 8, "width": 6,
                    "n_classes": 2, "per_class": 4, "seed": 1},
        "split": {"groups": 4, "train": 2},
        "methods": ["raw"],
        "classifiers": ["knn"],
        "realizations": 2,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSynth:
    def test_writes_loadable_dataset(self, capsys, tmp_path):
        out = tmp_path / "ds"
        code, payload = run_cli(capsys, [
            "synth", "--kind", "color-ensemble", "--height", "6",
            "--width", "7", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["shape"] == [6, 7, 5]
        assert (out / "tensor.dtf1").exists()
        assert (out / "manifest.json").exists()

    def test_deterministic_bytes(self, capsys, tmp_path):
        args = ["synth", "--kind", "face-fixture", "--height", "8",
                "--width", "6", "--seed", "2"]
        run_cli(capsys, args + ["--out", str(tmp_path / "a")])
        run_cli(capsys, args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "tensor.dtf1").read_bytes()
        b = (tmp_path / "b" / "tensor.dtf1").read_bytes()
        assert a == b

    def test_unknown_kind(self, capsys, tmp_path):
        code, payload = run_cli(capsys, [
            "synth", "--kind", "bogus", "--out", str(tmp_path / "x")])
        assert code == 3
        assert payload["status"] == "error"
        assert "bogus" in payload["error"]


class TestDecompose:
    def test_cpd_on_rank1_input(self, capsys, tmp_path):
        tfile = tmp_path / "t.dtf1"
        rank1_tensor_file(tfile)
        out = tmp_path / "factors"
        code, payload = run_cli(capsys, [
            "decompose", str(tfile), "--method", "cpd", "--ranks", "1",
            "--out", str(out),
        ])
        assert code == 0
        assert payload["status"] == "ok"
        assert payload["fit"] < 1e-8
        assert payload["sweeps"] >= 1
        assert (out / "manifest.json").exists()

    def test_hosvd_reports_zero_sweeps(self, capsys, tmp_path):
        tfile = tmp_path / "t.dtf1"
        rank1_tensor_file(tfile)
        code, payload = run_cli(capsys, [
            "decompose", str(tfile), "--method", "hosvd", "--ranks", "4,3,5",
            "--out", str(tmp_path / "f"),
        ])
        assert code == 0
        assert payload["sweeps"] == 0
        assert payload["fit"] < 1e-10

    def test_ll1_bundle_loads_back(self, capsys, tmp_path):
        tfile = tmp_path / "t.dtf1"
        identical_slice_file(tfile)
        out = tmp_path / "bank"
        code, payload = run_cli(capsys, [
            "decompose", str(tfile), "--method", "ll1", "--ranks", "2",
            "--out", str(out),
        ])
        assert code == 0
        loaded = load_factors(out)
        assert isinstance(loaded, LL1Factors)
        assert loaded.terms[0].block_rank == 2

    def test_non_convergence_exits_4_but_writes(self, capsys, tmp_path):
        tfile = tmp_path / "t.dtf1"
        rng = np.random.default_rng(7)
        write_tensor(DenseTensor(rng.uniform(0.1, 1, (6, 5, 4))), tfile)
        out = tmp_path / "f"
        code, payload = run_cli(capsys, [
            "decompose", str(tfile), "--method", "cpd", "--ranks", "2",
            "--max-sweeps", "2", "--tol", "1e-14", "--out", str(out),
        ])
        assert code == 4
        assert payload["status"] == "non-converged"
        assert (out / "manifest.json").exists()

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, payload = run_cli(capsys, [
            "decompose", str(tmp_path / "absent.dtf1"), "--method", "cpd",
            "--ranks", "1", "--out", str(tmp_path / "f"),
        ])
        assert code == 2
        assert payload["status"] == "error"

    def test_corrupt_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dtf1"
        bad.write_bytes(b"DTF1\x03\x00\x00\x00 truncated")
        code, payload = run_cli(capsys, [
            "decompose", str(bad), "--method", "cpd", "--ranks", "1",
            "--out", str(tmp_path / "f"),
        ])
        assert code == 2

    def test_non_finite_input_exits_2(self, capsys, tmp_path):
        tfile = tmp_path / "nan.dtf1"
        values = np.ones((4, 3, 5))
        values[1, 2, 3] = np.nan
        write_tensor(DenseTensor(values), tfile)
        for method, ranks in [("ll1", "1"), ("cpd", "1"), ("hosvd", "1,1,1")]:
            code, payload = run_cli(capsys, [
                "decompose", str(tfile), "--method", method, "--ranks", ranks,
                "--out", str(tmp_path / "f"),
            ])
            assert code == 2
            assert payload["status"] == "error"
            assert str(tfile) in payload["error"]
            assert "non-finite" in payload["error"]

    @pytest.mark.parametrize(
        "ranks,method",
        [("0", "cpd"), ("1,2", "cpd"), ("1,2", "hosvd"), ("0,1,1", "hosvd"),
         ("x", "ll1"), ("", "ll1"), ("0,1", "ll1")],
    )
    def test_bad_ranks_exit_3(self, capsys, tmp_path, ranks, method):
        tfile = tmp_path / "t.dtf1"
        rank1_tensor_file(tfile)
        code, payload = run_cli(capsys, [
            "decompose", str(tfile), "--method", method, "--ranks", ranks,
            "--out", str(tmp_path / "f"),
        ])
        assert code == 3
        assert payload["status"] == "error"
        assert not (tmp_path / "f").exists()

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 5, 2)])
    @pytest.mark.parametrize("method,ranks", [("cpd", "1"), ("hosvd", "1,1,1"), ("ll1", "1")])
    def test_wrong_order_input_exits_3(self, capsys, tmp_path, shape, method, ranks):
        tfile = tmp_path / "m.dtf1"
        write_tensor(DenseTensor(np.ones(shape)), tfile)
        code, payload = run_cli(capsys, [
            "decompose", str(tfile), "--method", method, "--ranks", ranks,
            "--out", str(tmp_path / "f"),
        ])
        assert code == 3
        assert "order" in payload["error"]
        assert not (tmp_path / "f").exists()


class TestSplit:
    def fit_bank(self, capsys, tmp_path, ranks="2"):
        tfile = tmp_path / "t.dtf1"
        identical_slice_file(tfile)
        bank = tmp_path / "bank"
        code, _ = run_cli(capsys, [
            "decompose", str(tfile), "--method", "ll1", "--ranks", ranks,
            "--out", str(bank),
        ])
        assert code == 0
        return tfile, bank

    def test_identical_slices_are_all_common(self, capsys, tmp_path):
        tfile, bank = self.fit_bank(capsys, tmp_path)
        code, payload = run_cli(capsys, [
            "split", str(tfile), str(bank), "--out", str(tmp_path / "s")])
        assert code == 0
        assert payload["individual_ratio"] < 1e-6
        assert payload["common_ratio"] > 1 - 1e-6
        assert (tmp_path / "s" / "common.dtf1").exists()
        assert (tmp_path / "s" / "individual.dtf1").exists()

    def test_tau_above_one_moves_everything_individual(self, capsys, tmp_path):
        tfile, bank = self.fit_bank(capsys, tmp_path)
        code, payload = run_cli(capsys, [
            "split", str(tfile), str(bank), "--tau", "1.1",
            "--out", str(tmp_path / "s")])
        assert code == 0
        assert payload["common_ratio"] == 0.0
        assert abs(payload["individual_ratio"] - 1.0) < 1e-12

    def test_individual_ratio_grows_with_tau(self, capsys, tmp_path):
        tfile, bank = self.fit_bank(capsys, tmp_path)
        ratios = []
        for i, tau in enumerate(("0", "0.5", "1.1")):
            _, payload = run_cli(capsys, [
                "split", str(tfile), str(bank), "--tau", tau,
                "--out", str(tmp_path / f"s{i}")])
            ratios.append(payload["individual_ratio"])
        assert ratios[0] <= ratios[1] <= ratios[2]

    def test_estimates_mixing_for_foreign_stack(self, capsys, tmp_path):
        tfile, bank = self.fit_bank(capsys, tmp_path)
        # narrower stack than the bank was fitted on: mixing is re-estimated
        from tensplit.dtf import read_tensor

        arr = read_tensor(tfile).to_array()[:, :, :2]
        sub = tmp_path / "sub.dtf1"
        write_tensor(DenseTensor(arr), sub)
        code, payload = run_cli(capsys, [
            "split", str(sub), str(bank), "--out", str(tmp_path / "s")])
        assert code == 0
        assert payload["individual_ratio"] < 1e-6

    def test_estimates_mixing_for_same_size_stack(self, capsys, tmp_path):
        tfile, bank = self.fit_bank(capsys, tmp_path)
        # as many images as the fitted stack, but weighted differently: the
        # bank's fitted mixing would leave most of each image individual
        arr = read_tensor(tfile).to_array() * np.arange(1.0, 6.0)
        scaled = tmp_path / "scaled.dtf1"
        write_tensor(DenseTensor(arr), scaled)
        code, payload = run_cli(capsys, [
            "split", str(scaled), str(bank), "--out", str(tmp_path / "s")])
        assert code == 0
        assert payload["individual_ratio"] < 1e-6

    def test_rejects_non_ll1_bundle(self, capsys, tmp_path):
        tfile = tmp_path / "t.dtf1"
        rank1_tensor_file(tfile)
        fdir = tmp_path / "cpdf"
        run_cli(capsys, ["decompose", str(tfile), "--method", "cpd",
                         "--ranks", "1", "--out", str(fdir)])
        code, payload = run_cli(capsys, [
            "split", str(tfile), str(fdir), "--out", str(tmp_path / "s")])
        assert code == 3
        assert "block-term" in payload["error"]

    @pytest.mark.parametrize("damage", sorted(_BANK_DAMAGE))
    def test_malformed_bank_manifest_exits_2(self, capsys, tmp_path, damage):
        tfile, bank = self.fit_bank(capsys, tmp_path)
        damage_manifest(bank, _BANK_DAMAGE[damage])
        code, payload = run_cli(capsys, [
            "split", str(tfile), str(bank), "--out", str(tmp_path / "s")])
        assert code == 2
        assert str(bank) in payload["error"]

    @pytest.mark.parametrize("damage", sorted(_TERM_DAMAGE))
    def test_malformed_bank_term_exits_2(self, capsys, tmp_path, damage):
        tfile, bank = self.fit_bank(capsys, tmp_path, ranks="1,1")
        name, spoil = _TERM_DAMAGE[damage]
        path = bank / f"{name}.dtf1"
        write_tensor(DenseTensor(spoil(read_tensor(path).to_array())), path)
        code, payload = run_cli(capsys, [
            "split", str(tfile), str(bank), "--out", str(tmp_path / "s")])
        assert code == 2
        assert str(bank) in payload["error"]

    # the bank's slices are 8 x 6: slices of another shape, one slice alone
    # and a stack of stacks
    @pytest.mark.parametrize("shape", [(3, 3, 2), (8, 6), (8, 6, 5, 2)])
    def test_rejects_mismatched_slice_shape(self, capsys, tmp_path, shape):
        _, bank = self.fit_bank(capsys, tmp_path)
        other = tmp_path / "o.dtf1"
        write_tensor(DenseTensor(np.ones(shape)), other)
        code, payload = run_cli(capsys, [
            "split", str(other), str(bank), "--out", str(tmp_path / "s")])
        assert code == 3
        assert not (tmp_path / "s").exists()


class TestExperiment:
    def test_dry_run_prints_plan(self, capsys, tmp_path):
        cfg = experiment_config(tmp_path)
        code, payload = run_cli(capsys, ["experiment", str(cfg), "--dry-run"])
        assert code == 0
        assert payload["status"] == "dry-run"
        plan = payload["plan"]
        assert sorted(plan["train_groups"] + plan["test_groups"]) == [0, 1, 2, 3]
        assert len(plan["members"]) == 4

    def test_dry_run_validates_the_config_like_a_run(self, capsys, tmp_path):
        cfg = experiment_config(tmp_path, realizations=0, k=0, max_sweeps=0)
        out = tmp_path / "results"
        dry = run_cli(capsys, ["experiment", str(cfg), "--dry-run"])
        assert dry[0] == 3
        assert dry == run_cli(capsys, ["experiment", str(cfg), "--out", str(out)])
        assert dry[1]["error"] == "realizations must be >= 1"
        assert not out.exists()

    def test_grid_artifacts(self, capsys, tmp_path):
        cfg = experiment_config(tmp_path, methods=["raw", "ll1"],
                                ranks=[1, 1], max_sweeps=60)
        out = tmp_path / "results"
        code, payload = run_cli(capsys, ["experiment", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "raw_knn.csv").exists()
        assert (out / "ll1_knn.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"raw", "ll1"}
        assert summary["raw"]["knn"]["realizations"] == 2
        assert payload["cells"] == summary
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["methods"] == ["raw", "ll1"]
        assert "out" not in resolved

    def test_rerun_is_idempotent(self, capsys, tmp_path):
        cfg = experiment_config(tmp_path)
        out = tmp_path / "results"
        run_cli(capsys, ["experiment", str(cfg), "--out", str(out)])
        first = (out / "summary.json").read_bytes()
        run_cli(capsys, ["experiment", str(cfg), "--out", str(out)])
        assert (out / "summary.json").read_bytes() == first

    def test_decomposition_failure_exits_4(self, capsys, tmp_path, monkeypatch):
        def stall(ts, ranks, cfgs):
            raise ConvergenceError("stalled", index=3)

        monkeypatch.setattr(features_mod, "_ll1_stack", stall)
        cfg = experiment_config(tmp_path, methods=["ll1"])
        code, payload = run_cli(capsys, ["experiment", str(cfg), "--out",
                                         str(tmp_path / "results")])
        assert code == 4
        # realizations 0 and 1 stack 2 training groups each: index 3 is the
        # second group of realization 1, whose split seed is 0 + 1
        ds = synthetic_face_fixture(height=8, width=6, n_classes=2, per_class=4, seed=1)
        group = make_group_splits(ds, 4, 2, seed=1).train_groups[1]
        assert payload["error"] == (f"decomposition failed on group {group} "
                                    "of realization 1: stalled")

    def test_malformed_json_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{oops")
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 3
        assert "malformed config" in payload["error"]

    @pytest.mark.parametrize("field, overrides", [
        ("classifers", {"classifers": ["knn"]}),
        ("n_restarts", {"n_restarts": 1}),
        ("dataset.heigth", {"dataset": {"kind": "face-fixture", "heigth": 40}}),
        ("dataset.n_clases", {"dataset": {"kind": "face-fixture", "n_clases": 9}}),
        ("dataset.path", {"dataset": {"kind": "face-fixture", "path": "data"}}),
        ("split.sed", {"split": {"groups": 4, "train": 2, "sed": 4}}),
    ])
    def test_unknown_field_exits_3(self, capsys, tmp_path, field, overrides):
        cfg = experiment_config(tmp_path, **overrides)  # a typo or a stray key on purpose
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 3
        assert "unknown field" in payload["error"]
        assert payload["error"] == f"config field {field!r}: unknown field"

    @pytest.mark.parametrize("field, overrides", [
        ("split.train", {"split": {"groups": 6, "train": True, "seed": False}}),
        ("split.groups", {"split": {"groups": True, "train": 1}}),
        ("split.seed", {"split": {"groups": 4, "train": 2, "seed": False}}),
        ("ranks", {"ranks": [True]}),
    ])
    def test_boolean_integers_exit_3(self, capsys, tmp_path, field, overrides):
        # JSON true and false are no integers, although isinstance(True, int)
        cfg = experiment_config(tmp_path, **overrides)
        out = tmp_path / "results"
        code, payload = run_cli(capsys, ["experiment", str(cfg), "--out", str(out)])
        assert code == 3
        assert payload["error"].startswith(f"config field {field!r}")
        assert not out.exists()

    @pytest.mark.parametrize("methods", [["raw"], ["ll1"]])
    @pytest.mark.parametrize("overrides", [{"max_sweeps": 0}, {"rel_tol": -1},
                                           {"max_sweeps": 0, "rel_tol": -1}])
    def test_out_of_range_fit_settings_exit_3_before_writing(self, capsys, tmp_path,
                                                             methods, overrides):
        cfg = experiment_config(tmp_path, methods=methods, **overrides)
        out = tmp_path / "results"
        code, payload = run_cli(capsys, ["experiment", str(cfg), "--out", str(out)])
        assert code == 3
        assert ("max_sweeps" if "max_sweeps" in overrides else "rel_tol") in payload["error"]
        assert not out.exists()

    def test_missing_dataset_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"split": {"groups": 4, "train": 2}}))
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 3
        assert "dataset" in payload["error"]

    def test_infeasible_split_exits_3(self, capsys, tmp_path):
        cfg = experiment_config(tmp_path, split={"groups": 10, "train": 2})
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 3

    def test_corrupt_pgm_dataset_exits_2(self, capsys, tmp_path):
        paths = []
        for i in range(4):
            pgm = tmp_path / f"{i}.pgm"
            pgm.write_bytes(b"P5\n3 2\n255\n" + bytes(6 if i else 4))  # one cut raster
            paths.append(str(pgm))
        cfg = experiment_config(tmp_path, dataset={
            "kind": "pgm", "paths": paths, "labels": [0, 0, 1, 1]})
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("damage", ["tensor"] + sorted(_DATASET_DAMAGE))
    def test_corrupt_dataset_dir_exits_2(self, capsys, tmp_path, damage):
        data = tmp_path / "data"
        code, _ = run_cli(capsys, ["synth", "--kind", "face-fixture", "--height", "4",
                                   "--width", "4", "--out", str(data)])
        assert code == 0
        if damage == "tensor":
            raw = (data / "tensor.dtf1").read_bytes()
            (data / "tensor.dtf1").write_bytes(b"XTF1" + raw[4:])
        else:
            damage_manifest(data, _DATASET_DAMAGE[damage])
        cfg = experiment_config(tmp_path, dataset={"kind": "dataset-dir",
                                                   "path": str(data)})
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 2
        assert str(data) in payload["error"]

    def test_color_ensemble_kind_exits_3(self, capsys, tmp_path):
        cfg = experiment_config(tmp_path, dataset={"kind": "color-ensemble",
                                                   "height": 8, "width": 8})
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 3
        assert "unknown kind" in payload["error"]

    def test_memory_error_exits_2(self, capsys, tmp_path, monkeypatch):
        def too_large(**kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli.ds_mod, "synthetic_face_fixture", too_large)
        code, payload = run_cli(capsys, ["experiment", str(experiment_config(tmp_path))])
        assert code == 2
        assert payload["status"] == "error"
        assert payload["error"] == "MemoryError"

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, payload = run_cli(capsys, ["experiment", str(tmp_path / "no.json")])
        assert code == 2


class TestArgumentErrors:
    def test_invalid_choice(self, capsys, tmp_path):
        tfile = tmp_path / "t.dtf1"
        rank1_tensor_file(tfile)
        code, payload = run_cli(capsys, [
            "decompose", str(tfile), "--method", "nmf", "--ranks", "1"])
        assert code == 3
        assert payload["status"] == "error"

    def test_unknown_subcommand(self, capsys):
        code, payload = run_cli(capsys, ["transmogrify"])
        assert code == 3

    def test_no_arguments(self, capsys):
        code, payload = run_cli(capsys, [])
        assert code == 3


class TestOutputDirectory:
    def test_env_var_used_when_no_flag(self, capsys, tmp_path, monkeypatch):
        envdir = tmp_path / "from-env"
        monkeypatch.setenv(OUT_ENV, str(envdir))
        code, payload = run_cli(capsys, [
            "synth", "--kind", "color-ensemble", "--height", "4", "--width", "4"])
        assert code == 0
        assert payload["out"] == str(envdir)
        assert (envdir / "tensor.dtf1").exists()

    def test_flag_wins_over_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV, str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        code, payload = run_cli(capsys, [
            "synth", "--kind", "color-ensemble", "--height", "4",
            "--width", "4", "--out", str(explicit)])
        assert code == 0
        assert payload["out"] == str(explicit)
        assert not (tmp_path / "ignored").exists()



def _subcommands():
    """Each subcommand's parser, from the CLI's own parser."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _dtf1(shape, values) -> bytes:
    return (b"DTF1" + struct.pack("<I", len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)
            + np.asarray(values, dtype="<f8").tobytes(order="F"))


# Sampled lists start with their usual values, which a failure shrinks
# toward; repeated entries weight a draw toward them.
_DTF_SEEDS = [_dtf1((2, 3, 2), np.arange(1.0, 13.0)), _dtf1((3, 2, 2), np.zeros(12)),
              _dtf1((1, 2, 2), [0.5, 1e300, 1e-300, 7.0])]
_DTF_TOKENS = [struct.pack("<Q", 0), struct.pack("<Q", 2**61), struct.pack("<I", 2),
               struct.pack("<I", 4), struct.pack("<d", -1.0), b"DTF1"]
_EXTENT = st.sampled_from([2, 3, 1, 4])
_FLOATS = st.sampled_from(["1e-8", "0.5", "0", "1.1", "-1", "nan", "inf"])
# one field set to a value the config rejects, or a split no class can fill
_SPOILERS = [("methods", ["pca"]), ("classifiers", ["svm"]), ("ranks", [0]), ("k", 0),
             ("tau", -1.0), ("realizations", 0), ("max_sweeps", 0), ("n_restarts", 0),
             ("split", {"groups": 1, "train": 1}), ("split", {"groups": 9, "train": 2}),
             ("split", {"groups": 4, "train": 2, "sed": 1})]


@st.composite
def _tensor_file(draw, root):
    """A tiny DTF1 file, mutated DTF1 bytes or a missing path."""
    kind = draw(st.sampled_from(["tensor", "mutated", "missing"]))
    path = root / f"{kind}{len(list(root.iterdir()))}.dtf1"
    if kind == "tensor":
        order = draw(st.sampled_from([3, 3, 3, 2, 4]))
        shape = tuple(draw(_EXTENT) for _ in range(order))
        rng = np.random.default_rng(draw(st.integers(0, 3)))
        values = draw(st.sampled_from([
            lambda: rng.uniform(0.0, 1.0, shape), lambda: rng.standard_normal(shape),
            lambda: np.zeros(shape)]))()
        path.write_bytes(_dtf1(shape, values.ravel(order="F")))
    elif kind == "mutated":
        path.write_bytes(draw(mutated_bytes(_DTF_SEEDS, _DTF_TOKENS)))
    return str(path)


_JSON_TOKENS = [b'"', b"[", b"]", b"{", b"}", b",", b"null", b"NaN", b"-1", b"1e999"]


@st.composite
def _damaged_manifest(draw, bundle, damages):
    """Replace a bundle's manifest.json by mutated bytes of it, or by one of
    `damages` applied to it."""
    path = bundle / "manifest.json"
    if draw(st.booleans()):
        path.write_bytes(draw(mutated_bytes([path.read_bytes()], _JSON_TOKENS)))
    else:
        damage_manifest(bundle, damages[draw(st.sampled_from(sorted(damages)))])


@st.composite
def _bank_dir(draw, root):
    """A block-term bundle, one with a damaged manifest, a bundle of another
    kind, a file or a missing path.  A bundle's slices take the shape of an
    order-3 input drawn before it, if there is one, so that some splits can
    succeed."""
    kind = draw(st.sampled_from(["ll1", "damaged", "cpd", "file", "missing"]))
    path = root / "bank"
    if kind == "file":
        return draw(_tensor_file(root))
    if kind != "missing":
        rng = np.random.default_rng(draw(st.integers(0, 3)))
        inputs = [read_tensor(f).shape for f in sorted(root.glob("tensor*.dtf1"))]
        slices = next((s[:2] for s in inputs if len(s) == 3), (draw(_EXTENT), draw(_EXTENT)))
        t = DenseTensor(rng.uniform(0.1, 1.0, slices + (draw(st.integers(1, 4)),)))
        cfg = DecompConfig(max_sweeps=2, seed=0)
        save_factors(cpd_als(t, 1, cfg) if kind == "cpd"
                     else ll1_nn(t, [draw(st.integers(1, 2))], cfg), path)
    if kind == "damaged":
        draw(_damaged_manifest(path, _BANK_DAMAGE))
    return str(path)


@st.composite
def _config_file(draw, root):
    """A tiny experiment config, maybe with one field spoiled or a damaged
    dataset directory, or any input `_tensor_file` draws."""
    if draw(st.sampled_from([False, False, False, True])):
        return draw(_tensor_file(root))
    dataset = draw(st.sampled_from(["face-fixture", "dataset-dir", "color-ensemble"]))
    if dataset == "dataset-dir":
        entry = {"kind": dataset, "path": str(root / "data")}
        state = draw(st.sampled_from(["saved", "damaged", "saved", "missing"]))
        if state != "missing":
            save_dataset(synthetic_face_fixture(height=4, width=3, n_classes=2,
                                                per_class=4), root / "data")
        if state == "damaged":
            draw(_damaged_manifest(root / "data", _DATASET_DAMAGE))
    elif dataset == "face-fixture":
        entry = {"kind": dataset, "height": draw(st.integers(3, 8)),
                 "width": draw(st.integers(1, 8)), "n_classes": draw(st.integers(2, 3)),
                 "per_class": draw(st.integers(2, 6))}
    else:
        entry = {"kind": dataset, "height": draw(st.integers(1, 8)),
                 "width": draw(st.integers(1, 8))}
    groups = draw(st.integers(2, 4))
    cfg = {
        "dataset": entry,
        "split": {"groups": groups, "train": draw(st.integers(1, groups - 1))},
        "methods": draw(st.lists(st.sampled_from(["raw", "cpd", "ll1"]),
                                 min_size=1, max_size=3)),
        "classifiers": draw(st.lists(st.sampled_from(["knn", "centroid"]),
                                     min_size=1, max_size=2)),
        "ranks": draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)),
        "k": draw(st.integers(1, 3)),
        "tau": draw(st.sampled_from([0.0, 0.5, 1.1])),
        "realizations": draw(st.integers(1, 2)),
        "max_sweeps": draw(st.integers(1, 5)),
    }
    if draw(st.booleans()):
        field, value = draw(st.sampled_from(_SPOILERS))
        cfg[field] = value
    path = root / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@st.composite
def _argv(draw, root):
    """A subcommand and a draw of its positionals and flags, each taken from
    the parser: a flag this strategy has no values for fails the test."""
    name, parser = draw(st.sampled_from(sorted(_subcommands().items())))
    values = {
        "input": _tensor_file(root), "bank": _bank_dir(root), "config": _config_file(root),
        "ranks": st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
            lambda rs: ",".join(map(str, rs))),
        "seed": st.integers(0, 3).map(str), "height": st.integers(0, 8).map(str),
        "width": st.integers(0, 8).map(str), "max_sweeps": st.integers(0, 5).map(str),
        "tol": _FLOATS, "tau": _FLOATS,
        "out": st.sampled_from([str(root / "out"), str(root / "taken")]),
    }
    argv = [name]
    for action in parser._actions:
        if not action.option_strings:
            argv.append(draw(values[action.dest]))
            continue
        # --help is rare and required flags are mostly given, or the parser
        # would end most runs before the subcommand starts
        if action.dest == "help":
            given_flag = draw(st.sampled_from([False] * 9 + [True]))
        elif action.required:
            given_flag = draw(st.sampled_from([True] * 9 + [False]))
        else:
            given_flag = draw(st.booleans())
        if given_flag:
            argv.append(action.option_strings[-1])
            if action.nargs != 0:
                argv.append(draw(st.sampled_from(action.choices) if action.choices
                                 else values[action.dest]))
    return argv


@settings(max_examples=300)
@given(data=st.data())
def test_cli_contract_on_random_argv(tmp_path_factory, data):
    """Any argv of the parser's subcommands and flags, on tiny, corrupt or
    missing inputs, prints one JSON line and exits with a documented code."""
    root = tmp_path_factory.mktemp("argv")
    (root / "taken").write_bytes(b"")  # an --out that cannot be a directory
    argv = data.draw(_argv(root))
    stdout = io.StringIO()
    with mock.patch.dict(os.environ, {OUT_ENV: str(root / "env-out")}), \
            contextlib.redirect_stdout(stdout):
        code = main(argv)
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 1, f"expected one stdout line, got {lines!r}"
    payload = json.loads(lines[0])
    assert code in (0, 2, 3, 4)
    if payload["status"] == "error":
        assert payload["code"] == code
    else:
        assert code in (0, 4)
    # a drawn bundle, damaged or not, loads or is rejected as malformed
    for bundle, load in (("bank", load_factors), ("data", load_dataset)):
        if (root / bundle).is_dir():
            with contextlib.suppress(DtfFormatError, FileNotFoundError):
                load(root / bundle)
