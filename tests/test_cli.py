import json

import numpy as np
import pytest

from tensplit.cli import OUT_ENV, main
from tensplit.core import DenseTensor
from tensplit.decomp import LL1Factors, load_factors
from tensplit.dtf import read_tensor, write_tensor


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
        [("0", "cpd"), ("1,2", "cpd"), ("1,2", "hosvd"), ("x", "ll1"), ("", "ll1")],
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

    def test_wrong_order_input_exits_3(self, capsys, tmp_path):
        tfile = tmp_path / "m.dtf1"
        write_tensor(DenseTensor(np.ones((3, 3))), tfile)
        code, payload = run_cli(capsys, [
            "decompose", str(tfile), "--method", "cpd", "--ranks", "1",
            "--out", str(tmp_path / "f"),
        ])
        assert code == 3
        assert "order" in payload["error"]


class TestSplit:
    def fit_bank(self, capsys, tmp_path):
        tfile = tmp_path / "t.dtf1"
        identical_slice_file(tfile)
        bank = tmp_path / "bank"
        code, _ = run_cli(capsys, [
            "decompose", str(tfile), "--method", "ll1", "--ranks", "2",
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

    def test_rejects_mismatched_slice_shape(self, capsys, tmp_path):
        _, bank = self.fit_bank(capsys, tmp_path)
        other = tmp_path / "o.dtf1"
        rank1_tensor_file(other, shape=(3, 3, 2), seed=1)
        code, payload = run_cli(capsys, [
            "split", str(other), str(bank), "--out", str(tmp_path / "s")])
        assert code == 3


class TestExperiment:
    def test_dry_run_prints_plan(self, capsys, tmp_path):
        cfg = experiment_config(tmp_path)
        code, payload = run_cli(capsys, ["experiment", str(cfg), "--dry-run"])
        assert code == 0
        assert payload["status"] == "dry-run"
        plan = payload["plan"]
        assert sorted(plan["train_groups"] + plan["test_groups"]) == [0, 1, 2, 3]
        assert len(plan["members"]) == 4

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
        assert payload["cells"]["raw"]["knn"]["accuracy"] == \
            summary["raw"]["knn"]["accuracy"]
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

    def test_malformed_json_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("{oops")
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 3
        assert "malformed config" in payload["error"]

    def test_unknown_field_exits_3(self, capsys, tmp_path):
        cfg = experiment_config(tmp_path, classifers=["knn"])  # typo on purpose
        code, payload = run_cli(capsys, ["experiment", str(cfg)])
        assert code == 3
        assert "unknown field" in payload["error"]

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
