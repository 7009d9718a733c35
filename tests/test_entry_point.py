"""`python -m tensplit` run as its own process: the one-JSON-line stdout
contract and the exit code hold at the console entry point, with the log
on stderr."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "tensplit", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, f"expected exactly one stdout line, got {lines!r}"
    return proc.returncode, json.loads(lines[0]), proc.stderr


def test_help_prints_one_line_and_exits_0():
    code, payload, stderr = run_module("--help")
    assert code == 0
    assert payload == {"status": "help"}
    assert "usage:" in stderr


def test_missing_input_prints_one_error_line_and_exits_2(tmp_path):
    absent = tmp_path / "absent.dtf1"
    code, payload, stderr = run_module("decompose", str(absent), "--method", "cpd",
                                       "--ranks", "2", "--out", str(tmp_path / "f"))
    assert code == 2
    assert payload["status"] == "error"
    assert payload["code"] == 2
    assert "ERROR" in stderr and str(absent) in stderr
    assert not (tmp_path / "f").exists()
