"""The README's examples run as written, and hold to what they claim.

Every fenced ``python`` block of README.md is executed in order in one
namespace, as a reader pasting them into one session would run them.  The
CLI quick start's ``tensplit`` commands run in order in one directory,
which holds the README's example config as ``config.json``.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from tensplit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def fenced_block(text: str, heading: str, lang: str) -> str:
    """The first ``lang`` block after the line `heading`."""
    after = text[text.index(heading + "\n"):]
    return re.search(rf"^```{lang}\n(.*?)^```$", after, flags=re.MULTILINE | re.DOTALL)[1]


def test_readme_cli_quick_start_runs(capsys, tmp_path, monkeypatch):
    text = README.read_text()
    commands = [shlex.split(line, comments=True)
                for line in fenced_block(text, "## Quick start (CLI)", "sh").splitlines()
                if line.startswith("tensplit ")]
    assert {argv[1] for argv in commands} == {"synth", "decompose", "split", "experiment"}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(
        fenced_block(text, "Example experiment config:", "json"))
    for argv in commands:
        code = main(argv[1:])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, f"{argv}: expected one stdout line, got {lines!r}"
        assert code == 0, f"{argv} exited {code}: {lines[0]}"
        assert json.loads(lines[0])["status"] in ("ok", "dry-run")


def test_readme_python_blocks_run_and_agree():
    blocks = python_blocks(README.read_text())
    assert blocks, "README.md has no python block"
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    # the grid block's own claim: ll1 = run_experiment(...)  # == grid["ll1"]["knn"]
    ll1, cell = namespace["ll1"], namespace["grid"]["ll1"]["knn"]
    assert ll1.accuracy == cell.accuracy
    np.testing.assert_array_equal(ll1.confusion, cell.confusion)
    assert ll1.per_run == cell.per_run
