"""The README's library examples run as written, and hold to what they claim.

Every fenced ``python`` block of README.md is executed in order in one
namespace, as a reader pasting them into one session would run them.
"""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


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
