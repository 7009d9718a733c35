"""numpy is the package's only runtime dependency: every module of
src/tensplit imports only the standard library, numpy and tensplit itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tensplit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "tensplit"}


def imported_roots(path: Path) -> list:
    """(line, top-level module) of every absolute import in one source file;
    relative imports stay inside the package."""
    roots = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return roots


def test_only_stdlib_numpy_and_tensplit_are_imported():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    foreign = [f"{path.relative_to(PACKAGE)}:{line}: {root}"
               for path in sources for line, root in imported_roots(path)
               if root not in ALLOWED]
    assert foreign == []


def test_the_walk_sees_every_import_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os.path, scipy\nfrom numpy import linalg\n"
                   "from . import core\nfrom pandas.io import json\n"
                   "def f():\n    import numba\n")
    assert imported_roots(src) == [(1, "os"), (1, "scipy"), (2, "numpy"),
                                   (4, "pandas"), (6, "numba")]
