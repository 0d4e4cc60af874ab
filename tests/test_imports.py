"""Module boundaries of the library, checked on its source."""

import ast
from pathlib import Path

import mvaudit

SRC = Path(mvaudit.__file__).parent


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_montecarlo_imports_numpy():
    # parsing, fitting and the t tail are pure Python; arrays pay for
    # themselves only in the Monte Carlo simulation
    importers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(name.split(".")[0] == "numpy" for name in imported_modules(path))
    }
    assert importers == {"montecarlo.py"}
