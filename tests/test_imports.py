"""Module boundaries of the library and what its start-up loads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mvaudit

SRC = Path(mvaudit.__file__).parent
MVBENCH = SRC.parent.parent / "mvbench"
SCRIPTS = SRC.parent.parent / "scripts"

# exported functions that neither a command, the benchmark nor a script calls, and why
# the library still ships them
UNCALLED_EXPORTS = {
    "reg_inc_beta": "the acceptance gate checks the incomplete-beta core through it",
}

# modules analyze, validate, scenario and plot have no use for; dataclasses
# (with inspect, ast, dis and tokenize) and html each cost milliseconds of start-up
HEAVY = ("numpy", "urllib.request", "http.client", "ssl", "dataclasses", "inspect", "html")

# Runs mvaudit commands in this interpreter and prints, as the last line,
# which of the modules in argv[1] (a JSON list) each step left loaded.
STARTUP_PROBE = """
import json, sys
import mvaudit, mvaudit.cli
watched = json.loads(sys.argv[1]) + ["mvaudit.montecarlo", "numpy.ma"]
fixture, out = sys.argv[2], sys.argv[3]
loaded = lambda: [m for m in watched if m in sys.modules]
steps = {"import": loaded()}
for argv in (["analyze", fixture, "--json"], ["validate", fixture, "--json"],
             ["scenario", fixture, "--json"], ["plot", fixture, "--out", out]):
    assert mvaudit.cli.main(argv) == 0, argv
steps["commands"] = loaded()
assert mvaudit.cli.main(["calibrate", fixture, "--reps", "100", "--json"]) == 0
steps["calibrate"] = loaded()
print(json.dumps(steps))
"""

# Prints OPENBLAS_NUM_THREADS as it reads after main has run calibrate.
BLAS_PROBE = """
import os, sys
from mvaudit.cli import main
assert main(["calibrate", sys.argv[1], "--reps", "100", "--json"]) == 0
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def run_python(code, *args, **env):
    # a fresh interpreter: this test process has long since loaded numpy, and
    # in-process calls of main have set OPENBLAS_NUM_THREADS in its environment
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**base, "PYTHONPATH": str(SRC.parent), **env},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()[-1]


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def calls(node, enclosing=frozenset()):
    """(called name, names of the enclosing defs) for each ``f(...)`` or ``x.f(...)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls(child, enclosing | {child.name})
            continue
        if isinstance(child, ast.Call):
            func = child.func
            yield (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)), enclosing
        yield from calls(child, enclosing)


def exported_callables(path: Path):
    """Names of the exported functions and of the exported classes' public methods."""
    exported = getattr(importlib.import_module(module_name(path)), "__all__", ())
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            yield node.name
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            # a decorated method, such as a property, is read rather than called
            yield from (method.name for method in node.body
                        if isinstance(method, ast.FunctionDef)
                        and not method.name.startswith("_") and not method.decorator_list)


def test_every_exported_function_is_called():
    # the library ships no code that only tests call: each exported function,
    # and each public method of an exported class, is called by the package,
    # the benchmark or a script, outside its own body
    paths = [*SRC.rglob("*.py"), *MVBENCH.rglob("*.py"), *SCRIPTS.glob("*.py")]
    sites = [(path, name, enclosing) for path in paths
             for name, enclosing in calls(ast.parse(path.read_text(encoding="utf-8")))]
    uncalled = [
        exported
        for path in sorted(SRC.rglob("*.py"))
        for exported in exported_callables(path)
        if not any(name == exported and not (other == path and exported in enclosing)
                   for other, name, enclosing in sites)
    ]
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS)


def test_only_montecarlo_imports_numpy():
    # parsing, fitting and the t tail are pure Python; arrays pay for
    # themselves only in the Monte Carlo simulation
    importers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(name.split(".")[0] == "numpy" for name in imported_modules(path))
    }
    assert importers == {"montecarlo.py"}


def test_startup_loads_no_numpy_or_network_stack(fixture_csv_path, tmp_path):
    steps = json.loads(
        run_python(STARTUP_PROBE, json.dumps(HEAVY), str(fixture_csv_path), str(tmp_path / "p.svg"))
    )
    # montecarlo itself stays loaded: mvbench/replay.py looks it up after importing the CLI
    assert steps["import"] == steps["commands"] == ["mvaudit.montecarlo"]
    # only calibrate loads numpy, which imports inspect itself; np.quantile
    # would also import numpy.ma (~13 ms), which its probe quantiles do without
    assert "numpy" in steps["calibrate"]
    assert "numpy.ma" not in steps["calibrate"]


def test_cli_starts_openblas_with_one_thread(fixture_csv_path):
    assert run_python(BLAS_PROBE, str(fixture_csv_path)) == "1"


def test_cli_keeps_a_preset_openblas_thread_count(fixture_csv_path):
    assert run_python(BLAS_PROBE, str(fixture_csv_path), OPENBLAS_NUM_THREADS="2") == "2"


def test_every_exported_name_resolves():
    # a name removed from a module must leave its export lists too
    for path in sorted(SRC.rglob("*.py")):
        module = importlib.import_module(module_name(path))
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], module.__name__
    namespace = {}
    exec("from mvaudit import *", namespace)
    assert set(mvaudit.__all__) <= set(namespace)
