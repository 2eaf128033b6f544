"""The package needs numpy alone at run time; scipy serves the tests only,
and numpy.random is loaded only when a stream is drawn."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracspde

ROOT = Path(__file__).resolve().parents[1]


def _modules_loaded_by_import(prefix):
    """Modules named ``prefix`` or ``prefix.*`` that ``import fracspde,
    fracspde.cli`` loads in a fresh interpreter."""
    code = (
        "import json, sys\n"
        "import fracspde, fracspde.cli\n"
        f"print(json.dumps(sorted(m for m in sys.modules\n"
        f"                        if m == {prefix!r}\n"
        f"                        or m.startswith({prefix + '.'!r}))))\n"
    )
    package_root = str(Path(fracspde.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_pulls_in_no_scipy():
    assert _modules_loaded_by_import("scipy") == []


def test_import_pulls_in_no_numpy_random():
    # numpy.random is imported on the first draw: at import it would add
    # about 17 ms and 6 MB to every process, the CLI's included
    assert _modules_loaded_by_import("numpy.random") == []


def test_import_pulls_in_no_thread_pool():
    # ``solver._ensemble`` imports concurrent.futures when threads are
    # asked for: at import it would add about 5 ms to every process
    assert _modules_loaded_by_import("concurrent") == []


def test_runtime_dependencies_name_no_scipy():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not any(dep.lower().startswith("scipy")
                   for dep in project["dependencies"])


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert fracspde.__version__ == project["version"]


def test_every_name_in_all_resolves():
    # a stale name fails only ``from module import *``, so look each up
    modules = [fracspde] + [
        importlib.import_module(f"fracspde.{info.name}")
        for info in pkgutil.iter_modules(fracspde.__path__)]
    assert len(modules) > 8
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert missing == []


def _unused_imports(path):
    """Names that module ``path`` imports but neither uses nor lists in its
    ``__all__``.  Imports on a line marked ``# noqa: F401`` are exempt."""
    source = path.read_text(encoding="utf-8")
    lines, tree = source.splitlines(), ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        imported.update((alias.asname or alias.name).split(".")[0]
                        for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_import_in_the_package_is_used():
    # no linter runs on the package, so a simplification can leave an
    # import behind; the two noqa imports of cli.py are names that
    # benchmarks/spans.py rebinds
    paths = sorted(Path(fracspde.__file__).parent.glob("*.py"))
    assert len(paths) > 8
    unused = {path.name: names for path in paths
              if (names := _unused_imports(path))}
    assert unused == {}
