"""The package needs numpy alone at run time; scipy serves the tests only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracspde

ROOT = Path(__file__).resolve().parents[1]


def test_import_pulls_in_no_scipy():
    code = (
        "import json, sys\n"
        "import fracspde, fracspde.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    package_root = str(Path(fracspde.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []


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
