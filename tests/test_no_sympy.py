"""latrep needs no sympy at run time.  Each command runs in a subprocess
whose first sys.path entry is a stub `sympy` package that raises on
import, so any runtime import of sympy fails the command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def no_sympy(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("no_sympy")
    (tmp / "sympy").mkdir()
    (tmp / "sympy" / "__init__.py").write_text(
        'raise ImportError("sympy is not a runtime dependency")\n')
    (tmp / "i8.json").write_text(json.dumps(
        [[int(i == j) for j in range(8)] for i in range(8)]))
    (tmp / "t.json").write_text("[[1, 0], [0, 2]]")
    (tmp / "d.json").write_text("[[1, 0], [0, 17]]")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(tmp), str(ROOT / "src")])}

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, cwd=tmp,
                              capture_output=True, text=True, timeout=300)
    return run


def test_stub_blocks_sympy(no_sympy):
    proc = no_sympy("-c", "import sympy")
    assert proc.returncode == 1
    assert "not a runtime dependency" in proc.stderr


COMMANDS = {
    "import": ["-c", "import sys, latrep; assert 'sympy' not in sys.modules"],
    "check": ["-m", "latrep.cli", "check", "--gram", "i8.json",
              "--target", "t.json", "-q", "3", "-j", "1"],
    "genus": ["-m", "latrep.cli", "genus", "--gram", "d.json", "-p", "3"],
    **{demo.name: [str(demo)] for demo in sorted((ROOT / "demos").glob("*.py"))},
}


@pytest.mark.parametrize("args", COMMANDS.values(), ids=COMMANDS.keys())
def test_runs_without_sympy(no_sympy, args):
    proc = no_sympy(*args)
    assert proc.returncode == 0, proc.stderr
