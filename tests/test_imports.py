"""Every name a module of the package imports is used in that module, every
private attribute a module assigns on self is read in that module, no module
uses an assert statement, and starting the package loads no scipy
subpackage that start-up does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lcentral

_SRC = Path(__file__).resolve().parents[1] / "src" / "lcentral"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


# __init__.py imports in order to re-export
@pytest.mark.parametrize("path", sorted(p for p in _SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _write_only_attributes(tree: ast.Module) -> list[str]:
    assigned = {}
    read = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
              and node.value.id == "self" and node.attr.startswith("_")
              and not node.attr.startswith("__")):
            assigned.setdefault(node.attr, node.lineno)
    return sorted(f"self.{name} (line {line})" for name, line in assigned.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_write_only_private_attributes(path):
    assert _write_only_attributes(ast.parse(path.read_text())) == []


# asserts vanish under python -O, and a programming error must always crash
@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


# scipy.interpolate alone pulls in scipy.optimize, scipy.linalg, scipy.sparse,
# scipy.spatial and scipy.fft; scipy.integrate is needed only by the degree-2
# kernel tail, which imports it when it first runs
_HEAVY_SCIPY = ("scipy.interpolate", "scipy.integrate", "scipy.optimize",
                "scipy.linalg", "scipy.sparse")

_START = """
import sys
import lcentral.acceptance, lcentral.cli, lcentral.experiment
from lcentral.fields import nf_load
nf_load("rationals")
nf_load("quadratic-sqrt2")
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_start_up_loads_no_heavy_scipy_subpackage():
    # a fresh interpreter: this one has imported all of scipy for other tests
    src = str(Path(lcentral.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _START], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": path})
    loaded = set(out.stdout.split())
    assert "scipy.special" in loaded
    assert [m for m in _HEAVY_SCIPY if m in loaded] == []
