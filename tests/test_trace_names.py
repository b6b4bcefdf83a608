"""The benchmark's layer tracer names functions of the package by module and
qualified name; a refactor that moves or renames one must fail here, not in
a traced benchmark run."""

import importlib
import types
from pathlib import Path

import pytest

# executed from source, so reading the tracer leaves nothing beside it
_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"
layer_trace = types.ModuleType("layer_trace")
exec(compile(_PATH.read_text(), str(_PATH), "exec"), vars(layer_trace))

NAMES = ([(m, q) for m, q in layer_trace.SPANS]
         + [(m, q) for m, q, _ in layer_trace.COUNTS])


@pytest.mark.parametrize("module, qualname", NAMES)
def test_traced_name_resolves(module, qualname):
    # resolved the way the tracer's _replace resolves it: attribute path to
    # the owner, then the owner's own namespace
    owner = importlib.import_module(f"lcentral.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in vars(owner)
    assert callable(vars(owner)[attr])
