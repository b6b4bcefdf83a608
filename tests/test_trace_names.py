"""The benchmark's layer tracer names functions of the package by module and
qualified name; a refactor that moves or renames one must fail here, not in
a traced benchmark run."""

import importlib
import sys
import types
from pathlib import Path

import pytest

from lcentral import newforms, tau

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


def test_builtin_form_builds_its_table_in_one_tau_table_call(monkeypatch):
    # the tracer's `tau.tau_table` span times the production table, and its
    # coefficients_built count reads len(result) - 1: replaced the way the
    # tracer replaces it, the built-in form must call it once, for N + 1
    # entries
    original = tau.tau_table
    lengths = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        lengths.append(len(result))
        return result
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lcentral" or name.startswith("lcentral.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    newforms.builtin_newform("delta", 1234)
    assert lengths == [1235]
