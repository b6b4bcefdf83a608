"""The benchmark's layer tracer names functions of the package by module and
qualified name; a refactor that moves or renames one must fail here, not in
a traced benchmark run."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lcentral
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


# a traced pass in a fresh interpreter: the tracer loaded from source and
# installed after the workload's modules are imported, as the benchmark's
# child does, then a short scan and the criteria that average and sweep
_TRACED = """
import contextlib, io, json, sys, types
from pathlib import Path
import lcentral.acceptance, lcentral.cli

path = Path(sys.argv[1])
layer_trace = types.ModuleType("layer_trace")
exec(compile(path.read_text(), str(path), "exec"), vars(layer_trace))
tracer = layer_trace.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = lcentral.cli.main(["lav-scan", "--p", "5", "--n-lo", "1", "--n-hi", "2",
                              "--threads", "1"])
report = lcentral.acceptance.run_acceptance(fast=False, only=[3, 5])
print(json.dumps({"code": code, "criteria": [r.number for r in report.results],
                  "calls": tracer.stats()["calls"]}))
"""


def test_a_traced_pass_reaches_the_orbit_layers():
    # the end-to-end benchmark never runs trace mode, so a signature change
    # that breaks a traced call must fail here
    src = str(Path(lcentral.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _TRACED, str(_PATH)], check=True,
                         text=True, capture_output=True, env={**os.environ, "PYTHONPATH": path})
    doc = json.loads(out.stdout)
    assert doc["code"] == 0 and doc["criteria"] == [3, 5]
    for name in ("charsums.average_char", "charsums.averaged_iota_table",
                 "charsums.kloosterman_bound_report", "afe.averaged_coefficient_lvalue"):
        assert doc["calls"][name] > 0, name
