"""Every name a module of the package imports is used in that module, every
private attribute a module assigns on self is read in that module, every
function parameter is read by its function and every defaulted one is set by
some call in the package (or is allowlisted with a reason), every function,
class and method is named somewhere in the package outside its own
definition (or is allowlisted with a reason), no module uses an assert
statement, no module but tau.py imports a thread pool or threads, and no
module imports scipy: the package, the rational tower, the acceptance sweep,
an off-grid s and the degree-2 kernel all run without it.  No module but
rayclass.py reads a discrete log, a ray class group's orientation or the
prime's image of sqrt(m), or Hensel-lifts it: field elements are reduced mod
p^n only through `PrimeContext.residue` and `residues`."""

import ast
import os
from collections import defaultdict
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


def _imports_of(tree: ast.Module, *modules: str) -> list[int]:
    """Lines that import one of `modules` or a module under one of them."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == m or name.startswith(m + ".") for name in names for m in modules):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert _imports_of(ast.parse(path.read_text()), "scipy") == []


# the package's one thread pool takes the coefficient table's transformed CRT
# primes, so no lazy cache is ever read from a worker thread
@pytest.mark.parametrize("path", sorted(p for p in _SRC.glob("*.py") if p.name != "tau.py"),
                         ids=lambda p: p.name)
def test_no_threads_outside_the_coefficient_table(path):
    assert _imports_of(ast.parse(path.read_text()), "concurrent.futures", "threading") == []


# roots.py multiplies by rotations of nonzero terms: the exact numbers need
# no transform, and the transform serves the coefficient table alone
def test_roots_imports_nothing_from_ntt():
    assert _imports_of(ast.parse((_SRC / "roots.py").read_text()), "ntt", "lcentral.ntt") == []


# rayclass.py alone turns field elements into residues, and residues into
# classes and character exponents: the image of sqrt(m) mod p^n and its
# Hensel lift, the level's discrete logs and a group's orientation are read
# nowhere else
_RESIDUE_RULE = ("_sqrt_image", "_hensel_sqrt", "dlog_array", "dlog",
                 "generator_exponent", "dlog_phase", "local_phase")


@pytest.mark.parametrize("path", sorted(p for p in _SRC.glob("*.py")
                                        if p.name != "rayclass.py"),
                         ids=lambda p: p.name)
def test_no_discrete_logs_outside_rayclass(path):
    tree = ast.parse(path.read_text())
    found = [(node.attr, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)]
    found += [(alias.name, node.lineno) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [f"{name} (line {line})" for name, line in found if name in _RESIDUE_RULE] == []


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


def _functions(node: ast.AST, prefix: str = ""):
    """(qualname, node) of every function and method under `node`, nested
    ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _unread_parameters(tree: ast.Module) -> list[str]:
    """qualname(parameter) of each parameter, self and cls aside, that its
    function's body never reads."""
    out = []
    for qualname, fn in _functions(tree):
        a = fn.args
        params = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if arg is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        out += [f"{qualname}({name})" for name in params
                if name not in ("self", "cls") and name not in read]
    return out


# parameters a function may leave unread, each with its reason: none today
_UNREAD_ALLOWED = {}


def test_every_parameter_is_read():
    # a knob cannot outlive its last reader
    found = [f"{p.stem}.{hit}" for p in sorted(_SRC.glob("*.py"))
             for hit in _unread_parameters(ast.parse(p.read_text()))]
    assert sorted(found) == sorted(_UNREAD_ALLOWED)


def _defaulted_without_caller(trees: dict[str, ast.Module]) -> list[str]:
    """module.qualname(parameters) of each function whose defaulted
    parameters include some that no call in the package passes, by keyword
    or by position (a **mapping or *sequence passes all it could reach).
    Calls are matched by the called name, so a method is reached by any
    call of an attribute of its name, and `Class(...)` reaches
    `Class.__init__`."""
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls[getattr(node.func, "id", None) or node.func.attr].append(node)
    out = []
    for module, tree in trees.items():
        for qualname, fn in _functions(tree):
            a = fn.args
            positional = [arg.arg for arg in (*a.posonlyargs, *a.args)]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            name = qualname.split(".")[-2] if fn.name == "__init__" else fn.name

            def passed(call, param):
                if any(k.arg in (param, None) for k in call.keywords):
                    return True
                return param in positional and (
                    positional.index(param) < len(call.args)
                    or any(isinstance(arg, ast.Starred) for arg in call.args))
            unset = [param for param in defaulted
                     if not any(passed(call, param) for call in calls[name])]
            if unset:
                out.append(f"{module}.{qualname}({', '.join(unset)})")
    return sorted(out)


# defaulted parameters no production call sets, each with its reason
_NO_CALLER_ALLOWED = {
    "cli.main(argv)": "the console entry point: the interpreter calls it with none",
    "acceptance.run_acceptance(fast, only)": "the benchmark harness passes both "
                                             "(perfbench/child.py); they leave with "
                                             "its change (ROADMAP item 5)",
    "experiment.halved_cutoff_gap(n)": "deliberate oracle: the same row at halved cutoffs",
    "abelian.FiniteAbelianGroup.__init__(labels)": "the tests' group oracle, kept for "
                                                   "the benchmark tracer",
}


def test_every_defaulted_parameter_has_a_production_caller():
    # a default no production call overrides is a knob only tests turn
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(_SRC.glob("*.py"))}
    assert _defaulted_without_caller(trees) == sorted(_NO_CALLER_ALLOWED)


_GROUP_ORACLE = ("the tests' independent presentation of the ray class groups; "
                 "the benchmark tracer resolves FiniteAbelianGroup.characters, so "
                 "the class leaves src only with the tracer (ROADMAP items 5, 9)")

# production code no other production code names: each entry says why it stays
_UNREFERENCED_ALLOWED = {
    "abelian.FiniteAbelianGroup": _GROUP_ORACLE,
    "abelian.FiniteAbelianGroup.from_exponents": _GROUP_ORACLE,
    "abelian.FiniteAbelianGroup.subgroup_generated": _GROUP_ORACLE,
    "abelian.FiniteAbelianGroup.char_index": _GROUP_ORACLE,
    "abelian.FiniteAbelianGroup.char_at": _GROUP_ORACLE,
    "abelian.FiniteAbelianGroup.char_phase": _GROUP_ORACLE,
    "abelian.FiniteAbelianGroup.char_order": _GROUP_ORACLE,
    "abelian.FiniteAbelianGroup.inv": _GROUP_ORACLE,
    "abelian.FiniteAbelianGroup.pow": _GROUP_ORACLE,
    "charsums.galois_orbit": "the benchmark tracer resolves it; it moves with the "
                             "tracer (ROADMAP items 5, 9)",
    "experiment.halved_cutoff_gap": "deliberate oracle: the same row at halved cutoffs",
    "experiment.report_from_json": "the benchmark harness reads scan reports with it",
    "roots.CyclotomicNumber.galois": "deliberate oracle: the exact Galois action the "
                                     "tests check the orbit Gauss sums against",
    "roots.CyclotomicNumber.reduced_dense": "deliberate oracle: the dense reduction "
                                            "behind the tensor-basis rewrite",
    "tau.tau_table_bigint": "deliberate oracle: the big-integer coefficient table",
}


def _unreferenced_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """module.qualname of each top-level function and class whose name no
    Name or Attribute node outside its own definition carries, and of each
    method whose name no Attribute node outside it carries (a bare name of
    the same spelling is some other binding); dunder methods are called by
    the language and are skipped."""
    as_attribute = defaultdict(list)
    as_name = defaultdict(list)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                as_name[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                as_attribute[node.attr].append((module, node.lineno))
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node, as_name[node.name] + as_attribute[node.name])]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item, as_attribute[item.name])
                         for item in node.body if isinstance(item, ast.FunctionDef)]
            for qualname, d, named in defs:
                if d.name.startswith("__") and d.name.endswith("__"):
                    continue
                if all(m == module and d.lineno <= line <= d.end_lineno
                       for m, line in named):
                    out.append(f"{module}.{qualname}")
    return sorted(out)


def test_no_production_code_that_only_tests_reach():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(_SRC.glob("*.py"))}
    found = _unreferenced_definitions(trees)
    assert [name for name in found if name not in _UNREFERENCED_ALLOWED] == []
    # an entry whose definition is gone, or now has a caller, leaves the list
    assert [name for name in _UNREFERENCED_ALLOWED if name not in found] == []


# asserts vanish under python -O, and a programming error must always crash
@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


# V and Gamma are closed forms or sums of them on every route, so the package
# runs with scipy unimportable: a None entry in sys.modules makes every
# import of it raise
_FRESH = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import lcentral.acceptance, lcentral.cli, lcentral.experiment
from lcentral.fields import nf_load
from lcentral.kernels import GammaFactor, VKernel

nf_load("rationals")
nf_load("quadratic-sqrt2")
with contextlib.redirect_stdout(io.StringIO()):
    lcentral.cli.main(["lav-scan", "--p", "5", "--n-lo", "1", "--n-hi", "2",
                       "--out", sys.argv[1]])
    lcentral.cli.main(["verify"])
lvalue = io.StringIO()
with contextlib.redirect_stdout(lvalue):
    lcentral.cli.main(["lvalue", "--s", "6.3", "--char", "rationals.p5.m2.chi3"])
doc = json.loads(lvalue.getvalue())
print(repr(complex(doc["value_re"], doc["value_im"])), repr(doc["error_est"]))
print(repr(VKernel(GammaFactor(nf_load("Qsqrt2"), (0, 0)), 6.0).value_tail(1.0)))
print(" ".join(sorted(m for m, mod in sys.modules.items()
                      if m.startswith("scipy") and mod is not None)) or "-")
"""


def test_start_up_the_rational_tower_and_verify_load_no_scipy(tmp_path):
    # a fresh interpreter: this one has imported all of scipy for other tests
    src = str(Path(lcentral.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _FRESH, str(tmp_path / "scan.json")],
                         check=True, text=True, capture_output=True,
                         env={**os.environ, "PYTHONPATH": path})
    off_grid, degree_two, loaded = out.stdout.splitlines()
    assert loaded == "-"
    value, error_est = off_grid.split()
    assert abs(complex(value) - complex(1.3029324870426875, -0.11704792137944303)) \
        <= float(error_est) < 1e-13
    from lcentral.fields import nf_load
    from lcentral.kernels import GammaFactor, VKernel
    want = VKernel(GammaFactor(nf_load("Qsqrt2"), (0, 0)), 6.0).value_tail(1.0)
    assert float(degree_two) == want > 0
