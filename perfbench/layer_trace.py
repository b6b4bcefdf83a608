"""Per-layer spans and counters, installed around lcentral from outside.

The benchmark does not change the program to trace it.  It replaces the
public functions and methods listed below with thin wrappers: module
attributes are replaced in every loaded `lcentral` module that holds them
(so `from .charsums import gauss_sum` in another module is covered too), and
methods are replaced on their class.  Install after the workload's modules
are imported.

A span records calls and self time, which is its duration minus the time of
the spans it encloses.  A counter records calls only; it is used where a
span would cost more than the work (a field multiplication) or would close
before the work is done (a generator).  This module imports nothing from
lcentral, so the parent process can read the layer names without it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, qualified name): timed spans
SPANS = (
    ("tau", "tau_table"),
    ("newforms", "newform_load"),
    ("newforms", "NewformData.coefficient_array"),
    ("charsums", "gauss_sum"),
    ("charsums", "root_number"),
    ("charsums", "galois_orbit"),
    ("charsums", "average_char"),
    ("charsums", "averaged_iota_table"),
    ("charsums", "kloosterman_bound_report"),
    ("rayclass", "rcg_build"),
    ("roots", "CyclotomicNumber.reduced"),
    ("afe", "afe_lvalue"),
    ("afe", "averaged_coefficient_lvalue"),
    ("afe", "character_value_table"),
    ("afe", "direct_series"),
    ("afe", "functional_equation_residual"),
    ("kernels", "VKernel.value"),
    ("kernels", "VKernel.value_tail"),
    ("kernels", "VKernel.value_contour"),
    ("kernels", "VKernel.decay_cutoff"),
    ("cones", "count_progression"),
    ("cones", "min_norm_coset"),
    ("cones", "verify_count_bound"),
    ("cones", "torsion_norm_bound"),
)

# (module, qualified name, metric name): call counts only
COUNTS = (
    ("rayclass", "HeckeCharacter.__init__", "rayclass.characters_built"),
    ("abelian", "FiniteAbelianGroup.characters", "abelian.dual_scans"),
    ("fields", "FieldElement.__mul__", "fields.FieldElement.__mul__.calls"),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def _replace(module: str, qualname: str, make_wrapper) -> None:
    mod = sys.modules[f"lcentral.{module}"]
    *path, attr = qualname.split(".")
    owner = mod
    for part in path:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    if not callable(original):
        raise TypeError(f"lcentral.{module}.{qualname} is not a plain function")
    wrapper = make_wrapper(original)
    if owner is not mod:
        setattr(owner, attr, wrapper)
        return
    for name, other in list(sys.modules.items()):
        if other is None or not (name == "lcentral" or name.startswith("lcentral.")):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapper)


class Tracer:
    """Span and counter totals for one pass, plus the derived work counts."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[float] = []
        self.coefficients_built = 0     # sum of tau_table limits
        self.max_cutoff = 0             # largest coefficient index summed
        self.terms_summed = 0           # terms of every two-sided sum
        self.gauss_chars: set[str] = set()

    def _span(self, name: str, on_result=None):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def make(fn):
            if inspect.isgeneratorfunction(fn):
                raise TypeError(f"{name} is a generator; count it instead")

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inner = stack.pop()
                    calls[name] += 1
                    self_s[name] += dt - inner
                    if stack:
                        stack[-1] += dt
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result
            return wrapper
        return make

    def _counter(self, name: str):
        self.calls[name] = 0
        calls = self.calls

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # result hooks: the work counts the ratios are built from

    def _on_tau(self, args, kwargs, result):
        self.coefficients_built += len(result) - 1

    def _on_lvalue(self, args, kwargs, result):
        self.terms_summed += result.terms_main + result.terms_dual
        self.max_cutoff = max(self.max_cutoff, result.terms_main, result.terms_dual)

    def _on_averaged(self, args, kwargs, result):
        m1, m2 = result[1]["terms"]
        self.terms_summed += m1 + m2
        self.max_cutoff = max(self.max_cutoff, m1, m2)

    def _on_direct(self, args, kwargs, result):
        form = args[0] if args else kwargs["form"]
        terms = kwargs.get("terms", args[3] if len(args) > 3 else None)
        self.max_cutoff = max(self.max_cutoff,
                              form.limit if terms is None else int(terms))

    def _on_gauss(self, args, kwargs, result):
        chi = args[0] if args else kwargs["chi"]
        self.gauss_chars.add(chi.label)

    def install(self) -> None:
        hooks = {
            "tau.tau_table": self._on_tau,
            "afe.afe_lvalue": self._on_lvalue,
            "afe.averaged_coefficient_lvalue": self._on_averaged,
            "afe.direct_series": self._on_direct,
            "charsums.gauss_sum": self._on_gauss,
        }
        for module, qualname in SPANS:
            name = span_name(module, qualname)
            _replace(module, qualname, self._span(name, hooks.get(name)))
        for module, qualname, name in COUNTS:
            _replace(module, qualname, self._counter(name))

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "coefficients_built": self.coefficients_built,
            "max_cutoff": self.max_cutoff,
            "terms_summed": self.terms_summed,
            "gauss_chars": len(self.gauss_chars),
        }


def watch_error_estimates(sink: list) -> None:
    """Append the error estimate of every afe_lvalue result to `sink`.

    The untraced oracle sweep uses this one cheap hook (a few dozen calls)
    for its err_bound_top metric; no timing is taken.
    """
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append(result.error_estimate)
            return result
        return wrapper
    _replace("afe", "afe_lvalue", make)
