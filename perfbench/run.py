"""lcentral benchmark: conductor-tower scans and the oracle sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/lcentral`.  Each pass of a
workload runs in a fresh child interpreter (perfbench/child.py), one after
another, pinned to one BLAS/OpenMP thread.  Fresh children matter: afe,
acceptance, cones and fields keep module-level caches, so a second pass in
one process would time cache hits.  Passes repeat while another one fits
in --seconds (at least one).

--trace 0 reports the end-to-end metrics, medians over the run's passes.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of perfbench/layer_trace.py.  Every pass is checked against
perfbench/reference.json; a row or criterion that fails a check, carries
an error, or belongs to a pass that crashed or overran its budget counts as
a failed operation.  The last line of stdout is the result object; the
line before it carries host facts, quartiles and check failures.
See perfbench/NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True     # leave nothing behind in the benchmark's directory
import layer_trace  # noqa: E402  (the benchmark's own modules, beside this file)
from child import ORACLE_CRITERIA, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
REFERENCE = json.loads((HERE / "reference.json").read_text())

OTHER_TOWER = {"tower-a2": "tower-a125", "tower-a125": "tower-a2"}

RUN_LIMIT_S = 170.0        # a run must end inside 180 s
PROBES = 2                 # extra set-up-only children per untraced run
PROBE_BUDGET_S = 30.0
PROBE_RESERVE_S = 8.0      # time kept back for the probes
ROUTE_GAP_MAX = 1e-12

# one thread for every native pool: a plain single-threaded baseline
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("work_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
              ("err_bound_top", "1"))


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for module, qualname in layer_trace.SPANS:
        name = layer_trace.span_name(module, qualname)
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for _, _, name in layer_trace.COUNTS]
    out += [("tau.coefficients_built", "count"), ("tau.used_ratio", "ratio"),
            ("charsums.gauss_sums_per_twist", "ratio"),
            ("afe.terms_summed", "count"), ("setup.import_s", "s")]
    out += [(f"experiment.row_n{n}_s", "s") for n in (1, 2, 3)]
    out += [(f"acceptance.c{k:02d}_s", "s") for k in ORACLE_CRITERIA]
    out += [("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
            ("trace.attributed_share", "ratio")]
    return out


# ---------------------------------------------------------------------------
# children

class Child:
    """One finished child: its JSON document (None if it failed) and usage."""

    def __init__(self, doc, t0, t_exit, exit_code, timed_out, rusage, log):
        self.doc, self.t0, self.t_exit = doc, t0, t_exit
        self.exit_code, self.timed_out, self.log = exit_code, timed_out, log
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.cpu_s = rusage.ru_utime + rusage.ru_stime

    @property
    def problem(self) -> str | None:
        if self.timed_out:
            return f"over its {self.t_exit - self.t0:.0f}s budget"
        if self.exit_code != 0 or self.doc is None:
            tail = self.log.read_text()[-400:] if self.log.exists() else ""
            return f"child exit code {self.exit_code}: {tail.strip()}"
        return None


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    return env


_spawned = 0


def spawn(workload: str, seed: int, mode: str, trace: int, budget: float) -> Child:
    global _spawned
    _spawned += 1
    tag = f"{mode}-{_spawned}"
    out, report, log = (WORK / f"{tag}.json", WORK / f"{tag}-report.json",
                        WORK / f"{tag}.log")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--out", str(out), "--report", str(report)]
    timed_out = False
    with open(log, "w") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - t0 > budget:
                os.kill(proc.pid, signal.SIGKILL)   # not reaped yet: pid is ours
                _, status, rusage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.02)
        t_exit = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    doc = None
    if proc.returncode == 0 and not timed_out and out.exists():
        doc = json.loads(out.read_text())
    return Child(doc, t0, t_exit, proc.returncode, timed_out, rusage, log)


# ---------------------------------------------------------------------------
# output checks

def _close(a: complex, b: complex, bound: float) -> bool:
    return abs(a - b) <= bound          # False for NaN


def row_problems(workload: str, doc: dict) -> list[str]:
    """One entry per reference row: None if it passes, else the reason."""
    refs = REFERENCE["towers"][workload]
    other = REFERENCE["towers"][OTHER_TOWER[workload]][-1]
    rows = {r["n"]: r for r in doc["rows"]}
    out = []
    for ref in refs:
        r = rows.get(ref["n"])
        out.append(_row_problem(doc, r, ref, other if ref is refs[-1] else None))
    return out


def _row_problem(doc, r, ref, other) -> str | None:
    n = ref["n"]
    if r is None:
        return f"n={n}: row missing"
    if r["error"] is not None:
        return f"n={n}: {r['error']}"
    if doc["exit_code"] != 0:
        return f"n={n}: lav-scan exit code {doc['exit_code']}"
    for key in ("conductor", "orbit_size", "seed_label"):
        if r[key] != ref[key]:
            return f"n={n}: {key} {r[key]!r} != reference {ref[key]!r}"
    if len(r["flags"]) != r["orbit_size"] or not all(r["flags"]):
        return f"n={n}: a value in the orbit is below the nonvanishing floor"
    if not r["route_gap"] <= ROUTE_GAP_MAX:
        return f"n={n}: route gap {r['route_gap']:.3g} > {ROUTE_GAP_MAX:g}"
    lav = complex(r["lav_re"], r["lav_im"])
    bound = r["error_estimate"] + ref["error_estimate"]
    if not _close(lav, complex(ref["lav_re"], ref["lav_im"]), bound):
        return f"n={n}: lav {lav} is off the reference by more than {bound:.3g}"
    if not _close(r["deviation"], ref["deviation"], bound):
        return f"n={n}: deviation {r['deviation']!r} is off the reference"
    if other is not None:
        bound = r["error_estimate"] + other["error_estimate"]
        if not _close(lav, complex(other["lav_re"], other["lav_im"]), bound):
            return (f"n={n}: lav disagrees with the other balance point's "
                    f"value by more than {bound:.3g}")
    return None


def criterion_problems(doc: dict) -> list[str]:
    ref = REFERENCE["oracle"]
    seen = {c["number"]: c for c in doc["criteria"]}
    out = []
    for k in ORACLE_CRITERIA:
        c = seen.get(k)
        want_pass = k not in ref["expected_fail"]
        if c is None:
            out.append(f"c{k:02d}: missing")
        elif c["passed"] != want_pass:
            verdict = "passed" if c["passed"] else "failed"
            out.append(f"c{k:02d}: {verdict}, expected the opposite: {c['detail']}")
        elif k == 3 and c["detail"] != ref["c03_detail"]:
            out.append(f"c03: detail changed: {c['detail']}")
        else:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# one pass, as numbers

class Pass:
    def __init__(self, workload: str, child: Child):
        self.child = child
        tower = workload != "oracle-sweep"
        doc = child.doc
        problem = child.problem
        self.ops = (len(REFERENCE["towers"][workload]) if tower
                    else len(ORACLE_CRITERIA))
        if problem is not None:
            self.problems = [problem] * self.ops
        elif tower:
            self.problems = row_problems(workload, doc)
        else:
            self.problems = criterion_problems(doc)
        self.failed = sum(p is not None for p in self.problems)
        self.ok = doc is not None
        if not self.ok:
            return
        self.wall_s = doc["t_end"] - child.t0
        self.import_s = doc["t_setup"] - child.t0
        if tower:
            rows = doc["rows"]
            self.scan_setup_s = doc["scan_s"] - sum(r["seconds"] for r in rows)
            self.err_bound_top = max(r["error_estimate"] for r in rows
                                     if r["n"] == rows[-1]["n"])
            self.op_seconds = {f"experiment.row_n{r['n']}_s": r["seconds"] for r in rows}
        else:
            self.scan_setup_s = 0.0
            self.err_bound_top = max(doc.get("error_estimates", ()), default=0.0)
            self.op_seconds = {f"acceptance.c{c['number']:02d}_s": c["seconds"]
                               for c in doc["criteria"]}
        self.work_s = self.wall_s - self.import_s - self.scan_setup_s


def quartiles(values: list[float]) -> dict:
    if not values:                      # every pass failed
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end(passes: list[Pass], probe_imports: list[float]) -> tuple[dict, dict]:
    good = [p for p in passes if p.ok]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    samples = {
        "wall_s": [p.wall_s for p in good],
        "import_s": [p.import_s for p in good] + probe_imports,
        "scan_setup_s": [p.scan_setup_s for p in good],
        "work_s": [p.work_s for p in good],
        "peak_rss_mb": [p.child.rss_mb for p in good],
        "cpu_s": [p.child.cpu_s for p in good],
        "err_bound_top": [p.err_bound_top for p in good],
    }
    stats = {k: quartiles(v) for k, v in samples.items()}
    med = {k: s["median"] or 0.0 for k, s in stats.items()}
    values = {
        "wall_s": med["wall_s"],
        "setup_s": med["import_s"] + med["scan_setup_s"],
        "work_s": med["work_s"],
        "peak_rss_mb": med["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
        "err_bound_top": med["err_bound_top"],
    }
    return values, stats


def per_layer(untraced: Pass, traced: Pass) -> dict:
    values = {name: 0.0 for name, _ in per_layer_names()}
    if not traced.ok:
        return values
    tr = traced.child.doc["trace"]
    values.update({f"{k}.calls" if k in tr["self_s"] else k: v
                   for k, v in tr["calls"].items()})
    values.update({f"{k}.self_s": v for k, v in tr["self_s"].items()})
    built = tr["coefficients_built"]
    gauss_calls = tr["calls"]["charsums.gauss_sum"]
    values["tau.coefficients_built"] = built
    values["tau.used_ratio"] = tr["max_cutoff"] / built if built else 0.0
    values["charsums.gauss_sums_per_twist"] = (
        gauss_calls / tr["gauss_chars"] if tr["gauss_chars"] else 0.0)
    values["afe.terms_summed"] = tr["terms_summed"]
    values["setup.import_s"] = traced.import_s
    # row and criterion times come from the untraced pass: no span overhead
    source = untraced if untraced.ok else traced
    values.update(source.op_seconds)
    spans = traced.import_s + sum(tr["self_s"].values())
    values["trace.unattributed_s"] = traced.wall_s - spans
    values["trace.attributed_share"] = spans / traced.wall_s
    values["trace.overhead_s"] = (traced.wall_s - untraced.wall_s
                                  if untraced.ok else 0.0)
    return values


# ---------------------------------------------------------------------------

def host_facts(passes: list[Pass]) -> dict:
    src_lines = sum(len(f.read_text().splitlines())
                    for f in sorted((ROOT / "src").rglob("*.py")))
    versions = next((p.child.doc["versions"] for p in passes if p.ok), {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **versions,
        "blas_threads_child": PINNED,
        "blas_threads_inherited": {k: os.environ.get(k) for k in PINNED},
        "src_lines": src_lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    if not (ROOT / "src" / "lcentral" / "__init__.py").is_file():
        print(f"no src/lcentral under {ROOT}: run from the root of an lcentral "
              f"checkout", file=sys.stderr)
        return 2
    run_start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    # byte-compile once, untimed, so no pass pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/lcentral"],
                   cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - run_start)

    passes = []
    if args.trace:
        for trace in (0, 1):
            child = spawn(args.workload, args.seed, "pass", trace, remaining())
            passes.append(Pass(args.workload, child))
    else:
        while True:
            budget = remaining() - PROBE_RESERVE_S
            child = spawn(args.workload, args.seed, "pass", 0, budget)
            passes.append(Pass(args.workload, child))
            took = child.t_exit - child.t0
            elapsed = time.perf_counter() - run_start
            if (elapsed + took > args.seconds
                    or took * 1.5 > remaining() - PROBE_RESERVE_S):
                break

    probe_imports, probe_problems = [], []
    for _ in range(0 if args.trace else PROBES):
        child = spawn(args.workload, args.seed, "probe", 0,
                      min(PROBE_BUDGET_S, remaining()))
        if child.problem is None:
            probe_imports.append(child.doc["t_setup"] - child.t0)
        else:
            probe_problems.append(child.problem)

    values, stats = end_to_end(passes[:1] if args.trace else passes,
                               probe_imports)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = dict(per_layer(*passes))
        names = per_layer_names()
    else:
        metrics = values
        names = END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "host": host_facts(passes),
        "samples": stats,
        "problems": [p for ps in passes for p in ps.problems if p] + probe_problems,
    }
    print(json.dumps(_json_safe(info)))
    # a failed row carries NaN numbers; the result line must stay strict JSON
    result = {
        "correct": failed == 0 and not probe_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name])
                           else 0.0, "unit": unit}
                    for name, unit in names},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def _json_safe(doc):
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    if isinstance(doc, dict):
        return {k: _json_safe(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_json_safe(v) for v in doc]
    return doc


if __name__ == "__main__":
    sys.exit(main())
