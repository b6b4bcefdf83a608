"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode pass|probe
                               --trace 0|1 --out FILE [--report FILE]

Run from the root of a checkout; lcentral is imported from its `src/`.
The pass writes one JSON document to --out: clock marks (perf_counter,
which is the system-wide monotonic clock, so the parent can subtract its
own start mark), the computed rows or criterion verdicts, and with
--trace 1 the per-layer span totals.  It checks nothing itself; the parent
does.  A probe stops after import and field load, to sample set-up time.
"""

import time

T_START = time.perf_counter()

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

TOWERS = {"tower-a2": "2", "tower-a125": "1.25"}
# criterion 10 is tower-a2 verbatim, so the sweep leaves it out
ORACLE_CRITERIA = (1, 2, 3, 4, 5, 6, 7, 8, 9, 11)
WORKLOADS = (*TOWERS, "oracle-sweep")


def _tower(cli, experiment, a: str, report_path: Path) -> dict:
    argv = ["lav-scan", "--p", "5", "--n-lo", "1", "--n-hi", "3", "--a", a,
            "--threads", "1", "--out", str(report_path)]
    t0 = time.perf_counter()
    exit_code = cli.main(argv)
    t1 = time.perf_counter()
    report = experiment.report_from_json(report_path.read_text())
    return {"exit_code": exit_code, "scan_s": t1 - t0,
            "rows": [dataclasses.asdict(r) for r in report.rows]}


def _oracle(acceptance, seed: int) -> dict:
    order = list(ORACLE_CRITERIA)
    random.Random(seed).shuffle(order)
    criteria = []
    for k in order:
        (res,) = acceptance.run_acceptance(fast=False, only=[k]).results
        criteria.append({"number": res.number, "name": res.name,
                         "passed": bool(res.passed), "detail": res.detail,
                         "seconds": res.seconds})
    return {"order": order, "criteria": criteria}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("pass", "probe"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", required=True)
    ap.add_argument("--report")
    args = ap.parse_args()

    src = (Path.cwd() / "src").resolve()
    import numpy
    import scipy
    import lcentral
    if not Path(lcentral.__file__).resolve().is_relative_to(src):
        print(f"lcentral was imported from {lcentral.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from lcentral.fields import nf_load
    if args.workload in TOWERS:
        from lcentral import cli, experiment
        fields = ("rationals",)
    else:
        from lcentral import acceptance
        fields = ("rationals", "quadratic-sqrt2")
    for name in fields:
        nf_load(name)
    t_setup = time.perf_counter()

    doc = {"t_start": T_START, "t_setup": t_setup,
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.mode == "pass":
        sys.dont_write_bytecode = True
        import layer_trace
        tracer = estimates = None
        if args.trace:
            tracer = layer_trace.Tracer()
            tracer.install()
        elif args.workload == "oracle-sweep":
            estimates = []
            layer_trace.watch_error_estimates(estimates)
        if args.workload in TOWERS:
            doc.update(_tower(cli, experiment, TOWERS[args.workload],
                              Path(args.report)))
        else:
            doc.update(_oracle(acceptance, args.seed))
        doc["t_end"] = time.perf_counter()
        if tracer is not None:
            doc["trace"] = tracer.stats()
        if estimates is not None:
            doc["error_estimates"] = estimates
    else:
        doc["t_end"] = t_setup
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
