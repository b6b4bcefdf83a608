"""Command-line front end: single values, averaging scans, and reports.

Everything prints JSON (stdout by default, --out to a file), so runs can
be diffed and piped.  Exit codes: 0 for success, 1 when a verification or
scan check fails, 2 for bad input.

Character arguments are canonical labels.  Ray class characters look like
"rationals.p5.m2.chi3" (field, prime, modulus exponent, index); residue
characters of the full local unit group use "res" in place of "m", e.g.
"quadratic-sqrt2.p7.res2.chi5".  The prime above p is chosen by the same
deterministic rule everywhere, so a label pins one character exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .afe import afe_lvalue, load_for_sums
from .charsums import (CoefficientFieldContext, average_char, gauss_sum,
                       kloosterman_bound_report)
from .cones import count_progression, min_norm_coset, prime_above
from .experiment import ExperimentConfig, report_to_json, run_lav_experiment
from .fields import nf_load
from .newforms import newform_load
from .rayclass import RayClassGroup, rcg_build

_P_SEGMENT = re.compile(r"p(\d+)$")
_M_SEGMENT = re.compile(r"(m|res)(\d+)$")
_CHI_SEGMENT = re.compile(r"chi(\d+)$")


def parse_char_label(label: str):
    """Resolve a character label to a character object.

    The field portion may contain dots; the trailing three segments are
    p<prime>, m<level> or res<level>, chi<index>.
    """
    parts = label.split(".")
    if len(parts) < 4:
        raise ValueError(f"malformed character label {label!r}")
    field_label = ".".join(parts[:-3])
    mp = _P_SEGMENT.fullmatch(parts[-3])
    mm = _M_SEGMENT.fullmatch(parts[-2])
    mc = _CHI_SEGMENT.fullmatch(parts[-1])
    if not (mp and mm and mc):
        raise ValueError(f"malformed character label {label!r}")
    nf = nf_load(field_label)
    ctx = prime_above(nf, int(mp.group(1)))
    level, index = int(mm.group(2)), int(mc.group(1))
    if mm.group(1) == "res":
        group = RayClassGroup(ctx, level, unit_quotient=False)
    else:
        group = rcg_build(ctx, level)
    if index >= group.order:
        raise ValueError(f"character index {index} out of range in {label!r}")
    return group.character_by_index(index)


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _parse_alpha(text: str | None):
    if text is None:
        return None
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    return int(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_lvalue(args) -> int:
    probe = newform_load(args.form, limit=16)
    chi = None
    if args.char:
        chi = parse_char_label(args.char)
        if not chi.group.unit_quotient:
            raise ValueError(
                "twists need a ray class character (an 'm' label); residue "
                "characters do not act on ideals")
    cond = 1 if chi is None else chi.conductor_norm
    form = load_for_sums(args.form, probe, [(cond, args.y)], s=args.s)
    res = afe_lvalue(form, chi, s=args.s, y=args.y)
    _emit({
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "error_est": res.error_estimate,
        "terms_used": [res.terms_main, res.terms_dual],
        "y": res.y,
        "main_term_re": res.main_term.real,
        "character": res.character_label,
        "s": args.s if args.s is not None else form.weight / 2.0,
    }, args)
    return 0


def cmd_lav_scan(args) -> int:
    cfg = ExperimentConfig(
        field=args.field, form=args.form, p=args.p,
        pi_coords=_parse_alpha(args.pi), n_lo=args.n_lo, n_hi=args.n_hi,
        a=args.a, eps=args.eps, threads=args.threads, out=args.out)
    report = run_lav_experiment(cfg)
    if not args.out:
        print(report_to_json(report))
    return 0 if all(r.clean for r in report.rows) else 1


def cmd_gauss_sum(args) -> int:
    chi = parse_char_label(args.char)
    value = complex(gauss_sum(chi))
    cond = chi.conductor_norm
    _emit({
        "character": chi.label,
        "order": chi.order,
        "conductor_norm": cond,
        "value_re": value.real,
        "value_im": value.imag,
        "abs_value": abs(value),
        "modulus_defect": abs(abs(value) ** 2 - cond),
    }, args)
    return 0


def cmd_galois_average(args) -> int:
    chi = parse_char_label(args.char)
    ctx = CoefficientFieldContext(p=chi.p, n0=args.n0)
    res = average_char(chi, ctx, args.residue)
    _emit({
        "character": chi.label,
        "residue": args.residue,
        "orbit_size": res.orbit_size,
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "is_zero": res.is_zero(),
        "rational_coeff": None if res.coeff is None else str(res.coeff),
    }, args)
    return 0


def cmd_kloosterman(args) -> int:
    chi = parse_char_label(args.char)
    ctx = CoefficientFieldContext(p=chi.p, n0=args.n0)
    _emit(kloosterman_bound_report(chi, ctx), args)
    return 0


def cmd_cone_count(args) -> int:
    nf = nf_load(args.field)
    ctx = prime_above(nf, args.p)
    pc = count_progression(_parse_alpha(args.alpha), ctx, args.n, args.x,
                           witnesses=args.witnesses, window=args.window)
    doc = {
        "field": nf.label,
        "p": args.p,
        "n": args.n,
        "x": args.x,
        "window": args.window,
        "count": pc.count,
        "min_norm": min_norm_coset(ctx, args.n),
    }
    if args.witnesses:
        doc["witnesses"] = [[int(c) for c in w.coords] for w in pc.witnesses]
    _emit(doc, args)
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_acceptance
    report = run_acceptance()
    for line in report.lines:
        print(line)
    if args.out:
        Path(args.out).write_text("\n".join(report.lines) + "\n")
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding only the options its command reads."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to this path instead of stdout")
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default="rationals",
                       help="builtin field name or JSON path")
    form = argparse.ArgumentParser(add_help=False)
    form.add_argument("--form", default="delta",
                      help="builtin newform name or JSON path")

    top = argparse.ArgumentParser(
        prog="lcentral",
        description="central values of twisted L-series and their averages")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lvalue", parents=[form, out],
                       help="one smoothed two-sided evaluation")
    p.add_argument("--s", type=float, default=None,
                   help="spectral point (default: center of the strip)")
    p.add_argument("--char", help="twist character label")
    p.add_argument("--y", type=float, default=None, help="balance point")
    p.set_defaults(func=cmd_lvalue)

    p = sub.add_parser("lav-scan", parents=[field, form, out],
                       help="averaged central values along a conductor tower")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for the coefficient table's transformed CRT primes")
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--pi", help="prime generator coordinates, e.g. '3,1'")
    p.add_argument("--n-lo", type=int, default=1)
    p.add_argument("--n-hi", type=int, default=3)
    p.add_argument("--a", type=float, default=2.0,
                   help="balance exponent: y = N(P)^(a n)")
    p.add_argument("--eps", type=float, default=0.01)
    p.set_defaults(func=cmd_lav_scan)

    p = sub.add_parser("gauss-sum", parents=[out],
                       help="Gauss sum of one character, with modulus check")
    p.add_argument("--char", required=True)
    p.set_defaults(func=cmd_gauss_sum)

    p = sub.add_parser("galois-average", parents=[out],
                       help="exact orbit-averaged character value at a residue")
    p.add_argument("--char", required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--n0", type=int, default=0,
                   help="depth of p-power roots of unity in the Hecke field")
    p.set_defaults(func=cmd_galois_average)

    p = sub.add_parser("kloosterman-report", parents=[out],
                       help="sweep of averaged dual-side character sums")
    p.add_argument("--char", required=True)
    p.add_argument("--n0", type=int, default=0)
    p.set_defaults(func=cmd_kloosterman)

    p = sub.add_parser("cone-count", parents=[field, out],
                       help="exact unit-orbit progression count")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--alpha", help="integer or coordinate list, e.g. '0,1'")
    p.add_argument("--window", default="standard",
                   choices=("standard", "shifted"))
    p.add_argument("--witnesses", action="store_true",
                   help="include the smallest-norm members found")
    p.set_defaults(func=cmd_cone_count)

    p = sub.add_parser("verify",
                       help="run the acceptance checks and report per-criterion")
    p.add_argument("--out", help="also write the report lines to this path")
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "threads"):
        if args.threads < 1:
            print("--threads must be a positive integer", file=sys.stderr)
            return 2
        # workers past the usable CPUs add threads, not speed (the table
        # starts at most one per transformed CRT prime), so the count is
        # clamped rather than refused: the same command line then runs on
        # every host
        args.threads = min(args.threads, usable_cpus())
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
