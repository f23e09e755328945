"""Command-line front end: every module surface as a subcommand.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure or a shipped data file that fails its checks,
2 usage error; main alone maps exceptions to them.  Rational numbers
serialise as "p/q" strings; identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import cases as cases_mod
from . import modcurve, orbifold, qseries
from .cartan import parse_kind
from .cases import json_number
from .kacaut import enumerate_classes, fixed_label, inner_from_coweight
from .liealg import build_root_system


def _rational(flag: str, text: str) -> Fraction:
    """Parse a rational command-line value; a bad one is a usage error naming the flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be a rational number, got {text!r}") from None


def _case(case_id: str):
    """The case with this id; a usage error when there is none."""
    for case in cases_mod.load_cases():
        if case.id == case_id:
            return case
    raise ValueError(f"no case with id {case_id}")


def _emit(rows, fmt: str, keys, headers=None, payload=None):
    """Print rows, dicts with the given keys, as JSON (payload instead, when
    given), as CSV or as a table with aligned columns; headers default to
    the keys.  A Fraction prints by json_number in JSON and by str otherwise."""
    if fmt == "json":
        print(json.dumps(rows if payload is None else payload, indent=1, sort_keys=True,
                         default=json_number))
        return
    lines = [headers or keys] + [[row[k] for k in keys] for row in rows]
    if fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(lines)
        return
    widths = [max(len(str(x)) for x in column) for column in zip(*lines)]
    for line in lines:
        print("  ".join(str(x).ljust(w) for x, w in zip(line, widths)))


def cmd_coeffs(args) -> int:
    rows = [{"d": d, "c_d": c} for d, c in sorted(orbifold.c_coefficients(args.n).items())]
    _emit(rows, args.format, ("d", "c_d"), payload={str(r["d"]): r["c_d"] for r in rows})
    return 0


def cmd_dcoeff(args) -> int:
    print(orbifold.d_coefficient(args.n, args.i, args.j, args.k))
    return 0


def cmd_cusps(args) -> int:
    _emit([{"cusp": c.label(), "width": c.width} for c in modcurve.cusp_classes(args.n)],
          args.format, ("cusp", "width"))
    return 0


def cmd_hauptmodul(args) -> int:
    t = modcurve.hauptmodul(args.n)
    series = qseries.etaq_expand(t, _rational("--prec", args.prec))
    print(f"t_{args.n} = eta quotient {t.label()}")
    print(series.to_text())
    return 0


def cmd_fs(args) -> int:
    point = _rational("--cusp", args.cusp)
    prec = _rational("--prec", args.prec)
    cusp = modcurve.find_cusp(args.n, point.numerator, point.denominator)
    f = modcurve.cusp_function(args.n, cusp)
    series = None if args.divisor else qseries.etaq_expand(f.quotient, prec)
    print(f"f_{cusp.label()} = eta quotient {f.quotient.label()}")
    if args.divisor:
        _emit([{"cusp": s.label(), "width": s.width,
                "order": modcurve.divisor_order(f.quotient, s)}
               for s in modcurve.cusp_classes(args.n)], args.format, ("cusp", "width", "order"))
    else:
        print(series.to_text())
    return 0


def cmd_eta(args) -> int:
    try:
        f = qseries.parse_eta_quotient(args.quotient)
    except ValueError as err:
        raise ValueError(f"--quotient: {err}") from None
    print(qseries.etaq_expand(f, _rational("--prec", args.prec)).to_text())
    return 0


def cmd_kac(args) -> int:
    for cls in enumerate_classes(parse_kind(args.algebra), args.order):
        print(cls.label())
    return 0


def cmd_inner(args) -> int:
    rs = build_root_system(parse_kind(args.algebra))
    h = tuple(_rational("--h coordinate", x) for x in args.h.split(","))
    order, (comps, ab), dim = inner_from_coweight(rs, h)
    print(f"order={order}; fixed={fixed_label(comps, ab)}; dim={dim}")
    return 0


def cmd_screen(args) -> int:
    case = _case(args.case)
    if not 1 <= args.i <= case.n - 1:
        raise ValueError(f"--i must lie in 1..{case.n - 1} for case {case.id}")
    fault, rows = cases_mod.screen_power(case, args.i, floor=_rational("--floor", args.floor))
    if fault:
        print(f"case {case.id}: i={args.i}: {fault}", file=sys.stderr)
        return 1
    _emit(rows, args.format, ("weights", "rho", "twisted"),
          headers=("weights", "rho(M)", "rho(M^h)"))
    return 0


def cmd_case_run(args) -> int:
    if args.format == "csv":
        raise ValueError("case run has no csv format; use --format table or json")
    if args.id is not None and args.all:
        raise ValueError(f"give a case id or --all, not both (got {args.id} and --all)")
    selected = cases_mod.load_cases() if args.id is None else [_case(args.id)]
    reports, _ = cases_mod.verify_all(selected)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=1, sort_keys=True))
    else:
        for case, report in zip(selected, reports):
            print(f"case {case.id}: V1 = {case.source.label()}, n = {case.n}, "
                  f"d = {case.expected_d} ... {'PASS' if report.passed else 'FAIL'}")
            for step in report.steps:
                mark = "ok" if step.passed else "FAIL"
                suffix = f" [{step.provenance}]" if step.provenance != "computed" else ""
                print(f"  {mark:4} {step.name}{suffix}")
                if not step.passed:
                    print(f"       expected {step.expected}, got {step.actual}")
                    if step.details:
                        print(f"       {step.details}")
    return 0 if all(r.passed for r in reports) else 1


def _parse_fixed_spec(spec: str):
    comps = []
    abelian = None
    for chunk in spec.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk.lower().startswith("ab:"):
            try:
                rank = int(chunk[3:])
            except ValueError:
                raise ValueError(f"--fixed abelian rank must be an integer, got {chunk!r}") from None
            if rank < 0:
                raise ValueError(f"--fixed abelian rank must be non-negative, got {chunk!r}")
            abelian = (abelian or 0) + rank
        else:
            comps.append(parse_kind(chunk))
    if not comps and abelian is None:
        raise ValueError(f"--fixed names no component and no ab: part, got {spec!r}")
    return comps, abelian or 0


def cmd_schellekens_scan(args) -> int:
    if args.order < 1:
        raise ValueError(f"--order must be a positive integer, got {args.order}")
    table = cases_mod.load_schellekens()
    comps, abelian = _parse_fixed_spec(args.fixed)
    survivors, faults = cases_mod.schellekens_survivors(table, args.dim, comps, abelian,
                                                        args.order)
    _emit([{"no": e.no, "structure": e.label(), "dim": e.dim} for e in survivors],
          args.format, ("no", "structure", "dim"))
    for fault in faults:
        print(f"witness check failed: {fault}", file=sys.stderr)
    return 1 if faults else 0


GOLDEN_FILES = ("coefficient_table.json", "d_tables.json", "case_summary.json",
                "fixed_ranks.json", "screening_lists.json")


def regenerate_tables():
    """Recompute the five machine-readable reference tables."""
    out = {}
    out["coefficient_table.json"] = {
        str(n): {str(d): json_number(c) for d, c in sorted(orbifold.c_coefficients(n).items())}
        for n in sorted(modcurve.GENUS_ZERO_LEVELS)
    }
    dtables = {}
    for n in sorted(modcurve.GENUS_ZERO_LEVELS - {1}):
        dtables[str(n)] = {f"{i},{j},{k}": v
                           for (i, j, k), v in sorted(orbifold.all_tabulated_triples(n).items())}
    out["d_tables.json"] = dtables
    rows = out["case_summary.json"] = []
    ranks = out["fixed_ranks.json"] = []
    screening = out["screening_lists.json"] = {}
    for case in cases_mod.load_cases():
        d = orbifold.dim_orbifold(cases_mod.fixed_dims_profile(case))
        rows.append(cases_mod.summary_row(case, json_number(d)))
        for record in case.shapes:
            ranks.append({
                "case": case.id, "variant": record.variant or case.id,
                "shape": record.shape.label(), "fixedRank": record.shape.fixed_rank(),
                "vacuumWeight": json_number(orbifold.vacuum_anomaly(record.shape)),
            })
        if case.problematic_modules:
            screening[case.id] = [{k: json_number(v) for k, v in row.items()}
                                  for row in cases_mod.screen_power(case, 1)[1]]
    return out


def cmd_tables_regen(args) -> int:
    import hashlib                      # the manifest alone needs it

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory: {err}", file=sys.stderr)
        return 1
    tables = regenerate_tables()
    texts = {name: json.dumps(tables[name], indent=1, sort_keys=True) + "\n"
             for name in GOLDEN_FILES}
    manifest = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    texts["manifest.json"] = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    for name, text in texts.items():
        try:
            (out_dir / name).write_text(text)
        except OSError as err:
            print(f"cannot write {name}: {err}", file=sys.stderr)
            return 1
    diffs = []
    for name in GOLDEN_FILES:
        try:
            golden = cases_mod._data_text(f"goldens/{name}")
        except FileNotFoundError:
            diffs.append(f"{name}: no golden file")
            continue
        if golden != texts[name]:
            diffs.append(f"{name}: regenerated output differs from the golden file")
    if diffs:
        for d in diffs:
            print(d, file=sys.stderr)
        return 1
    print(f"wrote {len(GOLDEN_FILES)} tables + manifest to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbdim",
                                     description="exact genus-zero orbifold dimension toolkit")
    sub = parser.add_subparsers(dest="command")

    def add_format(p):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("coeffs", help="closed-form orbifold dimension coefficients")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("dcoeff", help="low-order correction coefficient d_{i,j,k}")
    for flag in ("--n", "--i", "--j", "--k"):
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(func=cmd_dcoeff)

    p = sub.add_parser("cusps", help="cusp classes and widths of Gamma0(n)")
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_cusps)

    p = sub.add_parser("hauptmodul", help="eta-quotient Hauptmodul expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prec", default="10")
    p.set_defaults(func=cmd_hauptmodul)

    p = sub.add_parser("fs", help="distinguished cusp function f_s")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cusp", required=True, help="a/c")
    p.add_argument("--divisor", action="store_true", help="print the full divisor instead")
    p.add_argument("--prec", default="6")
    add_format(p)
    p.set_defaults(func=cmd_fs)

    p = sub.add_parser("eta", help="expand an eta quotient")
    p.add_argument("--quotient", required=True, help="comma-separated d:r factors")
    p.add_argument("--prec", default="6")
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("kac", help="order-n automorphism classes of a simple algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_kac)

    p = sub.add_parser("inner", help="order and fixed points of an inner automorphism")
    p.add_argument("--algebra", required=True)
    p.add_argument("--h", required=True, help="comma-separated fundamental-coweight coords")
    p.set_defaults(func=cmd_inner)

    p = sub.add_parser("screen", help="problematic modules of a case")
    p.add_argument("--case", required=True)
    p.add_argument("--i", type=int, default=1, help="power of the automorphism")
    p.add_argument("--floor", default="1")
    add_format(p)
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("case", help="run the verification pipeline")
    case_sub = p.add_subparsers(dest="case_command")
    run = case_sub.add_parser("run")
    run.add_argument("id", nargs="?", help="one case; all cases when omitted")
    run.add_argument("--all", action="store_true", help="all cases, the default")
    add_format(run)
    run.set_defaults(func=cmd_case_run)

    p = sub.add_parser("schellekens", help="scan the weight-one structure table")
    sch_sub = p.add_subparsers(dest="sch_command")
    scan = sch_sub.add_parser("scan")
    scan.add_argument("--dim", type=int, required=True)
    scan.add_argument("--fixed", required=True,
                      help="components joined by '+', abelian rank as ab:r; e.g. A5+C5+D5+ab:1")
    scan.add_argument("--order", type=int, required=True)
    add_format(scan)
    scan.set_defaults(func=cmd_schellekens_scan)

    p = sub.add_parser("tables", help="regenerate the machine-readable reference tables")
    tab_sub = p.add_subparsers(dest="tables_command")
    regen = tab_sub.add_parser("regen")
    regen.add_argument("--out", required=True)
    regen.set_defaults(func=cmd_tables_regen)

    return parser


def main(argv=None) -> int:
    """Run one command.  A data file failing its checks exits 1 and a bad
    value exits 2, each with one stderr line; any other exception, such as
    an ArithmeticError for a broken invariant, propagates."""
    parser = build_parser()
    args = parser.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return func(args)
    except cases_mod.DataLoadError as err:
        print(str(err), file=sys.stderr)
        return 1
    except (ValueError, NotImplementedError, orbifold.NotTabulatedError) as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
