"""Command line interface.

Subcommands mirror the library: frobenius, member, power-frob, power-min,
bound, exceptions, tables, verify.  Output goes to stdout in the format
selected by --format (json by default, compact and deterministic);
diagnostics go to stderr.  Exit codes: 0 success, 1 a verification found
mismatches, 2 invalid input or an input too large for available memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from math import gcd, isqrt

from .arith import ApSemigroup, _bound_parts, ap_contains
from .closedform import square_frobenius_closed
from .core import (NumericalSemigroup, SemigroupError, _checked_generators,
                   contains, frobenius)
from .power import PowerFrobResult, power_frobenius_oracle, power_min_oracle
from .verify import (compare_table1, exception_set, reproduce_table2,
                     verify_conjectures, verify_min_power_theorem,
                     verify_theorem_bound)


def _gens_arg(text):
    try:
        gens = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not gens:
        raise argparse.ArgumentTypeError("no generators given")
    return gens


def _emit_json(payload):
    if hasattr(payload, "to_json"):
        return payload.to_json()
    return json.dumps(payload, separators=(",", ":"))


def _csv_cell(v):
    return v if isinstance(v, (int, float, str, bool)) else json.dumps(v, separators=(",", ":"))


def _emit_csv(payload):
    buf = io.StringIO()
    w = csv.writer(buf)
    obj = payload.to_dict() if hasattr(payload, "to_dict") else payload
    if isinstance(obj, dict):
        rows = None
        for key in ("members", "mismatches"):
            if isinstance(obj.get(key), list) and obj[key] and isinstance(obj[key][0], dict):
                rows = obj[key]
                break
        if rows is not None:
            header = list(rows[0].keys())
            w.writerow(header)
            for r in rows:
                w.writerow([_csv_cell(r.get(h)) for h in header])
        else:
            w.writerow(obj.keys())
            w.writerow([_csv_cell(v) for v in obj.values()])
    else:
        w.writerow([_csv_cell(obj)])
    return buf.getvalue().rstrip("\n")


def _emit_text(payload):
    if hasattr(payload, "to_text"):
        return payload.to_text()
    obj = payload.to_dict() if hasattr(payload, "to_dict") else payload
    if isinstance(obj, dict):
        width = max(len(k) for k in obj)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in obj.items())
    return str(obj)


def _emit(payload, fmt):
    if fmt == "csv":
        print(_emit_csv(payload))
    elif fmt == "text":
        print(_emit_text(payload))
    else:
        print(_emit_json(payload))


def _cmd_frobenius(args):
    return frobenius(NumericalSemigroup(args.gens)), 0


def _cmd_member(args):
    return contains(NumericalSemigroup(args.gens), args.value), 0


def _closed_form_result(gens, k):
    # Decides <gens> = <a, a+d> without an Apery table: a is the least
    # generator, a+d the least one a does not divide, and every generator
    # must be in <a, a+d>.  square_frobenius_closed owns the covered d.
    gens = _checked_generators(gens)
    if k != 2:
        raise SemigroupError("closed forms cover squares only (need --k 2)")
    a = gens[0]
    b = next((g for g in gens if g % a), None)
    if (b is None or gcd(a, b) != 1
            or not all(ap_contains(ApSemigroup(a, b - a, 1), g) for g in gens)):
        raise SemigroupError(
            f"closed forms cover <a, a+d> only; got generators {gens}")
    ans = square_frobenius_closed(a, b - a)
    return PowerFrobResult(k=2, root=ans.root, value=ans.value, method="closed_form")


def _cmd_power_frob(args):
    if args.method == "closed":
        return _closed_form_result(args.gens, args.k), 0
    return power_frobenius_oracle(NumericalSemigroup(args.gens), args.k), 0


def _cmd_power_min(args):
    return power_min_oracle(NumericalSemigroup(args.gens), args.k), 0


def _cmd_bound(args):
    prof, cell, edge = _bound_parts(ApSemigroup(args.a, args.d, args.k))
    value = (args.a - edge) ** 2
    payload = {"a": args.a, "d": args.d, "k": args.k,
               "root": isqrt(value), "value": value, "method": "bound"}
    if args.dump_profile:
        payload["profile"] = prof.to_dict()
        payload["profile"].update({"mu": cell.mu, "j": cell.j, "target": cell.target,
                                   "edge": edge})
    return payload, 0


def _cmd_exceptions(args):
    return exception_set(args.d, jobs=args.jobs), 0


def _cmd_tables(args):
    report = compare_table1(jobs=args.jobs) if args.which == 1 else reproduce_table2()
    return report, 0 if report.passed else 1


def _cmd_verify(args):
    if args.target == "conj1":
        report = verify_conjectures(1, args.max, jobs=args.jobs)
    elif args.target == "conj2":
        report = verify_conjectures(2, args.max, jobs=args.jobs)
    elif args.target == "theorem-ap":
        report = verify_theorem_bound(args.d, args.k, 2, args.max, jobs=args.jobs)
    else:
        report = verify_min_power_theorem(2, args.max, jobs=args.jobs)
    return report, 0 if report.passed else 1


def _parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="output format (default json)")

    p = argparse.ArgumentParser(prog="sqfrob",
                                description="Square and k-power Frobenius numbers "
                                            "of numerical semigroups")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("frobenius", parents=[common],
                        help="largest integer not in the semigroup")
    sp.add_argument("--gens", type=_gens_arg, required=True)
    sp.set_defaults(handler=_cmd_frobenius)

    sp = sub.add_parser("member", parents=[common], help="membership test")
    sp.add_argument("--gens", type=_gens_arg, required=True)
    sp.add_argument("--value", type=int, required=True)
    sp.set_defaults(handler=_cmd_member)

    sp = sub.add_parser("power-frob", parents=[common],
                        help="largest perfect k-power outside the semigroup")
    sp.add_argument("--gens", type=_gens_arg, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--method", choices=("oracle", "closed"), default="oracle")
    sp.set_defaults(handler=_cmd_power_frob)

    sp = sub.add_parser("power-min", parents=[common],
                        help="smallest positive perfect k-power in the semigroup")
    sp.add_argument("--gens", type=_gens_arg, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(handler=_cmd_power_min)

    sp = sub.add_parser("bound", parents=[common],
                        help="closed-form square upper bound B(a, d, k)")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--dump-profile", action="store_true",
                    help="include the lambda/alpha profile and bracket cell")
    sp.set_defaults(handler=_cmd_bound)

    sp = sub.add_parser("exceptions", parents=[common],
                        help="first terms where the square oracle misses the bound")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--jobs", type=int, default=None)
    sp.set_defaults(handler=_cmd_exceptions)

    sp = sub.add_parser("tables", parents=[common],
                        help="recompute a golden table and diff it")
    sp.add_argument("--which", type=int, choices=(1, 2), required=True)
    sp.add_argument("--jobs", type=int, default=None)
    sp.set_defaults(handler=_cmd_tables)

    sp = sub.add_parser("verify", parents=[common], help="run a verification sweep")
    sp.add_argument("--target", choices=("conj1", "conj2", "theorem-ap", "min-power"),
                    required=True)
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--d", type=int, default=3, help="for theorem-ap (default 3)")
    sp.add_argument("--k", type=int, default=2, help="for theorem-ap (default 2)")
    sp.add_argument("--jobs", type=int, default=None)
    sp.set_defaults(handler=_cmd_verify)

    return p


def run(argv) -> int:
    args = _parser().parse_args(argv)
    payload, code = args.handler(args)
    if payload is not None:
        _emit(payload, args.format)
    return code


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large for available memory; an Apery table takes one "
              "entry per unit of the multiplicity (the least generator)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
