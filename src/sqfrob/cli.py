"""Command line interface.

Subcommands mirror the library: frobenius, member, power-frob, power-min,
bound, exceptions, tables, verify.  Output goes to stdout in the format
selected by --format (json by default, compact and deterministic);
diagnostics and a sweep's wall time go to stderr.  Exit codes: 0 success,
1 a verification found mismatches, 2 invalid input or an input too large
for available memory.
"""

from __future__ import annotations

import argparse
import sys
from math import gcd, isqrt

# Every command prints through core; each handler imports the rest of what it
# runs, so that a command loads only its own modules (verify, and with it
# multiprocessing, only for the sweeps).
from .core import (NumericalSemigroup, SemigroupError, _canonical_json,
                   _checked_generators, contains, frobenius)


def _int_arg(text):
    """The one parser of integer options and --gens items; its error is one short line."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-").replace("_", "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits.isdecimal() and 0 < limit < len(digits):
        raise argparse.ArgumentTypeError(f"integer of {len(digits)} digits exceeds Python's "
                                         f"int string conversion limit of {limit} digits")
    import reprlib
    raise argparse.ArgumentTypeError(f"expected an integer, got {reprlib.repr(text)}")


def _gens_arg(text):
    gens = [_int_arg(x) for x in text.split(",") if x.strip()]
    if not gens:
        raise argparse.ArgumentTypeError("no generators given")
    return gens


def _cell(v):
    # a scalar as it is, a list or an object as its canonical JSON
    return v if isinstance(v, (int, float, str, bool)) else _canonical_json(v)


def _emit(payload, fmt):
    """Print the payload's to_dict() as canonical JSON, or its keys over one row of cells.

    csv is a header row and one row, text one aligned "key  value" line per
    key; the keys, and so the columns, depend only on the report type.  A
    bare scalar (frobenius, member) prints alone.
    """
    obj = payload.to_dict() if hasattr(payload, "to_dict") else payload
    if fmt == "json":
        print(_canonical_json(obj))
        return
    rows = [list(obj), [_cell(v) for v in obj.values()]] if isinstance(obj, dict) else [[obj]]
    if fmt == "csv":
        import csv
        csv.writer(sys.stdout).writerows(rows)
    elif isinstance(obj, dict):
        width = max(map(len, obj))
        print("\n".join(f"{k:<{width}}  {v}" for k, v in zip(*rows)))
    else:
        print(obj)


def _cmd_frobenius(args):
    return frobenius(NumericalSemigroup(args.gens))


def _cmd_member(args):
    return contains(NumericalSemigroup(args.gens), args.value)


def _closed_form_result(gens, k):
    # Decides <gens> = <a, a+d> without an Apery table: a is the least
    # generator, a+d the least one a does not divide, and every generator
    # must be in <a, a+d>.  square_frobenius_closed owns the covered d.
    from .arith import ApSemigroup, ap_contains
    from .closedform import square_frobenius_closed
    from .power import PowerFrobResult
    gens = _checked_generators(gens)
    if k != 2:
        raise SemigroupError("closed forms cover squares only (need --k 2)")
    a = gens[0]
    b = next((g for g in gens if g % a), None)
    ap = ApSemigroup(a, b - a, 1) if b is not None and gcd(a, b) == 1 else None
    if ap is None or not all(ap_contains(ap, g) for g in gens):
        raise SemigroupError(
            f"closed forms cover <a, a+d> only; got generators {gens}")
    ans = square_frobenius_closed(a, b - a)
    return PowerFrobResult(k=2, root=ans.root, value=ans.value, method="closed_form")


def _cmd_power_frob(args):
    if args.method == "closed":
        return _closed_form_result(args.gens, args.k)
    from .power import power_frobenius_oracle
    return power_frobenius_oracle(NumericalSemigroup(args.gens), args.k)


# Unless 1 is a generator the answer is at least 2^k, which has more than
# 100,000 digits past this k; printing it takes time quadratic in that.
_POWER_MIN_MAX_K = 332_192


def _cmd_power_min(args):
    from .power import power_min_oracle
    if args.k > _POWER_MIN_MAX_K and _checked_generators(args.gens)[0] != 1:
        raise ValueError(f"--k past {_POWER_MIN_MAX_K} needs 1 as a generator: otherwise "
                         "the answer is at least 2^k, more than 100,000 digits")
    return power_min_oracle(NumericalSemigroup(args.gens), args.k)


def _cmd_bound(args):
    from .arith import ApSemigroup, _bound_parts
    prof, mu, j, target, edge = _bound_parts(ApSemigroup(args.a, args.d, args.k))
    value = (args.a - edge) ** 2
    payload = {"a": args.a, "d": args.d, "k": args.k,
               "root": isqrt(value), "value": value, "method": "bound"}
    if args.dump_profile:
        payload["profile"] = {**prof.to_dict(), "mu": mu, "j": j,
                              "target": target, "edge": edge}
    return payload


def _cmd_exceptions(args):
    from .verify import exception_set
    return exception_set(args.d, jobs=args.jobs)


def _cmd_tables(args):
    from .verify import compare_table1, reproduce_table2
    return compare_table1(jobs=args.jobs) if args.which == 1 else reproduce_table2()


# each target's sweep, called with the verify module as v
_VERIFY_TARGETS = {
    "conj1": lambda v, args: v.verify_conjectures(1, args.max, jobs=args.jobs),
    "conj2": lambda v, args: v.verify_conjectures(2, args.max, jobs=args.jobs),
    "theorem-ap": lambda v, args: v.verify_theorem_bound(args.d, args.k, 2, args.max,
                                                         jobs=args.jobs),
    "min-power": lambda v, args: v.verify_min_power_theorem(2, args.max, jobs=args.jobs),
}


def _cmd_verify(args):
    from . import verify
    return _VERIFY_TARGETS[args.target](verify, args)


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
    sp.add_argument("--value", type=_int_arg, required=True)
    sp.set_defaults(handler=_cmd_member)

    sp = sub.add_parser("power-frob", parents=[common],
                        help="largest perfect k-power outside the semigroup")
    sp.add_argument("--gens", type=_gens_arg, required=True)
    sp.add_argument("--k", type=_int_arg, required=True)
    sp.add_argument("--method", choices=("oracle", "closed"), default="oracle")
    sp.set_defaults(handler=_cmd_power_frob)

    sp = sub.add_parser("power-min", parents=[common],
                        help="smallest positive perfect k-power in the semigroup")
    sp.add_argument("--gens", type=_gens_arg, required=True)
    sp.add_argument("--k", type=_int_arg, required=True)
    sp.set_defaults(handler=_cmd_power_min)

    sp = sub.add_parser("bound", parents=[common],
                        help="closed-form square upper bound B(a, d, k)")
    sp.add_argument("--a", type=_int_arg, required=True)
    sp.add_argument("--d", type=_int_arg, required=True)
    sp.add_argument("--k", type=_int_arg, required=True)
    sp.add_argument("--dump-profile", action="store_true",
                    help="include the lambda/alpha profile and bracket cell")
    sp.set_defaults(handler=_cmd_bound)

    sp = sub.add_parser("exceptions", parents=[common],
                        help="first terms where the square oracle misses the bound")
    sp.add_argument("--d", type=_int_arg, required=True)
    sp.add_argument("--jobs", type=_int_arg, default=None)
    sp.set_defaults(handler=_cmd_exceptions)

    sp = sub.add_parser("tables", parents=[common],
                        help="recompute a golden table and diff it")
    sp.add_argument("--which", type=_int_arg, choices=(1, 2), required=True)
    sp.add_argument("--jobs", type=_int_arg, default=None)
    sp.set_defaults(handler=_cmd_tables)

    sp = sub.add_parser("verify", parents=[common], help="run a verification sweep")
    sp.add_argument("--target", choices=_VERIFY_TARGETS, required=True)
    sp.add_argument("--max", type=_int_arg, required=True)
    sp.add_argument("--d", type=_int_arg, default=3, help="for theorem-ap (default 3)")
    sp.add_argument("--k", type=_int_arg, default=2, help="for theorem-ap (default 2)")
    sp.add_argument("--jobs", type=_int_arg, default=None)
    sp.set_defaults(handler=_cmd_verify)

    return p


def run(argv) -> int:
    args = _parser().parse_args(argv)
    payload = args.handler(args)
    # Python caps int -> decimal str conversion (4300 digits by default, 0 is
    # no cap) and answers may be longer; parsing the input above keeps the cap
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _emit(payload, args.format)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    # a sweep's timing goes to stderr, so stdout stays the same on every run
    if hasattr(payload, "wall_time"):
        print(f"walltime: {payload.wall_time:.2f}s", file=sys.stderr)
    return 0 if getattr(payload, "passed", True) else 1


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large for available memory; an Apery table takes one "
              "entry per unit of the multiplicity (the least generator), a lambda "
              "profile one per unit of d", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
