"""Closed forms for the square Frobenius number of <a, a+d>.

Covered are d = 1, 2 and every d with a row in the golden table1.tsv (3..12
today).  For those d >= 3 the answer is exact: the golden value of table2.tsv
when (d, a) has a row there, else the bound B(a, d, 1) of arith, which equals
the square Frobenius number outside the exception set table1.tsv lists.  The
branch label and b come from the alpha-grid cell the bound brackets.

For d = 1, 2 one branch rule covers both: when a ("square") or a+d
("adjacent") is a perfect square c^2, the root is a - s if c is in that
case's u-number family, s the largest integer <= c*sqrt(3) congruent to 1 mod
d, else a - d*(floor(c*sqrt(2)) // d); one small u-number in two of the four
cases has a fixed root instead.  The family is the c > 1 solving the Pell
equation c^2 - 2y^2 = -e, or for d = 1 also x^2 - 2c^2 = e, with e = +1 for
"square" and -1 for "adjacent"; c = 1 is in the d = 1 square family only.
For d = 2, s is floor(c*sqrt(3)) made odd, which departs from
floor(c*sqrt(3)) as transcribed: the oracle's root is one larger whenever
floor(c*sqrt(3)) is even, first at c = 1393.  Every other a is exact: its
root is a - c for the largest c <= sqrt(a) congruent to a mod d.  The square
and adjacent branches are conjectured.  No closed form calls the oracle: the
true value is power_frobenius_oracle(ApSemigroup(a, d, 1), 2), which the
verify sweeps compare these formulas against.

This module is the one parser of the golden tables table1.tsv and table2.tsv.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cache
from math import gcd, isqrt

from .arith import ApSemigroup, _bound_parts
from .core import CanonicalJson, SemigroupError
# Not called here.  perfbench/tracing.py patches closedform.power_frobenius_oracle
# by name, so removing this import makes every traced benchmark run fail.
from .power import power_frobenius_oracle  # noqa: F401


@cache
def _data_text(name):
    # a plain file next to this module (pyproject.toml package-data ships it),
    # so a zip import cannot read it
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="ascii") as fh:
        return fh.read()


def _rows(name):
    """Tab-split fields of every non-blank row of a golden table, header skipped."""
    for line in _data_text(name).splitlines()[1:]:
        if line.strip():
            yield line.split("\t")


def load_table1() -> dict[int, list[int]]:
    """Golden exception sets, keyed by d."""
    out = {}
    for d, count, members in _rows("table1.tsv"):
        vals = [] if members == "-" else [int(x) for x in members.split(",")]
        if len(vals) != int(count):
            raise ValueError(f"corrupt golden table1 row for d={d}")
        out[int(d)] = vals
    return out


def load_table2() -> list[tuple[int, int, int, int]]:
    """Golden rows (d, a, sqfrob_root, bound_root) for the exceptional cases."""
    return [(int(d), int(a), int(r1), int(r2)) for d, a, r1, r2 in _rows("table2.tsv")]


@cache
def _golden():
    # the d that table1.tsv covers, and table2.tsv's exception roots by (d, a)
    return sorted(load_table1()), {(d, a): root for d, a, root, _ in load_table2()}


class BadResidue(SemigroupError):
    """a shares a factor with d, so <a, a+d> is not a valid input here."""


class EvenInput(SemigroupError):
    """The d = 2 closed form needs odd a."""


def u(n: int) -> int:
    """n-th term of the u-sequence 1, 2, 3, 5, 7, 12, ... (1-based).

    The convergents p/q of sqrt(2) run 1/1, 3/2, 7/5, 17/12, ..., each from
    the last by (p, q) <- (p + 2q, p + q); u_n is p for odd n and q for even
    n after floor(n/2) of those steps.
    """
    if n < 1:
        raise ValueError(f"u is 1-based, got index {n}")
    p = q = 1
    for _ in range(n // 2):
        p, q = p + 2 * q, p + q
    return p if n % 2 else q


# the sign s of each family's Pell equations (u_index_set_member)
_PELL_SIGN = {"d1_square": 1, "d1_adjacent": -1, "d2_square": 1, "d2_adjacent": -1}


def u_index_set_member(b: int, family: str) -> bool:
    """Whether b equals some u_n with n in the named index family.

    The convergents p/q of sqrt(2) are the positive solutions of Pell's
    equation p*p - 2*q*q = -1, +1 in turn.  With s = +1 for the "square"
    families and -1 for the "adjacent" ones, b > 1 is in the family when
    (b*b + s)/2 is a square (b = p = u_n, n odd), or for d1 also when
    2*b*b + s is a square (b = q, n even).  b = 1 = u_1 is in d1_square only.
    """
    s = _PELL_SIGN[family]
    if b < 2:
        return b == 1 and family == "d1_square"
    return (2 * isqrt((b * b + s) // 2) ** 2 == b * b + s
            or family.startswith("d1") and isqrt(2 * b * b + s) ** 2 == 2 * b * b + s)


class ClosedFormAnswer(namedtuple("ClosedFormAnswer", "a d value root branch b",
                                  defaults=(None,)), CanonicalJson):
    """Square Frobenius number of <a, a+d> with the branch that produced it.

    value == root ** 2 always; b records the bracketing integer the branch
    used, when there was one.  A named tuple, so equality is tuple equality.
    """

    __slots__ = ()

    def to_dict(self):
        return {"a": self.a, "d": self.d, "value": self.value,
                "root": self.root, "branch": self.branch}


def _sq_frob_ap(a, d):
    """Exact for every d with a table1.tsv row: the golden exception row, else B(a, d, 1)."""
    covered, roots = _golden()
    if d not in covered:
        raise SemigroupError(f"no closed form for d = {d} (need 1 <= d <= {covered[-1]})")
    if gcd(a, d) != 1:
        raise BadResidue(f"a = {a} shares a factor with d = {d}")
    root = roots.get((d, a))
    if root is not None:
        return ClosedFormAnswer(a, d, root * root, root, "exception")
    prof, mu, j, _, edge = _bound_parts(ApSemigroup(a, d, 1))
    # the branch names the residue r of the grid point mu*d + r bracketing the target
    r = prof.alphas[j - 1]
    branch = f"{d}b-{r}" if 2 * r < d else f"{d}b+{d - r}"
    root = a - edge
    return ClosedFormAnswer(a, d, root * root, root, branch, mu)


# The d = 1, 2 rule has one row per (d, kind): kind "square" looks at t = a,
# "adjacent" at t = a + d, and the u-index family is f"d{d}_{kind}".  A row's
# value is its off-rule member (c, root, branch), which the rule would miss.
_OFF_RULE = {
    (1, "square"): None,
    (1, "adjacent"): (3, 2, "adjacent-u3"),
    (2, "square"): (7, 38, "square-u5"),
    (2, "adjacent"): None,
}


def _sq_frob_small(a, d):
    """The branch rule for d = 1, 2 (module docstring); b is (c + 1 - d) // d."""
    if a < d + 1:
        raise SemigroupError(f"a must be >= {d + 1}, got {a}")
    if gcd(a, d) != 1:
        raise EvenInput(f"a = {a} is even")
    for kind, t in (("square", a), ("adjacent", a + d)):
        c = isqrt(t)
        if c * c == t:
            off = _OFF_RULE[d, kind]
            if off and off[0] == c:
                _, root, branch = off
            elif u_index_set_member(c, f"d{d}_{kind}"):
                # the largest s <= c*sqrt(3) with s = 1 mod d: for d = 2 an
                # even floor(c*sqrt(3)) is one too large (c = 1393 on)
                s = isqrt(3 * c * c)
                root, branch = a - s + (s - 1) % d, f"{kind}-sqrt3"
            else:
                root, branch = a - isqrt(2 * c * c) // d * d, f"{kind}-sqrt2"
            break
    else:
        s = isqrt(a)
        c = s - (s - a) % d
        root, branch = a - c, "nonsquare"
    return ClosedFormAnswer(a, d, root * root, root, branch, (c + 1 - d) // d)


def sq_frob_d1(a: int) -> ClosedFormAnswer:
    """Square Frobenius number of <a, a+1>; conjectured when a or a+1 is a square."""
    return _sq_frob_small(a, 1)


def sq_frob_d2(a: int) -> ClosedFormAnswer:
    """Square Frobenius number of <a, a+2>, a odd; conjectured when a or a+2 is a square."""
    return _sq_frob_small(a, 2)


def square_frobenius_closed(a: int, d: int) -> ClosedFormAnswer:
    """The closed form for d = 1, 2 or any d with a golden table1.tsv row."""
    return _sq_frob_small(a, d) if d in (1, 2) else _sq_frob_ap(a, d)
