"""Closed forms for the square Frobenius number of <a, a+d>.

Covered are d = 1, 2 and every d with a row in the golden table1.tsv (3..12
today).  For those d >= 3 the answer is exact: the golden value of table2.tsv
when (d, a) has a row there, else the bound B(a, d, 1) of arith, which equals
the square Frobenius number outside the exception set table1.tsv lists.  The
branch label and b come from the alpha-grid cell the bound brackets.

For d = 1, 2 the generic (non-square) case is exact as well; when a sits on
or next to a perfect square the value returned follows the conjectured
branch rule over the u-sequence.  No closed form calls the oracle: the true
value is power_frobenius_oracle(ApSemigroup(a, d, 1), 2), which the verify
sweeps compare these formulas against.

This module is the one parser of the golden tables table1.tsv and table2.tsv.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from math import gcd, isqrt

from .arith import ApSemigroup, _bound_parts
from .core import CanonicalJson, SemigroupError
# Not called here.  perfbench/tracing.py patches closedform.power_frobenius_oracle
# by name, so removing this import makes every traced benchmark run fail.
from .power import power_frobenius_oracle  # noqa: F401


@cache
def _data_text(name):
    return resources.files("sqfrob").joinpath(f"data/{name}").read_text(encoding="ascii")


def load_table1() -> dict[int, list[int]]:
    """Golden exception sets, keyed by d."""
    out = {}
    for line in _data_text("table1.tsv").splitlines()[1:]:
        if not line.strip():
            continue
        d, count, members = line.split("\t")
        vals = [] if members == "-" else [int(x) for x in members.split(",")]
        if len(vals) != int(count):
            raise ValueError(f"corrupt golden table1 row for d={d}")
        out[int(d)] = vals
    return out


def load_table2() -> list[tuple[int, int, int, int]]:
    """Golden rows (d, a, sqfrob_root, bound_root) for the exceptional cases."""
    rows = []
    for line in _data_text("table2.tsv").splitlines()[1:]:
        if not line.strip():
            continue
        d, a, r1, r2 = (int(x) for x in line.split("\t"))
        rows.append((d, a, r1, r2))
    return rows


@cache
def _golden():
    # the d that table1.tsv covers, and table2.tsv's exception roots by (d, a)
    return sorted(load_table1()), {(d, a): root for d, a, root, _ in load_table2()}


class BadResidue(SemigroupError):
    """a shares a factor with d, so <a, a+d> is not a valid input here."""


class EvenInput(SemigroupError):
    """The d = 2 closed form needs odd a."""


# u-sequence: u1=1, u2=2, u3=3, then u_{2n} = u_{2n-1} + u_{2n-2} and
# u_{2n+1} = u_{2n} + u_{2n-2}.  Append-only cache, grown on demand.
_U = [1, 2, 3]


def u(n: int) -> int:
    """n-th term of the u-sequence (1-based)."""
    if n < 1:
        raise ValueError(f"u is 1-based, got index {n}")
    while len(_U) < n:
        m = len(_U) + 1
        if m % 2 == 0:
            _U.append(_U[-1] + _U[-2])
        else:
            _U.append(_U[-1] + _U[-3])
    return _U[n - 1]


# Families of u-indices that select the conjectured branches: residues of the
# index mod 4, plus the smallest admissible index.
_U_FAMILIES = {
    "d1_square": ((1, 2), 1),
    "d1_adjacent": ((3, 0), 3),
    "d2_square": ((1,), 5),
    "d2_square_sqrt3": ((1,), 9),
    "d2_adjacent": ((3,), 3),
}


def u_index_set_member(b: int, family: str) -> bool:
    """Whether b equals some u_n with n in the named index family."""
    residues, lo = _U_FAMILIES[family]
    n = 1
    while True:
        t = u(n)
        if t > b:
            return False
        if t == b:
            return n >= lo and n % 4 in residues
        n += 1


def floor_sqrt2(b: int) -> int:
    """floor(b * sqrt(2)), exactly."""
    return isqrt(2 * b * b)


def floor_sqrt3(b: int) -> int:
    """floor(b * sqrt(3)), exactly."""
    return isqrt(3 * b * b)


def floor_half_sqrt2(c: int) -> int:
    """floor(c / sqrt(2)), exactly."""
    return isqrt(2 * c * c) // 2


@dataclass(frozen=True)
class ClosedFormAnswer(CanonicalJson):
    """Square Frobenius number of <a, a+d> with the branch that produced it.

    value == root ** 2 always; b records the bracketing integer the branch
    used, when there was one.
    """

    a: int
    d: int
    value: int
    root: int
    branch: str
    b: int | None = None

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
    prof, cell, edge = _bound_parts(ApSemigroup(a, d, 1))
    # the branch names the residue r of the grid point mu*d + r bracketing the target
    r = prof.alphas[cell.j - 1]
    branch = f"{d}b-{r}" if 2 * r < d else f"{d}b+{d - r}"
    root = a - edge
    return ClosedFormAnswer(a, d, root * root, root, branch, cell.mu)


def sq_frob_d3(a: int) -> ClosedFormAnswer:
    """Square Frobenius number of <a, a+3>."""
    return _sq_frob_ap(a, 3)


def sq_frob_d4(a: int) -> ClosedFormAnswer:
    """Square Frobenius number of <a, a+4>."""
    return _sq_frob_ap(a, 4)


def sq_frob_d5(a: int) -> ClosedFormAnswer:
    """Square Frobenius number of <a, a+5>."""
    return _sq_frob_ap(a, 5)


def sq_frob_d1(a: int) -> ClosedFormAnswer:
    """Square Frobenius number of <a, a+1>.

    Exact when neither a nor a+1 is a perfect square; otherwise the branch
    choice follows the conjectured u-index rule.
    """
    if a < 2:
        raise SemigroupError(f"a must be >= 2, got {a}")
    b = isqrt(a)
    if b * b == a:
        if u_index_set_member(b, "d1_square"):
            root, branch = a - floor_sqrt3(b), "square-sqrt3"
        else:
            root, branch = a - floor_sqrt2(b), "square-sqrt2"
        return ClosedFormAnswer(a, 1, root * root, root, branch, b)
    c = isqrt(a + 1)
    if c * c == a + 1:
        if not u_index_set_member(c, "d1_adjacent"):
            root, branch = a - floor_sqrt2(c), "adjacent-sqrt2"
        elif c == 3:
            root, branch = 2, "adjacent-u3"
        else:
            root, branch = a - floor_sqrt3(c), "adjacent-sqrt3"
        return ClosedFormAnswer(a, 1, root * root, root, branch, c)
    return ClosedFormAnswer(a, 1, (a - b) ** 2, a - b, "nonsquare", b)


def sq_frob_d2(a: int) -> ClosedFormAnswer:
    """Square Frobenius number of <a, a+2>, a odd.

    Exact when neither a nor a+2 is a perfect square; otherwise conjectured
    as in sq_frob_d1.
    """
    if a < 3:
        raise SemigroupError(f"a must be >= 3, got {a}")
    if a % 2 == 0:
        raise EvenInput(f"a = {a} is even")
    c = isqrt(a)
    if c * c == a:
        if c == 7:
            root, branch = 38, "square-u5"
        elif u_index_set_member(c, "d2_square_sqrt3"):
            root, branch = a - floor_sqrt3(c), "square-sqrt3"
        else:
            root, branch = a - 2 * floor_half_sqrt2(c), "square-sqrt2"
        return ClosedFormAnswer(a, 2, root * root, root, branch, (c - 1) // 2)
    c = isqrt(a + 2)
    if c * c == a + 2:
        if u_index_set_member(c, "d2_adjacent"):
            root, branch = a - floor_sqrt3(c), "adjacent-sqrt3"
        else:
            root, branch = a - 2 * floor_half_sqrt2(c), "adjacent-sqrt2"
        return ClosedFormAnswer(a, 2, root * root, root, branch, (c - 1) // 2)
    c = isqrt(a)
    if c % 2 == 0:
        c -= 1
    return ClosedFormAnswer(a, 2, (a - c) ** 2, a - c, "nonsquare", (c - 1) // 2)


def square_frobenius_closed(a: int, d: int) -> ClosedFormAnswer:
    """The closed form for d = 1, 2 or any d with a golden table1.tsv row."""
    if d == 1:
        return sq_frob_d1(a)
    if d == 2:
        return sq_frob_d2(a)
    return _sq_frob_ap(a, d)
