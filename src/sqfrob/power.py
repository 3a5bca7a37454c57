"""Brute-force oracles for extremal perfect powers in a semigroup.

The oracles are deliberately simple scans built on exact integer roots; they
serve as the ground truth that the closed forms and bounds are checked
against.  Both accept a NumericalSemigroup or an ApSemigroup (the latter gets
O(1) membership, which keeps large sweeps cheap).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .arith import ApSemigroup, ap_contains, ap_frobenius
from .core import NegativeInput, apery_set, contains, frobenius


def isqrt(n: int) -> int:
    """Floor square root, exact for any size of integer."""
    if n < 0:
        raise NegativeInput(f"square root of negative {n}")
    return math.isqrt(n)


def kth_root_floor(n: int, k: int) -> int:
    """Largest m with m**k <= n, exact (no floating point)."""
    if n < 0:
        raise NegativeInput(f"root of negative {n}")
    if k < 1:
        raise ValueError(f"root index must be >= 1, got {k}")
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    if n == 0:
        return 0
    lo, hi = 0, 1 << ((n.bit_length() + k - 1) // k)  # hi**k > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class PowerFrobResult:
    """A perfect k-power extremum of a semigroup, with provenance.

    method is one of "oracle", "closed_form", "bound".  witness, when
    present, is the data disproving membership of the reported power.
    """

    k: int
    root: int
    value: int
    method: str
    witness: dict | None = None

    def to_dict(self):
        return {"k": self.k, "root": self.root, "value": self.value, "method": self.method}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def power_frobenius_oracle(S, k: int) -> PowerFrobResult:
    """Largest perfect k-power outside S, by downward scan.

    Every k-power above the Frobenius number is in S, so starting the scan at
    kth_root_floor(frobenius(S), k) loses nothing; the scan terminates because
    1 is outside every semigroup other than N itself.
    """
    if k < 2:
        raise ValueError(f"power must be >= 2, got {k}")
    if isinstance(S, ApSemigroup):
        a, d, kk, dinv = S.a, S.d, S.k, S._dinv
        m = kth_root_floor(ap_frobenius(S), k)
        while m > 0:
            v = m * m if k == 2 else m ** k
            y = (v * dinv) % a
            x = (v - d * y) // a
            if x < 0 or y > kk * x:
                return PowerFrobResult(k, m, v, "oracle", witness={"x": x, "y": y})
            m -= 1
    else:
        m = kth_root_floor(frobenius(S), k)
        table = apery_set(S)
        entries, mod = table.entries, table.modulus
        while m > 0:
            v = m * m if k == 2 else m ** k
            least = entries[v % mod]
            if v < least:
                return PowerFrobResult(k, m, v, "oracle",
                                       witness={"residue": v % mod, "apery_entry": least})
            m -= 1
    raise AssertionError("scan fell through: the semigroup contains 1")


def power_min_oracle(S, k: int) -> PowerFrobResult:
    """Smallest positive perfect k-power in S; halts by m = multiplicity."""
    if k < 2:
        raise ValueError(f"power must be >= 2, got {k}")
    if isinstance(S, ApSemigroup):
        member = lambda v: ap_contains(S, v)
    else:
        member = lambda v: contains(S, v)
    m = 1
    while True:
        v = m ** k
        if member(v):
            return PowerFrobResult(k, m, v, "oracle")
        m += 1
