"""Brute-force oracles for extremal perfect powers in a semigroup.

The oracles are deliberately simple scans built on exact integer roots; they
serve as the ground truth that the closed forms and bounds are checked
against.  Both accept a NumericalSemigroup, scanned against its Apery table,
or an ApSemigroup, which needs no table.  The largest-power scan over an
ApSemigroup tests each root with one inequality: with v = a*x + d*y and
0 <= y < a, v lies outside <a, a+d, ..., a+kd> exactly when
(a + k*d)*y > k*v.  That test reads only the decomposition, never the lambda
profile, so the oracle stays independent of the bound it checks.

Squares take one of two routes.  In <a, a+d> the scan runs upward on the
offset e = a - m, which keeps its modular product small:
m*m = e*e (mod a), so z = -e*e*d^-1 mod a gives y = a - z when z != 0 and
y = 0 (a member) when z == 0, and (a + d)*(a - z) > (a - e)**2 expands to
a*(d + 2e - z) > d*z + e*e.  After 224 roots without an answer it hands
the rest to the packed scan, which runs every other square scan (k >= 2)
from its first root.  That scan packs y = m*m*d^-1 mod a for 64
consecutive roots into one Python int, a lane of W = 8*ceil((bits(a) + 2)/8)
bits per root, and steps all 64 lanes with a dozen big-int operations:
with L = 64 and G(m) = (2mL - L*L)*d^-1 mod a, y(m-L) = y(m) - G(m) and
G(m-L) = G(m) - 2L*L*d^-1.  A lane sum t in [0, 2a) is reduced mod a by
its guard bit W - 1, which t + 2**(W-1) - a sets exactly when t >= a; no
lane carries into the next.  Every root of a step is at least its lowest
root n, so the same guard bit marks the lanes with y > k*n*n // (a + k*d),
and only those take the exact test, highest root first.  Both routes test
every root from the top down and return the first missing one, so the
answer and steps are those of the plain scan.  On every route the
largest-power oracle records the number of roots it scanned in steps,
outside the canonical JSON.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .arith import ApSemigroup, _roberts, ap_contains, decompose
from .core import CanonicalJson, NegativeInput, apery_set, contains, frobenius


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
    lo, hi = 0, 1 << ((n.bit_length() + k - 1) // k)  # hi**k > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


class PowerFrobResult(namedtuple("PowerFrobResult", "k root value method witness steps",
                                 defaults=(None, None)), CanonicalJson):
    """A perfect k-power extremum of a semigroup, with provenance.

    method is "oracle" or "closed_form".  (The CLI's bound answer also says
    method "bound", but it is a plain dict, never a PowerFrobResult.)  witness,
    when present, is the data disproving membership of the reported power.
    steps, when present, is the number of roots the oracle scanned; like the
    witness it stays out of the canonical JSON.  A named tuple, so equality
    is tuple equality.
    """

    __slots__ = ()

    def to_dict(self):
        return {"k": self.k, "root": self.root, "value": self.value, "method": self.method}


def power_frobenius_oracle(S, k: int) -> PowerFrobResult:
    """Largest perfect k-power outside S, by downward scan.

    Every k-power above the Frobenius number is in S, so starting the scan at
    kth_root_floor(frobenius(S), k) loses nothing; the scan terminates because
    1 is outside every semigroup other than N itself.
    """
    if k < 2:
        raise ValueError(f"power must be >= 2, got {k}")
    if isinstance(S, ApSemigroup):
        m, top = _ap_scan(S.a, S.d, S.k, k)
        # the witness is the decomposition of m**k, rebuilt once the scan has stopped
        v = m ** k
        x, y = decompose(S, v)
        return PowerFrobResult(k, m, v, "oracle", witness={"x": x, "y": y}, steps=top - m + 1)
    top = kth_root_floor(frobenius(S), k)
    table = apery_set(S)
    entries, mod = table.entries, table.modulus
    for m in range(top, 0, -1):
        v = m * m if k == 2 else m ** k
        if v < entries[v % mod]:
            witness = {"residue": v % mod, "apery_entry": entries[v % mod]}
            return PowerFrobResult(k, m, v, "oracle", witness=witness, steps=top - m + 1)
    raise AssertionError("scan fell through: the semigroup contains 1")


# the offset scan tests _OFFSET_HANDOFF roots one at a time, then hands
# the rest to the packed scan, which steps _LANES roots at once
_OFFSET_HANDOFF = 224
_LANES = 64


def _ap_scan(a, d, kk, k):
    """(m, top): the largest root m with m**k outside <a, a+d, ..., a+kk*d>, on plain ints.

    top is the root the scan starts from, so it scanned top - m + 1 roots.
    a, d and kk must be those of an ApSemigroup; the sweeps call this
    directly, so that they build no object per first term.
    """
    # v = a*x + d*y with 0 <= y < a is outside S iff x < 0 or y > kk*x,
    # which for kk >= 1 is the single test (a + kk*d)*y > kk*v
    dinv = pow(d, -1, a)
    c = a + kk * d
    top = kth_root_floor(_roberts(a, d, kk), k)
    if k == 2 and kk == 1:
        # squares in <a, a+d>, on the offset e = a - m scanned upward from
        # a - top: the product reduced mod a is e*e*nd, small when e is,
        # not m*m*dinv.  m*m = e*e (mod a), so z = -e*e*dinv mod a gives
        # y = a - z when z != 0, and y = 0 (a member) when z == 0; and
        # (a + d)*(a - z) > (a - e)**2 expands to a*(w - z) > d*z + e*e
        # with w = d + 2e.  After _OFFSET_HANDOFF roots without an answer
        # the packed scan goes on from the next root; every other square
        # scan runs on it from top.  top is about a + (d - 2)/2, so on this
        # route |e| stays below about _OFFSET_HANDOFF + d at any a.
        nd = a - dinv
        first = a - top
        w = d + 2 * first
        for e in range(first, min(a, first + _OFFSET_HANDOFF)):
            z = e * e * nd % a
            if z < w and z and a * (w - z) > d * z + e * e:
                return a - e, top
            w += 2
        if top > _OFFSET_HANDOFF:
            return _packed_scan(a, c, kk, dinv, top - _OFFSET_HANDOFF, top)
    elif k == 2:
        return _packed_scan(a, c, kk, dinv, top, top)
    else:
        for m in range(top, 0, -1):
            v = m ** k
            if c * (v * dinv % a) > kk * v:
                return m, top
    raise AssertionError("scan fell through: the semigroup contains 1")


def _packed_scan(a, c, kk, dinv, hi, top):
    """(m, top): the square scan of _ap_scan from root hi down, _LANES roots a step.

    c = a + kk*d.  Lane j of the int Y holds y(m) = m*m*dinv mod a for
    m = hi - j, and lane j of H holds h(m) = -G(m) = (L*L - 2mL)*dinv mod a,
    with L = _LANES.  Since (m - L)**2 = m*m - (2mL - L*L), one step is
    y <- y + h and h <- h + 2L*L*dinv, both lane-wise mod a.  Past root 1
    the lanes hold roots <= 0, which are never reached: root 1 is missing
    from every semigroup with a >= 2, so the scan stops there.
    """
    L = _LANES
    # lanes are whole bytes with two bits to spare: a lane holds less than
    # 2a < 2**guard, so it never reaches its guard bit before the reduction
    # adds 2**guard - a, and no lane carries into the next
    width = 8 * ((a.bit_length() + 2 + 7) // 8)
    guard, lane = width - 1, (1 << width) - 1
    Y, H, ones, step = _lanes(a, dinv, hi * hi * dinv % a, (2 * hi - 1) * dinv % a, width)
    # a lane t in [0, 2a) sets its guard bit in t + 2**guard - a exactly
    # when t >= a, so t - (guard bits >> guard)*a is every lane mod a
    guards, sub_a, ad = ones << guard, ((1 << guard) - a) * ones, step * ones
    while hi > 0:
        # every root of the step is at least n, its lowest; bar < a since
        # kk*top**2 <= kk*F < c*a for the Frobenius number F
        n = hi - L + 1 if hi > L else 1
        bar = kk * n * n // c
        # the lanes with y > bar set their guard bit; the lowest such lane
        # holds the highest root, so the first exact hit is the scalar loop's
        cand = (Y + ((1 << guard) - 1 - bar) * ones) & guards
        while cand:
            low = cand & -cand
            j = (low.bit_length() - 1) // width
            m = hi - j
            if c * ((Y >> (width * j)) & lane) > kk * m * m:
                return m, top
            cand ^= low
        t = Y + H
        Y = t - (((t + sub_a) & guards) >> guard) * a
        t = H + ad
        H = t - (((t + sub_a) & guards) >> guard) * a
        hi -= L
    raise AssertionError("scan fell through: the semigroup contains 1")


def _lanes(a, dinv, y, g, width):
    """(Y, H, ones, step): the _LANES lanes of _packed_scan, built by doubling.

    y and g are y(hi) = hi*hi*dinv mod a and g(hi) = (2*hi - 1)*dinv mod a,
    and lanes are width bits wide.  For n lanes, lane j of D holds
    y(hi - j - n) - y(hi - j), that is (n*n - 2n*(hi - j))*dinv mod a, so
    lanes n to 2n - 1 of Y are Y + D;
    D for 2n lanes is 2D + 2n*n*dinv on the low half and that plus
    4n*n*dinv on the high half.  Six rounds from n = 1, where D = -g, give
    Y, and D for n = _LANES is H.  ones has a 1 at the foot of every lane,
    and step = 2*_LANES**2*dinv mod a.  Every addition is lane-wise mod a,
    by the guard-bit reduction of _packed_scan.
    """
    guard = width - 1
    below = (1 << guard) - a
    # step is 2n*n*dinv mod a for the round's n
    Y, D, ones, n, step = y, (a - g) % a, 1, 1, 2 * dinv % a
    while n < _LANES:
        guards, sub_a, shift = ones << guard, below * ones, n * width
        t = Y + D
        Y |= (t - (((t + sub_a) & guards) >> guard) * a) << shift
        t = D << 1
        t -= (((t + sub_a) & guards) >> guard) * a
        t += step * ones
        low = t - (((t + sub_a) & guards) >> guard) * a
        step = 2 * step % a
        t = low + step * ones
        D = low | (t - (((t + sub_a) & guards) >> guard) * a) << shift
        step = 2 * step % a
        ones |= ones << shift
        n *= 2
    return Y, D, ones, step


def power_min_oracle(S, k: int) -> PowerFrobResult:
    """Smallest positive perfect k-power in S; halts by m = multiplicity."""
    if k < 2:
        raise ValueError(f"power must be >= 2, got {k}")
    member = ap_contains if isinstance(S, ApSemigroup) else contains
    m = 1
    while True:
        v = m ** k
        if member(S, v):
            return PowerFrobResult(k, m, v, "oracle")
        m += 1
