"""Independent references the benchmark checks the library's answers against.

Nothing here imports sqfrob or repeats its algorithms:

* Apery tables come from Dijkstra's shortest paths over residues with a heap
  (Nijenhuis' method); the library folds generators in round-robin laps.
* Membership in <a, a+d, ..., a+kd> uses the sum-count characterisation
  v = n*a + d*t with 0 <= t <= k*n, solved for n through a^-1 mod d; the
  library decomposes v through d^-1 mod a.
* Golden exception sets are parsed straight from the TSV file.
"""

from __future__ import annotations

import csv
import heapq
from math import gcd, isqrt


def iroot(n: int, k: int) -> int:
    """Largest r with r**k <= n."""
    if k == 2:
        return isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def apery_dijkstra(gens, m: int) -> list[int]:
    """entries[r] = least combination of gens congruent to r mod m."""
    dist = [-1] * m
    dist[0] = 0
    heap = [(0, 0)]
    steps = sorted({g for g in gens if g % m})
    while heap:
        w, r = heapq.heappop(heap)
        if w > dist[r]:
            continue
        for g in steps:
            nr = (r + g) % m
            nw = w + g
            if dist[nr] < 0 or nw < dist[nr]:
                dist[nr] = nw
                heapq.heappush(heap, (nw, nr))
    return dist


def selmer_genus(entries, m: int) -> int:
    """Number of gaps from the Apery entries: sum(w)/m - (m-1)/2."""
    total = sum(entries) - m * (m - 1) // 2
    if total % m:
        raise ValueError("Apery entries violate Selmer's formula")
    return total // m


def largest_power_gap(a: int, d: int, k: int, p: int) -> int:
    """Largest m with m**p outside <a, a+d, ..., a+kd>, scanning down from Roberts' bound.

    v is a sum of n terms for some n >= 0 exactly when some n in
    [ceil(v / (a+kd)), v // a] has n = v * a^-1 (mod d).
    """
    inv = pow(a, -1, d) if d > 1 else 0
    top = a + k * d
    m = iroot(ap_frobenius(a, d, k), p)
    while m > 0:
        v = m ** p
        lo = -(-v // top)
        if lo + ((v * inv) % d - lo) % d > v // a:
            return m
        m -= 1
    return 0


def ap_frobenius(a: int, d: int, k: int) -> int:
    """Roberts' formula for the Frobenius number of <a, a+d, ..., a+kd>."""
    return ((a - 2) // k + 1) * a + (d - 1) * (a - 1) - 1


def golden_table1(path) -> dict[int, list[int]]:
    """Golden exception sets {d: [a, ...]} read from table1.tsv."""
    out = {}
    with open(path, newline="", encoding="ascii") as fh:
        rows = csv.reader(fh, delimiter="\t")
        next(rows)
        for row in rows:
            if row:
                d, _count, members = row
                out[int(d)] = [] if members == "-" else [int(x) for x in members.split(",")]
    return out


def coprime_count(lo: int, hi: int, d: int) -> int:
    """Number of a in [lo, hi] with gcd(a, d) = 1."""
    return sum(1 for a in range(lo, hi + 1) if gcd(a, d) == 1)


def conjecture_target_count(which: int, max_a: int) -> int:
    """How many first terms the d=1 (which=1) or d=2 (which=2) conjecture covers."""
    targets = set()
    if which == 1:
        for b in range(2, isqrt(max_a + 1) + 1):
            targets.update(a for a in (b * b - 1, b * b) if 2 <= a <= max_a)
    else:
        for c in range(3, isqrt(max_a + 2) + 1, 2):
            targets.update(a for a in (c * c - 2, c * c) if 3 <= a <= max_a)
    return len(targets)
