"""Numerical semigroup arithmetic: membership, Apery sets, Frobenius numbers, gaps.

A numerical semigroup is the set of all non-negative integer combinations of a
fixed list of positive generators with gcd 1.  It contains every sufficiently
large integer; the finitely many positive integers it misses are its gaps, the
largest gap is its Frobenius number.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import gcd, inf


class SemigroupError(ValueError):
    """Base class for domain errors raised by this package."""


class EmptyGenerators(SemigroupError):
    """No generators supplied."""


class ZeroGenerator(SemigroupError):
    """A generator was smaller than 1."""


class NonCoprime(SemigroupError):
    """The generators share a common factor greater than 1."""


class NotAGenerator(SemigroupError):
    """The requested Apery modulus is not one of the generators."""


class NegativeInput(SemigroupError):
    """A non-negative integer was required."""


class FullSemigroup(SemigroupError):
    """The semigroup is all of N, so the requested quantity does not exist."""


def _canonical_json(obj) -> str:
    """The one canonical byte form of every JSON output: compact, keys in order."""
    return json.dumps(obj, separators=(",", ":"))


class CanonicalJson:
    """Mixin for result objects: to_json() is the canonical form of to_dict()."""

    # no __dict__ of its own, so a named tuple that mixes it in stays slotted
    __slots__ = ()

    def to_json(self) -> str:
        return _canonical_json(self.to_dict())


def _checked_generators(generators):
    # sorted distinct generators, or the SemigroupError that rules them out
    gens = sorted({int(g) for g in generators})
    if not gens:
        raise EmptyGenerators("at least one generator is required")
    if gens[0] < 1:
        raise ZeroGenerator(f"generators must be positive, got {gens[0]}")
    g = 0
    for v in gens:
        g = gcd(g, v)
    if g != 1:
        raise NonCoprime(f"generators {gens} have gcd {g}")
    return gens


class NumericalSemigroup:
    """Immutable semigroup; stores the canonical (sorted, minimal) generators.

    Construction builds the Apery table of the multiplicity, which is what
    finds the minimal generators: O(m * len(generators)) time, O(m) memory.
    """

    __slots__ = ("_gens", "_apery")

    def __init__(self, generators):
        gens = _checked_generators(generators)
        m = gens[0]
        self._gens, entries = _apery_entries(gens, m)
        self._apery = AperyTable(m, entries)

    @property
    def generators(self) -> tuple[int, ...]:
        return self._gens

    @property
    def multiplicity(self) -> int:
        return self._gens[0]

    @property
    def is_full(self) -> bool:
        """True when the semigroup is all of N (i.e. 1 is a generator)."""
        return self._gens[0] == 1

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self._gens == other._gens

    def __hash__(self):
        return hash(self._gens)

    def __repr__(self):
        return f"NumericalSemigroup({list(self._gens)})"

    def to_json(self) -> str:
        return _canonical_json(list(self._gens))

    @classmethod
    def from_json(cls, text: str) -> "NumericalSemigroup":
        return cls(json.loads(text))


class AperyTable(namedtuple("AperyTable", "modulus entries")):
    """entries[r] is the least semigroup element congruent to r mod modulus.

    A named tuple rather than a dataclass: dataclasses imports inspect, which
    would add about 15 ms to every command that builds a table.
    """

    __slots__ = ()


def _apery_entries(gens, m):
    # Shortest-path relaxation over residues mod m, for sorted distinct gens
    # containing m: the round-robin fold of Boecker & Liptak.  Generators are
    # folded in one at a time.  Each +g cycle is the residue class head mod
    # n_cycles; min() finds its least entry, whose value mod m is its residue
    # (a finite entry is congruent to its own), and one relaxing lap from
    # there is exact.  One Python lap per cycle, O(m * len(gens)) in all.
    # Returns (kept generators, entries).
    try:
        dist = [inf] * m
    except OverflowError:
        # m past sys.maxsize: no list that long can exist, let alone fit
        raise MemoryError(f"an Apery table of {m} entries") from None
    dist[0] = 0
    kept = []
    for g in gens:
        # dist is the exact table of <kept, m>; a g it reaches is a sum of
        # smaller generators (m cannot help a g < m), so g is dropped
        if g != m and dist[g % m] <= g:
            continue
        kept.append(g)
        step = g % m
        if step == 0:
            continue
        n_cycles = gcd(step, m)
        lap = m // n_cycles - 1
        for head in range(n_cycles):
            # one cycle is all of dist: no m-long copy, so the peak stays at
            # the end, where dist and the entries tuple are both alive
            cur = min(dist) if n_cycles == 1 else min(dist[head::n_cycles])
            if cur == inf:
                continue
            r = cur % m
            for _ in range(lap):
                r = (r + step) % m
                cur += g
                if cur < dist[r]:
                    dist[r] = cur
                else:
                    cur = dist[r]
    return tuple(kept), tuple(dist)


def apery_set(S: NumericalSemigroup, m: int | None = None) -> AperyTable:
    """Apery table of S with respect to the generator m (default: multiplicity).

    The multiplicity's table is the one built at construction; a table for
    any other generator is computed afresh on each call and not kept.
    """
    if m is None or m == S.multiplicity:
        return S._apery
    if m not in S.generators:
        raise NotAGenerator(f"{m} is not a generator of {S!r}")
    return AperyTable(m, _apery_entries(S.generators, m)[1])


def contains(S: NumericalSemigroup, value: int) -> bool:
    """Membership test via the Apery table of the multiplicity."""
    if value < 0:
        raise NegativeInput(f"membership is defined for non-negative integers, got {value}")
    table = apery_set(S)
    return value >= table.entries[value % table.modulus]


def frobenius(S: NumericalSemigroup) -> int:
    """Largest integer not in S."""
    if S.is_full:
        raise FullSemigroup("every non-negative integer is in the semigroup")
    table = apery_set(S)
    return max(table.entries) - table.modulus


def gaps(S: NumericalSemigroup) -> list[int]:
    """Sorted list of the positive integers missing from S."""
    table = apery_set(S)
    m = table.modulus
    top = max(table.entries) - m
    return [v for v in range(1, top + 1) if v < table.entries[v % m]]


def genus(S: NumericalSemigroup) -> int:
    """Number of gaps, by Selmer's formula sum(w)/m - (m-1)/2 over the Apery
    entries w of the multiplicity m: O(m), no gap is listed."""
    t = apery_set(S)
    m = t.modulus
    return (sum(t.entries) - m * (m - 1) // 2) // m
