"""Semigroups generated by arithmetic progressions <a, a+d, ..., a+kd>.

Everything here is exact integer arithmetic: O(1) membership through the
unique decomposition M = a*x + d*y with 0 <= y < a, the closed-form Frobenius
number, and the machinery behind the square upper bound B(a, d, k): the
per-residue corrections lambda_i, their maximum lambda_star, the residues
alpha_1 < ... < alpha_n attaining it, and the grid cell (mu, j) of the largest
grid point mu*d + alpha_j <= isqrt((k*d - lambda_star) * (a + k*d)).  A profile
depends on a only through a mod d and is cached per residue class.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt

from .core import CanonicalJson, NegativeInput, NonCoprime, SemigroupError


class DTooSmall(SemigroupError):
    """The operation needs common difference d >= 3."""


class ApSemigroup(namedtuple("ApSemigroup", "a d k"), CanonicalJson):
    """<a, a+d, a+2d, ..., a+kd> with a >= 2 and gcd(a, d) = 1.

    A named tuple rather than a dataclass (dataclasses imports inspect, which
    every command would pay for), so equality is tuple equality.
    """

    def __new__(cls, a, d, k):
        if a < 2:
            raise SemigroupError(f"first term must be >= 2, got {a}")
        if d < 1:
            raise SemigroupError(f"common difference must be >= 1, got {d}")
        if k < 1:
            raise SemigroupError(f"progression length parameter must be >= 1, got {k}")
        if gcd(a, d) != 1:
            raise NonCoprime(f"gcd({a}, {d}) != 1")
        self = super().__new__(cls, a, d, k)
        # inverse of d mod a, fixed once: membership queries reuse it
        object.__setattr__(self, "_dinv", pow(d, -1, a))
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check the new fields, set a new _dinv
        return cls(*iterable)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: ApSemigroup is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: ApSemigroup is immutable")

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(self.a + i * self.d for i in range(self.k + 1))

    def to_dict(self):
        return {"a": self.a, "d": self.d, "k": self.k}

    @classmethod
    def from_json(cls, text: str) -> "ApSemigroup":
        obj = json.loads(text)
        return cls(obj["a"], obj["d"], obj["k"])


def decompose(S: ApSemigroup, value: int) -> tuple[int, int]:
    """The unique (x, y) with value = a*x + d*y and 0 <= y <= a - 1."""
    y = (value * S._dinv) % S.a
    x = (value - S.d * y) // S.a
    return x, y


def ap_contains(S: ApSemigroup, value: int) -> bool:
    """Membership in O(1): value is in S iff its decomposition has x >= 0 and y <= k*x."""
    if value < 0:
        raise NegativeInput(f"membership is defined for non-negative integers, got {value}")
    x, y = decompose(S, value)
    return x >= 0 and y <= S.k * x


def ap_frobenius(S: ApSemigroup) -> int:
    """Largest integer outside S, in closed form."""
    return _roberts(S.a, S.d, S.k)


def _roberts(a, d, k):
    # Roberts' formula (Proc. AMS 7, 1956) on plain ints
    return ((a - 2) // k + 1) * a + (d - 1) * (a - 1) - 1


class LambdaProfile(namedtuple("LambdaProfile", "d inv lambda_star alphas alpha_next"),
                    CanonicalJson):
    """Corrections lambda_i in [0, d) with lambda_i * a + i^2 divisible by d.

    lambda_i = (-inv * i^2) mod d, where inv is the inverse of a mod d, so a
    profile depends on a only through a mod d.  Only inv is stored: lambdas
    is computed from it when read, which keeps a profile's size independent
    of d.  lambda_star is max(lambdas); alphas lists the residues attaining
    it in increasing order, and alpha_next = d + alphas[0] closes the alpha
    grid cyclically.
    """

    __slots__ = ()

    @property
    def lambdas(self) -> tuple[int, ...]:
        return tuple((-self.inv * i * i) % self.d for i in range(self.d))

    def to_dict(self):
        return {
            "d": self.d,
            "lambdas": list(self.lambdas),
            "lambda_star": self.lambda_star,
            "alphas": list(self.alphas),
            "alpha_next": self.alpha_next,
        }


def lambda_profile(a: int, d: int) -> LambdaProfile:
    """Profile of the residue corrections for the pair (a, d).

    Every a in one residue class mod d shares one cached profile.
    """
    if d < 1:
        raise SemigroupError(f"d must be >= 1, got {d}")
    if gcd(a, d) != 1:
        raise NonCoprime(f"gcd({a}, {d}) != 1")
    return _residue_profile(a % d, d)


@lru_cache(maxsize=4096)
def _residue_profile(r, d):
    # one streaming pass for the maximum and the residues attaining it;
    # nothing d-long is kept, so the cache stays small for any d
    inv = pow(r, -1, d)  # 0 when d == 1
    star, alphas = -1, []
    for i in range(d):
        lam = (-inv * i * i) % d
        if lam > star:
            star, alphas = lam, [i]
        elif lam == star:
            alphas.append(i)
    return LambdaProfile(d, inv, star, tuple(alphas), d + alphas[0])


def square_in_ap(S: ApSemigroup, i: int) -> bool:
    """Exact integer test deciding whether (a - i)^2 lies in S.

    Valid for any integer i (positive or negative); the square is compared
    against the least progression element in its residue class mod d.
    """
    a, d, k = S.a, S.d, S.k
    lam = (-pow(a, -1, d) * i * i) % d
    q = (i * i + lam * a) // (a * d)
    return (i + k * d) ** 2 <= ((q + k) * d - lam) * (a + k * d)


class MuJ(namedtuple("MuJ", "mu j target")):
    """Grid cell with grid(mu, j) <= isqrt(target) < grid(mu, j+1).

    grid(mu, j) = mu*d + alphas[j-1] (j is 1-based): mu, r = divmod(isqrt(target), d)
    and j counts the alphas <= r, or the cell is (mu - 1, n) when none is.  mu
    can be -1 for small first terms.
    """

    __slots__ = ()


def mu_j(S: ApSemigroup) -> MuJ:
    """Locate the alpha-grid cell bracketing sqrt((kd - lambda_star)(a + kd))."""
    return MuJ(*_bound_parts(S)[1:4])


def _bound_parts(S):
    # (profile, mu, j, target, edge) of a checked S, its profile taken once
    # through the public lambda_profile
    prof = lambda_profile(S.a, S.d)
    return (prof, *_cell(S.a, S.d, S.k, prof))


def _cell(a, d, k, prof):
    """(mu, j, target, edge) of the bound B(a, d, k), on plain ints.

    prof is the lambda profile of (a, d); nothing else is checked, so the
    sweeps, which check their own inputs, build no object per first term.
    The closed forms read their branch from the same cell.
    """
    if d < 3:
        raise DTooSmall(f"the square bound needs d >= 3, got {d}")
    alphas = prof.alphas
    n = len(alphas)
    target = (k * d - prof.lambda_star) * (a + k * d)
    # the largest grid point <= isqrt(target) is the largest one whose square
    # is <= target, and every non-positive grid point lies below it too
    mu, r = divmod(isqrt(target), d)
    j = bisect_right(alphas, r)
    if j == 0:
        mu, j = mu - 1, n
    alpha_next = alphas[j] if j < n else prof.alpha_next
    return mu, j, target, (mu - k) * d + alpha_next


def bound_edge(S: ApSemigroup) -> int:
    """The index (mu - k)*d + alpha_{j+1} entering the square upper bound."""
    return _bound_parts(S)[4]


def bound_B(S: ApSemigroup) -> int:
    """Closed-form upper bound (a - bound_edge(S))^2 for the square Frobenius number."""
    return (S.a - bound_edge(S)) ** 2
