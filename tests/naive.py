"""Independent brute-force references the library is cross-checked against.

Everything here is a straight dynamic-programming sieve over the integers,
except the arithmetic-progression scan, which counts summands, and the
u-number families at the end, which walk the u-sequence by its own two-term
recurrences; none of it shares code with the library's Apery or
decomposition paths or with its Pell-equation family test.
"""

from math import gcd


def reachable(gens, limit):
    """reach[v] == 1 iff v is a non-negative combination of gens, v <= limit."""
    reach = bytearray(limit + 1)
    reach[0] = 1
    for g in gens:
        for v in range(g, limit + 1):
            if reach[v - g]:
                reach[v] = 1
    return reach


def frobenius(gens):
    """Largest non-representable integer, certified by a run of min(gens)
    consecutive representable values at the top of the sieve."""
    g = 0
    for v in gens:
        g = gcd(g, v)
    assert g == 1, "needs coprime generators"
    m = min(gens)
    limit = max(gens) * m + m
    while True:
        table = reachable(gens, limit)
        if all(table[limit - i] for i in range(m)):
            for v in range(limit, -1, -1):
                if not table[v]:
                    return v
            raise AssertionError("no gap at all: semigroup is N")
        limit *= 2


def apery(gens, m):
    """Least representable value in each residue class mod m."""
    f = frobenius(gens)
    table = reachable(gens, f + m + 1)
    out = []
    for r in range(m):
        v = r
        while not table[v]:
            v += m
        out.append(v)
    return out


def power_frob(gens, k=2):
    """Largest perfect k-power that is not representable."""
    f = frobenius(gens)
    table = reachable(gens, f)
    m = 1
    while (m + 1) ** k <= f:
        m += 1
    while m >= 1:
        v = m ** k
        if not table[v]:
            return v
        m -= 1
    raise AssertionError("1 is representable")


def min_power(gens, k=2):
    """Smallest positive perfect k-power that is representable."""
    table = reachable(gens, min(gens) ** k)
    m = 1
    while True:
        v = m ** k
        if table[v]:
            return v
        m += 1


def _root_floor(n, p):
    """Largest m with m**p <= n, by bisection."""
    lo, hi = 0, 1
    while hi ** p <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** p <= n:
            lo = mid
        else:
            hi = mid
    return lo


def ap_member(a, d, k, v):
    """Whether v is in <a, a+d, ..., a+kd>, by the sum-count rule.

    A sum of n generators is n*a + t*d with 0 <= t <= k*n, so v is a member
    iff some n in [ceil(v/(a+kd)), floor(v/a)] has d | v - n*a, that is
    n = v * a^-1 (mod d).  The least such n is found in O(1).
    """
    lo = -(-v // (a + k * d))
    n = lo + (v * pow(a, -1, d) - lo) % d
    return n * a <= v


def ap_power_root(a, d, k, p):
    """(root, top) for <a, a+d, ..., a+kd>: root is the largest m with m**p
    outside, found by scanning down from top, the largest m with m**p at
    most the Frobenius number (Roberts, Proc. AMS 7, 1956)."""
    top = _root_floor(((a - 2) // k + 1) * a + (d - 1) * (a - 1) - 1, p)
    for m in range(top, 0, -1):
        if not ap_member(a, d, k, m ** p):
            return m, top
    raise AssertionError("1 is in the semigroup")


# u_1, u_2, u_3 = 1, 2, 3, then u_{2n} = u_{2n-1} + u_{2n-2} and
# u_{2n+1} = u_{2n} + u_{2n-2}; grown on demand
_U = [1, 2, 3]

# each family: the residues of the index n mod 4, and the least n
_U_FAMILIES = {
    "d1_square": ((1, 2), 1),
    "d1_adjacent": ((3, 0), 3),
    "d2_square": ((1,), 5),
    "d2_adjacent": ((3,), 3),
}


def u_family_member(b, family):
    """Whether b = u_n for some n in the family, by walking u_1, u_2, ... up to b."""
    residues, least = _U_FAMILIES[family]
    while _U[-1] < b:
        m = len(_U) + 1
        _U.append(_U[-1] + (_U[-2] if m % 2 == 0 else _U[-3]))
    for n, t in enumerate(_U, 1):
        if t >= b:
            return t == b and n >= least and n % 4 in residues
