import pickle
import random
from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sqfrob as sq
from sqfrob import arith
from sqfrob.verify import exception_set


def coprime_grid(a_max=30, d_max=7, k_max=4):
    for a in range(2, a_max + 1):
        for d in range(1, d_max + 1):
            if gcd(a, d) != 1:
                continue
            for k in range(1, k_max + 1):
                yield a, d, k


def test_ap_semigroup_validation():
    with pytest.raises(sq.SemigroupError):
        sq.ApSemigroup(1, 3, 1)
    with pytest.raises(sq.SemigroupError):
        sq.ApSemigroup(5, 0, 1)
    with pytest.raises(sq.SemigroupError):
        sq.ApSemigroup(5, 3, 0)
    with pytest.raises(sq.NonCoprime):
        sq.ApSemigroup(6, 3, 2)


def test_ap_semigroup_basics():
    S = sq.ApSemigroup(13, 5, 1)
    assert S.generators == (13, 18)
    assert S.to_json() == '{"a":13,"d":5,"k":1}'
    assert sq.ApSemigroup.from_json(S.to_json()) == S
    assert sq.ApSemigroup(5, 2, 2).generators == (5, 7, 9)


def test_ap_semigroup_stays_immutable_and_checked():
    S = sq.ApSemigroup(13, 5, 1)
    for attr in ("a", "_dinv", "other"):
        with pytest.raises(AttributeError):
            setattr(S, attr, 2)
        with pytest.raises(AttributeError):
            delattr(S, attr)
    # a named tuple: equal to its fields, and _replace checks the new ones
    assert S == (13, 5, 1) and hash(S) == hash((13, 5, 1))
    assert S._replace(a=14)._dinv == pow(5, -1, 14)
    with pytest.raises(sq.SemigroupError, match="first term"):
        S._replace(a=1)
    T = pickle.loads(pickle.dumps(S))
    assert type(T) is sq.ApSemigroup and T == S and T._dinv == S._dinv


def test_ap_contains_examples():
    assert not sq.ap_contains(sq.ApSemigroup(4, 3, 1), 10)
    assert sq.ap_contains(sq.ApSemigroup(4, 3, 1), 11)
    assert sq.ap_contains(sq.ApSemigroup(5, 2, 2), 16)
    assert sq.ap_contains(sq.ApSemigroup(5, 2, 2), 0)
    with pytest.raises(sq.NegativeInput):
        sq.ap_contains(sq.ApSemigroup(5, 2, 2), -3)


def test_decompose_is_canonical():
    S = sq.ApSemigroup(13, 5, 1)
    for value in range(0, 300):
        x, y = sq.decompose(S, value)
        assert value == 13 * x + 5 * y
        assert 0 <= y <= 12


def test_ap_frobenius_examples():
    assert sq.ap_frobenius(sq.ApSemigroup(4, 3, 1)) == 17
    assert sq.ap_frobenius(sq.ApSemigroup(5, 2, 2)) == 13
    assert sq.ap_frobenius(sq.ApSemigroup(13, 5, 1)) == 203
    assert sq.ap_frobenius(sq.ApSemigroup(2, 7, 1)) == 7
    # k larger than a - 1 saturates: <3,5,7,...> = <3,5,7>
    assert sq.ap_frobenius(sq.ApSemigroup(3, 2, 5)) == 4


def test_ap_agrees_with_generic_semigroup():
    # membership and Frobenius number against the Apery-table implementation
    for a, d, k in coprime_grid(18, 5, 3):
        S = sq.ApSemigroup(a, d, k)
        G = sq.NumericalSemigroup(S.generators)
        f = sq.ap_frobenius(S)
        assert f == sq.frobenius(G), (a, d, k)
        for value in range(0, f + a + 1):
            assert sq.ap_contains(S, value) == sq.contains(G, value), (a, d, k, value)


def test_lambda_profile_examples():
    prof = sq.lambda_profile(7, 3)
    assert prof.lambdas == (0, 2, 2)
    assert prof.lambda_star == 2
    assert prof.alphas == (1, 2)
    assert prof.alpha_next == 4

    prof = sq.lambda_profile(13, 5)
    assert prof.lambdas == (0, 3, 2, 2, 3)
    assert prof.lambda_star == 3
    assert prof.alphas == (1, 4)

    prof = sq.lambda_profile(9, 1)
    assert prof.lambdas == (0,)
    assert prof.lambda_star == 0
    assert prof.alphas == (0,)

    with pytest.raises(sq.NonCoprime):
        sq.lambda_profile(6, 3)


def test_lambda_profile_cached_per_residue():
    arith._residue_profile.cache_clear()
    exception_set(7, jobs=1)
    assert arith._residue_profile.cache_info().misses == 6  # phi(7)
    for a, d in ((7, 3), (13, 5), (9, 8), (23, 12), (101, 60), (2, 1)):
        prof = sq.lambda_profile(a, d)
        assert prof == sq.lambda_profile(a + d, d)
        assert prof.lambda_star == max(prof.lambdas)
        assert prof.alphas == tuple(i for i, v in enumerate(prof.lambdas)
                                    if v == prof.lambda_star)


def test_lambda_profile_stores_nothing_d_long():
    # the cache holds many profiles, so none may keep a d-sized field
    prof = sq.lambda_profile(3, 10007)
    for name in prof._fields:
        value = getattr(prof, name)
        if isinstance(value, (tuple, list)):
            assert len(value) <= len(prof.alphas), name
    assert len(prof.lambdas) == 10007


def test_lambda_profile_defining_property():
    for a, d in ((7, 3), (13, 5), (9, 8), (23, 12), (101, 60)):
        prof = sq.lambda_profile(a, d)
        for i, lam in enumerate(prof.lambdas):
            assert 0 <= lam < d
            assert (lam * a + i * i) % d == 0


def test_lambda_alpha_invariants_up_to_d60():
    for d in range(2, 61):
        for r in range(1, d):
            if gcd(r, d) != 1:
                continue
            for a in (r if r >= 2 else d + r, d + r):
                prof = sq.lambda_profile(a, d)
                lams, alphas = prof.lambdas, prof.alphas
                n = len(alphas)
                assert lams[0] == 0
                assert all(lams[i] == lams[d - i] for i in range(1, d))
                # reflection pairing of the maximizing residues
                assert all(alphas[i] + alphas[n - 1 - i] == d for i in range(n))
                if d >= 3:
                    assert n >= 2
                    assert 1 <= alphas[0] and 2 * alphas[0] < d
                    assert 2 * alphas[-1] > d and alphas[-1] <= d - 1
                    # consecutive alphas never straddle a full period
                    ext = list(alphas) + [prof.alpha_next]
                    assert all(ext[i + 1] - ext[i] <= d - 1 for i in range(n))
                    assert all(ext[i] + ext[i + 1] <= 2 * d for i in range(n))


def test_square_in_ap_examples():
    assert sq.square_in_ap(sq.ApSemigroup(5, 2, 2), 1)       # 16 in <5,7,9>
    assert not sq.square_in_ap(sq.ApSemigroup(10, 3, 1), 1)  # 81 not in <10,13>
    assert sq.square_in_ap(sq.ApSemigroup(10, 3, 1), 0)      # 100 = 10*10


def test_square_in_ap_equals_membership():
    for a, d, k in coprime_grid(20, 5, 3):
        S = sq.ApSemigroup(a, d, k)
        for i in range(-k * d, a + 1):
            want = sq.ap_contains(S, (a - i) ** 2)
            assert sq.square_in_ap(S, i) == want, (a, d, k, i)


@st.composite
def lemma_inputs(draw):
    a = draw(st.integers(2, 10 ** 12))
    d = draw(st.integers(1, 40).filter(lambda d: gcd(a, d) == 1))
    k = draw(st.integers(1, 4))
    # mostly -3a..3a, sometimes far outside it on either side
    i = draw(st.one_of(st.integers(-3 * a, 3 * a), st.integers(3 * a + 1, 10 ** 30),
                       st.integers(-10 ** 30, -3 * a - 1)))
    return a, d, k, i


@settings(max_examples=500, deadline=None)
@given(lemma_inputs())
@example((2, 1, 1, 0))
@example((10 ** 12 - 1, 40, 4, -160))  # i = -kd, the bound's least offset
@example((10 ** 12 - 1, 40, 4, 3 * 10 ** 12 - 3))
def test_square_in_ap_is_the_membership_lemma(case):
    """The membership lemma behind B: (a - i)^2 lies in <a, a+d, ..., a+kd>
    exactly when (i + kd)^2 <= ((q + k)d - lam)(a + kd), with lam the
    correction of i mod d and q = (i^2 + lam*a) // (a*d).  bound_B reads its
    edge off that inequality; ap_contains decides the same membership from
    the decomposition alone."""
    a, d, k, i = case
    S = sq.ApSemigroup(a, d, k)
    assert sq.square_in_ap(S, i) == sq.ap_contains(S, (a - i) ** 2), case


def test_mu_j_examples():
    cell = sq.mu_j(sq.ApSemigroup(13, 5, 1))
    assert (cell.mu, cell.j, cell.target) == (1, 1, 36)
    cell = sq.mu_j(sq.ApSemigroup(106, 3, 1))
    assert (cell.mu, cell.j) == (3, 1)
    with pytest.raises(sq.DTooSmall):
        sq.mu_j(sq.ApSemigroup(5, 2, 1))
    with pytest.raises(sq.DTooSmall):
        sq.mu_j(sq.ApSemigroup(4, 1, 1))


def test_mu_j_small_first_term_goes_negative():
    # target 14 sits below the whole positive grid, so mu = -1 brackets it
    cell = sq.mu_j(sq.ApSemigroup(3, 11, 1))
    assert cell.target == 14
    assert cell.mu == -1
    assert sq.bound_B(sq.ApSemigroup(3, 11, 1)) == 81


def test_mu_j_bracket_is_unique():
    def holds_le(g, t):
        return g <= 0 or g * g <= t

    for a, d, k in [(13, 5, 1), (106, 3, 1), (3, 11, 1), (2, 5, 1), (7, 11, 1),
                    (25, 12, 1), (9, 7, 2), (4, 9, 3), (137, 10, 1), (11, 60, 2)]:
        prof = sq.lambda_profile(a, d)
        cell = sq.mu_j(sq.ApSemigroup(a, d, k))
        alphas = list(prof.alphas)
        n = len(alphas)
        grid = [(mu, j) for mu in range(-2, isqrt(cell.target) // d + 3)
                for j in range(1, n + 1)]
        hits = []
        for mu, j in grid:
            left = mu * d + alphas[j - 1]
            nxt = mu * d + alphas[j] if j < n else (mu + 1) * d + alphas[0]
            if holds_le(left, cell.target) and not holds_le(nxt, cell.target):
                hits.append((mu, j))
        assert hits == [(cell.mu, cell.j)], (a, d, k, hits)


def _below_or_at(g, t):
    # grid point g is at most sqrt(t): non-positive, or its square <= t
    return g <= 0 or g * g <= t


def _assert_cell_brackets(S):
    # the cell's grid point is at most sqrt(target) and the next one is above
    prof = sq.lambda_profile(S.a, S.d)
    cell = sq.mu_j(S)
    alphas, n, d = prof.alphas, len(prof.alphas), S.d
    left = cell.mu * d + alphas[cell.j - 1]
    nxt = cell.mu * d + alphas[cell.j] if cell.j < n else (cell.mu + 1) * d + alphas[0]
    assert 1 <= cell.j <= n
    assert cell.target == (S.k * d - prof.lambda_star) * (S.a + S.k * d)
    assert _below_or_at(left, cell.target) and not _below_or_at(nxt, cell.target)
    assert sq.bound_edge(S) == (cell.mu - S.k) * d + (nxt - cell.mu * d)
    return cell, n


def test_mu_j_matches_grid_scan_at_last_alpha_and_negative_mu():
    # every grid cell is tried, so the bracket found must be the only one
    reached = set()
    for a in range(2, 60):
        for d in range(3, 24):
            if gcd(a, d) != 1:
                continue
            for k in (1, 2, 3):
                S = sq.ApSemigroup(a, d, k)
                cell, n = _assert_cell_brackets(S)
                alphas = sq.lambda_profile(a, d).alphas
                ext = [(mu, j, mu * d + alphas[j - 1])
                       for mu in range(-2, isqrt(cell.target) // d + 3)
                       for j in range(1, n + 1)]
                hits = [(mu, j) for (mu, j, g), (_, _, g2) in zip(ext, ext[1:])
                        if _below_or_at(g, cell.target) and not _below_or_at(g2, cell.target)]
                assert hits == [(cell.mu, cell.j)], (a, d, k, hits)
                if cell.j == n:
                    reached.add("j = n")
                if cell.mu == -1:
                    reached.add("mu = -1")
    assert reached == {"j = n", "mu = -1"}


@settings(max_examples=300, deadline=None)
@given(st.integers(10 ** 12, 10 ** 40), st.integers(3, 5000), st.integers(1, 9))
@example(10 ** 12, 3, 2)        # j = n = 2
@example(10 ** 12 + 1, 3, 2)    # j = n = 2
@example(10 ** 15 + 1, 4999, 9)
def test_mu_j_brackets_for_huge_first_terms(a, d, k):
    # a full grid is too long here, so only the returned cell is checked
    assume(gcd(a, d) == 1)
    _assert_cell_brackets(sq.ApSemigroup(a, d, k))


def test_bound_B_examples():
    assert sq.bound_B(sq.ApSemigroup(13, 5, 1)) == 81
    assert sq.bound_B(sq.ApSemigroup(106, 3, 1)) == 98 ** 2
    assert sq.bound_B(sq.ApSemigroup(114, 7, 1)) == 104 ** 2
    assert sq.bound_B(sq.ApSemigroup(2, 5, 1)) == 0
    with pytest.raises(sq.DTooSmall):
        sq.bound_B(sq.ApSemigroup(5, 2, 1))


def test_bound_edge_covers_all_larger_squares():
    # under a + kd >= 4kd^3, every square above the bound lies in the semigroup
    for d, k in ((3, 1), (3, 2), (4, 1), (5, 1)):
        lo = 4 * k * d ** 3 - k * d
        for a in range(lo, lo + 40):
            if gcd(a, d) != 1:
                continue
            S = sq.ApSemigroup(a, d, k)
            edge = sq.bound_edge(S)
            assert sq.bound_B(S) == (a - edge) ** 2
            for i in range(-k * d, edge):
                assert sq.square_in_ap(S, i), (a, d, k, i)


def test_bound_B_for_k_2_3_is_at_least_the_oracle_start():
    # The square oracle starts at isqrt(F) for the Frobenius number F, so
    # its value is at most isqrt(F)**2.  For k = 2, 3 B is at least that on
    # every draw here, so the sweeps' oracle <= bound_B check passes
    # whatever the scan returns there; the k >= 2 scan is checked against
    # naive.ap_power_root instead.  A bound that drops below the oracle's
    # start shows up here first.
    rng = random.Random(2006)
    for _ in range(400):
        k, d = rng.choice((2, 3)), rng.randint(3, 12)
        lo = 4 * k * d ** 3
        a = rng.randint(lo, lo + rng.choice((2 * 10 ** 4, 10 ** 7, 10 ** 12)))
        if gcd(a, d) == 1:
            S = sq.ApSemigroup(a, d, k)
            assert sq.bound_B(S) >= isqrt(sq.ap_frobenius(S)) ** 2, (a, d, k)


def test_lambda_profile_rejects_d_below_1():
    with pytest.raises(sq.SemigroupError):
        arith.lambda_profile(1, 0)
