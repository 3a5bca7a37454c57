import json
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
import sqfrob as sq
from sqfrob import core


@pytest.mark.parametrize("raw,expected", [
    ([4, 7], (4, 7)),
    ([7, 4], (4, 7)),
    ([3, 6, 7], (3, 7)),
    ([2, 3, 4], (2, 3)),
    ([6, 10, 15], (6, 10, 15)),
    ([1, 5], (1,)),
    ([5, 5, 6], (5, 6)),
])
def test_make_semigroup_normalizes(raw, expected):
    assert sq.NumericalSemigroup(raw).generators == expected


def test_make_semigroup_errors():
    with pytest.raises(sq.EmptyGenerators):
        sq.NumericalSemigroup([])
    with pytest.raises(sq.ZeroGenerator):
        sq.NumericalSemigroup([0, 3])
    with pytest.raises(sq.ZeroGenerator):
        sq.NumericalSemigroup([-2, 3])
    with pytest.raises(sq.NonCoprime):
        sq.NumericalSemigroup([4, 6])
    with pytest.raises(sq.NonCoprime):
        sq.NumericalSemigroup([5])


def test_semigroup_equality_and_json():
    S = sq.NumericalSemigroup([4, 7])
    assert S == sq.NumericalSemigroup([7, 4, 11])
    assert S.to_json() == "[4,7]"
    assert sq.NumericalSemigroup.from_json("[4,7]") == S
    assert S.multiplicity == 4
    assert not S.is_full
    assert sq.NumericalSemigroup([1]).is_full


def test_every_result_serializes_through_one_canonical_form():
    results = [
        sq.ApSemigroup(13, 5, 1),
        sq.lambda_profile(13, 5),
        sq.square_frobenius_closed(10, 3),
        sq.power_frobenius_oracle(sq.ApSemigroup(13, 5, 1), 2),
        sq.exception_set(5),
        sq.verify_theorem_bound(3, 1, 2, 600),
    ]
    for res in results:
        assert res.to_json() == json.dumps(res.to_dict(), separators=(",", ":")), res
    S = sq.ApSemigroup(13, 5, 1)
    assert S.to_json() == '{"a":13,"d":5,"k":1}'
    assert sq.ApSemigroup.from_json(S.to_json()) == S


def test_apery_examples():
    assert sq.apery_set(sq.NumericalSemigroup([4, 7])).entries == (0, 21, 14, 7)
    assert sq.apery_set(sq.NumericalSemigroup([2, 3]), 2).entries == (0, 3)
    assert sq.apery_set(sq.NumericalSemigroup([1]), 1).entries == (0,)
    S = sq.NumericalSemigroup([4, 7])
    assert sq.apery_set(S, 7).modulus == 7
    with pytest.raises(sq.NotAGenerator):
        sq.apery_set(S, 5)
    with pytest.raises(sq.NotAGenerator):
        sq.apery_set(sq.NumericalSemigroup([3, 6, 7]), 6)  # 6 is redundant, dropped


def test_far_redundant_generator_is_dropped_quickly():
    # 10**7 is reached by the multiplicity-2 table; no table of size 10**7
    assert sq.NumericalSemigroup([2, 3, 10**7]).generators == (2, 3)


def test_one_apery_build_serves_construction_and_queries(monkeypatch):
    calls = []
    real = core._apery_entries

    def counted(gens, m):
        calls.append(m)
        return real(gens, m)

    monkeypatch.setattr(core, "_apery_entries", counted)
    S = sq.NumericalSemigroup([9, 7, 11, 14])
    assert sq.apery_set(S).modulus == 7
    assert sq.frobenius(S) == naive.frobenius([7, 9, 11])
    assert sq.contains(S, 16) and not sq.contains(S, 10)
    assert sq.apery_set(S, 7) is sq.apery_set(S)
    assert calls == [7]


SAMPLE_GENS = [
    [4, 7], [5, 6], [2, 3], [6, 10, 15], [7, 11, 13], [8, 9, 15],
    [5, 7, 9], [13, 18], [9, 10], [11, 13, 17, 19], [3, 17],
]


@pytest.mark.parametrize("gens", SAMPLE_GENS)
def test_apery_matches_naive(gens):
    S = sq.NumericalSemigroup(gens)
    for m in S.generators:
        assert list(sq.apery_set(S, m).entries) == naive.apery(S.generators, m)


@pytest.mark.parametrize("gens", SAMPLE_GENS)
def test_apery_structure(gens):
    S = sq.NumericalSemigroup(gens)
    table = sq.apery_set(S)
    m = table.modulus
    assert table.entries[0] == 0
    assert all(table.entries[r] % m == r for r in range(m))
    assert max(table.entries) - m == sq.frobenius(S)


def test_frobenius_examples():
    assert sq.frobenius(sq.NumericalSemigroup([5, 6])) == 19
    assert sq.frobenius(sq.NumericalSemigroup([4, 7])) == 17
    assert sq.frobenius(sq.NumericalSemigroup([2, 3])) == 1
    assert sq.frobenius(sq.NumericalSemigroup([6, 10, 15])) == 29
    with pytest.raises(sq.FullSemigroup):
        sq.frobenius(sq.NumericalSemigroup([1]))


def test_contains_examples():
    S = sq.NumericalSemigroup([4, 7])
    assert sq.contains(S, 0)
    assert sq.contains(S, 11)
    assert not sq.contains(S, 10)
    assert not sq.contains(S, 17)
    assert sq.contains(S, 18)
    with pytest.raises(sq.NegativeInput):
        sq.contains(S, -1)


def test_gaps_and_genus():
    S = sq.NumericalSemigroup([4, 7])
    assert sq.gaps(S) == [1, 2, 3, 5, 6, 9, 10, 13, 17]
    assert sq.genus(S) == 9
    assert sq.gaps(sq.NumericalSemigroup([2, 3])) == [1]
    assert sq.gaps(sq.NumericalSemigroup([1])) == []
    assert sq.genus(sq.NumericalSemigroup([1])) == 0


def test_genus_lists_no_gap(monkeypatch):
    def refuse(S):
        raise AssertionError("genus listed the gaps")

    monkeypatch.setattr(core, "gaps", refuse)
    # Sylvester: <p, q> has (p-1)(q-1)/2 gaps, here about 5*10^11 of them
    assert sq.genus(sq.NumericalSemigroup([1000, 10**9 + 1])) == 999 * 10**9 // 2


def test_two_generator_closed_form_exhaustive():
    # F(<p, q>) = pq - p - q for coprime p < q
    for p in range(2, 61):
        for q in range(p + 1, 61):
            if gcd(p, q) != 1:
                continue
            assert sq.frobenius(sq.NumericalSemigroup([p, q])) == p * q - p - q


def test_contains_matches_naive():
    for gens in SAMPLE_GENS:
        S = sq.NumericalSemigroup(gens)
        if S.is_full:
            continue
        f = sq.frobenius(S)
        table = naive.reachable(S.generators, f + S.multiplicity)
        for v in range(f + S.multiplicity + 1):
            assert sq.contains(S, v) == bool(table[v]), (gens, v)


def test_everything_above_frobenius_is_member():
    for gens in SAMPLE_GENS:
        S = sq.NumericalSemigroup(gens)
        f = sq.frobenius(S)
        assert not sq.contains(S, f)
        assert all(sq.contains(S, f + t) for t in range(1, 2 * S.multiplicity + 1))


@st.composite
def gen_lists(draw):
    gens = draw(st.lists(st.integers(2, 40), min_size=1, max_size=5))
    g = 0
    for v in gens:
        g = gcd(g, v)
    if g != 1:
        gens.append(draw(st.sampled_from([v for v in range(2, 40) if gcd(v, g) == 1])))
    return gens


@st.composite
def shared_factor_lists(draw):
    # m and the next generator share a factor, so every +g cycle of that fold
    # but the one through 0 is still all-inf when it is reached (e.g. [6, 9, 10, 15])
    p = draw(st.sampled_from([2, 3, 5]))
    m = p * draw(st.integers(2, 8))
    step = p * draw(st.integers(1, 8))
    rest = draw(st.lists(st.integers(m + 1, 5 * m), max_size=3))
    gens = [m, m + step] + rest
    g = gcd(m, m + step)
    for v in rest:
        g = gcd(g, v)
    if g != 1:
        gens.append(draw(st.sampled_from([v for v in range(m + 1, 6 * m) if gcd(v, g) == 1])))
    return gens


@settings(max_examples=80, deadline=None)
@given(st.one_of(gen_lists(), shared_factor_lists()))
def test_whole_apery_tables_match_naive(gens):
    S = sq.NumericalSemigroup(gens)
    if S.is_full:
        return
    for g in S.generators:
        assert sq.apery_set(S, g).entries == tuple(naive.apery(S.generators, g)), (gens, g)


def test_apery_build_holds_no_extra_table_sized_list():
    # The working list, the returned tuple and the entries' int objects peak
    # near 52 bytes per residue.  An m-long list that outlives its use (say a
    # cycle's min() slice kept bound through the relaxing lap) also keeps the
    # ints the lap replaces alive, and the peak climbs to about 78
    m = 200_003
    gens = [m, m + 1, 3 * m // 2 + 1]
    tracemalloc.start()
    try:
        core._apery_entries(gens, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * m, peak / m


@settings(max_examples=60, deadline=None)
@given(gen_lists())
def test_frobenius_matches_naive(gens):
    S = sq.NumericalSemigroup(gens)
    assert sq.frobenius(S) == naive.frobenius(gens)


@settings(max_examples=60, deadline=None)
@given(gen_lists())
def test_minimal_generators_are_minimal(gens):
    S = sq.NumericalSemigroup(gens)
    kept = S.generators
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        if not others:
            continue
        # dropping g must change the semigroup: g is not a combination of the rest
        assert not naive.reachable(others, g)[g], (gens, g)


@settings(max_examples=60, deadline=None)
@given(gen_lists())
def test_minimal_generators_generate_every_input(gens):
    kept = sq.NumericalSemigroup(gens).generators
    reach = naive.reachable(kept, max(gens))
    assert all(reach[g] for g in gens), (gens, kept)


@settings(max_examples=60, deadline=None)
@given(gen_lists())
def test_genus_matches_gap_count(gens):
    S = sq.NumericalSemigroup(gens)
    reach = naive.reachable(gens, naive.frobenius(gens))
    assert sq.genus(S) == len(sq.gaps(S)) == reach[1:].count(0), gens


def test_semigroup_equality_is_by_minimal_generators():
    s = sq.NumericalSemigroup([3, 5])
    assert s.__eq__((3, 5)) is NotImplemented and s != (3, 5)
    t = sq.NumericalSemigroup([5, 3, 8, 10])
    assert s == t and hash(s) == hash(t)
