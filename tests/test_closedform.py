import hashlib
from math import gcd

import pytest

import naive
import sqfrob as sq
from sqfrob import closedform


def oracle(a, d):
    return sq.power_frobenius_oracle(sq.ApSemigroup(a, d, 1), 2).value


def test_u_prefix():
    assert [sq.u(n) for n in range(1, 17)] == [
        1, 2, 3, 5, 7, 12, 17, 29, 41, 70, 99, 169, 239, 408, 577, 985]


def test_u_recurrences():
    for n in range(2, 40):
        assert sq.u(2 * n) == sq.u(2 * n - 1) + sq.u(2 * n - 2)
        assert sq.u(2 * n + 1) == sq.u(2 * n) + sq.u(2 * n - 2)
    assert all(sq.u(n) < sq.u(n + 1) for n in range(1, 80))
    with pytest.raises(ValueError):
        sq.u(0)


@pytest.mark.parametrize("family,members,non_members", [
    ("d1_square", [1, 2, 7, 12, 41, 70, 239, 408], [3, 5, 17, 29, 4, 6, 99]),
    ("d1_adjacent", [3, 5, 17, 29, 99, 169, 577, 985], [1, 2, 7, 12, 4, 41]),
    ("d2_square", [7, 41, 239, 1393], [1, 2, 3, 5, 17, 29, 99]),
    ("d2_adjacent", [3, 17, 99, 577], [5, 29, 169, 7, 41, 2]),
])
def test_u_index_set_member(family, members, non_members):
    for b in members:
        assert sq.u_index_set_member(b, family), (family, b)
    for b in non_members:
        assert not sq.u_index_set_member(b, family), (family, b)


def test_u_index_set_member_matches_the_walk():
    # the Pell test against the index walk of naive.u_family_member, on every
    # b in -3..300000 and on u(n) - 1, u(n), u(n) + 1 for n < 200
    us = [sq.u(n) for n in range(1, 200)]
    bs = sorted(set(range(-3, 300001)) | {c + e for c in us for e in (-1, 0, 1)})
    for family in ("d1_square", "d1_adjacent", "d2_square", "d2_adjacent"):
        got = [b for b in bs if sq.u_index_set_member(b, family)]
        assert got == [b for b in bs if naive.u_family_member(b, family)], family


def test_sq_frob_d3_examples():
    assert sq.square_frobenius_closed(10, 3).value == 81
    assert sq.square_frobenius_closed(106, 3).value == 98 ** 2
    assert sq.square_frobenius_closed(7, 3).value == 36
    assert sq.square_frobenius_closed(2, 3).value == 1
    with pytest.raises(sq.BadResidue):
        sq.square_frobenius_closed(9, 3)


def test_sq_frob_d4_examples():
    assert sq.square_frobenius_closed(5, 4).value == 16
    assert sq.square_frobenius_closed(21, 4).value == 324
    assert sq.square_frobenius_closed(7, 4).value == 16
    with pytest.raises(sq.BadResidue):
        sq.square_frobenius_closed(8, 4)


def test_sq_frob_d5_examples():
    assert sq.square_frobenius_closed(11, 5).value == 100
    assert sq.square_frobenius_closed(6, 5).value == 49
    with pytest.raises(sq.BadResidue):
        sq.square_frobenius_closed(10, 5)


def test_sq_frob_d5_exceptions():
    expect = {2: 1, 4: 1, 13: 100, 27: 441, 32: 676}
    for a, value in expect.items():
        ans = sq.square_frobenius_closed(a, 5)
        assert ans.value == value
        assert ans.branch == "exception"
        assert ans.value == oracle(a, 5)


def test_sq_frob_d1_examples():
    assert sq.sq_frob_d1(7).value == 25
    assert sq.sq_frob_d1(4).value == 1
    assert sq.sq_frob_d1(8).value == 4
    assert sq.sq_frob_d1(15).value == 100
    with pytest.raises(sq.SemigroupError):
        sq.sq_frob_d1(1)


def test_sq_frob_d2_examples():
    assert sq.sq_frob_d2(13).value == 100
    assert sq.sq_frob_d2(49).value == 1444
    assert sq.sq_frob_d2(7).value == 4
    assert sq.sq_frob_d2(9).value == 25
    with pytest.raises(sq.EvenInput):
        sq.sq_frob_d2(8)
    with pytest.raises(sq.SemigroupError):
        sq.sq_frob_d2(1)


D1_BRANCHES = [(7, "nonsquare"), (4, "square-sqrt3"), (9, "square-sqrt2"),
               (8, "adjacent-u3"), (15, "adjacent-sqrt2"), (24, "adjacent-sqrt3")]
D2_BRANCHES = [(13, "nonsquare"), (49, "square-u5"), (9, "square-sqrt2"),
               (1681, "square-sqrt3"), (7, "adjacent-sqrt3"), (23, "adjacent-sqrt2")]


@pytest.mark.parametrize("a,branch", D1_BRANCHES)
def test_d1_branches(a, branch):
    assert sq.sq_frob_d1(a).branch == branch


@pytest.mark.parametrize("a,branch", D2_BRANCHES)
def test_d2_branches(a, branch):
    assert sq.sq_frob_d2(a).branch == branch


@pytest.mark.parametrize("d,a,root,branch,b", [
    (3, 41, 34, "3b+1", 2), (3, 46, 41, "3b-1", 2),
    (4, 43, 34, "4b+1", 2), (4, 41, 38, "4b-1", 1),
    (5, 43, 37, "5b+1", 1), (5, 42, 35, "5b+2", 1),
    (5, 41, 37, "5b-1", 1), (5, 44, 41, "5b-2", 1),
    (3, 10**12 + 1, 999998585790, "3b-1", 471404),
    (4, 10**12 + 1, 999999000004, "4b+1", 249999),
    (5, 10**12 + 1, 999999000005, "5b+1", 199999),
])
def test_d3_d4_d5_branches(d, a, root, branch, b):
    ans = sq.square_frobenius_closed(a, d)
    assert (ans.root, ans.branch, ans.b) == (root, branch, b)


def test_answer_is_a_square_and_fields_agree():
    for a in range(2, 120):
        for d in range(1, 6):
            if gcd(a, d) != 1 or (d == 2 and a < 3):
                continue
            ans = sq.square_frobenius_closed(a, d)
            assert ans.value == ans.root ** 2
            assert (ans.a, ans.d) == (a, d)
            assert not sq.ap_contains(sq.ApSemigroup(a, d, 1), ans.value)


def test_closed_matches_oracle_small_sweep():
    for d in (3, 4, 5):
        for a in range(2, 501):
            if gcd(a, d) != 1:
                continue
            assert sq.square_frobenius_closed(a, d).value == oracle(a, d), (a, d)


def test_d1_d2_match_oracle_including_nonsquare_branch():
    for a in range(2, 401):
        assert sq.sq_frob_d1(a).value == oracle(a, 1), a
    for a in range(3, 401, 2):
        assert sq.sq_frob_d2(a).value == oracle(a, 2), a


def test_every_u_number_up_to_1e6_matches_the_oracle():
    # a = c^2 - d and c^2 for every u-number c: the four sqrt3 rows of the
    # d = 1, 2 rule where c is in the row's family, the sqrt2 rows elsewhere
    seen = set()
    n = 1
    while sq.u(n) <= 10 ** 6:
        c = sq.u(n)
        for d in (1, 2):
            for a in (c * c - d, c * c):
                if a > d and gcd(a, d) == 1:
                    ans = sq.square_frobenius_closed(a, d)
                    assert ans.value == oracle(a, d), (d, a, ans.branch)
                    seen.add((d, ans.branch))
        n += 1
    assert {(d, f"{kind}-sqrt3") for d in (1, 2) for kind in ("square", "adjacent")} <= seen


def test_closed_forms_never_call_the_oracle(monkeypatch):
    cases = ([(a, 1) for a, _ in D1_BRANCHES] + [(a, 2) for a, _ in D2_BRANCHES]
             + [(a, d) for d, a, _, _ in sq.load_table2() if d <= 5]
             + [(10**12 + 1, d) for d in range(1, 6)])
    truth = {(a, d): oracle(a, d) for a, d in cases}

    def refuse(*args, **kwargs):
        raise AssertionError("closed form called the oracle")

    monkeypatch.setattr(sq.closedform, "power_frobenius_oracle", refuse)
    monkeypatch.setattr(sq.power, "power_frobenius_oracle", refuse)
    for (a, d), value in truth.items():
        assert sq.square_frobenius_closed(a, d).value == value, (a, d)
    for fn in (sq.sq_frob_d1, sq.sq_frob_d2, sq.square_frobenius_closed):
        with pytest.raises(TypeError):
            fn(9, use_oracle=True)


def test_dispatcher():
    assert sq.square_frobenius_closed(10, 3).value == 81
    assert sq.square_frobenius_closed(7, 1).value == 25
    with pytest.raises(sq.SemigroupError):
        sq.square_frobenius_closed(10, 6)


def test_answer_json():
    ans = sq.square_frobenius_closed(10, 3)
    assert ans.to_json() == '{"a":10,"d":3,"value":81,"root":9,"branch":"3b+1"}'


@pytest.mark.parametrize("d", range(6, 13))
def test_closed_form_equals_oracle_for_every_table1_d(d):
    # d = 6..12 have golden table1.tsv rows, so their closed form is exact:
    # every coprime a past the exception scan range [2, 4d^3 - 1] and beyond
    for a in [*range(2, 4 * d ** 3 + 2000), 10 ** 12 + 1]:
        if gcd(a, d) == 1:
            assert sq.square_frobenius_closed(a, d).value == oracle(a, d), (a, d)


def test_closed_form_range_is_read_from_table1_once(monkeypatch):
    calls = []
    real = closedform.load_table1

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(closedform, "load_table1", counting)
    closedform._golden.cache_clear()
    try:
        for d in (3, 7, 12):
            sq.square_frobenius_closed(13, d)
        with pytest.raises(sq.SemigroupError, match="d = 13"):
            sq.square_frobenius_closed(14, 13)
        assert len(calls) == 1
    finally:
        closedform._golden.cache_clear()


def test_d1_needs_a_at_least_2():
    with pytest.raises(sq.SemigroupError):
        sq.sq_frob_d1(1)


def test_corrupt_table1_row_is_rejected(monkeypatch):
    text = "d\tcount\tmembers\n5\t4\t2,4,13,27,32\n"
    monkeypatch.setattr(closedform, "_data_text", lambda name: text)
    with pytest.raises(ValueError, match="corrupt golden table1 row"):
        closedform.load_table1()


def test_corrupt_table2_row_is_rejected(monkeypatch):
    text = "d\ta\tsqfrob_root\tbound_root\n5\t13\t10\n"
    monkeypatch.setattr(closedform, "_data_text", lambda name: text)
    with pytest.raises(ValueError):
        closedform.load_table2()


def test_d1_d2_answers_are_pinned():
    # every field of every d = 1, 2 answer (or its error) on all a up to 20000
    # and on r^2 - d, r^2 for r near each of the first 60 u-numbers
    us = [sq.u(n) for n in range(1, 61)]
    lines = []
    for d, fn in ((1, sq.sq_frob_d1), (2, sq.sq_frob_d2)):
        roots = (set(range(1, 2001)) | set(us)
                 | {c + e for c in us for e in (-2, -1, 1, 2) if c + e > 0})
        cases = sorted(set(range(-2, 20001)) | {r * r + o for r in roots for o in (-d, 0)})
        for a in cases:
            try:
                ans = fn(a)
            except sq.SemigroupError as e:
                lines.append(f"{d} {a} {type(e).__name__}: {e}")
            else:
                lines.append(f"{d} {a} {ans.value} {ans.root} {ans.branch} {ans.b}")
    assert len(lines) == 48302
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3aa33fd42ea4aac26871d9da0cab590d76d28dab7c4c848eeb03b79a85d8bad1"
