from math import gcd

import pytest

import sqfrob as sq


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
    ("d2_square_sqrt3", [41, 239, 1393], [7, 1, 17]),
    ("d2_adjacent", [3, 17, 99, 577], [5, 29, 169, 7, 41, 2]),
])
def test_u_index_set_member(family, members, non_members):
    for b in members:
        assert sq.u_index_set_member(b, family), (family, b)
    for b in non_members:
        assert not sq.u_index_set_member(b, family), (family, b)


def test_floor_helpers():
    assert sq.floor_sqrt2(2) == 2
    assert sq.floor_sqrt2(3) == 4
    assert sq.floor_sqrt3(2) == 3
    assert sq.floor_half_sqrt2(3) == 2
    assert sq.floor_half_sqrt2(7) == 4


def test_sq_frob_d3_examples():
    assert sq.sq_frob_d3(10).value == 81
    assert sq.sq_frob_d3(106).value == 98 ** 2
    assert sq.sq_frob_d3(7).value == 36
    assert sq.sq_frob_d3(2).value == 1
    with pytest.raises(sq.BadResidue):
        sq.sq_frob_d3(9)


def test_sq_frob_d4_examples():
    assert sq.sq_frob_d4(5).value == 16
    assert sq.sq_frob_d4(21).value == 324
    assert sq.sq_frob_d4(7).value == 16
    with pytest.raises(sq.BadResidue):
        sq.sq_frob_d4(8)


def test_sq_frob_d5_examples():
    assert sq.sq_frob_d5(11).value == 100
    assert sq.sq_frob_d5(6).value == 49
    with pytest.raises(sq.BadResidue):
        sq.sq_frob_d5(10)


def test_sq_frob_d5_exceptions():
    expect = {2: 1, 4: 1, 13: 100, 27: 441, 32: 676}
    for a, value in expect.items():
        ans = sq.sq_frob_d5(a)
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
    ans = sq.sq_frob_d3(10)
    assert ans.to_json() == '{"a":10,"d":3,"value":81,"root":9,"branch":"3b+1"}'
