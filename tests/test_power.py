import inspect
import random
import sys
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import naive
import sqfrob as sq


@pytest.mark.parametrize("n,k,want", [
    (109, 2, 10), (36, 2, 6), (80, 3, 4), (81, 3, 4), (125, 3, 5),
    (1, 5, 1), (0, 3, 0), (7, 1, 7), (2 ** 90, 9, 1024),
])
def test_kth_root_floor(n, k, want):
    assert sq.kth_root_floor(n, k) == want


def test_kth_root_floor_errors():
    with pytest.raises(sq.NegativeInput):
        sq.kth_root_floor(-5, 2)
    with pytest.raises(ValueError):
        sq.kth_root_floor(5, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 30), st.integers(1, 6))
def test_kth_root_floor_exact(n, k):
    r = sq.kth_root_floor(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_power_frobenius_oracle_examples():
    res = sq.power_frobenius_oracle(sq.NumericalSemigroup([13, 18]), 2)
    assert (res.k, res.root, res.value, res.method) == (2, 10, 100, "oracle")
    assert res.to_json() == '{"k":2,"root":10,"value":100,"method":"oracle"}'
    assert sq.power_frobenius_oracle(sq.NumericalSemigroup([4, 7]), 2).value == 9
    assert sq.power_frobenius_oracle(sq.NumericalSemigroup([2, 3]), 2).value == 1
    assert sq.power_frobenius_oracle(sq.NumericalSemigroup([2, 3]), 3).value == 1
    assert sq.power_frobenius_oracle(sq.NumericalSemigroup([3, 5]), 2).value == 4


def test_power_frobenius_oracle_errors():
    with pytest.raises(sq.FullSemigroup):
        sq.power_frobenius_oracle(sq.NumericalSemigroup([1]), 2)
    with pytest.raises(ValueError):
        sq.power_frobenius_oracle(sq.NumericalSemigroup([4, 7]), 1)


def test_power_frobenius_oracle_ap_route_matches_generic():
    for a in range(2, 21):
        for d in range(1, 6):
            if gcd(a, d) != 1:
                continue
            for k in range(1, 4):
                S = sq.ApSemigroup(a, d, k)
                G = sq.NumericalSemigroup(S.generators)
                for power in (2, 3):
                    assert (sq.power_frobenius_oracle(S, power).value
                            == sq.power_frobenius_oracle(G, power).value), (a, d, k, power)


@pytest.mark.parametrize("gens,power", [
    ([4, 7], 2), ([13, 18], 2), ([5, 7, 9], 2), ([6, 10, 15], 2),
    ([3, 17], 2), ([9, 10], 2), ([4, 7], 3), ([5, 6], 3), ([7, 11, 13], 4),
])
def test_power_frobenius_oracle_matches_naive(gens, power):
    got = sq.power_frobenius_oracle(sq.NumericalSemigroup(gens), power)
    assert got.value == naive.power_frob(gens, power)
    assert got.value == got.root ** power


def test_power_frobenius_witness_disproves_membership():
    res = sq.power_frobenius_oracle(sq.ApSemigroup(13, 5, 1), 2)
    x, y = res.witness["x"], res.witness["y"]
    assert 13 * x + 5 * y == res.value
    assert x < 0 or y > 1 * x

    res = sq.power_frobenius_oracle(sq.NumericalSemigroup([13, 18]), 2)
    assert res.value < res.witness["apery_entry"]
    assert res.value % 13 == res.witness["residue"]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 400), st.integers(1, 12), st.integers(1, 3), st.sampled_from([2, 3]))
@example(2, 3, 1, 2)
@example(40, 7, 3, 3)
@example(116, 11, 3, 3)
def test_ap_oracle_scan_matches_naive(a, d, k, power):
    # the one-inequality scan against the sieve, and its witness on its own terms
    assume(gcd(a, d) == 1)
    S = sq.ApSemigroup(a, d, k)
    res = sq.power_frobenius_oracle(S, power)
    assert res.value == naive.power_frob(S.generators, power)
    x, y = res.witness["x"], res.witness["y"]
    assert a * x + d * y == res.value
    assert 0 <= y < a
    assert y > k * x


@pytest.mark.parametrize("a,d,k,power", [(2, 3, 1, 2), (40, 7, 3, 3), (116, 11, 3, 3)])
def test_ap_oracle_witness_can_have_negative_x(a, d, k, power):
    # the scan folds x < 0 into y > k*x; these inputs take that case
    assert sq.power_frobenius_oracle(sq.ApSemigroup(a, d, k), power).witness["x"] < 0


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 60), st.integers(1, 12), st.integers(1, 3), st.sampled_from([2, 3]))
def test_sum_count_reference_matches_sieve(a, d, k, power):
    # the O(1) membership rule behind ap_power_root, against the sieve
    assume(gcd(a, d) == 1)
    gens = [a + i * d for i in range(k + 1)]
    root, top = naive.ap_power_root(a, d, k, power)
    assert root ** power == naive.power_frob(gens, power)
    assert top ** power <= naive.frobenius(gens) < (top + 1) ** power


def _square_scan_matches_sum_count(a, d, k=1):
    # root and scan length of the square oracle on <a, a+d, ..., a+kd>,
    # against a reference that decides membership by counting summands
    res = sq.power_frobenius_oracle(sq.ApSemigroup(a, d, k), 2)
    root, top = naive.ap_power_root(a, d, k, 2)
    assert res.root == root
    assert res.steps == top - root + 1
    return root, top


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 4), st.integers(1, 40), st.integers(1, 4))
def test_square_oracle_matches_sum_count_small_a(a, d, k):
    assume(gcd(a, d) == 1)
    _square_scan_matches_sum_count(a, d, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(2 ** 31 + 1, 2 ** 31 + 10 ** 6), st.integers(1, 40), st.integers(1, 4))
def test_square_oracle_matches_sum_count_past_int32(a, d, k):
    assume(gcd(a, d) == 1)
    _square_scan_matches_sum_count(a, d, k)


@settings(max_examples=8, deadline=None)
@given(st.integers(10 ** 9, 10 ** 11), st.integers(1, 12), st.integers(1, 4))
def test_square_oracle_matches_sum_count_large_a(a, d, k):
    assume(gcd(a, d) == 1)
    _square_scan_matches_sum_count(a, d, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(10 ** 6, 10 ** 9), st.integers(1, 40), st.integers(1, 4))
def test_square_oracle_matches_sum_count_across_the_hand_off(a, d, k):
    # scans of about 500 to 20,000 roots: k = 1 starts on the offset scan,
    # which hands off to the packed one on some and not on others; k >= 2
    # is packed from its first root and ends in any step
    assume(gcd(a, d) == 1)
    _square_scan_matches_sum_count(a, d, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(2 ** 30 - 10 ** 6, 2 ** 30 + 10 ** 6), st.integers(1, 40))
@example(2 ** 30 - 1, 1)
@example(2 ** 30, 1)
@example(2 ** 30 - 1, 40)
@example(2 ** 30, 39)
def test_square_oracle_matches_sum_count_either_side_of_2_30(a, d):
    # k = 1 runs the offset scan on either side of 2**30, where a outgrows
    # one CPython int digit; top*top <= a*a + (d - 2)*a - d, so with d >= 5
    # the scan starts above a
    assume(gcd(a, d) == 1)
    _, top = _square_scan_matches_sum_count(a, d)
    assert (top > a) == (d >= 5)


@pytest.mark.parametrize("a,d,k,step,lane", [
    (2267418, 11, 3, 7, 63),
    (1894981, 14, 2, 8, 0), (1427177, 22, 4, 8, 63),
    (2984002, 33, 2, 30, 0), (2625045, 26, 4, 27, 63),
    # answers on the first or last lane of a step
    (2572715, 31, 2, 12, 0), (714369, 17, 3, 8, 0), (1125793, 21, 4, 8, 0),
    (6123331, 37, 2, 7, 63), (6584621, 5, 3, 35, 63), (1918897, 40, 4, 43, 63),
    # top = 1: the other 63 lanes hold roots <= 0
    (2, 1, 2, 0, 0), (3, 1, 3, 0, 0), (2, 3, 4, 0, 0),
    # a second root of the same step is missing too, below the answer
    (292268, 29, 4, 8, 0), (2380345, 2, 4, 12, 0),
    # (a + kd)*y <= k*(root + 1)**2: a bound taken at the step's
    # second-lowest root would skip the answer
    (983453, 7, 3, 8, 63), (1224127, 14, 3, 12, 63),
    (122346, 5, 3, 3, 63), (61909, 22, 4, 3, 63), (111527, 33, 4, 3, 63),
])
def test_square_oracle_answer_at_a_packed_lane(a, d, k, step, lane):
    # k >= 2 scans test _LANES roots per step on the packed scan from top
    # down.  Each answer was found by search and checked against
    # naive.ap_power_root.
    root, top = _square_scan_matches_sum_count(a, d, k)
    assert divmod(top - root, sq.power._LANES) == (step, lane)
    assert _scan_route(a, d, k) == ("packed", top)


@pytest.mark.parametrize("a,d,step,lane,second", [
    (10817, 20, None, None, False),
    (12767, 8, 0, 0, False), (12903, 40, 0, 63, False),
    (4071474, 17, 27, 56, False), (7062592, 11, 37, 60, False),
    # a second root of the same step is missing too, below the answer
    (13095, 8, 0, 0, True), (11381, 32, 0, 1, True), (2232299, 13, 19, 49, True),
    (8364783, 31, 74, 43, True),
    # past a = 2**30, on 40-bit lanes: the first and the last lane of a step
    (1302597878, 3, 794, 0, True), (1268807068, 13, 552, 63, False),
])
def test_square_oracle_answer_at_an_offset_packed_lane(a, d, step, lane, second):
    # the offset scan (k = 1) tests _OFFSET_HANDOFF roots one at a time,
    # then the packed scan tests _LANES roots per step; step None is the
    # last root before the hand-off.  Lane widths are 16, 24, 32 and 40
    # bits.  Each answer was found by search and checked against
    # naive.ap_power_root.
    root, top = _square_scan_matches_sum_count(a, d)
    scalar, lanes = sq.power._OFFSET_HANDOFF, sq.power._LANES
    if step is None:
        assert top - root + 1 == scalar
        assert _scan_route(a, d, 1) == ("offset", None)
    else:
        assert divmod(top - root - scalar, lanes) == (step, lane)
        assert _scan_route(a, d, 1) == ("offset", top - scalar)
        below = range(root - 1, max(root - lanes + lane, 0), -1)
        assert any(not naive.ap_member(a, d, 1, m * m) for m in below) == second


@settings(max_examples=60, deadline=None)
@given(st.integers(14, 30).flatmap(
    lambda b: st.integers(max(10 ** 4, 1 << (b - 1)), (1 << b) - 1)), st.integers(1, 40))
@example(10817, 20)
@example(13095, 8)
@example(2 ** 30 - 1, 40)
def test_square_oracle_matches_sum_count_across_the_offset_hand_off(a, d):
    # k = 1 up to 2**30, with a drawn evenly by bit length: scans of a few
    # dozen roots near a = 10**4 end on the offset loop, the rest (up to
    # about 10**5 roots near 2**30) go on in packed lanes
    assume(gcd(a, d) == 1)
    _square_scan_matches_sum_count(a, d)


def _lanes_root_by_root(a, dinv, hi, width):
    # the lanes of _packed_scan, one root at a time: y(m) = m*m*dinv and
    # h(m) = (L*L - 2mL)*dinv mod a in lane j for m = hi - j
    L = sq.power._LANES
    Y = H = ones = 0
    for j in range(L):
        m = hi - j
        Y |= (m * m * dinv % a) << (j * width)
        H |= ((L * L - 2 * m * L) * dinv % a) << (j * width)
        ones |= 1 << (j * width)
    return Y, H, ones, 2 * L * L * dinv % a


@pytest.mark.parametrize("b", [6, 14, 22, 30, 62])
def test_packed_lanes_by_doubling_match_root_by_root(b):
    # a just below 2**b has bits(a) + 2 = b + 2 bits, a from 2**b one more,
    # so the lane width steps up a byte across 2**b
    rng = random.Random(b)
    span = min(1 << (b - 2), 10 ** 6)
    for side, lo in ((0, (1 << b) - span), (8, 1 << b)):
        width = 8 * -(-(b + 2) // 8) + side
        for d in (1, 2, 3, 7, 40):
            a = rng.randrange(lo, lo + span) | 1
            while gcd(a, d) != 1:
                a += 2
            assert 8 * -(-(a.bit_length() + 2) // 8) == width
            dinv = pow(d, -1, a)
            # g(hi) = 0 at hi = (a + 1)/2, and hi < _LANES reaches roots <= 0
            for hi in (rng.randrange(65, 4 * a), (a + 1) // 2, rng.randrange(1, 64)):
                y, g = hi * hi * dinv % a, (2 * hi - 1) * dinv % a
                assert (sq.power._lanes(a, dinv, y, g, width)
                        == _lanes_root_by_root(a, dinv, hi, width)), (a, d, hi)


def test_short_packed_scans_match_sum_count():
    # k >= 2 scans with top < _LANES start on lanes that run past root 1
    # to roots <= 0; root 1 is always missing, so the scan stops there
    cases = 0
    for a in range(2, 200):
        for d in range(1, 13):
            if gcd(a, d) != 1:
                continue
            for k in range(2, 5):
                want = naive.ap_power_root(a, d, k, 2)
                if want[1] < sq.power._LANES:
                    assert sq.power._ap_scan(a, d, k, 2) == want, (a, d, k)
                    cases += 1
    assert cases == 2266


@pytest.mark.parametrize("a,d", [(7, 5), (3, 7), (9, 8), (11, 13), (2, 9), (13, 40)])
def test_square_oracle_scan_starting_above_a(a, d):
    # top > a, so the scan's first offset a - top is negative
    assert _square_scan_matches_sum_count(a, d)[1] > a


@pytest.mark.parametrize("d", [1, 2])
def test_square_oracle_matches_sum_count_d1_d2(d):
    for a in range(2, 3000):
        if gcd(a, d) == 1:
            _square_scan_matches_sum_count(a, d)


def test_square_oracle_steps_are_pinned():
    # an absolute scan length, so that no pruning creeps into the oracle
    assert sq.power_frobenius_oracle(sq.ApSemigroup(1019495539, 3, 1), 2).steps == 31928


@pytest.mark.parametrize("a,d,k,steps", [
    (2538633157, 5, 1, 71254), (10168757624, 7, 2, 94086), (30218068790, 9, 3, 142981),
])
def test_square_oracle_steps_are_pinned_past_2_30(a, d, k, steps):
    # k = 1 hands off to packed lanes after _OFFSET_HANDOFF roots, and
    # k >= 2 scans on them from top; each pin was checked against
    # naive.ap_power_root
    assert sq.power_frobenius_oracle(sq.ApSemigroup(a, d, k), 2).steps == steps


def _scan_route(a, d, k):
    # (loop, hi): which square route of _ap_scan ran, from the source lines
    # it executed, and the root _packed_scan started from (None if it never
    # ran)
    scan, packed = sq.power._ap_scan.__code__, sq.power._packed_scan.__code__
    ran, start = set(), []

    def trace(frame, event, arg):
        if frame.f_code is packed:
            start.append(frame.f_locals["hi"])
        elif frame.f_code is scan:
            if event == "line":
                ran.add(frame.f_lineno)
            return trace
        return None

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        sq.power._ap_scan(a, d, k, 2)
    finally:
        sys.settrace(old)
    lines, first = inspect.getsourcelines(sq.power._ap_scan)
    text = {lines[n - first].strip() for n in ran}
    assert "v = m ** k" not in text, text
    assert len(start) <= 1, start
    return ("offset" if "w += 2" in text else "packed"), (start[0] if start else None)


@pytest.mark.parametrize("a,d,k,route", [
    (2 ** 30 - 1, 1, 1, "offset"), (2 ** 30 - 3, 40, 1, "offset"), (1000003, 7, 1, "offset"),
    (2 ** 30, 1, 1, "offset"), (2 ** 30 + 1, 37, 1, "offset"),
    (1009, 3, 2, "packed"), (1000003, 7, 3, "packed"), (2 ** 30 - 1, 1, 4, "packed"),
    (2538633157, 5, 1, "offset"), (10168757624, 7, 2, "packed"),
    (30218068790, 9, 3, "packed"),
])
def test_square_scan_route(a, d, k, route):
    # every k = 1 square scan starts on the offset scan, which hands off to
    # the packed scan once its first 224 roots held no answer; every other
    # square scan is packed from its first root
    root, top = _square_scan_matches_sum_count(a, d, k)
    if route == "packed":
        start = top
    else:
        start = top - 224 if top - root + 1 > 224 else None
    assert _scan_route(a, d, k) == (route, start)


@pytest.mark.parametrize("power", [2, 3])
def test_oracle_steps_stay_out_of_json(power):
    S = sq.ApSemigroup(13, 5, 1)
    G = sq.NumericalSemigroup(S.generators)
    ap, generic = sq.power_frobenius_oracle(S, power), sq.power_frobenius_oracle(G, power)
    top = sq.kth_root_floor(sq.ap_frobenius(S), power)
    for res in (ap, generic):
        assert res.steps == top - res.root + 1
        assert res.to_dict() == {"k": power, "root": res.root, "value": res.value,
                                 "method": "oracle"}
    assert ap.to_json() == generic.to_json()


def test_power_min_oracle_examples():
    assert sq.power_min_oracle(sq.NumericalSemigroup([4, 9]), 2).value == 4
    assert sq.power_min_oracle(sq.NumericalSemigroup([5, 7, 9]), 2).value == 9
    assert sq.power_min_oracle(sq.NumericalSemigroup([2, 3]), 2).value == 4
    assert sq.power_min_oracle(sq.NumericalSemigroup([3, 7]), 2).value == 9
    assert sq.power_min_oracle(sq.NumericalSemigroup([1]), 2).value == 1
    with pytest.raises(ValueError):
        sq.power_min_oracle(sq.NumericalSemigroup([4, 9]), 1)


@pytest.mark.parametrize("gens,power", [
    ([4, 9], 2), ([5, 7, 9], 2), ([6, 10, 15], 2), ([7, 11, 13], 2),
    ([3, 5], 3), ([8, 9], 3), ([11, 13], 4),
])
def test_power_min_oracle_matches_naive(gens, power):
    S = sq.NumericalSemigroup(gens)
    assert sq.power_min_oracle(S, power).value == naive.min_power(gens, power)



def test_power_min_oracle_ap_route_matches_naive():
    cases = 0
    for a in range(2, 25):
        for d in range(1, 9):
            if gcd(a, d) != 1:
                continue
            for k in (1, 2, 3):
                S = sq.ApSemigroup(a, d, k)
                for p in (2, 3):
                    assert sq.power_min_oracle(S, p).value == \
                        naive.min_power(S.generators, p), (a, d, k, p)
                    cases += 1
    assert cases == 702


def test_min_power_between_multiplicity_and_its_kth_power():
    # smallest k-power in S lies in [multiplicity, multiplicity**k]
    for gens in ([4, 9], [5, 7, 9], [7, 11, 13], [13, 18], [6, 10, 15], [9, 10]):
        S = sq.NumericalSemigroup(gens)
        s = S.multiplicity
        for k in range(2, 5):
            v = sq.power_min_oracle(S, k).value
            assert s <= v <= s ** k, (gens, k, v)


def test_result_json_shape():
    res = sq.power_min_oracle(sq.NumericalSemigroup([4, 9]), 2)
    assert res.to_dict() == {"k": 2, "root": 2, "value": 4, "method": "oracle"}
