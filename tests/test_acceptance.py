"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible with pytest -s) and then
asserts.  Sweeps are exhaustive over their stated ranges; time budgets are
wall-clock.  Set SQFROB_ACCEPT_LONG=1 to push the conjecture sweep from 1e5
to 1e6 and to check every u-number up to 1e7 (criterion 9).
"""

import os
import time
from math import gcd

import pytest

import sqfrob as sq


def _verdict(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_exception_sets_match_golden_table():
    t0 = time.perf_counter()
    rep = sq.compare_table1()
    dt = time.perf_counter() - t0
    _verdict("criterion 1: exception sets for d=3..12 equal the golden table",
             rep.passed and dt < 60,
             f"{rep.checked} first terms scanned in {dt:.1f}s; mismatches={rep.mismatches}")


def test_criterion_2_exceptional_values_match_golden_table():
    rep = sq.reproduce_table2()
    _verdict("criterion 2: oracle and bound reproduce all 62 golden exceptional rows",
             rep.passed and rep.checked == 62, f"mismatches={rep.mismatches}")


def test_criterion_3_closed_forms_equal_oracle_to_1e4():
    t0 = time.perf_counter()
    checked, bad = 0, []
    for d in (3, 4, 5):
        for a in range(2, 10001):
            if gcd(a, d) != 1:
                continue
            checked += 1
            got = sq.square_frobenius_closed(a, d).value
            want = sq.power_frobenius_oracle(sq.ApSemigroup(a, d, 1), 2).value
            if got != want:
                bad.append((d, a, got, want))
    dt = time.perf_counter() - t0
    _verdict("criterion 3: closed forms d=3,4,5 equal the oracle for all a <= 1e4",
             not bad and dt < 60, f"{checked} cases in {dt:.1f}s; first bad={bad[:3]}")


def test_criterion_4_bound_is_exact_beyond_threshold():
    t0 = time.perf_counter()
    checked, bad = 0, []
    for d in range(3, 13):
        lo = max(2, 4 * d ** 3 - d)
        rep = sq.verify_bound_equality(d, lo, 10000)
        checked += rep.checked
        bad.extend({"d": d, **m} for m in rep.mismatches)
    dt = time.perf_counter() - t0
    _verdict("criterion 4: oracle equals bound_B for d=3..12 once a+d >= 4d^3 (a <= 1e4)",
             not bad, f"{checked} cases in {dt:.1f}s; first bad={bad[:3]}")


def test_criterion_5_bound_holds_for_higher_k():
    results = []
    for d in (3, 4, 5):
        for k in (2, 3):
            lo = 4 * k * d ** 3 - k * d
            hi = lo + 220 * d  # at least 200 coprime first terms
            rep = sq.verify_theorem_bound(d, k, lo, hi)
            results.append((d, k, rep))
    ok = all(r.passed and r.checked >= 200 for _, _, r in results)
    _verdict("criterion 5: square oracle <= bound_B for k=2,3 and d=3,4,5 "
             "(200+ sampled first terms each)",
             ok, "; ".join(f"d={d},k={k}:{r.checked}" for d, k, r in results))


def test_criterion_6_conjectured_branches_match_oracle():
    max_a = 1_000_000 if os.environ.get("SQFROB_ACCEPT_LONG") else 100_000
    t0 = time.perf_counter()
    r1 = sq.verify_conjectures(1, max_a)
    r2 = sq.verify_conjectures(2, max_a + 1)
    dt = time.perf_counter() - t0
    _verdict(f"criterion 6: conjectured d=1,2 values equal the oracle up to {max_a}",
             r1.passed and r2.passed and dt < 300,
             f"{r1.checked}+{r2.checked} targets in {dt:.1f}s; "
             f"bad={r1.mismatches[:2] + r2.mismatches[:2]}")


def test_criterion_7_property_suites():
    # square characterization == membership, exhaustively
    checked_sq = 0
    for a in range(2, 31):
        for d in range(1, 8):
            if gcd(a, d) != 1:
                continue
            for k in range(1, 5):
                S = sq.ApSemigroup(a, d, k)
                for i in range(-k * d, a + 1):
                    checked_sq += 1
                    assert (sq.square_in_ap(S, i)
                            == sq.ap_contains(S, (a - i) ** 2)), (a, d, k, i)

    # O(1) membership == Apery-table membership, exhaustively
    checked_mem = 0
    for a in range(2, 31):
        for d in range(1, 8):
            if gcd(a, d) != 1:
                continue
            for k in range(1, 5):
                S = sq.ApSemigroup(a, d, k)
                G = sq.NumericalSemigroup(S.generators)
                f = sq.ap_frobenius(S)
                assert f == sq.frobenius(G), (a, d, k)
                for value in range(f + a + 1):
                    checked_mem += 1
                    assert sq.ap_contains(S, value) == sq.contains(G, value), (a, d, k, value)

    # alpha-profile invariants for every residue class with d <= 60
    checked_prof = 0
    for d in range(3, 61):
        for r in range(1, d):
            if gcd(r, d) != 1:
                continue
            prof = sq.lambda_profile(d + r, d)
            alphas, n = prof.alphas, len(prof.alphas)
            checked_prof += 1
            assert prof.lambdas[0] == 0
            assert all(prof.lambdas[i] == prof.lambdas[d - i] for i in range(1, d))
            assert n >= 2
            assert all(alphas[i] + alphas[n - 1 - i] == d for i in range(n))
            assert 1 <= alphas[0] and 2 * alphas[0] < d < 2 * alphas[-1]
            ext = list(alphas) + [prof.alpha_next]
            assert all(0 < ext[i + 1] - ext[i] <= d - 1 for i in range(n))
            assert all(ext[i] + ext[i + 1] <= 2 * d for i in range(n))

    # smallest-power window s <= f_k <= s**k and the (a-d)^2 theorem, a <= 200
    checked_min = 0
    for a in range(2, 201):
        for k in range(1, 5):
            for d in range(1, a * k // (2 * k + 1) + 1):
                if gcd(a, d) != 1:
                    continue
                S = sq.ApSemigroup(a, d, k)
                checked_min += 1
                assert sq.power_min_oracle(S, 2).value <= (a - d) ** 2, (a, d, k)
                for power in (2, 3, 4):
                    vp = sq.power_min_oracle(S, power).value
                    assert a <= vp <= a ** power, (a, d, k, power)

    _verdict("criterion 7: property suites (square test, membership, alpha profile, "
             "smallest square)", True,
             f"{checked_sq}+{checked_mem}+{checked_prof}+{checked_min} checks")


def test_criterion_8_u_sequence_prefix():
    want = [1, 2, 3, 5, 7, 12, 17, 29, 41, 70, 99, 169, 239, 408, 577, 985]
    got = [sq.u(n) for n in range(1, 17)]
    _verdict("criterion 8: first 16 u-sequence terms", got == want, f"got={got}")


def test_criterion_9_every_u_number_matches_the_oracle():
    # a = c^2 - d and c^2 for every u-number c, where the d = 1, 2 rule takes
    # its sqrt3 branch in the row's family and its sqrt2 branch elsewhere
    if not os.environ.get("SQFROB_ACCEPT_LONG"):
        pytest.skip("tests/test_closedform.py checks u-numbers to 1e6; the long run goes to 1e7")
    max_c = 10 ** 7
    t0 = time.perf_counter()
    bad, checked, n = [], 0, 1
    while sq.u(n) <= max_c:
        c = sq.u(n)
        for d in (1, 2):
            for a in (c * c - d, c * c):
                if a > d and gcd(a, d) == 1:
                    checked += 1
                    want = sq.power_frobenius_oracle(sq.ApSemigroup(a, d, 1), 2).value
                    if sq.square_frobenius_closed(a, d).value != want:
                        bad.append((d, a))
        n += 1
    dt = time.perf_counter() - t0
    _verdict(f"criterion 9: d=1,2 closed forms equal the oracle at every u-number <= {max_c}",
             not bad, f"{checked} targets in {dt:.1f}s; bad={bad[:4]}")
