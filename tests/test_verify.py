import json
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sqfrob as sq


def test_golden_tables_load_and_agree_with_each_other():
    t1 = sq.load_table1()
    t2 = sq.load_table2()
    assert sorted(t1) == list(range(3, 13))
    assert len(t2) == 62
    by_d = {}
    for d, a, _, _ in t2:
        by_d.setdefault(d, []).append(a)
    for d in range(3, 13):
        assert by_d.get(d, []) == t1[d], d


def test_exception_set_d5():
    rep = sq.exception_set(5)
    assert rep.scan_range == (2, 499)
    assert rep.member_values() == [2, 4, 13, 27, 32]
    golden = {(d, a): (r1, r2) for d, a, r1, r2 in sq.load_table2()}
    for rec in rep.members:
        r1, r2 = golden[(5, rec.a)]
        assert rec.oracle_value == r1 ** 2
        assert rec.bound_B_value == r2 ** 2


def test_exception_set_d3_empty():
    rep = sq.exception_set(3)
    assert rep.member_values() == []
    assert rep.to_json() == '{"d":3,"scan_range":[2,107],"members":[]}'


def test_exception_set_needs_d3():
    with pytest.raises(sq.DTooSmall):
        sq.exception_set(2)


def test_reproduce_table2_passes():
    rep = sq.reproduce_table2()
    assert rep.passed
    assert rep.checked == 62


def test_verify_bound_equality_beyond_threshold():
    rep = sq.verify_bound_equality(3, 4 * 27 - 3, 2000)
    assert rep.passed
    assert rep.checked == sum(1 for a in range(105, 2001) if gcd(a, 3) == 1)


def test_verify_theorem_bound_counts_and_passes():
    lo = 4 * 2 * 125 - 10  # strong hypothesis floor for d=5, k=2
    rep = sq.verify_theorem_bound(5, 2, 2, 1200)
    assert rep.passed
    assert rep.checked == sum(1 for a in range(lo, 1201) if gcd(a, 5) == 1)
    assert rep.extra["weak_hypothesis_checked"] >= rep.checked
    assert rep.extra["weak_hypothesis_violations"] == []


@pytest.mark.parametrize("d, k, every_check", [
    (3, 2, True), (4, 2, True), (5, 3, True), (3, 1, False), (5, 1, False)])
def test_theorem_bound_counts_the_checks_that_cannot_fail(d, k, every_check):
    # a check with bound_B >= top^2, top the root the oracle scan starts at,
    # passes whatever the scan finds.  For k >= 2 that is every checked a;
    # for k = 1 B is sharp and it is none.  5 chunks, so jobs=2 takes the
    # pool path and merges the chunk counts.
    rep = sq.verify_theorem_bound(d, k, 2, 20000, jobs=2)
    assert rep.passed and rep.checked > 0
    assert rep.vacuous == (rep.checked if every_check else 0)
    assert "vacuous" not in rep.to_json()


def test_verify_conjectures_targets():
    rep = sq.verify_conjectures(1, 10)
    assert rep.checked == 4  # first terms 3, 4, 8, 9
    assert rep.passed
    rep = sq.verify_conjectures(2, 100)
    assert rep.checked == 8  # 7, 9, 23, 25, 47, 49, 79, 81
    assert rep.passed
    with pytest.raises(ValueError):
        sq.verify_conjectures(3, 10)


def test_verify_conjectures_sweep():
    assert sq.verify_conjectures(1, 5000).passed
    assert sq.verify_conjectures(2, 5001).passed


def test_verify_min_power_theorem():
    rep = sq.verify_min_power_theorem(2, 80)
    assert rep.passed
    assert rep.checked > 0
    # spot check the statement at (a, d, k) = (7, 2, 1)
    assert sq.power_min_oracle(sq.ApSemigroup(7, 2, 1), 2).value == 9 <= 25


def test_parallel_runs_serialize_identically():
    assert (sq.exception_set(5, jobs=1).to_json()
            == sq.exception_set(5, jobs=3).to_json())
    assert (sq.verify_conjectures(1, 20000, jobs=1).to_json()
            == sq.verify_conjectures(1, 20000, jobs=4).to_json())
    # every input below has at least 3 chunks, so jobs=2 takes the pool path
    for sweep, args in ((sq.compare_table1, ()),
                        (sq.verify_bound_equality, (3, 105, 9000)),
                        (sq.verify_theorem_bound, (3, 1, 2, 9000)),
                        (sq.verify_min_power_theorem, (2, 80))):
        assert sweep(*args, jobs=1).to_json() == sweep(*args, jobs=2).to_json(), sweep


def test_compare_table1_counts_and_starts_one_pool(monkeypatch):
    real_pool = sq.verify.Pool
    started = []

    def counting_pool(*args, **kwargs):
        started.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(sq.verify, "Pool", counting_pool)
    monkeypatch.setattr(sq.verify.os, "cpu_count", lambda: 2)
    rep = sq.compare_table1(jobs=2)
    assert rep.passed
    assert rep.checked == 13766  # coprime a in [2, 4d^3 - 1] summed over d = 3..12
    assert started == [{"processes": 2}]


def test_workers_capped_at_cpu_count(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, argsets):
            return [fn(*args) for args in argsets]

    serial = sq.verify_conjectures(1, 100000, jobs=1).to_json()
    monkeypatch.setattr(sq.verify, "Pool", SerialPool)
    monkeypatch.setattr(sq.verify.os, "cpu_count", lambda: 2)
    assert sq.verify_conjectures(1, 100000, jobs=500).to_json() == serial
    assert started == [2]
    monkeypatch.setattr(sq.verify.os, "cpu_count", lambda: None)
    assert sq.verify_conjectures(1, 100000, jobs=500).to_json() == serial
    assert started == [2]


def test_chunks_are_capped_and_cover_the_range():
    items = range(2, 10**9 + 1)
    chunks = sq.verify._chunks(items, 4096)
    assert len(chunks) <= sq.verify.MAX_CHUNKS
    assert chunks[0].start == items.start and chunks[-1].stop == items.stop
    assert all(x.stop == y.start for x, y in zip(chunks, chunks[1:]))
    assert sum(len(c) for c in chunks) == len(items)
    # below the cap, boundaries are the fixed 4096-term ones
    assert [len(c) for c in sq.verify._chunks(range(2, 4 * 16**3), 4096)] == [
        4096, 4096, 4096, 4094]
    # past 2^63 terms, where len() raises OverflowError
    items = range(2, 10**20 + 1)
    chunks = sq.verify._chunks(items, 4096)
    assert len(chunks) <= sq.verify.MAX_CHUNKS
    assert chunks[0].start == items.start and chunks[-1].stop == items.stop
    assert all(x.stop == y.start for x, y in zip(chunks, chunks[1:]))
    assert sum((c[-1] - c[0]) // c.step + 1 for c in chunks) == 10**20 - 1
    # a step-2 range keeps its step in every chunk
    items = range(3, 10**6, 2)
    chunks = sq.verify._chunks(items, 32)
    assert all(c.step == 2 for c in chunks)
    assert [a for c in chunks for a in c] == list(items)


def test_conjecture_sweeps_check_every_target():
    squares = {b * b for b in range(2, 20)}
    odd_squares = {c * c for c in range(3, 20, 2)}
    for max_a in range(-3, 301):
        rep = sq.verify_conjectures(1, max_a)
        assert rep.passed
        assert rep.checked == sum(1 for a in range(2, max_a + 1)
                                  if a in squares or a + 1 in squares), max_a
        rep = sq.verify_conjectures(2, max_a)
        assert rep.passed
        assert rep.checked == sum(1 for a in range(1, max_a + 1)
                                  if a in odd_squares or a + 2 in odd_squares), max_a


class _Planned(Exception):
    pass


def test_every_sweep_plans_ranges(monkeypatch):
    planned = []

    def record(fn, argsets, jobs):
        planned.append(argsets)
        raise _Planned

    monkeypatch.setattr(sq.verify, "_run", record)
    sweeps = ((sq.exception_set, (10**7,)),
              (sq.compare_table1, ()),
              (sq.verify_bound_equality, (3, 2, 10**30)),
              (sq.verify_theorem_bound, (3, 2, 2, 10**30)),
              (sq.verify_conjectures, (1, 10**10)),
              (sq.verify_conjectures, (2, 10**10)),
              (sq.verify_min_power_theorem, (2, 10**25)))
    for sweep, args in sweeps:
        planned.clear()
        with pytest.raises(_Planned):
            sweep(*args)
        (argsets,) = planned
        assert 1 <= len(argsets) <= sq.verify.MAX_CHUNKS, sweep
        assert all(isinstance(args[-1], range) for args in argsets), sweep


def test_perfbench_patch_names_are_bound():
    # A traced benchmark run swaps each of these names by getattr/setattr;
    # one that is no longer bound fails every such run with AttributeError.
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import tracing
    finally:
        sys.path.remove(bench)
    for module, attr, _ in tracing.PATCHES:
        assert hasattr(module, attr), (module.__name__, attr)


def test_default_jobs_run_in_process(monkeypatch):
    # jobs= is the only worker-count knob: no environment variable is read,
    # and None, 0 or a negative count never starts a pool
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setenv("SQFROB_JOBS", "3")
    monkeypatch.setattr(sq.verify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sq.verify, "Pool", no_pool)
    for jobs in (None, 0, -3):
        rep = sq.verify_conjectures(1, 100000, jobs=jobs)
        assert rep.passed and rep.checked > 0, jobs


def test_sweep_report_json_shape():
    rep = sq.verify_conjectures(1, 10)
    obj = json.loads(rep.to_json())
    assert obj == {"scope": "square-frobenius conjecture, d=1", "range": [2, 10],
                   "checked": 4, "passed": True, "mismatches": []}
    assert "wall_time" not in obj
    assert rep.wall_time >= 0.0


# Every sweep can fail: each test below breaks one input the sweep compares
# and checks that the report names it with the sweep's own mismatch keys.

def test_compare_table1_reports_a_dropped_golden_member(monkeypatch):
    golden = sq.load_table1()
    full, golden[5] = golden[5], golden[5][1:]
    monkeypatch.setattr(sq.verify, "load_table1", lambda: golden)
    rep = sq.compare_table1()
    assert not rep.passed
    assert rep.mismatches == [{"d": 5, "expected": full[1:], "got": full}]


def test_reproduce_table2_reports_a_wrong_row(monkeypatch):
    d, a, root, b_root = sq.load_table2()[0]
    monkeypatch.setattr(sq.verify, "load_table2", lambda: [(d, a, root + 1, b_root)])
    rep = sq.reproduce_table2()
    assert not rep.passed and rep.checked == 1
    assert rep.mismatches == [{"d": d, "a": a,
                               "expected_sqfrob": (root + 1) ** 2, "got_sqfrob": root ** 2,
                               "expected_bound": b_root ** 2, "got_bound": b_root ** 2}]


def test_verify_theorem_bound_reports_strong_and_weak_violations(monkeypatch):
    real = sq.verify._oracle_and_bound

    def lowered_bound(a, d, k):
        got, bb, steps = real(a, d, k)
        return got, bb - 1, steps

    monkeypatch.setattr(sq.verify, "_oracle_and_bound", lowered_bound)
    rep = sq.verify_theorem_bound(3, 1, 2, 300)
    assert not rep.passed
    weak = rep.extra["weak_hypothesis_violations"]
    assert rep.mismatches and weak
    for m in rep.mismatches + weak:
        assert set(m) == {"a", "oracle", "bound"} and m["oracle"] > m["bound"]
    assert all(m["a"] >= 4 * 27 - 3 for m in rep.mismatches)


def test_verify_conjectures_reports_a_wrong_prediction(monkeypatch):
    monkeypatch.setattr(sq.verify, "sq_frob_d1",
                        lambda a: sq.ClosedFormAnswer(a, 1, 0, 0, "stub"))
    rep = sq.verify_conjectures(1, 10)
    assert not rep.passed and rep.checked == 4
    assert [m["a"] for m in rep.mismatches] == [3, 4, 8, 9]
    assert all(set(m) == {"a", "predicted", "branch", "oracle"} and m["predicted"] == 0
               and m["branch"] == "stub" and m["oracle"] > 0 for m in rep.mismatches)


def test_verify_min_power_theorem_reports_a_violation_and_skips_a_below_2(monkeypatch):
    checked = sq.verify_min_power_theorem(2, 12, 1, 1).checked
    monkeypatch.setattr(sq.verify, "power_min_oracle",
                        lambda s, k: sq.PowerFrobResult(k, s.a, s.a ** k, "oracle"))
    rep = sq.verify_min_power_theorem(0, 12, 1, 1)
    assert not rep.passed and rep.checked == checked
    assert rep.mismatches and all(
        set(m) == {"a", "d", "k", "min_square"} and m["min_square"] > (m["a"] - m["d"]) ** 2
        for m in rep.mismatches)


def test_failing_sweep_through_the_cli_exits_1(capsys, monkeypatch):
    from sqfrob import cli

    monkeypatch.setattr(sq.verify, "sq_frob_d1",
                        lambda a: sq.ClosedFormAnswer(a, 1, 0, 0, "stub"))
    assert cli.main(["verify", "--target", "conj1", "--max", "10"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_theorem_bound_rejects_small_d_before_any_chunk(monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(sq.verify, "_run", no_chunk)
    with pytest.raises(sq.DTooSmall):
        sq.verify_theorem_bound(2, 1, 2, 10)


# The sweeps compare the oracle's own AP scan with the bound's own cell on
# plain ints.  Each input rejection and answer stays the public objects' own.

@pytest.mark.parametrize("a_lo", [1, -7])
def test_bound_equality_rejects_a_first_term_below_2(a_lo):
    with pytest.raises(sq.SemigroupError, match=f"first term must be >= 2, got {a_lo}$"):
        sq.verify_bound_equality(5, a_lo, 100)


def _assert_oracle_and_bound_agree(a, d, k):
    assume(gcd(a, d) == 1)
    S = sq.ApSemigroup(a, d, k)
    res = sq.power_frobenius_oracle(S, 2)
    assert sq.verify._oracle_and_bound(a, d, k) == (res.value, sq.bound_B(S), res.steps)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**4), st.integers(3, 40), st.integers(1, 4))
@example(2, 3, 1)
@example(10**4, 39, 4)
def test_oracle_and_bound_is_the_public_oracle_and_bound(a, d, k):
    _assert_oracle_and_bound_agree(a, d, k)


@settings(max_examples=15, deadline=None)
@given(st.integers(2**31 + 1, 2**31 + 10**6), st.integers(3, 40), st.integers(1, 4))
@example(2**31 + 1, 40, 1)
def test_oracle_and_bound_is_the_public_oracle_and_bound_past_2_31(a, d, k):
    _assert_oracle_and_bound_agree(a, d, k)


def test_sweep_steps_sum_the_oracle_steps_at_every_job_count():
    rep = sq.exception_set(7)
    assert rep.steps == sum(sq.power_frobenius_oracle(sq.ApSemigroup(a, 7, 1), 2).steps
                            for a in range(2, 4 * 7**3) if gcd(a, 7) == 1)
    assert "steps" not in rep.to_json()
    # each input below has at least 2 chunks, so jobs=2 takes the pool path
    for sweep, args in ((sq.exception_set, (11,)),
                        (sq.compare_table1, ()),
                        (sq.verify_bound_equality, (3, 105, 9000)),
                        (sq.verify_theorem_bound, (3, 1, 2, 9000)),
                        (sq.verify_conjectures, (1, 20000)),
                        (sq.verify_min_power_theorem, (2, 80))):
        serial, pooled = sweep(*args, jobs=1), sweep(*args, jobs=2)
        assert serial.steps == pooled.steps > 0, sweep
        assert '"steps"' not in serial.to_json(), sweep
