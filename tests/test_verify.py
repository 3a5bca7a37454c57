import json
import sys
from math import gcd
from pathlib import Path

import pytest

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


def test_jobs_env_fallback(monkeypatch):
    monkeypatch.delenv("SQFROB_JOBS", raising=False)
    assert sq.verify.resolve_jobs(None) == 1
    assert sq.verify.resolve_jobs(5) == 5
    monkeypatch.setenv("SQFROB_JOBS", "3")
    assert sq.verify.resolve_jobs(None) == 3
    assert sq.verify.resolve_jobs(2) == 2
    monkeypatch.setenv("SQFROB_JOBS", "abc")
    with pytest.raises(ValueError, match="SQFROB_JOBS.*'abc'"):
        sq.verify.resolve_jobs(None)
    assert sq.verify.resolve_jobs(2) == 2


def test_sweep_report_json_shape():
    rep = sq.verify_conjectures(1, 10)
    obj = json.loads(rep.to_json())
    assert obj == {"scope": "square-frobenius conjecture, d=1", "range": [2, 10],
                   "checked": 4, "passed": True, "mismatches": []}
    assert "wall_time" not in obj
    assert rep.wall_time >= 0.0
