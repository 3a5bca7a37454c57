"""Verification harness: exception sets, golden tables, conjecture sweeps.

Every sweep compares a closed form or bound against the brute-force oracle
and reports mismatches; an empty mismatch list means the sweep passed.
Each sweep cuts its work into fixed chunks and runs them through at most one
process pool; results are merged in input order, so the output is identical
for any worker count.  Each report counts the oracle roots its sweep scanned
in steps, outside the canonical JSON.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from math import gcd, isqrt

from .arith import ApSemigroup, DTooSmall, _cell, _residue_profile, lambda_profile
# Not called here.  perfbench/tracing.py patches verify.bound_B by name, so
# removing this import makes every traced benchmark run fail.
from .arith import bound_B  # noqa: F401
from .closedform import load_table1, load_table2, sq_frob_d1, sq_frob_d2
from .core import CanonicalJson
from .power import _ap_scan, power_frobenius_oracle, power_min_oracle

DEFAULT_CHUNK = 4096
MAX_CHUNKS = 4096


def _chunks(work, size):
    # A chunk of a range is a range, so work travels as three ints.  Chunks
    # grow past size so that a huge sweep never holds more than MAX_CHUNKS of
    # them.  The length is computed with Python ints, because a range's
    # built-in length overflows at 2^63 terms.
    n = (work[-1] - work[0]) // work.step + 1 if work else 0
    size = max(size, -(-n // MAX_CHUNKS))
    return [work[i:i + size] for i in range(0, n, size)]


def Pool(processes):
    """A multiprocessing Pool; multiprocessing is imported on the first sweep that needs one."""
    from multiprocessing import Pool as pool_cls
    return pool_cls(processes=processes)


def _run(fn, argsets, jobs):
    """[fn(*args) for args in argsets], over a Pool of at most one worker per CPU.

    jobs None, 0 or negative runs in-process, as 1 does."""
    jobs = min(jobs or 1, len(argsets), os.cpu_count() or 1)
    if jobs <= 1:
        return [fn(*args) for args in argsets]
    with Pool(processes=jobs) as pool:
        return pool.starmap(fn, argsets)


@dataclass(frozen=True)
class ExceptionRecord:
    a: int
    oracle_value: int
    bound_B_value: int


@dataclass(frozen=True)
class ExceptionReport(CanonicalJson):
    """Exceptional first terms a where the square oracle misses bound_B.

    steps, the oracle roots scanned, stays out of the canonical JSON.
    """

    d: int
    scan_range: tuple[int, int]
    members: tuple[ExceptionRecord, ...]
    steps: int = 0

    def member_values(self) -> list[int]:
        return [rec.a for rec in self.members]

    def to_dict(self):
        return {
            "d": self.d,
            "scan_range": list(self.scan_range),
            "members": [{"a": r.a, "oracle_value": r.oracle_value,
                         "bound_B_value": r.bound_B_value} for r in self.members],
        }


@dataclass
class SweepReport(CanonicalJson):
    """Outcome of one verification sweep; empty mismatches means it passed.

    wall_time, steps (the oracle roots scanned) and vacuous are
    informational only and stay out of the canonical JSON so equal sweeps
    serialize to identical bytes.  vacuous counts, in a bound sweep, the
    checked a whose bound_B is at least top^2 for the root top the oracle
    scan starts at, isqrt of the Frobenius number: there oracle <= bound_B
    cannot fail.  The span renders under the JSON key "range".
    """

    scope: str
    span: object
    checked: int
    mismatches: list = field(default_factory=list)
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)
    steps: int = 0
    vacuous: int = 0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self):
        obj = {
            "scope": self.scope,
            "range": list(self.span) if isinstance(self.span, tuple) else self.span,
            "checked": self.checked,
            "passed": self.passed,
            "mismatches": self.mismatches,
        }
        if self.extra:
            obj["extra"] = self.extra
        return obj

    @classmethod
    def from_parts(cls, scope, span, parts, t0, mismatches=None, extra=None, vacuous=0):
        """Merge chunk results (checked, mismatches, ..., steps) in input order."""
        if mismatches is None:
            mismatches = [m for p in parts for m in p[1]]
        return cls(scope=scope, span=span, checked=sum(p[0] for p in parts),
                   mismatches=mismatches, wall_time=time.perf_counter() - t0,
                   extra=extra or {}, steps=sum(p[-1] for p in parts), vacuous=vacuous)


def _oracle_and_bound(a, d, k):
    """(square oracle value, bound_B, oracle steps) of <a, a+d, ..., a+kd>.

    The oracle's own scan and the bound's own cell, on plain ints: no object
    is built per first term.  Inputs the ApSemigroup constructor rejects
    raise its error.
    """
    if a < 2 or d < 1 or k < 1 or gcd(a, d) != 1:
        ApSemigroup(a, d, k)  # raises
    m, top = _ap_scan(a, d, k, 2)
    edge = _cell(a, d, k, _residue_profile(a % d, d))[3]
    return m * m, (a - edge) ** 2, top - m + 1


def _equality_chunk(d, firsts):
    checked = steps = 0
    out = []
    for a in firsts:
        if gcd(a, d) != 1:
            continue
        got, bb, n = _oracle_and_bound(a, d, 1)
        checked += 1
        steps += n
        if got != bb:
            out.append({"a": a, "oracle": got, "bound": bb})
    return checked, out, steps


def _equality_argsets(d, lo=2, hi=None):
    # by default the exception scan range [2, 4d^3 - 1]
    hi = 4 * d ** 3 - 1 if hi is None else hi
    return [(d, firsts) for firsts in _chunks(range(lo, hi + 1), DEFAULT_CHUNK)]


def exception_set(d: int, jobs=None) -> ExceptionReport:
    """Exceptional a in [2, 4d^3 - 1]; outside that range oracle == bound."""
    if d < 3:
        raise DTooSmall(f"exception sets are defined for d >= 3, got {d}")
    argsets = _equality_argsets(d)
    parts = _run(_equality_chunk, argsets, jobs)
    span = (argsets[0][1][0], argsets[-1][1][-1])  # first and last a scanned
    return ExceptionReport(d=d, scan_range=span, members=tuple(
        ExceptionRecord(m["a"], m["oracle"], m["bound"]) for p in parts for m in p[1]),
        steps=sum(p[2] for p in parts))


def compare_table1(jobs=None) -> SweepReport:
    """Recompute every golden exception set and diff against the stored table."""
    golden = load_table1()
    t0 = time.perf_counter()
    argsets = [args for d in sorted(golden) for args in _equality_argsets(d)]
    parts = _run(_equality_chunk, argsets, jobs)
    got = {d: [] for d in golden}
    for (d, _), (_, found, _) in zip(argsets, parts):
        got[d] += [m["a"] for m in found]
    return SweepReport.from_parts(
        "exception sets vs golden table", f"d={min(golden)}..{max(golden)}", parts, t0,
        mismatches=[{"d": d, "expected": golden[d], "got": got[d]}
                    for d in sorted(golden) if got[d] != golden[d]])


def reproduce_table2() -> SweepReport:
    """Recompute oracle and bound roots for every golden exceptional row."""
    t0 = time.perf_counter()
    mismatches = []
    steps = 0
    rows = load_table2()
    for d, a, sq_root, b_root in rows:
        got_sq, got_b, n = _oracle_and_bound(a, d, 1)
        steps += n
        if got_sq != sq_root ** 2 or got_b != b_root ** 2:
            mismatches.append({"d": d, "a": a,
                               "expected_sqfrob": sq_root ** 2, "got_sqfrob": got_sq,
                               "expected_bound": b_root ** 2, "got_bound": got_b})
    return SweepReport.from_parts("exceptional values vs golden table", f"{len(rows)} rows",
                                  [(len(rows), mismatches, steps)], t0)


def verify_bound_equality(d, a_lo, a_hi, jobs=None) -> SweepReport:
    """Check oracle == bound_B exactly (k = 1) for coprime a in [a_lo, a_hi]."""
    t0 = time.perf_counter()
    parts = _run(_equality_chunk, _equality_argsets(d, a_lo, a_hi), jobs)
    return SweepReport.from_parts(f"bound equality, d={d}", (a_lo, a_hi), parts, t0)


def _bound_upper_chunk(d, k, firsts):
    strong_checked = weak_checked = vacuous = steps = 0
    strong_viol, weak_viol = [], []
    strong_floor = 4 * k * d ** 3 - k * d
    for a in firsts:
        if gcd(a, d) != 1:
            continue
        prof = lambda_profile(a, d)
        strong = a >= strong_floor
        weak = a + k * d > (4 * (k * d - prof.lambda_star) + 1) * d * d
        if not (strong or weak):
            continue
        got, bb, n = _oracle_and_bound(a, d, k)
        steps += n
        viol = [] if got <= bb else [{"a": a, "oracle": got, "bound": bb}]
        if strong:
            strong_checked += 1
            strong_viol += viol
            # the scan ran from top = root + steps - 1 down to the root
            vacuous += bb >= (isqrt(got) + n - 1) ** 2
        if weak:
            weak_checked += 1
            weak_viol += viol
    return strong_checked, strong_viol, weak_checked, weak_viol, vacuous, steps


def verify_theorem_bound(d, k, a_lo, a_hi, jobs=None) -> SweepReport:
    """Check oracle <= bound_B over coprime a in [a_lo, a_hi].

    Mismatches cover the guaranteed hypothesis a + kd >= 4kd^3.  Results
    under the weaker per-profile hypothesis are reported in extra only; that
    condition is not asserted.  The report's vacuous counts the checked a
    where the check cannot fail: every one measured for k >= 2, d <= 12.
    """
    if d < 3:
        raise DTooSmall(f"the square bound needs d >= 3, got {d}")
    t0 = time.perf_counter()
    argsets = [(d, k, firsts) for firsts in _chunks(range(a_lo, a_hi + 1), DEFAULT_CHUNK)]
    parts = _run(_bound_upper_chunk, argsets, jobs)
    return SweepReport.from_parts(
        f"square bound, d={d} k={k}", (a_lo, a_hi), parts, t0,
        extra={"weak_hypothesis_checked": sum(p[2] for p in parts),
               "weak_hypothesis_violations": [m for p in parts for m in p[3]]},
        vacuous=sum(p[4] for p in parts))


def _conjecture_chunk(which, max_a, roots):
    # d=1 targets are b^2-1 and b^2, d=2 targets c^2-2 and c^2: ascending,
    # distinct, and past max_a only at the last root
    fn = sq_frob_d1 if which == 1 else sq_frob_d2
    checked = steps = 0
    out = []
    for r in roots:
        for a in (r * r - which, r * r):
            if a > max_a:
                break
            predicted = fn(a)
            truth = power_frobenius_oracle(ApSemigroup(a, which, 1), 2)
            checked += 1
            steps += truth.steps
            if predicted.value != truth.value:
                out.append({"a": a, "predicted": predicted.value,
                            "branch": predicted.branch, "oracle": truth.value})
    return checked, out, steps


def verify_conjectures(which, max_a, jobs=None) -> SweepReport:
    """Conjectured d=1 / d=2 branch values vs the oracle, for every square or
    square-adjacent first term up to max_a."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    t0 = time.perf_counter()
    # roots b >= 2 for d=1, odd c >= 3 for d=2; 32 roots are 64 targets
    roots = range(which + 1, isqrt(max(max_a + which, 0)) + 1, which)
    parts = _run(_conjecture_chunk, [(which, max_a, c) for c in _chunks(roots, 32)], jobs)
    return SweepReport.from_parts(f"square-frobenius conjecture, d={which}",
                                  (which + 1, max_a), parts, t0)


def _min_power_chunk(k_lo, k_hi, firsts):
    # the smallest-square oracle scans the roots 1..root, so it takes root steps
    checked = steps = 0
    viol = []
    for a in firsts:
        for k in range(k_lo, k_hi + 1):
            for d in range(1, a * k // (2 * k + 1) + 1):
                if gcd(a, d) != 1:
                    continue
                res = power_min_oracle(ApSemigroup(a, d, k), 2)
                checked += 1
                steps += res.root
                if res.value > (a - d) ** 2:
                    viol.append({"a": a, "d": d, "k": k, "min_square": res.value})
    return checked, viol, steps


def verify_min_power_theorem(a_lo, a_hi, k_lo=1, k_hi=4, jobs=None) -> SweepReport:
    """Smallest square in <a, ..., a+kd> is at most (a-d)^2 when d <= ak/(2k+1)."""
    t0 = time.perf_counter()
    argsets = [(k_lo, k_hi, firsts) for firsts in _chunks(range(a_lo, a_hi + 1), 32)]
    parts = _run(_min_power_chunk, argsets, jobs)
    return SweepReport.from_parts(f"smallest square vs (a-d)^2, k={k_lo}..{k_hi}",
                                  (a_lo, a_hi), parts, t0)
