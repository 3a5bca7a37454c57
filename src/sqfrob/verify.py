"""Verification harness: exception sets, golden tables, conjecture sweeps.

Every sweep compares a closed form or bound against the brute-force oracle
and reports mismatches; an empty mismatch list means the sweep passed.
Each sweep cuts its work into fixed chunks and runs them through at most one
process pool; results are merged in input order, so the output is identical
for any worker count.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from math import gcd
from multiprocessing import Pool

from .arith import ApSemigroup, DTooSmall, bound_B, lambda_profile
from .closedform import load_table1, load_table2, sq_frob_d1, sq_frob_d2
from .power import power_frobenius_oracle, power_min_oracle

DEFAULT_CHUNK = 4096
MAX_CHUNKS = 4096


def resolve_jobs(jobs=None) -> int:
    """Worker count: explicit argument wins, then SQFROB_JOBS, then 1."""
    if jobs is None:
        env = os.environ.get("SQFROB_JOBS", "").strip()
        try:
            jobs = int(env) if env else 1
        except ValueError:
            raise ValueError(f"SQFROB_JOBS must be an integer, got {env!r}") from None
    return max(1, int(jobs))


def _chunks(items, size):
    # A chunk of a range is a range, so first terms travel as three ints.
    # Chunks grow past size so that a huge sweep never holds more than
    # MAX_CHUNKS of them.
    size = max(size, -(-len(items) // MAX_CHUNKS))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _run(fn, argsets, jobs):
    """[fn(*args) for args in argsets], over a Pool of at most one worker per CPU."""
    jobs = min(resolve_jobs(jobs), len(argsets), os.cpu_count() or 1)
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
class ExceptionReport:
    """Exceptional first terms a where the square oracle misses bound_B."""

    d: int
    scan_range: tuple[int, int]
    members: tuple[ExceptionRecord, ...]

    def member_values(self) -> list[int]:
        return [rec.a for rec in self.members]

    def to_dict(self):
        return {
            "d": self.d,
            "scan_range": list(self.scan_range),
            "members": [{"a": r.a, "oracle_value": r.oracle_value,
                         "bound_B_value": r.bound_B_value} for r in self.members],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


@dataclass
class SweepReport:
    """Outcome of one verification sweep; empty mismatches means it passed.

    wall_time is informational only and stays out of the canonical JSON so
    equal sweeps serialize to identical bytes.  The span renders under the
    JSON key "range".
    """

    scope: str
    span: object
    checked: int
    mismatches: list = field(default_factory=list)
    wall_time: float = 0.0
    extra: dict = field(default_factory=dict)

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_parts(cls, scope, span, parts, t0, mismatches=None, extra=None):
        """Merge chunk results (checked, mismatches, ...) in input order."""
        if mismatches is None:
            mismatches = [m for p in parts for m in p[1]]
        return cls(scope=scope, span=span, checked=sum(p[0] for p in parts),
                   mismatches=mismatches, wall_time=time.perf_counter() - t0,
                   extra=extra or {})

    def to_text(self) -> str:
        lines = [
            f"scope:    {self.scope}",
            f"range:    {self.span}",
            f"checked:  {self.checked}",
            f"passed:   {self.passed}",
            f"walltime: {self.wall_time:.2f}s",
        ]
        for m in self.mismatches:
            lines.append(f"mismatch: {m}")
        if self.extra:
            lines.append(f"extra:    {self.extra}")
        return "\n".join(lines)


def _equality_chunk(d, firsts):
    checked = 0
    out = []
    for a in firsts:
        if gcd(a, d) != 1:
            continue
        s = ApSemigroup(a, d, 1)
        got = power_frobenius_oracle(s, 2).value
        bb = bound_B(s)
        checked += 1
        if got != bb:
            out.append({"a": a, "oracle": got, "bound": bb})
    return checked, out


def _equality_argsets(d, lo, hi):
    return [(d, firsts) for firsts in _chunks(range(lo, hi + 1), DEFAULT_CHUNK)]


def exception_set(d: int, jobs=None) -> ExceptionReport:
    """Exceptional a in [2, 4d^3 - 1]; outside that range oracle == bound."""
    if d < 3:
        raise DTooSmall(f"exception sets are defined for d >= 3, got {d}")
    hi = 4 * d ** 3 - 1
    parts = _run(_equality_chunk, _equality_argsets(d, 2, hi), jobs)
    return ExceptionReport(d=d, scan_range=(2, hi), members=tuple(
        ExceptionRecord(m["a"], m["oracle"], m["bound"]) for p in parts for m in p[1]))


def compare_table1(jobs=None) -> SweepReport:
    """Recompute every golden exception set and diff against the stored table."""
    golden = load_table1()
    t0 = time.perf_counter()
    argsets = [args for d in sorted(golden) for args in _equality_argsets(d, 2, 4 * d ** 3 - 1)]
    parts = _run(_equality_chunk, argsets, jobs)
    got = {d: [] for d in golden}
    for (d, _), (_, found) in zip(argsets, parts):
        got[d] += [m["a"] for m in found]
    return SweepReport.from_parts(
        "exception sets vs golden table", f"d={min(golden)}..{max(golden)}", parts, t0,
        mismatches=[{"d": d, "expected": golden[d], "got": got[d]}
                    for d in sorted(golden) if got[d] != golden[d]])


def reproduce_table2() -> SweepReport:
    """Recompute oracle and bound roots for every golden exceptional row."""
    t0 = time.perf_counter()
    mismatches = []
    rows = load_table2()
    for d, a, sq_root, b_root in rows:
        s = ApSemigroup(a, d, 1)
        got_sq = power_frobenius_oracle(s, 2)
        got_b = bound_B(s)
        if got_sq.value != sq_root ** 2 or got_b != b_root ** 2:
            mismatches.append({"d": d, "a": a,
                               "expected_sqfrob": sq_root ** 2, "got_sqfrob": got_sq.value,
                               "expected_bound": b_root ** 2, "got_bound": got_b})
    return SweepReport(scope="exceptional values vs golden table", span=f"{len(rows)} rows",
                       checked=len(rows), mismatches=mismatches,
                       wall_time=time.perf_counter() - t0)


def verify_bound_equality(d, a_lo, a_hi, jobs=None) -> SweepReport:
    """Check oracle == bound_B exactly (k = 1) for coprime a in [a_lo, a_hi]."""
    t0 = time.perf_counter()
    parts = _run(_equality_chunk, _equality_argsets(d, a_lo, a_hi), jobs)
    return SweepReport.from_parts(f"bound equality, d={d}", (a_lo, a_hi), parts, t0)


def _bound_upper_chunk(d, k, firsts):
    strong_checked = weak_checked = 0
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
        s = ApSemigroup(a, d, k)
        got = power_frobenius_oracle(s, 2).value
        bb = bound_B(s)
        ok = got <= bb
        if strong:
            strong_checked += 1
            if not ok:
                strong_viol.append({"a": a, "oracle": got, "bound": bb})
        if weak:
            weak_checked += 1
            if not ok:
                weak_viol.append({"a": a, "oracle": got, "bound": bb})
    return strong_checked, strong_viol, weak_checked, weak_viol


def verify_theorem_bound(d, k, a_lo, a_hi, jobs=None) -> SweepReport:
    """Check oracle <= bound_B over coprime a in [a_lo, a_hi].

    Mismatches cover the guaranteed hypothesis a + kd >= 4kd^3.  Results
    under the weaker per-profile hypothesis are reported in extra only; that
    condition is not asserted.
    """
    if d < 3:
        raise DTooSmall(f"the square bound needs d >= 3, got {d}")
    t0 = time.perf_counter()
    argsets = [(d, k, firsts) for firsts in _chunks(range(a_lo, a_hi + 1), DEFAULT_CHUNK)]
    parts = _run(_bound_upper_chunk, argsets, jobs)
    return SweepReport.from_parts(
        f"square bound, d={d} k={k}", (a_lo, a_hi), parts, t0,
        extra={"weak_hypothesis_checked": sum(p[2] for p in parts),
               "weak_hypothesis_violations": [m for p in parts for m in p[3]]})


def _conjecture_targets(which, max_a):
    targets = set()
    if which == 1:
        b = 2
        while b * b <= max_a + 1:
            for a in (b * b - 1, b * b):
                if 2 <= a <= max_a:
                    targets.add(a)
            b += 1
    elif which == 2:
        c = 3
        while c * c <= max_a + 2:
            for a in (c * c - 2, c * c):
                if 3 <= a <= max_a:
                    targets.add(a)
            c += 2
    else:
        raise ValueError(f"which must be 1 or 2, got {which}")
    return sorted(targets)


def _conjecture_chunk(which, targets):
    fn, d = (sq_frob_d1, 1) if which == 1 else (sq_frob_d2, 2)
    out = []
    for a in targets:
        predicted = fn(a)
        truth = power_frobenius_oracle(ApSemigroup(a, d, 1), 2)
        if predicted.value != truth.value:
            out.append({"a": a, "predicted": predicted.value,
                        "branch": predicted.branch, "oracle": truth.value})
    return len(targets), out


def verify_conjectures(which, max_a, jobs=None) -> SweepReport:
    """Conjectured d=1 / d=2 branch values vs the oracle, for every square or
    square-adjacent first term up to max_a."""
    targets = _conjecture_targets(which, max_a)
    t0 = time.perf_counter()
    parts = _run(_conjecture_chunk, [(which, c) for c in _chunks(targets, 64)], jobs)
    return SweepReport.from_parts(f"square-frobenius conjecture, d={which}",
                                  (2 if which == 1 else 3, max_a), parts, t0)


def _min_power_chunk(k_lo, k_hi, firsts):
    checked = 0
    viol = []
    for a in firsts:
        if a < 2:
            continue
        for k in range(k_lo, k_hi + 1):
            for d in range(1, a * k // (2 * k + 1) + 1):
                if gcd(a, d) != 1:
                    continue
                v = power_min_oracle(ApSemigroup(a, d, k), 2).value
                checked += 1
                if v > (a - d) ** 2:
                    viol.append({"a": a, "d": d, "k": k, "min_square": v})
    return checked, viol


def verify_min_power_theorem(a_lo, a_hi, k_lo=1, k_hi=4, jobs=None) -> SweepReport:
    """Smallest square in <a, ..., a+kd> is at most (a-d)^2 when d <= ak/(2k+1)."""
    t0 = time.perf_counter()
    argsets = [(k_lo, k_hi, firsts) for firsts in _chunks(range(a_lo, a_hi + 1), 32)]
    parts = _run(_min_power_chunk, argsets, jobs)
    return SweepReport.from_parts(f"smallest square vs (a-d)^2, k={k_lo}..{k_hi}",
                                  (a_lo, a_hi), parts, t0)
