"""Verification harness: exception sets, golden tables, conjecture sweeps.

Every sweep compares a closed form or bound against the brute-force oracle
and reports mismatches; an empty mismatch list means the sweep passed.
Sweeps can fan out over processes; results are merged in input order, so the
output is identical for any worker count.
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


def resolve_jobs(jobs=None) -> int:
    """Worker count: explicit argument wins, then SQFROB_JOBS, then 1."""
    if jobs is None:
        env = os.environ.get("SQFROB_JOBS", "").strip()
        try:
            jobs = int(env) if env else 1
        except ValueError:
            raise ValueError(f"SQFROB_JOBS must be an integer, got {env!r}") from None
    return max(1, int(jobs))


def _chunk_spans(lo, hi, size=DEFAULT_CHUNK):
    spans = []
    while lo <= hi:
        spans.append((lo, min(lo + size - 1, hi)))
        lo += size
    return spans


def _slices(seq, size):
    if not seq:
        return [tuple(seq)]
    return [tuple(seq[i:i + size]) for i in range(0, len(seq), size)]


def _starmap(fn, argsets, jobs):
    if jobs <= 1 or len(argsets) <= 1:
        return [fn(*args) for args in argsets]
    with Pool(processes=min(jobs, len(argsets))) as pool:
        return pool.starmap(fn, argsets)


def _coprime_count(lo, hi, d):
    return sum(1 for a in range(lo, hi + 1) if gcd(a, d) == 1)


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


def _equality_chunk(d, lo, hi):
    out = []
    for a in range(lo, hi + 1):
        if gcd(a, d) != 1:
            continue
        s = ApSemigroup(a, d, 1)
        got = power_frobenius_oracle(s, 2).value
        bb = bound_B(s)
        if got != bb:
            out.append((a, got, bb))
    return out


def scan_bound_equality(d, lo, hi, jobs=1):
    """All (a, oracle, bound) with oracle != bound for coprime a in [lo, hi]."""
    argsets = [(d, c0, c1) for c0, c1 in _chunk_spans(lo, hi)]
    return [rec for chunk in _starmap(_equality_chunk, argsets, jobs) for rec in chunk]


def exception_set(d: int, jobs=None) -> ExceptionReport:
    """Exceptional a in [2, 4d^3 - 1]; outside that range oracle == bound."""
    if d < 3:
        raise DTooSmall(f"exception sets are defined for d >= 3, got {d}")
    jobs = resolve_jobs(jobs)
    hi = 4 * d ** 3 - 1
    recs = scan_bound_equality(d, 2, hi, jobs)
    return ExceptionReport(d=d, scan_range=(2, hi),
                           members=tuple(ExceptionRecord(*r) for r in recs))


def compare_table1(jobs=None) -> SweepReport:
    """Recompute every golden exception set and diff against the stored table."""
    jobs = resolve_jobs(jobs)
    golden = load_table1()
    t0 = time.perf_counter()
    checked = 0
    mismatches = []
    for d in sorted(golden):
        rep = exception_set(d, jobs=jobs)
        checked += _coprime_count(2, rep.scan_range[1], d)
        got = rep.member_values()
        if got != golden[d]:
            mismatches.append({"d": d, "expected": golden[d], "got": got})
    return SweepReport(scope="exception sets vs golden table",
                       span=f"d={min(golden)}..{max(golden)}", checked=checked,
                       mismatches=mismatches, wall_time=time.perf_counter() - t0)


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
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()
    recs = scan_bound_equality(d, a_lo, a_hi, jobs)
    return SweepReport(scope=f"bound equality, d={d}", span=(a_lo, a_hi),
                       checked=_coprime_count(a_lo, a_hi, d),
                       mismatches=[{"a": a, "oracle": o, "bound": b} for a, o, b in recs],
                       wall_time=time.perf_counter() - t0)


def _bound_upper_chunk(d, k, lo, hi):
    strong_checked = weak_checked = 0
    strong_viol, weak_viol = [], []
    strong_floor = 4 * k * d ** 3 - k * d
    for a in range(lo, hi + 1):
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
    return strong_checked, weak_checked, strong_viol, weak_viol


def verify_theorem_bound(d, k, a_lo, a_hi, jobs=None) -> SweepReport:
    """Check oracle <= bound_B over coprime a in [a_lo, a_hi].

    Mismatches cover the guaranteed hypothesis a + kd >= 4kd^3.  Results
    under the weaker per-profile hypothesis are reported in extra only; that
    condition is not asserted.
    """
    if d < 3:
        raise DTooSmall(f"the square bound needs d >= 3, got {d}")
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()
    argsets = [(d, k, c0, c1) for c0, c1 in _chunk_spans(a_lo, a_hi)]
    parts = _starmap(_bound_upper_chunk, argsets, jobs)
    return SweepReport(
        scope=f"square bound, d={d} k={k}", span=(a_lo, a_hi),
        checked=sum(p[0] for p in parts),
        mismatches=[m for p in parts for m in p[2]],
        wall_time=time.perf_counter() - t0,
        extra={"weak_hypothesis_checked": sum(p[1] for p in parts),
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
    return out


def verify_conjectures(which, max_a, jobs=None) -> SweepReport:
    """Conjectured d=1 / d=2 branch values vs the oracle, for every square or
    square-adjacent first term up to max_a."""
    jobs = resolve_jobs(jobs)
    targets = _conjecture_targets(which, max_a)
    t0 = time.perf_counter()
    argsets = [(which, sl) for sl in _slices(targets, 64)]
    parts = _starmap(_conjecture_chunk, argsets, jobs)
    return SweepReport(scope=f"square-frobenius conjecture, d={which}",
                       span=(2 if which == 1 else 3, max_a), checked=len(targets),
                       mismatches=[m for p in parts for m in p],
                       wall_time=time.perf_counter() - t0)


def _min_power_chunk(a_lo, a_hi, k_lo, k_hi):
    checked = 0
    viol = []
    for a in range(max(2, a_lo), a_hi + 1):
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
    jobs = resolve_jobs(jobs)
    t0 = time.perf_counter()
    argsets = [(c0, c1, k_lo, k_hi) for c0, c1 in _chunk_spans(a_lo, a_hi, size=32)]
    parts = _starmap(_min_power_chunk, argsets, jobs)
    return SweepReport(scope=f"smallest square vs (a-d)^2, k={k_lo}..{k_hi}",
                       span=(a_lo, a_hi), checked=sum(p[0] for p in parts),
                       mismatches=[m for p in parts for m in p[1]],
                       wall_time=time.perf_counter() - t0)
