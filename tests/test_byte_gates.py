"""Byte gates: digests of the canonical JSON of the verify sweeps.

A refactor of the sweeps, the oracle, the bound or the closed forms must
leave these bytes unchanged, at every worker count.
"""

import hashlib

import pytest

import sqfrob as sq

VERIFY_SUITE_SHA256 = "2ac563934ae4c8ec38dfa9cce7d767f6bdfe31fd7fdd0e07858b57bb022f55bc"
EXCEPTION_SETS_SHA256 = "d39f9f7973abcd1b5d554c6bdeb3a41cd5c175375c6338aed7d2571b2cc331b0"


def _sha256_of_lines(reports):
    return hashlib.sha256("\n".join(r.to_json() for r in reports).encode()).hexdigest()


def _verify_suite(jobs):
    return [
        sq.compare_table1(jobs=jobs),
        sq.reproduce_table2(),
        *(sq.exception_set(d, jobs=jobs) for d in (3, 5, 7, 13)),
        sq.verify_bound_equality(3, 105, 20000, jobs=jobs),
        sq.verify_bound_equality(5, 2, 3000, jobs=jobs),
        sq.verify_theorem_bound(5, 2, 2, 3000, jobs=jobs),
        sq.verify_theorem_bound(3, 1, 2, 9000, jobs=jobs),
        sq.verify_conjectures(1, 200000, jobs=jobs),
        sq.verify_conjectures(2, 200001, jobs=jobs),
        sq.verify_min_power_theorem(2, 120, jobs=jobs),
        sq.verify_min_power_theorem(50, 90, 2, 3, jobs=jobs),
    ]


# jobs=3 starts three workers only on three or more CPUs: _run caps the
# worker count at the CPU count, so on two CPUs it runs as jobs=2
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_verify_suite_digest(jobs):
    assert _sha256_of_lines(_verify_suite(jobs)) == VERIFY_SUITE_SHA256


def test_exception_sets_digest():
    reports = [sq.exception_set(d) for d in range(3, 17)]
    assert _sha256_of_lines(reports) == EXCEPTION_SETS_SHA256
    # the oracle roots these sweeps scanned, so that no pruning creeps in
    assert sum(r.steps for r in reports) == 3_855_124
