"""Fast checks of the benchmark itself, on the small variant of each workload.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the library's own test run.
"""

import dataclasses
import functools
import json
import math
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))
import sqfrob  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _small_main(monkeypatch, capsys, argv):
    monkeypatch.setattr(run, "run_workload", functools.partial(run.run_workload, small=True))
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed(monkeypatch, capsys, workload, trace):
    res = _small_main(monkeypatch, capsys, ["--workload", workload, "--seed", "1",
                                            "--seconds", "0.05", "--trace", str(trace)])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    for v in res["metrics"].values():
        assert math.isfinite(v["value"])
        assert trace or v["value"] > 0


def test_layer_map_names_only_declared_metrics():
    assert set(run.LAYER_TO_END_TO_END) == set(PER_LAYER)
    workloads = set(run.WORKLOADS)
    for targets in run.LAYER_TO_END_TO_END.values():
        for t in targets:
            w, _, metric = t.rpartition(".")
            assert (w in workloads and metric in END_TO_END) or t in END_TO_END


def test_same_seed_same_inputs():
    import workloads
    for name in run.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert repr(a.calls) == repr(b.calls) and a.sizes == b.sizes
    assert workloads.build("sweep", 7).calls[-1][2] == workloads.build("sweep-par", 7).calls[-1][2]


def test_sweep_and_sweep_par_digests_agree():
    report, *_ = run.run_workload("sweep-par", 3, 0.05, False, small=True)
    assert report["digest"] == report["digest_jobs_1"]


@pytest.mark.parametrize("attr,workload,fault", [
    ("genus", "general", lambda real: lambda S: real(S) + 1),
    ("frobenius", "general", lambda real: lambda S: 1 / 0),
    ("exception_set", "sweep", lambda real: lambda d, jobs=None: real(d if d != 7 else 5, jobs)),
    ("exception_set", "sweep", lambda real: lambda d, jobs=None: dataclasses.replace(
        rep := real(d, jobs), members=rep.members[:-1] if d > 12 else rep.members)),
    ("power_frobenius_oracle", "deep",
     lambda real: lambda S, k: real(sqfrob.ApSemigroup(S.a + 1, S.d, S.k), k)),
])
def test_wrong_answer_raises_error_frac(monkeypatch, attr, workload, fault):
    monkeypatch.setattr(sqfrob, attr, fault(getattr(sqfrob, attr)))
    _, _, layer, attempted, failed = run.run_workload(workload, 1, 0.05, False, small=True)
    assert failed > 0 and layer["error_frac"] == failed / attempted > 0

