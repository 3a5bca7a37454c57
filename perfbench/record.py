"""Run the benchmark on several seeds and record medians and quartiles.

    python3 perfbench/record.py --out perfbench/baseline.json

It runs every workload in BENCHMARK.json on seeds 1 to 10.  For each workload
and end-to-end metric it stores the median, the first and third quartiles
(statistics.quantiles, n=4) and their distance as a share of the median, next
to the metric's regression bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"machine": {"python": platform.python_version(), "platform": platform.platform(),
                       "cpus": os.cpu_count()},
           "run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for w in [x["name"] for x in spec["workloads"]]:
        values = {}
        for seed in SEEDS:
            t0 = time.perf_counter()
            proc = subprocess.run(spec["command"] + ["--workload", w, "--seed", str(seed),
                                                     "--seconds", str(spec["run_seconds"]),
                                                     "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} calls failed",
                      file=sys.stderr)
                return 1
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        summary = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds[k], "values": vals}
            print(f"{w:10s} {k:13s} median {med:.5g}  spread {(q3 - q1) / med:.3f}"
                  f"  bound {bounds[k]}", file=sys.stderr)
        doc["workloads"][w] = summary
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
