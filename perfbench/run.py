"""sqfrob benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from src/.
One caller issues the workload's public calls in a closed loop, round after
round, for --seconds.  Timed figures come from untraced rounds.  With
--trace 1, spans are also recorded around the calls into each layer and the
per-layer figures are printed instead, beside the tracing overhead.  Answers
are checked after the timed rounds, by code that shares no logic with the
calls under test.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sweep", "sweep-par", "deep", "general")
CLI_STARTS = 7

# Which end-to-end figure each layer figure should move (workload.metric).
LAYER_TO_END_TO_END = {
    "core.init_s": ["general.wall_s"], "core.init_calls": ["general.wall_s"],
    "core.apery_s": ["general.wall_s"],
    "core.apery_entries": ["general.wall_s", "general.peak_rss_mb"],
    "core.genus_s": ["general.call_tail_ms", "general.peak_rss_mb"],
    "core.gaps_listed": ["general.call_tail_ms", "general.peak_rss_mb"],
    "core.query_s": ["general.wall_s"],
    "arith.ap_init_s": ["sweep.wall_s"], "arith.ap_init_calls": ["sweep.wall_s"],
    "arith.bound_B_s": ["sweep.wall_s"], "arith.bound_B_calls": ["sweep.wall_s"],
    "arith.lambda_profile_s": ["sweep.wall_s"], "arith.lambda_profile_calls": ["sweep.wall_s"],
    "arith.lambda_profile_reuse": ["sweep.wall_s"],
    "power.oracle_s": ["deep.wall_s", "sweep.wall_s"],
    "power.oracle_calls": ["deep.wall_s", "sweep.wall_s"],
    "power.oracle_steps": ["deep.wall_s", "sweep.wall_s"],
    "power.steps_per_s": ["deep.wall_s", "sweep.wall_s"],
    "power.steps_beyond_int64": ["deep.wall_s"],
    "power.min_s": ["general.wall_s"], "power.min_steps": ["general.wall_s"],
    "closedform.s": ["deep.wall_s"], "closedform.calls": ["deep.wall_s"],
    "verify.self_s": ["sweep.wall_s"], "verify.a_checked": ["sweep.wall_s"],
    "verify.pool_starts": ["sweep-par.wall_s"], "verify.pool_s": ["sweep-par.wall_s"],
    "verify.par_efficiency": ["sweep-par.items_per_s"],
    "cli.import_s": ["setup_s"], "cli.first_answer_s": ["setup_s"],
    "error_frac": [], "trace.overhead_s": [],
}

_CLI_TIMED = ("import sys, time\n"
              "t0 = time.perf_counter()\n"
              "import sqfrob.cli as cli\n"
              "t1 = time.perf_counter()\n"
              "rc = cli.main(sys.argv[1:])\n"
              "t2 = time.perf_counter()\n"
              "sys.stderr.write(f'{t1 - t0!r} {t2 - t1!r}\\n')\n"
              "sys.exit(rc)\n")


def _cli(argv, timed=False):
    """One fresh interpreter answering argv; returns (seconds, stdout, stderr, ok)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable] + (["-c", _CLI_TIMED] if timed else ["-m", "sqfrob.cli"]) + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - t0, proc.stdout.strip(), proc.stderr, proc.returncode == 0


def _percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Runner:
    """Executes rounds of one workload and keeps what the checks need."""

    def __init__(self, workloads_mod, w):
        import sqfrob
        self.wl = workloads_mod
        self.w = w
        self.lib = {attr: getattr(sqfrob, attr) for _, attr, _, _ in w.calls}

    def round(self, jobs=None, tracer=None):
        """One pass over the calls; returns (wall seconds, answers, latencies in ns)."""
        calls = self.w.calls
        if jobs is not None:
            calls = [(s, a, args, dict(kw, jobs=jobs)) for s, a, args, kw in calls]
        fns = [self.lib[attr] for _, attr, _, _ in calls]
        if tracer is not None:
            import tracing
            fns = [tracer.wrap(span, fn, tracing.SPAN_INFO.get(span))
                   for (span, _, _, _), fn in zip(calls, fns)]
        Slot, Raised, clock = self.wl.Slot, self.wl.Raised, time.perf_counter_ns
        outs, lat = [], []
        t_start = clock()
        for i, ((_, _, args, kwargs), fn) in enumerate(zip(calls, fns)):
            args = tuple(outs[x.index] if isinstance(x, Slot) else x for x in args)
            if tracer is not None:
                tracer.call_id = i
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:   # a failing call is counted, the run goes on
                out = Raised(f"{type(exc).__name__}: {exc}")
            lat.append(clock() - t0)
            outs.append(out)
        return (clock() - t_start) / 1e9, outs, lat

    def rounds(self, seconds, jobs=None, tracer=None):
        done = []
        t_end = time.perf_counter() + seconds
        while not done or time.perf_counter() < t_end:
            done.append(self.round(jobs, tracer))
        return done


def _failures(wl, checked, bad, rounds):
    """Calls, counted once per round, that failed a check or differ from the checked round."""
    ref = [wl.canonical(o) for o in checked]
    return sum(1 for _, outs, _ in rounds for i, o in enumerate(outs)
               if i in bad or wl.canonical(o) != ref[i])


def run_workload(name, seed, seconds, trace, small=False):
    """Run one workload; returns (report, end-to-end metrics, layer metrics, attempted, failed)."""
    import workloads as wl

    w = wl.build(name, seed, small)
    runner = Runner(wl, w)
    report = {"workload": name, "seed": seed, "sizes": w.sizes, "items_per_round": w.items}

    # set-up: what every sqfrob command pays
    cli_failed = 0
    _cli(w.cli_argv)   # first start in a fresh checkout also writes bytecode
    starts, imports, answers = [], [], []
    for _ in range(CLI_STARTS):
        secs, out, _, ok = _cli(w.cli_argv)
        starts.append(secs)
        cli_failed += not ok or not out
    setup_s = statistics.median(starts)
    if trace:
        # the same start, split into importing the CLI and answering
        for _ in range(CLI_STARTS):
            _, out, err, ok = _cli(w.cli_argv, timed=True)
            if ok and out:
                t_imp, t_ans = (float(x) for x in err.strip().splitlines()[-1].split())
                imports.append(t_imp)
                answers.append(t_ans)
            else:
                cli_failed += 1
    cli_attempted = CLI_STARTS * (2 if trace else 1)

    # one untimed round first: its answers are the ones checked, and it is
    # the round whose peak memory is reported, whatever the round count
    first = runner.round()[1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = runner.rounds(seconds / 2 if trace else seconds)

    tracer = traced = None
    layer = {}
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.rounds(seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()

    bad = wl.check(w, first)
    failed = len(bad) + _failures(wl, first, bad, timed) + cli_failed
    attempted = len(w.calls) * (1 + len(timed)) + cli_attempted
    if traced:
        failed += _failures(wl, first, bad, traced)
        attempted += len(w.calls) * len(traced)

    par_eff = 0.0
    if name.startswith("sweep"):
        # the same inputs at the other worker count: answers must be byte-identical
        other_jobs = 1 if w.jobs == 2 else 2
        other = runner.round(jobs=other_jobs)
        failed += _failures(wl, first, bad, [other])
        attempted += len(w.calls)
        report["digest"] = wl.digest(first)
        report["digest_jobs_%d" % other_jobs] = wl.digest(other[1])
        if trace:
            walls = {w.jobs: statistics.median(r[0] for r in timed), other_jobs: other[0]}
            par_eff = walls[1] / (2 * walls[2])

    lat_ms = sorted(x / 1e6 for _, _, lats in timed for x in lats)
    wall_s = statistics.median(r[0] for r in timed)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items_per_s": w.items / wall_s,
        "call_p50_ms": statistics.median(lat_ms),
        "call_tail_ms": _percentile(lat_ms, w.tail_pct),
        "peak_rss_mb": peak_rss_mb,
    }
    report.update(rounds=len(timed), round_walls_s=[round(r[0], 4) for r in timed],
                  calls=len(lat_ms),
                  tail=f"p{w.tail_pct} over {len(lat_ms)} calls, "
                       f"{sum(1 for x in lat_ms if x > metrics['call_tail_ms'])} beyond it")

    if trace:
        import tracing
        if name == "sweep-par":
            # worker processes keep their spans: the layers come from a traced jobs=1 pass
            pool = tracing.layer_metrics(tracer, len(traced))
            solo = tracing.Tracer()
            solo.install()
            try:
                solo_round = runner.round(jobs=1, tracer=solo)
            finally:
                solo.uninstall()
            failed += _failures(wl, first, bad, [solo_round])
            attempted += len(w.calls)
            layer = tracing.layer_metrics(solo, 1)
            layer["verify.pool_starts"] = pool["verify.pool_starts"]
            layer["verify.pool_s"] = pool["verify.pool_s"]
        else:
            layer = tracing.layer_metrics(tracer, len(traced))
        layer["verify.par_efficiency"] = par_eff
        layer["cli.import_s"] = statistics.median(imports) if imports else 0.0
        layer["cli.first_answer_s"] = statistics.median(answers) if answers else 0.0
        traced_wall = statistics.median(r[0] for r in traced)
        layer["trace.overhead_s"] = traced_wall - wall_s
        report.update(traced_rounds=len(traced), traced_wall_s=traced_wall,
                      tracing_overhead=f"{traced_wall - wall_s:+.4f} s per round "
                                       f"({(traced_wall / wall_s - 1) * 100:+.1f}%)")
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"spans-{name}-seed{seed}.json.gz"
        tracer.dump(dump)
        report["span_dump"] = str(dump.relative_to(ROOT))

    layer["error_frac"] = failed / attempted
    return report, metrics, layer, attempted, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    report, metrics, layer, attempted, failed = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in report.items():
        print(f"{key}: {json.dumps(value) if isinstance(value, (list, dict)) else value}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, value in metrics.items():
        print(f"{args.workload}.{key} = {value:.6g} {units[key]}"
              + (" (untraced)" if args.trace else ""))
    print(f"{args.workload}.error_frac = {layer['error_frac']:.6g} ({failed}/{attempted})")
    if args.trace:
        for key, value in layer.items():
            moves = ", ".join(LAYER_TO_END_TO_END[key]) or "-"
            print(f"{key} = {value:.6g} {units[key]}  -> {moves}")
    chosen = layer if args.trace else metrics
    result = {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
