"""Span recording around the calls into each sqfrob layer.

A traced run replaces, for its duration, the names that the library's own
modules use to reach the next layer down: the power and arith functions that
verify and closedform bind, arith's lambda_profile as bound_B reaches it,
and Pool as verify sees it.  The benchmark's own calls go through the same
wrappers.  Each span records name, start, end, parent span and the id of the
public call it belongs to; spans stay in memory in flat arrays and are
written out once, at the end.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array

import sqfrob
from sqfrob import arith, closedform, verify

from reference import ap_frobenius, iroot

INT64_MAX = 2 ** 63 - 1
_INT64_ROOT = {2: iroot(INT64_MAX, 2), 3: iroot(INT64_MAX, 3)}

# (module, attribute, span name): every library-internal name a traced run
# replaces.  verify's own lambda_profile is not on any path the workloads run,
# but arith's is: bound_B reaches it through arith's module globals.
PATCHES = (
    (verify, "ApSemigroup", "arith.ap_init"),
    (verify, "bound_B", "arith.bound_B"),
    (verify, "lambda_profile", "arith.lambda_profile"),
    (verify, "power_frobenius_oracle", "power.oracle"),
    (verify, "power_min_oracle", "power.min"),
    (verify, "sq_frob_d1", "closedform"),
    (verify, "sq_frob_d2", "closedform"),
    (closedform, "ApSemigroup", "arith.ap_init"),
    (closedform, "power_frobenius_oracle", "power.oracle"),
    (arith, "lambda_profile", "arith.lambda_profile"),
)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.call = array("q")
        self.info: dict[int, tuple] = {}
        self._stack = [-1]
        self.call_id = -1
        self._saved = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, info=None):
        """fn with a span named name around every call.

        info(args, result) -> tuple is stored for the span, to be turned into
        counters after the run rather than inside the timed interval.
        """
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.call.append(self.call_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if info is not None:
                self.info[sid] = info(args, out)
            return out

        return traced

    def install(self):
        """Replace the library-internal names listed in PATCHES."""
        for module, attr, name in PATCHES:
            real = getattr(module, attr)
            self._saved.append((module, attr, real))
            setattr(module, attr, self.wrap(name, real, SPAN_INFO.get(name)))
        real_pool = verify.Pool
        self._saved.append((verify, "Pool", real_pool))
        verify.Pool = lambda *a, **kw: _TracedPool(self, real_pool, a, kw)

    def uninstall(self):
        while self._saved:
            module, attr, real = self._saved.pop()
            setattr(module, attr, real)

    def span_ids(self, name):
        nid = self._name_ids.get(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def infos(self, name):
        """The stored info of every span named name that returned."""
        return [self.info[i] for i in self.span_ids(name) if i in self.info]

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def dump(self, path):
        """Write every span as gzip'd column-oriented JSON."""
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "call_id"],
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "call_id": self.call.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _TracedPool:
    """Pool whose start-up and shut-down are spans named verify.pool_*."""

    def __init__(self, tracer, real_cls, args, kwargs):
        self._pool = tracer.wrap("verify.pool_start", real_cls)(*args, **kwargs)
        self._stop = tracer.wrap("verify.pool_stop", self._pool.__exit__)

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        return self._stop(*exc)


# Per span name: what to keep from (arguments, answer) for the counters.
SPAN_INFO = {"power.oracle": lambda args, out: (args[0], args[1], out.root),
             "power.min": lambda args, out: (out.root,),
             "arith.lambda_profile": lambda args, out: (args[0] % args[1], args[1]),
             "core.apery": lambda args, out: (len(out.entries),),
             "core.genus": lambda args, out: (out,)}


def _oracle_start_root(S, k):
    if isinstance(S, sqfrob.ApSemigroup):
        return iroot(ap_frobenius(S.a, S.d, S.k), k)
    table = sqfrob.apery_set(S)
    return iroot(max(table.entries) - table.modulus, k)


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer figures from the spans of `rounds` traced rounds.

    Every *_s figure is self time: the span minus its child spans.
    """
    own = tr.self_times()

    def busy(*names):
        return sum(own[i] for n in names for i in tr.span_ids(n)) / 1e9 / rounds

    def calls(name):
        return len(tr.span_ids(name)) / rounds

    out = {
        "core.init_s": busy("core.init"),
        "core.init_calls": calls("core.init"),
        "core.apery_s": busy("core.apery"),
        "core.apery_entries": sum(x[0] for x in tr.infos("core.apery")) / rounds,
        "core.genus_s": busy("core.genus"),
        "core.gaps_listed": sum(x[0] for x in tr.infos("core.genus")) / rounds,
        "core.query_s": busy("core.query"),
        "arith.ap_init_s": busy("arith.ap_init"),
        "arith.ap_init_calls": calls("arith.ap_init"),
        "arith.bound_B_s": busy("arith.bound_B"),
        "arith.bound_B_calls": calls("arith.bound_B"),
        "arith.lambda_profile_s": busy("arith.lambda_profile"),
        "arith.lambda_profile_calls": calls("arith.lambda_profile"),
        "closedform.s": busy("closedform"),
        "closedform.calls": calls("closedform"),
        "verify.self_s": busy("verify.exception_set", "verify.verify_conjectures"),
        "verify.pool_starts": calls("verify.pool_start"),
        "verify.pool_s": busy("verify.pool_start", "verify.pool_stop"),
    }
    keys = tr.infos("arith.lambda_profile")
    out["arith.lambda_profile_reuse"] = len(keys) / len(set(keys)) if keys else 0.0

    oracle = tr.span_ids("power.oracle")
    steps = beyond = 0
    for S, k, root in tr.infos("power.oracle"):
        start = _oracle_start_root(S, k)
        steps += start - root + 1
        beyond += max(0, start - max(root, _INT64_ROOT[k] + 1) + 1)
    out["power.oracle_s"] = busy("power.oracle")
    out["power.oracle_calls"] = len(oracle) / rounds
    out["power.oracle_steps"] = steps / rounds
    out["power.steps_per_s"] = steps / rounds / out["power.oracle_s"] if steps else 0.0
    out["power.steps_beyond_int64"] = beyond / rounds
    out["power.min_s"] = busy("power.min")
    out["power.min_steps"] = sum(x[0] for x in tr.infos("power.min")) / rounds

    sweeps = set(tr.span_ids("verify.exception_set") + tr.span_ids("verify.verify_conjectures"))
    out["verify.a_checked"] = sum(1 for i in oracle if tr.parent[i] in sweeps) / rounds
    return out
