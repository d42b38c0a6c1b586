"""Spans around the library's public entry points, for the traced run.

The tracer replaces module and class attributes with wrappers while it is
installed, so the library runs unchanged and the untraced run pays nothing.
Each span records its name, start, end, parent span, query id and thread.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict

from manyworlds import compile as mwcompile
from manyworlds import (
    distributed, eventprog, kmedoids, network, translate, userlang,
)


def _count_decls(items):
    return sum(_count_decls(it.body) if isinstance(it, eventprog.Loop) else 1
               for it in items)


# (owner, attribute, span name, counter read before the call, counts after);
# the counts functions take (args, kwargs, result, counter)
ENTRY_POINTS = (
    (userlang, "parse_user_program", "userlang.parse", None, None),
    (userlang, "validate_user_program", "userlang.validate", None, None),
    (translate, "translate_to_event_program", "translate.translate", None,
     lambda a, kw, r, b: {"decls": _count_decls(r.program.items)}),
    (kmedoids, "build_kmedoids_program", "kmedoids.build", None, None),
    (eventprog, "ground", "eventprog.ground", None,
     lambda a, kw, r, b: {"decls": len(r.decls)}),
    (eventprog, "ground_folded", "eventprog.ground", None,
     lambda a, kw, r, b: {"decls": len(r.base) + len(r.body)}),
    (network, "build_network", "network.build", None,
     lambda a, kw, r, b: {"nodes": len(r.nodes),
                          "instances": len(r.nodes) * r.T}),
    (network.MaskState, "__init__", "network.mask_init", None, None),
    (network.MaskState, "assign", "network.assign",
     lambda a: a[0].stats.propagations,
     lambda a, kw, r, b: {"writes": a[0].stats.propagations - b}),
    (network.MaskState, "revert", "network.revert", None, None),
    (mwcompile, "ancestor_bits", "compile.ancestor_bits", None, None),
    (mwcompile, "compile_targets", "compile.search", None,
     lambda a, kw, r, b: r.stats.as_dict()),
    (distributed, "run_distributed", "distributed.run", None,
     lambda a, kw, r, b: dict(r.stats.as_dict(),
                              workers=kw.get("workers", 1))),
)


def oracle_counts(args, kwargs, result, _before):
    return {"evaluations": result.evaluations}


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "query", "thread",
                 "data", "self_s")

    def __init__(self, index, name, parent, query, thread):
        self.index = index
        self.name = name
        self.parent = parent
        self.query = query
        self.thread = thread
        self.start = self.end = None
        self.data = None
        self.self_s = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "self_s": self.self_s, "parent": self.parent,
                "query": self.query, "thread": self.thread,
                "data": self.data}


class Tracer:
    def __init__(self):
        self.spans = []
        self.query = None       # set by the harness before each query
        self._lock = threading.Lock()
        self._stacks = {}       # thread id -> open span indices
        self._main = threading.get_ident()

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:  # a worker thread's first span hangs off the main thread's
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if tid != tracer._main and main else None
            with tracer._lock:
                span = Span(len(tracer.spans), name, parent, tracer.query, tid)
                tracer.spans.append(span)
            stack.append(span.index)
            counter = before(args) if before is not None else None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                span.data = after(args, kwargs, result, counter)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, before, after in ENTRY_POINTS:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(name, orig, before, after))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def compute_self_times(self):
        """Self time: duration minus the union of the children's intervals."""
        children = defaultdict(list)
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent].append(sp)
        for sp in self.spans:
            covered, reach = 0.0, sp.start
            for ch in sorted(children[sp.index], key=lambda c: c.start):
                lo, hi = max(ch.start, reach), min(ch.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            sp.self_s = (sp.end - sp.start) - covered

    def write(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name, unit, better, the end-to-end metric it should move (and where)
LAYER_METRICS = (
    ("userlang.parse_s", "s", "lower", "setup_s on anytime-folded"),
    ("userlang.validate_s", "s", "lower", "setup_s on anytime-folded"),
    ("translate.translate_s", "s", "lower", "setup_s on anytime-folded"),
    ("translate.decls", "count", "lower", "setup_s on anytime-folded"),
    ("kmedoids.build_s", "s", "lower", "setup_s on exact-unfolded, jobs-exact"),
    ("eventprog.ground_s", "s", "lower", "setup_s on all three"),
    ("eventprog.grounded_decls", "count", "lower", "setup_s on all three"),
    ("network.build_s", "s", "lower", "setup_s on all three"),
    ("network.nodes", "count", "lower", "setup_s on all three"),
    ("network.instances", "count", "lower", "peak_rss_mb on all three"),
    ("network.mask_init_s", "s", "lower", "solve_s, query_s.p50"),
    ("network.assign_calls", "count", "lower", "solve_s, query_s.p50"),
    ("network.assign_s", "s", "lower",
     "solve_s, query_s.p50; most on exact-unfolded"),
    ("network.revert_s", "s", "lower", "solve_s, query_s.p50"),
    ("network.mask_writes", "count", "lower",
     "solve_s, query_s.p50; most on exact-unfolded"),
    ("network.writes_per_assign", "writes/assign", "lower",
     "solve_s, query_s.p50"),
    ("compile.search_s", "s", "lower",
     "solve_s on exact-unfolded, anytime-folded"),
    ("compile.ancestor_bits_s", "s", "lower",
     "solve_s on exact-unfolded, anytime-folded"),
    ("compile.self_s", "s", "lower",
     "solve_s on exact-unfolded, anytime-folded"),
    ("compile.branches", "count", "lower", "solve_s on all three"),
    ("compile.leaves", "count", "lower", "solve_s on all three"),
    ("compile.pruned", "count", "higher", "solve_s on anytime-folded only"),
    ("compile.writes_per_branch", "writes/branch", "lower",
     "solve_s on all three"),
    ("distributed.run_s", "s", "lower",
     "solve_s, parallel_speedup on jobs-exact; 0 elsewhere"),
    ("distributed.jobs", "count", "lower", "parallel_speedup on jobs-exact"),
    ("distributed.replays", "count", "lower",
     "solve_s, parallel_speedup on jobs-exact"),
    ("distributed.mask_writes", "count", "lower",
     "solve_s, parallel_speedup on jobs-exact"),
    ("distributed.write_overhead", "x", "lower",
     "parallel_speedup on jobs-exact"),
    ("distributed.replay_share", "share", "lower",
     "parallel_speedup on jobs-exact"),
    ("oracle.verify_s", "s", "lower", "none: checker cost, not user work"),
    ("oracle.evaluations", "count", "lower", "none: checker cost"),
    ("trace.overhead", "x", "lower", "none: traced over untraced solve_s"),
)


def _ratio(a, b):
    return a / b if b else 0.0


def pass_metrics(tracer, spans):
    """Per-layer figures for one pass, from the spans its queries opened."""
    spans_all = tracer.spans
    by = defaultdict(list)
    for sp in spans:
        by[sp.name].append(sp)

    def under(sp, name):
        p = sp.parent
        while p is not None:
            if spans_all[p].name == name:
                return True
            p = spans_all[p].parent
        return False

    def outermost(name):
        return [sp for sp in by[name] if not under(sp, name)]

    def busy(name):
        return sum(sp.end - sp.start for sp in outermost(name))

    def total(name, key):
        return sum(sp.data[key] for sp in outermost(name) if sp.data)

    searches = outermost("compile.search") + outermost("distributed.run")
    writes = sum(sp.data["propagations"] for sp in searches)
    branches = sum(sp.data["branches"] for sp in searches)
    assigns = by["network.assign"]
    dist = outermost("distributed.run")
    dist_writes = {w: sum(sp.data["propagations"] for sp in dist
                          if sp.data["workers"] == w) for w in (1, 2)}
    dist_assigns = sum(1 for sp in assigns if under(sp, "distributed.run"))
    replays = total("distributed.run", "replays")
    return {
        "userlang.parse_s": busy("userlang.parse"),
        "userlang.validate_s": busy("userlang.validate"),
        "translate.translate_s": busy("translate.translate"),
        "translate.decls": total("translate.translate", "decls"),
        "kmedoids.build_s": busy("kmedoids.build"),
        "eventprog.ground_s": busy("eventprog.ground"),
        "eventprog.grounded_decls": total("eventprog.ground", "decls"),
        "network.build_s": busy("network.build"),
        "network.nodes": total("network.build", "nodes"),
        "network.instances": total("network.build", "instances"),
        "network.mask_init_s": busy("network.mask_init"),
        "network.assign_calls": len(assigns),
        "network.assign_s": busy("network.assign"),
        "network.revert_s": busy("network.revert"),
        "network.mask_writes": writes,
        "network.writes_per_assign": _ratio(
            sum(sp.data["writes"] for sp in assigns), len(assigns)),
        "compile.search_s": busy("compile.search"),
        "compile.ancestor_bits_s": busy("compile.ancestor_bits"),
        "compile.self_s": sum(sp.self_s for sp in outermost("compile.search")),
        "compile.branches": branches,
        "compile.leaves": sum(sp.data["leaves"] for sp in searches),
        "compile.pruned": sum(sp.data["pruned"] for sp in searches),
        "compile.writes_per_branch": _ratio(writes, branches),
        "distributed.run_s": busy("distributed.run"),
        "distributed.jobs": total("distributed.run", "jobs"),
        "distributed.replays": replays,
        "distributed.mask_writes": total("distributed.run", "propagations"),
        "distributed.write_overhead": _ratio(dist_writes[2], dist_writes[1]),
        "distributed.replay_share": _ratio(replays, dist_assigns),
    }


def layer_metrics(tracer, pass_ids, setup_query, overhead):
    """Fastest of the traced passes, plus the oracle and overhead figures."""
    tracer.compute_self_times()
    per_pass = []
    for pid in pass_ids:
        prefix = "%d." % pid
        per_pass.append(pass_metrics(
            tracer, [sp for sp in tracer.spans
                     if sp.query and sp.query.startswith(prefix)]))
    out = {name: min(p[name] for p in per_pass) for name in per_pass[0]}
    oracle_spans = [sp for sp in tracer.spans if sp.query == setup_query]
    out["oracle.verify_s"] = sum(sp.end - sp.start for sp in oracle_spans)
    out["oracle.evaluations"] = sum(sp.data["evaluations"]
                                    for sp in oracle_spans)
    out["trace.overhead"] = overhead
    return out
