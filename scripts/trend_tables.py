#!/usr/bin/env python3
"""Counted-work tables: how pruning and structure exploitation scale.

Five tables, mirroring the performance questions the engine is built
around.  All numbers are deterministic work counts, not timings:

  1. exact vs the naive per-world baseline as the variable count grows:
     2^m worlds of the whole table, and the 2^r worlds of the r variables
     the network reads, which the oracle walks;
  2. the approximation schemes on the three correlation patterns;
  3. hybrid work as the certain-point fraction grows;
  4. the setup work on the benchmark's exact-unfolded and anytime-folded
     instances, and on folded markov data with 12 groups: grounded tree
     nodes, distinct grounded objects, network nodes, the calls of the
     kind rule made by grounding + by the network build, the calls of
     ``network._build_expr``, and the kept instance slots against all N*T
     of them, the work that the setup and mask-init seconds pay for;
  5. the propagation work of the benchmark's exact-unfolded and
     anytime-folded searches: branches, mask writes by node kind, read
     off the undo trail after each assignment, next to the rule
     evaluations by node kind, the recomputes of queued slots whether or
     not they write, and the guards and atoms evaluated inside their
     readers (fused), which write no mask;
  6. fingerprints of the benchmark's queries, one row per query of a
     pass: hashes of the network's ``dump()``, of the grounded program's
     text and of the targets' bounds in ``float.hex``, the counted work,
     and the query's contract violations, at workload seeds 1 and 2.  A
     change that claims to keep the work and the answers prints the same
     table as its parent.
"""

import argparse
import hashlib
import os
import sys
from collections import Counter

from manyworlds import eventprog, network
from manyworlds.compile import Search, compile_targets
from manyworlds.datagen import gen_correlations
from manyworlds.eventprog import emit_event_program, ground, ground_folded
from manyworlds.events import children_of
from manyworlds.kmedoids import build_kmedoids_program
from manyworlds.network import MaskState, build_network
from manyworlds.oracle import oracle_probabilities
from manyworlds.translate import translate_to_event_program
from manyworlds.userlang import parse_user_program

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KMEDOIDS = os.path.join(ROOT, "tests", "fixtures", "kmedoids.prog")
sys.path.insert(0, os.path.join(ROOT, "bench"))
import workloads  # noqa: E402  (bench/workloads.py)


def instance(scheme, seed, n=20, group=4, l=2, iters=3, certain=0.0,
             pool=None, m=4, encoding="chain"):
    ds = gen_correlations(n, scheme, group=group, l=l, m=m, pool=pool,
                          certain=certain, seed=seed, iterations=iters,
                          mutex_encoding=encoding)
    prog, meta = build_kmedoids_program(ds)
    g = ground(prog, (meta["targets"],), variables=set(ds.vartable.index))
    return build_network(g), ds.vartable


def table_scaling(seed):
    print("== exact work vs naive enumeration (positive scheme, n=20) ==")
    print("%-6s %-10s %-14s %-14s %-14s" % ("m", "branches", "propagations",
                                            "naive_evals", "oracle_worlds"))
    for m in (8, 12, 16, 20):
        net, vt = instance("positive", seed, pool=m)
        r = compile_targets(net, vt, 0.0, "exact")
        print("%-6d %-10d %-14d %-14d %-14d" % (
            m, r.stats.branches, r.stats.propagations, 2 ** m,
            2 ** len(net.var_nodes)))


def table_schemes(seed, epsilon):
    print("\n== branches by scheme (eps=%.3g) ==" % epsilon)
    print("%-10s %-6s %-8s %-8s %-8s %-8s" % ("data", "vars", "exact",
                                              "eager", "lazy", "hybrid"))
    for scheme, kwargs in (("positive", {}),
                           ("mutex", {"encoding": "selector"}),
                           ("markov", {"n": 16})):
        net, vt = instance(scheme, seed, **kwargs)
        row = [compile_targets(net, vt, 0.0, "exact").stats.branches]
        for sch in ("eager", "lazy", "hybrid"):
            row.append(compile_targets(net, vt, epsilon, sch).stats.branches)
        print("%-10s %-6d %-8d %-8d %-8d %-8d" % (scheme, len(vt), *row))


def table_certain(seed):
    print("\n== hybrid (eps=0.1) vs certain-point fraction (positive, n=16) ==")
    print("%-10s %-10s" % ("certain", "branches"))
    for frac in (0.0, 0.25, 0.5, 0.75):
        net, vt = instance("positive", seed, n=16, certain=frac)
        r = compile_targets(net, vt, 0.1, "hybrid")
        print("%-10.2f %-10d" % (frac, r.stats.branches))


def tree_counts(roots):
    """Nodes of the grounded trees under ``roots``, counted once per
    position, and the distinct objects among them."""
    size, seen, stack = 0, set(), list(roots)
    while stack:
        e = stack.pop()
        size += 1
        seen.add(id(e))
        stack.extend(children_of(e))
    return size, len(seen)


def calls_of(run, *names):
    """``run()``, and the calls of each function in ``names`` that it makes
    through the names that ``eventprog`` and ``network`` hold, where a
    module holds one: ``events.kind_rule`` or ``network._build_expr``, which
    calls itself through its module's name."""
    counts, plain = dict.fromkeys(names, 0), {}

    def counter(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    for name in names:
        for module in (eventprog, network):
            if hasattr(module, name):
                plain[module, name] = fn = getattr(module, name)
                setattr(module, name, counter(name, fn))
    try:
        return run(), counts
    finally:
        for (module, name), fn in plain.items():
            setattr(module, name, fn)


def table_setup():
    # the benchmark's layouts (generator seeds 3 and 0), whose rotation of
    # the coordinates leaves these counts unchanged, then markov data with
    # 12 groups, where each group's event names the previous group's point
    print("\n== setup work per instance (benchmark layouts, markov n=48) ==")
    print("%-36s %-8s %-9s %-8s %-9s %-10s %s" % (
        "instance", "tree", "distinct", "nodes", "kind_rule", "build_expr",
        "kept/slots"))
    rows = []
    for pool in (8, 10):
        ds = gen_correlations(20, "positive", group=4, l=2, pool=pool, seed=3,
                              iterations=3)
        prog, meta = build_kmedoids_program(ds)
        g, calls = calls_of(lambda: ground(
            prog, (meta["targets"],), variables=set(ds.vartable.index)),
            "kind_rule")
        rows.append(("unfolded positive n=20 pool=%d" % pool,
                     g.decls.values(), g, calls["kind_rule"]))
    with open(KMEDOIDS) as fh:
        ast = parse_user_program(fh.read())
    for label, scheme, kwargs in (
            ("folded positive n=20 pool=10", "positive", dict(n=20, pool=10)),
            ("folded mutex n=20", "mutex",
             dict(n=20, m=4, mutex_encoding="selector")),
            ("folded markov n=16", "markov", dict(n=16)),
            ("folded markov n=48", "markov", dict(n=48))):
        ds = gen_correlations(scheme=scheme, group=4, l=2, seed=0,
                              iterations=3, **kwargs)
        tr = translate_to_event_program(ast, ds)
        f, calls = calls_of(lambda: ground_folded(
            tr.program, (tr.loop_final_pattern("Centre"),),
            set(ds.vartable.index)), "kind_rule")
        rows.append((label, list(f.base.values()) + [d.expr for d in f.body],
                     f, calls["kind_rule"]))
    for label, roots, grounded, ground_calls in rows:
        size, distinct = tree_counts(roots)
        net, calls = calls_of(lambda: build_network(grounded), "kind_rule",
                              "_build_expr")
        print("%-36s %-8d %-9d %-8d %-9s %-10d %d/%d" % (
            label, size, distinct, len(net.nodes),
            "%d+%d" % (ground_calls, calls["kind_rule"]),
            calls["_build_expr"], len(net.slot_tables().index),
            len(net.nodes) * net.T))


def propagation_work(net, vt, epsilon, scheme):
    """(branches, initial writes, writes by node kind, rule evaluations by
    node kind, fused evaluations) of one search's assignments.

    Each assignment's writes are the trail entries it appended, and each
    rule evaluation a call through ``SlotTables.rules``, wrapped while the
    search runs, so the tally needs no counter inside the propagation
    loop."""
    state = MaskState(net)
    init_writes, kinds, evals = state.stats.propagations, Counter(), Counter()
    plain_assign, tables = state.assign, state.tables
    nodes, plain_rules = tables.nodes, tables.rules

    def assign(*args):
        start = len(state.trail)
        plain_assign(*args)
        kinds.update(nodes[idx].kind for idx, _old in state.trail[start:])

    def counter(rule):
        def counted(state, node, kids):
            evals[node.kind] += 1
            return rule(state, node, kids)
        return counted

    state.assign = assign
    tables.rules = [counter(rule) for rule in plain_rules]
    try:
        search = Search(net, vt, epsilon, scheme, state=state)
        search.preassign_certain()
        search.check_targets_reachable()
        if not search.all_resolved():
            search.run()
    finally:
        tables.rules = plain_rules
    assert init_writes + sum(kinds.values()) == state.stats.propagations
    return (state.stats.branches, init_writes, kinds, evals,
            state.stats.fused)


def table_propagation():
    # the benchmark's layouts and queries: exact on the unfolded k-medoids
    # program (generator seed 3), hybrid 0.1 on the folded user program
    # (generator seed 0); "loop" is a carry node.  The benchmark's seeds
    # also rotate the coordinates, which rounds some distances differently
    # and moves the write counts by well under 1%
    print("\n== propagation work per search (benchmark layouts) ==")
    rows = []
    for pool in (8, 10):
        net, vt = instance("positive", 3, pool=pool)
        rows.append(("exact unfolded positive pool=%d" % pool,
                     propagation_work(net, vt, 0.0, "exact")))
    with open(KMEDOIDS) as fh:
        ast = parse_user_program(fh.read())
    for label, scheme, kwargs in (
            ("hybrid folded positive pool=10", "positive", dict(pool=10)),
            ("hybrid folded mutex", "mutex", dict(mutex_encoding="selector")),
            ("hybrid folded markov n=16", "markov", dict(n=16))):
        kwargs.setdefault("n", 20)
        ds = gen_correlations(scheme=scheme, group=4, l=2, seed=0,
                              iterations=3, **kwargs)
        tr = translate_to_event_program(ast, ds)
        f = ground_folded(tr.program, (tr.loop_final_pattern("Centre"),),
                          set(ds.vartable.index))
        rows.append((label, propagation_work(build_network(f), ds.vartable,
                                             0.1, "hybrid")))
    print("%-32s %-8s %-6s %-7s %-7s %-7s %s" % (
        "instance", "branches", "init", "assign", "evals", "fused",
        "assign writes/rule evals by kind"))
    for label, (branches, init_writes, kinds, evals, fused) in rows:
        # by writes, then the kinds that were evaluated and never written
        order = [kind for kind, _n in kinds.most_common()]
        order += [kind for kind in evals if kind not in kinds]
        print("%-32s %-8d %-6d %-7d %-7d %-7d %s" % (
            label, branches, init_writes, sum(kinds.values()),
            sum(evals.values()), fused,
            " ".join("%s=%d/%d" % (kind, kinds[kind], evals[kind])
                     for kind in order)))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def table_fingerprints(seed):
    # the benchmark's own instances and queries, at the full size
    print("\n== fingerprints of the benchmark's queries (seed %d) ==" % seed)
    print("%-15s %-28s %-2s %-12s %-12s %-8s %-7s %-6s %-6s %-6s %-4s "
          "%-12s %s" % ("workload", "instance", "w", "dump", "grounded",
                        "branches", "writes", "fused", "leaves", "pruned",
                        "jobs", "bounds", "violations"))
    for workload in workloads.WORKLOADS:
        instances = workloads.make_instances(
            workload, seed, "full", oracle_probabilities)
        for inst, workers in workloads.query_plan(workload, instances):
            ds = inst.dataset
            variables = set(ds.vartable.index)
            if workload == "anytime-folded":
                tr = workloads._translate(inst.source, ds)
                grounded = ground_folded(
                    tr.program, (workloads._target_pattern(tr),), variables)
            else:
                prog, meta = build_kmedoids_program(ds)
                grounded = ground(prog, (meta["targets"],), variables)
            _setup, result = workloads.QUERIES[workload](inst, workers)
            s = result.stats
            bounds = " ".join("%s %s %s" % (tb.eid, tb.lower.hex(),
                                            tb.upper.hex())
                              for tb in result.targets)
            print("%-15s %-28s %-2d %-12s %-12s %-8d %-7d %-6d %-6d %-6d "
                  "%-4d %-12s %d" % (
                      workload, inst.label, workers,
                      digest(build_network(grounded).dump()),
                      digest(emit_event_program(grounded.as_program())),
                      s.branches, s.propagations, s.fused, s.leaves,
                      s.pruned, s.jobs, digest(bounds),
                      len(workloads.violations(workload, inst, result))))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epsilon", type=float, default=0.01)
    args = ap.parse_args()
    table_scaling(args.seed)
    table_schemes(args.seed, args.epsilon)
    table_certain(args.seed)
    table_setup()
    table_propagation()
    for seed in (1, 2):
        table_fingerprints(seed)


if __name__ == "__main__":
    main()
