"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines).  Counted work (branches, propagations, evaluations)
stands in for wall-clock throughout; see the README for the rationale and
the chosen desk-scale instance sizes.
"""

import time

import pytest

from manyworlds.compile import compile_targets
from manyworlds.datagen import gen_correlations
from manyworlds.distributed import max_job_count, run_distributed
from manyworlds.eventprog import Decl, Loop, ground, ground_folded
from manyworlds.events import Declarations, VarTable
from manyworlds.kmedoids import build_kmedoids_program, example_line_dataset
from manyworlds.network import build_network
from manyworlds.oracle import (
    interpret_user_program, oracle_probabilities, per_world_report,
)
from manyworlds.randprog import random_instance
from manyworlds.translate import translate_to_event_program
from manyworlds.userlang import parse_user_program

TOL = 1e-9
EPSILONS = (0.01, 0.1, 0.3)
SCHEMES = ("eager", "lazy", "hybrid")


def _passed(n, text):
    print("criterion %d: PASS - %s" % (n, text))


# --- shared instance pool (criteria 1, 3, 6) -----------------------------------


@pytest.fixture(scope="module")
def instance_pool():
    """200 seeded random event programs over <= 16 variables."""
    pool = []
    for i in range(200):
        if i % 10 == 0:
            prog, vt, targets = random_instance(1000 + i, max_vars=16, min_vars=11)
        else:
            prog, vt, targets = random_instance(1000 + i, max_vars=10)
        g = ground(prog, targets, variables=set(vt.index))
        net = build_network(g)
        oracle = oracle_probabilities(g, vt, targets).probabilities
        pool.append((g, vt, targets, net, oracle))
    return pool


def _kmedoids_net(ds):
    prog, meta = build_kmedoids_program(ds)
    g = ground(prog, (meta["targets"],), variables=set(ds.vartable.index))
    return build_network(g), g, meta


def test_criterion_1_exact_equals_oracle(instance_pool):
    t0 = time.time()
    worst = 0.0
    for g, vt, targets, net, oracle in instance_pool:
        r = compile_targets(net, vt, 0.0, "exact")
        for tb in r.targets:
            err = max(abs(tb.lower - oracle[tb.eid]), abs(tb.upper - oracle[tb.eid]))
            worst = max(worst, err)
            assert err < TOL, (tb.eid, tb, oracle[tb.eid])
    elapsed = time.time() - t0
    assert elapsed < 60.0, "exactness sweep took %.1fs" % elapsed
    _passed(1, "200 instances, exact == enumeration (worst err %.1e, %.1fs)"
            % (worst, elapsed))


def test_criterion_2_line_fixture_reproduction():
    ds = example_line_dataset()
    prog, meta = build_kmedoids_program(ds, cooccurrence=[(1, 2), (2, 3)])
    g = ground(prog, (meta["targets"], "Co*"), variables=set(ds.vartable.index))

    r1 = per_world_report(g, ds.vartable,
                          {"x1": True, "x2": False, "x3": True, "x4": True}, meta)
    assert r1.objects == [0, 2, 3]
    assert sorted(map(tuple, r1.clusters)) == [(0,), (2, 3)]
    for x4 in (False, True):
        r2 = per_world_report(g, ds.vartable,
                              {"x1": True, "x2": True, "x3": True, "x4": x4}, meta)
        assert r2.objects == [0, 1, 2]
        assert sorted(map(tuple, r2.clusters)) == [(0, 1), (2,)]

    oracle = oracle_probabilities(g, ds.vartable, ["Co[1,2]", "Co[2,3]"])
    net = build_network(g)
    r = compile_targets(net, ds.vartable, 0.0, "exact")
    for pair in ("Co[1,2]", "Co[2,3]"):
        lo, hi = r.bounds(pair)
        assert abs(lo - hi) < TOL
        assert abs(lo - oracle.probabilities[pair]) < TOL
    assert oracle.probabilities["Co[2,3]"] > 0.0  # a nonzero co-occurrence too
    _passed(2, "both depicted clusterings and the co-occurrence sums reproduce "
               "(P(o1,o2 together)=%.3f, P(o2,o3 together)=%.3f)"
            % (oracle.probabilities["Co[1,2]"], oracle.probabilities["Co[2,3]"]))


def test_criterion_3_epsilon_validity(instance_pool):
    t0 = time.time()
    violations = 0
    for g, vt, targets, net, oracle in instance_pool:
        for scheme in SCHEMES:
            for eps in EPSILONS:
                r = compile_targets(net, vt, eps, scheme)
                for tb in r.targets:
                    p = oracle[tb.eid]
                    if not (tb.lower - 1e-12 <= p <= tb.upper + 1e-12):
                        violations += 1
                    if tb.upper - tb.lower > 2 * eps + 1e-12:
                        violations += 1
    assert violations == 0
    _passed(3, "all schemes and epsilons on all 200 instances: 0 violations "
               "(%.1fs)" % (time.time() - t0))


def test_criterion_4_pruning_trends():
    # positive correlations: budgeted runs beat exact; the stated instance is
    # 20 objects in groups of four, two literals per event, three iterations
    for seed in (0, 1, 2):
        ds = gen_correlations(20, "positive", group=4, l=2, seed=seed,
                              iterations=3)
        net, g, meta = _kmedoids_net(ds)
        ex = compile_targets(net, ds.vartable, 0.0, "exact").stats.branches
        hybrid = compile_targets(net, ds.vartable, 0.1, "hybrid").stats.branches
        lazy = compile_targets(net, ds.vartable, 0.1, "lazy").stats.branches
        assert hybrid < ex, (seed, hybrid, ex)
        assert lazy < ex, (seed, lazy, ex)
        series = [compile_targets(net, ds.vartable, e, "hybrid").stats.branches
                  for e in EPSILONS]
        assert series[0] >= series[1] >= series[2], (seed, series)

    # mutex and markov: balanced decision trees, eager and lazy within 5% of
    # exact.  Desk-scale stand-ins for the paper-scale trend: the balanced
    # mutex sets use the selector encoding and the budget is scaled with the
    # instances (see decisions ledger) so that 2*eps stays a small fraction
    # of the tree's mass, as it is at sixty-variable scale.
    for scheme, n, eps in (("mutex", 20, 0.01), ("markov", 16, 0.002)):
        for seed in (0, 1, 2):
            ds = gen_correlations(n, scheme, group=4, m=4, seed=seed,
                                  iterations=3, mutex_encoding="selector")
            net, g, meta = _kmedoids_net(ds)
            ex = compile_targets(net, ds.vartable, 0.0, "exact").stats.branches
            for sch in ("eager", "lazy"):
                b = compile_targets(net, ds.vartable, eps, sch).stats.branches
                assert abs(b - ex) / ex <= 0.05, (scheme, seed, sch, b, ex)
    _passed(4, "hybrid/lazy beat exact on positive correlations; eager and "
               "lazy stay within 5% of exact on mutex and markov")


def test_criterion_5_exact_work_below_enumeration():
    for m in (12, 16, 20):
        ds = gen_correlations(20, "positive", group=4, l=2, pool=m, seed=1,
                              iterations=3)
        assert len(ds.vartable) == m
        net, g, meta = _kmedoids_net(ds)
        r = compile_targets(net, ds.vartable, 0.0, "exact")
        assert r.stats.branches <= 2 ** m
        if m == 20:
            # a fused guard or atom is evaluated inside its reader and
            # writes no mask: it counts as work all the same
            work = r.stats.propagations + r.stats.fused
            assert work < 2 ** 20, (r.stats.propagations, r.stats.fused)
    _passed(5, "exact branches <= 2^m for m in {12,16,20}; at m=20 mask "
               "writes plus fused evaluations (%d) stay below the 2^20 = %d "
               "full evaluations the naive baseline pays" % (work, 2 ** 20))


def test_criterion_6_distributed(instance_pool):
    ds = example_line_dataset()
    prog, meta = build_kmedoids_program(ds, cooccurrence=[(1, 2)])
    g = ground(prog, (meta["targets"], "Co*"), variables=set(ds.vartable.index))
    net = build_network(g)
    seq = compile_targets(net, ds.vartable, 0.0, "exact")
    for workers in (2, 4, 8):
        d = run_distributed(net, ds.vartable, 0.0, "exact", workers=workers,
                            job_depth=2)
        for a, b in zip(seq.targets, d.targets):
            assert abs(a.lower - b.lower) < TOL and abs(a.upper - b.upper) < TOL
        assert d.stats.jobs <= max_job_count(len(ds.vartable), 2)

    # hybrid-d under the epsilon contract, plus the job-count bound
    checked = 0
    for g2, vt, targets, net2, oracle in instance_pool[:25]:
        d = run_distributed(net2, vt, 0.1, "hybrid", workers=4, job_depth=2)
        assert d.stats.jobs <= max_job_count(len(vt), 2)
        for tb in d.targets:
            p = oracle[tb.eid]
            assert tb.lower - 1e-12 <= p <= tb.upper + 1e-12
            assert tb.upper - tb.lower <= 0.2 + 1e-12
            checked += 1

    # a single worker reproduces the sequential hybrid visit order
    seq_h = compile_targets(net, ds.vartable, 0.1, "hybrid")
    d1 = run_distributed(net, ds.vartable, 0.1, "hybrid", workers=1,
                         job_depth=2)
    assert d1.stats.branches == seq_h.stats.branches
    for a, b in zip(seq_h.targets, d1.targets):
        assert abs(a.lower - b.lower) < 1e-12 and abs(a.upper - b.upper) < 1e-12
    _passed(6, "parallel exact == sequential for 2/4/8 workers; hybrid-d valid "
               "on %d bounds; job counts within the closed-form limit; one "
               "worker replays sequential hybrid exactly" % checked)


def test_criterion_7_folded_equals_unfolded():
    ds = example_line_dataset()
    # both the direct event-program construction and the translated
    # mini-language program, at one, two and three iterations
    folded_nodes = set()
    for T in (1, 2, 3):
        ds.params.iterations = T
        prog, meta = build_kmedoids_program(ds)
        vs = set(ds.vartable.index)
        net_u = build_network(ground(prog, (meta["targets"],), vs))
        net_f = build_network(ground_folded(prog, (meta["targets"],), vs))
        folded_nodes.add(len(net_f.nodes))
        cu = compile_targets(net_u, ds.vartable, 0.0, "exact")
        cf = compile_targets(net_f, ds.vartable, 0.0, "exact")
        assert [t.eid for t in cu.targets] == [t.eid for t in cf.targets]
        by_eid = {t.eid: t for t in cu.targets}
        for b in cf.targets:
            a = by_eid[b.eid]
            assert abs(a.lower - b.lower) < TOL and abs(a.upper - b.upper) < TOL
    assert len(folded_nodes) == 1  # independent of the iteration bound

    import os
    with open(os.path.join(os.path.dirname(__file__), "fixtures",
                           "kmedoids.prog")) as fh:
        src = fh.read()
    ast = parse_user_program(src)
    for T in (1, 2, 3):
        ds.params.iterations = T
        tr = translate_to_event_program(ast, ds)
        pat = tr.loop_final_pattern("Centre")
        vs = set(ds.vartable.index)
        cu = compile_targets(build_network(ground(tr.program, (pat,), vs)),
                             ds.vartable, 0.0, "exact")
        cf = compile_targets(build_network(ground_folded(tr.program, (pat,), vs)),
                             ds.vartable, 0.0, "exact")
        assert [t.eid for t in cu.targets] == [t.eid for t in cf.targets]
        by_eid = {t.eid: t for t in cu.targets}
        for b in cf.targets:
            a = by_eid[b.eid]
            assert abs(a.lower - b.lower) < TOL
    _passed(7, "folded and unfolded networks agree at 1/2/3 iterations; the "
               "folded node count (%d) does not grow with the bound"
            % folded_nodes.pop())


def test_criterion_8_certain_fraction_trend():
    for seed in (0, 1, 2):
        series = []
        for frac in (0.0, 0.25, 0.5, 0.75):
            ds = gen_correlations(16, "positive", group=4, l=2, seed=seed,
                                  certain=frac, iterations=3)
            net, g, meta = _kmedoids_net(ds)
            series.append(compile_targets(net, ds.vartable, 0.1,
                                          "hybrid").stats.branches)
        assert all(a >= b for a, b in zip(series, series[1:])), (seed, series)
    _passed(8, "hybrid branch count is nonincreasing in the certain fraction "
               "(last series: %s)" % (series,))


def test_criterion_9_versioning_translation():
    src = ("M = 7\n"
           "M = M+2\n"
           "for i in range(0,2):\n"
           " M = M+i\n"
           " for j in range(0,3):\n"
           "  M = M+1\n"
           "M = M+1\n")
    from manyworlds.datagen import Dataset, Params
    ds = Dataset(VarTable(()), [], Params(k=1, iterations=1, medoids=(0,)))
    ast = parse_user_program(src)
    tr = translate_to_event_program(ast, ds)

    heads = []
    for item in tr.program.items:
        if isinstance(item, Decl):
            heads.append((item.name,) + tuple(str(i) for i in item.indices))
        else:
            heads.append(("forall", item.counter))
            for sub in item.body:
                if isinstance(sub, Decl):
                    heads.append((sub.name,) + tuple(str(i) for i in sub.indices))
                else:
                    heads.append(("forall", sub.counter))
                    for s2 in sub.body:
                        heads.append((s2.name,) + tuple(str(i) for i in s2.indices))
    assert heads == [
        ("M", "0"),                 # first version
        ("M", "1"),                 # second version
        ("M", "1", "-1"),           # carry into the outer loop
        ("forall", "i"),
        ("M", "1", "2*i"),          # per-iteration assignment
        ("M", "1", "2*i", "-1"),    # carry into the inner loop
        ("forall", "j"),
        ("M", "1", "2*i", "j"),     # innermost assignment
        ("M", "1", "2*i+1"),        # copy back out of the inner loop
        ("M", "2"),                 # copy back out of the outer loop
        ("M", "3"),                 # final version
    ]

    g = ground(tr.program, ("*",), variables=set())
    grounded_value = Declarations(g.decls).values({})[tr.final_eid("M")]
    assert not isinstance(grounded_value, bool)
    interp_value = interpret_user_program(ast, ds, {})["M"]
    assert grounded_value == 17 == interp_value
    _passed(9, "the versioning example translates to the expected eleven-entry "
               "structure and both routes evaluate the final label to 17")
