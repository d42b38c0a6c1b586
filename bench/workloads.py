"""The benchmark's workloads: seeded inputs, the timed queries, the checks.

A query goes from a program and a dataset to target bounds, through the
same public library functions ``manyworlds run`` calls.  Every call into the
library goes through a module attribute (``eventprog.ground``, not a name
imported from it), so the traced run can wrap those attributes.

Seed model.  A dataset's layout (its lineage formulas and point coordinates)
comes from ``gen_correlations`` at a fixed generator seed per instance.  The
workload seed then draws a rigid motion of the coordinates and, on the two
exact workloads, every variable's probability.  A rigid motion keeps every
distance, so the search does the same work on every seed while the numbers
the program reads, and on the exact workloads its answers, change.  The
layout stays fixed because the size of an exact search depends on it: over
generator seeds 0-9 an n=20 instance took 33-161 branches (2.0-9.7 s), a
spread no run of this length averages out.  The anytime workload keeps the
generator's probabilities as well, because its budget pruning depends on
them: fresh probabilities moved one pass's search time between 2.6 and 4.5 s.
"""

from __future__ import annotations

import math
import os
import random
import time
import traceback
from collections import namedtuple
from dataclasses import dataclass, field

from manyworlds import compile as mwcompile
from manyworlds import (
    datagen, distributed, eventprog, kmedoids, network, translate, userlang,
)
from manyworlds.events import VarTable

TOL = 1e-9          # explicit slack on every comparison with a reference
EPSILON = 0.1       # anytime budget: upper - lower <= 2 * EPSILON
JOB_DEPTH = 2
WORKER_COUNTS = (1, 2)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM = os.path.join("tests", "fixtures", "kmedoids.prog")

# (scheme, generator keywords, generator seed) per instance, per size.
# "full" is what the benchmark runs; "smoke" is the self-test's small size.
LAYOUTS = {
    "exact-unfolded": {
        "full": [("positive", dict(n=20, pool=8), 3),
                 ("positive", dict(n=20, pool=10), 3)],
        "smoke": [("positive", dict(n=8, pool=4), 0)],
    },
    "anytime-folded": {
        "full": [("positive", dict(n=20, pool=10), 0),
                 ("mutex", dict(n=20, m=4, mutex_encoding="selector"), 0),
                 ("markov", dict(n=16), 0)],
        "smoke": [("positive", dict(n=8, pool=4), 0),
                  ("markov", dict(n=8), 0)],
    },
    "jobs-exact": {
        "full": [("positive", dict(n=16, pool=10), 9)],
        "smoke": [("positive", dict(n=8, pool=4), 0)],
    },
}
WORKLOADS = tuple(LAYOUTS)


class QueryFailed(Exception):
    """A query's answer broke its correctness contract."""


@dataclass
class Instance:
    label: str
    dataset: object
    source: str                     # the user program's text
    reference: dict                 # eid -> oracle probability
    sequential: dict = field(default_factory=dict)  # eid -> (lower, upper)


@dataclass
class QueryOutcome:
    wall_s: float
    setup_s: float
    workers: int
    counts: tuple = None            # (branches, mask writes, jobs, replays)
    error: str = None
    calibration_s: float = None     # the host gauge, timed just before


# ---------------------------------------------------------------------------
# Inputs (untimed)
# ---------------------------------------------------------------------------


def make_dataset(scheme, kwargs, gen_seed, seed, fresh_probabilities):
    kwargs = dict(kwargs)
    n = kwargs.pop("n")
    base = datagen.gen_correlations(n, scheme, group=4, l=2, seed=gen_seed,
                                    iterations=3, **kwargs)
    rng = random.Random("%s/%d/%d" % (scheme, gen_seed, seed))
    if fresh_probabilities:
        vt = VarTable(tuple((name, round(rng.uniform(0.5, 0.8), 6))
                            for name, _p in base.vartable.vars))
    else:
        vt = base.vartable
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
    points = [datagen.Point(p.id, (c * p.coords[0] - s * p.coords[1] + dx,
                                   s * p.coords[0] + c * p.coords[1] + dy),
                            p.event)
              for p in base.points]
    return datagen.Dataset(vt, points, base.params, base.meta)


def _label(scheme, kwargs, gen_seed):
    size = " ".join("%s=%s" % kv for kv in sorted(kwargs.items())
                    if kv[0] in ("n", "pool"))
    return "%s %s gen=%d" % (scheme, size, gen_seed)


def make_instances(workload, seed, size, run_oracle):
    """Datasets plus their reference answers, once per invocation.

    ``run_oracle`` computes the oracle answer for a grounded program; the
    traced run passes a wrapped one.
    """
    with open(os.path.join(ROOT, PROGRAM)) as fh:
        source = fh.read()
    out = []
    for scheme, kwargs, gen_seed in LAYOUTS[workload][size]:
        ds = make_dataset(scheme, kwargs, gen_seed, seed,
                          fresh_probabilities=(workload != "anytime-folded"))
        variables = set(ds.vartable.index)
        if workload == "anytime-folded":
            tr = _translate(source, ds)
            grounded = eventprog.ground(tr.program, (_target_pattern(tr),),
                                        variables)
        else:
            prog, meta = kmedoids.build_kmedoids_program(ds)
            grounded = eventprog.ground(prog, (meta["targets"],), variables)
        res = run_oracle(grounded, ds.vartable, grounded.targets)
        inst = Instance(_label(scheme, kwargs, gen_seed), ds, source,
                        dict(res.probabilities))
        if workload == "jobs-exact":
            net = network.build_network(grounded)
            seq = mwcompile.compile_targets(net, ds.vartable, 0.0, "exact")
            inst.sequential = {tb.eid: (tb.lower, tb.upper) for tb in seq.targets}
        out.append(inst)
    return out


# ---------------------------------------------------------------------------
# Queries (timed): program + dataset -> target bounds
# ---------------------------------------------------------------------------


def _translate(source, ds):
    ast = userlang.parse_user_program(source, filename=PROGRAM)
    diags = userlang.validate_user_program(ast)
    if diags:
        raise QueryFailed("validate: " + "; ".join(str(d) for d in diags))
    return translate.translate_to_event_program(ast, ds)


def _target_pattern(tr):
    # what `manyworlds run --folded` picks by default: the last Boolean
    # family of the loop, here the Centre events
    return tr.loop_final_pattern("Centre")


def _kmedoids_network(ds):
    prog, meta = kmedoids.build_kmedoids_program(ds)
    grounded = eventprog.ground(prog, (meta["targets"],),
                                set(ds.vartable.index))
    return network.build_network(grounded)


def query_exact_unfolded(inst, workers):
    t0 = time.perf_counter()
    net = _kmedoids_network(inst.dataset)
    t1 = time.perf_counter()
    result = mwcompile.compile_targets(net, inst.dataset.vartable, 0.0, "exact")
    return t1 - t0, result


def query_anytime_folded(inst, workers):
    ds = inst.dataset
    t0 = time.perf_counter()
    tr = _translate(inst.source, ds)
    folded = eventprog.ground_folded(tr.program, (_target_pattern(tr),),
                                     set(ds.vartable.index))
    net = network.build_network(folded)
    t1 = time.perf_counter()
    result = mwcompile.compile_targets(net, ds.vartable, EPSILON, "hybrid")
    return t1 - t0, result


def query_jobs_exact(inst, workers):
    t0 = time.perf_counter()
    net = _kmedoids_network(inst.dataset)
    t1 = time.perf_counter()
    result = distributed.run_distributed(net, inst.dataset.vartable, 0.0,
                                         "exact", workers=workers,
                                         job_depth=JOB_DEPTH)
    return t1 - t0, result


QUERIES = {
    "exact-unfolded": query_exact_unfolded,
    "anytime-folded": query_anytime_folded,
    "jobs-exact": query_jobs_exact,
}


def query_plan(workload, instances):
    """One pass: (instance, workers) pairs in the order they run."""
    if workload == "jobs-exact":
        return [(inst, w) for inst in instances for w in WORKER_COUNTS]
    return [(inst, 1) for inst in instances]


# ---------------------------------------------------------------------------
# Checks (untimed)
# ---------------------------------------------------------------------------


def violations(workload, inst, result):
    """Every way ``result`` breaks its contract; empty when it is correct."""
    bad = []
    got = {tb.eid: tb for tb in result.targets}
    if set(got) != set(inst.reference):
        bad.append("target set differs from the oracle's: %d vs %d"
                   % (len(got), len(inst.reference)))
    for eid, p in sorted(inst.reference.items()):
        tb = got.get(eid)
        if tb is None:
            continue
        if workload == "anytime-folded":
            if not tb.lower - TOL <= p <= tb.upper + TOL:
                bad.append("%s: oracle %.12g outside [%.12g, %.12g]"
                           % (eid, p, tb.lower, tb.upper))
            if tb.upper - tb.lower > 2.0 * EPSILON + TOL:
                bad.append("%s: width %.12g above 2*epsilon"
                           % (eid, tb.upper - tb.lower))
            continue
        if abs(tb.lower - p) > TOL or abs(tb.upper - p) > TOL:
            bad.append("%s: [%.12g, %.12g] vs oracle %.12g"
                       % (eid, tb.lower, tb.upper, p))
        if inst.sequential:
            lo, hi = inst.sequential[eid]
            if abs(tb.lower - lo) > TOL or abs(tb.upper - hi) > TOL:
                bad.append("%s: [%.12g, %.12g] vs sequential [%.12g, %.12g]"
                           % (eid, tb.lower, tb.upper, lo, hi))
    return bad


def run_query(workload, inst, workers):
    """Time one query, then check it; a query that raises counts as failed."""
    t0 = time.perf_counter()
    try:
        setup_s, result = QUERIES[workload](inst, workers)
    except Exception:  # the run goes on; the failure is reported and counted
        return QueryOutcome(time.perf_counter() - t0, 0.0, workers,
                            error=traceback.format_exc())
    wall = time.perf_counter() - t0
    s = result.stats
    out = QueryOutcome(wall, setup_s, workers,
                       counts=(s.branches, s.propagations, s.jobs, s.replays))
    bad = violations(workload, inst, result)
    if bad:
        out.error = "%d violations, first: %s" % (len(bad), bad[0])
    return out


_Mask = namedtuple("_Mask", "lo hi may_undef may_def")


def calibrate(rounds=200):
    """Seconds for a fixed pure-Python loop that gauges the host's speed.

    Its operations mirror the search's hot path (small tuples, float
    min/max, list and dict lookups, attribute reads), but it never calls
    the library, so no change to the program moves it.
    """
    masks = [_Mask(float(i % 13), i % 13 + 1.0, i % 3 == 0, True)
             for i in range(256)]
    parents = {i: ((i * 7) % 256, (i * 11) % 256) for i in range(256)}
    t0 = time.perf_counter()
    for r in range(rounds):
        for i in range(256):
            a_i, b_i = parents[i]
            a, b = masks[a_i], masks[b_i]
            masks[i] = _Mask(min(a.lo, b.lo), max(a.hi, b.hi) + r,
                             a.may_undef or b.may_undef,
                             a.may_def and b.may_def)
    return time.perf_counter() - t0


def run_pass(workload, plan, tracer, pass_no):
    """Run every query of the plan once, each after a host gauge."""
    outcomes = []
    for qi, (inst, workers) in enumerate(plan):
        if tracer is not None:
            tracer.query = "%d.%d" % (pass_no, qi)
        gauge = calibrate()
        outcome = run_query(workload, inst, workers)
        outcome.calibration_s = gauge
        outcomes.append(outcome)
    return outcomes
