import gc
import sys
import threading

import pytest

from manyworlds.compile import ConfigError, Search, compile_targets
from manyworlds.distributed import max_job_count, run_distributed
from manyworlds.eventprog import ground
from manyworlds.events import VarTable
from manyworlds.kmedoids import build_kmedoids_program, example_line_dataset
from manyworlds.network import build_network
from manyworlds.oracle import oracle_probabilities
from manyworlds.randprog import random_instance


def test_job_count_formula():
    assert max_job_count(4, 2) == 1 + 4
    assert max_job_count(9, 3) == 1 + 8 + 64
    assert max_job_count(3, 8) == 1
    assert max_job_count(1, 1) == 1
    assert max_job_count(6, 2) == 1 + 4 + 16


def _clustering_net():
    ds = example_line_dataset()
    prog, meta = build_kmedoids_program(ds, cooccurrence=[(1, 2), (2, 3)])
    g = ground(prog, (meta["targets"], "Co*"), variables=set(ds.vartable.index))
    return build_network(g), ds.vartable, g


def test_single_job_when_depth_covers_tree():
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.0, "exact")
    d = run_distributed(net, vt, 0.0, "exact", workers=1, job_depth=16)
    assert d.stats.jobs == 1
    for a, b in zip(seq.targets, d.targets):
        assert a.eid == b.eid
        assert abs(a.lower - b.lower) < 1e-12


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_parallel_exact_equals_sequential(workers):
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.0, "exact")
    d = run_distributed(net, vt, 0.0, "exact", workers=workers, job_depth=2)
    for a, b in zip(seq.targets, d.targets):
        assert abs(a.lower - b.lower) < 1e-9
        assert abs(a.upper - b.upper) < 1e-9
    assert d.stats.jobs <= max_job_count(len(vt), 2)


@pytest.mark.parametrize("job_depth", [1, 2])
def test_exact_bounds_do_not_depend_on_workers_or_timing(job_depth):
    # each job commits the mass its own branches decided, in its own visit
    # order, whether its forks ran queued or in place: the bounds repeat
    # bit for bit at every worker count and on every run
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.0, "exact")
    seen = set()
    for workers in (1, 2, 4, 8):
        for _run in range(5):
            d = run_distributed(net, vt, 0.0, "exact", workers=workers,
                                job_depth=job_depth)
            seen.add(tuple((tb.eid, tb.lower.hex(), tb.upper.hex())
                           for tb in d.targets))
            for a, b in zip(seq.targets, d.targets):
                assert abs(a.lower - b.lower) < 1e-9
                assert abs(a.upper - b.upper) < 1e-9
    assert len(seen) == 1


def test_single_worker_reproduces_sequential_hybrid():
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.1, "hybrid")
    d = run_distributed(net, vt, 0.1, "hybrid", workers=1, job_depth=2)
    assert d.stats.branches == seq.stats.branches
    assert d.stats.pruned == seq.stats.pruned
    for a, b in zip(seq.targets, d.targets):
        assert abs(a.lower - b.lower) < 1e-12
        assert abs(a.upper - b.upper) < 1e-12


def test_unread_variable_never_changes_the_search():
    # a table variable the network does not read is never chosen and adds
    # no job level, at the front of the table or at its back
    net, vt, g = _clustering_net()

    def runs(table):
        out = [compile_targets(net, table, 0.0, "exact"),
               compile_targets(net, table, 0.1, "hybrid")]
        out += [run_distributed(net, table, 0.0, "exact", workers=workers,
                                job_depth=2) for workers in (1, 2)]
        return [(r.stats.branches, r.stats.propagations,
                 [(tb.eid, tb.lower.hex(), tb.upper.hex()) for tb in r.targets])
                for r in out]

    want = runs(vt)
    unread = (("unread", 0.3),)
    assert runs(VarTable(unread + vt.vars)) == want
    assert runs(VarTable(vt.vars + unread)) == want


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_hybrid_epsilon_valid(workers):
    net, vt, g = _clustering_net()
    ores = oracle_probabilities(g, vt, g.targets)
    d = run_distributed(net, vt, 0.1, "hybrid", workers=workers, job_depth=2)
    for tb in d.targets:
        p = ores.probabilities[tb.eid]
        assert tb.lower - 1e-12 <= p <= tb.upper + 1e-12
        assert tb.upper - tb.lower <= 0.2 + 1e-12
    assert d.stats.jobs <= max_job_count(len(vt), 2)


def test_job_count_bound_random_instances():
    for seed in (2, 7, 19):
        prog, vt, targets = random_instance(seed, max_vars=9)
        g = ground(prog, targets, variables=set(vt.index))
        net = build_network(g)
        for depth in (1, 2, 3):
            d = run_distributed(net, vt, 0.0, "exact", workers=4, job_depth=depth)
            assert d.stats.jobs <= max_job_count(len(vt), depth), (seed, depth)
            seq = compile_targets(net, vt, 0.0, "exact")
            for a, b in zip(seq.targets, d.targets):
                assert abs(a.lower - b.lower) < 1e-9


def test_commit_log_covers_jobs():
    net, vt, g = _clustering_net()
    log = []
    d = run_distributed(net, vt, 0.0, "exact", workers=3, job_depth=2,
                        commit_log=log)
    assert len(log) == d.stats.jobs
    ids = [rec["job"] for rec in log]
    assert len(set(ids)) == len(ids)  # idempotent commits: one per job
    for rec in log:
        assert "prefix" in rec and "lower_delta" in rec


def test_failed_job_is_requeued():
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.0, "exact")
    seen = []

    def hook(job_id):
        if job_id != "root" and not seen:
            seen.append(job_id)
            raise RuntimeError("injected failure")

    d = run_distributed(net, vt, 0.0, "exact", workers=2, job_depth=2,
                        fault_hook=hook)
    assert seen  # the failure actually happened
    for a, b in zip(seq.targets, d.targets):
        assert abs(a.lower - b.lower) < 1e-9


def test_persistent_failure_raises():
    net, vt, g = _clustering_net()

    def hook(job_id):
        raise RuntimeError("always broken")

    with pytest.raises(RuntimeError):
        run_distributed(net, vt, 0.0, "exact", workers=2, job_depth=2,
                        fault_hook=hook, max_retries=1)


def test_coverage_total_mass_in_exact_mode():
    # the bounds after the certain variables plus every job's logged change
    # give the final bounds, which collapse in exact mode
    net, vt, g = _clustering_net()
    for scheme, epsilon in (("exact", 0.0), ("hybrid", 0.1)):
        seed = Search(net, vt, epsilon, scheme)
        seed.preassign_certain()
        for workers in (1, 2):
            for job_depth in (1, 2):
                log = []
                d = run_distributed(net, vt, epsilon, scheme, workers=workers,
                                    job_depth=job_depth, commit_log=log)
                case = (scheme, workers, job_depth)
                assert len(log) == d.stats.jobs > 1, case
                for i, tb in enumerate(d.targets):
                    lower = seed.state.problower[i] + sum(
                        r["lower_delta"][i] for r in log)
                    upper = seed.state.probupper[i] + sum(
                        r["upper_delta"][i] for r in log)
                    assert abs(lower - tb.lower) <= 1e-12, case
                    assert abs(upper - tb.upper) <= 1e-12, case
                    if scheme == "exact":
                        assert abs(tb.upper - tb.lower) < 1e-9, case


def test_many_workers_on_wide_variable_pool():
    # 30 declared variables, 16 workers, depth-3 jobs: the bounds stay valid
    # against the exact run and the job count respects the closed form
    from manyworlds.datagen import gen_correlations
    from manyworlds.kmedoids import build_kmedoids_program

    ds = gen_correlations(20, "positive", group=4, l=2, pool=30, seed=3,
                          iterations=2)
    prog, meta = build_kmedoids_program(ds)
    g = ground(prog, (meta["targets"],), variables=set(ds.vartable.index))
    net = build_network(g)
    exact = compile_targets(net, ds.vartable, 0.0, "exact")
    d = run_distributed(net, ds.vartable, 0.1, "hybrid", workers=16, job_depth=3)
    assert d.stats.jobs <= max_job_count(30, 3)
    by_eid = {t.eid: t for t in exact.targets}
    for tb in d.targets:
        p = by_eid[tb.eid].lower
        assert tb.lower - 1e-12 <= p <= tb.upper + 1e-12
        assert tb.upper - tb.lower <= 0.2 + 1e-12


def test_scheme_restriction():
    net, vt, g = _clustering_net()
    with pytest.raises(ConfigError):
        run_distributed(net, vt, 0.1, "lazy", workers=2, job_depth=2)
    with pytest.raises(ConfigError):
        run_distributed(net, vt, 0.0, "exact", workers=0, job_depth=2)


@pytest.mark.parametrize("workers", [2, 4])
def test_pool_does_no_extra_work(workers):
    # jobs resume from the masks copied at fork time: nothing is replayed,
    # and the pool writes exactly the masks the one-worker run writes and
    # evaluates exactly its fused guards and atoms
    net, vt, g = _clustering_net()
    one = run_distributed(net, vt, 0.0, "exact", workers=1, job_depth=2)
    d = run_distributed(net, vt, 0.0, "exact", workers=workers, job_depth=2)
    assert d.stats.jobs > 1
    assert d.stats.replays == 0
    assert d.stats.propagations == one.stats.propagations
    assert d.stats.fused == one.stats.fused > 0
    assert d.stats.branches == one.stats.branches


@pytest.mark.parametrize("workers", [1, 8])
def test_pool_stress_with_fast_thread_switches(workers):
    # more workers than cores, a thread switch every microsecond, and every
    # job failing once: each job is retried once, the run still matches the
    # sequential one, and every worker wakes up and exits
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.0, "exact")
    failed = set()
    failed_lock = threading.Lock()

    def hook(job_id):
        with failed_lock:
            first = job_id not in failed
            failed.add(job_id)
        if first:
            raise RuntimeError("injected failure")

    out = {}

    def run():
        out["result"] = run_distributed(net, vt, 0.0, "exact", workers=workers,
                                        job_depth=2, fault_hook=hook,
                                        max_retries=1)

    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(before)
    assert not runner.is_alive()
    d = out["result"]
    assert len(failed) == d.stats.jobs > 1
    for a, b in zip(seq.targets, d.targets):
        assert abs(a.lower - b.lower) < 1e-9
        assert abs(a.upper - b.upper) < 1e-9


def test_ledger_result_does_not_depend_on_commit_order():
    from types import SimpleNamespace
    from manyworlds.distributed import _Ledger, _result_from_ledger
    from manyworlds.network import Stats
    net = SimpleNamespace(targets=[(0, "T")])
    deltas = {"a": 0.1, "b": 0.2, "c": 0.3}
    results = []
    for order in ("abc", "cba"):
        ledger = _Ledger([0.0], [1.0], Stats(1))
        for job in order:
            account = Stats(1)
            account.credited[0], account.taken[0] = deltas[job], deltas[job] / 3
            ledger.commit(job, (), account, 0.0)
        tb, = _result_from_ledger(net, ledger, "exact", 0.0).targets
        results.append((repr(tb.lower), repr(tb.upper)))
    assert results[0] == results[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_job_failing_once_keeps_epsilon(workers):
    net, vt, g = _clustering_net()
    oracle = oracle_probabilities(g, vt, g.targets).probabilities
    failed = set()
    failed_lock = threading.Lock()

    def hook(job_id):
        with failed_lock:
            first = job_id not in failed
            failed.add(job_id)
        if first:
            raise RuntimeError("injected failure")

    log = []
    d = run_distributed(net, vt, 0.1, "hybrid", workers=workers, job_depth=2,
                        commit_log=log, fault_hook=hook, max_retries=1)
    assert len(failed) == len(log) == d.stats.jobs <= max_job_count(len(vt), 2)
    for tb in d.targets:
        p = oracle[tb.eid]
        assert tb.lower - 1e-12 <= p <= tb.upper + 1e-12
        assert tb.upper - tb.lower <= 0.2 + 1e-12


@pytest.mark.parametrize("job_depth", [1, 2])
@pytest.mark.parametrize("workers", [1, 2])
def test_fault_after_a_fork(workers, job_depth, monkeypatch):
    # the root job raises once, right after its first fork has returned:
    # the retried root skips the forks that committed (running one again
    # would count its mass twice and stop the root early), and every job
    # is counted once, when it commits
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.0, "exact")
    descend = Search._descend
    fired = []

    def faulty_descend(self, x, value, prefix, pr, E, depth):
        res = descend(self, x, value, prefix, pr, E, depth)
        if depth == job_depth and not fired:
            fired.append(prefix + ((x, value),))
            raise RuntimeError("injected failure")
        return res

    monkeypatch.setattr(Search, "_descend", faulty_descend)
    log = []
    d = run_distributed(net, vt, 0.0, "exact", workers=workers,
                        job_depth=job_depth, commit_log=log)
    assert fired
    assert len(log) == d.stats.jobs <= max_job_count(len(vt), job_depth)
    for a, b in zip(seq.targets, d.targets):
        assert abs(a.lower - b.lower) < 1e-9
        assert abs(a.upper - b.upper) < 1e-9


def _account_masks_and_bounds(state):
    st = state.stats
    return (st, st.as_dict(), list(st.credited), list(st.taken),
            st.pruned_mass, list(state.masks), state.unknown_bits,
            len(state.trail), list(state.problower), list(state.probupper))


@pytest.mark.parametrize("job_depth", [1, 2])
def test_failed_job_in_place_leaves_its_forker_untouched(job_depth,
                                                         monkeypatch):
    # the first job forked at depth ``job_depth`` raises once it has
    # branched (at job depth 1, after jobs it forked have committed); its
    # forker's account, masks and bounds are exactly as before the fork
    from manyworlds.distributed import _Runner
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.0, "exact")
    explore, fork = Search.explore, _Runner.fork
    failed, checked = [], []

    def faulty_explore(self, prefix, pr, E, depth):
        res = explore(self, prefix, pr, E, depth)
        if depth == job_depth and not failed:
            failed.append(self.state.stats.branches)
            raise RuntimeError("injected failure")
        return res

    def watched_fork(self, search, prefix, pr, E, depth):
        before, n = _account_masks_and_bounds(search.state), len(failed)
        res = fork(self, search, prefix, pr, E, depth)
        if len(failed) > n:
            assert res is None
            checked.append((before, _account_masks_and_bounds(search.state)))
        return res

    monkeypatch.setattr(Search, "explore", faulty_explore)
    monkeypatch.setattr(_Runner, "fork", watched_fork)
    log = []
    d = run_distributed(net, vt, 0.0, "exact", workers=1,
                        job_depth=job_depth, commit_log=log)
    assert failed[0] > 0  # the job branched before it failed
    (before, after), = checked
    assert before[0] is after[0]
    assert before[1:] == after[1:]
    assert len(log) == d.stats.jobs
    for a, b in zip(seq.targets, d.targets):
        assert abs(a.lower - b.lower) < 1e-9
        assert abs(a.upper - b.upper) < 1e-9


def test_run_distributed_leaves_no_cyclic_garbage():
    # a search that refers to its forker, or a fork function and a job
    # function that refer to each other, would keep every run alive until
    # the next full collection
    net, vt, g = _clustering_net()
    gc.collect()
    gc.disable()
    try:
        for scheme, epsilon in (("exact", 0.0), ("hybrid", 0.1)):
            for workers in (1, 2):
                run_distributed(net, vt, epsilon, scheme, workers=workers,
                                job_depth=2)
                assert gc.collect() == 0, (scheme, workers)
    finally:
        gc.enable()
