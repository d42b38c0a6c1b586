import sys
import threading

import pytest

from manyworlds.compile import ConfigError, compile_targets
from manyworlds.distributed import max_job_count, run_distributed
from manyworlds.eventprog import ground
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


def test_single_worker_reproduces_sequential_hybrid():
    net, vt, g = _clustering_net()
    seq = compile_targets(net, vt, 0.1, "hybrid")
    d = run_distributed(net, vt, 0.1, "hybrid", workers=1, job_depth=2)
    assert d.stats.branches == seq.stats.branches
    assert d.stats.pruned == seq.stats.pruned
    for a, b in zip(seq.targets, d.targets):
        assert abs(a.lower - b.lower) < 1e-12
        assert abs(a.upper - b.upper) < 1e-12


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
    net, vt, g = _clustering_net()
    log = []
    run_distributed(net, vt, 0.0, "exact", workers=4, job_depth=2,
                    commit_log=log)
    # every target's final bounds collapse; deltas plus the initial interval
    # account for the full unit of probability mass
    d = run_distributed(net, vt, 0.0, "exact", workers=4, job_depth=2)
    for tb in d.targets:
        assert abs(tb.upper - tb.lower) < 1e-9


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
    # and the pool writes exactly the masks the one-worker run writes
    net, vt, g = _clustering_net()
    one = run_distributed(net, vt, 0.0, "exact", workers=1, job_depth=2)
    d = run_distributed(net, vt, 0.0, "exact", workers=workers, job_depth=2)
    assert d.stats.jobs > 1
    assert d.stats.replays == 0
    assert d.stats.propagations == one.stats.propagations
    assert d.stats.branches == one.stats.branches


def test_pool_stress_with_fast_thread_switches():
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
        out["result"] = run_distributed(net, vt, 0.0, "exact", workers=8,
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
