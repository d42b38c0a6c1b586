"""Distributed compilation: the decision tree split into depth-bounded jobs.

A job owns the subtree rooted at a branch prefix.  While exploring, a job
forks a child job whenever a descent would cross a depth that is a multiple
of the job depth ``d``; the child restores the fork-time masks, which the
forking job copied into it, and commits its probability-bound deltas and
unused error budgets when done.  Commits are serialized and idempotent per
job id, so re-running a failed job is safe.

Two schedulers:

  * ``workers == 1`` runs every forked job immediately, in place, on the one
    mask state.  This preserves the sequential budget flow exactly, so the
    run visits precisely the branches sequential compilation visits.
  * ``workers > 1`` uses a FIFO queue and a thread per worker.  Each worker
    owns one mask state and loads each job's fork-time masks into it, so a
    job's mask writes do not depend on scheduling.  Each job gets its base
    budget share at fork time; residuals committed by finished jobs go to a
    shared pool that newly started jobs drain.  This may explore a little
    more than the sequential run but never violates the epsilon contract,
    because budget mass is conserved.
"""

from __future__ import annotations

import functools
import math
import queue
import threading

from .compile import CompileResult, ConfigError, Search, checked_bounds, finish_result
from .network import MaskState, Stats


def max_job_count(m, d):
    """Upper bound on the number of jobs for m variables and job depth d."""
    if m < 1 or d < 1:
        raise ConfigError("variable count and job depth must be >= 1")
    return sum(2 ** (i * d) for i in range(math.ceil(m / d)))


def _job_id(prefix):
    return "".join("1" if v else "0" for _n, v in prefix) or "root"


class _Ledger:
    """Serialized commit point for bounds, budgets and the job log."""

    def __init__(self, nt, epsilon):
        self.lock = threading.Lock()
        self.seed_lower, self.seed_upper = [0.0] * nt, [1.0] * nt
        # running sums, for the snapshots jobs start from; the result is
        # summed afresh from the seed and the log
        self.lower = [0.0] * nt
        self.upper = [1.0] * nt
        self.pool = [0.0] * nt
        self.epsilon = epsilon
        self.committed = set()
        self.log = []
        self.stats = Stats()

    def seed(self, lower, upper):
        self.seed_lower, self.seed_upper = list(lower), list(upper)
        self.lower = list(lower)
        self.upper = list(upper)

    def snapshot(self):
        with self.lock:
            return list(self.lower), list(self.upper)

    def drain_pool(self):
        with self.lock:
            out = self.pool
            self.pool = [0.0] * len(out)
            return out

    def commit(self, job_id, prefix, lo_delta, up_delta, residual, stats):
        with self.lock:
            if job_id in self.committed:
                return False
            self.committed.add(job_id)
            for i, (dl, du) in enumerate(zip(lo_delta, up_delta)):
                self.lower[i] += dl
                self.upper[i] += du
                self.pool[i] += residual[i]
            self.log.append({
                "job": job_id,
                "prefix": [[n, bool(v)] for n, v in prefix],
                "lower_delta": list(lo_delta),
                "upper_delta": list(up_delta),
            })
            s = self.stats
            s.branches += stats.branches
            s.leaves += stats.leaves
            s.pruned += stats.pruned
            s.propagations += stats.propagations
            s.replays += stats.replays
            return True


def run_distributed(net, vartable, epsilon, scheme="hybrid", workers=1,
                    job_depth=1, commit_log=None, fault_hook=None,
                    max_retries=2):
    """Compile the network's targets with parallel workers.

    Satisfies the same bounds contract as sequential compilation; with one
    worker the result (and visit order) is identical to the sequential run.
    """
    if scheme not in ("exact", "hybrid"):
        raise ConfigError("distributed execution supports exact or hybrid")
    if workers < 1 or job_depth < 1:
        raise ConfigError("workers and job depth must be >= 1")

    if workers == 1:
        result, log = _run_synchronous(net, vartable, epsilon, scheme, job_depth,
                                       fault_hook)
    else:
        result, log = _run_pool(net, vartable, epsilon, scheme, workers,
                                job_depth, fault_hook, max_retries)
    if commit_log is not None:
        commit_log.extend(log)
    return result


def _run_synchronous(net, vt, epsilon, scheme, d, fault_hook):
    stats = Stats()
    log = []
    search = Search(net, vt, epsilon, scheme, stats=stats, job_depth=d)
    state = search.state
    nt = len(net.targets)
    forked = []  # per running job: the summed bounds changes of its forks

    def run_job(job_id, prefix, explore):
        # forked jobs run inside this one on the shared state, so the job's
        # own change, which the pool would commit, is its total change less
        # the total changes of the jobs it forked
        start = state.problower + state.probupper
        forked.append([0.0] * len(start))
        result = explore()
        total = [a - b for a, b in zip(state.problower + state.probupper, start)]
        own = [a - b for a, b in zip(total, forked.pop())]
        if forked:
            forked[-1] = [a + b for a, b in zip(forked[-1], total)]
        log.append({"job": job_id,
                    "prefix": [[n, bool(v)] for n, v in prefix],
                    "lower_delta": own[:nt], "upper_delta": own[nt:]})
        return result

    def forker(prefix, pr, E, depth):
        stats.jobs += 1
        job_id = _job_id(prefix)
        if fault_hook is not None:
            fault_hook(job_id)
        return run_job(job_id, prefix,
                       lambda: search._dfs(prefix[-1], prefix, pr, list(E), depth))

    def run_root():
        if not search.all_resolved():
            search.run()

    search.forker = forker
    search.preassign_certain()
    search.check_targets_reachable()
    stats.jobs += 1  # the root job
    run_job("root", (), run_root)
    search.forker = None  # the forker refers to the search: break the cycle
    log.insert(0, log.pop())  # the root's entry first
    return finish_result(search), log


def _run_pool(net, vt, epsilon, scheme, workers, d, fault_hook, max_retries):
    nt = len(net.targets)
    ledger = _Ledger(nt, epsilon)

    # Count the variable-independent decisions (initial masks plus certain
    # variables) exactly once, on a probe state; the root job resumes from it.
    probe_stats = Stats()
    probe = Search(net, vt, epsilon, scheme, stats=probe_stats)
    probe.preassign_certain()
    probe.check_targets_reachable()
    ledger.seed(probe.state.problower, probe.state.probupper)
    ledger.stats.propagations += probe_stats.propagations

    if probe.all_resolved():
        return _result_from_ledger(net, ledger, scheme, epsilon), ledger.log

    work = queue.Queue()
    outstanding = [1]
    failures = []
    retries = {}
    lock = threading.Lock()

    root = {"id": "root", "prefix": (), "pr": 1.0, "base": [2.0 * epsilon] * nt,
            "depth": 0, "assigned": frozenset(probe.assigned),
            "masks": probe.state.save_masks()}
    ledger.stats.jobs = 1
    work.put(root)

    def finish_one():
        with lock:
            outstanding[0] -= 1
            last = outstanding[0] == 0
        if last:  # no job is running or queued: wake every worker to exit
            for _ in range(workers):
                work.put(None)

    def spawn(state, assigned, prefix, pr, E, depth):
        # the child resumes from the forking job's masks, taken before the
        # child's own variable is assigned
        job = {"id": _job_id(prefix), "prefix": prefix, "pr": pr,
               "base": list(E), "depth": depth, "assigned": frozenset(assigned),
               "masks": state.save_masks()}
        with lock:
            outstanding[0] += 1
        with ledger.lock:
            ledger.stats.jobs += 1
        work.put(job)
        return None  # asynchronous: residual comes back through the pool

    def execute(job, state):
        if fault_hook is not None:
            fault_hook(job["id"])
        stats = Stats()
        search = Search(net, vt, epsilon, scheme, state=state, stats=stats,
                        job_depth=d)
        search.assigned = set(job["assigned"])
        # no reference back to the search: a cycle would keep every job's
        # search alive until the next full garbage collection
        search.forker = functools.partial(spawn, state, search.assigned)
        state.load_masks(job["masks"])
        snap_lo, snap_up = ledger.snapshot()
        state.problower[:] = snap_lo
        state.probupper[:] = snap_up
        budgets = job["base"]
        if epsilon > 0.0:
            extra = ledger.drain_pool()
            budgets = [b + e for b, e in zip(budgets, extra)]
        prefix = job["prefix"]
        pending = prefix[-1] if prefix else None
        residual = search._dfs(pending, prefix, job["pr"], list(budgets),
                               job["depth"])
        lo_delta = [a - b for a, b in zip(state.problower, snap_lo)]
        up_delta = [a - b for a, b in zip(state.probupper, snap_up)]
        ledger.commit(job["id"], prefix, lo_delta, up_delta, residual, stats)

    def worker_loop():
        state = MaskState(net)  # reused by every job this worker runs
        while True:
            job = work.get()
            if job is None:
                return
            try:
                if job["id"] not in ledger.committed:
                    execute(job, state)
                finish_one()
            except Exception as exc:  # re-queue: commits are idempotent
                with lock:
                    n = retries.get(job["id"], 0)
                    retry = n < max_retries
                    if retry:
                        retries[job["id"]] = n + 1
                if retry:
                    work.put(job)
                else:
                    failures.append((job["id"], exc))
                    finish_one()

    threads = [threading.Thread(target=worker_loop, daemon=True)
               for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0][1]
    return _result_from_ledger(net, ledger, scheme, epsilon), ledger.log


def _result_from_ledger(net, ledger, scheme, epsilon):
    out = []
    for i, (_nid, _t, eid) in enumerate(net.targets):
        # one rounding per sum: the result does not depend on commit order
        lower = math.fsum([ledger.seed_lower[i]]
                          + [r["lower_delta"][i] for r in ledger.log])
        upper = math.fsum([ledger.seed_upper[i]]
                          + [r["upper_delta"][i] for r in ledger.log])
        out.append(checked_bounds(eid, lower, upper))
    return CompileResult(out, ledger.stats, scheme, epsilon)
