"""Distributed compilation: the decision tree split into depth-bounded jobs.

A job owns the subtree rooted at a branch prefix.  While exploring, a job
forks a child job whenever a descent would cross a depth that is a multiple
of the job depth ``d``.  Every job, queued or run in place, commits its
own account to a ledger: one ``Stats`` with its work, the mass it pruned
and the mass its own branches decided, summed in its own visit order,
never that of the jobs it forked.  The ledger counts it as a job; commits
are serialized and idempotent per job id, so re-running a failed job is
safe.  The result is the seed bounds plus every commit.  No account
depends on where a job's forks ran, so in exact mode the bounds, the work
and the commit log (in job-id order) are the same bits at every worker
count and on every run; hybrid work still depends on thread timing,
through the budget pool.

One runner serves every worker count; each worker owns one ``Search`` and
runs every job on it, with the job's account swapped onto its mask state.
The fork policy is the only scheduling decision.  A forked job goes to the
queue only while idle workers outnumber queued jobs, with a copy of the
fork-time masks to resume from, and gets its base budget share; the
residual budget of each finished queued job goes to a pool that queued
jobs drain when they start.  Otherwise the forking worker runs the job in
place and gets its residual budget back, as sequential compilation does.
One worker is never idle, so it visits exactly the sequential branches, in
the same order, with the same budget.  More workers may explore a little
more, but never break the epsilon contract: budget mass is conserved or
forfeited, never created.

A job that raises is retried from its fork-time masks, at most
``max_retries`` times.  One that raises while running in place is undone
to its fork point and queued, so the retry is charged to it, not to its
forker.  A committed job never runs again, so a retried forker skips the
forks that committed before it failed.  Budget a failed attempt drained
from the pool is forfeited on purpose: the attempt may have handed shares
of it to forks that committed, so a refund could spend them twice.
Forfeiting only widens exploration.
"""

from __future__ import annotations

import math
import queue
import threading

from .compile import ConfigError, Search, checked_result
from .network import Stats


def max_job_count(m, d):
    """Upper bound on the number of jobs for m variables and job depth d."""
    if m < 1 or d < 1:
        raise ConfigError("variable count and job depth must be >= 1")
    return sum(2 ** (i * d) for i in range(math.ceil(m / d)))


def _job_id(prefix):
    return "".join("1" if v else "0" for _n, v in prefix) or "root"


class _Ledger:
    """Serialized commit point for bounds, budget pool, accounts and log."""

    def __init__(self, lower, upper, stats):
        self.lock = threading.Lock()
        self.seed_lower, self.seed_upper = list(lower), list(upper)
        # running sums, for the snapshots jobs start from; the result is
        # summed afresh from the seed and the log
        self.lower, self.upper = list(lower), list(upper)
        self.pool = 0.0
        self.committed = set()
        self.log = []
        self.stats = stats  # the probe's: each job adds its account to it

    def snapshot(self):
        with self.lock:
            return list(self.lower), list(self.upper)

    def drain_pool(self):
        with self.lock:
            out, self.pool = self.pool, 0.0
            return out

    def commit(self, job_id, prefix, account, residual):
        """Add a job's ``Stats`` and residual budget, once per job id."""
        with self.lock:
            if job_id in self.committed:
                return False
            self.committed.add(job_id)
            up_delta = [-m for m in account.taken]
            for i, (dl, du) in enumerate(zip(account.credited, up_delta)):
                self.lower[i] += dl
                self.upper[i] += du
            self.pool += residual
            self.log.append({
                "job": job_id,
                "prefix": [[n, bool(v)] for n, v in prefix],
                "lower_delta": list(account.credited),
                "upper_delta": up_delta,
            })
            s = self.stats
            s.jobs += 1
            s.branches += account.branches
            s.leaves += account.leaves
            s.pruned += account.pruned
            s.propagations += account.propagations
            s.fused += account.fused
            s.pruned_mass += account.pruned_mass
            return True


def run_distributed(net, vartable, epsilon, scheme="hybrid", workers=1,
                    job_depth=1, commit_log=None, fault_hook=None,
                    max_retries=2):
    """Compile the network's targets with ``workers`` workers.

    Satisfies the same bounds contract as sequential compilation.  A forked
    job is queued only while idle workers outnumber queued jobs, and runs in
    place otherwise, so one worker visits the sequential branches exactly.
    Exact bounds and ``commit_log`` (sorted by job id) do not depend on
    ``workers`` or timing; hybrid ones may.  A failing job is retried up to
    ``max_retries`` times, then its error raised.
    """
    if scheme not in ("exact", "hybrid"):
        raise ConfigError("distributed execution supports exact or hybrid")
    if workers < 1 or job_depth < 1:
        raise ConfigError("workers and job depth must be >= 1")
    # Count the variable-independent decisions (initial masks plus certain
    # variables) exactly once, on a probe state; the root job resumes from it.
    probe = Search(net, vartable, epsilon, scheme, job_depth=job_depth)
    probe.preassign_certain()
    probe.check_targets_reachable()
    ledger = _Ledger(probe.state.problower, probe.state.probupper,
                     probe.state.stats)

    if not probe.all_resolved():
        runner = _Runner(net, vartable, epsilon, scheme, workers, job_depth,
                         fault_hook, max_retries, ledger)
        runner.run({"id": "root", "prefix": (), "pr": 1.0,
                    "base": 2.0 * epsilon, "depth": 0,
                    "masks": probe.state.save_masks()}, probe)
    if commit_log is not None:
        commit_log.extend(sorted(ledger.log, key=lambda r: r["job"]))
    return _result_from_ledger(net, ledger, scheme, epsilon)


class _Runner:
    """The job runner.  Each worker runs every job on its one ``Search``;
    the calling thread is worker 0, on the probe.

    Methods, not nested functions, and no reference to a search: a search
    gets ``fork`` as its forker and passes itself in.  A cycle would keep
    the run alive until the next full collection.
    """

    def __init__(self, net, vt, epsilon, scheme, workers, job_depth,
                 fault_hook, max_retries, ledger):
        self.net, self.vt, self.epsilon, self.scheme = net, vt, epsilon, scheme
        self.workers = workers
        self.job_depth = job_depth
        self.fault_hook = fault_hook
        self.max_retries = max_retries
        self.ledger = ledger
        self.work = queue.Queue()
        self.lock = threading.Lock()  # guards the counts below
        self.idle = workers  # workers not running a job
        self.queued = 0
        self.retries = {}
        self.failures = []

    def run(self, root, probe):
        self.queued = 1
        self.work.put(root)
        threads = [threading.Thread(
            target=self.worker_loop, daemon=True,
            args=(Search(self.net, self.vt, self.epsilon, self.scheme,
                         job_depth=self.job_depth),))
                   for _ in range(self.workers - 1)]
        for t in threads:
            t.start()
        self.worker_loop(probe)
        for t in threads:
            t.join()
        if self.failures:
            raise self.failures[0]

    def worker_loop(self, search):
        search.forker = self.fork
        while True:
            job = self.work.get()
            if job is None:
                return
            with self.lock:
                self.idle -= 1
                self.queued -= 1
            try:
                self.execute(job, search)
            except Exception as exc:
                self.retry(job, exc)
            with self.lock:
                self.idle += 1
                done = self.idle == self.workers and not self.queued
            if done:  # no job is running or queued: wake every worker to exit
                for _ in range(self.workers):
                    self.work.put(None)

    def retry(self, job, exc):
        """Queue a failed job again, or keep its error once out of retries."""
        with self.lock:
            n = self.retries.get(job["id"], 0)
            if n >= self.max_retries:
                self.failures.append(exc)
                return
            self.retries[job["id"]] = n + 1
            self.queued += 1
        self.work.put(job)

    def execute(self, job, search):
        """Run ``job`` on ``search`` and commit its own account.

        The job's account is a fresh ``Stats`` on the search's state; the
        forker's comes back after.  A queued job carries fork-time masks and
        resumes from them; any other runs in place.  Returns the residual
        budget, or None once another attempt of the job has committed."""
        if job["id"] in self.ledger.committed:
            return None  # an earlier attempt ran it: its change is committed
        if self.fault_hook is not None:
            self.fault_hook(job["id"])
        state = search.state
        forker = state.stats
        state.stats = Stats(len(state.problower))
        try:
            ledger = self.ledger
            queued = "masks" in job
            budget = job["base"]
            if queued:
                state.load_masks(job["masks"])
                state.problower[:], state.probupper[:] = ledger.snapshot()
                if self.epsilon > 0.0:
                    budget += ledger.drain_pool()
            prefix = job["prefix"]
            residual = search.explore(prefix, job["pr"], budget, job["depth"])
            # a queued job's residual goes to the pool; one run in place
            # returns it to its forker and must not hand it out twice
            to_pool = residual if queued else 0.0
            if ledger.commit(job["id"], prefix, state.stats, to_pool):
                return residual
            return None
        finally:
            state.stats = forker

    def fork(self, search, prefix, pr, E, depth):
        """``Search.forker``: queue the job for an idle worker, or run it in
        place and return its residual budget (None: none comes back)."""
        job = {"id": _job_id(prefix), "prefix": prefix, "pr": pr,
               "base": E, "depth": depth}
        with self.lock:
            hand_off = self.idle > self.queued
            if hand_off:
                self.queued += 1
        state = search.state
        if hand_off:  # the job resumes from the masks before its variable
            job["masks"] = state.save_masks()
            self.work.put(job)
            return None
        mark = state.checkpoint()
        lower, upper = list(state.problower), list(state.probupper)
        try:
            return self.execute(job, search)
        except Exception as exc:
            # undo the attempt and queue the job, so the retry is charged
            # to the job that failed and not to its forker
            state.revert(mark)
            state.problower[:], state.probupper[:] = lower, upper
            job["masks"] = state.save_masks()
            self.retry(job, exc)
            return None


def _result_from_ledger(net, ledger, scheme, epsilon):
    # one rounding per sum: the result does not depend on commit order
    sums = [(eid,
             math.fsum([ledger.seed_lower[i]]
                       + [r["lower_delta"][i] for r in ledger.log]),
             math.fsum([ledger.seed_upper[i]]
                       + [r["upper_delta"][i] for r in ledger.log]))
            for i, (_slot, eid) in enumerate(net.targets)]
    return checked_result(sums, ledger.stats, scheme, epsilon)
