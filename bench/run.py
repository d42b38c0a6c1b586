"""The manyworlds benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact-unfolded --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run builds its datasets from the seed, computes the oracle's
answer for each once (untimed), then repeats passes over the workload's
queries until ``--seconds`` have elapsed.  Every answer is checked against
the oracle outside the timed region.  Counted work (branches, mask writes,
jobs, replays) must repeat exactly from pass to pass, or the run fails.

The end-to-end times are scaled to a quiet host.  Before each query the run
times a fixed loop that never calls the library (``workloads.calibrate``);
the host factor is its nominal time over its fastest time in the run.  On
the shared host this was tuned on, whole runs slowed by up to 30% for
minutes at a time, and the loop slowed with them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the tracing
overhead among them, and writes the spans to ``bench/out/``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_QUERY = "setup"
# the host gauge's fastest time on a quiet 2-vCPU host, Python 3.11
CALIBRATION_NOMINAL_S = 0.045


class RepeatError(Exception):
    """Counted work differed between two passes over the same queries."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_repeats(passes):
    """Every query's counts must be the same in every pass."""
    first = {}
    for outcomes in passes:
        for qi, o in enumerate(outcomes):
            if o.counts is None:
                continue
            if first.setdefault(qi, o.counts) != o.counts:
                raise RepeatError(
                    "query %d: (branches, mask writes, jobs, replays) %s, "
                    "then %s" % (qi, first[qi], o.counts))


def peak_rss_mb():
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def per_query(passes, key, summary):
    """Each query's summary (min or median) over the passes, in plan order."""
    return [summary(key(p[qi]) for p in passes) for qi in range(len(passes[0]))]


def wall(o):
    return o.wall_s


def end_to_end(passes, scale):
    """name -> (value, unit, what the value summarises).

    A query's time is its fastest pass: the work repeats exactly from pass
    to pass, so the spread between passes is the host's, and on a shared
    host it comes in bursts that lengthen a pass and never shorten one.
    ``scale`` is the host factor.
    """
    n, plan = len(passes), passes[0]
    best = [t * scale for t in per_query(passes, wall, min)]
    setup = [t * scale for t in per_query(passes, lambda o: o.setup_s,
                                          statistics.median)]
    by_workers = {w: sum(t for t, o in zip(best, plan) if o.workers == w)
                  for w in (1, 2)}
    return {
        "solve_s": (sum(best), "s", "sum over %d queries of each one's "
                    "fastest of %d passes" % (len(best), n)),
        "query_s.p50": (statistics.median(best), "s", "median over %d "
                        "queries of each one's fastest of %d passes"
                        % (len(best), n)),
        "setup_s": (sum(setup), "s", "sum over %d queries of each one's "
                    "median over %d passes" % (len(setup), n)),
        "peak_rss_mb": (peak_rss_mb(), "MB", "process and its children"),
        # a workload that never runs two workers has no speedup to show
        "parallel_speedup": (by_workers[1] / by_workers[2] if by_workers[2]
                             else 1.0, "x", "solve_s at 1 worker over 2"),
    }


def measure(workload, seed, seconds, trace, size="full", mutate=None):
    """Run one workload; returns (report dict, human-readable lines).

    ``mutate`` may alter the instances after their references are computed;
    the self-test uses it to plant a wrong reference answer.
    """
    import tracing
    import workloads
    from manyworlds import oracle

    tracer = tracing.Tracer() if trace else None
    run_oracle = oracle.oracle_probabilities
    if tracer is not None:
        tracer.query = SETUP_QUERY
        run_oracle = tracer.wrap("oracle.verify", run_oracle,
                                 after=tracing.oracle_counts)
    instances = workloads.make_instances(workload, seed, size, run_oracle)
    if mutate is not None:
        mutate(instances)
    plan = workloads.query_plan(workload, instances)

    ran = []  # (traced, outcomes) per pass, in the order the passes ran
    deadline = time.perf_counter() + seconds
    last = 0.0

    def made(traced):
        return sum(1 for t, _ in ran if t == traced)

    # start a pass only if it should end by the deadline, but always make at
    # least one pass of each kind the mode reports
    while (time.perf_counter() + last <= deadline or not made(False)
           or (tracer is not None and not made(True))):
        started = time.perf_counter()
        if tracer is not None and made(True) < made(False):
            with tracer.installed():
                ran.append((True, workloads.run_pass(workload, plan, tracer,
                                                     len(ran))))
        else:
            ran.append((False, workloads.run_pass(workload, plan, None,
                                                  len(ran))))
        last = time.perf_counter() - started
    passes = [p for _, p in ran]
    untraced = [p for t, p in ran if not t]
    traced = [p for t, p in ran if t]
    check_repeats(passes)

    outcomes = [o for p in passes for o in p]
    failures = [o for o in outcomes if o.error]
    lines = ["workload %s, seed %d: %d instances (%s), %d passes of %d "
             "queries" % (workload, seed, len(instances),
                          "; ".join(i.label for i in instances),
                          len(passes), len(plan))]
    for i, (t, p) in enumerate(ran):
        lines.append("  pass %d%s query wall s: %s" % (
            i, " (traced)" if t else "", " ".join("%.3f" % o.wall_s for o in p)))
    gauges = [o.calibration_s for p in passes for o in p]
    scale = CALIBRATION_NOMINAL_S / min(gauges)
    lines.append("  host factor %.4f: nominal %.4f s over the fastest of %d "
                 "gauge loops, %.4f s" % (scale, CALIBRATION_NOMINAL_S,
                                          len(gauges), min(gauges)))
    if tracer is None:
        table = end_to_end(untraced, scale)
        metrics = {name: (v, unit) for name, (v, unit, _) in table.items()}
        lines += ["  %-18s %12.6f %-3s %s" % (name, v, unit, note)
                  for name, (v, unit, note) in table.items()]
    else:
        overhead = (sum(per_query(traced, wall, min))
                    / sum(per_query(untraced, wall, min)))
        values = tracing.layer_metrics(
            tracer, [i for i, (t, _) in enumerate(ran) if t], SETUP_QUERY,
            overhead)
        metrics = {name: (values[name], unit)
                   for name, unit, _better, _moves in tracing.LAYER_METRICS}
        lines += ["  %-28s %16.6f %-13s -> %s" % (name, values[name], unit,
                                                  moves)
                  for name, unit, _better, moves in tracing.LAYER_METRICS]
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (workload, seed))
        tracer.write(path)
        lines.append("  %d spans written to %s" % (len(tracer.spans),
                                                   os.path.relpath(path, ROOT)))
    lines.append("  %-18s %12.6f     %d of %d queries, not a bounded metric" %
                 ("failed_frac", len(failures) / len(outcomes), len(failures),
                  len(outcomes)))
    report = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    return report, lines, failures


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    needed = (os.path.join(src, "manyworlds", "__init__.py"),
              os.path.join(ROOT, "tests", "fixtures", "kmedoids.prog"))
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print("error: not a manyworlds source checkout: missing %s"
              % ", ".join(os.path.relpath(p, ROOT) for p in missing),
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    try:
        report, lines, failures = measure(args.workload, args.seed,
                                          args.seconds, args.trace)
    except RepeatError as exc:
        print("error: counted work did not repeat: %s" % exc, file=sys.stderr)
        return 3
    for o in failures[:3]:
        print("failed query (workers=%d): %s" % (o.workers, o.error.strip()),
              file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
