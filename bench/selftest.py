"""Self-test of the benchmark, at a small size.

    python3 bench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with its
unit, in both modes; that a wrong reference answer is counted as a failed
query; that counted work repeats exactly across two processes with
different hash seeds; and that outside a source checkout the benchmark exits
non-zero without printing a result.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from manyworlds import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emitted(report):
    return {name: m["unit"] for name, m in report["metrics"].items()}


def check_metrics():
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    assert per_layer == {n: u for n, u, _b, _m in tracing.LAYER_METRICS}, \
        "BENCHMARK.json per_layer and tracing.LAYER_METRICS differ"
    for w in workloads.WORKLOADS:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            report, _lines, _failures = run.measure(w, 1, 0.0, trace, "smoke")
            assert report["correct"] and report["failed"] == 0, (w, report)
            assert emitted(report) == want, (w, trace, emitted(report))
        print("ok   %s: every metric emitted with its unit, both modes" % w)


def plant_wrong_answer(workload):
    def mutate(instances):
        ref = instances[0].reference
        eid = sorted(ref)[0]
        # just beyond the exact tolerance; outside any anytime interval
        ref[eid] += 10 * workloads.TOL if workload != "anytime-folded" else 2.0
    return mutate


def check_wrong_reference():
    for w in workloads.WORKLOADS:
        report, lines, _ = run.measure(w, 1, 0.0, 0, "smoke",
                                       mutate=plant_wrong_answer(w))
        assert not report["correct"] and report["failed"] >= 1, (w, report)
        frac = [ln for ln in lines if "failed_frac" in ln]
        assert frac and float(frac[0].split()[1]) > 0.0, lines
        print("ok   %s: a wrong reference answer counts in failed_frac (%d/%d)"
              % (w, report["failed"], report["attempted"]))


def pass_counts(workload):
    instances = workloads.make_instances(workload, 1, "smoke",
                                         oracle.oracle_probabilities)
    plan = workloads.query_plan(workload, instances)
    return [list(o.counts)
            for o in workloads.run_pass(workload, plan, None, 0)]


def check_repeat_across_processes():
    for w in workloads.WORKLOADS:
        seen = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--counts", w],
                env=env, capture_output=True, text=True, check=True,
                timeout=300)
            seen.append(json.loads(out.stdout.strip().splitlines()[-1]))
        assert seen[0] == seen[1], (w, seen)
        print("ok   %s: counted work repeats across processes %s"
              % (w, seen[0]))


def check_outside_checkout():
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "bench"))
    try:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "exact-unfolded",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and "{" not in out.stdout, out
    print("ok   outside a checkout: exit %d, no result printed"
          % out.returncode)


def main(argv):
    if argv[:1] == ["--counts"]:
        print(json.dumps(pass_counts(argv[1])))
        return 0
    check_metrics()
    check_wrong_reference()
    check_repeat_across_processes()
    check_outside_checkout()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
