"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time, with
the ``run_seconds`` of BENCHMARK.json, and reports each end-to-end metric's
median, quartiles and spread (quartile distance over the median, the
figure the bounds in BENCHMARK.json are set against).  With ``--traced-seed``
it adds two traced runs per workload: the first gives the per-layer table,
and the second shows whether the counted work repeats.  ``--out``
writes the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit("run failed (%s seed %d): %s"
                         % (workload, seed, out.stderr.strip()))
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary = {}
    for w in names:
        runs, walls = [], []
        for seed in seed_list(args.seeds):
            report, wall = run_once(w, seed, seconds, 0)
            if not report["correct"]:
                print("  %s seed %d: %d of %d queries failed"
                      % (w, seed, report["failed"], report["attempted"]))
            runs.append(report)
            walls.append(wall)
            print("  %s seed %d: %.1f s wall, %s" % (w, seed, wall, " ".join(
                "%s=%.4f" % (k, v["value"])
                for k, v in sorted(report["metrics"].items()))), flush=True)
        entry = {"run_wall_s": summarise(walls),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            print("%s %-18s median %.6g %s  q1 %.6g  q3 %.6g  spread %.3f "
                  "(bound %.2f)" % (w, name, s["median"], s["unit"], s["q1"],
                                    s["q3"], s["spread"], bounds[name]))
        if args.traced_seed is not None:
            # twice, to show that the counted work repeats across processes
            traced = [run_once(w, args.traced_seed, seconds, 1)[0]["metrics"]
                      for _ in range(2)]
            counts = [{k: v["value"] for k, v in t.items()
                       if v["unit"] == "count"} for t in traced]
            entry["traced"] = {"seed": args.traced_seed, "metrics": traced[0],
                               "counts_repeat": counts[0] == counts[1]}
            print("%s traced seed %d: counted work %s across two runs"
                  % (w, args.traced_seed, "repeats" if counts[0] == counts[1]
                     else "DIFFERS"))
        summary[w] = entry
        print("%s run wall: median %.1f s, max %.1f s"
              % (w, statistics.median(walls), max(walls)), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
