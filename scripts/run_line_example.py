#!/usr/bin/env python3
"""Walk the four-point line fixture through every computation mode.

Prints the per-world clusterings, then compares naive enumeration, exact
compilation and hybrid approximation on the medoid-selection events and two
co-occurrence queries.
"""

from manyworlds.compile import compile_targets
from manyworlds.distributed import run_distributed
from manyworlds.eventprog import ground
from manyworlds.kmedoids import build_kmedoids_program, example_line_dataset
from manyworlds.network import build_network
from manyworlds.oracle import oracle_probabilities, world_reports


def main():
    ds = example_line_dataset()
    prog, meta = build_kmedoids_program(ds, cooccurrence=[(1, 2), (2, 3)])
    g = ground(prog, (meta["targets"], "Co*"), variables=set(ds.vartable.index))

    print("worlds (o0..o3 on a line at 0, 2, 5, 9; two clusters):")
    for i, rep in enumerate(world_reports(g, ds.vartable, meta)):
        world = "".join("T" if v else "f" for v in rep.valuation.values())
        print("  %2d %s p=%.4f objects=%s clusters=%s medoids=%s"
              % (i, world, rep.probability, rep.objects, rep.clusters,
                 rep.medoids))

    oracle = oracle_probabilities(g, ds.vartable, g.targets)
    net = build_network(g)
    exact = compile_targets(net, ds.vartable, 0.0, "exact")
    hybrid = compile_targets(net, ds.vartable, 0.1, "hybrid")
    dist = run_distributed(net, ds.vartable, 0.1, "hybrid", workers=4,
                           job_depth=2)

    print("\n%-16s %-10s %-17s %-23s %s" % (
        "event", "naive", "exact", "hybrid eps=0.1", "hybrid-d w=4"))
    for eid in g.targets:
        e_lo, e_hi = exact.bounds(eid)
        h_lo, h_hi = hybrid.bounds(eid)
        d_lo, d_hi = dist.bounds(eid)
        print("%-16s %-10.6f %-17.12f [%.6f, %.6f]   [%.6f, %.6f]"
              % (eid, oracle.probabilities[eid], e_lo, h_lo, h_hi, d_lo, d_hi))
    print("\nwork: naive=%d evaluations, exact=%s, hybrid=%s"
          % (oracle.evaluations, exact.stats.report(), hybrid.stats.report()))


if __name__ == "__main__":
    main()
