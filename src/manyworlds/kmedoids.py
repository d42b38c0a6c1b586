"""Medoid-based clustering as an event program.

Builds, for a probabilistic dataset, the declarations that trace k-medoids
symbolically: the points' lineage and object c-values, initial medoids with
a deterministic fallback chain (both from ``Dataset``), per-iteration
assignment events with prefix tie-breaking, distance sums, medoid-selection
events and the next-iteration medoid c-values.

Two deliberate strengthenings over the shortest possible encoding keep the
traced algorithm equal to running k-medoids directly in each world:

  * an object belongs to a cluster only if it exists (existence conjunct in
    the assignment events), so absent objects never win tie-breaks;
  * a cluster's representative is drawn from its members (membership
    conjunct in the selection events), the defining property of a medoid.

``direct_kmedoids`` runs the same algorithm operationally on one world's
points and must produce identical clusters; the tests enforce that.
"""

from __future__ import annotations

import math

from .events import (
    Add, And, Atom, CondVal, Dist, Guard, Not, Or, Ref, Var, first_true,
)
from .eventprog import Affine, Decl, EventProgram, Loop, decl, ref


def build_kmedoids_program(dataset, cooccurrence=()):
    """Event program plus metadata (targets, cluster spec) for a dataset.

    ``cooccurrence``: optional pairs (a, b) of point indices; for each pair a
    declaration ``Co[a,b]`` is added that holds when both points end up in
    the same cluster after the final iteration.
    """
    n = dataset.n
    k = dataset.params.k
    T = dataset.params.iterations
    if T < 1:
        raise ValueError("need at least one iteration")
    items = dataset.lineage()
    for l, p in enumerate(dataset.points):
        items.append(decl("O", (l,), CondVal(ref("Obj", l), tuple(p.coords))))
    for i in range(k):
        items.append(decl("M", (i, -1), dataset.initial_medoid(i)))

    it = Affine.var("it")
    prev = it.plus(-1)
    vi, vl = Affine.var("i"), Affine.var("l")
    body = []

    def for_i(*decls):
        return Loop("i", 0, k, tuple(decls))

    def for_l(*decls):
        return Loop("l", 0, n, tuple(decls))

    # assignment phase: nearest medoid, existing objects only
    incl = And((Ref("Obj", (vl,)),) + tuple(
        Atom("<=",
             Dist(Ref("O", (vl,)), Ref("M", (vi, prev))),
             Dist(Ref("O", (vl,)), Ref("M", (Affine(j), prev))))
        for j in range(k)))
    body.append(for_i(for_l(Decl("InCl", (vi, vl, it), incl))))

    # tie break: each object keeps only its first claiming cluster
    claims = first_true([Ref("InCl", (Affine(i), vl, it)) for i in range(k)])
    for i, expr in enumerate(claims):
        body.append(for_l(Decl("InClB", (Affine(i), vl, it), expr)))

    # distance sums over cluster members
    dist_sum = _add([Guard(Ref("InClB", (vi, Affine(p), it)),
                           Dist(Ref("O", (vl,)), Ref("O", (Affine(p),))))
                     for p in range(n)])
    body.append(for_i(for_l(Decl("DistSum", (vi, vl, it), dist_sum))))

    # medoid selection: a member whose distance sum is minimal
    centre = And((Ref("InClB", (vi, vl, it)),) + tuple(
        Atom("<=", Ref("DistSum", (vi, vl, it)), Ref("DistSum", (vi, Affine(p), it)))
        for p in range(n)))
    body.append(for_i(for_l(Decl("Centre", (vi, vl, it), centre))))

    # tie break: one selected representative per cluster
    picks = first_true([Ref("Centre", (vi, Affine(l), it)) for l in range(n)])
    for l, expr in enumerate(picks):
        body.append(for_i(Decl("CentreB", (vi, Affine(l), it), expr)))

    # next-iteration medoids
    medoid = _add([Guard(Ref("CentreB", (vi, Affine(l), it)), Ref("O", (Affine(l),)))
                   for l in range(n)])
    body.append(for_i(Decl("M", (vi, it), medoid)))

    items.append(Loop("it", 0, T, tuple(body)))

    for (a, b) in cooccurrence:
        expr = Or(tuple(And((ref("InClB", i, a, T - 1), ref("InClB", i, b, T - 1)))
                        for i in range(k)))
        items.append(decl("Co", (a, b), expr))

    meta = {
        "k": k,
        "targets": "CentreB[*,*,%d]" % (T - 1),
        "objects": {l: "Obj[%d]" % l for l in range(n)},
        "membership": {(i, l): "InClB[%d,%d,%d]" % (i, l, T - 1)
                       for i in range(k) for l in range(n)},
        "centres": {(i, l): "CentreB[%d,%d,%d]" % (i, l, T - 1)
                    for i in range(k) for l in range(n)},
    }
    return EventProgram(tuple(items)), meta


def _add(terms):
    return Add(tuple(terms))


# ---------------------------------------------------------------------------
# Operational mirror
# ---------------------------------------------------------------------------


def direct_kmedoids(dataset, valuation):
    """Run k-medoids directly on one world's existing points.

    Mirrors the event encoding exactly: same initialisation fallback, same
    lowest-index tie-breaks, comparisons against an unavailable quantity
    (missing medoid, empty cluster) hold vacuously.  Returns (clusters,
    medoids) where clusters is a list of k sorted member-index lists.
    """
    exists = dataset.exists(valuation)
    pts = [tuple(p.coords) for p in dataset.points]
    n, k, T = dataset.n, dataset.params.k, dataset.params.iterations
    d = [[math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b))) for b in pts]
         for a in pts]

    meds = []
    for i in range(k):
        chosen = None
        for cand in dataset.medoid_preference(i):
            if exists[cand]:
                chosen = cand
                break
        meds.append(chosen)

    def med_dist(l, i):
        return None if meds[i] is None else d[l][meds[i]]

    clusters = [[] for _ in range(k)]
    for _t in range(T):
        clusters = [[] for _ in range(k)]
        for l in range(n):
            if not exists[l]:
                continue
            for i in range(k):
                di = med_dist(l, i)
                ok = True
                for j in range(k):
                    dj = med_dist(l, j)
                    if di is None or dj is None:
                        continue  # comparison with an undefined side holds
                    if not di <= dj:
                        ok = False
                        break
                if ok:
                    clusters[i].append(l)
                    break
        # update: member with minimal distance sum, compared against every
        # defined distance sum (as the selection events do)
        new_meds = []
        for i in range(k):
            members = clusters[i]
            sums = {}
            for l in range(n):
                if exists[l] and members:
                    sums[l] = sum(d[l][p] for p in members)
            best = None
            for l in members:
                if all(sums[l] <= sums[p] for p in sums):
                    best = l
                    break
            new_meds.append(best)
        meds = new_meds
    return [sorted(c) for c in clusters], meds


# ---------------------------------------------------------------------------
# The four-object line fixture
# ---------------------------------------------------------------------------


def example_line_dataset():
    """Four points on a line with overlapping lineage; two clusters.

    Events: o0 = x1 | x3, o1 = x2, o2 = x3, o3 = !x2 & x4; coordinates
    0, 2, 5, 9; initial medoids o1 and o3; two iterations.
    """
    from .datagen import Dataset, Params, Point
    from .events import VarTable

    vt = VarTable.of(("x1", 0.6), ("x2", 0.5), ("x3", 0.7), ("x4", 0.4))
    points = [
        Point("o0", (0.0,), Or((Var("x1"), Var("x3")))),
        Point("o1", (2.0,), Var("x2")),
        Point("o2", (5.0,), Var("x3")),
        Point("o3", (9.0,), And((Not(Var("x2")), Var("x4")))),
    ]
    params = Params(k=2, iterations=2, medoids=(1, 3))
    return Dataset(vt, points, params, {"name": "line4"})
