"""Synthetic probabilistic datasets with controlled correlation patterns.

Points come in groups that share one lineage event.  Three schemes:

  * positive: each group's event is a disjunction of ``l`` distinct positive
    literals drawn from a shared variable pool, so groups overlap positively
    or are independent;
  * mutex: groups are packed into sets of at most ``m``; within a set the
    events are pairwise unsatisfiable (chain encoding over fresh variables),
    across sets independent;
  * markov: each group's existence is conditioned on the previous group's
    through a two-variable chain step, one fresh pair per group.

A ``certain`` fraction of the points (taken from the front) gets the event
``true`` and exists in every world.  Probabilities are drawn uniformly from
``prob_range`` (default [0.5, 0.8]).  Feature vectors are seeded clustered
Gaussians in ``dim`` dimensions.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .events import (
    Add, And, CondVal, Const, Declarations, Not, Or, Ref, Var, VarTable, TRUE,
    first_true, map_children,
)
from .eventprog import (EventParser, ProgramSyntaxError, decl, format_expr,
                        ref)


class DatasetError(Exception):
    pass


@dataclass
class Point:
    id: str
    coords: tuple
    event: object  # EventExpr; bare point-id references name earlier points


@dataclass
class Params:
    k: int = 2
    iterations: int = 3
    medoids: tuple = ()
    power: int = None  # Hadamard exponent for graph-clustering programs


@dataclass
class Dataset:
    vartable: VarTable
    points: list
    params: Params
    meta: dict = field(default_factory=dict)
    matrix: list = None

    @property
    def n(self):
        return len(self.points)

    @cached_property
    def _point_decls(self):
        """The points' events as declarations, typed once per dataset."""
        return Declarations({p.id: p.event for p in self.points})

    def exists(self, valuation):
        """Per point, whether it exists in the world ``valuation``.  A
        point's event may name earlier points."""
        return list(self._point_decls.values(valuation).values())

    def lineage(self):
        """``Obj[l] := <point l's event>`` for each point; a point-id
        reference becomes ``Obj[index]``, so each event is declared once."""
        idx_of = {p.id: l for l, p in enumerate(self.points)}
        return [decl("Obj", (l,), _points_to_refs(p.event, idx_of))
                for l, p in enumerate(self.points)]

    def medoid_preference(self, i):
        """Index order in which cluster i picks its initial medoid.

        The configured index first, then the remaining non-primary indices
        in descending order, so a missing primary falls back
        deterministically to an existing point.
        """
        taken = set(self.params.medoids)
        return [self.params.medoids[i]] + [
            j for j in range(self.n - 1, -1, -1) if j not in taken]

    def initial_medoid(self, i):
        """Cluster i's initial medoid as a c-value: the coordinates of the
        first point in ``medoid_preference(i)`` that exists (its ``Obj``
        declaration holds), undefined if none does.
        """
        chain = self.medoid_preference(i)
        guards = first_true([ref("Obj", l) for l in chain])
        terms = [CondVal(g, tuple(self.points[l].coords))
                 for l, g in zip(chain, guards)]
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    # --- JSON round trip ------------------------------------------------------

    def to_json(self):
        doc = {
            "vars": [{"id": n, "p": p} for n, p in self.vartable.vars],
            "points": [{"id": p.id, "coords": list(p.coords),
                        "event": format_expr(p.event)} for p in self.points],
            "params": {
                "k": self.params.k,
                "iter": self.params.iterations,
                "medoids": list(self.params.medoids),
            },
        }
        if self.params.power is not None:
            doc["params"]["power"] = self.params.power
        if self.matrix is not None:
            doc["matrix"] = [list(row) for row in self.matrix]
        if self.meta:
            doc["meta"] = self.meta
        return doc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, doc):
        vt = VarTable(tuple((v["id"], float(v["p"])) for v in doc["vars"]))
        params = doc.get("params", {})
        if params.get("init", "first-existing") != "first-existing":
            raise DatasetError("init must be \"first-existing\", got %r"
                               % params["init"])
        p = Params(
            k=int(params.get("k", 2)),
            iterations=int(params.get("iter", 3)),
            medoids=tuple(params.get("medoids", ())),
            power=params.get("power"),
        )
        known = set(vt.index)
        points = []
        ids = set()
        for rec in doc["points"]:
            if rec["id"] in ids:
                raise DatasetError("duplicate point id %r" % rec["id"])
            expr = parse_event_text(rec["event"], known, ids)
            points.append(Point(rec["id"], tuple(float(x) for x in rec["coords"]),
                                expr))
            ids.add(rec["id"])
        if len(p.medoids) != p.k or not all(
                type(m) is int and 0 <= m < len(points) for m in p.medoids):
            raise DatasetError("medoids must be %d point indices below %d, got %r"
                               % (p.k, len(points), list(p.medoids)))
        return cls(vt, points, p, doc.get("meta", {}), doc.get("matrix"))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def parse_event_text(text, variables, point_ids=()):
    """Parse an event string over ``& | ! ( )``, variables and point ids."""
    try:
        parser = EventParser(text, 1)
        expr = parser.parse_expr()
        if not parser.done():
            raise DatasetError("trailing tokens in event %r" % text)
    except ProgramSyntaxError as exc:
        raise DatasetError("bad event %r: %s" % (text, exc))
    return _resolve_names(expr, set(variables), set(point_ids))


def _resolve_names(e, variables, point_ids):
    if isinstance(e, Ref):
        if e.indices:
            raise DatasetError("indexed identifier in dataset event: %r" % (e,))
        if e.name in variables:
            return Var(e.name)
        if e.name in point_ids:
            return e
        raise DatasetError("unknown name %r in dataset event" % e.name)
    if isinstance(e, (Const, Not, And, Or)):
        return map_children(e, lambda c: _resolve_names(c, variables, point_ids))
    raise DatasetError("dataset events must be propositional: %r" % (e,))


def _points_to_refs(expr, idx_of):
    """Rewrite point-id references in a point's event to Obj declarations."""
    if isinstance(expr, Ref):
        return ref("Obj", idx_of[expr.name])
    if isinstance(expr, (Var, Const, Not, And, Or)):
        return map_children(expr, lambda c: _points_to_refs(c, idx_of))
    raise TypeError("unsupported event in dataset: %r" % (expr,))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _coords(rng, n, k, dim):
    centres = [tuple(10.0 * j + rng.gauss(0.0, 1.0) for _ in range(dim))
               for j in range(max(k, 1))]
    out = []
    for i in range(n):
        c = centres[i % len(centres)]
        out.append(tuple(round(x + rng.gauss(0.0, 1.5), 4) for x in c))
    return out


def gen_correlations(n, scheme, group=4, certain=0.0, prob_range=(0.5, 0.8),
                     seed=0, l=2, m=4, pool=None, k=2, iterations=3, dim=2,
                     mutex_encoding="chain"):
    """Generate a dataset with the requested correlation scheme.

    Deterministic under ``seed``.  ``l``: literals per event (positive
    scheme); ``m``: mutex set size; ``pool``: positive-scheme variable pool
    size, default n // group.

    ``mutex_encoding`` selects how a mutex set becomes events over fresh
    variables: ``chain`` uses prefix exclusion (member j is the first set
    variable that fires), the minimal-variable form, whose decision trees
    lean heavily to one side; ``selector`` assigns each member a distinct
    bit pattern over ceil(log2(size+1)) variables (pattern 0 leaves the set
    empty), which keeps the decision tree balanced.  Both are pairwise
    exclusive within a set and independent across sets.
    """
    if n < 1:
        raise DatasetError("need at least one point")
    if not (0.0 <= certain <= 1.0):
        raise DatasetError("certain fraction out of range")
    lo, hi = prob_range
    if not (0.0 < lo <= hi < 1.0):
        raise DatasetError("probability range must lie strictly inside (0,1)")
    if scheme not in ("positive", "mutex", "markov"):
        raise DatasetError("unknown scheme %r" % scheme)
    if group < 1 or l < 1 or m < 1:
        raise DatasetError("group, l and m must be >= 1")
    if k > n:
        raise DatasetError("k=%d medoids but only %d points" % (k, n))

    rng = random.Random(seed)
    n_certain = int(certain * n)
    uncertain = n - n_certain
    sizes = [group] * (uncertain // group)
    if uncertain % group:
        sizes.append(uncertain % group)
    starts = []
    at = n_certain
    for s in sizes:
        starts.append(at)
        at += s

    var_list = []

    def fresh(name, p=None):
        var_list.append((name, p if p is not None else
                         round(rng.uniform(lo, hi), 6)))
        return Var(name)

    events = []
    if not sizes:
        pass  # every point is certain; no variables at all
    elif scheme == "positive":
        pool_size = pool if pool is not None else max(1, n // group)
        literals = [fresh("x%d" % i) for i in range(pool_size)]
        for _gi in range(len(sizes)):
            chosen = rng.sample(range(pool_size), min(l, pool_size))
            lits = tuple(literals[j] for j in sorted(chosen))
            events.append(lits[0] if len(lits) == 1 else Or(lits))
    elif scheme == "mutex":
        if mutex_encoding not in ("chain", "selector"):
            raise DatasetError("unknown mutex encoding %r" % mutex_encoding)
        gi = 0
        set_idx = 0
        while gi < len(sizes):
            size = min(m, len(sizes) - gi)
            if mutex_encoding == "chain":
                events.extend(first_true(
                    [fresh("x%d_%d" % (set_idx, j)) for j in range(size)]))
            else:
                bits = max(1, math.ceil(math.log2(size + 1)))
                vs = [fresh("x%d_%d" % (set_idx, b)) for b in range(bits)]
                for j in range(size):
                    pattern = j + 1
                    lits = tuple(vs[b] if (pattern >> b) & 1 else Not(vs[b])
                                 for b in range(bits))
                    events.append(lits[0] if len(lits) == 1 else And(lits))
            gi += size
            set_idx += 1
    else:  # markov chain over the groups, via references to earlier lineage
        for gi in range(len(sizes)):
            if gi == 0:
                events.append(fresh("x0_t"))
            else:
                xt = fresh("x%d_t" % gi)
                xf = fresh("x%d_f" % gi)
                prev = Ref("o%d" % starts[gi - 1])
                events.append(Or((And((prev, xt)), And((Not(prev), xf)))))

    vt = VarTable(tuple(var_list))
    coords = _coords(rng, n, k, dim)
    points = [Point("o%d" % i, coords[i], TRUE) for i in range(n_certain)]
    for gi, size in enumerate(sizes):
        for j in range(size):
            pi = starts[gi] + j
            points.append(Point("o%d" % pi, coords[pi], events[gi]))

    medoids = tuple(sorted({round(j * n / k) % n for j in range(k)}))
    if len(medoids) < k:
        medoids = tuple(range(k))
    params = Params(k=k, iterations=iterations, medoids=medoids)
    meta = {"scheme": scheme, "group": group, "seed": seed, "certain": certain,
            "l": l, "m": m, "n": n}
    return Dataset(vt, points, params, meta)
