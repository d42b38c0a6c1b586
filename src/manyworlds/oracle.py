"""Ground truth by exhaustive enumeration of possible worlds.

Evaluates grounded programs in every world of the variables they read and
aggregates exact probabilities; also runs user programs operationally in a
single world.  This is both the correctness oracle for the compiler and the
naive baseline that pays one evaluation per world: 2^r worlds for the r read
variables of probability strictly between 0 and 1.  An unread variable
marginalises to one; a certain one holds its sure value.  Declarations are
evaluated by ``events.Declarations``, the one per-world evaluator, which
types them by the network's kind rule: the oracle refuses an ill-typed
program with the network's ``TypeMismatch``.

``worlds`` is the one world walk, read by ``oracle_probabilities`` and
``world_reports``.  It follows ``enumerate_worlds``' Gray-code order, so
consecutive worlds differ in a single variable and only the declarations
downstream of it are re-evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import events as ev
from .events import (
    U, VU, VarTable, ext_add, ext_compare, ext_dist, ext_mul, ext_pow,
)
from . import userlang as ul


class OracleError(Exception):
    pass


DEFAULT_WORLD_CAP = 24


# ---------------------------------------------------------------------------
# Grounded-program evaluation
# ---------------------------------------------------------------------------


@dataclass
class OracleResult:
    probabilities: dict
    evaluations: int  # worlds walked
    total_mass: float


def enumerate_worlds(vartable, cap=DEFAULT_WORLD_CAP):
    """Yield (valuation, probability, flipped_var) in Gray-code order.

    Only the variables whose probability lies strictly between 0 and 1 are
    walked; every other one holds its sure value in every world, since a
    world that puts it at its impossible value has mass 0.  The first world
    sets every walked variable False; ``flipped_var`` is None for it and
    names the single variable toggled since the previous world after.
    """
    walked = [(n, p) for n, p in vartable.vars if 0.0 < p < 1.0]
    m = len(walked)
    if m > cap:
        raise OracleError(
            "refusing to enumerate 2^%d worlds (cap is 2^%d); raise the cap "
            "explicitly if this is intended" % (m, cap))
    nu = {n: p == 1.0 for n, p in vartable.vars}
    pr = 1.0
    for _n, p in walked:
        pr *= 1.0 - p
    yield dict(nu), pr, None
    for g in range(1, 1 << m):
        name, p = walked[(g & -g).bit_length() - 1]
        pr /= p if nu[name] else 1.0 - p
        nu[name] = not nu[name]
        pr *= p if nu[name] else 1.0 - p
        yield dict(nu), pr, name


def worlds(decls, vartable, cap=DEFAULT_WORLD_CAP):
    """Yield (valuation, mass, values) for each world of the variables the
    ``Declarations`` ``decls`` read, in ``enumerate_worlds`` order;
    ``values`` is one list of the declarations' values by position,
    updated in place."""
    read = VarTable(tuple(v for v in vartable.vars if v[0] in decls.var_deps))
    values = [None] * len(decls.eids)
    for nu, mass, flipped in enumerate_worlds(read, cap):
        decls.reevaluate(nu, values, range(len(values)) if flipped is None
                         else decls.var_deps[flipped])
        yield nu, mass, values


def oracle_probabilities(grounded, vartable, targets=None, cap=DEFAULT_WORLD_CAP):
    """Exact target probabilities by summing the mass of satisfying worlds."""
    decls = ev.Declarations(grounded.decls)
    targets = list(targets if targets is not None else grounded.targets)
    for t in targets:
        if decls.kinds[t] != "b":
            raise OracleError("target %r is not an event" % t)
    tpos = [decls.pos[t] for t in targets]
    sums = [0.0] * len(targets)
    total = 0.0
    walked = 0
    for _nu, w, values in worlds(decls, vartable, cap):
        walked += 1
        total += w
        for j, tp in enumerate(tpos):
            if values[tp] is True:
                sums[j] += w
    return OracleResult(dict(zip(targets, sums)), walked, total)


# ---------------------------------------------------------------------------
# Per-world reports
# ---------------------------------------------------------------------------


@dataclass
class WorldReport:
    valuation: dict
    probability: float
    values: dict
    objects: list = field(default_factory=list)
    clusters: list = field(default_factory=list)
    medoids: list = field(default_factory=list)


def per_world_report(grounded, vartable, valuation, meta=None):
    """Evaluate every declaration in one world; derive clusters when asked.

    ``meta`` is ``kmedoids.build_kmedoids_program``'s, which maps the
    clustering structure onto grounded identifiers: ``{"objects": {label:
    eid}, "membership": {(i, l): eid}, "centres": {(i, l): eid}, "k": int}``
    (its other keys are not read).
    """
    decls = ev.Declarations(grounded.decls)
    return _report(valuation, ev.world_probability(valuation, vartable),
                   decls.values(valuation), meta)


def _report(valuation, probability, values, meta):
    report = WorldReport(dict(valuation), probability, values)
    if meta:
        objects = sorted(l for l, eid in meta["objects"].items()
                         if values[eid] is True)
        report.objects = objects
        k = meta["k"]
        existing = set(objects)
        for i in range(k):
            members = sorted(l for (ci, l), eid in meta["membership"].items()
                             if ci == i and l in existing and values[eid] is True)
            report.clusters.append(members)
            centre = [l for (ci, l), eid in meta["centres"].items()
                      if ci == i and l in existing and values[eid] is True]
            report.medoids.append(min(centre) if centre else None)
    return report


def world_reports(grounded, vartable, meta=None, cap=DEFAULT_WORLD_CAP):
    """One report per world the oracle walks, in its order; a valuation
    names only the variables the declarations read.  ``meta`` is as for
    ``per_world_report``."""
    decls = ev.Declarations(grounded.decls)
    for nu, mass, values in worlds(decls, vartable, cap):
        yield _report(nu, mass, dict(zip(decls.eids, values)), meta)


# ---------------------------------------------------------------------------
# Operational interpretation of user programs in one world
# ---------------------------------------------------------------------------


class InterpError(Exception):
    pass


class _Interp:
    """Direct evaluation of a user program in a fixed world.

    Data points that do not exist in the world enter as the undefined vector;
    all arithmetic, comparisons and reductions follow the same extended
    algebra as event evaluation, so the translated event program and this
    interpreter must agree in every world (which the tests check).
    """

    def __init__(self, dataset, valuation):
        self.ds = dataset
        self.exists = dataset.exists(valuation)
        self.env = {}

    def run(self, program):
        self.exec_items(program.items)
        return self.env

    def exec_items(self, items):
        for item in items:
            if isinstance(item, ul.UFor):
                lo = self.int_value(item.lo)
                hi = self.int_value(item.hi)
                for v in range(lo, hi):
                    self.env[item.var] = v
                    self.exec_items(item.body)
            elif isinstance(item, ul.UExtCall):
                self.bind_ext(item)
            else:
                self.assign(item)

    def bind_ext(self, item):
        ds = self.ds
        if item.func == "loadData":
            objects = [tuple(point.coords) if there else VU
                       for point, there in zip(ds.points, self.exists)]
            vals = [objects, len(objects)]
            if len(item.targets) == 3:
                vals = [objects, len(objects), [list(row) for row in ds.matrix]]
        elif item.func == "loadParams":
            vals = [ds.params.k, ds.params.iterations]
            if len(item.targets) == 2 and ds.params.power is not None:
                vals = [ds.params.power, ds.params.iterations]
        else:  # init
            vals = [[self.initial_medoid(i) for i in range(ds.params.k)]]
        if len(vals) != len(item.targets):
            raise InterpError("%s binds %d names, got %d" %
                              (item.func, len(vals), len(item.targets)))
        for name, v in zip(item.targets, vals):
            self.env[name] = v

    def initial_medoid(self, i):
        for l in self.ds.medoid_preference(i):
            if self.exists[l]:
                return tuple(self.ds.points[l].coords)
        return VU

    def int_value(self, e):
        v = self.eval(e)
        if not isinstance(v, int) or isinstance(v, bool):
            raise InterpError("expected a constant integer bound")
        return v

    def assign(self, item):
        value = self.eval(item.expr)
        target = item.target
        if isinstance(target, ul.UName):
            self.env[target.name] = value
            return
        chain = []
        base = target
        while isinstance(base, ul.UIndex):
            chain.append(base.index)
            base = base.base
        if not isinstance(base, ul.UName) or base.name not in self.env:
            raise InterpError("assignment to uninitialised array")
        slot = self.env[base.name]
        for idx in reversed(chain[1:]):
            slot = slot[self.int_value(idx)]
        slot[self.int_value(chain[0])] = value

    def eval(self, e):
        k = type(e)
        if k is ul.ULit:
            return e.value
        if k is ul.UName:
            if e.name not in self.env:
                raise InterpError("undefined identifier %r" % e.name)
            return self.env[e.name]
        if k is ul.UIndex:
            base = self.eval(e.base)
            return base[self.int_value(e.index)]
        if k is ul.UCompare:
            op = "=" if e.op == "==" else e.op
            return ext_compare(op, self.eval(e.left), self.eval(e.right))
        if k is ul.UBinOp:
            l, r = self.eval(e.left), self.eval(e.right)
            return ext_add(l, r) if e.op == "+" else ext_mul(l, r)
        if k is ul.UArrayInit:
            return [None] * self.int_value(e.size)
        if k is ul.UCall:
            return self.call(e)
        if k is ul.UReduce:
            return self.reduce(e)
        raise TypeError("not a user expression: %r" % (e,))

    def call(self, e):
        if e.func == "pow":
            return ext_pow(self.eval(e.args[0]), self.int_value(e.args[1]))
        if e.func == "invert":
            return ext_pow(self.eval(e.args[0]), -1)
        if e.func == "dist":
            return ext_dist(self.eval(e.args[0]), self.eval(e.args[1]))
        if e.func == "scalar_mult":
            return ext_mul(self.eval(e.args[0]), self.eval(e.args[1]))
        if e.func == "breakTies":
            arr = self.eval(e.args[0])
            seen = False
            out = []
            for v in arr:
                keep = bool(v) and not seen
                seen = seen or bool(v)
                out.append(keep)
            return out
        if e.func in ("breakTies1", "breakTies2"):
            arr = self.eval(e.args[0])
            rows, cols = len(arr), len(arr[0]) if arr else 0
            out = [[bool(arr[i][l]) for l in range(cols)] for i in range(rows)]
            if e.func == "breakTies2":
                # keep the first True along the first index, per second index
                for l in range(cols):
                    seen = False
                    for i in range(rows):
                        if out[i][l] and seen:
                            out[i][l] = False
                        seen = seen or bool(arr[i][l])
            else:
                # keep the first True along the second index, per first index
                for i in range(rows):
                    seen = False
                    for l in range(cols):
                        if out[i][l] and seen:
                            out[i][l] = False
                        seen = seen or bool(arr[i][l])
            return out
        raise InterpError("unknown call %r" % e.func)

    def reduce(self, e):
        comp = e.comp
        lo, hi = self.int_value(comp.lo), self.int_value(comp.hi)
        had = comp.var in self.env
        old = self.env.get(comp.var)
        items = []
        for v in range(lo, hi):
            self.env[comp.var] = v
            if comp.cond is None or self.eval(comp.cond) is True:
                items.append(self.eval(comp.expr))
        if had:
            self.env[comp.var] = old
        else:
            self.env.pop(comp.var, None)
        func = e.func
        if func == "reduce_and":
            return all(bool(x) for x in items)
        if func == "reduce_or":
            return any(bool(x) for x in items)
        if func == "reduce_count":
            return len(items)
        if func == "reduce_mult":
            acc = 1
            for x in items:
                acc = ext_mul(acc, x)
            return acc
        # reduce_sum: the empty sum has no contributions, hence undefined
        acc = U
        for x in items:
            acc = ext_add(acc, x)
        return acc


def interpret_user_program(program, dataset, valuation):
    """Run the user program operationally in one world; returns the final env."""
    return _Interp(dataset, valuation).run(program)
