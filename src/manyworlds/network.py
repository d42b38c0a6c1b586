"""Event networks: shared-subexpression DAGs with partial-knowledge masks.

Structurally identical subexpressions of a grounded program are represented
by a single node.  A conjunction or disjunction keeps each distinct operand
once, and an atom compares by ``<=``, ``<`` or ``=`` only: ``a >= b`` is
built as ``b <= a`` and ``a > b`` as ``b < a``, so both spellings share a
node.  During compilation each node carries a *mask*: a tri-state
truth value for Boolean nodes, and for numeric (c-value) nodes an interval
``[lo, hi]`` over the defined outcomes plus two flags, ``may_undef`` (the
undefined element is still a possible outcome) and ``may_def`` (a defined
value is still possible).  Assigning a random variable propagates masks
bottom-up; every mask write is recorded on an undo trail so the depth-first
search can backtrack in O(changes).

Each ``MaskState`` keeps one list ``masks`` over kept slots (below): a
Boolean slot holds ``UNKNOWN``, ``MASK_TRUE`` or ``MASK_FALSE`` (those three objects,
so an identity test tells them apart), a numeric slot a ``NumMask``.  A
scalar mask's interval ends are floats, a vector mask's are tuples of
floats, one per component.  A rule whose result is certainly undefined
returns ``UNDEF``, except ``_guard`` and ``_condval``, which keep their
interval.  The rules keep one invariant: a mask that may be defined has its
static kind's shape, and no rule reads the interval of a mask whose
``may_def`` is False.

Each (node, iteration) instance has a flat instance slot,
``EventNetwork.slot``: ``t*N + id`` for in-loop nodes and ``id`` for
iteration-independent (base) nodes.  That index is topological, because
every child slot is smaller than the slot that reads it:

  * node ids run children-first, so a child read in the same iteration has
    the smaller slot;
  * a base child's slot is its id, which is smaller than its reader's id
    and so than the reader's slot at every iteration;
  * a carry node reads its ``init`` declaration, created before it, at
    ``t=0``, and its ``source`` at ``t-1`` after that, whose slot (base or
    in-loop) is below ``t*N``.

A conjunction takes each atom written directly under it in as a
*comparison operand*, ``(op, left, right)``, and a sum each guard written
directly under it as a *guarded term*, ``(condition, body)``; neither
becomes a node (``_build_expr``).  Every other atom or guard is a node: one
declared on its own and read through a reference, a target, a carried
value, or one under ``!``, ``|``, a condval or a guard's condition.  A
conjunction's ``payload`` holds its operands in child order, each a child
node's id or a comparison, and a sum's its terms, where a child node ``c``
is the term ``(None, c)``; its ``children`` are the node ids that these
read, in the same order.  An operand is typed by ``events.kind_rule`` as
its node would be, and its reader's rule evaluates it inline, with the
float operations of the atom or guard rule, so a mask is the same bits as
over a node of its own.  On the benchmark's k-medoids networks every atom
and every guard is an operand, and a search writes 76-80% fewer masks than
with each a node.

The first ``MaskState`` on a network compiles it into ``SlotTables``.
They number the *kept* instances, every one but the unused slots of a base
node at ``t>0``, in rising instance-slot order, so the numbering is
topological too; every mask state addresses instances by these *kept
slots*, through ``SlotTables.index``.  Per kept slot the tables hold the
rule and node that compute its mask, the rule's argument (built from its
children's kept slots, with the carry nodes' iteration shift already
expanded), the slots that read its mask, and a level.  A node kind keeps
one rule, but for three (``_rule_of``).  A sum's rule is picked by its
kind, scalar or vector.  A distance between two condval points, whose
masks always hold the points' values, has a fixed interval: its argument
carries its two defined masks, computed once, and its rule returns one of
them or ``UNDEF``.  An atom's rule, and a comparison operand's, is picked
by its comparison.  Building the tables outside ``build_network`` keeps
that work out of network construction; every mask state on the network,
one per worker, shares them read-only.  The first state also leaves its
initial masks there, and every later state loads them instead of computing
them again.

Propagation is levelized.  A slot's level is 0 if its rule reads no mask,
else one more than the highest level it reads.  An assignment appends each dirty slot to
its state's list for that level and drains the lists in rising level
order, so each instance is recomputed once, from the final masks of all of
its changed children, and is written at most once per assignment.  A stamp
list marks the assignment that last queued each slot, so a slot is queued
at most once.  A decided slot's stamp is ``DECIDED``, above every
assignment's, so it is never queued: masks only tighten, and a decided
mask cannot change until a revert, which drops the stamp of every slot it
restores.  The order within a level is the order of queueing; it moves
neither a mask nor a bound, since each slot reads only final child masks and
each target is credited at most once per assignment.

The search picks its next variable by how many undecided kept instances
lie above it, so ``MaskState.unknown_bits`` keeps one bit per kept slot
that is still undecided: a Boolean mask that is UNKNOWN, or a numeric
mask that still allows two outcomes (a defined value and the undefined
element, or two defined values).  Initialisation sets the bits of the
instances it leaves undecided.  After it, writes only clear bits, because
masks only tighten and an assignment never queues a decided instance.  A
checkpoint carries the bits with the trail length, and reverting restores
them in one step.

Networks come in two modes.  *Unfolded* networks instantiate every loop
iteration as distinct nodes.  *Folded* networks keep one node set for the
loop body plus carry-over nodes that feed iteration ``t`` the masks computed
for iteration ``t-1`` (iteration 0 reads the grounded initial declarations);
masks are then indexed by iteration, so the node count does not grow with
the iteration bound.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .events import (
    Add, And, Atom, CondVal, Const, Dist, Guard, Mul, Not, Or, Pow, Ref,
    TypeMismatch, Var, children_of, kind_rule, power,
)
from .eventprog import Affine, FoldedProgram, render_eid

INF = float("inf")


class NetworkError(Exception):
    pass


NumMask = namedtuple("NumMask", "lo hi may_undef may_def")
UNDEF = NumMask(0.0, 0.0, True, False)  # certainly undefined

UNKNOWN, MASK_TRUE, MASK_FALSE = 0, 1, 2

# the ``MaskState.queued`` stamp of a decided slot, above every epoch
DECIDED = sys.maxsize


def _decided(m):
    """A numeric mask is decided once it is certainly undefined or one value."""
    return not m.may_def or (not m.may_undef and m.lo == m.hi)


class Node:
    __slots__ = ("id", "kind", "children", "payload", "in_loop", "vkind")

    def __init__(self, id, kind, children, payload, in_loop, vkind):
        self.id = id
        self.kind = kind
        self.children = children
        self.payload = payload
        self.in_loop = in_loop
        self.vkind = vkind  # 'b' | 's' | 'v'

    def __repr__(self):
        return "Node(%d,%s)" % (self.id, self.kind)


class EventNetwork:
    def __init__(self, iterations):
        self.T = iterations  # 1 for unfolded networks
        self.nodes = []
        self.node_of_eid = {}
        self.var_nodes = {}  # var name -> node id
        self.targets = []  # (instance slot, eid) per target
        self.slots = None  # SlotTables, built by slot_tables() on first use
        self.ancestors = None  # filled by compile.ancestor_bits

    def slot_tables(self):
        """The network flattened over instance slots (see ``SlotTables``)."""
        if self.slots is None:
            self.slots = SlotTables(self)
        return self.slots

    def slot(self, nid, t):
        """The instance slot of node ``nid`` at iteration ``t``."""
        return t * len(self.nodes) + nid if self.nodes[nid].in_loop else nid

    # --- construction -----------------------------------------------------

    def _new_node(self, kind, children, payload, in_loop, vkind):
        node = Node(len(self.nodes), kind, children, payload, in_loop, vkind)
        self.nodes.append(node)
        return node.id

    def var_node(self, name):
        nid = self.var_nodes.get(name)
        if nid is None:
            nid = self._new_node("var", (), name, False, "b")
            self.var_nodes[name] = nid
        return nid

    def dump(self):
        """Line-oriented debug dump, one line per node: ``id kind``, the
        node's payload, if any, then what it reads.  A conjunction reads
        its operands, a node id or a comparison ``[left<=right]``; a sum its
        terms, a node id or a guarded term ``(condition?body)``; a carry
        ``init=id source=id``; any other node its children's ids."""
        out = []
        for n in self.nodes:
            kind, payload = n.kind, n.payload
            line = [str(n.id), kind]
            if kind == "and":
                line += [str(op) if type(op) is int
                         else "[%d%s%d]" % (op[1], op[0], op[2])
                         for op in payload]
            elif kind == "add":
                line += [str(b) if g is None else "(%d?%d)" % (g, b)
                         for g, b in payload]
            elif kind == "loop":
                line += ["init=%d" % payload["init"],
                         "source=%d" % payload["source"]]
            else:
                if kind == "const":
                    line.append("true" if payload else "false")
                elif kind in ("var", "atom", "condval", "pow"):
                    line.append(str(payload))
                line += map(str, n.children)
            out.append(" ".join(line))
        return "\n".join(out) + "\n"


class SlotTables:
    """An event network flattened over its kept (node, iteration) instances.

    An instance is *kept* unless no instance uses its slot (a base node's
    slot at ``t>0``).  The kept instances are numbered in rising
    ``EventNetwork.slot`` order, every node at ``t=0`` first, so a node's
    kept slot at ``t=0``, and a base node's at every iteration, is its id;
    every table is over these *kept slots*: ``index`` maps a used instance
    slot to its kept slot.  ``vars`` maps each variable the network reads
    to its kept slot, and ``targets`` holds the kept slot of each of
    ``EventNetwork.targets``, in order.

    ``rules[k](state, nodes[k], children[k])`` computes a kept slot's mask;
    the rule is picked per node (``_rule_of``).  ``children[k]`` is the
    rule's argument, built from the kept slots of the instance's children
    in the node's child order, where a carry node reads its initial
    declaration at ``t=0`` and its source at ``t-1`` after that.  Most
    arguments are those slots; three kinds have their own shapes:

      * an ``add``'s is ``(terms, pairs)``: its terms' (condition or None,
        body) slot pairs, in child order, and the count of guarded terms,
        which the rule adds to ``Stats.fused``;
      * a distance between two condval points is ``(a, b, sure, unsure)``:
        the points' slots, then its masks when both points are certainly
        defined and when either may be undefined.  A condval mask keeps
        its value whatever its condition, so the interval is fixed;
      * an ``and``'s is (the slots of its child nodes, comparisons), with
        one ``(rule, (left, right))`` item per comparison operand, so ``()``
        when it has none.

    ``parents[k]`` holds, in rising order, the kept slots whose rules read
    kept slot ``k``, one edge per distinct slot a rule reads, so a distance
    of a point to itself has one edge.  ``level[k]`` is 0 for a slot that
    reads no mask, else one more than the highest level it reads.  Every
    edge rises, because instance slots are topological and the numbering
    keeps their order.  ``initial`` holds the masks before any assignment
    (``MaskState._init_masks``).
    """

    __slots__ = ("index", "vars", "targets", "children", "parents", "level",
                 "rules", "nodes", "initial")

    def __init__(self, net):
        nodes, N = net.nodes, len(net.nodes)
        loop = [n for n in nodes if n.in_loop]
        kept = [(node, 0) for node in nodes]
        for t in range(1, net.T):
            kept += [(node, t) for node in loop]
        index = {t * N + node.id: k for k, (node, t) in enumerate(kept)}

        def at(ids, off):
            """The kept slots of nodes ``ids`` at iteration ``off // N``;
            the None of a term without a condition stays None."""
            return ids if not off else tuple([
                c if c is None or not nodes[c].in_loop else index[c + off]
                for c in ids])

        children, rules, snodes = [], [], []
        parents, level = [[] for _ in kept], [0] * len(kept)
        for k, (node, t) in enumerate(kept):
            kind, kids, kt = node.kind, node.children, t
            if kind == "loop":
                kids, kt = (((node.payload["init"],), 0) if t == 0
                            else ((node.payload["source"],), t - 1))
            off = kt * N
            read = at(kids, off)
            rule = _rule_of(node, nodes)
            if kind == "add":
                terms = node.payload if not off else tuple([
                    at(term, off) for term in node.payload])
                arg = (terms, sum([g is not None for g, _b in terms]))
            elif kind == "and":
                ops = node.payload
                arg = (at(tuple([c for c in ops if type(c) is int]), off),
                       tuple([(_atom_rule(c[0], nodes[c[1]].vkind),
                               at(c[1:], off))
                              for c in ops if type(c) is tuple]))
            elif rule is MaskState._point_dist:  # two fixed points
                u, v = (nodes[c].payload for c in kids)
                lo, hi = _idist(u, u, v, v)
                arg = read + (NumMask(lo, hi, False, True),
                              NumMask(lo, hi, True, True))
            else:
                arg = read
            children.append(arg)
            rules.append(rule)
            snodes.append(node)
            for c in dict.fromkeys(read):  # children first: kept slots rise
                parents[c].append(k)
                if level[c] >= level[k]:
                    level[k] = level[c] + 1
        self.index = index
        self.vars = {name: index[nid] for name, nid in net.var_nodes.items()}
        self.targets = [index[slot] for slot, _eid in net.targets]
        self.children = children
        self.parents = [tuple(out) for out in parents]
        self.level = level
        self.rules = rules
        self.nodes = snodes
        self.initial = None  # set by the first MaskState on the network


# the child kind that a conjunction or a sum takes in as an operand
_OPERANDS = {And: Atom, Add: Guard}
_NODE_KINDS = {Const: "const", Not: "not", And: "and", Or: "or", Atom: "atom",
               CondVal: "condval", Guard: "guard", Add: "add", Mul: "mul",
               Pow: "pow", Dist: "dist"}
_MIRRORED = {">=": "<=", ">": "<"}


def _build_expr(net, e, in_loop, resolve_ref, built, intern):
    """The node of expression ``e``, built children-first and interned in
    ``intern``.

    A node built inside the loop body is iteration-dependent only when
    something below it is; otherwise it is shared with the base layer.  An
    atom directly under a conjunction is its comparison operand, and a
    guard directly under a sum its guarded term: their sides are built,
    but they are not.  A new node's kind comes from ``events.kind_rule``,
    applied to each of its operands first: this is the one type check of a
    program, so a folded body raises the same ``TypeMismatch`` as its
    unfolded program.  ``built`` maps each grounded object built so far, by
    identity, to its node, so an object that grounding shares is walked
    once.  A reference to a grounded identifier is looked up in
    ``node_of_eid``; ``resolve_ref`` resolves the others.
    """
    kind = type(e)
    if kind is Ref:
        nid = None if e.indices else net.node_of_eid.get(e.name)
        if nid is None:
            nid = built[id(e)] = resolve_ref(e)
        return nid
    if kind is Var:
        return net.var_node(e.name)
    name = _NODE_KINDS.get(kind)
    if name is None:
        raise NetworkError("expression kind without a network encoding: %r" % (e,))
    kids = children_of(e)
    if not kids and kind in (Add, Mul):
        raise NetworkError("empty sum" if kind is Add else "empty product")
    inline = _OPERANDS.get(kind)
    if inline is not None:  # an operand's sides in its place
        kids = [s for c in kids
                for s in (children_of(c) if type(c) is inline else (c,))]
    node_of_eid, cs = net.node_of_eid, []
    for c in kids:
        nid = (node_of_eid.get(c.name) if type(c) is Ref and not c.indices
               else built.get(id(c)))
        cs.append(_build_expr(net, c, in_loop, resolve_ref, built, intern)
                  if nid is None else nid)
    cs = tuple(cs)
    payload = ops = None
    if kind is And:
        built_ids, ops = iter(cs), []
        for c in e.children:
            if type(c) is Atom:
                op, a, b = c.op, next(built_ids), next(built_ids)
                if op in _MIRRORED:
                    op, a, b = _MIRRORED[op], b, a
                ops.append((op, a, b))
            else:
                ops.append(next(built_ids))
        payload = tuple(dict.fromkeys(ops))  # a repeated operand adds nothing
        cs = tuple([c for op in payload
                    for c in ((op,) if type(op) is int else op[1:])])
    elif kind is Add:
        built_ids = iter(cs)
        payload = ops = tuple([
            (next(built_ids), next(built_ids)) if type(c) is Guard
            else (None, next(built_ids)) for c in e.children])
    elif kind is Const:
        payload = e.value
    elif kind is Atom:
        payload = e.op
        if payload in _MIRRORED:  # a >= b is b <= a, and a > b is b < a
            payload, cs = _MIRRORED[payload], cs[::-1]
    elif kind is Or:  # idempotent: a repeated operand adds nothing
        cs = tuple(dict.fromkeys(cs))
    elif kind is Pow:
        payload = e.exponent
    elif kind is CondVal:
        payload = e.value
        if isinstance(payload, Affine):
            raise NetworkError("folded mode cannot share a value that depends "
                               "on a loop counter: %s" % payload)
        payload = (tuple(float(x) for x in payload)
                   if isinstance(payload, tuple) else float(payload))
    nodes = net.nodes
    loopy = in_loop and any(nodes[c].in_loop for c in cs)
    key = (name, payload, cs, loopy)
    nid = intern.get(key)
    if nid is None:
        if ops is None:
            ks = [nodes[c].vkind for c in cs]
        else:  # each operand typed as its node would be
            ks = []
            for c, op in zip(e.children, ops):
                if type(c) is inline:  # kind_rule treats both sides alike
                    ks.append(kind_rule(c, [nodes[op[-2]].vkind,
                                            nodes[op[-1]].vkind]))
                else:
                    ks.append(nodes[op if kind is And else op[1]].vkind)
        vkind = kind_rule(e, ks)
        nid = intern[key] = net._new_node(name, cs, payload, loopy, vkind)
    built[id(e)] = nid
    return nid


def _unknown_ref(e):
    raise NetworkError("reference to unknown identifier %r" % e.name)


def build_network(grounded):
    """Build an event network from a grounded or folded program.

    The declarations outside a folded loop are built as a grounded
    program's are, then the loop body once (``_build_body``).  Each target
    is the slot of its eid's node at the last iteration.
    """
    folded = isinstance(grounded, FoldedProgram)
    net = EventNetwork(grounded.count if folded else 1)
    built = {}  # id(grounded object) -> node id
    intern = {}  # (kind, payload, children, in loop) -> node id
    for eid, expr in (grounded.base if folded else grounded.decls).items():
        net.node_of_eid[eid] = _build_expr(net, expr, False, _unknown_ref,
                                           built, intern)
    final = (_build_body(net, grounded, built, intern) if folded
             else net.node_of_eid)
    for eid in grounded.targets:
        nid = final[eid]
        if net.nodes[nid].vkind != "b":
            raise NetworkError("target %r is not an event" % eid)
        net.targets.append((net.slot(nid, net.T - 1), eid))
    return net


def _build_body(net, folded, built, intern):
    """Build a folded program's body once for every iteration, and return
    the node of each of its final-iteration eids.

    A body reference with constant indices names a base declaration; one
    affine in the loop counter names a body declaration of the same
    iteration, built before it, or of the previous iteration, through a
    carry node that reads the declaration's iteration-0 eid from the base
    at ``t=0``.
    """
    counter = folded.counter
    same_map, prev_map = {}, {}  # (name, indices) -> body position
    for pos, d in enumerate(folded.body):
        same_map[d.name, d.indices] = pos
        prev_map[d.name, tuple(ix.shift(counter, -1) for ix in d.indices)] = pos

    body_nodes = [None] * len(folded.body)
    carry = {}  # body position -> loop node id

    def make_carry(pos, ref_indices):
        nid = carry.get(pos)
        if nid is not None:
            return nid
        init_eid = render_eid(folded.body[pos].name,
                              [ix.eval({counter: 0}) for ix in ref_indices])
        init_id = net.node_of_eid.get(init_eid)
        if init_id is None:
            raise NetworkError(
                "carried reference needs initial declaration %r" % init_eid)
        nid = net._new_node("loop", (), {"source": None, "init": init_id},
                            True, net.nodes[init_id].vkind)
        carry[pos] = nid
        return nid

    def resolve_body(e):
        if all(ix.is_const() for ix in e.indices):
            eid = render_eid(e.name, [ix.const for ix in e.indices])
            nid = net.node_of_eid.get(eid)
            if nid is None:
                raise NetworkError("reference to unknown identifier %r" % eid)
            return nid
        pos = same_map.get((e.name, e.indices))
        if pos is not None:
            nid = body_nodes[pos]
            if nid is None:
                raise NetworkError(
                    "forward reference to %r within one iteration" % e.name)
            return nid
        pos = prev_map.get((e.name, e.indices))
        if pos is not None:
            return make_carry(pos, e.indices)
        for ix in e.indices:
            for name, _coef in ix.terms:
                if name != counter:
                    raise NetworkError("unbound loop counter %r in a reference "
                                       "to %r" % (name, e.name))
        raise NetworkError(
            "folded mode supports references to the same or previous "
            "iteration only: %s[%s]" % (e.name, ",".join(str(i) for i in e.indices)))

    for pos, d in enumerate(folded.body):
        body_nodes[pos] = _build_expr(net, d.expr, True, resolve_body, built,
                                      intern)

    for pos, nid in carry.items():
        source = body_nodes[pos]
        if net.nodes[source].vkind != net.nodes[nid].vkind:
            raise TypeMismatch(
                "carried family %r changes kind in the loop"
                % folded.body[pos].name)
        net.nodes[nid].payload["source"] = source
    last = {counter: folded.count - 1}
    return {d.eid_under(last): nid for d, nid in zip(folded.body, body_nodes)}


# ---------------------------------------------------------------------------
# Interval helpers
# ---------------------------------------------------------------------------


def _corner(a, b):
    if a == 0 or b == 0:
        return 0.0
    return a * b


def _imul(alo, ahi, blo, bhi):
    c1, c2, c3, c4 = _corner(alo, blo), _corner(alo, bhi), _corner(ahi, blo), _corner(ahi, bhi)
    return min(c1, c2, c3, c4), max(c1, c2, c3, c4)


def _idist(alo, ahi, blo, bhi):
    """The interval of the distance between a point in the box ``[alo,
    ahi]`` and one in ``[blo, bhi]``, the boxes given per component."""
    sq_lo = sq_hi = 0.0
    for x_lo, x_hi, y_lo, y_hi in zip(alo, ahi, blo, bhi):
        dlo, dhi = x_lo - y_hi, x_hi - y_lo
        if dlo <= 0.0 <= dhi:
            abs_lo, abs_hi = 0.0, max(-dlo, dhi)
        else:
            abs_lo = min(abs(dlo), abs(dhi))
            abs_hi = max(abs(dlo), abs(dhi))
        sq_lo += abs_lo * abs_lo
        sq_hi += abs_hi * abs_hi
    return math.sqrt(sq_lo), math.sqrt(sq_hi)


def _ipow(lo, hi, n):
    if n == 0:
        return 1.0, 1.0
    if n < 0:
        # x ** n is monotone on each side of 0 and unbounded towards it; a
        # finite end is ``power(x, n)``, as the oracle computes it, so a
        # decided mask holds the oracle's value to the bit
        if lo > 0.0 or hi < 0.0:
            a, b = power(lo, n), power(hi, n)
            return min(a, b), max(a, b)
        if lo == 0.0 and hi > 0.0:
            return power(hi, n), INF
        if lo < 0.0 and hi == 0.0:
            return (-INF, power(lo, n)) if n % 2 else (power(lo, n), INF)
        return (-INF, INF) if n % 2 else (0.0, INF)
    if n % 2 == 1:
        return power(lo, n), power(hi, n)
    a, b = abs(lo), abs(hi)
    high = power(max(a, b), n)
    low = 0.0 if lo <= 0 <= hi else power(min(a, b), n)
    return low, high


# ---------------------------------------------------------------------------
# Mask state
# ---------------------------------------------------------------------------


class Stats:
    """The account of a search or of one job: its work counts, the mass it
    credited to each target's lower bound and took from its upper bound,
    and the mass its budget forfeited in pruned subtrees.

    ``propagations`` counts mask writes; ``fused`` counts the comparison
    operands and guarded terms evaluated inside their conjunctions' and
    sums' rules, which write no mask."""

    __slots__ = ("branches", "leaves", "pruned", "propagations", "fused",
                 "jobs", "replays", "credited", "taken", "pruned_mass")

    def __init__(self, targets):
        self.branches = 0
        self.leaves = 0
        self.pruned = 0
        self.propagations = 0
        self.fused = 0
        self.jobs = 0
        self.replays = 0
        self.credited = [0.0] * targets
        self.taken = [0.0] * targets
        self.pruned_mass = 0.0

    def as_dict(self):
        return {
            "branches": self.branches,
            "leaves": self.leaves,
            "pruned": self.pruned,
            "propagations": self.propagations,
            "fused": self.fused,
            "jobs": self.jobs,
            "replays": self.replays,
        }

    def report(self):
        return " ".join("%s=%d" % (k, v) for k, v in self.as_dict().items())


class MaskState:
    """Per-compilation mutable state: masks, undo trail, target bounds."""

    def __init__(self, net: EventNetwork):
        self.net = net
        self.tables = net.slot_tables()
        size = len(self.tables.rules)
        self.masks = [UNKNOWN] * size
        self.trail = []
        self.stats = Stats(len(net.targets))
        self.problower = [0.0] * len(net.targets)
        self.probupper = [1.0] * len(net.targets)
        self.target_at = {}
        for i, slot in enumerate(self.tables.targets):
            self.target_at.setdefault(slot, []).append(i)
        # a slot is queued in the current assignment iff its stamp is epoch;
        # a decided slot's stamp is DECIDED, above every epoch
        self.queued = [0] * size
        self.epoch = 0
        # the dirty slots of the running assignment, one list per level
        self.levels = [[] for _ in range(max(self.tables.level) + 1)]
        self._init_masks()

    # --- indexing -----------------------------------------------------------

    def mask_of(self, nid, t):
        """The mask of node ``nid`` at iteration ``t``."""
        return self.masks[self.tables.index[self.net.slot(nid, t)]]

    # --- initialisation ------------------------------------------------------

    def _init_masks(self):
        """Load every instance's mask before any assignment, and credit the
        targets it decides.  The first state on a network computes the
        masks and keeps a copy in ``SlotTables.initial`` for the rest (one
        per worker)."""
        tables = self.tables
        if tables.initial is None:
            tables.initial = self._initial_masks()
        masks, unknown, writes, fused = tables.initial
        self.load_masks((masks, unknown))
        for idx in self.target_at:
            if masks[idx] != UNKNOWN:
                self._credit(idx, masks[idx], 1.0)
        self.stats.propagations += writes
        self.stats.fused += fused

    def _initial_masks(self):
        # slots are topological, so computing each instance once, in slot
        # order, reaches the initial fixpoint without any parent cascades
        masks = self.masks
        children, nodes = self.tables.children, self.tables.nodes
        undecided, writes = bytearray((len(masks) + 7) >> 3), 0
        for idx, rule in enumerate(self.tables.rules):
            node = nodes[idx]
            new = rule(self, node, children[idx])
            if new is not UNKNOWN:
                masks[idx] = new
                writes += 1
                if node.vkind == "b" or _decided(new):
                    continue
            undecided[idx >> 3] |= 1 << (idx & 7)
        # the fused evaluations go with the initial masks, so that every
        # state on the network counts them once (``_init_masks``)
        fused, self.stats.fused = self.stats.fused, 0
        return (list(masks), int.from_bytes(undecided, "little"), writes,
                fused)

    # --- trail ----------------------------------------------------------------

    def checkpoint(self):
        """A mark to revert to: the trail length and the undecided bits."""
        return len(self.trail), self.unknown_bits

    def revert(self, mark):
        """Undo every write after ``mark``.  Each went to an undecided slot,
        so the slot's stamp drops below every epoch again."""
        size, self.unknown_bits = mark
        trail, masks, queued = self.trail, self.masks, self.queued
        for idx, old in reversed(trail[size:]):
            masks[idx] = old
            queued[idx] = 0
        del trail[size:]

    def save_masks(self):
        """Copies of the masks, for a job that resumes from this point."""
        return list(self.masks), self.unknown_bits

    def load_masks(self, saved):
        """Resume from what ``save_masks`` returned, with an empty trail.

        The decided stamps are rebuilt from the undecided bits: the saving
        state's epochs mean nothing here."""
        masks, unknown = saved
        self.masks[:] = masks
        self.unknown_bits = unknown
        bits = bin(unknown)[:1:-1].ljust(len(masks), "0")
        self.queued[:] = [0 if bit == "1" else DECIDED for bit in bits]
        self.trail.clear()

    # --- assignment & propagation ----------------------------------------------

    def assign(self, var_name, value, p):
        """Assign a variable, then bring every instance above it up to date.

        Dirty slots wait in one list per level (``SlotTables.level``), and
        the levels drain in rising order, so a slot is recomputed once, after
        every changed child below it; its stamp in ``queued`` keeps it from
        being queued twice.  A decided slot is never queued, because its
        stamp is DECIDED.  Its parents are queued only if its mask changed.
        """
        var = self.tables.vars.get(var_name)  # its kept slot
        if var is None:
            return  # variable unused by the network
        masks, trail, queued = self.masks, self.trail, self.queued
        if masks[var] != UNKNOWN:
            raise NetworkError("variable %r already assigned" % var_name)
        new = MASK_TRUE if value else MASK_FALSE
        start = len(trail)
        trail.append((var, UNKNOWN))
        masks[var] = new
        queued[var] = DECIDED
        self._credit(var, new, p)
        unknown = self.unknown_bits ^ (1 << var)  # its bit is set: undecided
        target_at = self.target_at
        tables = self.tables
        rules, nodes, children = tables.rules, tables.nodes, tables.children
        parents, level = tables.parents, tables.level
        levels = self.levels
        self.epoch = epoch = self.epoch + 1
        for q in parents[var]:
            if queued[q] < epoch:
                queued[q] = epoch
                levels[level[q]].append(q)
        try:
            for dirty in levels:
                for idx in dirty:  # undecided: nothing decided is queued
                    old = masks[idx]
                    new = rules[idx](self, nodes[idx], children[idx])
                    if new is old:
                        continue
                    if old is UNKNOWN:  # a Boolean slot, now decided
                        queued[idx] = DECIDED
                        unknown ^= 1 << idx
                        if idx in target_at:
                            self._credit(idx, new, p)
                    elif new == old:
                        continue
                    elif not new.may_def or (not new.may_undef and new.lo == new.hi):
                        queued[idx] = DECIDED
                        unknown ^= 1 << idx
                    trail.append((idx, old))
                    masks[idx] = new
                    for q in parents[idx]:
                        if queued[q] < epoch:
                            queued[q] = epoch
                            levels[level[q]].append(q)
        finally:  # a rule that raised leaves slots queued
            for dirty in levels:
                dirty.clear()
            self.unknown_bits = unknown
            self.stats.propagations += len(trail) - start

    def _credit(self, idx, value, p):
        """Move the bounds of the targets at slot ``idx``, now decided."""
        for ti in self.target_at.get(idx, ()):
            if value == MASK_TRUE:
                self.problower[ti] += p
                self.stats.credited[ti] += p
            else:
                self.probupper[ti] -= p
                self.stats.taken[ti] += p

    # --- mask rules ----------------------------------------------------------------
    #
    # One method per node kind, both carry kinds sharing ``_carry``, with
    # sums split by kind, distances by their operands and atoms by
    # comparison (``_rule_of``): ``rule(state, node, kids)`` computes an
    # instance's mask from its argument ``kids`` (``SlotTables.children``).

    # one atom rule per comparison; a side that is certainly undefined makes
    # the comparison true, and it fails only where both sides are defined

    def _le(self, node, kids):
        a, b = self.masks[kids[0]], self.masks[kids[1]]
        if not (a.may_def and b.may_def) or a.hi <= b.lo:
            return MASK_TRUE
        if a.lo > b.hi and not (a.may_undef or b.may_undef):
            return MASK_FALSE
        return UNKNOWN

    def _lt(self, node, kids):
        a, b = self.masks[kids[0]], self.masks[kids[1]]
        if not (a.may_def and b.may_def) or a.hi < b.lo:
            return MASK_TRUE
        if a.lo >= b.hi and not (a.may_undef or b.may_undef):
            return MASK_FALSE
        return UNKNOWN

    def _eq(self, node, kids):
        a, b = self.masks[kids[0]], self.masks[kids[1]]
        if not (a.may_def and b.may_def) or a.lo == a.hi == b.lo == b.hi:
            return MASK_TRUE
        if (a.hi < b.lo or b.hi < a.lo) and not (a.may_undef or b.may_undef):
            return MASK_FALSE
        return UNKNOWN

    def _vector_eq(self, node, kids):
        a, b = self.masks[kids[0]], self.masks[kids[1]]
        if not (a.may_def and b.may_def) or (a.lo == a.hi and b.lo == b.hi
                                             and a.lo == b.lo):
            return MASK_TRUE
        if a.may_undef or b.may_undef:
            return UNKNOWN
        if any(x_hi < y_lo or y_hi < x_lo
               for x_lo, x_hi, y_lo, y_hi in zip(a.lo, a.hi, b.lo, b.hi)):
            return MASK_FALSE
        return UNKNOWN

    def _and(self, node, kids):
        """A conjunction over (child slots, comparisons), each comparison a
        ``(rule, (left, right))`` item of an atom rule.  Its value does not
        depend on the order of its operands, so the child slots are read
        first and the comparisons run only if none of those is false."""
        plain, atoms = kids
        masks = self.masks
        all_true = True
        for c in plain:
            v = masks[c]
            if v == MASK_FALSE:
                return MASK_FALSE
            if v != MASK_TRUE:
                all_true = False
        for n, (rule, args) in enumerate(atoms, 1):
            v = rule(self, node, args)
            if v == MASK_FALSE:
                self.stats.fused += n
                return MASK_FALSE
            if v != MASK_TRUE:
                all_true = False
        if atoms:
            self.stats.fused += len(atoms)
        return MASK_TRUE if all_true else UNKNOWN

    def _or(self, node, kids):
        masks = self.masks
        all_false = True
        for c in kids:
            v = masks[c]
            if v == MASK_TRUE:
                return MASK_TRUE
            if v != MASK_FALSE:
                all_false = False
        return MASK_FALSE if all_false else UNKNOWN

    def _not(self, node, kids):
        c = self.masks[kids[0]]
        if c == UNKNOWN:
            return UNKNOWN
        return MASK_FALSE if c == MASK_TRUE else MASK_TRUE

    def _const(self, node, kids):
        return MASK_TRUE if node.payload else MASK_FALSE

    def _var(self, node, kids):
        # only ``assign`` decides a variable
        return self.masks[self.tables.vars[node.payload]]

    def _carry(self, node, kids):
        return self.masks[kids[0]]

    def _condval(self, node, kids):
        g = self.masks[kids[0]]
        v = node.payload
        if g == MASK_TRUE:
            return NumMask(v, v, False, True)
        if g == MASK_FALSE:
            return NumMask(v, v, True, False)
        return NumMask(v, v, True, True)

    def _guard(self, node, kids):
        g = self.masks[kids[0]]
        c = self.masks[kids[1]]
        if g == MASK_TRUE:
            return c
        may_def = c.may_def and g != MASK_FALSE
        if c.may_undef and may_def == c.may_def:
            return c  # the guard leaves the body's mask as it is
        return NumMask(c.lo, c.hi, True, may_def)

    def _pow(self, node, kids):
        c = self.masks[kids[0]]
        n = node.payload
        if not c.may_def or (n < 0 and c.lo == c.hi == 0.0 and not c.may_undef):
            return UNDEF
        lo, hi = _ipow(c.lo, c.hi, n)
        mu = c.may_undef or (n < 0 and c.lo <= 0.0 <= c.hi)
        return NumMask(lo, hi, mu, True)

    def _dist(self, node, kids):
        a = self.masks[kids[0]]
        b = self.masks[kids[1]]
        if not a.may_def or not b.may_def:
            return UNDEF
        lo, hi = _idist(a.lo, a.hi, b.lo, b.hi)
        return NumMask(lo, hi, a.may_undef or b.may_undef, True)

    def _point_dist(self, node, kids):
        """A distance between two condval points, whose masks keep their
        values: ``kids`` is (slot, slot, sure, unsure), the points' slots and
        the distance's masks when both points are certainly defined and when
        either may be undefined, built once by ``SlotTables`` with the
        interval helper of ``_dist``.  An unchanged distance is the same
        object, which ``assign`` skips without comparing."""
        a, b, sure, unsure = kids
        a, b = self.masks[a], self.masks[b]
        if not a.may_def or not b.may_def:
            return UNDEF
        return unsure if a.may_undef or b.may_undef else sure

    def _scalar_add(self, node, kids):
        """A sum over ``kids = (terms, pairs)``: one (condition, body) slot
        pair per term, in child order, the condition None for a child node
        and a guarded term's condition slot otherwise, and the count of
        guarded terms.  A pair applies ``_guard``'s operations inline: the guard
        keeps its body's interval, may be undefined unless its condition is
        true, and may be defined only if its body may be and its condition
        is not false.  An undefined term adds nothing; one that may be
        undefined adds its interval widened to 0, by adding only a negative
        low end and a positive high end.  A sum starts at +0.0 and so never
        becomes -0.0, and adding +0.0 to any other float leaves it as it is,
        so the mask is the same bits as a sum of ``_guard``'s masks that adds
        ``min(0.0, lo)`` and ``max(0.0, hi)``."""
        terms, pairs = kids
        masks = self.masks
        lo = hi = 0.0
        defined, may_undef = False, True
        for g, b in terms:
            lo_b, hi_b, mu, may_def = masks[b]
            if g is not None:
                g = masks[g]
                if g == MASK_FALSE:
                    continue  # certainly undefined
                if g != MASK_TRUE:
                    mu = True
            if not mu:
                may_undef = False
            if not may_def:
                continue
            if mu:
                if lo_b < 0.0:
                    lo += lo_b
                if hi_b > 0.0:
                    hi += hi_b
            else:
                lo += lo_b
                hi += hi_b
            defined = True
        if pairs:
            self.stats.fused += pairs
        if not defined:
            return UNDEF
        return NumMask(lo, hi, may_undef, True)

    def _vector_add(self, node, kids):
        """The ``_scalar_add`` of vectors, component by component."""
        terms, pairs = kids
        masks = self.masks
        lo = hi = None
        may_undef = True
        for g, b in terms:
            lo_b, hi_b, mu, may_def = masks[b]
            if g is not None:
                g = masks[g]
                if g == MASK_FALSE:
                    continue  # certainly undefined
                if g != MASK_TRUE:
                    mu = True
            if not mu:
                may_undef = False
            if not may_def:
                continue
            if lo is None:
                lo = hi = (0.0,) * len(lo_b)
            if mu:
                lo = [x + y if y < 0.0 else x for x, y in zip(lo, lo_b)]
                hi = [x + y if y > 0.0 else x for x, y in zip(hi, hi_b)]
            else:
                lo = [x + y for x, y in zip(lo, lo_b)]
                hi = [x + y for x, y in zip(hi, hi_b)]
        if pairs:
            self.stats.fused += pairs
        if lo is None:
            return UNDEF
        return NumMask(tuple(lo), tuple(hi), may_undef, True)

    def _mul(self, node, kids):
        masks = [self.masks[c] for c in kids]
        if not all(m.may_def for m in masks):
            return UNDEF
        lo, hi = masks[0].lo, masks[0].hi
        for m in masks[1:]:
            vector, m_vector = isinstance(lo, tuple), isinstance(m.lo, tuple)
            if not vector and not m_vector:
                lo, hi = _imul(lo, hi, m.lo, m.hi)
            elif not vector:
                pairs = [_imul(lo, hi, l2, h2) for l2, h2 in zip(m.lo, m.hi)]
                lo = tuple(p[0] for p in pairs)
                hi = tuple(p[1] for p in pairs)
            elif not m_vector:
                pairs = [_imul(l1, h1, m.lo, m.hi) for l1, h1 in zip(lo, hi)]
                lo = tuple(p[0] for p in pairs)
                hi = tuple(p[1] for p in pairs)
            else:  # dot product
                slo = shi = 0.0
                for l1, h1, l2, h2 in zip(lo, hi, m.lo, m.hi):
                    plo, phi = _imul(l1, h1, l2, h2)
                    slo += plo
                    shi += phi
                lo, hi = slo, shi
        return NumMask(lo, hi, any(m.may_undef for m in masks), True)


# the mask rule of each node kind but a sum, a distance and an atom
# (``_rule_of``); a carry node ("loop") copies a mask of either kind
_RULES = {kind: getattr(MaskState, "_" + kind) for kind in (
    "and", "or", "not", "const", "var", "condval", "guard", "mul", "pow")}
_RULES["loop"] = MaskState._carry
_ATOM_RULES = {"<=": MaskState._le, "<": MaskState._lt, "=": MaskState._eq}


def _rule_of(node, nodes):
    """The mask rule of ``node``'s instances: ``rule(state, node, kids)``.
    A sum's rule is picked by its kind, a distance's by whether both of its
    children are condval points, and an atom's by its comparison."""
    kind = node.kind
    if kind == "add":
        if node.vkind == "v":
            return MaskState._vector_add
        return MaskState._scalar_add
    if kind == "dist":
        if all(nodes[c].kind == "condval" for c in node.children):
            return MaskState._point_dist
        return MaskState._dist
    if kind != "atom":
        return _RULES[kind]
    return _atom_rule(node.payload, nodes[node.children[0]].vkind)


def _atom_rule(op, vkind):
    """The rule of a comparison ``op`` between two values of kind
    ``vkind``, an atom's or a comparison operand's."""
    if vkind == "v":  # vectors compare by '=' only
        return MaskState._vector_eq
    return _ATOM_RULES[op]
