"""Event networks: shared-subexpression DAGs with partial-knowledge masks.

Structurally identical subexpressions of a grounded program are represented
by a single node.  During compilation each node carries a *mask*: a tri-state
truth value for Boolean nodes, and for numeric (c-value) nodes an interval
``[lo, hi]`` over the defined outcomes plus two flags, ``may_undef`` (the
undefined element is still a possible outcome) and ``may_def`` (a defined
value is still possible).  Assigning a random variable propagates masks
bottom-up; every mask write is recorded on an undo trail so the depth-first
search can backtrack in O(changes).

Propagation is levelized.  Each (node, iteration) instance has a flat slot
index: ``t*N + id`` for in-loop nodes and ``id`` for iteration-independent
(base) nodes.  That index is topological, because every edge runs from a
smaller slot to a larger one:

  * node ids run children-before-parents, so ``same`` edges rise;
  * ``bcast`` edges go from a base node to an in-loop parent at any ``t``,
    whose slot is at least its id; ``next`` edges go to ``t+1``;
  * ``zero`` edges go from a base initial declaration to a carry node,
    which is created after it.

An assignment therefore drains dirty instances from a min-heap of slot
indices.  Each instance is recomputed once, after all of its changed
children, and is written at most once per assignment.

Networks come in two modes.  *Unfolded* networks instantiate every loop
iteration as distinct nodes.  *Folded* networks keep one node set for the
loop body plus carry-over nodes that feed iteration ``t`` the masks computed
for iteration ``t-1`` (iteration 0 reads the grounded initial declarations);
masks are then indexed by iteration, so the node count does not grow with
the iteration bound.
"""

from __future__ import annotations

import math
from collections import namedtuple
from heapq import heappop, heappush

from .events import (
    Add, And, Atom, CondVal, Const, Dist, Guard, Inv, Mul, Not, Or, Pow, Ref,
    Var,
)
from .eventprog import Affine, FoldedProgram, GroundedProgram, render_eid

INF = float("inf")


class NetworkError(Exception):
    pass


NumMask = namedtuple("NumMask", "lo hi may_undef may_def")

UNKNOWN, MASK_TRUE, MASK_FALSE = 0, 1, 2


class Node:
    __slots__ = ("id", "kind", "children", "payload", "parents", "in_loop", "vkind")

    def __init__(self, id, kind, children, payload, in_loop, vkind):
        self.id = id
        self.kind = kind
        self.children = children
        self.payload = payload
        self.parents = []  # list of (parent_id, edge_tag)
        self.in_loop = in_loop
        self.vkind = vkind  # 'b' | 's' | 'v'

    def __repr__(self):
        return "Node(%d,%s)" % (self.id, self.kind)


# edge tags (stored on the child, pointing at the parent):
#   'same'  child and parent live in the same iteration (or both outside)
#   'bcast' child is iteration-independent, parent is in-loop: all iterations
#   'next'  child is a loop-carried source, parent is the carry node at t+1
#   'zero'  child is the initial declaration read by the carry node at t=0


class EventNetwork:
    def __init__(self, mode, iterations):
        self.mode = mode
        self.T = iterations  # 1 for unfolded networks
        self.nodes = []
        self._intern = {}
        self.node_of_eid = {}
        self.var_nodes = {}  # var name -> node id
        self.targets = []  # list of (node_id, t, eid)

    # --- construction -----------------------------------------------------

    def _new_node(self, kind, children, payload, in_loop, vkind):
        node = Node(len(self.nodes), kind, children, payload, in_loop, vkind)
        self.nodes.append(node)
        for c in children:
            child = self.nodes[c]
            if in_loop and not child.in_loop:
                tag = "bcast"
            elif not in_loop and child.in_loop:
                raise NetworkError("iteration-independent node depends on loop node")
            else:
                tag = "same"
            child.parents.append((node.id, tag))
        return node.id

    def intern(self, kind, children, payload, in_loop, vkind):
        key = (kind, payload, children, in_loop)
        hit = self._intern.get(key)
        if hit is not None:
            return hit
        nid = self._new_node(kind, children, payload, in_loop, vkind)
        self._intern[key] = nid
        return nid

    def var_node(self, name):
        nid = self.var_nodes.get(name)
        if nid is None:
            nid = self.intern("var", (), name, False, "b")
            self.var_nodes[name] = nid
        return nid

    def node_count(self):
        return len(self.nodes)

    def dump(self):
        """Line-oriented debug dump: ``nodeid kind children...``."""
        out = []
        for n in self.nodes:
            extra = ""
            if n.kind == "var":
                extra = " " + n.payload
            elif n.kind == "const":
                extra = " " + ("true" if n.payload else "false")
            elif n.kind == "atom":
                extra = " " + n.payload
            elif n.kind == "condval":
                extra = " " + repr(n.payload)
            elif n.kind == "pow":
                extra = " " + str(n.payload)
            out.append("%d %s%s %s" % (n.id, n.kind, extra,
                                       " ".join(str(c) for c in n.children)))
        return "\n".join(out) + "\n"


def _combine_mul_kind(a, b):
    if a == "v" and b == "v":
        return "s"
    if "v" in (a, b):
        return "v"
    return "s"


class _Builder:
    def __init__(self, net):
        self.net = net

    def build_expr(self, e, in_loop, resolve_ref):
        kind = type(e)
        net = self.net
        if kind is Const:
            return net.intern("const", (), e.value, False, "b")
        if kind is Var:
            return net.var_node(e.name)
        if kind is Ref:
            return resolve_ref(e)
        if kind is Not:
            c = self.build_expr(e.child, in_loop, resolve_ref)
            return net.intern("not", (c,), None, self._loopy((c,), in_loop), "b")
        if kind in (And, Or):
            cs = tuple(self.build_expr(c, in_loop, resolve_ref) for c in e.children)
            return net.intern("and" if kind is And else "or", cs, None,
                              self._loopy(cs, in_loop), "b")
        if kind is Atom:
            l = self.build_expr(e.left, in_loop, resolve_ref)
            r = self.build_expr(e.right, in_loop, resolve_ref)
            return net.intern("atom", (l, r), e.op, self._loopy((l, r), in_loop), "b")
        if kind is CondVal:
            g = self.build_expr(e.guard, in_loop, resolve_ref)
            value = e.value
            if isinstance(value, Affine):
                if value.is_const():
                    value = value.const
                else:
                    raise NetworkError(
                        "folded mode cannot share a value that depends on the "
                        "loop counter")
            vkind = "v" if isinstance(value, tuple) else "s"
            return net.intern("condval", (g,), value, self._loopy((g,), in_loop), vkind)
        if kind is Guard:
            g = self.build_expr(e.guard, in_loop, resolve_ref)
            b = self.build_expr(e.body, in_loop, resolve_ref)
            return net.intern("guard", (g, b), None, self._loopy((g, b), in_loop),
                              self.net.nodes[b].vkind)
        if kind is Add:
            cs = tuple(self.build_expr(c, in_loop, resolve_ref) for c in e.children)
            if not cs:
                raise NetworkError("empty sum")
            vkind = self.net.nodes[cs[0]].vkind
            return net.intern("add", cs, None, self._loopy(cs, in_loop), vkind)
        if kind is Mul:
            cs = tuple(self.build_expr(c, in_loop, resolve_ref) for c in e.children)
            if not cs:
                raise NetworkError("empty product")
            vkind = "s"
            first = True
            for c in cs:
                ck = self.net.nodes[c].vkind
                vkind = ck if first else _combine_mul_kind(vkind, ck)
                first = False
            return net.intern("mul", cs, None, self._loopy(cs, in_loop), vkind)
        if kind is Inv:
            c = self.build_expr(e.child, in_loop, resolve_ref)
            return net.intern("inv", (c,), None, self._loopy((c,), in_loop), "s")
        if kind is Pow:
            c = self.build_expr(e.child, in_loop, resolve_ref)
            return net.intern("pow", (c,), e.exponent, self._loopy((c,), in_loop), "s")
        if kind is Dist:
            l = self.build_expr(e.left, in_loop, resolve_ref)
            r = self.build_expr(e.right, in_loop, resolve_ref)
            return net.intern("dist", (l, r), None, self._loopy((l, r), in_loop), "s")
        raise NetworkError("expression kind without a network encoding: %r" % (e,))

    def _loopy(self, children, in_loop):
        # A node built inside the loop body is iteration-dependent only when
        # something below it is; otherwise it is shared with the base layer.
        return in_loop and any(self.net.nodes[c].in_loop for c in children)


def _resolve_plain(net):
    def resolve(e):
        nid = net.node_of_eid.get(e.name)
        if nid is None:
            raise NetworkError("reference to unknown identifier %r" % e.name)
        return nid
    return resolve


def build_network(grounded, mode=None):
    """Build an event network from a grounded or folded program."""
    if isinstance(grounded, FoldedProgram):
        if mode not in (None, "folded"):
            raise NetworkError("folded program requires folded mode")
        return _build_folded(grounded)
    if mode not in (None, "unfolded"):
        raise NetworkError("grounded program builds an unfolded network")
    return _build_unfolded(grounded)


def _build_unfolded(grounded: GroundedProgram):
    net = EventNetwork("unfolded", 1)
    b = _Builder(net)
    resolve = _resolve_plain(net)
    for eid, expr in grounded.decls.items():
        net.node_of_eid[eid] = b.build_expr(expr, False, resolve)
    for eid in grounded.targets:
        nid = net.node_of_eid[eid]
        if net.nodes[nid].vkind != "b":
            raise NetworkError("target %r is not an event" % eid)
        net.targets.append((nid, 0, eid))
    return net


def _build_folded(folded: FoldedProgram):
    net = EventNetwork("folded", folded.count)
    b = _Builder(net)
    counter = folded.counter

    resolve_base = _resolve_plain(net)
    for eid, expr in folded.base.items():
        net.node_of_eid[eid] = b.build_expr(expr, False, resolve_base)

    # Index the body families for same-iteration and carried references.
    same_map = {}
    prev_map = {}
    for pos, (name, indices, _expr) in enumerate(folded.body):
        same_map[(name, indices)] = pos
        shifted = tuple(ix.shift(counter, -1) for ix in indices)
        prev_map[(name, shifted)] = pos

    body_nodes = [None] * len(folded.body)
    carry = {}  # family position -> loop node id

    def make_carry(pos, ref_indices):
        nid = carry.get(pos)
        if nid is not None:
            return nid
        init_eid = render_eid(folded.body[pos][0],
                              [ix.eval({counter: 0}) for ix in ref_indices])
        init_id = net.node_of_eid.get(init_eid)
        if init_id is None:
            raise NetworkError(
                "carried reference needs initial declaration %r" % init_eid)
        init_node = net.nodes[init_id]
        nid = net._new_node("loop", (), {"source": None, "init": init_id},
                            True, init_node.vkind)
        init_node.parents.append((nid, "zero"))
        carry[pos] = nid
        return nid

    def resolve_body(e):
        if not e.indices:
            nid = net.node_of_eid.get(e.name)
            if nid is None:
                return net.var_node(e.name)
            return nid
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
        raise NetworkError(
            "folded mode supports references to the same or previous "
            "iteration only: %s[%s]" % (e.name, ",".join(str(i) for i in e.indices)))

    for pos, (_name, _indices, expr) in enumerate(folded.body):
        body_nodes[pos] = b.build_expr(expr, True, resolve_body)

    for pos, nid in carry.items():
        src = body_nodes[pos]
        net.nodes[nid].payload["source"] = src
        net.nodes[src].parents.append((nid, "next"))

    for pos in folded.targets:
        nid = body_nodes[pos]
        if net.nodes[nid].vkind != "b":
            raise NetworkError("target is not an event")
        eid = folded.body_eid(folded.body[pos], folded.count - 1)
        net.targets.append((nid, folded.count - 1, eid))
    return net


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


def _iinv(lo, hi):
    if lo > 0 or hi < 0:
        return (1.0 / hi if hi != 0 else -INF), (1.0 / lo if lo != 0 else INF)
    if lo == 0 and hi > 0:
        return 1.0 / hi, INF
    if hi == 0 and lo < 0:
        return -INF, 1.0 / lo
    return -INF, INF


def _ipow(lo, hi, n):
    if n == 0:
        return 1.0, 1.0
    if n < 0:
        lo, hi = _iinv(lo, hi)
        n = -n
    if n % 2 == 1:
        return lo ** n, hi ** n
    a, b = abs(lo), abs(hi)
    high = max(a, b) ** n
    low = 0.0 if lo <= 0 <= hi else min(a, b) ** n
    return low, high


def _zero_like(lo):
    if isinstance(lo, tuple):
        return (0.0,) * len(lo)
    return 0.0


# ---------------------------------------------------------------------------
# Mask state
# ---------------------------------------------------------------------------


class Stats:
    __slots__ = ("branches", "leaves", "pruned", "propagations", "jobs", "replays")

    def __init__(self):
        self.branches = 0
        self.leaves = 0
        self.pruned = 0
        self.propagations = 0
        self.jobs = 0
        self.replays = 0

    def as_dict(self):
        return {
            "branches": self.branches,
            "leaves": self.leaves,
            "pruned": self.pruned,
            "propagations": self.propagations,
            "jobs": self.jobs,
            "replays": self.replays,
        }

    def report(self):
        return " ".join("%s=%d" % (k, v) for k, v in self.as_dict().items())


class MaskState:
    """Per-compilation mutable state: masks, undo trail, target bounds."""

    def __init__(self, net: EventNetwork, stats=None):
        self.net = net
        self.N = len(net.nodes)
        self.T = net.T
        size = self.N * self.T
        self.bmask = [UNKNOWN] * size
        self.nmask = [None] * size
        self.trail = []
        self.stats = stats or Stats()
        self.problower = [0.0] * len(net.targets)
        self.probupper = [1.0] * len(net.targets)
        self.unknown_bits = 0
        self.target_at = {}
        for i, (nid, t, _eid) in enumerate(net.targets):
            self.target_at.setdefault(self._idx(nid, t), []).append(i)
        self._init_masks()
        for nid, node in enumerate(net.nodes):
            for t in range(self.T if node.in_loop else 1):
                self._sync_bit(t * self.N + nid)

    # --- indexing -----------------------------------------------------------

    def _idx(self, nid, t):
        if self.net.nodes[nid].in_loop:
            return t * self.N + nid
        return nid

    def _bool_of(self, nid, t):
        return self.bmask[self._idx(nid, t)]

    def _num_of(self, nid, t):
        return self.nmask[self._idx(nid, t)]

    def target_mask(self, i):
        nid, t, _ = self.net.targets[i]
        return self._bool_of(nid, t)

    # --- initialisation ------------------------------------------------------

    def _init_masks(self):
        # node ids are topological (children precede parents; carried loop
        # references only look at earlier iterations), so a single bottom-up
        # computation per instance reaches the initial fixpoint without any
        # parent cascades
        for nid, node in enumerate(self.net.nodes):
            if not node.in_loop:
                self._init_one(node, nid, 0)
        for t in range(self.T):
            for nid, node in enumerate(self.net.nodes):
                if node.in_loop:
                    self._init_one(node, nid, t)

    def _init_one(self, node, nid, t):
        idx = self._idx(nid, t)
        if node.vkind == "b":
            new = self._compute_bool(node, t)
            if new != UNKNOWN:
                self._write_bool(idx, new, nid, t, 1.0)
        else:
            self._write_num(idx, self._compute_num(node, t), 1.0)

    # --- trail ----------------------------------------------------------------

    def checkpoint(self):
        return len(self.trail)

    def revert(self, mark):
        while len(self.trail) > mark:
            is_bool, idx, old = self.trail.pop()
            if is_bool:
                self.bmask[idx] = old
            else:
                self.nmask[idx] = old
            self._sync_bit(idx)

    def save_masks(self):
        """Copies of the masks, for a job that resumes from this point."""
        return list(self.bmask), list(self.nmask), self.unknown_bits

    def load_masks(self, saved):
        """Resume from what ``save_masks`` returned, with an empty trail."""
        bmask, nmask, self.unknown_bits = saved
        self.bmask[:] = bmask
        self.nmask[:] = nmask
        self.trail.clear()

    def _sync_bit(self, idx):
        nid = idx % self.N
        node = self.net.nodes[nid]
        if node.vkind == "b":
            unknown = self.bmask[idx] == UNKNOWN
        else:
            nm = self.nmask[idx]
            unknown = not (nm is not None and
                           ((not nm.may_def) or (not nm.may_undef and nm.lo == nm.hi)))
        bit = 1 << idx
        if unknown:
            self.unknown_bits |= bit
        else:
            self.unknown_bits &= ~bit

    # --- assignment & propagation ----------------------------------------------

    def assign(self, var_name, value, p):
        """Assign a variable, then bring every instance above it up to date.

        Dirty instances are drained from a min-heap keyed by slot index.  The
        slot index is topological (see the module docstring), so an instance
        is popped only after every changed child below it, and is recomputed
        once per assignment.  Its parents are queued only if its mask changed.
        """
        nid = self.net.var_nodes.get(var_name)
        if nid is None:
            return  # variable unused by the network
        if self.bmask[nid] != UNKNOWN:
            raise NetworkError("variable %r already assigned" % var_name)
        self._write_bool(nid, MASK_TRUE if value else MASK_FALSE, nid, 0, p)
        nodes, N, bmask, nmask = self.net.nodes, self.N, self.bmask, self.nmask
        heap = []
        self._enqueue_parents(heap, nodes[nid], 0)
        last = -1
        while heap:
            idx = heappop(heap)
            if idx == last:
                continue  # queued by more than one changed child
            last = idx
            t, nid = divmod(idx, N)
            node = nodes[nid]
            if node.vkind == "b":
                if bmask[idx] != UNKNOWN:
                    continue
                new = self._compute_bool(node, t)
                if new == UNKNOWN:
                    continue
                self._write_bool(idx, new, nid, t, p)
            else:
                old = nmask[idx]
                if old is not None and ((not old.may_def) or
                                        (not old.may_undef and old.lo == old.hi)):
                    continue
                new = self._compute_num(node, t)
                if new == old:
                    continue
                self._write_num(idx, new, p)
            self._enqueue_parents(heap, node, t)

    def _enqueue_parents(self, heap, node, t):
        N = self.N
        for pid, tag in node.parents:
            if tag == "bcast":
                for pt in range(self.T):
                    heappush(heap, pt * N + pid)
            elif tag == "next":
                if t + 1 < self.T:
                    heappush(heap, (t + 1) * N + pid)
            else:  # 'same' or 'zero': same t, which is 0 below a base node
                heappush(heap, t * N + pid)

    def _write_bool(self, idx, value, nid, t, p):
        old = self.bmask[idx]
        self.trail.append((True, idx, old))
        self.bmask[idx] = value
        self.unknown_bits &= ~(1 << idx)
        self.stats.propagations += 1
        if value != UNKNOWN:
            for ti in self.target_at.get(idx, ()):
                if value == MASK_TRUE:
                    self.problower[ti] += p
                else:
                    self.probupper[ti] -= p

    def _write_num(self, idx, value, p):
        old = self.nmask[idx]
        self.trail.append((False, idx, old))
        self.nmask[idx] = value
        self._sync_bit(idx)
        self.stats.propagations += 1

    # --- mask computation --------------------------------------------------------

    def _compute_bool(self, node, t):
        kind = node.kind
        if kind == "var":
            return self.bmask[self._idx(node.id, 0)]
        if kind == "const":
            return MASK_TRUE if node.payload else MASK_FALSE
        if kind == "not":
            c = self._bool_of(node.children[0], t)
            if c == UNKNOWN:
                return UNKNOWN
            return MASK_FALSE if c == MASK_TRUE else MASK_TRUE
        if kind == "and":
            all_true = True
            for c in node.children:
                v = self._bool_of(c, t)
                if v == MASK_FALSE:
                    return MASK_FALSE
                if v != MASK_TRUE:
                    all_true = False
            return MASK_TRUE if all_true else UNKNOWN
        if kind == "or":
            all_false = True
            for c in node.children:
                v = self._bool_of(c, t)
                if v == MASK_TRUE:
                    return MASK_TRUE
                if v != MASK_FALSE:
                    all_false = False
            return MASK_FALSE if all_false else UNKNOWN
        if kind == "atom":
            return self._compute_atom(node, t)
        if kind == "loop":
            if t == 0:
                return self._bool_of(node.payload["init"], 0)
            src = node.payload["source"]
            return self._bool_of(src, t - 1)
        raise NetworkError("boolean mask for %r" % kind)

    def _compute_atom(self, node, t):
        a = self._num_of(node.children[0], t)
        b = self._num_of(node.children[1], t)
        if a is None or b is None:
            return UNKNOWN
        # a side that is certainly undefined makes the comparison true
        if not a.may_def or not b.may_def:
            return MASK_TRUE
        op = node.payload
        if isinstance(a.lo, tuple) or isinstance(b.lo, tuple):
            if a.lo == a.hi and b.lo == b.hi and a.lo == b.lo:
                return MASK_TRUE
            disjoint = any(x_hi < y_lo or y_hi < x_lo
                           for x_lo, x_hi, y_lo, y_hi in
                           zip(a.lo, a.hi, b.lo, b.hi))
            if disjoint and not a.may_undef and not b.may_undef:
                return MASK_FALSE
            return UNKNOWN
        if op == "<=":
            holds, fails = a.hi <= b.lo, a.lo > b.hi
        elif op == "<":
            holds, fails = a.hi < b.lo, a.lo >= b.hi
        elif op == ">=":
            holds, fails = a.lo >= b.hi, a.hi < b.lo
        elif op == ">":
            holds, fails = a.lo > b.hi, a.hi <= b.lo
        else:  # '='
            holds = a.lo == a.hi == b.lo == b.hi
            fails = a.hi < b.lo or b.hi < a.lo
        if holds:
            return MASK_TRUE
        if fails and not a.may_undef and not b.may_undef:
            return MASK_FALSE
        return UNKNOWN

    def _compute_num(self, node, t):
        kind = node.kind
        if kind == "condval":
            g = self._bool_of(node.children[0], t)
            v = node.payload
            lo = hi = tuple(float(x) for x in v) if isinstance(v, tuple) else float(v)
            if g == MASK_TRUE:
                return NumMask(lo, hi, False, True)
            if g == MASK_FALSE:
                return NumMask(lo, hi, True, False)
            return NumMask(lo, hi, True, True)
        if kind == "guard":
            g = self._bool_of(node.children[0], t)
            c = self._num_of(node.children[1], t)
            if c is None:
                c = self._bottom(node.children[1])
            if g == MASK_TRUE:
                return c
            if g == MASK_FALSE:
                return NumMask(c.lo, c.hi, True, False)
            return NumMask(c.lo, c.hi, True, c.may_def)
        if kind == "add":
            return self._compute_add(node, t)
        if kind == "mul":
            return self._compute_mul(node, t)
        if kind == "inv":
            c = self._child_num(node.children[0], t)
            if not c.may_def:
                return NumMask(0.0, 0.0, True, False)
            contains0 = c.lo <= 0.0 <= c.hi
            if c.lo == c.hi == 0.0 and not c.may_undef:
                return NumMask(0.0, 0.0, True, False)
            lo, hi = _iinv(c.lo, c.hi)
            return NumMask(lo, hi, c.may_undef or contains0, True)
        if kind == "pow":
            c = self._child_num(node.children[0], t)
            n = node.payload
            if not c.may_def:
                return NumMask(0.0, 0.0, True, False)
            lo, hi = _ipow(c.lo, c.hi, n)
            mu = c.may_undef or (n < 0 and c.lo <= 0.0 <= c.hi)
            return NumMask(lo, hi, mu, True)
        if kind == "dist":
            a = self._child_num(node.children[0], t)
            b = self._child_num(node.children[1], t)
            if not a.may_def or not b.may_def:
                return NumMask(0.0, 0.0, True, False)
            sq_lo = sq_hi = 0.0
            for alo, ahi, blo, bhi in zip(a.lo, a.hi, b.lo, b.hi):
                dlo, dhi = alo - bhi, ahi - blo
                if dlo <= 0.0 <= dhi:
                    abs_lo, abs_hi = 0.0, max(-dlo, dhi)
                else:
                    abs_lo = min(abs(dlo), abs(dhi))
                    abs_hi = max(abs(dlo), abs(dhi))
                sq_lo += abs_lo * abs_lo
                sq_hi += abs_hi * abs_hi
            return NumMask(math.sqrt(sq_lo), math.sqrt(sq_hi),
                           a.may_undef or b.may_undef, True)
        if kind == "loop":
            if t == 0:
                m = self._num_of(node.payload["init"], 0)
            else:
                m = self._num_of(node.payload["source"], t - 1)
            return m if m is not None else self._bottom(node.id)
        raise NetworkError("numeric mask for %r" % kind)

    def _bottom(self, nid):
        node = self.net.nodes[nid]
        if node.vkind == "v":
            dim = self._vector_dim(nid)
            return NumMask((-INF,) * dim, (INF,) * dim, True, True)
        return NumMask(-INF, INF, True, True)

    def _vector_dim(self, nid):
        node = self.net.nodes[nid]
        if node.kind == "condval" and isinstance(node.payload, tuple):
            return len(node.payload)
        for c in node.children:
            if self.net.nodes[c].vkind == "v":
                return self._vector_dim(c)
        if node.kind == "loop":
            return self._vector_dim(node.payload["init"])
        raise NetworkError("cannot infer vector dimension")

    def _child_num(self, nid, t):
        m = self._num_of(nid, t)
        return m if m is not None else self._bottom(nid)

    def _compute_add(self, node, t):
        vector = node.vkind == "v"
        masks = [self._child_num(c, t) for c in node.children]
        may_def = any(m.may_def for m in masks)
        may_undef = all(m.may_undef for m in masks)
        if vector:
            dim = len(self._vec_shape(masks))
            lo = [0.0] * dim
            hi = [0.0] * dim
            for m in masks:
                if not m.may_def:
                    continue
                mlo = m.lo if isinstance(m.lo, tuple) else (m.lo,) * dim
                mhi = m.hi if isinstance(m.hi, tuple) else (m.hi,) * dim
                for i in range(dim):
                    if m.may_undef:
                        lo[i] += min(0.0, mlo[i])
                        hi[i] += max(0.0, mhi[i])
                    else:
                        lo[i] += mlo[i]
                        hi[i] += mhi[i]
            return NumMask(tuple(lo), tuple(hi), may_undef, may_def)
        lo = hi = 0.0
        for m in masks:
            if not m.may_def:
                continue
            if m.may_undef:
                lo += min(0.0, m.lo)
                hi += max(0.0, m.hi)
            else:
                lo += m.lo
                hi += m.hi
        return NumMask(lo, hi, may_undef, may_def)

    def _vec_shape(self, masks):
        for m in masks:
            if isinstance(m.lo, tuple):
                return m.lo
        raise NetworkError("vector sum without vector children")

    def _compute_mul(self, node, t):
        masks = [self._child_num(c, t) for c in node.children]
        may_def = all(m.may_def for m in masks)
        may_undef = any(m.may_undef for m in masks)
        if not may_def:
            first = masks[0]
            return NumMask(_zero_like(first.lo), _zero_like(first.lo), True, False)
        kinds = [self.net.nodes[c].vkind for c in node.children]
        lo, hi, k = masks[0].lo, masks[0].hi, kinds[0]
        for m, ck in zip(masks[1:], kinds[1:]):
            if k == "s" and ck == "s":
                lo, hi = _imul(lo, hi, m.lo, m.hi)
            elif k == "s" and ck == "v":
                pairs = [_imul(lo, hi, l2, h2) for l2, h2 in zip(m.lo, m.hi)]
                lo = tuple(p[0] for p in pairs)
                hi = tuple(p[1] for p in pairs)
                k = "v"
            elif k == "v" and ck == "s":
                pairs = [_imul(l1, h1, m.lo, m.hi) for l1, h1 in zip(lo, hi)]
                lo = tuple(p[0] for p in pairs)
                hi = tuple(p[1] for p in pairs)
            else:  # dot product
                slo = shi = 0.0
                for l1, h1, l2, h2 in zip(lo, hi, m.lo, m.hi):
                    plo, phi = _imul(l1, h1, l2, h2)
                    slo += plo
                    shi += phi
                lo, hi, k = slo, shi, "s"
        if node.vkind == "v" and not isinstance(lo, tuple):
            raise NetworkError("product kind mismatch")
        return NumMask(lo, hi, may_undef, may_def)

    # --- folded convergence ----------------------------------------------------

    def masks_equal_at(self, t1, t2):
        """True when every in-loop node carries the same mask at t1 and t2."""
        for nid, node in enumerate(self.net.nodes):
            if not node.in_loop:
                continue
            i1, i2 = t1 * self.N + nid, t2 * self.N + nid
            if node.vkind == "b":
                if self.bmask[i1] != self.bmask[i2]:
                    return False
            elif self.nmask[i1] != self.nmask[i2]:
                return False
        return True
