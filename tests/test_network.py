import dataclasses
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from manyworlds.datagen import gen_correlations
from manyworlds.events import (
    U, VU, Add, And, Atom, CondVal, Const, Dist, Guard, Mul, Not, Or, Pow,
    Declarations, Ref, TypeMismatch, Var, VarTable, TRUE, map_children,
)
from manyworlds.eventprog import (
    Affine, Decl, EventProgram, FoldedProgram, GroundError, GroundedProgram,
    Loop, _instances, as_affine, decl, ground, ground_folded,
    parse_event_program, render_eid,
)
from manyworlds import network
from manyworlds.compile import Search, compile_targets, finish_result
from manyworlds.kmedoids import build_kmedoids_program, example_line_dataset
from manyworlds.network import (
    MASK_FALSE, MASK_TRUE, UNKNOWN, MaskState, NetworkError, build_network,
)
from manyworlds.oracle import oracle_probabilities
from manyworlds.randprog import random_instance
from manyworlds.translate import translate_to_event_program
from manyworlds.userlang import parse_user_program


def test_shared_subexpression_single_node():
    p = EventProgram((
        decl("A", (), And((Var("x1"), Var("x2")))),
        decl("B", (), Or((And((Var("x1"), Var("x2"))), Var("x3")))),
    ))
    g = ground(p, ("A", "B"))
    net = build_network(g)
    and_nodes = [n for n in net.nodes if n.kind == "and"]
    assert len(and_nodes) == 1
    # the Or node; targets share the node
    assert len(net.slot_tables().parents[and_nodes[0].id]) == 1


def test_fragment_masking_under_partial_assignment():
    # phi0 = x0 | x2, phi1 = x1, phi3 = !x1 & x3; assign x0, x1 true
    p = EventProgram((
        decl("Phi0", (), Or((Var("x0"), Var("x2")))),
        decl("Phi1", (), Var("x1")),
        decl("Phi2", (), Var("x2")),
        decl("Phi3", (), And((Not(Var("x1")), Var("x3")))),
    ))
    g = ground(p, ("Phi*",))
    net = build_network(g)
    st_ = MaskState(net)
    st_.assign("x0", True, 1.0)
    st_.assign("x1", True, 1.0)
    assert st_.mask_of(net.node_of_eid["Phi0"], 0) == MASK_TRUE
    assert st_.mask_of(net.node_of_eid["Phi1"], 0) == MASK_TRUE
    assert st_.mask_of(net.node_of_eid["Phi3"], 0) == MASK_FALSE
    assert st_.mask_of(net.node_of_eid["Phi2"], 0) == UNKNOWN


def test_conjunction_false_on_any_false_child():
    p = EventProgram((decl("A", (), And((Var("x"), Var("y")))),))
    g = ground(p, ("A",))
    net = build_network(g)
    st_ = MaskState(net)
    st_.assign("x", False, 1.0)
    assert st_.mask_of(net.node_of_eid["A"], 0) == MASK_FALSE


def test_guarded_sum_interval_tightening():
    p = EventProgram((
        decl("S", (), Add((CondVal(Var("a"), 2.0), CondVal(Var("b"), 3.0)))),
        decl("T", (), Atom("<=", Ref("S"), CondVal(TRUE, 4.0))),
    ))
    g = ground(p, ("T",))
    net = build_network(g)
    st_ = MaskState(net)
    nid = net.node_of_eid["S"]
    nm = st_.mask_of(nid, 0)
    assert (nm.lo, nm.hi) == (0.0, 5.0)
    st_.assign("a", True, 1.0)
    nm = st_.mask_of(nid, 0)
    assert (nm.lo, nm.hi) == (2.0, 5.0)
    st_.assign("b", False, 1.0)
    nm = st_.mask_of(nid, 0)
    assert (nm.lo, nm.hi) == (2.0, 2.0)
    assert not nm.may_undef and nm.may_def


def test_undo_trail_restores_exact_state():
    prog, vt, targets = random_instance(11, max_vars=8)
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    st_ = MaskState(net)
    before = list(st_.masks)
    before_bits = st_.unknown_bits
    mark = st_.checkpoint()
    for name in vt.names()[:4]:
        st_.assign(name, True, 0.5)
    st_.revert(mark)
    assert st_.masks == before
    assert st_.unknown_bits == before_bits


def _assign_all(st_, vt, world):
    names = vt.names()
    for j, name in enumerate(names):
        st_.assign(name, bool((world >> j) & 1), 1.0)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 300))
def test_mask_soundness_under_partial_assignments(seed):
    """Masked Boolean values agree with every completion of the branch."""
    rng = random.Random(seed)
    prog, vt, targets = random_instance(seed, max_vars=6)
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    st_ = MaskState(net)
    names = vt.names()
    chosen = rng.sample(names, rng.randint(0, len(names)))
    partial = {n: rng.random() < 0.5 for n in chosen}
    for n, v in partial.items():
        st_.assign(n, v, 1.0)
    decls = Declarations(g.decls)
    free = [n for n in names if n not in partial]
    for w in range(1 << len(free)):
        nu = dict(partial)
        nu.update({n: bool((w >> j) & 1) for j, n in enumerate(free)})
        values = decls.values(nu)
        for eid, nid in net.node_of_eid.items():
            node = net.nodes[nid]
            if node.vkind == "b":
                m = st_.mask_of(nid, 0)
                if m != UNKNOWN:
                    assert (m == MASK_TRUE) == values[eid], (eid, nu)
            else:
                nm = st_.mask_of(nid, 0)
                v = values[eid]
                if v is U or v is VU:
                    assert nm.may_undef, (eid, nu)
                else:
                    assert nm.may_def, (eid, nu)
                    if isinstance(v, tuple):
                        for x, l2, h2 in zip(v, nm.lo, nm.hi):
                            assert l2 - 1e-9 <= x <= h2 + 1e-9, (eid, nu)
                    else:
                        assert nm.lo - 1e-9 <= v <= nm.hi + 1e-9, (eid, nu)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 200))
def test_bound_monotonicity_within_branch(seed):
    rng = random.Random(seed)
    prog, vt, targets = random_instance(seed, max_vars=8)
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    st_ = MaskState(net)
    names = list(vt.names())
    rng.shuffle(names)
    prev = {}
    numeric = [(eid, nid) for eid, nid in net.node_of_eid.items()
               if net.nodes[nid].vkind != "b"]
    for eid, nid in numeric:
        prev[eid] = st_.mask_of(nid, 0)
    for name in names:
        st_.assign(name, rng.random() < 0.5, 1.0)
        for eid, nid in numeric:
            nm = st_.mask_of(nid, 0)
            old = prev[eid]
            if isinstance(nm.lo, tuple):
                assert all(a >= b - 1e-12 for a, b in zip(nm.lo, old.lo))
                assert all(a <= b + 1e-12 for a, b in zip(nm.hi, old.hi))
            else:
                assert nm.lo >= old.lo - 1e-12
                assert nm.hi <= old.hi + 1e-12
            # flags only ever move towards certainty
            assert nm.may_undef <= old.may_undef
            assert nm.may_def <= old.may_def
            prev[eid] = nm


def test_mask_of_a_named_guard():
    # E3 and E4 are guards read only by E6 = E3 + E4: each is declared on
    # its own, so each is a node with a kept slot, a term of E6 without a
    # condition, and ``mask_of`` reads its mask
    prog, vt, targets = random_instance(42, max_vars=8)
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    guards = [net.node_of_eid[eid] for eid in ("E3", "E4")]
    assert all(net.nodes[nid].kind == "guard" for nid in guards)
    assert all(net.slot_tables().index[nid] == nid for nid in guards)
    assert net.nodes[net.node_of_eid["E6"]].payload == tuple(
        (None, nid) for nid in guards)
    names, rng = vt.names(), random.Random(42)
    for _ in range(6):
        st_ = MaskState(net)
        partial = {n: rng.random() < 0.5
                   for n in rng.sample(names, rng.randint(0, len(names)))}
        for n, v in partial.items():
            st_.assign(n, v, 1.0)
        assert all(type(st_.mask_of(nid, 0)) is network.NumMask
                   for nid in guards)
        _check_masks_against_worlds(net, st_, g, names, partial)


def test_folded_node_count_constant_and_unfolded_grows(line_dataset):
    counts = []
    for T in (1, 2, 3):
        line_dataset.params.iterations = T
        prog, meta = build_kmedoids_program(line_dataset)
        vs = set(line_dataset.vartable.index)
        net_u = build_network(ground(prog, (meta["targets"],), vs))
        net_f = build_network(ground_folded(prog, (meta["targets"],), vs))
        counts.append((len(net_u.nodes), len(net_f.nodes)))
    assert counts[0][1] == counts[1][1] == counts[2][1]
    assert counts[0][0] < counts[1][0] < counts[2][0]


def test_loop_value_depending_on_counter_unsupported():
    text = """
B[-1] := (true ? 0)
forall it in 0..3:
  B[it] := B[it-1] + (true ? it)
"""
    fp = ground_folded(parse_event_program(text), ("B[2]",), variables=set())
    with pytest.raises(NetworkError, match="loop counter"):
        build_network(fp)


def test_loop_value_of_an_inner_counter_is_a_constant():
    # an inner counter is bound in each grounded body declaration, so its
    # value is a constant there, and the folded route equals the unfolded
    program = parse_event_program(
        "A[-1] := (x0 ? 0.5)\n"
        "forall it in 0..3:\n"
        "  forall i in 0..2:\n"
        "    C[i,it] := (x1 ? i) + A[it-1]\n"
        "  A[it] := C[0,it] + C[1,it]\n"
        "  B[it] := [ A[it] <= (x2 ? 4.0) ]\n")
    variables = {"x0", "x1", "x2"}
    vt = VarTable.of(("x0", 0.3), ("x1", 0.6), ("x2", 0.5))
    folded = ground_folded(program, ("B[2]",), variables)
    assert [d.expr.children[0].value for d in folded.body[:2]] == [0, 1]
    unfolded = ground(program, ("B[2]",), variables)
    bounds = [compile_targets(build_network(g), vt, 0.0, "exact").bounds("B[2]")
              for g in (folded, unfolded)]
    assert bounds[0] == bounds[1]
    expected = oracle_probabilities(unfolded, vt).probabilities["B[2]"]
    assert max(abs(b - expected) for b in bounds[0]) < 1e-12


def test_network_dump_lines():
    p = EventProgram((decl("A", (), And((Var("x"), Var("y")))),))
    net = build_network(ground(p, ("A",)))
    dump = net.dump()
    lines = dump.strip().splitlines()
    assert len(lines) == len(net.nodes)
    assert lines[0].split()[0] == "0"
    kinds = {ln.split()[1] for ln in lines}
    assert {"var", "and"} <= kinds


def test_network_dump_shows_operands():
    # a conjunction's comparison reads [left<=right], a sum's guarded term
    # (condition?body); a mirrored comparison is dumped as it is built
    text = ("S := (x ? 1.0) + (y ? (z ? 2.0))\n"
            "T := x & [ S > (true ? 0.5) ]\n")
    net = build_network(ground(parse_event_program(text), ("T",),
                               {"x", "y", "z"}))
    assert net.dump() == (
        "0 var x\n"
        "1 condval 1.0 0\n"
        "2 var y\n"
        "3 var z\n"
        "4 condval 2.0 3\n"
        "5 add 1 (2?4)\n"
        "6 const true\n"
        "7 condval 0.5 6\n"
        "8 and 0 [7<5]\n")


def test_network_dump_shows_what_a_carry_reads():
    net = _base_source_network()
    lines = net.dump().splitlines()
    carry = next(n for n in net.nodes if n.kind == "loop")
    assert lines[carry.id] == "%d loop init=%d source=%d" % (
        carry.id, carry.payload["init"], carry.payload["source"])
    assert lines[carry.payload["init"]].split()[1:] == ["var", "y"]
    assert lines[carry.payload["source"]].split()[1:] == ["var", "x"]
    assert lines[-1] == "%d and %d %d" % (
        net.nodes[-1].id, carry.id, net.var_nodes["z"])


def test_target_must_be_event(line_dataset):
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, ("M[0,-1]",), variables=set(line_dataset.vartable.index))
    with pytest.raises(NetworkError, match="not an event"):
        build_network(g)


@pytest.mark.parametrize("folded", [False, True])
def test_each_instance_written_at_most_once_per_assign(line_dataset, folded):
    line_dataset.params.iterations = 3
    prog, meta = build_kmedoids_program(line_dataset)
    vs = set(line_dataset.vartable.index)
    g = (ground_folded if folded else ground)(prog, (meta["targets"],), vs)
    net = build_network(g)
    st_ = MaskState(net)
    plain_assign = st_.assign
    most = []

    def counted_assign(name, value, p):
        mark = len(st_.trail)
        plain_assign(name, value, p)
        writes = Counter(idx for idx, _old in st_.trail[mark:])
        most.append(max(writes.values(), default=0))

    st_.assign = counted_assign
    search = Search(net, line_dataset.vartable, 0.0, "exact", state=st_)
    search.preassign_certain()
    search.run()
    assert len(most) > 10  # the whole exact search went through the check
    assert max(most) == 1


def _decided_mask(m):
    return m != UNKNOWN if type(m) is int else not (
        m.may_def and (m.may_undef or m.lo != m.hi))


def _undecided_bits(st_):
    """The undecided bits of the kept instances, recomputed from the masks;
    a fused instance has no kept slot, so no mask and no bit."""
    net, bits, index = st_.net, 0, st_.tables.index
    for nid, node in enumerate(net.nodes):
        for t in range(net.T if node.in_loop else 1):
            idx = index.get(net.slot(nid, t))
            if idx is not None:
                bits |= (not _decided_mask(st_.masks[idx])) << idx
    return bits


def _checked_exact_search(net, vt):
    st_ = MaskState(net)
    assert st_.unknown_bits == _undecided_bits(st_)
    plain_assign, plain_revert = st_.assign, st_.revert
    checks = []

    def assign(*args):
        plain_assign(*args)
        checks.append(st_.unknown_bits == _undecided_bits(st_))

    def revert(mark):
        plain_revert(mark)
        checks.append(st_.unknown_bits == _undecided_bits(st_))

    st_.assign, st_.revert = assign, revert
    search = Search(net, vt, 0.0, "exact", state=st_)
    search.preassign_certain()
    search.run()
    return checks


def test_unknown_bits_track_masks_through_search():
    checks = []
    for seed in range(8):
        prog, vt, targets = random_instance(seed, max_vars=6)
        net = build_network(ground(prog, targets, variables=set(vt.index)))
        checks += _checked_exact_search(net, vt)
    assert len(checks) > 20 and all(checks)


@pytest.mark.parametrize("seed", range(3))
def test_unknown_bits_track_masks_through_folded_search(line_dataset, seed):
    rng = random.Random(seed)
    line_dataset.params.iterations = 3
    prog, meta = build_kmedoids_program(line_dataset)
    vt = line_dataset.vartable
    vt = type(vt)(tuple((name, round(rng.uniform(0.2, 0.8), 3))
                        for name, _p in vt.vars))
    net = build_network(ground_folded(prog, (meta["targets"],), set(vt.index)))
    assert net.T == 3
    checks = _checked_exact_search(net, vt)
    assert len(checks) > 10 and all(checks)


def _line_networks(line_dataset):
    line_dataset.params.iterations = 3
    prog, meta = build_kmedoids_program(line_dataset)
    vs = set(line_dataset.vartable.index)
    return [build_network(g(prog, (meta["targets"],), vs))
            for g in (ground, ground_folded)]


def _random_networks(seeds):
    out = []
    for seed in seeds:
        prog, vt, targets = random_instance(seed, max_vars=6)
        out.append(build_network(ground(prog, targets, variables=set(vt.index))))
    return out


# a carried reference to a body family that does not depend on the loop:
# its source is a base node, which every iteration after 0 reads
_BASE_SOURCE_PROGRAM = """
A[-1] := y
forall it in 0..3:
  A[it] := x
  B[it] := A[it-1] & z
"""


def _base_source_network():
    fp = ground_folded(parse_event_program(_BASE_SOURCE_PROGRAM), ("B[2]",),
                       variables={"x", "y", "z"})
    return build_network(fp)


def _reads(tables, slot):
    """The slots whose masks the rule of ``slot`` reads, from its argument:
    a sum's is (terms, guarded count), each term a (condition or None,
    body) pair, a conjunction's is (child slots, comparisons), and a
    distance's starts with its two operands' slots (a point distance's goes
    on with its two masks)."""
    node, kids = tables.nodes[slot], tables.children[slot]
    if node.kind == "add":
        return {c for term in kids[0] for c in term if c is not None}
    if node.kind == "and":
        plain, atoms = kids
        return set(plain).union(*(args for _rule, args in atoms))
    if node.kind == "dist":
        return set(kids[:2])
    return set(kids)


def _instance_kids(net, slot):
    """The instance slots that ``slot``'s node reads at its iteration."""
    N = len(net.nodes)
    node, t = net.nodes[slot % N], slot // N
    if node.kind == "loop":
        return ((net.slot(node.payload["init"], 0),) if t == 0
                else (net.slot(node.payload["source"], t - 1),))
    return tuple(net.slot(c, t) for c in node.children)


def _used_slots(net):
    """Every used instance slot, in rising order: a base node's at t=0, an
    in-loop node's at every iteration."""
    return sorted(net.slot(n.id, t) for n in net.nodes
                  for t in (range(net.T) if n.in_loop else (0,)))


def _instance_slots(tables):
    """The instance slot of each kept slot."""
    return sorted(tables.index, key=tables.index.get)


def _kept(tables, slots):
    """The kept slots of a tuple of kept instances' slots."""
    return tuple(tables.index[s] for s in slots)


def _operands(net, slot):
    """The operands of a conjunction's or a sum's instance at ``slot``, with
    each node id replaced by the kept slot it has at that iteration."""
    tables, t = net.slot_tables(), slot // len(net.nodes)
    node = net.nodes[slot % len(net.nodes)]

    def at(c):
        return None if c is None else tables.index[net.slot(c, t)]

    return [at(op) if type(op) is int else
            (op[0], at(op[1]), at(op[2])) if node.kind == "and" else
            (at(op[0]), at(op[1])) for op in node.payload]


_ATOM_RULES = {"<=": MaskState._le, "<": MaskState._lt, "=": MaskState._eq}


def test_slot_tables_mirror_the_graph(line_dataset):
    # restated over the kept slots: a kept slot's edges are the slots its
    # rule reads, its children's, which include its operands' sides
    nets = _line_networks(line_dataset) + _random_networks(range(12))
    nets.append(_base_source_network())
    assert [net.T for net in nets[:2]] == [1, 3]
    for net in nets:
        tables = net.slot_tables()
        N, size = len(net.nodes), len(tables.index)
        assert len(tables.children) == len(tables.parents) == size
        # kept slots number the used instances in rising instance order
        assert list(tables.index.values()) == list(range(size))
        assert list(tables.index) == _used_slots(net)
        down = {(c, s) for s in range(size) for c in _reads(tables, s)}
        up = {(c, p) for c in range(size) for p in tables.parents[c]}
        assert down == up  # each table is the other's inverse
        # one edge per distinct child, in rising order
        assert all(list(ups) == sorted(set(ups)) for ups in tables.parents)
        assert all(c < s for c, s in down)  # every edge rises
        assert all(tables.level[c] < tables.level[s] for c, s in down)
        for slot, node in zip(_instance_slots(tables), tables.nodes):
            k = tables.index[slot]
            # the rule comes from the node: operands shape the argument only
            assert tables.rules[k] is network._rule_of(node, net.nodes)
            kids = _kept(tables, _instance_kids(net, slot))
            assert _reads(tables, k) == set(kids)
            if node.kind == "add":
                terms = _operands(net, slot)
                assert tables.children[k] == (
                    tuple(terms), sum(g is not None for g, _b in terms))
            elif node.kind == "and":
                plain, atoms = tables.children[k]
                ops = _operands(net, slot)
                assert plain == tuple(op for op in ops if type(op) is int)
                compared = [op for op in ops if type(op) is tuple]
                assert [args for _rule, args in atoms] == [
                    (a, b) for _op, a, b in compared]
                assert [rule for rule, _args in atoms] == [
                    MaskState._vector_eq if tables.nodes[a].vkind == "v"
                    else _ATOM_RULES[op] for op, a, _b in compared]
            elif node.kind == "dist":
                assert tables.children[k][:2] == kids
            else:
                assert tables.children[k] == kids
        assert net.slot_tables() is tables  # built once, then shared


def test_fused_slot_has_no_rule_parents_or_undecided_bit(line_dataset):
    nets = _line_networks(line_dataset) + _random_networks(range(12))
    assert all(_operand_count(net) for net in nets[:2])
    for net in nets:
        tables = net.slot_tables()
        # an operand evaluated inline has no node, so no slot, rule,
        # parents or bit: the kept slots are the used instances
        used = _used_slots(net)
        assert len(tables.rules) == len(tables.nodes) == len(used)
        assert list(tables.index) == used
        st_ = MaskState(net)
        written = set()
        plain_assign = st_.assign

        def assign(*args):
            start = len(st_.trail)
            plain_assign(*args)
            written.update(idx for idx, _old in st_.trail[start:])

        st_.assign = assign
        vt = VarTable(tuple((name, 0.4) for name in sorted(net.var_nodes)))
        Search(net, vt, 0.0, "exact", state=st_).run()
        assert not st_.unknown_bits >> len(tables.rules)
        assert written <= set(range(len(tables.rules)))


def _operand_count(net):
    """The comparison operands and guarded terms of ``net``'s nodes."""
    return sum(type(op) is tuple for n in net.nodes if n.kind == "and"
               for op in n.payload) + sum(
        g is not None for n in net.nodes if n.kind == "add"
        for g, _b in n.payload)


def test_line_kmedoids_networks_keep_no_guard(line_dataset):
    # every guard of the k-medoids encoding is written in a sum: the scalar
    # cost sums' and the vector medoid sums' guards are all guarded terms
    for net in _line_networks(line_dataset):
        tables = net.slot_tables()
        assert not any(node.kind == "guard" for node in net.nodes)
        assert any(g is not None for n in net.nodes if n.kind == "add"
                   for g, _b in n.payload)
        shapes = {_operand_shape(node, kids)
                  for node, kids in zip(tables.nodes, tables.children)}
        assert {"scalar pairs", "vector pairs"} <= shapes


def _kmedoids_groundings(kmedoids_src, ds):
    """The unfolded and folded groundings of the k-medoids builder's program
    and of the translated ``kmedoids.prog`` on ``ds``."""
    vs = set(ds.vartable.index)
    prog, meta = build_kmedoids_program(ds)
    tr = translate_to_event_program(parse_user_program(kmedoids_src), ds)
    out = []
    for program, pattern in ((prog, meta["targets"]),
                             (tr.program, tr.loop_final_pattern("Centre"))):
        out += [g(program, (pattern,), vs) for g in (ground, ground_folded)]
    return out


def test_kmedoids_networks_have_no_atom_or_guard_node(line_dataset,
                                                      kmedoids_src):
    # on the line fixture and on the benchmark's kind of layout, every atom
    # of a k-medoids network is a comparison operand and every guard a
    # guarded term, and every used instance keeps its slot
    layouts = (line_dataset, gen_correlations(
        12, "positive", group=4, l=2, pool=6, seed=3, iterations=2))
    for ds in layouts:
        for g in _kmedoids_groundings(kmedoids_src, ds):
            net = build_network(g)
            assert not {n.kind for n in net.nodes} & {"atom", "guard"}
            assert _operand_count(net)
            tables = net.slot_tables()
            assert list(tables.index) == _used_slots(net)
            assert len(tables.rules) == len(_used_slots(net))


def _plain_add(st_, node, kids):
    """A sum of the masks at slots ``kids``, as one rule computed it for
    every sum before sums were split by kind: an undefined term adds
    nothing, and one that may be undefined adds its interval widened to 0
    by ``min``/``max``, a vector's component by component."""
    masks = st_.masks
    vector = node.vkind == "v"
    lo = hi = 0.0
    defined, may_undef = False, True
    for term in kids:
        m = masks[term]
        mu = m.may_undef
        if not mu:
            may_undef = False
        if not m.may_def:
            continue
        if not vector:
            if mu:
                lo += min(0.0, m.lo)
                hi += max(0.0, m.hi)
            else:
                lo += m.lo
                hi += m.hi
        else:
            if not defined:
                lo = hi = (0.0,) * len(m.lo)
            if mu:
                lo = [x + min(0.0, y) for x, y in zip(lo, m.lo)]
                hi = [x + max(0.0, y) for x, y in zip(hi, m.hi)]
            else:
                lo = [x + y for x, y in zip(lo, m.lo)]
                hi = [x + y for x, y in zip(hi, m.hi)]
        defined = True
    if not defined:
        return network.UNDEF
    if vector:
        lo, hi = tuple(lo), tuple(hi)
    return network.NumMask(lo, hi, may_undef, True)


def _standalone_mask(st_, slot):
    """The mask of a kept slot as a network computes it where every atom
    and guard is a node: each comparison operand runs its atom rule, and
    each guarded term ``_guard``, into a copy of the masks, at a slot past
    the kept ones, read off the node's payload; the slot then runs its
    plain rule over them: the plain sum above, the conjunction's rule with
    no comparison, and ``_dist`` for every distance, a point distance's
    included."""
    net, tables = st_.net, st_.tables
    node = tables.nodes[slot]
    copy = SimpleNamespace(masks=list(st_.masks))

    def standalone(rule, args):
        copy.masks.append(rule(copy, None, args))
        return len(copy.masks) - 1

    if node.kind == "dist":
        return MaskState._dist(copy, node, tables.children[slot][:2])
    ops = _operands(net, _instance_slots(tables)[slot])
    if node.kind == "add":
        return _plain_add(copy, node, [
            b if g is None else standalone(MaskState._guard, (g, b))
            for g, b in ops])
    assert node.kind == "and"
    kids = [op if type(op) is int else standalone(
        MaskState._vector_eq if tables.nodes[op[1]].vkind == "v"
        else _ATOM_RULES[op[0]], op[1:]) for op in ops]
    return MaskState._and(copy, node, (tuple(kids), ()))


def _operand_shape(node, kids):
    """The shape of a kept sum's or point distance's rule argument, and of
    a conjunction's when it has a comparison operand; None for any other
    slot."""
    if node.kind == "and":
        return "and with atoms" if kids[1] else None
    if node.kind == "dist":
        if len(kids) == 2:
            return None
        return "self-distance" if kids[0] == kids[1] else "point distance"
    if node.kind != "add":
        return None
    terms, pairs = kids
    assert pairs == sum(g is not None for g, _body in terms)
    vkind = "vector" if node.vkind == "v" else "scalar"
    if not pairs:
        return vkind + " slots"
    return vkind + (" pairs" if pairs == len(terms) else " pairs and slots")


def _planar_kmedoids():
    """A 2-D k-medoids network (n=8) as the benchmark builds its own, and
    its variable table."""
    ds = gen_correlations(8, "positive", group=2, l=2, seed=3, iterations=2)
    prog, meta = build_kmedoids_program(ds)
    g = ground(prog, (meta["targets"],), variables=set(ds.vartable.index))
    return build_network(g), ds.vartable


def test_fused_rules_equal_unfused_rules_on_every_state(line_dataset):
    # an operand's inline evaluation equals the standalone atom or guard
    # rule on the same masks: every sum against the plain sum over its
    # terms' guard masks, every point distance against ``_dist`` over its
    # operands' masks, and every conjunction with comparisons against its
    # rule over their atom masks
    cases = [(net, line_dataset.vartable, eps, scheme)
             for net in _line_networks(line_dataset)
             for eps, scheme in ((0.0, "exact"), (0.1, "hybrid"))]
    cases.append((*_planar_kmedoids(), 0.0, "exact"))
    for seed in range(40):
        for make in (random_instance, _every_kind_instance):
            prog, vt, targets = make(seed, max_vars=5)
            net = build_network(ground(prog, targets, variables=set(vt.index)))
            cases.append((net, vt, 0.0, "exact"))
    checked = Counter()

    def check(st_):
        tables = st_.tables
        probe = SimpleNamespace(masks=st_.masks, stats=network.Stats(0))
        for slot, node in enumerate(tables.nodes):
            kids = tables.children[slot]
            shape = _operand_shape(node, kids)
            if shape:
                inline = tables.rules[slot](probe, node, kids)
                assert repr(inline) == repr(_standalone_mask(st_, slot)), slot
                checked[shape] += 1

    for net, vt, eps, scheme in cases:
        search = Search(net, vt, eps, scheme, on_branch=check)
        check(search.state)  # the initial masks
        search.preassign_certain()
        search.run()
    assert all(checked[shape] for shape in (
        "scalar pairs", "scalar slots", "scalar pairs and slots",
        "vector pairs", "vector slots", "vector pairs and slots",
        "point distance", "self-distance", "and with atoms"))


def test_targets_and_shared_operands_are_not_fused():
    # an atom or a guard declared on its own keeps a node, whether it is a
    # target, read once or read twice; one written directly under a
    # conjunction or a sum is that reader's operand, and one written under
    # two conjunctions is an operand of each
    atom = Atom("<=", CondVal(Var("x"), 1.0), CondVal(TRUE, 0.5))
    guard = Guard(Var("y"), CondVal(Var("z"), 2.0))
    base = (("A", atom), ("G", guard),
            ("S", Add((Ref("G"), Guard(Var("x"), CondVal(TRUE, 1.0))))),
            ("T", And((Ref("A"), Atom(">", Ref("S"), CondVal(TRUE, 2.5))))))

    def network_of(extra, targets):
        program = EventProgram(tuple(decl(eid, (), e) for eid, e in base + extra))
        return build_network(ground(program, targets, {"x", "y", "z"}))

    def kinds(net):
        return Counter(n.kind for n in net.nodes)

    for extra, targets in (((), ("T",)), ((), ("T", "A")),
                           ((("U", And((Ref("A"), Var("z")))),), ("T", "U")),
                           ((("U", And((Ref("A"), Ref("A")))),), ("T", "U"))):
        net = network_of(extra, targets)
        node_of = net.node_of_eid
        A, G, S = (node_of[eid] for eid in "AGS")
        assert (net.nodes[A].kind, net.nodes[G].kind) == ("atom", "guard")
        assert (kinds(net)["atom"], kinds(net)["guard"]) == (1, 1)
        x, c1, c25 = (net.nodes[S].children[1], net.nodes[S].children[2],
                      next(n.id for n in net.nodes if n.payload == 2.5))
        assert net.nodes[S].payload == ((None, G), (x, c1))
        assert net.nodes[node_of["T"]].payload == (A, ("<", c25, S))
        if extra:  # a second reader reads A's node, once
            assert net.nodes[node_of["U"]].payload[0] == A
        tables = net.slot_tables()
        assert tables.index[A] == A and tables.index[G] == G
        assert tables.children[tables.index[S]] == (
            ((None, tables.index[G]), (tables.index[x], tables.index[c1])), 1)
    # one atom object written under two conjunctions: no node, an operand
    # of each, evaluated in each
    shared = Atom(">=", CondVal(Var("z"), 3.0), CondVal(TRUE, 1.0))
    net = network_of((("U", And((shared, Var("y")))),
                      ("V", And((Var("z"), shared)))), ("T", "U", "V"))
    assert kinds(net)["atom"] == 1
    U, V = (net.node_of_eid[eid] for eid in "UV")
    assert net.nodes[U].payload[0] == net.nodes[V].payload[1]
    assert net.nodes[U].payload[0][0] == "<="
    tables = net.slot_tables()
    (_rule, args), = tables.children[tables.index[U]][1]
    assert [a for _rule, a in tables.children[tables.index[V]][1]] == [args]


def _sample_networks(line_dataset):
    """The line fixture's k-medoids networks and those of random programs."""
    nets = _line_networks(line_dataset) + _random_networks(range(60))
    for seed in range(60):
        prog, vt, targets = _every_kind_instance(seed)
        nets.append(build_network(ground(prog, targets, set(vt.index))))
    return nets


def test_mirrored_comparisons_share_a_node(line_dataset):
    a, b = CondVal(Var("x"), 1.0), CondVal(Var("y"), 2.0)
    for mirrored, plain in ((">=", "<="), (">", "<")):
        program = EventProgram((decl("P", (), Atom(mirrored, a, b)),
                                decl("Q", (), Atom(plain, b, a))))
        net = build_network(ground(program, ("P", "Q"), {"x", "y"}))
        nid = net.node_of_eid["P"]
        assert net.node_of_eid["Q"] == nid
        node = net.nodes[nid]
        assert node.payload == plain
        assert [net.nodes[c].payload for c in node.children] == [2.0, 1.0]
    # a comparison operand is mirrored as an atom node is
    net = build_network(ground(EventProgram((decl("C", (), And((
        Atom(">=", a, b), Atom(">", a, b)))),)), ("C",), {"x", "y"}))
    y_, x_ = (net.nodes[c].id for c in net.nodes[net.node_of_eid["C"]].children[:2])
    assert net.nodes[net.node_of_eid["C"]].payload == (
        ("<=", y_, x_), ("<", y_, x_))
    assert [net.nodes[c].payload for c in (y_, x_)] == [2.0, 1.0]
    ops = set()
    for net in _sample_networks(line_dataset):
        for n in net.nodes:
            if n.kind == "atom":
                ops.add(n.payload)
            elif n.kind == "and":
                ops.update(op[0] for op in n.payload if type(op) is tuple)
    assert ops == {"<=", "<", "="}


def test_conjunctions_and_disjunctions_keep_distinct_children(line_dataset):
    # a conjunction keeps each distinct operand once, a comparison and its
    # mirrored spelling being one operand; a disjunction each distinct child
    a, b = CondVal(Var("x"), 1.0), CondVal(Var("y"), 2.0)
    program = EventProgram((
        decl("A", (), And((Var("x"), Var("y"), Var("x")))),
        decl("C", (), And((Atom("<", a, b), Var("x"), Atom(">", b, a)))),
        decl("O", (), Or((Ref("A"), Ref("A"))))))
    net = build_network(ground(program, ("O", "C"), {"x", "y"}))
    x, y, A = net.var_nodes["x"], net.var_nodes["y"], net.node_of_eid["A"]
    assert net.nodes[A].payload == net.nodes[A].children == (x, y)
    C = net.nodes[net.node_of_eid["C"]]
    (op, left, right), plain = C.payload
    assert (op, plain) == ("<", x) and C.children == (left, right, x)
    assert [net.nodes[c].payload for c in (left, right)] == [1.0, 2.0]
    assert net.nodes[net.node_of_eid["O"]].children == (A,)
    for net in _sample_networks(line_dataset):
        for n in net.nodes:
            if n.kind == "and":
                assert len(set(n.payload)) == len(n.payload), n
            elif n.kind == "or":
                assert len(set(n.children)) == len(n.children), n


def _looped_instance(seed, T=3):
    """``random_instance``'s declarations as the body of a loop over
    ``it``, every reference to the same iteration and the first variable
    read as ``Acc[it-1]``, and two families carried from ``it-1``:
    (program, vartable, final-iteration targets).

    ``G[it]`` is a guard declared on its own, read by a sum in its own
    iteration and by the next, so it is a node; that sum, ``S[it]``, also
    has a guarded term on ``Acc[it]``, so each iteration evaluates an
    operand that depends on the loop."""
    prog, vt, targets = random_instance(seed, max_vars=5)
    x, y = (Var(name) for name in vt.names()[:2])
    it = Affine.var("it")

    def at_it(e):
        if e == x:
            return Ref("Acc", (it.plus(-1),))
        return Ref(e.name, (it,)) if type(e) is Ref else map_children(e, at_it)

    body = tuple(Decl(d.name, (it,), at_it(d.expr)) for d in prog.items) + (
        Decl("Acc", (it,), Or((Ref("Acc", (it.plus(-1),)),
                               Ref(targets[0], (it,))))),
        Decl("G", (it,), Guard(Ref("Acc", (it,)), CondVal(y, 1.0))),
        Decl("S", (it,), Add((Ref("G", (it,)), Guard(
            Ref("Acc", (it,)), CondVal(TRUE, 0.5))))),
        Decl("K", (it,), Atom("<=", Ref("S", (it,)), Add((
            Ref("G", (it.plus(-1),)), CondVal(TRUE, 1.0))))))
    program = EventProgram((decl("Acc", (-1,), x),
                            decl("G", (-1,), Guard(y, CondVal(TRUE, 0.0))),
                            Loop("it", 0, T, body)))
    return program, vt, ["%s[%d]" % (eid, T - 1)
                         for eid in targets + ["Acc", "K"]]


def test_kept_slots_are_the_instances_neither_fused_nor_unused():
    seen = Counter()
    for seed in range(24):
        prog, vt, targets = _looped_instance(seed)
        variables = set(vt.index)
        nets = [build_network(g(prog, targets, variables))
                for g in (ground, ground_folded)]
        assert [net.T for net in nets] == [1, 3]
        for net in nets:
            tables, used = net.slot_tables(), _used_slots(net)
            assert list(tables.index) == used
            assert list(tables.index.values()) == list(range(len(used)))
            assert len(tables.rules) == len(tables.children) == len(used)
            assert all(c < k for k in range(len(used))
                       for c in _reads(tables, k))  # every edge rises
            inline = [k for k, (node, kids) in enumerate(
                zip(tables.nodes, tables.children))
                if node.kind in ("add", "and") and kids[1]]
            seen[net.T] += len(inline)

            def check(state):
                # at every iteration, an instance with operands has the
                # mask of its plain rule over their standalone masks
                for k in inline:
                    assert repr(state.masks[k]) == repr(
                        _standalone_mask(state, k))

            search = Search(net, vt, 0.0, "exact", on_branch=check)
            check(search.state)
            search.preassign_certain()
            search.run()
    assert seen[1] and seen[3]


def test_carried_base_source_reaches_every_iteration():
    net = _base_source_network()
    src = net.var_nodes["x"]  # the body of A[it]
    carry = next(n.id for n in net.nodes if n.kind == "loop")
    N = len(net.nodes)
    tables = net.slot_tables()
    assert tables.parents[tables.index[src]] == _kept(
        tables, [t * N + carry for t in range(1, net.T)])
    vt = VarTable.of(("x", 0.3), ("y", 0.6), ("z", 0.5))
    folded = compile_targets(net, vt, 0.0, "exact")
    text = parse_event_program(_BASE_SOURCE_PROGRAM)
    unfolded = compile_targets(
        build_network(ground(text, ("B[2]",), variables={"x", "y", "z"})),
        vt, 0.0, "exact")
    assert folded.bounds("B[2]") == unfolded.bounds("B[2]")
    assert abs(folded.bounds("B[2]")[0] - 0.15) < 1e-12


@pytest.mark.parametrize("body", [
    "(x0 ? 1.0) + (x1 ? [1.0, 2.0])",
    "dist((x0 ? 1.0), (x1 ? 2.0))",
    "(x0 ? 1.0) + x1",
], ids=["mixed-sum", "dist-on-scalars", "event-in-sum"])
def test_folded_body_is_typed_as_its_unfolded_program(body):
    program = parse_event_program(
        "forall it in 0..2:\n  B[it] := x0\n  C[it] := %s\n" % body)
    variables = {"x0", "x1"}
    with pytest.raises(TypeMismatch) as unfolded:
        build_network(ground(program, ("B[1]",), variables))
    with pytest.raises(TypeMismatch,
                       match="^%s$" % re.escape(str(unfolded.value))):
        build_network(ground_folded(program, ("B[1]",), variables))


def test_folded_carry_has_the_kind_of_its_source():
    program = parse_event_program(
        "C[-1] := (x1 ? 1.0)\n"
        "forall it in 0..3:\n"
        "  C[it] := (x2 ? [1.0, 2.0])\n"
        "  D[it] := [ C[it-1] <= (x1 ? 0.5) ]\n")
    variables = {"x1", "x2"}
    with pytest.raises(TypeMismatch, match="atom compares scalar with vector"):
        build_network(ground(program, ("D[2]",), variables))
    with pytest.raises(TypeMismatch, match="^carried family 'C' changes kind"):
        build_network(ground_folded(program, ("D[2]",), variables))


def test_folded_body_index_naming_another_counter_fails():
    # the parser rejects unknown counters, so the programs are built directly
    it, j = Affine.var("it"), Affine.var("j")
    for head, body in (((it,), Ref("A", (j,))), ((it, j), Var("x0"))):
        program = EventProgram((
            decl("A", (0,), Var("x0")),
            Loop("it", 0, 2, (Decl("B", head, body),)),
        ))
        with pytest.raises(GroundError, match="unbound loop counter 'j'"):
            ground(program, ("*",), {"x0"})
        with pytest.raises((GroundError, NetworkError),
                           match="unbound loop counter 'j'"):
            build_network(ground_folded(program, ("B*",), {"x0"}))


def test_folded_body_resolves_bare_names_as_unfolded():
    # a bare name in the loop body is a base declaration or a known
    # variable on both routes; otherwise both fail when grounding
    parsed = parse_event_program("forall it in 0..2:\n  B[it] := x0 & x9\n")
    built = EventProgram((Loop("it", 0, 2, (
        Decl("B", (Affine.var("it"),), And((Var("x0"), Var("x9")))),)),))
    for program in (parsed, built):
        with pytest.raises(GroundError) as unfolded:
            ground(program, ("B[1]",), {"x0"})
        with pytest.raises(GroundError,
                           match="^%s$" % re.escape(str(unfolded.value))):
            ground_folded(program, ("B[1]",), {"x0"})


# --- sharing ------------------------------------------------------------------
#
# ``ground`` returns one object for each repeat of a loop-invariant
# subexpression, and ``build_network`` builds each object once.  Neither may
# change what is built.


def _ground_unshared(program, variables):
    """The declarations of ``program`` grounded by a plain walk that keeps no
    memo, so no two references share an object: the reference for
    ``ground``."""
    decls = {}
    for item, env in _instances(program.items, {}):
        decls[item.eid_under(env)] = _ground_plain(item.expr, env, decls,
                                                   variables)
    return decls


def _ground_plain(e, env, declared, variables):
    kind = type(e)
    if kind is Ref:
        if e.indices:
            eid = render_eid(e.name, [as_affine(ix).eval(env)
                                      for ix in e.indices])
            assert eid in declared
            return Ref(eid)
        if e.name in declared:
            return Ref(e.name)
        assert e.name in variables
        return Var(e.name)
    if kind is Var:
        if e.name in variables:
            return e
        assert e.name in declared
        return Ref(e.name)
    if kind is CondVal and isinstance(e.value, Affine):
        return CondVal(_ground_plain(e.guard, env, declared, variables),
                       e.value.eval(env))
    return map_children(e, lambda c: _ground_plain(c, env, declared, variables))


def _unshared(e):
    """A copy of ``e`` in which no two positions hold the same object.

    ``copy.deepcopy`` keeps the aliasing it finds, so every node is rebuilt.
    """
    if type(e) in (Const, Var, Ref):
        return dataclasses.replace(e)
    return map_children(e, _unshared)


@pytest.mark.parametrize("source,family", [("kmedoids_src", "Centre"),
                                           ("kmeans_src", "InCl")])
def test_sharing_builds_the_network_of_unshared_trees(request, source, family):
    ast = parse_user_program(request.getfixturevalue(source))
    for scheme, kwargs in (("positive", {}),
                           ("mutex", {"mutex_encoding": "selector"}),
                           ("markov", {})):
        ds = gen_correlations(8, scheme, group=2, iterations=2, **kwargs)
        tr = translate_to_event_program(ast, ds)
        variables = set(ds.vartable.index)
        pattern = (tr.loop_final_pattern(family),)
        g = ground(tr.program, pattern, variables)
        reference = _ground_unshared(tr.program, variables)
        assert list(g.decls.items()) == list(reference.items())
        copy = GroundedProgram({eid: _unshared(e) for eid, e in g.decls.items()},
                               g.targets)
        assert build_network(g).dump() == build_network(copy).dump()
        f = ground_folded(tr.program, pattern, variables)
        copy = FoldedProgram(
            f.counter, f.count, {eid: _unshared(e) for eid, e in f.base.items()},
            tuple(dataclasses.replace(d, expr=_unshared(d.expr)) for d in f.body),
            f.targets)
        assert build_network(f).dump() == build_network(copy).dump()


def test_later_states_load_the_initial_masks(line_dataset):
    # a second state on a network loads the first state's initial masks,
    # which the first state's assignments must leave as they were
    twins = zip(_line_networks(line_dataset) + _random_networks(range(6)),
                _line_networks(line_dataset) + _random_networks(range(6)))
    for net, twin in twins:
        first = MaskState(net)
        for name in list(net.var_nodes)[:3]:
            first.assign(name, True, 0.5)
        later, fresh = MaskState(net), MaskState(twin)
        for attr in ("masks", "unknown_bits", "queued", "problower",
                     "probupper"):
            assert getattr(later, attr) == getattr(fresh, attr), attr
        for attr in ("credited", "taken", "pruned_mass"):
            assert getattr(later.stats, attr) == getattr(fresh.stats, attr), attr
        assert later.stats.as_dict() == fresh.stats.as_dict()


def _watch_rules(st_, watch):
    """Make every rule call on ``st_``'s network call ``watch(state, slot)``
    first.  The tables are shared by the network's states."""
    rules = st_.tables.rules

    def watched(idx, rule):
        def call(state, node, kids):
            watch(state, idx)
            return rule(state, node, kids)
        return call

    for idx, rule in enumerate(rules):
        if rule is not None:
            rules[idx] = watched(idx, rule)


@pytest.mark.parametrize("folded", [False, True])
def test_each_slot_queued_at_most_once_per_assign(line_dataset, folded):
    net = _line_networks(line_dataset)[folded]
    st_ = MaskState(net)
    queued = []

    class Recording(list):
        def append(self, slot):
            queued.append(slot)
            super().append(slot)

    st_.levels[:] = [Recording() for _ in st_.levels]
    decided_calls = []
    _watch_rules(st_, lambda state, idx: decided_calls.append(idx)
                 if _decided_mask(state.masks[idx]) else None)
    plain_assign = st_.assign
    per_assign = []

    def counted_assign(*args):
        del queued[:]
        plain_assign(*args)
        per_assign.append(len(queued) - len(set(queued)))

    st_.assign = counted_assign
    search = Search(net, line_dataset.vartable, 0.0, "exact", state=st_)
    search.preassign_certain()
    search.run()
    assert len(per_assign) > 10 and max(per_assign) == 0
    assert decided_calls == []  # no rule runs on a decided instance


def _worn_state(net, vt):
    """A state that has run a whole exact search: its epoch is high."""
    st_ = MaskState(net)
    Search(net, vt, 0.0, "exact", state=st_).run()
    return st_


def _finish_exact(net, vt, st_, prefix):
    """The exact search below ``prefix``, already assigned on ``st_``:
    the masks and undecided bits after its next assignment, then the
    ``float.hex`` bounds and mask writes of the whole search below it."""
    nt = len(net.targets)
    st_.problower[:], st_.probupper[:] = [0.0] * nt, [1.0] * nt
    search = Search(net, vt, 0.0, "exact", state=st_)
    name = search.next_variable()
    mark = st_.checkpoint()
    st_.assign(name, True, 1.0)
    after = (list(st_.masks), st_.unknown_bits)
    st_.revert(mark)
    writes = st_.stats.propagations
    for value in (True, False):
        search.explore(prefix + ((name, value),), 0.5, 0.0, len(prefix) + 1)
        st_.revert(mark)
    bounds = [(lo.hex(), hi.hex())
              for lo, hi in zip(st_.problower, st_.probupper)]
    return after, bounds, st_.stats.propagations - writes


@pytest.mark.parametrize("folded", [False, True])
def test_saved_masks_resume_on_a_state_of_any_epoch(line_dataset, folded):
    net = _line_networks(line_dataset)[folded]
    vt = line_dataset.vartable
    prefix = (("x1", True), ("x3", False))
    # a worn state hands off to a fresh one, and a fresh one to a worn one
    for saver, loader in ((_worn_state(net, vt), MaskState(net)),
                          (MaskState(net), _worn_state(net, vt))):
        for name, value in prefix:
            saver.assign(name, value, 0.5)
        assert abs(saver.epoch - loader.epoch) > 10
        loader.load_masks(saver.save_masks())
        assert loader.masks == saver.masks
        assert loader.unknown_bits == saver.unknown_bits
        assert loader.trail == []
        assert (_finish_exact(net, vt, loader, prefix)
                == _finish_exact(net, vt, saver, prefix))


def test_fault_inside_an_assign_reverts_cleanly(line_dataset):
    prog, meta = build_kmedoids_program(line_dataset)
    vt = line_dataset.vartable
    g = ground(prog, (meta["targets"],), set(vt.index))
    reference = [(tb.eid, tb.lower.hex(), tb.upper.hex())
                 for tb in compile_targets(build_network(g), vt, 0.0,
                                           "exact").targets]
    st_ = MaskState(build_network(g))
    calls = []
    _watch_rules(st_, lambda state, idx: calls.append(idx))
    for name in vt.names():  # count the rule calls of one descent
        st_.assign(name, True, 0.5)
    total = len(calls)
    assert total > 50
    for k in (1, 2, total // 3, total // 2, total - 1, total):
        net = build_network(g)
        st_ = MaskState(net)
        mark = st_.checkpoint()
        before = (list(st_.masks), st_.unknown_bits,
                  [q == network.DECIDED for q in st_.queued])
        calls = []

        def fault(state, idx):  # raises on the k-th call only
            calls.append(idx)
            if len(calls) == k:
                raise RuntimeError("fault in rule call %d" % k)

        _watch_rules(st_, fault)
        bounds = list(st_.problower), list(st_.probupper)
        with pytest.raises(RuntimeError):
            for name in vt.names():
                st_.assign(name, True, 0.5)
        # as a job's retry does: the masks by the trail, the bounds by copy
        st_.revert(mark)
        st_.problower[:], st_.probupper[:] = bounds
        assert (list(st_.masks), st_.unknown_bits,
                [q == network.DECIDED for q in st_.queued]) == before
        assert all(not dirty for dirty in st_.levels)
        search = Search(net, vt, 0.0, "exact", state=st_)
        search.run()
        assert [(tb.eid, tb.lower.hex(), tb.upper.hex())
                for tb in finish_result(search).targets] == reference


# --- every c-value kind --------------------------------------------------------
#
# ``random_instance`` draws only guarded constants, sums and guards.  This
# generator adds products (scalar, scaled vector, dot), inverses, powers,
# distances and vector sums, so each mask rule meets undefined, zero and
# vector children.

_VALUES = (-2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0)


def _every_kind_instance(seed, max_vars=5):
    """A well-typed program over every c-value kind: (program, vartable, targets)."""
    rng = random.Random(seed)
    vt = VarTable(tuple(("x%d" % i, round(rng.uniform(0.15, 0.85), 3))
                        for i in range(rng.randint(2, max_vars))))
    names = vt.names()
    pools = {"b": [], "s": [], "v": []}

    def leaf_guard():
        return rng.choice((TRUE, Var(rng.choice(names)),
                           Not(Var(rng.choice(names)))))

    def event(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if pools["b"] and rng.random() < 0.4:
                return Ref(rng.choice(pools["b"]))
            return Var(rng.choice(names))
        if r < 0.45:
            return Not(event(depth - 1))
        if r < 0.6:
            kids = (event(depth - 1), event(depth - 1))
            return And(kids) if rng.random() < 0.5 else Or(kids)
        if r < 0.85:
            return Atom(rng.choice(("<=", "<", ">=", ">", "=")),
                        scalar(depth - 1), scalar(depth - 1))
        return Atom("=", vector(depth - 1), vector(depth - 1))

    def scalar(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if pools["s"] and rng.random() < 0.4:
                return Ref(rng.choice(pools["s"]))
            return CondVal(leaf_guard(), rng.choice(_VALUES))
        if r < 0.4:
            return Add((scalar(depth - 1), scalar(depth - 1)))
        if r < 0.5:
            return Mul((scalar(depth - 1), scalar(depth - 1)))
        if r < 0.6:
            return Mul((vector(depth - 1), vector(depth - 1)))
        if r < 0.7:
            return Pow(scalar(depth - 1), -1)
        if r < 0.8:
            return Pow(scalar(depth - 1), rng.choice((-2, -1, 0, 1, 2, 3)))
        if r < 0.9:
            return Dist(vector(depth - 1), vector(depth - 1))
        return Guard(event(depth - 1), scalar(depth - 1))

    def vector(depth):
        r = rng.random()
        if depth <= 0 or r < 0.3:
            if pools["v"] and rng.random() < 0.4:
                return Ref(rng.choice(pools["v"]))
            return CondVal(leaf_guard(),
                           (rng.choice(_VALUES), rng.choice(_VALUES)))
        if r < 0.5:
            return Add((vector(depth - 1), vector(depth - 1)))
        if r < 0.8:
            kids = [scalar(depth - 1), vector(depth - 1)]
            rng.shuffle(kids)
            return Mul(tuple(kids))
        return Guard(event(depth - 1), vector(depth - 1))

    decls = []
    for d in range(rng.randint(3, 7)):
        kind = rng.choice("bbsv")
        expr = {"b": event, "s": scalar, "v": vector}[kind](rng.randint(1, 3))
        decls.append(decl("E%d" % d, (), expr))
        pools[kind].append("E%d" % d)
    decls.append(decl("E%d" % len(decls), (), event(3)))
    pools["b"].append(decls[-1].name)
    targets = rng.sample(pools["b"], min(len(pools["b"]), 3))
    return EventProgram(tuple(decls)), vt, targets


def _at_most_one(c):
    """A program whose target ``T`` is ``[ c <= 1.0 ]``."""
    return EventProgram((decl("T", (), Atom("<=", c, CondVal(TRUE, 1.0))),))


# programs whose exact answer once differed from the oracle's: a vector sum
# of two undefined scaled vectors, a power of a certain zero with a negative
# exponent, and a negative power computed as a power of the inverse, one ulp
# off the oracle's ``3.0 ** -3``; and ones that both once failed on: the
# inverse of 1e-320 is inf, where ``1e-320 ** -1`` overflows, and every
# other overflowing power, a distance's squares included, is inf, or -inf
# for a negative base and an odd exponent (built here, as the tokenizer reads
# no exponent)
_ORACLE_CASES = {
    "vector-sum-of-undefined-products": (
        "S := ((a ? 2.0) * (b ? [1.0, 2.0])) + ((c ? 3.0) * (b ? [1.0, 2.0]))\n"
        "T := [ S = (true ? [2.0, 4.0]) ]\n",
        VarTable.of(("a", 0.5), ("b", 0.5), ("c", 0.5)), 0.75),
    "pow-of-certain-zero": (
        "T := [ pow((x0 ? 0.0), -1) = (true ? 1.0) ]\n",
        VarTable.of(("x0", 0.5)), 1.0),
    "negative-pow-to-the-bit": (
        "T := [ pow((x0 ? 3.0), -3) >= (true ? 0.037037037037037035) ]\n",
        VarTable.of(("x0", 0.5)), 1.0),
    "inverse-of-a-subnormal": (
        EventProgram((decl("T", (), Atom(
            "<=", Pow(CondVal(Var("x0"), 1e-320), -1), CondVal(TRUE, 1.0))),)),
        VarTable.of(("x0", 0.5)), 0.5),
    "overflowing-negative-power": (
        _at_most_one(Pow(CondVal(Var("x0"), 1e-200), -2)),
        VarTable.of(("x0", 0.5)), 0.5),
    "overflowing-power": (
        _at_most_one(Pow(CondVal(Var("x0"), 1e200), 3)),
        VarTable.of(("x0", 0.5)), 0.5),
    "overflowing-odd-power-of-a-negative": (
        _at_most_one(Pow(CondVal(Var("x0"), -1e200), 3)),
        VarTable.of(("x0", 0.5)), 1.0),
    "overflowing-distance": (
        _at_most_one(Dist(CondVal(Var("x0"), (1e200, 0.0)),
                          CondVal(TRUE, (-1e200, 0.0)))),
        VarTable.of(("x0", 0.5)), 0.5),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fixed_programs_match_oracle(case):
    program, vt, expected = _ORACLE_CASES[case]
    if isinstance(program, str):
        program = parse_event_program(program)
    g = ground(program, ("T",), set(vt.index))
    assert oracle_probabilities(g, vt, ("T",)).probabilities["T"] == expected
    result = compile_targets(build_network(g), vt, 0.0, "exact")
    assert result.bounds("T") == (expected, expected)


def test_exact_matches_oracle_over_every_kind():
    wrong = []
    for seed in range(1000):
        prog, vt, targets = _every_kind_instance(seed)
        g = ground(prog, targets, variables=set(vt.index))
        expected = oracle_probabilities(g, vt, targets).probabilities
        result = compile_targets(build_network(g), vt, 0.0, "exact")
        for eid in targets:
            lower, upper = result.bounds(eid)
            if max(abs(lower - expected[eid]), abs(upper - expected[eid])) > 1e-9:
                wrong.append((seed, eid, lower, upper, expected[eid]))
    assert wrong == []


def _check_masks_against_worlds(net, st_, g, names, partial):
    """Each declaration's mask allows its value in every completion of
    ``partial``; a mask that may be defined has its node's static shape."""
    decls = Declarations(g.decls)
    free = [n for n in names if n not in partial]
    for w in range(1 << len(free)):
        nu = dict(partial)
        nu.update({n: bool((w >> j) & 1) for j, n in enumerate(free)})
        values = decls.values(nu)
        for eid, nid in net.node_of_eid.items():
            m, v, vkind = st_.mask_of(nid, 0), values[eid], net.nodes[nid].vkind
            if vkind == "b":
                assert m == UNKNOWN or (m == MASK_TRUE) == v, (eid, nu)
                continue
            if m.may_def:
                assert isinstance(m.lo, tuple) == (vkind == "v"), eid
            if v is U or v is VU:
                assert m.may_undef, (eid, nu)
                continue
            assert m.may_def, (eid, nu)
            xs, los, his = ((v, m.lo, m.hi) if vkind == "v"
                            else ((v,), (m.lo,), (m.hi,)))
            for x, lo, hi in zip(xs, los, his):
                assert lo - 1e-9 <= x <= hi + 1e-9, (eid, nu)


def test_mask_soundness_over_every_kind():
    for seed in range(300):
        rng = random.Random(seed)
        prog, vt, targets = _every_kind_instance(seed)
        g = ground(prog, targets, variables=set(vt.index))
        net = build_network(g)
        st_ = MaskState(net)
        names = vt.names()
        partial = {n: rng.random() < 0.5
                   for n in rng.sample(names, rng.randint(0, len(names)))}
        for n, v in partial.items():
            st_.assign(n, v, 1.0)
        _check_masks_against_worlds(net, st_, g, names, partial)
