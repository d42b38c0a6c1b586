import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from manyworlds.events import (
    U, VU, Add, And, Atom, CondVal, Not, Or, Ref, Var, TRUE,
)
from manyworlds.eventprog import (
    EventProgram, decl, ground, ground_folded, parse_event_program,
)
from manyworlds.compile import Search
from manyworlds.kmedoids import build_kmedoids_program, example_line_dataset
from manyworlds.network import (
    MASK_FALSE, MASK_TRUE, UNKNOWN, MaskState, NetworkError, build_network,
)
from manyworlds.oracle import _Program
from manyworlds.randprog import random_instance


def test_shared_subexpression_single_node():
    p = EventProgram((
        decl("A", (), And((Var("x1"), Var("x2")))),
        decl("B", (), Or((And((Var("x1"), Var("x2"))), Var("x3")))),
    ))
    g = ground(p, ("A", "B"))
    net = build_network(g)
    and_nodes = [n for n in net.nodes if n.kind == "and"]
    assert len(and_nodes) == 1
    assert len(and_nodes[0].parents) == 1  # the Or node; targets share the node


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
    assert st_._bool_of(net.node_of_eid["Phi0"], 0) == MASK_TRUE
    assert st_._bool_of(net.node_of_eid["Phi1"], 0) == MASK_TRUE
    assert st_._bool_of(net.node_of_eid["Phi3"], 0) == MASK_FALSE
    assert st_._bool_of(net.node_of_eid["Phi2"], 0) == UNKNOWN


def test_conjunction_false_on_any_false_child():
    p = EventProgram((decl("A", (), And((Var("x"), Var("y")))),))
    g = ground(p, ("A",))
    net = build_network(g)
    st_ = MaskState(net)
    st_.assign("x", False, 1.0)
    assert st_._bool_of(net.node_of_eid["A"], 0) == MASK_FALSE


def test_guarded_sum_interval_tightening():
    p = EventProgram((
        decl("S", (), Add((CondVal(Var("a"), 2.0), CondVal(Var("b"), 3.0)))),
        decl("T", (), Atom("<=", Ref("S"), CondVal(TRUE, 4.0))),
    ))
    g = ground(p, ("T",))
    net = build_network(g)
    st_ = MaskState(net)
    nid = net.node_of_eid["S"]
    nm = st_._num_of(nid, 0)
    assert (nm.lo, nm.hi) == (0.0, 5.0)
    st_.assign("a", True, 1.0)
    nm = st_._num_of(nid, 0)
    assert (nm.lo, nm.hi) == (2.0, 5.0)
    st_.assign("b", False, 1.0)
    nm = st_._num_of(nid, 0)
    assert (nm.lo, nm.hi) == (2.0, 2.0)
    assert not nm.may_undef and nm.may_def


def test_undo_trail_restores_exact_state():
    prog, vt, targets = random_instance(11, max_vars=8)
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    st_ = MaskState(net)
    before_b = list(st_.bmask)
    before_n = list(st_.nmask)
    before_bits = st_.unknown_bits
    mark = st_.checkpoint()
    for name in vt.names()[:4]:
        st_.assign(name, True, 0.5)
    st_.revert(mark)
    assert st_.bmask == before_b
    assert st_.nmask == before_n
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
    prog_eval = _Program(g)
    free = [n for n in names if n not in partial]
    for w in range(1 << len(free)):
        nu = dict(partial)
        nu.update({n: bool((w >> j) & 1) for j, n in enumerate(free)})
        values = dict(zip(prog_eval.eids, prog_eval.eval_all(nu)))
        for eid, nid in net.node_of_eid.items():
            node = net.nodes[nid]
            if node.vkind == "b":
                m = st_._bool_of(nid, 0)
                if m != UNKNOWN:
                    assert (m == MASK_TRUE) == values[eid], (eid, nu)
            else:
                nm = st_._num_of(nid, 0)
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
        prev[eid] = st_._num_of(nid, 0)
    for name in names:
        st_.assign(name, rng.random() < 0.5, 1.0)
        for eid, nid in numeric:
            nm = st_._num_of(nid, 0)
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


def test_folded_node_count_constant_and_unfolded_grows(line_dataset):
    counts = []
    for T in (1, 2, 3):
        line_dataset.params.iterations = T
        prog, meta = build_kmedoids_program(line_dataset)
        vs = set(line_dataset.vartable.index)
        net_u = build_network(ground(prog, (meta["targets"],), vs))
        net_f = build_network(ground_folded(prog, (meta["targets"],), vs))
        counts.append((net_u.node_count(), net_f.node_count()))
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


def test_network_dump_lines():
    p = EventProgram((decl("A", (), And((Var("x"), Var("y")))),))
    net = build_network(ground(p, ("A",)))
    dump = net.dump()
    lines = dump.strip().splitlines()
    assert len(lines) == net.node_count()
    assert lines[0].split()[0] == "0"
    kinds = {ln.split()[1] for ln in lines}
    assert {"var", "and"} <= kinds


def test_target_must_be_event(line_dataset):
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, ("M[0,-1]",), variables=set(line_dataset.vartable.index))
    with pytest.raises(NetworkError, match="not an event"):
        build_network(g)


def test_masks_equal_detects_convergence(line_dataset):
    line_dataset.params.iterations = 3
    prog, meta = build_kmedoids_program(line_dataset)
    fp = ground_folded(prog, (meta["targets"],),
                       variables=set(line_dataset.vartable.index))
    net = build_network(fp)
    st_ = MaskState(net)
    for name in line_dataset.vartable.names():
        st_.assign(name, True, 1.0)
    # with every variable assigned the clustering is a fixpoint by the final
    # iterations for this geometry
    assert st_.masks_equal_at(1, 2)


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
        mark = st_.checkpoint()
        plain_assign(name, value, p)
        writes = Counter(idx for _is_bool, idx, _old in st_.trail[mark:])
        most.append(max(writes.values(), default=0))

    st_.assign = counted_assign
    search = Search(net, line_dataset.vartable, 0.0, "exact", state=st_)
    search.preassign_certain()
    search.run()
    assert len(most) > 10  # the whole exact search went through the check
    assert max(most) == 1
