import pytest
from hypothesis import given, settings, strategies as st

from manyworlds.events import And, CondVal, Var, VarTable, TRUE
from manyworlds.eventprog import EventProgram, decl, ground, ground_folded
from manyworlds.kmedoids import build_kmedoids_program
from manyworlds.compile import (
    BoundsError, ConfigError, Search, ancestor_bits, checked_bounds, compile_targets,
    finish_result,
)
from manyworlds.network import MaskState, build_network
from manyworlds.oracle import oracle_probabilities
from manyworlds.randprog import random_instance


def _net(decls, targets, variables=None):
    g = ground(EventProgram(tuple(decls)), targets, variables=variables)
    return build_network(g), g


def test_two_variable_conjunction_exact():
    net, g = _net([decl("T", (), And((Var("x0"), Var("x1"))))], ("T",))
    vt = VarTable.of(("x0", 0.5), ("x1", 0.5))
    r = compile_targets(net, vt, 0.0, "exact")
    lo, hi = r.bounds("T")
    assert abs(lo - 0.25) < 1e-12 and abs(hi - 0.25) < 1e-12
    assert r.stats.leaves == 3  # x0x1, x0!x1, !x0


def test_huge_budget_prunes_root():
    net, g = _net([decl("T", (), And((Var("x0"), Var("x1"))))], ("T",))
    vt = VarTable.of(("x0", 0.5), ("x1", 0.5))
    r = compile_targets(net, vt, 0.5, "hybrid")  # 2*eps = 1 covers everything
    lo, hi = r.bounds("T")
    assert (lo, hi) == (0.0, 1.0)
    assert r.stats.branches == 0


def test_epsilon_zero_requires_exact():
    net, g = _net([decl("T", (), Var("x0"))], ("T",))
    vt = VarTable.of(("x0", 0.5),)
    with pytest.raises(ConfigError):
        compile_targets(net, vt, 0.0, "hybrid")
    with pytest.raises(ConfigError):
        compile_targets(net, vt, 0.1, "exact")
    with pytest.raises(ConfigError):
        compile_targets(net, vt, 0.1, "bogus")


def test_next_variable_prefers_shared_influence():
    net, g = _net([
        decl("A", (), And((Var("x1"), Var("x2")))),
        decl("B", (), And((Var("x1"), Var("x3")))),
    ], ("A", "B"))
    vt = VarTable.of(("x1", 0.5), ("x2", 0.5), ("x3", 0.5))
    s = Search(net, vt, 0.0, "exact")
    assert s.next_variable() == "x1"
    s.state.assign("x1", True, 1.0)
    # x2 and x3 now tie; the lower table index wins
    assert s.next_variable() == "x2"


def test_next_variable_single_remaining():
    net, g = _net([decl("A", (), Var("z"))], ("A",))
    vt = VarTable.of(("z", 0.3),)
    s = Search(net, vt, 0.0, "exact")
    assert s.next_variable() == "z"


def test_certain_variables_preassigned():
    net, g = _net([decl("T", (), And((Var("a"), Var("b"))))], ("T",))
    vt = VarTable.of(("a", 1.0), ("b", 0.5))
    r = compile_targets(net, vt, 0.0, "exact")
    lo, hi = r.bounds("T")
    assert abs(lo - 0.5) < 1e-12 and abs(hi - 0.5) < 1e-12
    assert r.stats.branches <= 3


def test_unknown_variable_rejected():
    net, g = _net(
        [decl("T", (), And((Var("x"), Var("ghost"))))], ("T",),
        variables={"x", "ghost"})
    vt = VarTable.of(("x", 0.5),)  # 'ghost' is not in the table
    with pytest.raises(ConfigError, match="not in the variable table"):
        compile_targets(net, vt, 0.0, "exact")


def test_undecidable_target_rejected():
    # no variable in the table influences the target and the initial masks
    # cannot settle it either
    net, g = _net(
        [decl("T", (), Var("ghost"))], ("T",), variables={"ghost"})
    vt = VarTable(())
    with pytest.raises(ConfigError):
        compile_targets(net, vt, 0.0, "exact")


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 400))
def test_exactness_random_instances(seed):
    prog, vt, targets = random_instance(seed, max_vars=12)
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    r = compile_targets(net, vt, 0.0, "exact")
    ores = oracle_probabilities(g, vt, targets)
    for tb in r.targets:
        p = ores.probabilities[tb.eid]
        assert abs(tb.lower - p) < 1e-9
        assert abs(tb.upper - p) < 1e-9


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 200), st.sampled_from(["eager", "lazy", "hybrid"]),
       st.sampled_from([0.01, 0.1, 0.3]))
def test_epsilon_validity(seed, scheme, eps):
    prog, vt, targets = random_instance(seed, max_vars=10)
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    r = compile_targets(net, vt, eps, scheme)
    ores = oracle_probabilities(g, vt, targets)
    for tb in r.targets:
        p = ores.probabilities[tb.eid]
        assert tb.lower - 1e-12 <= p <= tb.upper + 1e-12
        assert tb.upper - tb.lower <= 2 * eps + 1e-12


def test_anytime_bounds_only_tighten():
    prog, vt, targets = random_instance(42, max_vars=10)
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    snapshots = []

    def on_branch(state):
        snapshots.append((list(state.problower), list(state.probupper)))

    r = compile_targets(net, vt, 0.0, "exact", on_branch=on_branch)
    final_lo = [tb.lower for tb in r.targets]
    final_hi = [tb.upper for tb in r.targets]
    prev_lo = [0.0] * len(final_lo)
    prev_hi = [1.0] * len(final_hi)
    for lo, hi in snapshots:
        for i in range(len(final_lo)):
            assert lo[i] >= prev_lo[i] - 1e-12
            assert hi[i] <= prev_hi[i] + 1e-12
            assert lo[i] <= final_lo[i] + 1e-9
            assert hi[i] >= final_hi[i] - 1e-9
        prev_lo, prev_hi = lo, hi


def test_hybrid_work_nonincreasing_in_epsilon():
    for seed in (1, 5, 9, 23):
        prog, vt, targets = random_instance(seed, max_vars=10)
        g = ground(prog, targets, variables=set(vt.index))
        net = build_network(g)
        counts = []
        for eps in (0.01, 0.1, 0.3):
            counts.append(compile_targets(net, vt, eps, "hybrid").stats.branches)
        assert counts[0] >= counts[1] >= counts[2], (seed, counts)


def test_hybrid_budget_conservation():
    from manyworlds.distributed import run_distributed
    for seed in (3, 8, 13):
        prog, vt, targets = random_instance(seed, max_vars=10)
        g = ground(prog, targets, variables=set(vt.index))
        net = build_network(g)
        for eps in (0.05, 0.2):
            r = compile_targets(net, vt, eps, "hybrid")
            assert r.stats.pruned_mass <= 2 * eps + 1e-12
            for workers in (1, 2):
                d = run_distributed(net, vt, eps, "hybrid", workers=workers,
                                    job_depth=2)
                assert d.stats.pruned_mass <= 2 * eps + 1e-12
                if workers == 1:
                    assert abs(d.stats.pruned_mass
                               - r.stats.pruned_mass) <= 1e-12


def test_stats_report_format():
    net, g = _net([decl("T", (), Var("x"))], ("T",))
    vt = VarTable.of(("x", 0.5),)
    r = compile_targets(net, vt, 0.0, "exact")
    text = r.stats.report()
    assert "branches=" in text and "propagations=" in text and "fused=" in text


def test_fused_evaluations_repeat_from_run_to_run():
    prog, vt, targets = random_instance(42, max_vars=8)  # sums of guards
    g = ground(prog, targets, variables=set(vt.index))
    net = build_network(g)
    runs = [compile_targets(again, vt, 0.0, "exact").stats.as_dict()
            for again in (net, net, build_network(g))]
    assert runs[0]["fused"] > 0 and runs[0] == runs[1] == runs[2]


def test_decided_at_initialisation():
    net, g = _net([decl("T", (), TRUE)], ("T",), variables={"x"})
    vt = VarTable.of(("x", 0.5),)
    r = compile_targets(net, vt, 0.0, "exact")
    assert r.bounds("T") == (1.0, 1.0)
    assert r.stats.branches == 0


# --- final bounds: float dust is clamped, larger violations are loud ----------

def test_bounds_dust_is_clamped():
    tb = checked_bounds("T", 0.5 + 1e-15, 0.5)
    assert tb.lower == tb.upper == (0.5 + 1e-15 + 0.5) * 0.5
    tb = checked_bounds("T", -1e-15, 1.0 + 1e-15)
    assert (tb.lower, tb.upper) == (0.0, 1.0)


@pytest.mark.parametrize("lower,upper", [
    (0.5 + 1e-6, 0.5), (-1e-6, 0.5), (0.5, 1.0 + 1e-6), (float("nan"), 0.5),
])
def test_bounds_beyond_tolerance_raise(lower, upper):
    with pytest.raises(BoundsError):
        checked_bounds("T", lower, upper)


@pytest.mark.parametrize("gap,raises", [(1e-15, False), (1e-6, True)])
def test_planted_gap_in_finished_search_and_ledger(gap, raises):
    from manyworlds.distributed import _Ledger, _result_from_ledger
    net, g = _net([decl("T", (), And((Var("x0"), Var("x1"))))], ("T",))
    vt = VarTable.of(("x0", 0.5), ("x1", 0.5))
    search = Search(net, vt, 0.0, "exact")
    search.run()
    search.state.problower[0] = search.state.probupper[0] + gap
    ledger = _Ledger([0.25 + gap], [0.25], search.state.stats)
    for finish in (lambda: finish_result(search),
                   lambda: _result_from_ledger(net, ledger, "exact", 0.0)):
        if raises:
            with pytest.raises(BoundsError, match="T"):
                finish()
        else:
            result = finish()
            tb = result.targets[0]
            assert tb.lower == tb.upper
            assert 0.0 < result.clamp <= gap  # the crossing met half way


def _reference_ancestor_bits(net):
    """A memoised downward walk over the nodes' children and carry payloads.

    ``below(nid, t)`` is the set of variables under the instance of ``nid``
    at iteration ``t``; a carry reads its ``init`` at t=0 and its ``source``
    at t-1.  Each variable's mask has a bit per instance above it.
    """
    N, T = len(net.nodes), net.T
    memo = {}

    def below(nid, t):
        node = net.nodes[nid]
        if not node.in_loop:
            t = 0
        if (nid, t) not in memo:
            if node.kind == "var":
                out = {node.payload}
            elif node.kind == "loop":
                out = (below(node.payload["init"], 0) if t == 0
                       else below(node.payload["source"], t - 1))
            else:
                out = set().union(*(below(c, t) for c in node.children))
            memo[nid, t] = out
        return memo[nid, t]

    out = {name: 0 for name in net.var_nodes}
    for nid, node in enumerate(net.nodes):
        for t in range(T) if node.in_loop else (0,):
            for name in below(nid, t):
                out[name] |= 1 << (t * N + nid if node.in_loop else nid)
    return out


def test_ancestor_bits_match_upward_search(line_dataset):
    nets = []
    for seed in range(20):
        prog, vt, targets = random_instance(seed, max_vars=7)
        nets.append(build_network(ground(prog, targets,
                                         variables=set(vt.index))))
    line_dataset.params.iterations = 3
    prog, meta = build_kmedoids_program(line_dataset)
    nets.append(build_network(ground_folded(
        prog, (meta["targets"],), set(line_dataset.vartable.index))))
    assert nets[-1].T == 3
    for net in nets:
        # restated over the kept slots: a fused slot lies above no variable
        rules, kept = net.slot_tables().rules, 0
        for slot, rule in enumerate(rules):
            kept |= (rule is not None) << slot
        assert ancestor_bits(net) == {
            name: bits & kept
            for name, bits in _reference_ancestor_bits(net).items()}
        assert ancestor_bits(net) is ancestor_bits(net)  # computed once
