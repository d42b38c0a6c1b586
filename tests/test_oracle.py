import pytest

from manyworlds.datagen import gen_correlations
from manyworlds.events import (
    And, Declarations, Not, Or, TypeMismatch, Var, VarTable, TRUE,
    world_probability,
)
from manyworlds.eventprog import EventProgram, decl, ground, parse_event_program
from manyworlds.kmedoids import (
    build_kmedoids_program, direct_kmedoids, example_line_dataset,
)
from manyworlds.oracle import (
    OracleError, enumerate_worlds, oracle_probabilities,
    per_world_report, world_reports,
)
from manyworlds.network import build_network
from manyworlds.randprog import random_instance


def test_disjunction_probability():
    p = EventProgram((decl("E", (), Or((Var("x1"), Var("x3")))),))
    g = ground(p, ("E",), variables={"x1", "x3"})
    vt = VarTable.of(("x1", 0.6), ("x3", 0.7))
    res = oracle_probabilities(g, vt, ["E"])
    assert abs(res.probabilities["E"] - 0.88) < 1e-12
    assert res.evaluations == 4


def test_certain_event():
    p = EventProgram((decl("E", (), TRUE),))
    g = ground(p, ("E",), variables={"x"})
    vt = VarTable.of(("x", 0.5),)
    res = oracle_probabilities(g, vt, ["E"])
    assert res.probabilities["E"] == 1.0


def test_world_mass_sums_to_one(line_dataset):
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, (meta["targets"],), variables=set(line_dataset.vartable.index))
    res = oracle_probabilities(g, line_dataset.vartable, g.targets)
    assert abs(res.total_mass - 1.0) < 1e-12


def test_cap_refusal():
    vt = VarTable(tuple(("v%d" % i, 0.5) for i in range(5)))
    p = EventProgram((decl("E", (), Or(tuple(Var(n) for n in vt.names()))),))
    g = ground(p, ("E",), variables=set(vt.index))
    with pytest.raises(OracleError, match="cap"):
        oracle_probabilities(g, vt, ["E"], cap=4)
    assert oracle_probabilities(g, vt, ["E"], cap=5).evaluations == 32


def test_gray_order_covers_all_worlds():
    vt = VarTable.of(("a", 0.4), ("b", 0.9), ("c", 0.25))
    seen = set()
    total = 0.0
    flips = 0
    for nu, pr, flipped in enumerate_worlds(vt):
        seen.add(tuple(sorted(nu.items())))
        total += pr
        flips += flipped is not None
    assert len(seen) == 8
    assert flips == 7  # one variable flipped between consecutive worlds
    assert abs(total - 1.0) < 1e-12


def test_extreme_probabilities_zero_mass_side():
    vt = VarTable.of(("a", 1.0), ("b", 0.5))
    worlds = list(enumerate_worlds(vt))
    assert all(nu["a"] is True for nu, _pr, _f in worlds)
    assert len(worlds) == 2
    assert abs(sum(pr for _nu, pr, _f in worlds) - 1.0) < 1e-12


def test_walk_skips_unread_and_certain_variables():
    vt = VarTable.of(("a", 0.3), ("b", 0.6), ("unread", 0.5), ("sure", 1.0))
    p = EventProgram((
        decl("E", (), Or((Var("a"), Var("b")))),
        decl("F", (), And((Var("b"), Var("sure")))),
        decl("G", (), Or((Var("a"), Not(Var("sure"))))),
    ))
    g = ground(p, ("E", "F", "G"), variables=set(vt.index))
    res = oracle_probabilities(g, vt)
    assert res.evaluations == 4  # a and b; unread marginalises, sure is fixed
    assert len(list(world_reports(g, vt))) == 4
    names = vt.names()
    brute = dict.fromkeys(g.targets, 0.0)
    for w in range(1 << len(names)):
        nu = {n: bool((w >> j) & 1) for j, n in enumerate(names)}
        rep = per_world_report(g, vt, nu)
        for t in g.targets:
            if rep.values[t] is True:
                brute[t] += world_probability(nu, vt)
    for t in g.targets:
        assert abs(res.probabilities[t] - brute[t]) < 1e-12


def test_example_worlds_reproduce_depicted_clusterings(line_dataset):
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, (meta["targets"],), variables=set(line_dataset.vartable.index))

    r1 = per_world_report(g, line_dataset.vartable,
                          {"x1": True, "x2": False, "x3": True, "x4": True}, meta)
    assert r1.objects == [0, 2, 3]
    assert sorted(map(tuple, r1.clusters)) == [(0,), (2, 3)]

    for x4 in (False, True):
        r2 = per_world_report(
            g, line_dataset.vartable,
            {"x1": True, "x2": True, "x3": True, "x4": x4}, meta)
        assert r2.objects == [0, 1, 2]
        assert sorted(map(tuple, r2.clusters)) == [(0, 1), (2,)]


def test_empty_world_reports_nothing(line_dataset):
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, (meta["targets"],), variables=set(line_dataset.vartable.index))
    rep = per_world_report(g, line_dataset.vartable,
                           {"x1": False, "x2": False, "x3": False, "x4": False},
                           meta)
    assert rep.objects == []
    assert all(not c for c in rep.clusters)
    assert rep.medoids == [None, None]


def test_event_clusters_equal_direct_run_everywhere(line_dataset):
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, (meta["targets"],), variables=set(line_dataset.vartable.index))
    for rep in world_reports(g, line_dataset.vartable, meta):
        clusters, medoids = direct_kmedoids(line_dataset, rep.valuation)
        assert [sorted(c) for c in rep.clusters] == clusters, rep.valuation
        assert rep.medoids == medoids, rep.valuation


def test_report_probabilities_match_mass(line_dataset):
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, (meta["targets"],), variables=set(line_dataset.vartable.index))
    total = sum(rep.probability
                for rep in world_reports(g, line_dataset.vartable))
    assert abs(total - 1.0) < 1e-12


def test_world_reports_analyse_the_program_once(line_dataset, monkeypatch):
    from manyworlds import events
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, (meta["targets"],), variables=set(line_dataset.vartable.index))
    vt = line_dataset.vartable
    singles = [per_world_report(g, vt, rep.valuation, meta)
               for rep in world_reports(g, vt)]
    built = []
    real = events.Declarations
    monkeypatch.setattr(events, "Declarations",
                        lambda decls: built.append(decls) or real(decls))
    reports = list(world_reports(g, vt, meta))
    assert len(built) == 1
    assert [(r.valuation, r.probability) for r in reports] == [
        (nu, pr) for nu, pr, _f in enumerate_worlds(vt)]
    assert [r.values for r in reports] == [r.values for r in singles]
    assert [r.clusters for r in reports] == [r.clusters for r in singles]


# --- the oracle types what it evaluates, by the network's kind rule ----------

_VT = VarTable.of(("x1", 0.5), ("x2", 0.5))


def _grounded(text, targets):
    return ground(parse_event_program(text), targets, variables=set(_VT.index))


@pytest.mark.parametrize("walk", [
    lambda g: oracle_probabilities(g, _VT),
    lambda g: list(world_reports(g, _VT)),
    lambda g: per_world_report(g, _VT, {"x1": True, "x2": False}),
], ids=["oracle", "world-reports", "per-world-report"])
def test_oracle_refuses_an_ill_typed_program(walk):
    g = _grounded("S := (x1 ? 1.0)\nA := x2 | S\n", ("A",))
    with pytest.raises(TypeMismatch, match="boolean connective over non-event"):
        walk(g)


def test_oracle_refuses_a_c_value_target():
    g = _grounded("C := (x1 ? 1.0) + (x2 ? 2.0)\n", ("C",))
    with pytest.raises(OracleError, match="target 'C' is not an event"):
        oracle_probabilities(g, _VT)


def _assert_kinds_match_network(g):
    net = build_network(g)
    kinds = Declarations(g.decls).kinds
    assert kinds == {eid: net.nodes[nid].vkind
                     for eid, nid in net.node_of_eid.items()}


def test_declaration_kinds_match_network_random_programs():
    for seed in range(200):
        prog, vt, targets = random_instance(seed)
        _assert_kinds_match_network(ground(prog, targets, set(vt.index)))


def test_declaration_kinds_match_network_kmedoids(line_dataset):
    # the line fixture, and the exact-unfolded benchmark's pool-10 layout
    bench = gen_correlations(20, "positive", group=4, l=2, seed=3,
                             iterations=3, pool=10)
    for ds in (line_dataset, bench):
        prog, meta = build_kmedoids_program(ds)
        _assert_kinds_match_network(
            ground(prog, (meta["targets"],), set(ds.vartable.index)))
