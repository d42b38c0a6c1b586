import os
import re

import pytest

from conftest import FIXTURES
from manyworlds.events import (
    Add, And, Atom, CondVal, Declarations, Dist, Guard, Mul, Not, Or, Pow,
    Ref, TypeMismatch, Var, TRUE, map_children,
)
from manyworlds.eventprog import (
    Affine, Decl, EventProgram, GroundError, Loop, ProgramSyntaxError, decl,
    emit_event_program, ground, ground_folded,
    parse_event_program, ref,
)
from manyworlds.kmedoids import build_kmedoids_program, example_line_dataset
from manyworlds.network import build_network
from manyworlds.oracle import oracle_probabilities
from manyworlds.randprog import random_instance


def test_simple_loop_grounding():
    p = EventProgram((Loop("i", 0, 2, (decl("D", ("i",), ref("x", )),)),))
    # D[i] := x  for i in 0..1
    g = ground(p, ("D*",))
    assert list(g.decls) == ["D[0]", "D[1]"]


def test_duplicate_assignment_rejected():
    p = EventProgram((decl("M", (0,), TRUE), decl("M", (0,), TRUE)))
    with pytest.raises(GroundError, match="assigned twice"):
        ground(p, ("*",))


def test_forward_reference_rejected():
    p = EventProgram((decl("A", (), Ref("B")), decl("B", (), TRUE)))
    with pytest.raises(GroundError, match="unresolved"):
        ground(p, ("*",), variables=set())


def test_index_arithmetic_in_identifiers():
    p = EventProgram((
        decl("M", (-1,), TRUE),
        Loop("i", 0, 3, (
            Decl("M", (Affine.of(0, i=2),), Ref("M", (Affine.of(-1, i=2),))),
            Decl("M", (Affine.of(1, i=2),), Ref("M", (Affine.of(0, i=2),))),
        )),
    ))
    g = ground(p, ("*",))
    assert list(g.decls) == ["M[-1]", "M[0]", "M[1]", "M[2]", "M[3]", "M[4]",
                             "M[5]"]


def test_family_instance_counts_for_clustering_program(line_dataset):
    line_dataset.params.iterations = 1
    prog, meta = build_kmedoids_program(line_dataset)
    g = ground(prog, (meta["targets"],), variables=set(line_dataset.vartable.index))
    count = lambda fam: sum(1 for e in g.decls if e.startswith(fam + "["))
    n, k = 4, 2
    assert count("InCl") == n * k
    assert count("InClB") == n * k
    assert count("DistSum") == n * k
    assert count("Centre") == n * k
    assert count("CentreB") == n * k
    assert count("M") == k + k  # initial plus one iteration
    assert count("O") == n and count("Obj") == n


def test_target_pattern_must_match():
    p = EventProgram((decl("A", (), TRUE),))
    with pytest.raises(GroundError, match="matches no declaration"):
        ground(p, ("Nope*",))


def test_grounding_resolution_matches_inlining():
    text = """
A := x1 & !x2
B := A | x3
S := (B ? 2.0) + (A ? 1.0)
"""
    g = ground(parse_event_program(text), ("S", "B"), variables={"x1", "x2", "x3"})
    for w in range(8):
        nu = {"x1": bool(w & 1), "x2": bool(w & 2), "x3": bool(w & 4)}
        direct_b = (nu["x1"] and not nu["x2"]) or nu["x3"]
        values = Declarations(g.decls).values(nu)
        assert values["B"] is direct_b
        expect = (2.0 if direct_b else 0.0) + (1.0 if nu["x1"] and not nu["x2"] else 0.0)
        got = values["S"]
        assert not isinstance(got, bool)
        if expect == 0.0 and not direct_b and not (nu["x1"] and not nu["x2"]):
            from manyworlds.events import U
            assert got is U
        else:
            assert abs(got - expect) < 1e-12


def test_round_trip_parse_emit_parse():
    text = """
Obj[0] := x1 | x3
Obj[1] := !x2 & x4
O[0] := Obj[0] ? [0.0]
S := (Obj[0] ? 2.0) + (Obj[1] ? 3.0)
P := pow(S, 2) * inv(S)
D := dist(O[0], O[0])
forall it in 0..2:
  A[it] := Obj[0] & all(j, 0, 2, [ (Obj[1] ? 1.0) <= sum(p, 0, 2, (Obj[0] ? 1.0)) ])
"""
    p1 = parse_event_program(text)
    p2 = parse_event_program(emit_event_program(p1))
    assert p1 == p2


def test_inv_reads_as_a_power_of_minus_one():
    p = parse_event_program("S := (x1 ? 2.0)\nP := inv(S)\nQ := pow(S, -1)\n")
    assert p.items[1].expr == Pow(Ref("S"), -1) == p.items[2].expr
    assert "P := pow(S, -1)\n" in emit_event_program(p)


def test_grounded_emission_parses_back():
    ds = example_line_dataset()
    prog, meta = build_kmedoids_program(ds)
    g = ground(prog, (meta["targets"],), variables=set(ds.vartable.index))
    text = emit_event_program(EventProgram(
        tuple(Decl(eid, (), e) for eid, e in g.decls.items())))
    p2 = parse_event_program(text)
    g2 = ground(p2, (meta["targets"],), variables=set(ds.vartable.index))
    assert list(g.decls) == list(g2.decls)
    nu = {"x1": True, "x2": False, "x3": True, "x4": True}
    v1 = Declarations(g.decls).values(nu)
    v2 = Declarations(g2.decls).values(nu)
    assert v1 == v2


def _collapsed(e):
    """``e`` with each ``Guard(g, CondVal(true, v))`` as ``CondVal(g, v)``,
    which is how the parser reads the emitted ``(g ? ((true ? v)))``."""
    if type(e) is Guard and type(e.body) is CondVal and e.body.guard is TRUE:
        return CondVal(_collapsed(e.guard), e.body.value)
    return map_children(e, _collapsed)


def test_emitted_random_programs_parse_back():
    # comparison atoms as guards, ``([ a < b ] ? v)``, included
    for seed in range(500):
        prog, vt, targets = random_instance(seed)
        variables = set(vt.index)
        direct = ground(prog, targets, variables)
        text = emit_event_program(prog)
        reparsed = ground(parse_event_program(text), targets, variables)
        assert reparsed.decls == {
            eid: _collapsed(e) for eid, e in direct.decls.items()}, seed
        assert (oracle_probabilities(reparsed, vt).probabilities
                == oracle_probabilities(direct, vt).probabilities), seed


def test_folded_requires_adjacent_references():
    text = """
B[-1] := x1
B[-2] := x2
forall it in 0..3:
  B[it] := B[it-2]
"""
    from manyworlds.network import NetworkError
    fp = ground_folded(parse_event_program(text), ("B[2]",), variables={"x1", "x2"})
    with pytest.raises(NetworkError, match="previous"):
        build_network(fp)


def test_folded_target_must_be_final_iteration():
    text = """
B[-1] := x1
forall it in 0..3:
  B[it] := B[it-1]
"""
    with pytest.raises(GroundError, match="final-iteration"):
        ground_folded(parse_event_program(text), ("B[-1]",), variables={"x1"})
    with pytest.raises(GroundError, match="matches no"):
        ground_folded(parse_event_program(text), ("B[0]",), variables={"x1"})


def test_folded_body_declaring_one_eid_twice_is_rejected():
    # both routes refuse it, with the same message
    prog = parse_event_program("forall it in 0..2:\n  B[it] := x0\n"
                               "  B[it] := x1\n")
    for grounder in (ground, ground_folded):
        with pytest.raises(GroundError, match=r"identifier 'B\[0\]' assigned twice"):
            grounder(prog, ("B[1]",), variables={"x0", "x1"})


@pytest.mark.parametrize("count,body,eid", [
    (2, "B[it] := x0\n  B[1] := x1", "B[1]"),
    (2, "B[it] := x0\n  B[it+1] := x1", "B[1]"),
    (2, "B[0] := x0", "B[0]"),
    (3, "B[2*it] := x0\n  B[it+2] := x1", "B[2]"),
], ids=["constant-second", "shifted", "constant-only", "scaled"])
def test_folded_body_colliding_at_a_later_iteration_is_rejected(count, body,
                                                                 eid):
    # every iteration's eids are checked, so both routes report the eid
    # that ``ground`` meets first
    prog = parse_event_program("forall it in 0..%d:\n  %s\n" % (count, body))
    message = "^%s$" % re.escape("identifier %r assigned twice" % eid)
    for grounder in (ground, ground_folded):
        with pytest.raises(GroundError, match=message):
            grounder(prog, ("B*",), variables={"x0", "x1"})


def test_affine_rendering_round_trip():
    for a in (Affine(3), Affine.of(-1, i=2), Affine.of(0, it=1), Affine.of(5, j=-3)):
        assert str(a)  # renders without error
    assert str(Affine.of(-1, i=2)) == "2*i-1"
    assert str(Affine.of(1, i=2)) == "2*i+1"
    assert str(Affine(0)) == "0"
    assert Affine.of(-1, i=2).eval({"i": 3}) == 5
    assert Affine.of(0, i=1).shift("i", -1) == Affine.of(-1, i=1)


def test_shared_bare_name_resolves_where_it_is_grounded():
    # one source expression, loop-invariant in both loops, names the bare
    # ``y``: a variable before ``y := ...`` is declared, that declaration
    # after it, so a memo must not hand the first grounding to the second
    shared = And((Ref("A", (Affine(0),)), Ref("y")))
    program = EventProgram((
        decl("A", (0,), Var("x0")),
        Loop("i", 0, 2, (Decl("B", (Affine.var("i"),), shared),)),
        decl("y", (), Var("x1")),
        Loop("j", 0, 2, (Decl("C", (Affine.var("j"),), shared),)),
    ))
    g = ground(program, ("*",), {"x0", "x1", "y"})
    for t in (0, 1):
        assert g.decls["B[%d]" % t] == And((Ref("A[0]"), Var("y")))
        assert g.decls["C[%d]" % t] == And((Ref("A[0]"), Ref("y")))


def test_expression_rewriters_leave_no_cyclic_garbage(line_dataset):
    # a reference cycle per rewritten declaration (say, a recursive closure)
    # stays in memory until the next full collection: on the benchmark's
    # exact-unfolded grounding that raised the peak footprint by about 10%
    import gc
    from manyworlds.datagen import _points_to_refs, _resolve_names
    from manyworlds.eventprog import EventParser, _bind, _Grounder, format_expr
    i = Affine.var("i")
    e = And((Ref("A", (i,)), CondVal(Var("x"), i)))
    event = line_dataset.points[3].event
    # the parser gives names as Refs; _resolve_names makes variables of them
    parsed = EventParser(format_expr(event), 1).parse_expr()
    calls = [
        lambda: _Grounder({"A[1]"}, None).walk(e, {"i": 1, "j": 0}),
        lambda: _bind(e, {}),
        lambda: _bind(e, {"i": 2}),
        lambda: _resolve_names(parsed, {"x2", "x4"}, ()),
        lambda: _points_to_refs(event, {}),
        line_dataset.lineage,
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0, call
    finally:
        gc.enable()


def test_front_end_entry_points_leave_no_cyclic_garbage(kmedoids_src,
                                                        line_dataset):
    # a self-referencing nested function leaves a cycle per call that holds
    # what it closes over, such as the whole grounded program, until the next
    # full collection
    import gc
    from manyworlds.translate import translate_to_event_program
    from manyworlds.userlang import (
        format_user_program, parse_user_program, validate_user_program,
    )
    ast = parse_user_program(kmedoids_src)
    tr = translate_to_event_program(ast, line_dataset)
    text = emit_event_program(tr.program)
    vs = set(line_dataset.vartable.index)
    target = tr.loop_final_pattern("Centre")
    grounded = ground(tr.program, (target,), vs)
    folded = ground_folded(tr.program, (target,), vs)
    calls = {
        "parse_user_program": lambda: parse_user_program(kmedoids_src),
        "format_user_program": lambda: format_user_program(ast),
        "validate_user_program": lambda: validate_user_program(ast),
        "translate_to_event_program":
            lambda: translate_to_event_program(ast, line_dataset),
        "emit_event_program": lambda: emit_event_program(tr.program),
        "parse_event_program": lambda: parse_event_program(text),
        "ground": lambda: ground(tr.program, (target,), vs),
        "ground_folded": lambda: ground_folded(tr.program, (target,), vs),
        "build_network": lambda: build_network(grounded),
        "build_network folded": lambda: build_network(folded),
    }
    for call in calls.values():
        call()  # first calls may fill caches that later ones reuse
    gc.collect()
    gc.disable()
    try:
        garbage = {}
        for name, call in calls.items():
            call()
            garbage[name] = gc.collect()
    finally:
        gc.enable()
    assert garbage == dict.fromkeys(calls, 0)


_S, _V = CondVal(TRUE, 1.0), CondVal(TRUE, (1.0, 2.0))


@pytest.mark.parametrize("expr,message", [
    (And((Var("x"), _S)), "boolean connective over non-event"),
    (Not(_V), "boolean connective over non-event"),
    (Atom("<=", Var("x"), _S), "atom compares events"),
    (Atom("=", _S, _V), "atom compares scalar with vector"),
    (Atom("<=", _V, _V), "ordered comparison on vectors"),
    (CondVal(_S, 1.0), "guard is not an event"),
    (Guard(_S, _S), "guard is not an event"),
    (Guard(Var("x"), Var("y")), "guarded value is an event"),
    (Add((_S, _V)), "sum over mixed kinds"),
    (Add((_S, Var("x"))), "sum over mixed kinds"),
    (Mul((_S, Var("x"))), "product over events"),
    pytest.param(Pow(_V, -1), "power requires a scalar",
                 id="-an inverse requires a scalar"),
    (Pow(_V, 2), "power requires a scalar"),
    (Dist(_V, _S), "dist requires vector operands"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_ground_rejects_ill_typed_declarations(expr, message):
    # grounding does not type: the network builder is the one check
    g = ground(EventProgram((decl("A", (), expr),)), ("A",))
    with pytest.raises(TypeMismatch, match="^%s$" % message):
        build_network(g)


@pytest.mark.parametrize("text,message", [
    ("A := 1.0 | x1\n", "boolean connective over non-event"),
    ("A := [ x1 | x2 <= 1.0 ]\n", "atom compares events"),
    ("A := !(x1 ? 1.0)\n", "boolean connective over non-event"),
    ("A := x1 ? [ x2 <= 1.0 ]\n", "atom compares events"),
    ("A := x1 ? [ (x2 ? 2.0) <= 1.0 ]\n", "guarded value is an event"),
    ("A := x1\nB := x2 ? (A)\n", "guarded value is an event"),
    ("A := all(j, 0, 2, x1 ? 1.0)\n", "boolean connective over non-event"),
], ids=["or-of-number", "atom-of-event", "not-of-cval", "guarded-bad-atom",
        "guarded-atom", "guarded-event-ref", "all-of-cvals"])
def test_kinds_are_decided_at_build_not_parse(text, message):
    # the parser reads syntax; the network builder tells events from c-values
    g = ground(parse_event_program(text), ("*",))
    with pytest.raises(TypeMismatch, match="^%s$" % message):
        build_network(g)


def test_build_network_reads_kinds_of_earlier_declarations():
    p = EventProgram((decl("S", (), _S), decl("A", (), Or((Var("x"), Ref("S"))))))
    g = ground(p, ("A",))
    with pytest.raises(TypeMismatch, match="^boolean connective over non-event$"):
        build_network(g)


@pytest.mark.parametrize("items", [
    (decl("A", (), And((Not(_S), Ref("Missing")))),),
    (decl("A", (), And((Ref("Missing"), Not(_S)))),),
    (decl("A", (), Not(_S)), decl("B", (), Ref("Missing"))),
], ids=["kind-error-first", "name-error-first", "kind-error-declared-first"])
def test_ground_reports_unresolved_names_before_kind_errors(items):
    with pytest.raises(GroundError, match="unresolved reference 'Missing'"):
        ground(EventProgram(items), ("A",), variables={"x"})


@pytest.mark.parametrize("text,line,col,message", [
    ("A := true\nB := x1 $ x2\n", 2, 9, "unexpected character"),
    ("A[?] := true\n", 1, 3, "bad index expression"),
    ("A := true\nB := [ A ? 1.0 ]\n", 2, 16, "expected comparator"),
    ("A := x1 x2\n", 1, 9, "trailing tokens"),
    ("A := true\n  B := false\n", 2, 3, "unexpected indentation"),
    ("forall i in 0..2:\n  A[i] := all(j, 0, i, x1)\n", 2, 19,
     "bounds must be constant"),
    ("A := pow(x1 ? 2.0, 2.5)\n", 1, 20,
     "power exponent must be an integer"),
    ("A := pow(x1 ? 2.0)\n", 1, 18, "expected ,"),
    ("A := dist(x1 ? [1.0])\n", 1, 21, "expected ,"),
    ("A := x1 ? 1.0 ? 2.0\n", 1, 15, "trailing tokens"),
    ("A := x1 ?\n", 1, 10, "expected an expression, found end of line"),
    ("A := sum & x1\n", 1, 10, "expected \\(, found '&'"),
    ("forall i in 0..2\n  A[i] := x1\n", 1, 17,
     "expected :, found end of line"),
    ("A := x1 & sum\n", 1, 14, "expected \\(, found end of line"),
], ids=["character", "index", "comparator", "trailing", "indentation",
        "fold-bounds", "pow-exponent", "pow-arity", "dist-arity",
        "chained-guard", "guard-without-value", "reserved-word",
        "forall-without-colon", "reserved-word-at-end"])
def test_event_program_syntax_errors(text, line, col, message):
    with pytest.raises(ProgramSyntaxError, match=message) as info:
        parse_event_program(text)
    assert (info.value.line, info.value.col) == (line, col)


def test_event_program_line_continues_across_an_open_bracket():
    joined = parse_event_program("A := (x1 | x2) & x3\nB := !A\n")
    assert parse_event_program("A := (x1 |\n  x2) & x3\nB := !A\n") == joined
    with pytest.raises(ProgramSyntaxError, match="unclosed bracket"):
        parse_event_program("A := (x1 |\n")


def test_readme_event_program_parses():
    # the documented syntax is the syntax the parser accepts
    with open(os.path.join(FIXTURES, "..", "..", "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("**Event program**"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    program = parse_event_program(block)
    assert [type(item) for item in program.items] == [Decl, Decl, Loop]
