import itertools
import os
import random

import pytest

from conftest import FIXTURES, values_close
from manyworlds.datagen import Dataset, Params, Point, gen_correlations
from manyworlds.events import (
    Add, Declarations, Ref, Var, VarTable, children_of,
)
from manyworlds.eventprog import (
    Affine, Decl, EventProgram, GroundError, Loop, emit_event_program, ground,
    ground_folded, parse_event_program, ref,
)
from manyworlds.kmedoids import build_kmedoids_program, example_line_dataset
from manyworlds.oracle import InterpError, interpret_user_program
from manyworlds.translate import TranslateError, translate_to_event_program
from manyworlds.userlang import parse_user_program, validate_user_program

VERSIONING_SRC = """
M = 7
M = M+2
for i in range(0,2):
 M = M+i
 for j in range(0,3):
  M = M+1
M = M+1
"""


def _empty_dataset():
    return Dataset(VarTable(()), [], Params(k=1, iterations=1, medoids=(0,)))


def test_versioning_structure_matches_by_label():
    tr = translate_to_event_program(parse_user_program(VERSIONING_SRC),
                                    _empty_dataset())
    items = tr.program.items
    # M[0]:=7; M[1]:=M[0]+2; carry copy; loop; exit copy; M[3]:=M[2]+1
    heads = []
    for item in items:
        if isinstance(item, Decl):
            heads.append((item.name,) + tuple(str(i) for i in item.indices))
        else:
            heads.append(("forall", item.counter, item.lo, item.hi))
    assert heads[0] == ("M", "0")
    assert heads[1] == ("M", "1")
    assert heads[2] == ("M", "1", "-1")          # carry into the loop
    assert heads[3] == ("forall", "i", 0, 2)
    assert heads[4] == ("M", "2")                # copy back out of the loop
    assert heads[5] == ("M", "3")

    loop = items[3]
    inner = [(it.name,) + tuple(str(x) for x in it.indices)
             if isinstance(it, Decl) else ("forall", it.counter, it.lo, it.hi)
             for it in loop.body]
    assert inner[0] == ("M", "1", "2*i")         # M[1,2i] := M[1,2i-1] + i
    assert inner[1] == ("M", "1", "2*i", "-1")   # carry into the inner loop
    assert inner[2] == ("forall", "j", 0, 3)
    assert inner[3] == ("M", "1", "2*i+1")       # exit copy: M[1,2i,2]

    j_loop = loop.body[2]
    (h,) = j_loop.body
    assert (h.name,) + tuple(str(x) for x in h.indices) == ("M", "1", "2*i", "j")
    assert h.expr.children[0] == Ref("M", (Affine(1), Affine.of(0, i=2),
                                           Affine.of(-1, j=1)))
    # the loop exit references the last inner slot at the final counter value
    assert items[4].expr == Ref("M", (Affine(1), Affine(3)))


def test_versioning_final_value_is_17():
    tr = translate_to_event_program(parse_user_program(VERSIONING_SRC),
                                    _empty_dataset())
    g = ground(tr.program, ("*",), variables=set())
    vals = Declarations(g.decls).values({})
    assert type(vals[tr.final_eid("M")]) is not bool
    assert vals[tr.final_eid("M")] == 17
    env = interpret_user_program(parse_user_program(VERSIONING_SRC),
                                 _empty_dataset(), {})
    assert env["M"] == 17


def _assert_matches_interpreter(ast, ds):
    """Every element of every variable's final version equals the
    interpreter's value, in every world of ``ds``."""
    tr = translate_to_event_program(ast, ds)
    decls = Declarations(
        ground(tr.program, ("*",), variables=set(ds.vartable.index)).decls)
    names = ds.vartable.names()
    for w in range(1 << len(names)):
        nu = {name: bool((w >> j) & 1) for j, name in enumerate(names)}
        env = interpret_user_program(ast, ds, nu)
        vals = decls.values(nu)
        for var, (_path, dims, _kind) in tr.final_paths.items():
            for idx in itertools.product(*(range(d) for d in dims)):
                want = env[var]
                for i in idx:
                    want = want[i]
                assert values_close(vals[tr.final_eid(var, *idx)], want), (w, var, idx)


@pytest.mark.parametrize("src", [
    # each expanded element binds a comprehension variable to one integer
    "S = reduce_sum([pow(2, j) for j in range(0, 3)])\n",
    "n = 3\nS = reduce_sum([reduce_sum([1 for k in range(0, j)])"
    " for j in range(0, n)])\n",
    # a reassigned parameter is a variable, read before its reassignment
    "(k, it) = loadParams()\nS = k + 1\nk = 5\n",
    # the slot an empty loop's binding counts in its block takes a copy of
    # the current version, so later reads see the value from before
    "x = 5\nfor it in range(0, 2):\n for j in range(0, 0):\n  x = 1\n y = x\n",
    "x = 5\nfor j in range(0, 0):\n x = 1\ny = x\n",
    "A = [None] * 2\nA[0] = 1\nA[1] = 2\nfor it in range(0, 2):\n"
    " for j in range(0, 0):\n  A = [None] * 2\n  A[0] = 3\n  A[1] = 4\n"
    " y = A[1]\n",
], ids=["pow-by-comprehension-variable", "nested-comprehension-bound",
        "reassigned-parameter", "empty-loop-in-a-loop", "empty-loop",
        "empty-loop-array"])
def test_world_free_program_matches_interpreter(src):
    _assert_matches_interpreter(parse_user_program(src), _empty_dataset())


@pytest.mark.parametrize("src", [
    "s = [None] * 3\nfor i in range(0, 3):\n"
    " s[i] = reduce_sum([dist(O[i], O[0]) for i in range(0, 3)])\n",
    "s = reduce_sum([reduce_sum([dist(O[j], O[0]) for j in range(0, 2)])"
    " + dist(O[j], O[1]) for j in range(0, 3)])\n",
    "x = dist(O[0], O[1])\n"
    "s = reduce_sum([dist(O[x], O[0]) for x in range(0, 3)]) + x\n",
], ids=["loop-counter", "comprehension-variable", "variable"])
def test_comprehension_variable_hides_an_outer_name(src, line_dataset):
    """The comprehension's name reads its element; the outer binding
    returns after it, in every world of the line fixture."""
    ds = line_dataset
    ast = parse_user_program("(O, n) = loadData()\n" + src)
    tr = translate_to_event_program(ast, ds)
    decls = Declarations(
        ground(tr.program, ("*",), variables=set(ds.vartable.index)).decls)
    names = ds.vartable.names()
    for w in range(1 << len(names)):
        nu = {name: bool((w >> j) & 1) for j, name in enumerate(names)}
        env = interpret_user_program(ast, ds, nu)
        vals = decls.values(nu)
        want = env["s"] if isinstance(env["s"], list) else [env["s"]]
        got = [vals[tr.final_eid("s", *idx)] for idx in
               itertools.product(*(range(d) for d in tr.final_paths["s"][1]))]
        assert values_close(got, want), w


def test_array_flattening_counts():
    src = """
M = [None] * 2
for i in range(0,2):
 M[i] = [None] * 3
 for j in range(0,3):
  M[i][j] = 5
"""
    tr = translate_to_event_program(parse_user_program(src), _empty_dataset())
    g = ground(tr.program, ("*",), variables=set())
    assert len(g.decls) == 6  # one identifier per element of the 2x3 array


def test_single_assignment_invariant(kmedoids_src, line_dataset):
    tr = translate_to_event_program(parse_user_program(kmedoids_src), line_dataset)
    g = ground(tr.program, ("*",), variables=set(line_dataset.vartable.index))
    # ground() itself raises on duplicates; reaching here proves the property
    assert len(g.decls) > 0


@pytest.mark.parametrize("src_fixture,check_vars", [
    ("kmedoids_src", ("M", "InCl", "Centre", "DistSum")),
    ("kmeans_src", ("M", "InCl")),
])
def test_semantics_preservation_all_worlds(request, src_fixture, check_vars,
                                           line_dataset):
    # markov point events name earlier points, which the interpreter resolves
    markov = gen_correlations(6, "markov", group=2, iterations=2)
    ast = parse_user_program(request.getfixturevalue(src_fixture))
    for ds in (line_dataset, markov):
        tr = translate_to_event_program(ast, ds)
        g = ground(tr.program, ("*",), variables=set(ds.vartable.index))
        decls = Declarations(g.decls)
        names = ds.vartable.names()
        for w in range(1 << len(names)):
            nu = {name: bool((w >> j) & 1) for j, name in enumerate(names)}
            env = interpret_user_program(ast, ds, nu)
            vals = decls.values(nu)
            for var in check_vars:
                path, dims, kind = tr.final_paths[var]
                uval = env[var]
                for idx in itertools.product(*(range(d) for d in dims)):
                    got = vals[tr.final_eid(var, *idx)]
                    want = uval
                    for i in idx:
                        want = want[i]
                    assert values_close(got, want), (ds.meta, w, var, idx)


def _graph_dataset():
    vt = VarTable.of(("x1", 0.5),)
    pts = [Point("o%d" % i, (float(i),), Var("x1")) for i in range(3)]
    mat = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
    return Dataset(vt, pts, Params(k=1, iterations=2, medoids=(0,), power=2),
                   matrix=mat)


def test_graph_flow_semantics(graphflow_src):
    ds = _graph_dataset()
    ast = parse_user_program(graphflow_src)
    tr = translate_to_event_program(ast, ds)
    g = ground(tr.program, ("*",), variables={"x1"})
    decls = Declarations(g.decls)
    for world in ({"x1": True}, {"x1": False}):
        env = interpret_user_program(ast, ds, world)
        vals = decls.values(world)
        for a in range(3):
            for b in range(3):
                assert values_close(vals[tr.final_eid("M", a, b)],
                                    env["M"][a][b])


@pytest.mark.parametrize("src_fixture", ["kmedoids_src", "kmeans_src",
                                         "graphflow_src"])
def test_emitted_event_program_grounds_the_same(request, src_fixture,
                                                line_dataset):
    ds = _graph_dataset() if src_fixture == "graphflow_src" else line_dataset
    ast = parse_user_program(request.getfixturevalue(src_fixture))
    program = translate_to_event_program(ast, ds).program
    reparsed = parse_event_program(emit_event_program(program))
    assert ground(reparsed) == ground(program)


def test_reduce_filter_neutrality():
    # a filtered-out element must not affect the reduction
    src = """
B = 1 <= 2
C = 2 <= 1
S = reduce_sum([3 for i in range(0,1) if C])
A = reduce_and([C for i in range(0,1) if C])
O = reduce_or([B for i in range(0,1) if C])
P = reduce_mult([5 for i in range(0,1) if C])
N = reduce_count([1 for i in range(0,1) if B])
"""
    ds = _empty_dataset()
    ast = parse_user_program(src)
    tr = translate_to_event_program(ast, ds)
    g = ground(tr.program, ("*",), variables=set())
    env = interpret_user_program(ast, ds, {})
    from manyworlds.events import U
    vals = Declarations(g.decls).values({})
    assert vals[tr.final_eid("S")] is U
    assert env["S"] is U
    assert vals[tr.final_eid("A")] is True is env["A"]
    assert vals[tr.final_eid("O")] is False is env["O"]
    assert vals[tr.final_eid("P")] == 1 == env["P"]
    assert vals[tr.final_eid("N")] == 1 == env["N"]
    assert not isinstance(vals[tr.final_eid("P")], bool)
    assert not isinstance(vals[tr.final_eid("N")], bool)


def test_unresolved_dataset_binding(line_dataset):
    src = "(O, n, W) = loadData()\nS = W[0][0]\n"
    with pytest.raises(TranslateError, match="matrix"):
        translate_to_event_program(parse_user_program(src), _empty_dataset())
    # init() before any loadData() declares the points' lineage itself
    _assert_matches_interpreter(parse_user_program("M = init()\n"), line_dataset)


def test_name_bound_only_in_an_empty_loop():
    src = "(O, n) = loadData()\nfor i in range(0, n):\n x = 1\ny = x\n"
    with pytest.raises(TranslateError, match="'x' is bound only in a loop"):
        translate_to_event_program(parse_user_program(src), _empty_dataset())


# --- a seeded sweep over versioning ---------------------------------------------

_SCALARS = ("a", "b", "c")


def _sweep_program(rng):
    """A world-free program over the scalars ``a``, ``b``, ``c`` and an array
    ``A`` of two elements, whose every whole assignment is followed by
    writes of both elements from scalars.  Loops nest to depth 3 over ranges
    of 0 to 3 iterations, so reads before writes, carries into nested loops
    and empty ranges all occur."""
    def expr():
        y, z = rng.choice(_SCALARS), rng.choice(_SCALARS)
        return rng.choice(["1", y, y + " + 1", y + " + " + z, "A[0]",
                           "A[1] + " + y])

    def block(depth, indent):
        lines = []
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            if r < 0.35 and depth < 3:
                lines.append("%sfor %s in range(0, %d):"
                             % (indent, "ijk"[depth], rng.randint(0, 3)))
                lines += block(depth + 1, indent + " ")
            elif r < 0.5:
                lines.append(indent + "A = [None] * 2")
                lines += ["%sA[%d] = %s" % (indent, k, rng.choice(_SCALARS))
                          for k in (0, 1)]
            else:
                lines.append("%s%s = %s" % (indent, rng.choice(_SCALARS), expr()))
        return lines

    lines = ["%s = %d" % (v, n) for n, v in enumerate(_SCALARS, 1)
             if rng.random() < 0.7]
    if rng.random() < 0.7:
        lines += ["A = [None] * 2", "A[0] = 1", "A[1] = 2"]
    return "\n".join(lines + block(0, "")) + "\n"


def test_versioning_sweep_matches_interpreter():
    """Each generated program the validator accepts either translates,
    grounds and equals the interpreter in every final value, or fails in
    the translator and in the interpreter alike."""
    rng = random.Random(27)
    ds = _empty_dataset()
    kept = both_fail = 0
    for _ in range(600):
        src = _sweep_program(rng)
        ast = parse_user_program(src)
        if validate_user_program(ast):
            continue
        kept += 1
        try:
            env = interpret_user_program(ast, ds, {})
        except InterpError:
            env = None
        try:
            tr = translate_to_event_program(ast, ds)
            g = ground(tr.program, ("*",), variables=set())
        except (TranslateError, GroundError):
            assert env is None, src
            both_fail += 1
            continue
        assert env is not None, src
        vals = Declarations(g.decls).values({})
        assert set(tr.final_paths) == {v for v in env if v in _SCALARS + ("A",)}
        for var, (_path, dims, _kind) in tr.final_paths.items():
            got = [vals[tr.final_eid(var, *idx)]
                   for idx in itertools.product(*(range(d) for d in dims))]
            assert got == (env[var] if dims else [env[var]]), (src, var)
    assert kept >= 250 and 0 < both_fail < kept


# --- the validator is the one gate ------------------------------------------------

ROW = "A = [None] * 2\n"
LOAD = "(O, n) = loadData()\n"


@pytest.mark.parametrize("src,rule", [
    # the interpreter aliases B to A, so x = 5
    (ROW + "A[0] = 1\nA[1] = 2\nB = A\nB[0] = 5\nx = A[0]\n", "array-value"),
    (ROW + "for i in range(0, 2):\n A[i] = [None] * 2\n"
     " for j in range(0, 2):\n  A[i][j] = 1\nX = A[0]\n", "array-value"),
    (ROW + "A[0] = 3\nA[1] = 0\nB = breakTies(A)\n", "breakties-arg"),
    (ROW + "A[0] = 3\nA[1] = 0\n"
     "S = reduce_sum([1 for i in range(0, 2) if A[i]])\n", "filter-type"),
    (ROW + "A[0] = [None] * 2\nA[1] = [None] * 3\n", "array-size"),
    (ROW + "A[0] = 1 <= 2\nx = invert(A[0])\n", "call-type"),
    (ROW + "A[0] = 1 <= 2\nx = A[0] + 1\n", "sum-type"),
    (ROW + "A[0] = 3\nA[1] = 0\nb = reduce_and([A[i] for i in range(0, 2)])\n",
     "reduce-type"),
    (LOAD + "M = [None] * 2\nM[0] = O[0]\nM[1] = O[1]\nb = M[0] <= M[1]\n",
     "compare-type"),
    ("M = init()\n" + LOAD + "d = dist(O[0], M[1])\n", None),
    (ROW + "x = A[0]\n", "unwritten-read"),
    (ROW + "for i in range(0, 2):\n x = A[i]\n A[i] = 1\n", "unwritten-read"),
    (ROW + "A[0] = 1\nA[1] = 2\nfor i in range(0, 2):\n x = A[i]\n", None),
    # a count of no kept element is 0, so a comparison on it is decided
    (LOAD + "c = reduce_count([1 for i in range(0, 0)])\nb = c < 0\n", None),
    (ROW + "A[0] = 1 <= 0\nA[1] = 1 <= 0\n"
     "c = reduce_count([1 for i in range(0, 2) if A[i]])\nb = c < 0\n", None),
    (LOAD + "p = reduce_mult([dist(O[l], O[0]) + 1 for l in range(0, 3)])\n",
     None),
    (LOAD + "p = reduce_mult([dist(O[l], O[0]) + 1 for l in range(0, 3)"
     " if dist(O[l], O[1]) <= 1])\n", None),
    (LOAD + "v = O[0] + O[1]\nd = dist(v, O[2])\n", None),
    (LOAD + "d = dist(O[0], O[1]) + -2.5\nb = d <= -1\n", None),
], ids=["alias", "row-read", "numeric-breakties", "numeric-filter", "ragged-rows",
        "invert-boolean-element", "boolean-element-sum", "reduce-and-numbers",
        "vector-element-order", "init-before-load", "unwritten-array",
        "unwritten-before-loop-write", "written-before-loop", "count-of-none",
        "count-of-filtered-out", "reduce-mult", "reduce-mult-filtered",
        "vector-sum", "negative-literal"])
def test_validator_reports_what_does_not_translate(src, rule, line_dataset):
    """Each program is reported under its rule, or it translates, grounds and
    equals the interpreter in every world of the line fixture."""
    ast = parse_user_program(src)
    assert [d.rule for d in validate_user_program(ast)] == ([rule] if rule else [])
    if rule is None:
        _assert_matches_interpreter(ast, line_dataset)


# --- lineage: each point's event declared once ------------------------------------


def test_kmedoids_event_program_text_is_pinned(line_dataset):
    prog, _meta = build_kmedoids_program(line_dataset)
    with open(os.path.join(FIXTURES, "line_kmedoids.ep")) as fh:
        assert emit_event_program(prog) == fh.read()


def test_both_front_ends_declare_the_same_lineage(kmedoids_src, line_dataset):
    ds = line_dataset
    tr = translate_to_event_program(parse_user_program(kmedoids_src), ds)
    decls = [d for d in tr.program.items if isinstance(d, Decl)]
    text = emit_event_program(EventProgram(tuple(decls)))
    kmedoids_text = emit_event_program(build_kmedoids_program(ds)[0])
    for line in kmedoids_text.splitlines()[:ds.n]:  # Obj[l] := ...
        assert text.count(line + "\n") == 1, line
    # the guards and the initial medoid chains name the declarations
    objects = [d.expr for d in decls if d.name == "O"]
    assert [o.guard for o in objects] == [ref("Obj", l) for l in range(ds.n)]
    medoids = [d.expr for d in decls if d.name == "M"]
    assert medoids == [ds.initial_medoid(i) for i in range(ds.params.k)]


def test_folded_markov_lineage_grows_linearly(kmedoids_src):
    # twelve markov groups: each group's event names the previous group's
    # point twice, so a copy of the events in each point's guard doubles
    # with every group; declared once, each point adds a constant
    ds = gen_correlations(48, "markov", group=4, seed=0, iterations=2)
    tr = translate_to_event_program(parse_user_program(kmedoids_src), ds)
    f = ground_folded(tr.program, (tr.loop_final_pattern("Centre"),),
                      set(ds.vartable.index))
    bound = 16 * ds.n
    size, stack = 0, [e for eid, e in f.base.items()
                      if eid.startswith(("Obj[", "O["))]
    while stack and size <= bound:
        size += 1
        stack.extend(children_of(stack.pop()))
    assert size <= bound


# --- tie-break encoding ---------------------------------------------------------


def test_break_ties_keeps_first_true():
    src = """
B = [None] * 2
B[0] = 1 <= 2
B[1] = 1 <= 2
B = breakTies(B)
"""
    ds = _empty_dataset()
    tr = translate_to_event_program(parse_user_program(src), ds)
    g = ground(tr.program, ("*",), variables=set())
    vals = Declarations(g.decls).values({})
    assert vals[tr.final_eid("B", 0)] is True
    assert vals[tr.final_eid("B", 1)] is False


def test_break_ties_all_false_column():
    src = """
B = [None] * 2
B[0] = 2 <= 1
B[1] = 2 <= 1
B = breakTies(B)
"""
    ds = _empty_dataset()
    tr = translate_to_event_program(parse_user_program(src), ds)
    g = ground(tr.program, ("*",), variables=set())
    vals = Declarations(g.decls).values({})
    assert vals[tr.final_eid("B", 0)] is False
    assert vals[tr.final_eid("B", 1)] is False


TIE_SRC = """
(O, n) = loadData()
B = [None] * n
for i in range(0,n):
 B[i] = [None] * n
 for l in range(0,n):
  B[i][l] = dist(O[l],O[i]) <= 3.0
C = [None] * n
for l in range(0,n):
 C[l] = dist(O[l],O[1]) <= 2.5
T = %s(%s)
"""


@pytest.mark.parametrize("func", ["breakTies", "breakTies1", "breakTies2"])
def test_break_ties_matches_interpreter(func, line_dataset):
    """Each tie-breaking form over a family that depends on which points
    exist: the translation agrees with the interpreter in every world, and
    at most one entry of each tied group survives."""
    ds = line_dataset
    ast = parse_user_program(TIE_SRC % (func, "C" if func == "breakTies" else "B"))
    tr = translate_to_event_program(ast, ds)
    g = ground(tr.program, ("*",), variables=set(ds.vartable.index))
    decls = Declarations(g.decls)
    names = ds.vartable.names()
    ties = 0
    for w in range(16):
        nu = {names[j]: bool((w >> j) & 1) for j in range(4)}
        env = interpret_user_program(ast, ds, nu)
        vals = decls.values(nu)
        if func == "breakTies":
            got = [[vals[tr.final_eid("T", l)] for l in range(ds.n)]]
            want, family = [env["T"]], [env["C"]]
        else:
            got = [[vals[tr.final_eid("T", i, l)] for l in range(ds.n)]
                   for i in range(ds.n)]
            want, family = env["T"], env["B"]
        if func == "breakTies2":  # one survivor per column: check columns
            got, want, family = ([list(col) for col in zip(*m)]
                                 for m in (got, want, family))
        assert got == want, w
        for row, source in zip(got, family):
            assert sum(row) <= 1
            assert sum(row) == any(source)
            ties += sum(source) > 1
    assert ties  # the family has ties to break
