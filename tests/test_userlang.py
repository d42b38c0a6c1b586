import re

import pytest

from manyworlds import userlang
from manyworlds.eventprog import ProgramSyntaxError
from manyworlds.userlang import (
    UAssign, UExtCall, UFor, format_user_program, parse_user_program,
    validate_user_program,
)


def test_single_declaration():
    p = parse_user_program("M = 7")
    assert len(p.items) == 1
    assert isinstance(p.items[0], UAssign)


def test_clustering_program_shape(kmedoids_src):
    p = parse_user_program(kmedoids_src)
    loops = [i for i in p.items if isinstance(i, UFor)]
    assert len(loops) == 1  # one outer iteration loop
    exts = [i for i in p.items if isinstance(i, UExtCall)]
    assert [e.func for e in exts] == ["loadData", "loadParams", "init"]
    assert not validate_user_program(p)


def test_centroid_program_validates(kmeans_src):
    p = parse_user_program(kmeans_src)
    assert not validate_user_program(p)


def test_graph_flow_program_validates(graphflow_src):
    p = parse_user_program(graphflow_src)
    assert not validate_user_program(p)


def test_reduce_requires_comprehension():
    with pytest.raises(ProgramSyntaxError, match="list comprehension"):
        parse_user_program("A = reduce_and(B)")


def test_syntax_error_carries_position():
    try:
        parse_user_program("M = = 3")
    except ProgramSyntaxError as exc:
        assert exc.line == 1
    else:
        raise AssertionError("expected a syntax error")


@pytest.mark.parametrize("text,col,message", [
    ("x = a & b", 7, "trailing tokens after expression"),
    ("(k, T) = loadParams() x", 23, "trailing tokens"),
    ("for i in range(0, 2): y", 23, "trailing tokens after ':'"),
], ids=["expression", "external-call", "for-header"])
def test_trailing_tokens_point_at_the_first_one(text, col, message):
    with pytest.raises(ProgramSyntaxError, match=message) as info:
        parse_user_program(text)
    assert (info.value.line, info.value.col) == (1, col)


@pytest.mark.parametrize("text,message", [
    ("for i in range(0, 2)\n  x = 1\n", "<input>:1:21: expected :, found end of line"),
    ("x = \n", "<input>:1:4: unexpected end of line"),
], ids=["for-without-colon", "missing-value"])
def test_end_of_line_errors_point_after_the_last_token(text, message):
    with pytest.raises(ProgramSyntaxError) as info:
        parse_user_program(text)
    assert str(info.value) == message


def test_comments_and_blank_lines():
    p = parse_user_program("""
# leading comment

M = 7   # trailing comment

N = 8
""")
    assert len(p.items) == 2


def test_non_constant_range_bound_flagged():
    p = parse_user_program("""
(O, n) = loadData()
n2 = dist(O[0], O[1])
for i in range(0, n2):
 M = 1
""")
    diags = validate_user_program(p)
    assert any(d.rule == "range-bound" for d in diags)


def test_reassigned_name_not_a_constant_bound():
    p = parse_user_program("""
n = 3
n = 4
for i in range(0, n):
 M = 1
""")
    diags = validate_user_program(p)
    assert any(d.rule == "range-bound" for d in diags)


@pytest.mark.parametrize("src,rule", [
    # the interpreter gives z = 81: x is 4 there, not a constant 2
    ("x = 2\ny = 3\nx = 4\nz = pow(y, x)\n", "pow-exponent"),
    # A has two elements and B three, so m is not a constant
    ("m = 2\nA = [None] * m\nm = 3\nB = [None] * m\n", "array-size"),
], ids=["pow-exponent", "array-size"])
def test_reassigned_name_not_a_constant(src, rule):
    diags = validate_user_program(parse_user_program(src))
    assert diags and all(d.rule == rule for d in diags)


def test_boolean_product_flagged():
    diags = validate_user_program(parse_user_program("x = True * 2\n"))
    assert [d.rule for d in diags] == ["mul-type"]


def test_sum_type_names_the_offending_operand():
    diags = validate_user_program(parse_user_program("x = 1 + True\n"))
    assert [(d.rule, d.message) for d in diags] == [("sum-type", "sum over bool")]


def test_feature_vector_component_flagged():
    # the event language has no component projection of a feature vector
    diags = validate_user_program(parse_user_program(
        "(O, n) = loadData()\nx = O[0][0]\n"))
    assert [d.rule for d in diags] == ["vec-index"]


@pytest.mark.parametrize("src", [
    # a reassigned name is neither a counter nor a constant
    "x = 0\nx = 1\nA = [None] * 2\nA[0] = 5\nA[x] = 7\n",
    "x = 0\nx = 1\nA = [None] * 2\nA[0] = 5\nB = A[x]\n",
    # a product of two loop counters is not affine
    "A = [None] * 4\nfor i in range(0, 2):\n for j in range(0, 2):\n"
    "  A[i * j] = 1\n",
], ids=["write", "read", "counter-product"])
def test_index_the_translator_cannot_express_flagged(src):
    diags = validate_user_program(parse_user_program(src))
    assert [d.rule for d in diags] == ["index-form"]


def test_affine_indices_validate():
    # counters, comprehension variables and constants, with + and * by a
    # constant
    src = """
k = 2
A = [None] * 8
for i in range(0, 2):
 A[2 * i + 1] = 1
 A[k * i + k] = 2
 B = reduce_sum([A[j * i + 1] for j in range(0, 2)])
"""
    assert not validate_user_program(parse_user_program(src))


def test_undeclared_identifier_flagged():
    p = parse_user_program("M = Q + 1")
    diags = validate_user_program(p)
    assert any(d.rule == "undefined-id" for d in diags)


def test_two_dimensional_comprehension_flagged():
    p = parse_user_program("""
(O, n, W) = loadData()
S = reduce_sum([W[i] for i in range(0, 2)])
""")
    diags = validate_user_program(p)
    assert any(d.rule == "comprehension-dim" for d in diags)


def test_vector_elements_allowed_in_sum():
    # an array of feature vectors may be summed component-wise
    p = parse_user_program("""
(O, n) = loadData()
S = reduce_sum([O[i] for i in range(0, 2)])
""")
    assert not validate_user_program(p)


def test_ordered_vector_comparison_flagged():
    p = parse_user_program("""
(O, n) = loadData()
B = O[0] <= O[1]
""")
    diags = validate_user_program(p)
    assert any(d.rule == "compare-type" for d in diags)


def test_scalar_mult_types():
    p = parse_user_program("""
(O, n) = loadData()
V = O[0] * 2
""")
    diags = validate_user_program(p)
    assert any(d.rule == "mul-type" for d in diags)


def test_ext_calls_only_at_top_level():
    p = parse_user_program("""
for i in range(0, 2):
 M = init()
""")
    diags = validate_user_program(p)
    assert any(d.rule == "ext-top-level" for d in diags)


@pytest.mark.parametrize("src", [
    "Obj = 1 <= 2\n",
    "(Obj, n) = loadData()\n",
    "(O, n) = loadData()\nfor i in range(0, n):\n Obj = O[i]\n",
])
def test_obj_is_reserved_for_the_lineage(src):
    # loadData() declares Obj[l], point l's event; a user Obj would collide
    diags = validate_user_program(parse_user_program(src))
    assert [d.rule for d in diags] == ["reserved-name"]


def test_pretty_print_fixpoint(kmedoids_src, kmeans_src, graphflow_src):
    for src in (kmedoids_src, kmeans_src, graphflow_src,
                "M = 7\nM = M + 2\nB = M <= 9\n"):
        ast1 = parse_user_program(src)
        printed = format_user_program(ast1)
        ast2 = parse_user_program(printed)
        assert ast1 == ast2
        assert format_user_program(ast2) == printed


# --- one program per validator rule ------------------------------------------------

DATA = "(O, n) = loadData()\n"

RULE_PROGRAMS = {
    "array-init": "A[0] = 1\n",
    "array-size": "m = 2\nm = 3\nA = [None] * m\n",
    # the interpreter would alias B to A; the event language has no aliases
    "array-value": "A = [None] * 2\nA[0] = True\nA[1] = False\nB = A\n",
    "breakties-arg": "a = 1\nB = breakTies(a)\n",
    "call-type": "x = invert(1 <= 2)\n",
    "compare-type": DATA + "b = O[0] <= O[1]\n",
    "comprehension-dim":
        "(O, n, W) = loadData()\nS = reduce_sum([W[i] for i in range(0, 2)])\n",
    "counter-assign": "for i in range(0, 2):\n for i in range(0, 2):\n  x = i\n",
    "element-kind": "A = [None] * 2\nA[0] = 1\nA[1] = 1 <= 2\n",
    "ext-arity": "(a, b, c) = loadParams()\n",
    "ext-top-level": "for i in range(0, 2):\n M = init()\n",
    "filter-type": "S = reduce_sum([1 for i in range(0, 2) if 3])\n",
    "index-arity": "x = 1\ny = x[0]\n",
    "index-form":
        "A = [None] * 4\nfor i in range(0, 2):\n for j in range(0, 2):\n  A[i * j] = 1\n",
    "index-type": "A = [None] * 2\nA[1 <= 2] = 1\n",
    "mul-type": "x = True * 2\n",
    "pow-exponent": DATA + "x = pow(2, dist(O[0], O[1]))\n",
    "range-bound": DATA + "d = dist(O[0], O[1])\nfor i in range(0, d):\n x = i\n",
    "reduce-type": "b = reduce_and([1 for i in range(0, 2)])\n",
    "reserved-name": "Obj = 1 <= 2\n",
    "sum-type": "x = 1 + True\n",
    "undefined-id": "x = y + 1\n",
    # the interpreter reads None; grounding finds no declaration of A[0]
    "unwritten-read": "A = [None] * 2\nx = A[0]\n",
    "vec-index": DATA + "x = O[0][0]\n",
}


@pytest.mark.parametrize("rule", sorted(RULE_PROGRAMS))
def test_each_rule_has_a_program_that_breaks_it(rule):
    diags = validate_user_program(parse_user_program(RULE_PROGRAMS[rule]))
    assert diags and diags[0].rule == rule, diags


def test_rule_table_names_every_rule():
    with open(userlang.__file__) as fh:
        reported = set(re.findall(r'report\(\s*"([a-z-]+)"', fh.read()))
    assert reported == set(RULE_PROGRAMS)


# --- the scope of loop counters ---------------------------------------------------


@pytest.mark.parametrize("src,rule", [
    (DATA + "for n in range(0, 2):\n x = n\n", "counter-assign"),
    ("for i in range(0, 2):\n for i in range(0, 2):\n  x = i\n", "counter-assign"),
    ("i = 5\nfor i in range(0, 2):\n x = i\n", "counter-assign"),
    # the interpreter gives z = 1 in every world; the translation read x as U
    (DATA + "x = dist(O[0], O[1])\nfor x in range(0, 2):\n y = x\nz = x\n",
     "counter-assign"),
    # the interpreter gives s = 10; the translation read i as the counter
    ("s = 0\nfor i in range(0, 2):\n i = 5\n s = s + i\n", "counter-assign"),
    ("for i in range(0, 2):\n x = i\ny = i\n", "undefined-id"),
], ids=["data-integer", "nested-counter", "constant", "variable",
        "assigned-in-body", "read-after-loop"])
def test_loop_counter_scope(src, rule):
    diags = validate_user_program(parse_user_program(src))
    assert [d.rule for d in diags] == [rule]


# --- tie-breaking calls and what may be indexed --------------------------------------

ROW = "A = [None] * 2\nA[0] = 1 <= 2\nA[1] = 1 <= 2\n"
GRID = ("A = [None] * 2\nfor i in range(0, 2):\n A[i] = [None] * 2\n"
        " for j in range(0, 2):\n  A[i][j] = 1 <= 2\n")


@pytest.mark.parametrize("src,rule", [
    (ROW + "B = [None] * 2\nB[0] = breakTies(A)\n", "breakties-arg"),
    (GRID + "B = breakTies(A)\n", "breakties-arg"),
    (ROW + "B = breakTies1(A)\n", "breakties-arg"),
    ("a = 1\nB = breakTies2(a)\n", "breakties-arg"),
    (ROW + "x = (breakTies(A))[0]\n", "breakties-arg"),
    ("x = ([None] * 2)[0]\n", "index-arity"),
], ids=["element-target", "two-dimensional", "one-dimensional", "scalar",
        "indexed-call", "indexed-initialiser"])
def test_what_the_translator_cannot_break_ties_over_or_index(src, rule):
    diags = validate_user_program(parse_user_program(src))
    assert [d.rule for d in diags] == [rule]
