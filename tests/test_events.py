import math

import pytest
from hypothesis import given, strategies as st

from manyworlds.events import (
    U, VU, Add, And, Atom, CondVal, Const, Declarations, Dist, Guard, Mul,
    Not, Or, Pow, Ref, TypeMismatch, Var, VarTable, TRUE, FALSE, children_of,
    ext_add, ext_compare, ext_dist, ext_mul, ext_pow, evaluate, map_children,
    power, world_probability,
)


# --- undefined algebra -------------------------------------------------------

def test_undefined_identities():
    assert ext_add(U, 3.0) == 3.0
    assert ext_add(3.0, U) == 3.0
    assert ext_mul(U, 3.0) is U
    assert ext_mul(3.0, U) is U
    assert ext_pow(0, -1) is U
    assert ext_pow(0.0, -1) is U
    assert ext_mul(U, (1.0, 2.0)) is VU
    assert ext_add(VU, (1.0, 2.0)) == (1.0, 2.0)
    assert ext_mul(2.0, VU) is VU
    assert ext_mul(VU, (1.0, 2.0)) is U  # vector-vector products are scalars


def test_five_times_inverse_of_zero_is_undefined():
    c = Mul((CondVal(TRUE, 5), Pow(Add((CondVal(TRUE, 3), CondVal(TRUE, -3))), -1)))
    assert evaluate(c, {}, None) is U


def test_inverse_is_one_over_x():
    # ``1923.0 ** -1`` is one ulp below the quotient on some C libraries;
    # the inverse is the quotient on every layer
    assert ext_pow(1923.0, -1).hex() == (1.0 / 1923.0).hex()
    assert ext_pow(1e-320, -1) == math.inf  # ``1e-320 ** -1`` overflows


def test_an_overflow_is_infinite():
    # negative only for a negative base and an odd exponent
    assert power(1e200, 3) == power(-1e200, 2) == power(1e-200, -2) == math.inf
    assert power(-1e200, 3) == power(-1e-200, -3) == -math.inf
    assert ext_dist((1e200, 0.0), (-1e200, 0.0)) == math.inf
    # a square that does not overflow keeps its bits
    assert ext_dist((0.1, 0.7), (0.3, 0.2)).hex() == math.sqrt(
        (0.1 - 0.3) ** 2 + (0.7 - 0.2) ** 2).hex()


scalars = st.one_of(st.just(U), st.floats(-50, 50, allow_nan=False))


@given(scalars, st.floats(-50, 50, allow_nan=False))
def test_add_neutral_mul_absorbing(a, x):
    assert ext_add(U, x) == x
    assert ext_mul(U, x) is U
    assert ext_add(a, U) == (a if a is not U else U)


@given(st.floats(-20, 20, allow_nan=False), st.floats(-20, 20, allow_nan=False))
def test_vector_rules(a, b):
    v = (a, b)
    assert ext_mul(U, v) is VU
    assert ext_add(VU, v) == v
    assert ext_mul(a, VU) is VU
    assert ext_mul(VU, v) is U


def test_type_errors():
    with pytest.raises(TypeMismatch):
        ext_pow((1.0, 2.0), -1)
    with pytest.raises(TypeMismatch):
        ext_dist(1.0, 2.0)
    with pytest.raises(TypeMismatch):
        ext_add(1.0, (1.0, 2.0))
    with pytest.raises(TypeMismatch):
        ext_compare("<", (1.0,), (2.0,))


def test_pow_edge_cases():
    assert ext_pow(0.0, -1) is U
    assert ext_pow(2.0, -2) == 0.25
    assert ext_pow(5.0, 0) == 1
    assert ext_pow(U, 3) is U


def test_dist_euclidean():
    assert ext_dist((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert ext_dist(U, (1.0,)) is U
    assert ext_dist((1.0,), VU) is U


# --- event evaluation -------------------------------------------------------

EX_NU = {"x1": True, "x2": False, "x3": True, "x4": True}


def test_line_world_events():
    phi0 = Or((Var("x1"), Var("x3")))
    phi1 = Var("x2")
    phi2 = Var("x3")
    phi3 = And((Not(Var("x2")), Var("x4")))
    assert evaluate(phi0, EX_NU, None) is True
    assert evaluate(phi1, EX_NU, None) is False
    assert evaluate(phi2, EX_NU, None) is True
    assert evaluate(phi3, EX_NU, None) is True


def test_constants_and_undefined_atom():
    assert evaluate(TRUE, {"x": False}, None) is True
    # right operand undefined: the comparison holds vacuously
    atom = Atom("<=", CondVal(Var("x"), 2.0), CondVal(FALSE, 5.0))
    assert evaluate(atom, {"x": True}, None) is True
    assert evaluate(atom, {"x": False}, None) is True


def test_guarded_sum_cases():
    c = Add((CondVal(Var("a"), 2.0), CondVal(Var("b"), 3.0)))
    assert evaluate(c, {"a": True, "b": True}, None) == 5.0
    assert evaluate(c, {"a": True, "b": False}, None) == 2.0
    assert evaluate(c, {"a": False, "b": False}, None) is U


def test_or_tag_vs_sum_of_tags_differ():
    both = {"a": True, "b": True}
    left = CondVal(Or((Var("a"), Var("b"))), 4.0)
    right = Add((CondVal(Var("a"), 4.0), CondVal(Var("b"), 4.0)))
    assert evaluate(left, both, None) == 4.0
    assert evaluate(right, both, None) == 8.0


def test_ref_resolution_and_cycles():
    # a declaration reads only earlier ones: an unknown name, and a forward
    # reference (through which a cycle would have to pass), are unresolved
    env = {"A": Var("x"), "B": Ref("A")}
    values = Declarations(env).values({"x": True})
    assert list(values) == ["A", "B"]
    assert values["A"] is True and values["B"] is True
    from manyworlds.events import ResolutionError
    with pytest.raises(ResolutionError, match="missing"):
        Declarations({**env, "C": Ref("missing")})
    for later_env in ({"A": Ref("B"), "B": Var("x")},
                      {"A": Ref("B"), "B": Ref("A")}):
        with pytest.raises(ResolutionError, match="'B'"):
            Declarations(later_env)


def test_guard_of_vector_body():
    body = CondVal(Var("a"), (1.0, 2.0))
    g = Guard(Var("b"), body)
    assert evaluate(g, {"a": True, "b": True}, None) == (1.0, 2.0)
    assert evaluate(g, {"a": True, "b": False}, None) is VU
    assert evaluate(g, {"a": False, "b": True}, None) is VU


def test_first_true_brute_force():
    # entry j holds iff e_j holds and no earlier event does, in every world
    import random
    from manyworlds.events import first_true
    rng = random.Random(7)
    names = ["v%d" % i for i in range(4)]
    assert first_true([]) == []
    for _ in range(20):
        family = []
        for _j in range(rng.randint(1, 6)):
            a, b = rng.sample(names, 2)
            family.append(rng.choice(
                [Var(a), And((Var(a), Not(Var(b)))), Or((Var(a), Var(b)))]))
        encoded = first_true(family)
        assert len(encoded) == len(family) and encoded[0] is family[0]
        for w in range(16):
            nu = {names[j]: bool((w >> j) & 1) for j in range(4)}
            holds = [evaluate(e, nu, None) for e in family]
            got = [evaluate(e, nu, None) for e in encoded]
            assert all(type(x) is bool for x in holds + got)
            assert got == [h and not any(holds[:j]) for j, h in enumerate(holds)]
            assert sum(got) <= 1
            assert sum(got) == any(holds)


# --- world probabilities ------------------------------------------------------

def test_world_probability_uniform():
    vt = VarTable.of(("a", 0.5), ("b", 0.5))
    for nu in ({"a": True, "b": True}, {"a": False, "b": True}):
        assert abs(world_probability(nu, vt) - 0.25) < 1e-12


def test_world_probability_single():
    vt = VarTable.of(("x", 0.7),)
    assert abs(world_probability({"x": True}, vt) - 0.7) < 1e-12
    assert abs(world_probability({"x": False}, vt) - 0.3) < 1e-12


def test_world_probability_product():
    vt = VarTable.of(("x1", 0.6), ("x2", 0.5), ("x3", 0.7), ("x4", 0.4))
    expect = 0.6 * 0.5 * 0.7 * 0.4
    assert abs(world_probability(dict(EX_NU), vt) - expect) < 1e-12


@given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8))
def test_mass_function_sums_to_one(ps):
    vt = VarTable(tuple(("v%d" % i, p) for i, p in enumerate(ps)))
    total = 0.0
    m = len(ps)
    for w in range(1 << m):
        nu = {"v%d" % i: bool((w >> i) & 1) for i in range(m)}
        total += world_probability(nu, vt)
    assert abs(total - 1.0) < 1e-9


def test_vartable_validation():
    with pytest.raises(ValueError):
        VarTable.of(("a", 0.5), ("a", 0.6))
    with pytest.raises(ValueError):
        VarTable.of(("a", 1.5),)


# --- totality under fuzzing ----------------------------------------------------

def _rand_event(rng, depth, names):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return Var(rng.choice(names))
    if r < 0.5:
        return Not(_rand_event(rng, depth - 1, names))
    if r < 0.75:
        kids = tuple(_rand_event(rng, depth - 1, names) for _ in range(2))
        return And(kids) if rng.random() < 0.5 else Or(kids)
    return Atom(rng.choice(("<=", "<", ">=", ">", "=")),
                _rand_cval(rng, depth - 1, names),
                _rand_cval(rng, depth - 1, names))


def _rand_cval(rng, depth, names):
    r = rng.random()
    if depth == 0 or r < 0.4:
        return CondVal(_rand_event(rng, 0, names), rng.choice((0.0, 1.0, 2.5)))
    if r < 0.6:
        return Add(tuple(_rand_cval(rng, depth - 1, names) for _ in range(2)))
    if r < 0.75:
        return Mul(tuple(_rand_cval(rng, depth - 1, names) for _ in range(2)))
    if r < 0.9:
        return Pow(_rand_cval(rng, depth - 1, names), -1)
    return Pow(_rand_cval(rng, depth - 1, names), rng.choice((-1, 0, 2, 3)))


@given(st.integers(0, 500), st.integers(0, 15))
def test_well_typed_evaluation_is_total(seed, world):
    import random
    rng = random.Random(seed)
    names = ["a", "b", "c", "d"]
    nu = {n: bool((world >> i) & 1) for i, n in enumerate(names)}
    e = _rand_event(rng, 3, names)
    assert type(evaluate(e, nu, None)) is bool
    c = _rand_cval(rng, 3, names)
    v = evaluate(c, nu, None)
    assert v is U or isinstance(v, (float, int)) and not isinstance(v, bool)


# --- one schema: map_children agrees with children_of ---------------------------

_CV = CondVal(Var("a"), 2.0)
ONE_OF_EACH_KIND = [
    Const(True), Var("a"), Ref("E", (1,)),
    Not(Var("a")), And((Var("a"), Ref("E"))), Or((Var("b"), FALSE)),
    Atom("<=", _CV, CondVal(TRUE, 3)),
    CondVal(Var("b"), (1.0, 2.0)), Guard(Var("a"), _CV),
    Add((_CV, CondVal(Var("b"), 1))), Mul((_CV, _CV, Pow(_CV, -1))),
    Pow(_CV, -2),
    Dist(CondVal(Var("a"), (0.0, 1.0)), CondVal(Var("b"), (2.0, 3.0))),
]
KIND_IDS = [type(e).__name__ for e in ONE_OF_EACH_KIND]


def _check_schema(e):
    visited = []

    def f(c):
        visited.append(c)
        return c

    assert map_children(e, f) == e
    assert visited == list(children_of(e))
    # the rebuilt node carries the mapped children, in the same places
    tagged = map_children(e, lambda c: ("child", c))
    assert list(children_of(tagged)) == [("child", c) for c in children_of(e)]


def test_one_instance_per_kind():
    import dataclasses
    from manyworlds import events
    declared = {c for c in vars(events).values()
                if isinstance(c, type) and dataclasses.is_dataclass(c)
                and c is not VarTable}
    assert {type(e) for e in ONE_OF_EACH_KIND} == declared
    assert len(ONE_OF_EACH_KIND) == 13


@pytest.mark.parametrize("e", ONE_OF_EACH_KIND, ids=KIND_IDS)
def test_evaluate_covers_every_kind(e):
    v = evaluate(e, {"a": True, "b": False}, {"E": True}.__getitem__)
    assert v is U or v is VU or isinstance(v, (bool, int, float, tuple))


@pytest.mark.parametrize("e", ONE_OF_EACH_KIND, ids=KIND_IDS)
def test_map_children_matches_children_of(e):
    _check_schema(e)


def test_map_children_matches_children_of_on_random_trees():
    import random
    rng = random.Random(7)
    names = ["a", "b", "c"]
    for depth in range(4):
        for _ in range(10):
            for e in (_rand_event(rng, depth, names), _rand_cval(rng, depth, names)):
                _check_schema(e)
                for c in children_of(e):
                    _check_schema(c)


def test_map_children_rejects_non_expressions():
    with pytest.raises(TypeError):
        map_children(3.0, lambda c: c)
