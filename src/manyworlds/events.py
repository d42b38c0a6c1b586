"""Core event algebra: Boolean events over random variables and conditional values.

An event is a propositional formula over independent Boolean random variables,
named event identifiers (EIDs) and comparison atoms.  A conditional value
(c-value) is a number or feature vector guarded by an event: it takes its
value in worlds where the guard holds and a distinguished *undefined* element
otherwise.  Scalars are extended with the undefined element ``U`` and vectors
with ``VU``; the arithmetic below absorbs or ignores them so that every
well-typed expression evaluates totally in every world:

    U + x == x          VU + xs == xs
    U * x == U          U * xs == VU        a * VU == VU        VU * xs == U
    pow(0, -1) == U     comparisons with an undefined operand are True

The inverse is ``pow(x, -1)``, and every negative power of 0 is ``U``.
``power`` computes each power, for the per-world evaluator and for the
network's intervals alike.  A power that overflows, a distance's squares
included, is ``inf``, or ``-inf`` for a negative base and an odd exponent.

A total assignment of the random variables (a *world*) plus these rules give
each expression a single value; weighting worlds by the variable table turns
every expression into a random variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union


class EventError(Exception):
    """Base class for evaluation and resolution errors."""


class ResolutionError(EventError):
    """Unresolved variable or event identifier."""


class TypeMismatch(EventError):
    """Ill-typed c-value expression (e.g. dist on scalars)."""


class _Undefined:
    __slots__ = ("_tag",)

    def __init__(self, tag):
        self._tag = tag

    def __repr__(self):
        return self._tag


#: Undefined scalar (absorbing for *, neutral for +).
U = _Undefined("U")
#: Undefined feature vector.
VU = _Undefined("VU")

Scalar = Union[int, float]
Vector = tuple
ExtValue = Union[Scalar, Vector, _Undefined]


def is_vector_like(v):
    return isinstance(v, tuple) or v is VU


def undef_like(v):
    return VU if is_vector_like(v) else U


def ext_add(a, b):
    """Extended addition: undefined operands contribute nothing."""
    if a is U or a is VU:
        return b
    if b is U or b is VU:
        return a
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            raise TypeMismatch("vector dimensions differ: %d vs %d" % (len(a), len(b)))
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(a, tuple) or isinstance(b, tuple):
        raise TypeMismatch("cannot add scalar and vector")
    return a + b


def ext_mul(a, b):
    """Extended multiplication: undefined absorbs, typed by the operand kinds.

    scalar*scalar -> scalar, scalar*vector -> scaled vector,
    vector*vector -> dot product (scalar).
    """
    a_vec, b_vec = is_vector_like(a), is_vector_like(b)
    out_vec = a_vec != b_vec
    if a is U or b is U or a is VU or b is VU:
        return VU if out_vec else U
    if a_vec and b_vec:
        if len(a) != len(b):
            raise TypeMismatch("vector dimensions differ in product")
        return sum(x * y for x, y in zip(a, b))
    if a_vec:
        return tuple(x * b for x in a)
    if b_vec:
        return tuple(a * y for y in b)
    return a * b


def power(x, n):
    """``x ** n`` for a defined scalar ``x``; the inverse (``n == -1``) is
    ``1.0 / x``.  A power that overflows is infinite, as ``1.0 / x`` is
    where ``x ** -1`` overflows: negative only for a negative ``x`` and an
    odd ``n``."""
    if n == -1:
        return 1.0 / x
    try:
        return x ** n
    except OverflowError:
        return -math.inf if x < 0 and n % 2 else math.inf


def ext_pow(a, n):
    if a is U:
        return U
    if is_vector_like(a):
        raise TypeMismatch("power of a vector")
    if n < 0 and a == 0:
        return U
    return power(a, n)


def ext_dist(a, b):
    """Euclidean distance; undefined as soon as either operand is."""
    if a is U or a is VU or b is U or b is VU:
        return U
    if not (isinstance(a, tuple) and isinstance(b, tuple)):
        raise TypeMismatch("dist requires vector operands")
    if len(a) != len(b):
        raise TypeMismatch("vector dimensions differ in dist")
    return math.sqrt(sum(power(x - y, 2) for x, y in zip(a, b)))


COMPARATORS = ("<=", ">=", "=", "<", ">")


def ext_compare(op, a, b):
    """Comparison of two extended values; true if either side is undefined."""
    if a is U or a is VU or b is U or b is VU:
        return True
    if isinstance(a, tuple) or isinstance(b, tuple):
        if not (isinstance(a, tuple) and isinstance(b, tuple)):
            raise TypeMismatch("comparison mixes scalar and vector")
        if op != "=":
            raise TypeMismatch("ordered comparison on vectors")
        return a == b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    if op == "=":
        return a == b
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    raise ValueError("unknown comparator %r" % op)


# ---------------------------------------------------------------------------
# Variable tables and valuations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarTable:
    """Ordered table of independent Boolean random variables with P(true)."""

    vars: tuple  # tuple of (name, p_true)
    index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        seen = {}
        for i, (name, p) in enumerate(self.vars):
            if name in seen:
                raise ValueError("duplicate variable id %r" % name)
            if not (0.0 <= p <= 1.0):
                raise ValueError("probability of %r out of range: %r" % (name, p))
            seen[name] = i
        object.__setattr__(self, "index", seen)

    @classmethod
    def of(cls, *pairs):
        return cls(tuple(pairs))

    def names(self):
        return [name for name, _ in self.vars]

    def p_true(self, name):
        return self.vars[self.index[name]][1]

    def __len__(self):
        return len(self.vars)

    def __contains__(self, name):
        return name in self.index


def world_probability(valuation, vartable):
    """Probability of a total valuation: product of per-variable factors."""
    p = 1.0
    for name, p_true in vartable.vars:
        if name not in valuation:
            raise ResolutionError("valuation misses variable %r" % name)
        p *= p_true if valuation[name] else 1.0 - p_true
    return p


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------
#
# Event expressions (Boolean):
#   Const, Var, Ref, Atom, Not, And, Or
# Conditional values:
#   CondVal (guarded constant), Guard (guarded c-value), Add, Mul,
#   Pow (the inverse is ``Pow(c, -1)``), Dist
#
# Ref nodes name either another event declaration (by grounded identifier)
# or, before grounding, a parametrised identifier; see eventprog.py.
#
# ``children_of`` and ``map_children`` (at the end of this module) are the only
# code that knows each kind's fields: rewriters elsewhere handle their own
# leaves and hand every other node to ``map_children``.


@dataclass(frozen=True)
class Const:
    value: bool

    def __repr__(self):
        return "true" if self.value else "false"


TRUE = Const(True)
FALSE = Const(False)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Ref:
    name: str
    indices: tuple = ()


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class Atom:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class CondVal:
    """Guarded constant: the value when the guard holds, undefined otherwise."""

    guard: object
    value: object  # scalar, vector tuple, or an index expression pre-grounding


@dataclass(frozen=True)
class Guard:
    """Guarded c-value: the body's value when the guard holds, else undefined."""

    guard: object
    body: object


@dataclass(frozen=True)
class Add:
    children: tuple


@dataclass(frozen=True)
class Mul:
    children: tuple


@dataclass(frozen=True)
class Pow:
    child: object
    exponent: int


@dataclass(frozen=True)
class Dist:
    left: object
    right: object


def first_true(events):
    """Prefix exclusion: entry ``j`` holds iff ``events[j]`` holds and no
    earlier event does, so in every world at most one entry holds.

    Entry 0 is ``e_0``; entry ``j`` is ``And(!e_0, ..., !e_{j-1}, e_j)``.
    Tie-breaking and the first-existing medoid fallback are built with it.
    """
    out, negs = [], ()
    for e in events:
        out.append(And(negs + (e,)) if negs else e)
        negs += (Not(e),)
    return out


# ---------------------------------------------------------------------------
# Per-world evaluation
# ---------------------------------------------------------------------------


def evaluate(e, nu, ref):
    """Extended value of ``e`` in the world ``nu``.

    ``ref(name)`` supplies the value of a grounded identifier; a program's
    declarations are evaluated by ``Declarations``, whose ``ref`` reads the
    values of the earlier ones.  An expression that names no identifier
    never calls ``ref``.
    """
    kind = type(e)
    if kind is Var:
        try:
            return nu[e.name]
        except KeyError:
            raise ResolutionError("unresolved variable %r" % e.name) from None
    if kind is Ref:
        return ref(e.name)
    if kind is Const:
        return e.value
    if kind is Not:
        return not evaluate(e.child, nu, ref)
    if kind is And:
        for c in e.children:
            if not evaluate(c, nu, ref):
                return False
        return True
    if kind is Or:
        for c in e.children:
            if evaluate(c, nu, ref):
                return True
        return False
    if kind is Atom:
        return ext_compare(e.op, evaluate(e.left, nu, ref), evaluate(e.right, nu, ref))
    if kind is CondVal:
        if evaluate(e.guard, nu, ref):
            return e.value
        return undef_like(e.value)
    if kind is Guard:
        body = evaluate(e.body, nu, ref)
        return body if evaluate(e.guard, nu, ref) else undef_like(body)
    if kind is Add:
        acc = U
        for c in e.children:
            acc = ext_add(acc, evaluate(c, nu, ref))
        return acc
    if kind is Mul:
        if not e.children:
            return U
        acc = evaluate(e.children[0], nu, ref)
        for c in e.children[1:]:
            acc = ext_mul(acc, evaluate(c, nu, ref))
        return acc
    if kind is Pow:
        return ext_pow(evaluate(e.child, nu, ref), e.exponent)
    if kind is Dist:
        return ext_dist(evaluate(e.left, nu, ref), evaluate(e.right, nu, ref))
    raise TypeError("not an expression: %r" % (e,))


class Declarations:
    """A grounded program's declarations, evaluated one world at a time.

    ``decls`` maps each eid to its expression in declaration order; a
    declaration reads only earlier ones (``eventprog.ground``,
    ``Dataset.from_json`` and ``Dataset.lineage`` keep that order), so a
    reference to an unknown or later identifier raises ResolutionError.
    One walk over each declaration gives its kind (``kinds``, by
    ``kind_rule``) and the variables it reads: ``var_deps`` maps each
    variable to the positions of the declarations that read it.
    """

    def __init__(self, decls):
        self.eids = list(decls)
        self.exprs = list(decls.values())
        self.pos, self.kinds, self.var_deps, dep_sets = {}, {}, {}, []
        for i, (eid, e) in enumerate(decls.items()):
            deps = set()
            self.kinds[eid] = self._walk(e, deps, dep_sets)
            dep_sets.append(deps)
            self.pos[eid] = i
            for v in deps:
                self.var_deps.setdefault(v, []).append(i)

    def _walk(self, e, deps, dep_sets):
        """The kind of ``e``; adds the variables it reads to ``deps``."""
        kind = type(e)
        if kind is Var:
            deps.add(e.name)
            return "b"
        if kind is Ref:
            i = self.pos.get(e.name)
            if i is None:
                raise ResolutionError("unresolved identifier %r" % e.name)
            deps.update(dep_sets[i])
            return self.kinds[e.name]
        return kind_rule(e, [self._walk(c, deps, dep_sets)
                             for c in children_of(e)])

    def values(self, valuation):
        """Every declaration's value in the world ``valuation``, by eid."""
        values = [None] * len(self.exprs)
        self.reevaluate(valuation, values, range(len(values)))
        return dict(zip(self.eids, values))

    def reevaluate(self, valuation, values, positions):
        """Re-evaluate the declarations at ``positions``, in order, into
        the list ``values``, which holds one value per declaration by
        position (``pos``)."""
        pos, exprs = self.pos, self.exprs

        def ref(name):
            return values[pos[name]]
        for i in positions:
            values[i] = evaluate(exprs[i], valuation, ref)


# ---------------------------------------------------------------------------
# Static kind inference ('b' boolean, 's' scalar, 'v' vector)
# ---------------------------------------------------------------------------


def kind_rule(e, ks):
    """The static kind of a grounded node ``e``, given its children's kinds.

    Raises TypeMismatch when the node is ill-typed.  ``network._build_expr``
    applies it once to each node it creates, after the node's children, on
    the unfolded and the folded route alike.  An atom directly under a
    conjunction and a guard directly under a sum become operands of that
    node, not nodes: the build applies the rule to each of them, over the
    kinds of its sides, when it creates the conjunction or the sum, just
    before the node itself.  ``Declarations`` applies it to each node of a
    grounded program, so the oracle refuses what the network refuses.
    """
    kind = type(e)
    if kind in (Const, Var, Not, And, Or):
        if any(k != "b" for k in ks):
            raise TypeMismatch("boolean connective over non-event")
        return "b"
    if kind is Atom:
        lk, rk = ks
        if "b" in ks:
            raise TypeMismatch("atom compares events")
        if lk != rk:
            raise TypeMismatch("atom compares scalar with vector")
        if lk == "v" and e.op != "=":
            raise TypeMismatch("ordered comparison on vectors")
        return "b"
    if kind in (CondVal, Guard):
        if ks[0] != "b":
            raise TypeMismatch("guard is not an event")
        if kind is Guard:
            if ks[1] == "b":
                raise TypeMismatch("guarded value is an event")
            return ks[1]
        return "v" if isinstance(e.value, tuple) else "s"
    if kind is Add:
        kinds = set(ks)
        if "b" in kinds or len(kinds) > 1:
            raise TypeMismatch("sum over mixed kinds")
        return kinds.pop() if kinds else "s"
    if kind is Mul:
        k = "s"
        for ck in ks:
            if ck == "b":
                raise TypeMismatch("product over events")
            if k == "v" and ck == "v":
                k = "s"  # dot product
            elif "v" in (k, ck):
                k = "v"
        return k
    if kind is Pow:
        if ks[0] != "s":
            raise TypeMismatch("power requires a scalar")
        return "s"
    if kind is Dist:
        if ks != ["v", "v"]:
            raise TypeMismatch("dist requires vector operands")
        return "s"
    raise TypeError("not an expression: %r" % (e,))


def children_of(e):
    """All direct subexpressions of an expression node."""
    kind = type(e)
    if kind in (Const, Var, Ref):
        return ()
    if kind is Not:
        return (e.child,)
    if kind in (And, Or, Add, Mul):
        return e.children
    if kind is Atom:
        return (e.left, e.right)
    if kind is CondVal:
        return (e.guard,)
    if kind is Guard:
        return (e.guard, e.body)
    if kind is Pow:
        return (e.child,)
    if kind is Dist:
        return (e.left, e.right)
    raise TypeError("not an expression: %r" % (e,))


def map_children(e, f):
    """Rebuild ``e`` with ``f`` applied to each direct subexpression.

    Visits the children in ``children_of`` order and keeps the node's other
    fields (``op``, ``value``, ``exponent``); leaves come back unchanged.
    """
    kind = type(e)
    if kind in (Const, Var, Ref):
        return e
    if kind is Not:
        return Not(f(e.child))
    if kind in (And, Or, Add, Mul):
        return kind(tuple(map(f, e.children)))
    if kind is Atom:
        return Atom(e.op, f(e.left), f(e.right))
    if kind is CondVal:
        return CondVal(f(e.guard), e.value)
    if kind is Guard:
        return Guard(f(e.guard), f(e.body))
    if kind is Pow:
        return Pow(f(e.child), e.exponent)
    if kind is Dist:
        return Dist(f(e.left), f(e.right))
    raise TypeError("not an expression: %r" % (e,))
