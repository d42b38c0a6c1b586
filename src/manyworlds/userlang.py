"""The user mini-language: parser, AST and validator.

Programs are a sequence of assignments and bounded ``for ... in range(a,b):``
loops over an indentation-delimited block structure.  Expressions cover
literals, identifiers, array initialisation ``[None] * n``, comparisons,
``reduce_*`` calls over list comprehensions, ``pow``, ``invert``, ``dist``,
``scalar_mult``, tie-breaking calls, sums and products.  Input data enters
through the abstract calls ``loadData()``, ``loadParams()`` and ``init()``,
bound to a dataset at translation time.  ``Obj`` is reserved: it names the
points' lineage events, which ``loadData()`` declares.

Tokens, logical lines (a statement continues while a bracket is open),
indentation blocks and ``ProgramSyntaxError`` come from the source reader
in ``eventprog``, which the event language uses too; this module adds only
the statement and expression rules.

``Scope`` is the one model of a program's integer names (constants, loop
counters, comprehension variables), read by the validator and by
``translate``.  The validator is the one gate for which programs
translate: it reports each program the translator cannot give the
interpreter's meaning, and the translator checks none of it again.  It
reports a bound that is not a constant, an index not affine in counters
and constants, a loop counter whose name is bound before its loop or
inside it, a counter read after its loop, a tie-breaking call anywhere but
``B = breakTies*(A)`` over a named Boolean array of its dimension, indexing
what is not a named array, a component of a feature vector, and an array
used as a value.  It records each array's element kind and, where
constant, its size at each depth, so it also reports an element of another
kind than the array's earlier ones, rows of different sizes, and an element
read where its kind does not fit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .eventprog import Affine, TokenCursor, parse_blocks


@dataclass
class Diagnostic:
    rule: str
    message: str
    line: int
    col: int = 0

    def __str__(self):
        return "%d:%d: [%s] %s" % (self.line, self.col, self.rule, self.message)


# --- AST -------------------------------------------------------------------


def _pos_field():
    return field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class ULit:
    value: object
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UName:
    name: str
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UIndex:
    base: object
    index: object
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UCompare:
    op: str
    left: object
    right: object
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UBinOp:
    op: str  # '+' or '*'
    left: object
    right: object
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UArrayInit:
    size: object  # expression: [None] * size
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UCall:
    func: str  # pow | invert | dist | scalar_mult | breakTies | breakTies1 | breakTies2
    args: tuple
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UComprehension:
    expr: object
    var: str
    lo: object
    hi: object
    cond: object = None
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UReduce:
    func: str  # reduce_and | reduce_or | reduce_sum | reduce_mult | reduce_count
    comp: UComprehension
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UAssign:
    target: object  # UName or UIndex chain
    expr: object
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UExtCall:
    targets: tuple  # of names
    func: str  # loadData | loadParams | init
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UFor:
    var: str
    lo: object
    hi: object
    body: tuple
    line: int = _pos_field()
    col: int = _pos_field()


@dataclass(frozen=True)
class UProgram:
    items: tuple


REDUCERS = ("reduce_and", "reduce_or", "reduce_sum", "reduce_mult", "reduce_count")
TIE_FUNCS = ("breakTies", "breakTies1", "breakTies2")
EXT_FUNCS = ("loadData", "loadParams", "init")
COMPARE_OPS = ("<=", ">=", "==", "<", ">")


# --- parser -------------------------------------------------------------------


class _Parser(TokenCursor):
    """The user language's rules over one logical line."""

    def statement(self, headers):
        """A ``for`` header, an external call or an assignment."""
        line = self.line
        if self.eat("name", "for"):
            var = self.expect("name")
            self.expect("name", "in")
            lo, hi = self.parse_range()
            self.expect("op", ":")
            if not self.done():
                self.error("trailing tokens after ':'", self.col())
            return UFor(var, lo, hi, (), line), True
        if self.eat("op", "("):
            names = [self.expect("name")]
            while self.eat("op", ","):
                names.append(self.expect("name"))
            self.expect("op", ")")
            self.expect("op", "=")
            func = self.expect("name")
            if func not in EXT_FUNCS:
                self.error("unknown external call %r" % func)
            self.parse_call_end()
            return UExtCall(tuple(names), func, line), False
        target = self.parse_indexing(UName(self.expect("name"), line, 1))
        self.expect("op", "=")
        if self.at("name") and self.peek()[1] in EXT_FUNCS:
            func = self.next()[1]
            self.parse_call_end()
            if not isinstance(target, UName):
                self.error("external call must bind a plain name")
            return UExtCall((target.name,), func, line), False
        expr = self.parse_expr()
        if not self.done():
            self.error("trailing tokens after expression", self.col())
        return UAssign(target, expr, line), False

    def parse_call_end(self):
        """The ``()`` that ends an external call's line."""
        self.expect("op", "(")
        self.expect("op", ")")
        if not self.done():
            self.error("trailing tokens", self.col())

    # expressions: compare > additive > multiplicative > primary

    def parse_expr(self):
        left = self.parse_additive()
        t, v = self.peek()
        if t == "op" and v in COMPARE_OPS:
            col = self.col()
            self.next()
            return UCompare(v, left, self.parse_additive(), self.line, col)
        return left

    def parse_additive(self):
        e = self.parse_multiplicative()
        while self.at("op", "+"):
            col = self.col()
            self.next()
            e = UBinOp("+", e, self.parse_multiplicative(), self.line, col)
        return e

    def parse_multiplicative(self):
        e = self.parse_primary()
        while self.at("op", "*"):
            col = self.col()
            self.next()
            e = UBinOp("*", e, self.parse_primary(), self.line, col)
        return e

    def parse_primary(self):
        line, col = self.line, self.col()
        tok = t, v = self.next()
        if t == "num":
            return self.parse_indexing(ULit(v, line, col))
        if t == "op" and v == "-":
            col = self.col()
            t, v = self.next()
            if t != "num":
                self.error("expected a number after '-'", col)
            return ULit(-v, line, col)
        if t == "op" and v == "(":
            e = self.parse_expr()
            self.expect("op", ")")
            return self.parse_indexing(e)
        if t == "op" and v == "[":
            # [None] * size
            self.expect("name", "None")
            self.expect("op", "]")
            self.expect("op", "*")
            return UArrayInit(self.parse_primary(), line, col)
        if t == "name":
            if v in ("True", "False"):
                return ULit(v == "True", line, col)
            if v in REDUCERS:
                return self.parse_reduce(v, col)
            if v in ("pow", "invert", "dist", "scalar_mult") or v in TIE_FUNCS:
                return self.parse_call(v, col)
            return self.parse_indexing(UName(v, line, col))
        self.error("unexpected %s" % self.describe(tok), col)

    def parse_indexing(self, base):
        while self.at("op", "["):
            col = self.col()
            self.next()
            idx = self.parse_expr()
            self.expect("op", "]")
            base = UIndex(base, idx, self.line, col)
        return base

    def parse_call(self, func, col):
        self.expect("op", "(")
        args = [self.parse_expr()]
        while self.eat("op", ","):
            args.append(self.parse_expr())
        self.expect("op", ")")
        return UCall(func, tuple(args), self.line, col)

    def parse_reduce(self, func, col):
        self.expect("op", "(")
        if not self.at("op", "["):
            self.error("%s requires a list comprehension, not a named array" % func,
                       self.col())
        comp = self.parse_comprehension()
        self.expect("op", ")")
        return UReduce(func, comp, self.line, col)

    def parse_comprehension(self):
        col = self.col()
        self.next()  # '['
        if self.at("name", "None"):
            self.error("expected a comprehension, found array initialiser", col)
        expr = self.parse_expr()
        self.expect("name", "for")
        var = self.expect("name")
        self.expect("name", "in")
        lo, hi = self.parse_range()
        cond = None
        if self.eat("name", "if"):
            cond = self.parse_expr()
        self.expect("op", "]")
        return UComprehension(expr, var, lo, hi, cond, self.line, col)

    def parse_range(self):
        self.expect("name", "range")
        self.expect("op", "(")
        lo = self.parse_expr()
        self.expect("op", ",")
        hi = self.parse_expr()
        self.expect("op", ")")
        return lo, hi


def parse_user_program(text, filename="<input>"):
    """Parse source text; raises ProgramSyntaxError with line/column on failure.

    A statement continues onto following physical lines while it has an
    unclosed parenthesis or bracket, as in the Python it resembles.
    """
    return UProgram(parse_blocks(text, _Parser, filename))


# --- pretty printer --------------------------------------------------------------


def format_user_expr(e):
    k = type(e)
    if k is ULit:
        if isinstance(e.value, bool):
            return "True" if e.value else "False"
        return repr(e.value)
    if k is UName:
        return e.name
    if k is UIndex:
        return "%s[%s]" % (format_user_expr(e.base), format_user_expr(e.index))
    if k is UCompare:
        return "%s %s %s" % (format_user_expr(e.left), e.op, format_user_expr(e.right))
    if k is UBinOp:
        l, r = format_user_expr(e.left), format_user_expr(e.right)
        if e.op == "*":
            if isinstance(e.left, (UBinOp, UCompare)):
                l = "(%s)" % l
            if isinstance(e.right, (UBinOp, UCompare)):
                r = "(%s)" % r
        else:
            if isinstance(e.left, UCompare):
                l = "(%s)" % l
            if isinstance(e.right, (UCompare, UBinOp)) and getattr(e.right, "op", "") == "+":
                r = "(%s)" % r
        return "%s %s %s" % (l, e.op, r)
    if k is UArrayInit:
        return "[None] * %s" % format_user_expr(e.size)
    if k is UCall:
        return "%s(%s)" % (e.func, ", ".join(format_user_expr(a) for a in e.args))
    if k is UReduce:
        return "%s(%s)" % (e.func, format_user_expr(e.comp))
    if k is UComprehension:
        out = "[%s for %s in range(%s, %s)" % (
            format_user_expr(e.expr), e.var,
            format_user_expr(e.lo), format_user_expr(e.hi))
        if e.cond is not None:
            out += " if %s" % format_user_expr(e.cond)
        return out + "]"
    raise TypeError("not a user expression: %r" % (e,))


def format_user_program(program):
    out = []
    _emit_statements(program.items, 0, out)
    return "\n".join(out) + "\n"


def _emit_statements(items, depth, out):
    pad = " " * depth
    for item in items:
        if isinstance(item, UFor):
            out.append("%sfor %s in range(%s, %s):" % (
                pad, item.var, format_user_expr(item.lo), format_user_expr(item.hi)))
            _emit_statements(item.body, depth + 1, out)
        elif isinstance(item, UExtCall):
            if len(item.targets) == 1:
                out.append("%s%s = %s()" % (pad, item.targets[0], item.func))
            else:
                out.append("%s(%s) = %s()" % (pad, ", ".join(item.targets), item.func))
        else:
            out.append("%s%s = %s" % (pad, format_user_expr(item.target),
                                      format_user_expr(item.expr)))


# --- validator --------------------------------------------------------------------


@dataclass
class VType:
    base: str  # 'bool' | 'int' | 'real' | 'vec' | 'array' | 'unknown'
    elem: object = None  # an array's element type, None until one is written
    size: int = None     # an array's size, where it is a constant

    def scalarish(self):
        return self.base in ("int", "real", "unknown")

    def kind(self):
        """The base, with int and real one numeric kind."""
        return "num" if self.base in ("int", "real") else self.base

    def __repr__(self):
        if self.base == "array":
            return "array(%r)" % (self.elem,)
        return self.base


BOOL, INT, REAL, VEC = VType("bool"), VType("int"), VType("real"), VType("vec")
UNKNOWN_T = VType("unknown")


def _bindings(items):
    """(name, statement) for each name a statement binds, in loops too."""
    for item in items:
        if isinstance(item, UFor):
            yield from _bindings(item.body)
        elif isinstance(item, UExtCall):
            for name in item.targets:
                yield name, item
        elif isinstance(item.target, UName):
            yield item.target.name, item


def index_chain(e):
    """``(base, indices)`` of ``base[i][j]``, the first index first."""
    indices = []
    while isinstance(e, UIndex):
        indices.append(e.index)
        e = e.base
    indices.reverse()
    return e, indices


class Scope:
    """The integer names of one program.  A name bound by one statement to
    an integer (a literal, or a data integer of ``loadData``/``loadParams``)
    is a constant; a loop counter is symbolic inside its loop; a
    comprehension variable holds one integer per element and hides any outer
    binding of its name.  An index is affine: counters, comprehension
    variables and constants under ``+``, and under ``*`` by a constant."""

    def __init__(self, items):
        seen, self.reassigned = set(), set()  # bound more than once: not constants
        for name, _item in _bindings(items):
            (self.reassigned if name in seen else seen).add(name)
        self.consts = {}  # name -> int
        self.locals = {}  # loop counter -> None, comprehension variable -> int

    def bind(self, name, value):
        """Make ``name`` the constant ``value`` unless it is reassigned;
        returns whether it did."""
        if name in self.reassigned:
            return False
        self.consts[name] = value
        return True

    def assign(self, name, e):
        """Record ``name = e``: an integer literal may make a constant."""
        if isinstance(e, ULit) and type(e.value) is int:
            self.bind(name, e.value)

    @contextmanager
    def local(self, name, value=None):
        """Bind a loop counter (``value`` None) or a comprehension variable
        for the body of the ``with``."""
        outer = self.locals
        self.locals = {**outer, name: value}
        try:
            yield
        finally:
            self.locals = outer

    def const(self, e):
        """The integer ``e`` denotes as a bound, or None if not a constant."""
        if isinstance(e, ULit):
            return e.value if type(e.value) is int else None
        if isinstance(e, UName):
            if e.name in self.locals:
                return self.locals[e.name]
            return self.consts.get(e.name)
        return None

    def index(self, e):
        """Index ``e`` as an ``Affine``, or None if it is not one."""
        if isinstance(e, UBinOp):
            l, r = self.index(e.left), self.index(e.right)
            if l is None or r is None:
                return None
            if e.op == "+":
                return l.plus(r)
            if l.is_const():
                return r.times(l.const)
            return l.times(r.const) if r.is_const() else None
        if isinstance(e, UName) and e.name in self.locals:
            value = self.locals[e.name]
            return Affine.var(e.name) if value is None else Affine(value)
        value = self.const(e)
        return None if value is None else Affine(value)


# The validator's stand-in for an integer it cannot know (a data integer, an
# element's value): it asks only if a bound is constant and an index affine.
_UNKNOWN_INT = (1 << 31) - 1


class _Validator:
    def __init__(self):
        self.diags = []
        self.env = {}  # name -> VType

    def report(self, rule, message, node):
        self.diags.append(Diagnostic(rule, message,
                                     getattr(node, "line", 0), getattr(node, "col", 0)))

    def run(self, program):
        for name, item in _bindings(program.items):
            if name == "Obj":
                self.report("reserved-name", "Obj names the data's lineage", item)
        self.scope = Scope(program.items)
        self._block(program.items, top=True)
        return self.diags

    def _block(self, items, top=False):
        for item in items:
            if isinstance(item, UExtCall):
                if not top:
                    self.report("ext-top-level",
                                "%s() must appear at the top level" % item.func, item)
                self._bind_ext(item)
            elif isinstance(item, UFor):
                self._for(item)
            else:
                self._assign(item)

    def _bind_ext(self, item):
        if item.func == "loadData":
            if len(item.targets) == 2:
                types = (VType("array", VEC), INT)
            elif len(item.targets) == 3:
                types = (VType("array", VEC), INT,
                         VType("array", VType("array", REAL)))
            else:
                self.report("ext-arity", "loadData binds 2 or 3 names", item)
                types = (UNKNOWN_T,) * len(item.targets)
        elif item.func == "loadParams":
            if len(item.targets) != 2:
                self.report("ext-arity", "loadParams binds 2 names", item)
            types = (INT,) * len(item.targets)
        else:  # init
            if len(item.targets) != 1:
                self.report("ext-arity", "init binds 1 name", item)
            types = (VType("array", VEC),) * len(item.targets)
        for name, t in zip(item.targets, types):
            self.env[name] = t
            if t.base == "int":
                # one stand-in per data integer, so sizes from two differ
                self.scope.bind(name, _UNKNOWN_INT - len(self.scope.consts))

    def _for(self, item):
        self._check_bounds(item, "range")
        if item.var in self.env or item.var in self.scope.locals \
                or item.var in (name for name, _ in _bindings(item.body)):
            self.report("counter-assign",
                        "loop counter %r is bound before its loop or in its body"
                        % item.var, item)
        with self.scope.local(item.var):
            self._block(item.body)

    def _check_bounds(self, node, what):
        for bound, which in ((node.lo, "lower"), (node.hi, "upper")):
            if self.scope.const(bound) is None:
                self.report("range-bound", "%s %s bound is not an integer constant"
                            % (which, what), node)

    def _check_index(self, idx, node):
        if self.scope.index(idx) is None:
            self.report("index-form",
                        "array index is not affine in loop counters and constants",
                        node)

    def _assign(self, item):
        target, expr = item.target, item.expr
        if isinstance(target, UName) and isinstance(expr, UCall) \
                and expr.func in TIE_FUNCS:
            t = self._tie_type(expr)
        else:
            t = self._type(expr)
            if t.base == "array" and not isinstance(expr, UArrayInit):
                self.report("array-value", "an array is used as a value", item)
                t = UNKNOWN_T
        if isinstance(target, UName):
            self.scope.assign(target.name, expr)
            self.env[target.name] = t
            return
        base, indices = index_chain(target)
        if base.name not in self.env:
            self.report("array-init", "array %r assigned before initialisation" % base.name,
                        item)
            self.env[base.name] = VType("array", t)
            return
        at = self.env[base.name]
        for idx in indices:
            if not self._type(idx).scalarish():
                self.report("index-type", "array index is not an integer", item)
            self._check_index(idx, item)
            if at is None or at.base != "array":  # None: an element not yet written
                if at is None or at.base != "unknown":
                    self.report("index-arity", "too many indices for %r" % base.name, item)
                return
            array, at = at, at.elem
        # ``at`` is the element type recorded so far, ``t`` the written one
        if at is None or at.base == "unknown":
            array.elem = t
        elif t.base != "unknown" and t.kind() != at.kind():
            self.report("element-kind", "%s element written to an array of %s elements"
                        % (t.kind(), at.kind()), item)
        elif t.base == "array" and None not in (t.size, at.size) and t.size != at.size:
            self.report("array-size", "rows of %r have different sizes" % base.name, item)

    def _tie_type(self, call):
        """``B = breakTies*(A)``: the tie-breaking calls' one position."""
        ats = [self._type(a) for a in call.args]
        if len(call.args) != 1:
            self.report("call-type", "%s takes one array" % call.func, call)
            return UNKNOWN_T
        want = 1 if call.func == "breakTies" else 2
        depth, t = 0, ats[0]
        while t.base == "array":
            depth, t = depth + 1, t.elem or UNKNOWN_T
        if not isinstance(call.args[0], UName) or depth != want or t.base != "bool":
            self.report("breakties-arg", "%s takes the name of a %d-dimensional array "
                        "of Booleans" % (call.func, want), call)
        return ats[0]

    def _type(self, e):
        k = type(e)
        if k is ULit:
            if isinstance(e.value, bool):
                return BOOL
            return INT if isinstance(e.value, int) else REAL
        if k is UName:
            if e.name in self.scope.locals:  # a counter or a comprehension variable
                return INT
            if e.name not in self.env:
                self.report("undefined-id", "use of undeclared identifier %r" % e.name, e)
                return UNKNOWN_T
            return self.env[e.name]
        if k is UIndex:
            bt = self._type(e.base)
            self._type(e.index)
            self._check_index(e.index, e)
            if bt.base == "array" and isinstance(e.base, (UName, UIndex)):
                if bt.elem is None:  # grounding would find no declaration
                    self.report("unwritten-read", "array element read before "
                                "anything is written to its array", e)
                    return UNKNOWN_T
                return bt.elem
            if bt.base == "vec":
                # the event language has no component projection
                self.report("vec-index", "indexing a feature vector", e)
            elif bt.base != "unknown":
                self.report("index-arity", "indexing what is not a named array", e)
            return UNKNOWN_T
        if k is UCompare:
            lt, rt = self._type(e.left), self._type(e.right)
            for t in (lt, rt):
                if t.base in ("bool", "array"):
                    self.report("compare-type", "comparison over %s" % t.base, e)
            if "vec" in (lt.base, rt.base) and e.op != "==":
                self.report("compare-type", "ordered comparison on vectors", e)
            return BOOL
        if k is UBinOp:
            lt, rt = self._type(e.left), self._type(e.right)
            if e.op == "*":
                if "vec" in (lt.base, rt.base):
                    self.report("mul-type", "use scalar_mult for vector scaling", e)
                elif "bool" in (lt.base, rt.base) or "array" in (lt.base, rt.base):
                    self.report("mul-type", "product over a Boolean or an array", e)
                return REAL if "real" in (lt.base, rt.base) else lt
            if lt.base == "vec" and rt.base == "vec":
                return VEC
            bad = [t.base for t in (lt, rt) if t.base in ("bool", "array")]
            if bad:
                self.report("sum-type", "sum over %s" % bad[0], e)
            return REAL if "real" in (lt.base, rt.base) else lt
        if k is UArrayInit:
            self._type(e.size)
            size = self.scope.const(e.size)
            if size is None:
                self.report("array-size", "array size is not an integer constant", e)
            return VType("array", size=size)
        if k is UCall:
            ats = [self._type(a) for a in e.args]
            if e.func == "pow":
                if len(e.args) != 2 or not ats[0].scalarish() or not ats[1].scalarish():
                    self.report("call-type", "pow takes two scalars", e)
                elif self.scope.const(e.args[1]) is None:
                    self.report("pow-exponent",
                                "pow exponent is not an integer constant", e)
                return REAL
            if e.func == "invert":
                if len(e.args) != 1 or not ats[0].scalarish():
                    self.report("call-type", "invert takes one scalar", e)
                return REAL
            if e.func == "dist":
                if len(e.args) != 2 or any(t.base not in ("vec", "unknown") for t in ats):
                    self.report("call-type", "dist takes two feature vectors", e)
                return REAL
            if e.func == "scalar_mult":
                if len(e.args) != 2 or not ats[0].scalarish() \
                        or ats[1].base not in ("vec", "unknown"):
                    self.report("call-type", "scalar_mult takes a scalar and a vector", e)
                return VEC
            if e.func in TIE_FUNCS:
                self.report("breakties-arg", "%s is only the whole right-hand side "
                            "of an assignment to a name" % e.func, e)
                return UNKNOWN_T
            self.report("call-type", "unknown function %r" % e.func, e)
            return UNKNOWN_T
        if k is UReduce:
            return self._reduce_type(e)
        raise TypeError("not a user expression: %r" % (e,))

    def _reduce_type(self, e):
        comp = e.comp
        self._check_bounds(comp, "comprehension")
        with self.scope.local(comp.var, _UNKNOWN_INT):
            body_t = self._type(comp.expr)
            if comp.cond is not None and \
                    self._type(comp.cond).base not in ("bool", "unknown"):
                self.report("filter-type", "comprehension filter is not Boolean", comp)
        if body_t.base == "array":
            self.report("comprehension-dim",
                        "comprehension may only build one-dimensional arrays of "
                        "base values", comp)
        if e.func == "reduce_and" or e.func == "reduce_or":
            if body_t.base not in ("bool", "unknown"):
                self.report("reduce-type", "%s over non-Boolean elements" % e.func, e)
            return BOOL
        if e.func == "reduce_count":
            return INT
        if e.func == "reduce_mult":
            if body_t.base == "vec":
                self.report("reduce-type", "reduce_mult over vectors", e)
            return REAL
        # reduce_sum
        if body_t.base == "bool":
            self.report("reduce-type", "reduce_sum over Booleans", e)
        return VEC if body_t.base == "vec" else REAL


def validate_user_program(program):
    """Return all rule violations; an empty list means the program is valid."""
    return _Validator().run(program)
