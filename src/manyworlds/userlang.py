"""The user mini-language: parser, AST and validator.

Programs are a sequence of assignments and bounded ``for ... in range(a,b):``
loops over an indentation-delimited block structure.  Expressions cover
literals, identifiers, array initialisation ``[None] * n``, comparisons,
``reduce_*`` calls over list comprehensions, ``pow``, ``invert``, ``dist``,
``scalar_mult``, tie-breaking calls, sums and products.  Input data enters
through the abstract calls ``loadData()``, ``loadParams()`` and ``init()``,
bound to a dataset at translation time.  ``Obj`` is reserved: it names the
points' lineage events, which ``loadData()`` declares.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class UserSyntaxError(Exception):
    def __init__(self, message, line, col=0, filename="<input>"):
        self.line, self.col, self.filename = line, col, filename
        super().__init__("%s:%d:%d: %s" % (filename, line, col, message))


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


# --- lexer --------------------------------------------------------------------

_TOK = re.compile(
    r"(?P<num>\d+\.\d+|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|==|[-+*()\[\],:<>=])|(?P<ws>\s+)|(?P<bad>.)"
)


def _lex_line(text, lineno, filename):
    toks = []
    for m in _TOK.finditer(text):
        kind = m.lastgroup
        col = m.start() + 1
        if kind == "ws":
            continue
        if kind == "bad":
            raise UserSyntaxError("unexpected character %r" % m.group(), lineno, col,
                                  filename)
        if kind == "num":
            s = m.group()
            toks.append(("num", float(s) if "." in s else int(s), lineno, col))
        elif kind == "name":
            toks.append(("name", m.group(), lineno, col))
        else:
            toks.append(("op", m.group(), lineno, col))
    return toks


class _Parser:
    def __init__(self, toks, lineno, filename):
        self.toks = toks
        self.i = 0
        self.lineno = lineno
        self.filename = filename

    def error(self, msg, col=None):
        if col is None:
            col = self.toks[self.i - 1][3] if 0 < self.i <= len(self.toks) else 1
        raise UserSyntaxError(msg, self.lineno, col, self.filename)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", None, self.lineno, 0)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def at(self, kind, value=None):
        t, v, _l, _c = self.peek()
        return t == kind and (value is None or v == value)

    def eat(self, kind, value=None):
        if self.at(kind, value):
            self.i += 1
            return True
        return False

    def expect(self, kind, value=None):
        t, v, _l, c = self.next()
        if t != kind or (value is not None and v != value):
            self.error("expected %s, found %r" % (value or kind, v), c)
        return v

    def done(self):
        return self.i >= len(self.toks)

    # expressions: compare > additive > multiplicative > primary

    def parse_expr(self):
        left = self.parse_additive()
        t, v, line, col = self.peek()
        if t == "op" and v in COMPARE_OPS:
            self.next()
            right = self.parse_additive()
            return UCompare(v, left, right, line, col)
        return left

    def parse_additive(self):
        e = self.parse_multiplicative()
        while self.at("op", "+"):
            _t, _v, line, col = self.next()
            e = UBinOp("+", e, self.parse_multiplicative(), line, col)
        return e

    def parse_multiplicative(self):
        e = self.parse_primary()
        while self.at("op", "*"):
            _t, _v, line, col = self.next()
            e = UBinOp("*", e, self.parse_primary(), line, col)
        return e

    def parse_primary(self):
        t, v, line, col = self.peek()
        if t == "num":
            self.next()
            return self.parse_indexing(ULit(v, line, col))
        if t == "op" and v == "-":
            self.next()
            t2, v2, l2, c2 = self.next()
            if t2 != "num":
                self.error("expected a number after '-'", c2)
            return ULit(-v2, l2, c2)
        if t == "op" and v == "(":
            self.next()
            e = self.parse_expr()
            self.expect("op", ")")
            return self.parse_indexing(e)
        if t == "op" and v == "[":
            # [None] * size
            self.next()
            self.expect("name", "None")
            self.expect("op", "]")
            self.expect("op", "*")
            size = self.parse_primary()
            return UArrayInit(size, line, col)
        if t == "name":
            if v in ("True", "False"):
                self.next()
                return ULit(v == "True", line, col)
            if v in REDUCERS:
                return self.parse_reduce()
            if v in ("pow", "invert", "dist", "scalar_mult") or v in TIE_FUNCS:
                return self.parse_call()
            self.next()
            return self.parse_indexing(UName(v, line, col))
        self.error("unexpected token %r" % (v,), col)

    def parse_indexing(self, base):
        while self.at("op", "["):
            _t, _v, line, col = self.next()
            idx = self.parse_expr()
            self.expect("op", "]")
            base = UIndex(base, idx, line, col)
        return base

    def parse_call(self):
        t, func, line, col = self.next()
        self.expect("op", "(")
        args = [self.parse_expr()]
        while self.eat("op", ","):
            args.append(self.parse_expr())
        self.expect("op", ")")
        return UCall(func, tuple(args), line, col)

    def parse_reduce(self):
        t, func, line, col = self.next()
        self.expect("op", "(")
        if not self.at("op", "["):
            _t, _v, _l, c = self.peek()
            self.error("%s requires a list comprehension, not a named array" % func, c)
        comp = self.parse_comprehension()
        self.expect("op", ")")
        return UReduce(func, comp, line, col)

    def parse_comprehension(self):
        _t, _v, line, col = self.next()  # '['
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
        return UComprehension(expr, var, lo, hi, cond, line, col)

    def parse_range(self):
        self.expect("name", "range")
        self.expect("op", "(")
        lo = self.parse_expr()
        self.expect("op", ",")
        hi = self.parse_expr()
        self.expect("op", ")")
        return lo, hi


def parse_user_program(text, filename="<input>"):
    """Parse source text; raises UserSyntaxError with line/column on failure.

    A statement continues onto following physical lines while it has an
    unclosed parenthesis or bracket, as in the Python it resembles.
    """
    lines = []
    pending = None  # (lineno, indent, text, open_depth)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        if not code.strip():
            continue
        if pending is None:
            indent = len(code) - len(code.lstrip())
            start, body = lineno, code.strip()
        else:
            start, indent, body = pending[0], pending[1], pending[2] + " " + code.strip()
        depth = body.count("(") - body.count(")") + body.count("[") - body.count("]")
        if depth > 0:
            pending = (start, indent, body)
            continue
        pending = None
        lines.append((start, indent, body))
    if pending is not None:
        raise UserSyntaxError("unclosed bracket at end of input", pending[0], 1,
                              filename)
    items, pos = _parse_block(lines, 0, lines[0][1] if lines else 0, filename)
    if pos != len(lines):
        raise UserSyntaxError("inconsistent dedent", lines[pos][0], 1, filename)
    return UProgram(tuple(items))


def _parse_block(lines, pos, indent, filename):
    """The statements of the block at ``indent`` from ``lines[pos]`` on, and
    the position after it."""
    items = []
    while pos < len(lines):
        lineno, ind, code = lines[pos]
        if ind < indent:
            break
        if ind > indent:
            raise UserSyntaxError("unexpected indentation", lineno, ind + 1, filename)
        toks = _lex_line(code, lineno, filename)
        p = _Parser(toks, lineno, filename)
        if p.at("name", "for"):
            p.next()
            var = p.expect("name")
            p.expect("name", "in")
            lo, hi = p.parse_range()
            p.expect("op", ":")
            if not p.done():
                p.error("trailing tokens after ':'")
            pos += 1
            if pos < len(lines) and lines[pos][1] > indent:
                body, pos = _parse_block(lines, pos, lines[pos][1], filename)
            else:
                body = []
            items.append(UFor(var, lo, hi, tuple(body), lineno))
            continue
        items.append(_parse_statement(p, lineno, filename))
        pos += 1
    return items, pos


def _parse_statement(p, lineno, filename):
    if p.at("op", "("):
        p.next()
        names = [p.expect("name")]
        while p.eat("op", ","):
            names.append(p.expect("name"))
        p.expect("op", ")")
        p.expect("op", "=")
        func = p.expect("name")
        if func not in EXT_FUNCS:
            p.error("unknown external call %r" % func)
        p.expect("op", "(")
        p.expect("op", ")")
        if not p.done():
            p.error("trailing tokens")
        return UExtCall(tuple(names), func, lineno)
    target = p.parse_indexing(UName(p.expect("name"), lineno, 1))
    p.expect("op", "=")
    if p.at("name") and p.peek()[1] in EXT_FUNCS:
        func = p.next()[1]
        p.expect("op", "(")
        p.expect("op", ")")
        if not p.done():
            p.error("trailing tokens")
        if not isinstance(target, UName):
            p.error("external call must bind a plain name")
        return UExtCall((target.name,), func, lineno)
    expr = p.parse_expr()
    if not p.done():
        p.error("trailing tokens after expression")
    return UAssign(target, expr, lineno)


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

    def emit(items, depth):
        pad = " " * depth
        for item in items:
            if isinstance(item, UFor):
                out.append("%sfor %s in range(%s, %s):" % (
                    pad, item.var, format_user_expr(item.lo), format_user_expr(item.hi)))
                emit(item.body, depth + 1)
            elif isinstance(item, UExtCall):
                if len(item.targets) == 1:
                    out.append("%s%s = %s()" % (pad, item.targets[0], item.func))
                else:
                    out.append("%s(%s) = %s()" % (pad, ", ".join(item.targets), item.func))
            else:
                out.append("%s%s = %s" % (pad, format_user_expr(item.target),
                                          format_user_expr(item.expr)))

    emit(program.items, 0)
    return "\n".join(out) + "\n"


# --- validator --------------------------------------------------------------------


@dataclass
class VType:
    base: str  # 'bool' | 'int' | 'real' | 'vec' | 'array' | 'unknown'
    elem: object = None

    def scalarish(self):
        return self.base in ("int", "real", "unknown")

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


def reassigned_names(items):
    """Names bound by more than one statement: never integer constants."""
    seen, again = set(), set()
    for name, _item in _bindings(items):
        (again if name in seen else seen).add(name)
    return again


class _Validator:
    def __init__(self):
        self.diags = []
        self.env = {}        # name -> VType
        self.const_int = {}  # names usable as range bounds
        self.comp_vars = []  # comprehension variables in scope
        self.loop_vars = []

    def report(self, rule, message, node):
        self.diags.append(Diagnostic(rule, message,
                                     getattr(node, "line", 0), getattr(node, "col", 0)))

    def run(self, program):
        for name, item in _bindings(program.items):
            if name == "Obj":
                self.report("reserved-name", "Obj names the data's lineage", item)
        self.reassigned = reassigned_names(program.items)
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
                self.const_int[name] = None

    def _for(self, item):
        for bound, which in ((item.lo, "lower"), (item.hi, "upper")):
            if not self._const_bound(bound):
                self.report("range-bound",
                            "%s range bound is not an integer constant" % which, item)
        self.env[item.var] = INT
        self.loop_vars.append(item.var)
        if item.var in self.reassigned:
            self.report("counter-assign", "loop counter %r is reassigned" % item.var, item)
        self._block(item.body)
        self.loop_vars.pop()

    def _const_bound(self, e):
        """An integer constant to the translator (``const_value``): a
        literal, a comprehension variable (one value per expanded element)
        or a name bound once to an integer."""
        if isinstance(e, ULit) and isinstance(e.value, int) and not isinstance(e.value, bool):
            return True
        if isinstance(e, UName):
            return e.name in self.comp_vars or (
                e.name in self.const_int and e.name not in self.reassigned)
        return False

    def _assign(self, item):
        t = self._type(item.expr)
        target = item.target
        if isinstance(target, UName):
            if isinstance(item.expr, ULit) and isinstance(item.expr.value, int) \
                    and not isinstance(item.expr.value, bool) \
                    and target.name not in self.reassigned:
                self.const_int[target.name] = item.expr.value
            if isinstance(item.expr, UCall) and item.expr.func in TIE_FUNCS:
                arg = item.expr.args[0]
                if not isinstance(arg, UName):
                    self.report("breakties-arg", "tie-breaking takes an array name",
                                item.expr)
            self.env[target.name] = t
            return
        # element assignment: walk the index chain
        chain = []
        base = target
        while isinstance(base, UIndex):
            chain.append(base.index)
            base = base.base
        if not isinstance(base, UName):
            self.report("assign-target", "assignment target must be a name or element",
                        item)
            return
        if base.name not in self.env:
            self.report("array-init", "array %r assigned before initialisation" % base.name,
                        item)
            self.env[base.name] = VType("array", t)
            return
        at = self.env[base.name]
        for idx in reversed(chain):
            it = self._type(idx)
            if not it.scalarish():
                self.report("index-type", "array index is not an integer", item)
            if at.base != "array":
                if isinstance(item.expr, UArrayInit) or at.base == "unknown":
                    at = UNKNOWN_T
                    break
                self.report("index-arity", "too many indices for %r" % base.name, item)
                return
            at = at.elem if at.elem is not None else UNKNOWN_T
        if isinstance(item.expr, UArrayInit):
            self._update_shape(base.name, len(chain))

    def _update_shape(self, name, depth):
        """Element-level ``[None] * n`` writes extend the array's recorded shape."""
        node = self.env.get(name)
        for _ in range(depth):
            if node is None or node.base != "array":
                return
            if node.elem is None:
                node.elem = VType("array")
            node = node.elem

    def _type(self, e):
        k = type(e)
        if k is ULit:
            if isinstance(e.value, bool):
                return BOOL
            return INT if isinstance(e.value, int) else REAL
        if k is UName:
            if e.name not in self.env:
                self.report("undefined-id", "use of undeclared identifier %r" % e.name, e)
                return UNKNOWN_T
            return self.env[e.name]
        if k is UIndex:
            bt = self._type(e.base)
            self._type(e.index)
            if bt.base == "array":
                return bt.elem if bt.elem is not None else UNKNOWN_T
            if bt.base == "vec":
                return REAL
            if bt.base != "unknown":
                self.report("index-arity", "indexing a non-array", e)
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
            if "bool" in (lt.base, rt.base) or "array" in (lt.base, rt.base):
                self.report("sum-type", "sum over %s" % lt.base, e)
            return REAL if "real" in (lt.base, rt.base) else lt
        if k is UArrayInit:
            self._type(e.size)
            if not self._const_bound(e.size):
                self.report("array-size", "array size is not an integer constant", e)
            return VType("array")
        if k is UCall:
            ats = [self._type(a) for a in e.args]
            if e.func == "pow":
                if len(e.args) != 2 or not ats[0].scalarish() or not ats[1].scalarish():
                    self.report("call-type", "pow takes two scalars", e)
                elif not self._const_bound(e.args[1]):
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
                if len(e.args) != 1:
                    self.report("call-type", "%s takes one array" % e.func, e)
                return ats[0] if ats else UNKNOWN_T
            self.report("call-type", "unknown function %r" % e.func, e)
            return UNKNOWN_T
        if k is UReduce:
            return self._reduce_type(e)
        raise TypeError("not a user expression: %r" % (e,))

    def _reduce_type(self, e):
        comp = e.comp
        for bound, which in ((comp.lo, "lower"), (comp.hi, "upper")):
            if not self._const_bound(bound):
                self.report("range-bound",
                            "%s comprehension bound is not an integer constant" % which,
                            comp)
        had = comp.var in self.env
        old = self.env.get(comp.var)
        self.env[comp.var] = INT
        self.comp_vars.append(comp.var)
        body_t = self._type(comp.expr)
        if comp.cond is not None:
            ct = self._type(comp.cond)
            if ct.base not in ("bool", "unknown"):
                self.report("filter-type", "comprehension filter is not Boolean", comp)
        self.comp_vars.pop()
        if had:
            self.env[comp.var] = old
        else:
            del self.env[comp.var]
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
