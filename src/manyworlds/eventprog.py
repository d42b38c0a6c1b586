"""Event programs: ordered immutable declarations, bounded loops, grounding.

A program is a sequence of declarations ``EID := expr`` and ``forall`` loops
with constant bounds.  Identifiers may carry index expressions that are affine
in the enclosing loop counters (``M[i,it-1]``, ``M[1,2*i+1]``).  Grounding
instantiates every loop, evaluates the index arithmetic and yields an ordered
map from grounded identifier strings to expressions whose references point at
earlier grounded identifiers.

The textual format (one declaration per line, loops by indentation) is both
accepted and emitted:

    Obj[0] := x1 | x3
    O[0] := Obj[0] ? [0.0]
    forall it in 0..2:          # iterates it = 0, 1  (upper bound exclusive)
      InCl[0,it] := Obj[0] & [ dist(O[0], M[0,it-1]) <= dist(O[0], M[1,it-1]) ]

A line with an unclosed parenthesis or bracket continues onto the next; a
syntax error gives its line and column.

Expressions have one grammar, loosest binding first: ``+``, ``*``,
``event ? primary``, ``|``, ``&``, ``!``.  A primary is a number, a vector
``[x,y]``, ``true``, ``false``, a name, a ``[ a cmp b ]`` atom, ``pow(c,n)``,
``inv(c)`` (read as ``pow(c,-1)``), ``dist(c,c)``, an ``all``/``any``/``sum``/
``prod(j,lo,hi,body)`` fold (expanded at parse time) or a parenthesised
expression.  The parser does not tell events from c-values: the network
builder does (``events.kind_rule``).

The source reader (``TokenCursor``, the logical lines and the indentation
blocks of ``parse_blocks``, ``ProgramSyntaxError``) is the user language's
too: each language adds only its statement and expression rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from operator import itemgetter

from .events import (
    Add, And, Atom, CondVal, Const, Dist, Guard, Mul, Not, Or, Pow, Ref,
    Var, FALSE, TRUE, COMPARATORS, children_of,
)


class GroundError(Exception):
    """Grounding failure: duplicate, unresolved or cyclic identifiers."""


class ProgramSyntaxError(Exception):
    """A syntax error in either source language: the event language or the
    user language (``userlang``)."""

    def __init__(self, message, line, col=0, filename="<input>"):
        self.line, self.col, self.filename = line, col, filename
        super().__init__("%s:%d:%d: %s" % (filename, line, col, message))


# ---------------------------------------------------------------------------
# Affine index expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """Integer expression  const + sum(coef * counter)  over loop counters."""

    const: int = 0
    terms: tuple = ()  # sorted tuple of (counter_name, coef), coef != 0

    @classmethod
    def of(cls, const=0, **coefs):
        terms = tuple(sorted((n, c) for n, c in coefs.items() if c != 0))
        return cls(const, terms)

    @classmethod
    def var(cls, name):
        return cls(0, ((name, 1),))

    def is_const(self):
        return not self.terms

    def shift(self, name, delta):
        """Substitute counter := counter + delta."""
        coef = dict(self.terms).get(name, 0)
        if coef == 0:
            return self
        return Affine(self.const + coef * delta, self.terms)

    def plus(self, other):
        if isinstance(other, int):
            return Affine(self.const + other, self.terms)
        coefs = dict(self.terms)
        for n, c in other.terms:
            coefs[n] = coefs.get(n, 0) + c
        terms = tuple(sorted((n, c) for n, c in coefs.items() if c != 0))
        return Affine(self.const + other.const, terms)

    def times(self, k):
        return Affine(self.const * k, tuple((n, c * k) for n, c in self.terms))

    def bind(self, env):
        """Substitute the counters ``env`` binds; the others stay symbolic."""
        const, kept = self.const, []
        for name, coef in self.terms:
            if name in env:
                const += coef * env[name]
            else:
                kept.append((name, coef))
        return Affine(const, tuple(kept))

    def eval(self, env):
        value = self.const
        for name, coef in self.terms:
            if name not in env:
                raise GroundError("unbound loop counter %r" % name)
            value += coef * env[name]
        return value

    def __str__(self):
        parts = []
        for name, coef in self.terms:
            if coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append("-" + name)
            else:
                parts.append("%d*%s" % (coef, name))
        if self.const or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


def as_affine(x):
    if isinstance(x, Affine):
        return x
    if isinstance(x, int):
        return Affine(x)
    if isinstance(x, str):
        return Affine.var(x)
    raise TypeError("not an index expression: %r" % (x,))


# ---------------------------------------------------------------------------
# Program structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decl:
    name: str
    indices: tuple  # tuple of Affine
    expr: object

    def eid_under(self, env):
        return render_eid(self.name, [ix.eval(env) for ix in self.indices])


@dataclass(frozen=True)
class Loop:
    counter: str
    lo: int
    hi: int  # exclusive
    body: tuple


@dataclass(frozen=True)
class EventProgram:
    items: tuple


def render_eid(name, indices):
    if not indices:
        return name
    return "%s[%s]" % (name, ",".join(str(int(i)) for i in indices))


def decl(name, indices, expr):
    return Decl(name, tuple(as_affine(i) for i in indices), expr)


def ref(name, *indices):
    return Ref(name, tuple(as_affine(i) for i in indices))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


@dataclass
class GroundedProgram:
    """Ordered grounded declarations plus the selected compilation targets."""

    decls: dict  # eid -> expression (references are grounded Refs)
    targets: list = field(default_factory=list)

    def as_program(self):
        """The grounded declarations as an event program without loops."""
        return EventProgram(_plain(self.decls))


def _plain(decls):
    return tuple(Decl(eid, (), e) for eid, e in decls.items())


def glob_to_regex(pattern):
    """Glob with ``*`` and ``?`` wildcards; everything else literal."""
    out = []
    for ch in pattern:
        if ch == "*":
            out.append(".*")
        elif ch == "?":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$")


class _Grounder:
    """One call's grounding.

    ``walk(e, env)`` returns the source expression ``e`` grounded under the
    counter binding ``env``.  Indices and counter values are evaluated, or
    with ``bind`` only the counters ``env`` binds are substituted
    (``Affine.bind``).  Bare names resolve against ``declared`` and
    ``variables``, or stay as they are with ``declared`` None.  Grounding
    does not type: ``network.build_network`` checks the kinds of the nodes
    it builds, on the unfolded and the folded route alike.

    Grounding is staged.  The first walk of a source node under bindings of
    some counters compiles it into a *step*, ``step(env) -> grounded``, with
    its children's steps, its index arithmetic and its memo test worked
    out; every later binding of those counters runs the step.  ``ground``
    drops the steps of each top-level item once its declarations are
    grounded, so a declaration that grounds once holds them no longer.

    A step keeps, per values of the bound counters its node reads, the
    subtree it grounded when the node repeats under one binding: when the
    node does not read every bound counter, so that it repeats over an
    enclosing loop, or when it is reached from more than one parent
    (``shared``, decided as nodes are compiled, since a later declaration
    can share a node).  Each repeat returns the one object.  An indexed
    reference resolves to the same declaration or fails, but a bare name
    resolves against the declarations as they stand (a variable until
    ``y := ...`` is declared), so a subtree that names one is never kept.
    A reference keeps its ``Ref`` per binding, and ``refs`` keeps one per
    grounded identifier, so each is rendered once.  Source nodes are keyed
    by identity: the caller's program keeps them alive for the call.  No
    step refers to the grounder or to the table of steps, so a call leaves
    no reference cycle, whether it returns or raises.
    """

    def __init__(self, declared, variables, bind=False):
        self.declared = declared
        self.variables = variables
        self.bind = bind
        # (id(source node), bound counters) -> (step, the counters the node
        # reads, or None if it names a bare identifier)
        self.steps = {}
        self.seen = set()  # ids of the source nodes compiled so far
        self.shared = set()  # ids of those reached from more than one parent
        self.refs = {}  # (name, index values) -> grounded Ref

    def walk(self, e, env):
        counters = tuple(env)
        hit = self.steps.get((id(e), counters))
        step = (hit or self._compile(e, counters))[0]
        return step(env)

    def _compile(self, e, counters):
        key = id(e)
        if key in self.seen:
            self.shared.add(key)
        else:
            self.seen.add(key)
        hit = self.steps.get((key, counters))
        if hit is not None:
            return hit
        kind = type(e)
        if kind is Ref and e.indices:
            affines = tuple(as_affine(ix) for ix in e.indices)
            reads = frozenset(n for a in affines for n, _ in a.terms)
            binding = _binding([n for n in counters if n in reads])
            if self.bind:  # the counters not bound stay symbolic
                step = _kept(_bind_ref(e.name, affines), binding)
            elif reads <= set(counters):
                step = _kept(_ground_ref(e.name, affines, self.declared,
                                         self.refs), binding)
            else:  # the first counter not bound, as ``Affine.eval`` names it
                step = _unbound(next(n for a in affines for n, _ in a.terms
                                     if n not in counters))
        elif kind is Ref or kind is Var:
            step, reads = _resolve_name(e, self.declared, self.variables), None
        elif kind is Const:
            step, reads = (lambda env: e), frozenset()
        else:
            below = [self._compile(c, counters) for c in children_of(e)]
            reads = frozenset()
            for _, r in below:
                reads = None if reads is None or r is None else reads | r
            if kind is CondVal and isinstance(e.value, Affine) \
                    and reads is not None:
                reads |= {n for n, _ in e.value.terms}
            step = _build_step(e, [s for s, _ in below], self.bind)
            if reads is not None:
                binding = _binding([n for n in counters if n in reads])
                if reads >= set(counters):  # no repeat over a loop
                    step = _kept(step, binding, key, self.shared)
                else:
                    step = _kept(step, binding)
        hit = self.steps[key, counters] = (step, reads)
        return hit


def _binding(names):
    """The key of a binding: the values of the bound counters ``names``."""
    return itemgetter(*names) if names else (lambda env: ())


def _kept(build, binding, key=None, shared=None):
    """``build`` with its result kept per ``binding(env)``: always, or once
    the node ``key`` is among the ``shared`` ids."""
    known = {}

    def step(env):
        if shared is not None and key not in shared:
            return build(env)
        at = binding(env)
        out = known.get(at)
        if out is None:
            out = known[at] = build(env)
        return out
    return step


def _unbound(name):
    def step(env):
        raise GroundError("unbound loop counter %r" % name)
    return step


def _index_values(affines, env):
    """The values of ``affines`` under ``env``, which binds their counters."""
    values = []
    for a in affines:
        value = a.const
        for name, coef in a.terms:
            value += coef * env[name]
        values.append(value)
    return tuple(values)


def _ground_ref(name, affines, declared, refs):
    """An indexed reference grounded: the ``Ref`` of the identifier it
    names, which must be declared by then."""
    def build(env):
        values = _index_values(affines, env)
        out = refs.get((name, values))
        if out is None:
            eid = render_eid(name, values)
            if eid not in declared:
                raise GroundError("unresolved reference %r" % eid)
            out = refs[name, values] = Ref(eid)
        return out
    return build


def _bind_ref(name, affines):
    return lambda env: Ref(name, tuple([a.bind(env) for a in affines]))


def _resolve_name(e, declared, variables):
    """The step of a bare name: a declaration or a variable, as it resolves
    when the step runs, or the name as it is with ``declared`` None."""
    if declared is None:
        return lambda env: e

    def step(env):
        if type(e) is Var:
            if variables is None or e.name in variables:
                return e
            if e.name not in declared:
                raise GroundError("unresolved variable %r" % e.name)
        elif e.name not in declared:
            if variables is None or e.name in variables:
                # bare undeclared name: a random variable
                return Var(e.name)
            raise GroundError("unresolved reference %r" % e.name)
        return Ref(e.name)
    return step


def _build_step(e, steps, bind):
    """The step of an interior node over its children's ``steps``: the
    node rebuilt over their results, as ``map_children`` would."""
    kind = type(e)
    if kind in (And, Or, Add, Mul):
        return lambda env: kind(tuple([s(env) for s in steps]))
    if kind is Not:
        child, = steps
        return lambda env: Not(child(env))
    if kind is Atom:
        op, left, right = e.op, steps[0], steps[1]
        return lambda env: Atom(op, left(env), right(env))
    if kind is Dist:
        left, right = steps
        return lambda env: Dist(left(env), right(env))
    if kind is Guard:
        guard, body = steps
        return lambda env: Guard(guard(env), body(env))
    if kind is Pow:
        child, exponent = steps[0], e.exponent
        return lambda env: Pow(child(env), exponent)
    guard, value = steps[0], e.value  # CondVal
    if not isinstance(value, Affine):
        return lambda env: CondVal(guard(env), value)

    def step(env):  # the value first, as ``Affine.eval`` did
        if bind:
            number = value.bind(env)
            if number.is_const():
                number = number.const
        else:
            number = value.eval(env)
        return CondVal(guard(env), number)
    return step


def _instances(items, env):
    """Each declaration in ``items`` with every binding of its loop counters."""
    for item in items:
        if isinstance(item, Loop):
            for v in range(item.lo, item.hi):
                yield from _instances(item.body, {**env, item.counter: v})
        else:
            yield item, env


def ground(program, target_patterns=("*",), variables=None):
    """Instantiate all loops and resolve every reference.

    ``variables``: optional set of known random-variable names.  When given,
    bare names must resolve either to a declaration or to a variable; when
    omitted, undeclared bare names are assumed to be variables.
    """
    decls = {}
    grounder = _Grounder(decls, variables)
    for top in program.items:
        for item, env in _instances((top,), {}):
            eid = item.eid_under(env)
            if eid in decls:
                raise GroundError("identifier %r assigned twice" % eid)
            decls[eid] = grounder.walk(item.expr, env)
        grounder.steps.clear()  # no later item runs this one's steps
    targets = match_targets(decls.keys(), target_patterns)
    return GroundedProgram(decls, targets)


def match_targets(eids, patterns):
    if isinstance(patterns, str):
        patterns = (patterns,)
    targets = []
    seen = set()
    for pat in patterns:
        rx = glob_to_regex(pat)
        hits = [e for e in eids if rx.match(e)]
        if not hits:
            raise GroundError("target pattern %r matches no declaration" % pat)
        for e in hits:
            if e not in seen:
                seen.add(e)
                targets.append(e)
    return targets


# ---------------------------------------------------------------------------
# Folded grounding: the outermost loop stays symbolic
# ---------------------------------------------------------------------------


@dataclass
class FoldedProgram:
    """Grounding that keeps the outermost loop's counter symbolic.

    ``base`` holds the grounded declarations outside the loop; ``body`` holds
    the loop body's declarations over all inner counters, with indices still
    affine in the loop counter.  References in body expressions resolve either
    to the same iteration, to the previous one, or to base declarations.
    """

    counter: str
    count: int
    base: dict  # eid -> grounded expr
    body: tuple  # of Decl
    targets: list = field(default_factory=list)  # final-iteration eids

    def as_program(self):
        """The base declarations, then the body in a loop over the counter."""
        return EventProgram(_plain(self.base) + (
            Loop(self.counter, 0, self.count, self.body),))


def _weight(item):
    """How many declarations ``item`` grounds into; an empty loop counts once."""
    if isinstance(item, Loop):
        return sum(_weight(b) for b in item.body) * max(item.hi - item.lo, 1)
    return 1


def folded_loop(program):
    """The loop ``ground_folded`` folds: the top-level loop with the most
    declarations, or None."""
    return max((it for it in program.items if isinstance(it, Loop)),
               key=_weight, default=None)


def ground_folded(program, target_patterns=("*",), variables=None):
    """Ground for folded-loop evaluation.

    The iteration dimension is ``folded_loop(program)``; everything before it
    (other loops included) grounds into the base layer.  Declarations after
    it cannot be represented in a folded network: they are omitted, and
    selecting them as targets is an error.
    """
    loop = folded_loop(program)
    if loop is None:
        raise GroundError("folded grounding requires a top-level loop")
    split = program.items.index(loop)
    base = ground(EventProgram(program.items[:split]), (), variables)

    # bare names in the body resolve against the base declarations, as in
    # ``ground``; indices and values stay affine in the loop counter
    binder = _Grounder(base.decls, variables, bind=True)
    body = tuple(Decl(item.name, tuple(ix.bind(env) for ix in item.indices),
                      binder.walk(item.expr, env))
                 for item, env in _instances(loop.body, {}))
    if loop.lo != 0:
        raise GroundError("folded loops must start at 0")
    # every iteration's eids, in ``ground``'s order, so that a collision at
    # any iteration is the one ``ground`` reports
    seen, final = set(base.decls), []
    for t in range(loop.hi):
        final = [d.eid_under({loop.counter: t}) for d in body]
        for eid in final:
            if eid in seen:
                raise GroundError("identifier %r assigned twice" % eid)
            seen.add(eid)

    # targets are final-iteration eids, in match_targets' order over the
    # base then the body; names after the loop are matched too, so that
    # selecting one is reported as such
    tail = [item.eid_under(env)
            for item, env in _instances(program.items[split + 1:], {})]
    targets = match_targets(list(base.decls) + final + tail, target_patterns)
    tail, final = set(tail), set(final)
    for eid in targets:
        if eid in tail:
            raise GroundError("folded target %r lies after the folded loop" % eid)
    for eid in targets:
        if eid not in final:
            raise GroundError(
                "folded target %r is not a final-iteration declaration" % eid)
    return FoldedProgram(loop.counter, loop.hi, base.decls, body, targets)


def _bind(e, env):
    """``e`` with the loop counters ``env`` binds substituted into its
    reference indices and counter values; other counters and names stay."""
    return _Grounder(None, None, bind=True).walk(e, env)


# ---------------------------------------------------------------------------
# Source reader: tokens, logical lines and indentation blocks, shared with
# the user language
# ---------------------------------------------------------------------------

_TOKEN_RX = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|==|\.\.|:=|[-+*?&|!<>=\[\](),:])|(?P<bad>\S))"
)


class TokenCursor:
    """A walk over the tokens of one logical line.

    Tokens are (kind, value) pairs: ``num`` (an int or a float), ``name``
    or ``op``, and a last ``("eof", None)`` that ``next`` never passes.
    ``cols`` holds each token's column in the line's text, counted from 1;
    the end's is the column just after the last token (1 on an empty
    line).  ``describe`` names a token in a message, the end as "end of
    line".  A language's parser subclasses this and adds
    ``statement(headers)``, its rule for one line (see ``parse_blocks``).
    """

    def __init__(self, text, line, filename="<input>"):
        self.line, self.filename = line, filename
        self.toks, self.cols, self.i = [], [], 0
        end = 1
        for m in _TOKEN_RX.finditer(text):
            kind = m.lastgroup
            value, col = m.group(kind), m.start(kind) + 1
            if kind == "bad":
                raise ProgramSyntaxError("unexpected character %r" % value, line,
                                         col, filename)
            if kind == "num":
                value = float(value) if "." in value else int(value)
            self.toks.append((kind, value))
            self.cols.append(col)
            end = m.end(kind) + 1
        self.toks.append(("eof", None))
        self.cols.append(end)

    def error(self, message, col=None):
        """Raise at ``col``, by default the last token read."""
        if col is None:
            col = self.cols[self.i - 1] if self.i else 1
        raise ProgramSyntaxError(message, self.line, col, self.filename)

    def col(self):
        return self.cols[self.i]

    @staticmethod
    def describe(tok):
        return "end of line" if tok[0] == "eof" else repr(tok[1])

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def done(self):
        return self.toks[self.i][0] == "eof"

    def at(self, kind, value=None):
        t, v = self.toks[self.i]
        return t == kind and (value is None or v == value)

    def eat(self, kind, value=None):
        if self.at(kind, value):
            self.i += 1
            return True
        return False

    def expect(self, kind, value=None):
        col = self.col()
        tok = t, v = self.next()
        if t != kind or (value is not None and v != value):
            self.error("expected %s, found %s" % (value or kind,
                                                  self.describe(tok)), col)
        return v


def _logical_lines(text, filename="<input>"):
    """(line, indent, text) for each logical line of ``text``.

    Comments and blank lines are dropped, and a line with an unclosed
    parenthesis or bracket continues onto the next physical line.
    """
    lines, pending = [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        if not code.strip():
            continue
        if pending is None:
            pending = (lineno, len(code) - len(code.lstrip()), code.strip())
        else:
            pending = (pending[0], pending[1], pending[2] + " " + code.strip())
        body = pending[2]
        if body.count("(") + body.count("[") <= body.count(")") + body.count("]"):
            lines.append(pending)
            pending = None
    if pending is not None:
        raise ProgramSyntaxError("unclosed bracket at end of input", pending[0], 1,
                                 filename)
    return lines


def parse_blocks(text, parser, filename="<input>"):
    """The items of ``text``, nested by indentation.

    Each logical line is read by ``parser(text, line, filename)
    .statement(headers)``, given the block headers that enclose it,
    outermost first.  It returns ``(item, False)``, or ``(header, True)``
    for a block header, whose ``body`` the more indented lines after it
    fill.
    """
    lines = _logical_lines(text, filename)
    items, pos = _block(lines, 0, lines[0][1] if lines else 0, parser, (),
                        filename)
    if pos != len(lines):
        raise ProgramSyntaxError("inconsistent dedent", lines[pos][0], 1, filename)
    return tuple(items)


def _block(lines, pos, indent, parser, headers, filename):
    """The items of the block at ``indent`` from ``lines[pos]`` on, and the
    position after it."""
    items = []
    while pos < len(lines):
        line, ind, code = lines[pos]
        if ind < indent:
            break
        if ind > indent:
            raise ProgramSyntaxError("unexpected indentation", line, ind + 1,
                                     filename)
        item, opens = parser(code, line, filename).statement(headers)
        pos += 1
        if opens:
            body = []
            if pos < len(lines) and lines[pos][1] > indent:
                body, pos = _block(lines, pos, lines[pos][1], parser,
                                   headers + (item,), filename)
            item = replace(item, body=tuple(body))
        items.append(item)
    return items, pos


# ---------------------------------------------------------------------------
# Textual format: parser
# ---------------------------------------------------------------------------

# fold -> (node over the expanded bodies, value of an empty fold); an empty
# sum is undefined, an empty product one
_FOLDS = {"all": (And, TRUE), "any": (Or, FALSE),
          "sum": (Add, CondVal(FALSE, 0)), "prod": (Mul, CondVal(TRUE, 1))}


class EventParser(TokenCursor):
    """The event language's rules over one logical line."""

    counters = frozenset()  # loop and fold counters in scope

    def statement(self, headers):
        """A declaration ``EID := expr`` or a ``forall c in lo..hi:`` header."""
        self.counters = frozenset(h.counter for h in headers)
        name = self.expect("name")
        if name == "forall" and self.at("name"):
            counter = self.next()[1]
            self.expect("name", "in")
            lo, hi = self.parse_range("..")
            self.expect("op", ":")
            item, opens = Loop(counter, lo, hi, ()), True
        else:
            indices = self.parse_indices()
            self.expect("op", ":=")
            item, opens = Decl(name, indices, self.parse_expr()), False
        if not self.done():
            self.error("trailing tokens after expression", self.col())
        return item, opens

    def parse_range(self, sep):
        lo = self.parse_index_expr()
        self.expect("op", sep)
        hi = self.parse_index_expr()
        if not lo.is_const() or not hi.is_const():
            self.error("range bounds must be constant")
        return lo.const, hi.const

    def parse_fold(self):
        """``all``/``any``/``sum``/``prod(j, lo, hi, body)``, expanded over
        ``j`` at parse time."""
        combine, empty = _FOLDS[self.next()[1]]
        self.expect("op", "(")
        counter = self.expect("name")
        self.expect("op", ",")
        lo, hi = self.parse_range(",")
        self.expect("op", ",")
        saved = self.counters
        self.counters = saved | {counter}
        body = self.parse_expr()
        self.expect("op", ")")
        self.counters = saved
        exprs = tuple(_bind(body, {counter: v}) for v in range(lo, hi))
        return combine(exprs) if exprs else empty

    # --- expressions, loosest binding first --------------------------------

    def parse_expr(self):
        return self._chain("+", Add, self.parse_product)

    def parse_product(self):
        return self._chain("*", Mul, self.parse_guard)

    def parse_guard(self):
        """``event ? primary``, or the event alone.  A guarded constant
        (``g ? 1.0``, ``g ? (true ? 1.0)``) is one ``CondVal``, and so is a
        counter value ``g ? i``."""
        guard = self.parse_or()
        if not self.eat("op", "?"):
            return guard
        t, v = self.peek()
        if t == "name" and v in self.counters:
            self.next()
            return CondVal(guard, Affine.var(v))
        body = self.parse_primary()
        if isinstance(body, CondVal) and body.guard is TRUE:
            return CondVal(guard, body.value)
        return Guard(guard, body)

    def parse_or(self):
        return self._chain("|", Or, self.parse_and)

    def parse_and(self):
        return self._chain("&", And, self.parse_not)

    def parse_not(self):
        if self.eat("op", "!"):
            return Not(self.parse_not())
        return self.parse_primary()

    def _chain(self, op, node, operand):
        parts = [operand()]
        while self.eat("op", op):
            parts.append(operand())
        return parts[0] if len(parts) == 1 else node(tuple(parts))

    def parse_primary(self):
        t, v = self.peek()
        if self.eat("op", "("):
            e = self.parse_expr()
            self.expect("op", ")")
            return e
        if t == "num" or (t == "op" and v == "-"):
            return CondVal(TRUE, self.parse_number())
        if t == "op" and v == "[":
            if self._at_vector():
                return CondVal(TRUE, self.parse_vector())
            return self.parse_atom()
        if t == "name":
            if v in _FOLDS:
                return self.parse_fold()
            if v in ("pow", "inv", "dist"):
                return self.parse_call()
            self.next()
            if v in ("true", "false"):
                return TRUE if v == "true" else FALSE
            return Ref(v, self.parse_indices())
        self.error("expected an expression, found %s"
                   % self.describe(self.peek()), self.col())

    def _at_vector(self):
        """Whether the ``[`` here opens a vector literal: a number, then
        ``,`` or ``]``, follows it.  Otherwise it opens an atom."""
        j = self.i + 1
        if self.toks[j] == ("op", "-"):
            j += 1
        return (self.toks[j][0] == "num"
                and self.toks[j + 1] in (("op", ","), ("op", "]")))

    def parse_atom(self):
        self.expect("op", "[")
        left = self.parse_expr()
        col = self.col()
        tok = t, v = self.next()
        op = "=" if v == "==" else v
        if t != "op" or op not in COMPARATORS:
            self.error("expected comparator, found %s" % self.describe(tok), col)
        right = self.parse_expr()
        self.expect("op", "]")
        return Atom(op, left, right)

    def parse_call(self):
        """``pow(c, n)``, ``inv(c)`` (read as ``pow(c, -1)``) or
        ``dist(c, c)``."""
        name = self.next()[1]
        self.expect("op", "(")
        first = self.parse_expr()
        if name == "inv":
            out = Pow(first, -1)
        elif name == "dist":
            self.expect("op", ",")
            out = Dist(first, self.parse_expr())
        else:
            self.expect("op", ",")
            col = self.col()
            n = self.parse_number()
            if not isinstance(n, int):
                self.error("power exponent must be an integer", col)
            out = Pow(first, n)
        self.expect("op", ")")
        return out

    def parse_number(self):
        neg = self.eat("op", "-")
        col = self.col()
        tok = t, v = self.next()
        if t != "num":
            self.error("expected a number, found %s" % self.describe(tok), col)
        return -v if neg else v

    def parse_vector(self):
        self.expect("op", "[")
        values = [self.parse_number()]
        while self.eat("op", ","):
            values.append(self.parse_number())
        self.expect("op", "]")
        return tuple(float(x) for x in values)

    # --- indices ------------------------------------------------------------

    def parse_indices(self):
        if not self.eat("op", "["):
            return ()
        out = [self.parse_index_expr()]
        while self.eat("op", ","):
            out.append(self.parse_index_expr())
        self.expect("op", "]")
        return tuple(out)

    def parse_index_expr(self):
        e = self.parse_index_term()
        while True:
            if self.eat("op", "+"):
                e = e.plus(self.parse_index_term())
            elif self.eat("op", "-"):
                e = e.plus(self.parse_index_term().times(-1))
            else:
                return e

    def parse_index_term(self):
        if self.eat("op", "-"):
            return self.parse_index_term().times(-1)
        t, v = self.next()
        if t == "num":
            if not isinstance(v, int):
                self.error("index must be an integer")
            value = Affine(v)
        elif t == "name":
            if v not in self.counters:
                self.error("unknown loop counter %r in index" % v)
            value = Affine.var(v)
        else:
            self.error("bad index expression near %r" % (v,))
        if self.eat("op", "*"):
            t2, v2 = self.next()
            if t == "num" and t2 == "name":
                if v2 not in self.counters:
                    self.error("unknown loop counter %r in index" % v2)
                return Affine.var(v2).times(value.const)
            if t2 == "num" and isinstance(v2, int):
                return value.times(v2)
            self.error("bad index product")
        return value


def parse_event_program(text, filename="<input>"):
    """Parse the line-oriented event program format; syntax errors name
    ``filename``."""
    return EventProgram(parse_blocks(text, EventParser, filename))


# ---------------------------------------------------------------------------
# Textual format: emitter
# ---------------------------------------------------------------------------


def _fmt_value(v):
    if isinstance(v, tuple):
        return "[%s]" % ", ".join(repr(float(x)) for x in v)
    if isinstance(v, Affine):
        return str(v)
    if isinstance(v, bool):
        raise TypeError("boolean in value position")
    return repr(v)


def format_expr(e):
    kind = type(e)
    if kind is Const:
        return "true" if e.value else "false"
    if kind is Var:
        return e.name
    if kind is Ref:
        if not e.indices:
            return e.name
        return "%s[%s]" % (e.name, ",".join(str(as_affine(i)) for i in e.indices))
    if kind is Not:
        return "!%s" % _wrap(e.child, (Or, And))
    if kind is And:
        return " & ".join(_wrap(c, (Or, And)) for c in e.children)
    if kind is Or:
        return " | ".join(_wrap(c, (Or,)) for c in e.children)
    if kind is Atom:
        return "[ %s %s %s ]" % (format_expr(e.left), e.op, format_expr(e.right))
    if kind is CondVal:
        return "(%s ? %s)" % (format_expr(e.guard), _fmt_value(e.value))
    if kind is Guard:
        return "(%s ? (%s))" % (format_expr(e.guard), format_expr(e.body))
    if kind is Add:
        return " + ".join(_wrap(c, (Add,)) for c in e.children)
    if kind is Mul:
        return " * ".join(_wrap(c, (Add, Mul)) for c in e.children)
    if kind is Pow:
        return "pow(%s, %d)" % (format_expr(e.child), e.exponent)
    if kind is Dist:
        return "dist(%s, %s)" % (format_expr(e.left), format_expr(e.right))
    raise TypeError("not an expression: %r" % (e,))


def _wrap(e, ambient):
    text = format_expr(e)
    if isinstance(e, ambient):
        return "(%s)" % text
    return text


def emit_event_program(program):
    out = []
    _emit_items(program.items, 0, out)
    return "\n".join(out) + "\n"


def _emit_items(items, depth, out):
    pad = "  " * depth
    for item in items:
        if isinstance(item, Loop):
            out.append("%sforall %s in %d..%d:" % (pad, item.counter, item.lo, item.hi))
            _emit_items(item.body, depth + 1, out)
        else:
            head = item.name
            if item.indices:
                head += "[%s]" % ",".join(str(ix) for ix in item.indices)
            out.append("%s%s := %s" % (pad, head, format_expr(item.expr)))
