"""Translation of user programs into immutable event programs.

Mutable user variables become versioned identifier families.  Each block
(the top level, and every loop body) gives a variable one version-path
component; within a block the component counts that block's assignments, and
inside a loop over counter ``c`` a variable with ``S`` assignment slots per
iteration gets component ``S*c + s`` for its ``s``-th slot.  A read that
resolves to a loop body's version before the body's first assignment,
``S*c - 1``, reads component ``-1`` at the first iteration: that read gives
the loop a carry-in copy at ``-1``, emitted before it, and the copy reads the
enclosing block's version by the same rule.  Leaving a block appends a copy
of the last inner version as the next outer version, and a loop whose range
is empty copies the current version into each slot it counts.  The result
is single-assignment by construction.

Arrays translate element-wise: a whole-array assignment opens a new version
of the family, element writes declare that version's members, and the
tie-breaking forms expand into prefix-exclusion events (the first true entry
of a tied group survives).  ``reduce_*`` calls over comprehensions expand
into n-ary connectives, sums and products; comprehension filters become
guards chosen so that a filtered-out element is neutral for the reduction.
The first ``loadData()`` or ``init()`` declares each point's event once, as
``kmedoids`` does (``Dataset.lineage``); the objects and ``init()``'s medoid
chains name it.

``userlang``'s validator is the one gate: ``translate_to_event_program``
refuses a program it reports, and the translator assumes all it checks.
Its types are the translator's too: the element kind of each final path,
and the kind of an empty ``reduce_sum``.
The translator raises only for what depends on the dataset (a matrix the
dataset lacks, a name bound only in a loop whose range is empty) and for
its own internal invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import (
    Add, And, Atom, CondVal, Dist, Guard, Mul, Not, Or, Pow, Ref,
    FALSE, TRUE, first_true,
)
from .eventprog import Affine, Decl, EventProgram, Loop, folded_loop, ref, render_eid
from . import userlang as ul


class TranslateError(Exception):
    pass


OP_MAP = {"<=": "<=", ">=": ">=", "==": "=", "<": "<", ">": ">"}


class _VarState:
    __slots__ = ("path", "dims", "block_of")

    def __init__(self):
        self.path = []       # version components, one per block that versioned it
        self.dims = []       # array dimension sizes (ints)
        self.block_of = []   # block id per path component


@dataclass
class Translation:
    program: EventProgram
    final_paths: dict       # var -> (tuple of ints, dims, kind)
    loop_final_paths: dict
    # var -> path of its last version inside the loop ``ground_folded`` folds
    # (the version that loop's exit copy aliases); a folded-network target

    def final_eid(self, var, *indices):
        path, _dims, _k = self.final_paths[var]
        return render_eid(var, list(path) + list(indices))

    def final_pattern(self, var):
        return _pattern(var, self.final_paths[var])

    def loop_final_pattern(self, var):
        return _pattern(var, self.loop_final_paths[var])


def _pattern(var, entry):
    """Glob over every element of the version ``entry`` = (path, dims, kind)."""
    path, dims, _k = entry
    parts = [str(c) for c in path] + ["*"] * len(dims)
    return "%s[%s]" % (var, ",".join(parts)) if parts else var


class _Block:
    __slots__ = ("id", "counter", "slots", "next_slot", "carry")

    def __init__(self, id, counter, slots):
        self.id = id
        self.counter = counter
        self.slots = slots
        self.next_slot = dict.fromkeys(slots, 0)
        self.carry = {}  # name -> its carry-in copy, for a loop block

    def current_component(self, name):
        """Version component of ``name`` before its next slot in this block.

        Inside a loop with counter ``c`` and ``S`` slots per iteration this is
        ``S*c + (used - 1)``; at iteration 0 with nothing used yet it is the
        carry-in component -1.
        """
        s = self.next_slot.get(name, 0) - 1
        if self.counter is None:
            return Affine(s)
        return Affine.var(self.counter).times(self.slots[name]).plus(s)

    def take_slot(self, name):
        s = self.next_slot[name]
        self.next_slot[name] = s + 1
        if self.counter is None:
            return Affine(s)
        return Affine.var(self.counter).times(self.slots[name]).plus(s)


class _Translator:
    def __init__(self, dataset, types):
        self.ds = dataset
        self.types = types     # the validator's: ``env`` and ``reduces``
        self.vars = {}         # name -> _VarState
        self.stack = []        # active _Block chain, outermost first
        self.block_ids = 0
        self.fresh = 0
        self.loaded = False    # the points' lineage is declared

    # --- entry point ---------------------------------------------------------

    def run(self, program):
        self.loop_finals = {}  # id of a top-level Loop -> its exit versions
        self.scope = ul.Scope(program.items)
        _carry, items = self.translate_block(program.items, counter=None)
        final = {}
        for name, st in self.vars.items():
            if st.path:
                final[name] = (tuple(c.eval({}) for c in st.path),
                               tuple(st.dims), self.kind(name))
        program = EventProgram(tuple(items))
        loop_final = self.loop_finals.get(id(folded_loop(program)), {})
        return Translation(program, final, loop_final)

    # --- block machinery --------------------------------------------------------

    def translate_block(self, items, counter):
        """Translate one block; returns its carry-in copies, in first-binding
        order, and its emitted program items."""
        slots = {}
        for item in items:
            for v in self._versioned_by(item):
                slots[v] = slots.get(v, 0) + 1
        block = _Block(self.block_ids, counter, slots)
        self.block_ids += 1
        self.stack.append(block)
        out = []
        for item in items:
            if isinstance(item, ul.UFor):
                out.extend(self.translate_for(item, block))
            elif isinstance(item, ul.UExtCall):
                out.extend(self.bind_ext(item, block))
            else:
                out.extend(self.translate_assign(item, block))
        self.stack.pop()
        return [d for v in block.slots for d in block.carry.get(v, ())], out

    def _versioned_by(self, item):
        """The names ``item`` binds, in loops too, in first-binding order."""
        return list(dict.fromkeys(name for name, _ in ul._bindings([item])))

    def bump(self, name, block):
        """Consume an assignment slot; returns the variable's state."""
        st = self.vars.setdefault(name, _VarState())
        self._align_var(name, st)
        if not st.block_of or st.block_of[-1] != block.id:
            raise TranslateError("internal: slot for %r outside its block" % name)
        st.path[-1] = block.take_slot(name)
        return st

    def read_path(self, name):
        """Current version path for a read of ``name``."""
        st = self.current(name)
        self._carry_in(name, st, len(st.path) - 1)
        return st, list(st.path)

    def current(self, name):
        """The state of ``name``, its path aligned to the enclosing blocks."""
        st = self.vars.get(name)
        if st is None:  # the validator saw a binding, in a loop run zero times
            raise TranslateError("%r is bound only in a loop whose range is empty"
                                 % name)
        self._align_var(name, st)
        return st

    def _carry_in(self, name, st, j):
        """A read that resolves to loop block ``j``'s version before its first
        assignment gives the block its carry-in copy, once per name; the copy
        reads the enclosing block's version, so the rule continues outward."""
        block = self.stack[j]
        if block.counter is None or block.next_slot[name] or name in block.carry:
            return
        self._carry_in(name, st, j - 1)
        block.carry[name] = self._copy_decls(
            name, st.path[:j] + [Affine(-1)], st.path[:j])

    def _align_var(self, name, st):
        """Give ``name`` a version component for every enclosing block that
        (re)assigns it, so labels from different nesting depths cannot collide
        and a first read inside a loop sees the previous iteration's version.
        """
        for j, block in enumerate(self.stack):
            if j < len(st.block_of):
                if st.block_of[j] != block.id:
                    raise TranslateError(
                        "internal: version path misaligned for %r" % name)
                continue
            if name not in block.slots:
                break
            st.path.append(block.current_component(name))
            st.block_of.append(block.id)

    def translate_for(self, item, outer):
        lo, hi = self.scope.const(item.lo), self.scope.const(item.hi)
        versioned = self._versioned_by(item)
        if hi <= lo:
            # an empty loop leaves every variable as it was: each slot the
            # enclosing block counts for a bound name copies its current version
            out = []
            for v in versioned:
                if v in self.vars:
                    st, path = self.read_path(v)
                    self.bump(v, outer)
                    out.extend(self._copy_decls(v, st.path, path))
            return out
        with self.scope.local(item.var):
            carry, body = self.translate_block(item.body, item.var)
        loop = Loop(item.var, lo, hi, tuple(body))
        out = carry + [loop]
        # leaving the block: copy each assigned variable's last inner version
        # into the next outer slot
        finals = {}
        for v in versioned:
            st = self.vars.get(v)
            if st is None or len(st.block_of) <= len(self.stack):
                continue
            inner = st.path.pop()
            st.block_of.pop()
            exit_path = list(st.path) + [Affine(inner.eval({item.var: hi - 1}))]
            if len(self.stack) == 1:
                finals[v] = (tuple(c.eval({}) for c in exit_path),
                             tuple(st.dims), self.kind(v))
            self.bump(v, outer)
            out.extend(self._copy_decls(v, st.path, exit_path))
        if finals:
            self.loop_finals[id(loop)] = finals
        return out

    def _copy_decls(self, name, to_path, from_path):
        """Copy one version of ``name`` to another; arrays copy element-wise
        under loops."""
        st = self.vars[name]
        if not st.dims:
            return [Decl(name, tuple(to_path), Ref(name, tuple(from_path)))]
        cs = [self.fresh_counter() for _ in st.dims]
        idx = [Affine.var(c) for c in cs]
        decl = Decl(name, tuple(list(to_path) + idx),
                    Ref(name, tuple(list(from_path) + idx)))
        item = decl
        for c, size in zip(reversed(cs), reversed(st.dims)):
            item = Loop(c, 0, size, (item,))
        return [item]

    def kind(self, name):
        """The element kind of ``name``'s last binding, as validated."""
        return self.types.env[name].elem_kind()

    def fresh_counter(self):
        self.fresh += 1
        return "_c%d" % self.fresh

    # --- external data ------------------------------------------------------------

    def bind_ext(self, item, ctx):
        ds = self.ds
        out = []
        if item.func == "loadParams":
            names = item.targets
            if ds.params.power is not None:
                values = (ds.params.power, ds.params.iterations)
            else:
                values = (ds.params.k, ds.params.iterations)
            for n, v in zip(names, values):
                out.extend(self.bind_int(n, int(v), ctx))
            return out
        if item.func == "loadData":
            obj_var = item.targets[0]
            out.extend(self.bind_int(item.targets[1], ds.n, ctx))
            st = self.bump(obj_var, ctx)
            st.dims = [ds.n]
            out.extend(self.lineage())
            for l, p in enumerate(ds.points):
                out.append(Decl(obj_var, tuple(list(st.path) + [Affine(l)]),
                                CondVal(ref("Obj", l), tuple(p.coords))))
            if len(item.targets) == 3:
                mat_var = item.targets[2]
                if ds.matrix is None:
                    raise TranslateError("dataset has no matrix for %r" % mat_var)
                mt = self.bump(mat_var, ctx)
                mt.dims = [ds.n, ds.n]
                for i in range(ds.n):
                    for j in range(ds.n):
                        out.append(Decl(
                            mat_var, tuple(list(mt.path) + [Affine(i), Affine(j)]),
                            CondVal(TRUE, float(ds.matrix[i][j]))))
            return out
        # init(): initial representatives from the configured preference chains
        var = item.targets[0]
        st = self.bump(var, ctx)
        st.dims = [ds.params.k]
        return self.lineage() + [Decl(var, tuple(list(st.path) + [Affine(i)]),
                                      ds.initial_medoid(i))
                                 for i in range(ds.params.k)]

    def lineage(self):
        """The points' lineage, declared where ``loadData()`` or ``init()``
        first needs it."""
        if self.loaded:
            return []
        self.loaded = True
        return self.ds.lineage()

    # --- statements ----------------------------------------------------------------

    def translate_assign(self, item, ctx):
        target = item.target
        if isinstance(target, ul.UName):
            return self.whole_assign(item, ctx)
        # an element write declares into the current version: not a read
        base, chain = ul.index_chain(target)
        st = self.current(base.name)
        if isinstance(item.expr, ul.UArrayInit):
            if len(st.dims) == len(chain):
                st.dims.append(self.scope.const(item.expr.size))
            return []
        idx = [self.scope.index(c) for c in chain]
        return [Decl(base.name, tuple(st.path + idx), self.expr(item.expr))]

    def whole_assign(self, item, ctx):
        name = item.target.name
        expr = item.expr
        self.scope.assign(name, expr)
        if isinstance(expr, ul.UArrayInit):
            st = self.bump(name, ctx)
            st.dims = [self.scope.const(expr.size)]
            return []
        if isinstance(expr, ul.UCall) and expr.func in ul.TIE_FUNCS:
            return self.tie_break(name, expr, ctx)
        body = self.expr(expr)
        st = self.bump(name, ctx)
        return [Decl(name, tuple(st.path), body)]

    def bind_int(self, name, value, ctx):
        """A name bound once to an integer is a constant; a reassigned one
        is a variable, versioned like any other."""
        if self.scope.bind(name, value):
            return []
        st = self.bump(name, ctx)
        return [Decl(name, tuple(st.path), CondVal(TRUE, value))]

    def tie_break(self, name, call, ctx):
        src_name = call.args[0].name
        src, src_path = self.read_path(src_name)
        dims = list(src.dims)
        st = self.bump(name, ctx)
        st.dims = dims
        if call.func == "breakTies":
            keys, c = [[Affine(j)] for j in range(dims[0])], None
        else:
            # the keys run along the tied index; a fresh counter loops over
            # the other one
            c = self.fresh_counter()
            cv = Affine.var(c)
            if call.func == "breakTies2":  # one survivor per second index
                keys, size = [[Affine(i), cv] for i in range(dims[0])], dims[1]
            else:  # breakTies1: one survivor per first index
                keys, size = [[cv, Affine(l)] for l in range(dims[1])], dims[0]
        refs = [Ref(src_name, tuple(src_path + key)) for key in keys]
        out = []
        for key, expr in zip(keys, first_true(refs)):
            item = Decl(name, tuple(st.path + key), expr)
            out.append(item if c is None else Loop(c, 0, size, (item,)))
        return out

    # --- expressions -----------------------------------------------------------------

    def expr(self, e):
        """Translate an expression into an event or a c-value."""
        k = type(e)
        if k is ul.ULit:
            if isinstance(e.value, bool):
                return TRUE if e.value else FALSE
            return CondVal(TRUE, e.value)
        if k is ul.UName:
            scope = self.scope
            if e.name in scope.locals:  # a counter or a comprehension variable
                value = scope.locals[e.name]
                return CondVal(TRUE, Affine.var(e.name) if value is None else value)
            if e.name in scope.consts and e.name not in self.vars:
                return CondVal(TRUE, scope.consts[e.name])
            return Ref(e.name, tuple(self.read_path(e.name)[1]))
        if k is ul.UIndex:
            base, chain = ul.index_chain(e)
            path = self.read_path(base.name)[1]
            idx = [self.scope.index(c) for c in chain]
            return Ref(base.name, tuple(path + idx))
        if k is ul.UCompare:
            return Atom(OP_MAP[e.op], self.expr(e.left), self.expr(e.right))
        if k is ul.UBinOp:
            l, r = self.expr(e.left), self.expr(e.right)
            return Add((l, r)) if e.op == "+" else Mul((l, r))
        if k is ul.UCall:
            return self.call(e)
        return self.reduce(e)

    def call(self, e):
        if e.func == "pow":
            return Pow(self.expr(e.args[0]), self.scope.const(e.args[1]))
        args = tuple(self.expr(a) for a in e.args)
        if e.func == "invert":
            return Pow(args[0], -1)
        if e.func == "dist":
            return Dist(*args)
        return Mul(args)  # scalar_mult

    def reduce(self, e):
        comp = e.comp
        parts = []
        for v in range(self.scope.const(comp.lo), self.scope.const(comp.hi)):
            with self.scope.local(comp.var, v):
                cond = None if comp.cond is None else self.expr(comp.cond)
                parts.append((cond, self.expr(comp.expr)))
        func = e.func
        if func == "reduce_and":
            if not parts:
                return TRUE
            items = tuple(b if c is None else Or((Not(c), b)) for c, b in parts)
            return items[0] if len(items) == 1 else And(items)
        if func == "reduce_or":
            if not parts:
                return FALSE
            items = tuple(b if c is None else And((c, b)) for c, b in parts)
            return items[0] if len(items) == 1 else Or(items)
        if func == "reduce_count":
            # a count of no kept element is 0, so the sum starts from a defined 0
            return Add((CondVal(TRUE, 0),) + tuple(
                CondVal(TRUE if c is None else c, 1) for c, _ in parts))
        if func == "reduce_mult":
            if not parts:
                return CondVal(TRUE, 1)
            items = []
            for c, b in parts:
                if c is None:
                    items.append(b)
                else:
                    # filtered-out factors are neutral: (cond and value) + (!cond ? 1)
                    items.append(Add((Guard(c, b), CondVal(Not(c), 1))))
            return Mul(tuple(items))
        # reduce_sum: a sum of no element is undefined, of its element's
        # kind (a dataset without points has no vector to give the width)
        if not parts:
            if self.types.reduces[id(e)].base == "vec" and self.ds.points:
                return CondVal(FALSE, (0.0,) * len(self.ds.points[0].coords))
            return CondVal(FALSE, 0)
        return Add(tuple(b if c is None else Guard(c, b) for c, b in parts))


def translate_to_event_program(program, dataset):
    """Translate a validated user program against a dataset binding."""
    types = ul._Validator()
    diags = types.run(program)
    if diags:
        raise TranslateError("program does not validate: %s" %
                             "; ".join(str(d) for d in diags))
    return _Translator(dataset, types).run(program)
