"""Bulk probability computation over an event network.

Depth-first Shannon expansion: pick an influential unassigned variable, try
both truth values, propagate masks, and accumulate each target's probability
bounds from the branches that decide it.  With a zero error budget the final
bounds collapse to the exact probabilities.  With one budget of ``2*epsilon``
shared by all targets, whole subtrees may be forfeited once their mass fits
in the remaining budget, counting against every target at once; this yields
anytime bounds with ``upper - lower <= 2e``:

  * ``eager``  hands the full budget to every left branch first, so the
    earliest-visited subtrees are pruned until the budget runs out;
  * ``lazy``   runs the exact search unchanged and simply stops as soon as
    every target's bounds are tight, leaving the rightmost branches (the
    tail of the visit order) unexplored;
  * ``hybrid`` halves the budget into the left branch and adds whatever it
    returns unused to the right branch's half.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import MaskState, Stats, UNKNOWN

SCHEMES = ("exact", "eager", "lazy", "hybrid")

#: Float dust in final bounds that is clamped; anything larger is an error.
#: The largest clamp of a run is kept as ``CompileResult.clamp``.
BOUNDS_TOLERANCE = 1e-9


class ConfigError(Exception):
    pass


class BoundsError(ArithmeticError):
    """Final bounds break 0 <= lower <= upper <= 1 by more than float dust."""


@dataclass
class TargetBounds:
    eid: str
    lower: float
    upper: float


@dataclass
class CompileResult:
    targets: list
    stats: Stats
    scheme: str
    epsilon: float
    clamp: float = 0.0  # the most any final bound moved in checked_bounds

    def bounds(self, eid):
        for tb in self.targets:
            if tb.eid == eid:
                return tb.lower, tb.upper
        raise KeyError(eid)

    def as_dict(self):
        return {
            "scheme": self.scheme,
            "epsilon": self.epsilon,
            "targets": [{"eid": tb.eid, "lower": tb.lower, "upper": tb.upper}
                        for tb in self.targets],
            "stats": self.stats.as_dict(),
        }


def ancestor_bits(net):
    """Per-variable bitmask over the kept instance slots that lie above it.

    A variable's own slot is included (it may be a target).  One pass in
    slot order, which is topological, gives each slot the set of variables
    below it, as a small int with one bit per variable, and ORs it into the
    sets of the slots that read it (``SlotTables.parents``).  A fused slot
    has no parents and no edges in, so it lies above no variable.  The
    per-variable masks over slots are then read off those sets.  The result
    is kept on the network.
    """
    if net.ancestors is not None:
        return net.ancestors
    tables = net.slot_tables()
    names = list(net.var_nodes)
    below = [0] * len(tables.parents)
    for j, vid in enumerate(net.var_nodes.values()):
        below[vid] = 1 << j
    for slot, ups in enumerate(tables.parents):
        vs = below[slot]
        if vs:
            for p in ups:
                below[p] |= vs
    rows = [bytearray((len(below) + 7) // 8) for _ in names]
    for slot, vs in enumerate(below):
        while vs:
            low = vs & -vs
            rows[low.bit_length() - 1][slot >> 3] |= 1 << (slot & 7)
            vs ^= low
    net.ancestors = {name: int.from_bytes(row, "little")
                     for name, row in zip(names, rows)}
    return net.ancestors


class Search:
    """Depth-first compilation over a private mask state, whose ``stats``
    takes the search's account: work, decided mass and pruned mass.

    ``forker``, which the distributed driver sets, intercepts descents into
    subtrees whose root depth is a multiple of ``job_depth``, as
    ``forker(search, prefix, pr, E, depth)``; it is None for plain
    sequential compilation.
    """

    def __init__(self, net, vartable, epsilon, scheme, state=None,
                 on_branch=None, job_depth=None):
        if scheme not in SCHEMES:
            raise ConfigError("unknown scheme %r" % scheme)
        if (scheme == "exact") != (epsilon == 0.0):
            raise ConfigError("epsilon must be 0 exactly for scheme 'exact' "
                              "and positive for approximation schemes")
        if epsilon < 0:
            raise ConfigError("negative epsilon")
        self.net = net
        self.vt = vartable
        self.eps = epsilon
        self.scheme = scheme
        self.state = state or MaskState(net)
        self.on_branch = on_branch
        self.forker = None
        self.job_depth = job_depth
        self.nt = len(net.targets)
        anc = ancestor_bits(net)
        # (name, slot, ancestor bits) per variable the network reads, in
        # table order; a variable is assigned iff its slot's mask is decided
        self.vars = [(name, net.var_nodes[name], anc[name])
                     for name, _p in vartable.vars if name in net.var_nodes]
        # deepest level at which forking into a new job still makes sense:
        # one level per variable of the network that is not certain
        self.fork_limit = sum(1 for name, _slot, _bits in self.vars
                              if vartable.p_true(name) not in (0.0, 1.0))

    # --- setup ----------------------------------------------------------------

    def preassign_certain(self):
        """Assign variables with probability 0 or 1 up front (unit mass side)."""
        for name, p in self.vt.vars:
            if p == 0.0 or p == 1.0:
                self.state.assign(name, p == 1.0, 1.0)

    def check_targets_reachable(self):
        for name in self.net.var_nodes:
            if name not in self.vt:
                raise ConfigError(
                    "variable %r is not in the variable table" % name)
        masks = self.state.masks
        for target, eid in self.net.targets:
            if masks[target] != UNKNOWN:
                continue
            bit = 1 << target
            if not any(bits & bit for _name, slot, bits in self.vars
                       if masks[slot] == UNKNOWN):
                raise ConfigError(
                    "target %r cannot be decided by any variable" % eid)

    # --- scheme budget split ----------------------------------------------------

    def split_left(self, E):
        if self.scheme == "hybrid":
            return E * 0.5
        if self.scheme == "eager":
            return E
        return 0.0  # lazy (and exact, where the budget is zero)

    # --- checks -------------------------------------------------------------------

    def all_resolved(self):
        two_eps = 2.0 * self.eps
        st = self.state
        masks = st.masks
        for i, (slot, _eid) in enumerate(self.net.targets):
            if masks[slot] != UNKNOWN:
                continue
            if st.probupper[i] - st.problower[i] <= two_eps:
                continue
            return False
        return True

    def any_wide(self):
        two_eps = 2.0 * self.eps
        st = self.state
        for i in range(self.nt):
            if st.probupper[i] - st.problower[i] > two_eps:
                return True
        return False

    def next_variable(self):
        masks, unknown = self.state.masks, self.state.unknown_bits
        best_name, best_count = None, -1
        for name, slot, bits in self.vars:
            if masks[slot] != UNKNOWN:
                continue
            count = (bits & unknown).bit_count()
            if count > best_count:
                best_name, best_count = name, count
        return best_name

    # --- the DFS -------------------------------------------------------------------

    def run(self):
        """Explore the tree from the root; returns the residual budget."""
        return self.explore((), 1.0, 2.0 * self.eps, 0)

    def explore(self, prefix, pr, E, depth):
        """Explore below ``prefix``, whose last assignment is not yet made,
        with mass ``pr`` and budget ``E``; returns the residual budget."""
        # lazy never forfeits subtrees up front; its entire allowance is
        # realised by the early-stop tests below
        stats = self.state.stats  # a job run in place swaps it in and out
        if self.eps > 0.0 and self.scheme != "lazy" and E >= pr:
            stats.pruned += 1
            stats.pruned_mass += pr
            return E - pr
        stats.branches += 1
        if prefix:
            self.state.assign(*prefix[-1], pr)
        if self.on_branch is not None:
            self.on_branch(self.state)
        if self.all_resolved():
            stats.leaves += 1
            return E
        x = self.next_variable()
        if x is None:
            raise ConfigError("targets undecided with no variables left")
        p_true = self.vt.p_true(x)
        E_left = self.split_left(E)

        mark = self.state.checkpoint()
        res_left = self._descend(x, True, prefix, pr * p_true, E_left, depth + 1)
        self.state.revert(mark)

        E_right = (E - E_left) + res_left
        if not self.any_wide():
            return E_right
        result = self._descend(x, False, prefix, pr * (1.0 - p_true),
                               E_right, depth + 1)
        self.state.revert(mark)
        return result

    def _descend(self, x, value, prefix, pr, E, depth):
        child_prefix = prefix + ((x, value),)
        if self.forker is not None and self.job_depth \
                and depth % self.job_depth == 0 and depth < self.fork_limit:
            res = self.forker(self, child_prefix, pr, E, depth)
            if res is not None:
                return res
            return 0.0  # asynchronous fork: residual not yet known
        if pr == 0.0:
            # zero-mass branch: nothing to classify, no exploration needed
            return E
        return self.explore(child_prefix, pr, E, depth)


def compile_targets(net, vartable, epsilon, scheme, on_branch=None):
    """Compile all targets of ``net``; see module docstring for the schemes."""
    search = Search(net, vartable, epsilon, scheme, on_branch=on_branch)
    search.preassign_certain()
    search.check_targets_reachable()
    if not search.all_resolved():
        search.run()
    return finish_result(search)


def checked_bounds(eid, lower, upper):
    """Bounds clamped into [0, 1]; raises when they are off by more than dust.

    Accumulated sums can leave [0, 1], or cross, by a few ulps: such dust is
    clamped, and crossed bounds collapse to their midpoint.  A larger
    violation means mass was lost or counted twice.
    """
    tol = BOUNDS_TOLERANCE
    if not (-tol <= lower <= 1.0 + tol and -tol <= upper <= 1.0 + tol
            and lower - upper <= tol):
        raise BoundsError("%s: bounds [%r, %r] break 0 <= lower <= upper <= 1 "
                          "by more than %g" % (eid, lower, upper, tol))
    lo = min(max(lower, 0.0), 1.0)
    hi = min(max(upper, 0.0), 1.0)
    if lo > hi:
        lo = hi = (lo + hi) * 0.5
    return TargetBounds(eid, lo, hi)


def checked_result(sums, stats, scheme, epsilon):
    """The result of a run from its targets' summed (eid, lower, upper):
    each pair goes through ``checked_bounds``, and the most any bound moved
    there is kept as ``clamp``."""
    out, clamp = [], 0.0
    for eid, lower, upper in sums:
        tb = checked_bounds(eid, lower, upper)
        clamp = max(clamp, abs(tb.lower - lower), abs(tb.upper - upper))
        out.append(tb)
    return CompileResult(out, stats, scheme, epsilon, clamp)


def finish_result(search):
    st = search.state
    return checked_result(
        [(eid, st.problower[i], st.probupper[i])
         for i, (_slot, eid) in enumerate(search.net.targets)],
        st.stats, search.scheme, search.eps)
