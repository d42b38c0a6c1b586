"""Bulk probability computation over an event network.

Depth-first Shannon expansion: pick an influential unassigned variable, try
both truth values, propagate masks, and accumulate each target's probability
bounds from the branches that decide it.  With a zero error budget the final
bounds collapse to the exact probabilities.  With budget ``2*epsilon`` per
target, whole subtrees may be forfeited once their probability mass fits in
the remaining budget, yielding anytime bounds with ``upper - lower <= 2e``:

  * ``eager``  hands the full budget to every left branch first, so the
    earliest-visited subtrees are pruned until the budget runs out;
  * ``lazy``   runs the exact search unchanged and simply stops as soon as
    every target's bounds are tight, leaving the rightmost branches (the
    tail of the visit order) unexplored;
  * ``hybrid`` halves the budget into the left branch and adds whatever it
    returns unused to the right branch's half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import MaskState, Stats, UNKNOWN

SCHEMES = ("exact", "eager", "lazy", "hybrid")


class ConfigError(Exception):
    pass


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
    pruned_mass: list = field(default_factory=list)

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
    """Per-variable bitmask over (iteration, node) instances reachable upward."""
    cached = getattr(net, "_ancestor_bits", None)
    if cached is not None:
        return cached
    N, T = len(net.nodes), net.T
    out = {}
    for name, vid in net.var_nodes.items():
        seen = {vid}  # a variable decides its own node (it may be a target)
        stack = [(vid, 0)]
        while stack:
            nid, t = stack.pop()
            for pid, tag in net.nodes[nid].parents:
                if tag == "same":
                    pts = (t if net.nodes[pid].in_loop else 0,)
                elif tag == "bcast":
                    pts = range(T)
                elif tag == "next":
                    pts = (t + 1,) if t + 1 < T else ()
                else:  # 'zero'
                    pts = (0,)
                for pt in pts:
                    idx = pt * N + pid if net.nodes[pid].in_loop else pid
                    if idx not in seen:
                        seen.add(idx)
                        stack.append((pid, pt))
        bits = 0
        for idx in seen:
            bits |= 1 << idx
        out[name] = bits
    net._ancestor_bits = out
    return out


class Search:
    """One depth-first compilation run over a private mask state.

    ``forker`` intercepts descents into subtrees whose root depth is a
    multiple of ``job_depth``; it is used by the distributed driver and is
    None for plain sequential compilation.
    """

    def __init__(self, net, vartable, epsilon, scheme, state=None, stats=None,
                 on_branch=None, forker=None, job_depth=None):
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
        self.stats = stats or Stats()
        self.state = state or MaskState(net, self.stats)
        self.state.stats = self.stats
        self.on_branch = on_branch
        self.forker = forker
        self.job_depth = job_depth
        self.nt = len(net.targets)
        self.assigned = set()
        self.anc = ancestor_bits(net)
        self.pruned_mass = [0.0] * self.nt
        # deepest level at which forking into a new job still makes sense:
        # one level per variable that is not certain
        self.fork_limit = sum(1 for _n, p in vartable.vars if p not in (0.0, 1.0))

    # --- setup ----------------------------------------------------------------

    def preassign_certain(self):
        """Assign variables with probability 0 or 1 up front (unit mass side)."""
        for name, p in self.vt.vars:
            if p == 0.0 or p == 1.0:
                self.assigned.add(name)
                self.state.assign(name, p == 1.0, 1.0)

    def check_targets_reachable(self):
        for name in self.net.var_nodes:
            if name not in self.vt:
                raise ConfigError(
                    "variable %r is not in the variable table" % name)
        for i, (nid, t, eid) in enumerate(self.net.targets):
            if self.state.target_mask(i) != UNKNOWN:
                continue
            idx = t * self.state.N + nid if self.net.nodes[nid].in_loop else nid
            bit = 1 << idx
            if not any(self.anc.get(name, 0) & bit
                       for name, _ in self.vt.vars if name not in self.assigned):
                raise ConfigError(
                    "target %r cannot be decided by any variable" % eid)

    # --- scheme budget split ----------------------------------------------------

    def split_left(self, E):
        if self.scheme == "hybrid":
            return [e * 0.5 for e in E]
        if self.scheme == "eager":
            return list(E)
        return [0.0] * self.nt  # lazy (and exact, where budgets are all zero)

    # --- checks -------------------------------------------------------------------

    def all_resolved(self):
        two_eps = 2.0 * self.eps
        st = self.state
        for i in range(self.nt):
            if st.target_mask(i) != UNKNOWN:
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
        unknown = self.state.unknown_bits
        best_name, best_count = None, -1
        for name, _p in self.vt.vars:
            if name in self.assigned:
                continue
            count = (self.anc.get(name, 0) & unknown).bit_count()
            if count > best_count:
                best_name, best_count = name, count
        return best_name

    # --- the DFS -------------------------------------------------------------------

    def run(self, budgets=None):
        """Explore the tree from the root; returns the residual budgets."""
        E = list(budgets) if budgets is not None else [2.0 * self.eps] * self.nt
        return self._dfs(None, (), 1.0, E, 0)

    def _dfs(self, pending, prefix, pr, E, depth):
        # lazy never forfeits subtrees up front; its entire allowance is
        # realised by the early-stop tests below
        if self.eps > 0.0 and self.scheme != "lazy" and all(e >= pr for e in E):
            self.stats.pruned += 1
            for i in range(self.nt):
                self.pruned_mass[i] += pr
            return [e - pr for e in E]
        self.stats.branches += 1
        if pending is not None:
            self.state.assign(pending[0], pending[1], pr)
        if self.on_branch is not None:
            self.on_branch(self.state)
        if self.all_resolved():
            self.stats.leaves += 1
            return E
        x = self.next_variable()
        if x is None:
            raise ConfigError("targets undecided with no variables left")
        self.assigned.add(x)
        p_true = self.vt.p_true(x)
        E_left = self.split_left(E)
        E_base_right = [e - el for e, el in zip(E, E_left)]

        mark = self.state.checkpoint()
        res_left = self._descend(x, True, prefix, pr * p_true, E_left, depth + 1)
        self.state.revert(mark)

        E_right = [eb + rl for eb, rl in zip(E_base_right, res_left)]
        if self.any_wide():
            result = self._descend(x, False, prefix, pr * (1.0 - p_true),
                                   E_right, depth + 1)
            self.state.revert(mark)
        else:
            result = E_right
        self.assigned.discard(x)
        return result

    def _descend(self, x, value, prefix, pr, E, depth):
        child_prefix = prefix + ((x, value),)
        if self.forker is not None and self.job_depth \
                and depth % self.job_depth == 0 and depth < self.fork_limit:
            res = self.forker(child_prefix, pr, E, depth)
            if res is not None:
                return res
            return [0.0] * self.nt  # asynchronous fork: residual not yet known
        if pr == 0.0:
            # zero-mass branch: nothing to classify, no exploration needed
            return E
        return self._dfs((x, value), child_prefix, pr, E, depth)


def compile_targets(net, vartable, epsilon, scheme, on_branch=None):
    """Compile all targets of ``net``; see module docstring for the schemes."""
    stats = Stats()
    search = Search(net, vartable, epsilon, scheme, stats=stats, on_branch=on_branch)
    search.preassign_certain()
    search.check_targets_reachable()
    if not search.all_resolved():
        search.run()
    return finish_result(search)


def finish_result(search):
    st = search.state
    out = []
    for i, (_nid, _t, eid) in enumerate(search.net.targets):
        lo = min(max(st.problower[i], 0.0), 1.0)
        hi = min(max(st.probupper[i], 0.0), 1.0)
        if lo > hi:  # float dust from accumulated sums
            lo = hi = (lo + hi) * 0.5
        out.append(TargetBounds(eid, lo, hi))
    return CompileResult(out, search.stats, search.scheme, search.eps,
                         list(search.pruned_mass))
