"""Reachability analysis and reductivity certification.

Computes forward-reachable sets, the counting-measure potential, the
transient/absorbing decomposition, reductivity verdicts with concrete
counterexample edges, the canonical block-triangular permutation, and the
schedules (potential level sets or Kahn heights) that drive the one-pass
solver.

The potential phi(x) counts the states reachable from x.  A chain is
reductive when it has a nonempty absorbing part and phi strictly
decreases along every transient transition except self-loops.  On finite
chains that is equivalent to every transient strongly-connected component
being a singleton, which is how the verdict is computed.  An Mdp is
reductive when the union of its action supports is: under every action,
a transient state's successors other than itself reach strictly fewer
states than it does.  Which actions a policy picks inside a closed class
of that union does not matter.

Everything structural is read off one condensation per model: its
strongly-connected components and the distinct edges between them.  The
condensation is computed on a model's first structure query and kept on
the model, which never changes.  A model is a MarkovChain or the Support
of an Mdp (Mdp.support()): the distinct successors of each state over
all its actions, which is all the structure of the Mdp's union chain, so
an Mdp is certified and ordered without building that chain.  The
potential walks the condensation in Kahn frontiers, sinks first, and
builds a whole frontier's reach sets at once as rows of a bitset matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ModelError, NotReductive
from .mdp import _unique_sorted, gather_ranges

# Violation kinds reported in a ReductivityVerdict.
NO_ABSORBING_SET = "NoAbsorbingSet"
NON_DECREASING_TRANSIENT = "NonDecreasingTransient"
CERTAIN_SELF_LOOP_MARKED_TRANSIENT = "CertainSelfLoopMarkedTransient"


@dataclass(frozen=True)
class Violation:
    """One edge (or state) witnessing a failure of the drift condition."""

    x: int
    xp: int
    kind: str


@dataclass(frozen=True)
class ReductivityVerdict:
    reductive: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class AbsorbingDecomposition:
    """Partition into transient states and closed, strongly-connected classes.

    transient and absorbing are ascending state-id arrays; classes lists
    the absorbing states grouped by class, ordered by minimum member id.
    """

    transient: np.ndarray
    absorbing: np.ndarray
    classes: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PotentialTable:
    """Counting-measure potential per state plus the fractional self-loop set.

    phi[x] is the number of states reachable from x (x included).
    self_loops holds every state with a fractional self-loop, as
    self_loop_states defines it.
    """

    phi: np.ndarray
    self_loops: frozenset[int]


@dataclass(frozen=True)
class CanonicalPermutation:
    """State order making the transition matrix block upper-triangular."""

    order: np.ndarray


@dataclass(frozen=True)
class LevelSetSchedule:
    """Solve groups in dependency order.

    When built from a PotentialTable the groups are the potential level
    sets in ascending order.  Any other grouping is valid as long as
    every transition from a group lands in an earlier group or in the
    absorbing part: height_schedule groups states by their Kahn height in
    the condensation, which never gives more groups, and domain builders
    return their own groups.
    """

    levels: tuple[np.ndarray, ...]


class _Condensation(NamedTuple):
    """Strongly-connected components of a chain and the edges between them.

    labels[x] is the component of state x.  members lists the states
    grouped by component (ascending inside each group), component c owning
    members[member_ptr[c]:member_ptr[c + 1]].  succ[succ_ptr[c]:
    succ_ptr[c + 1]] are the distinct other components that c has an edge
    into, ascending; is_open[c] says that there is at least one.
    """

    labels: np.ndarray
    members: np.ndarray
    member_ptr: np.ndarray
    succ_ptr: np.ndarray
    succ: np.ndarray
    is_open: np.ndarray


def _condensation(model):
    """The model's condensation, computed on first use and kept on the model.

    The model's rows must not repeat a successor: scipy's strong
    components loop forever on some rows that do.
    """
    if model._condensation is not None:
        return model._condensation
    n = model.state_count
    mat = csr_matrix((model.prob, model.col, model.row_ptr), shape=(n, n))
    n_comp, labels = connected_components(mat, directed=True, connection="strong")
    labels = labels.astype(np.int64)

    member_ptr = np.zeros(n_comp + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=n_comp), out=member_ptr[1:])

    src = np.repeat(labels, np.diff(model.row_ptr))
    dst = labels[model.col]
    cross = src != dst
    keys = _unique_sorted(src[cross] * np.int64(n_comp) + dst[cross])
    out_degree = np.bincount(keys // n_comp, minlength=n_comp)
    succ_ptr = np.zeros(n_comp + 1, dtype=np.int64)
    np.cumsum(out_degree, out=succ_ptr[1:])

    cond = _Condensation(
        labels=labels,
        members=np.argsort(labels, kind="stable"),
        member_ptr=member_ptr,
        succ_ptr=succ_ptr,
        succ=keys % n_comp,
        is_open=out_degree > 0,
    )
    for arr in cond:
        arr.setflags(write=False)
    model._condensation = cond
    return cond


def _entry_sources(model):
    return np.repeat(
        np.arange(model.state_count, dtype=np.int64), np.diff(model.row_ptr)
    )


def reachable_set(chain, x):
    """Smallest successor-closed set of states containing x."""
    return set(np.flatnonzero(_reachable_mask(chain.row_ptr, chain.col, x)).tolist())


def _reachable_mask(row_ptr, col, x):
    """Flags of the states reachable from x, x included.

    State s's successors are col[row_ptr[s]:row_ptr[s + 1]]; repeated
    successors are harmless, so an Mdp's entries can be walked directly
    with row_ptr = pair_ptr[state_ptr].
    """
    n = row_ptr.size - 1
    if not 0 <= x < n:
        raise ModelError(f"state {x} out of range")
    seen = np.zeros(n, dtype=bool)
    seen[x] = True
    frontier = np.array([x], dtype=np.int64)
    while frontier.size:
        starts = row_ptr[frontier]
        succ = col[gather_ranges(starts, row_ptr[frontier + 1] - starts)]
        frontier = _unique_sorted(succ[~seen[succ]])
        seen[frontier] = True
    return seen


def counting_potential(chain):
    """Number of reachable states per state, via the model's condensation.

    chain is a MarkovChain or an Mdp's Support.

    Components are visited in Kahn frontiers of the condensation, sinks
    first: a component joins the frontier once all its successors are
    done, and the frontier index is its height.  Each component's reach
    set is one row of a uint64 bitset matrix (components x ceil(n / 64)
    words, one bit per state; about 51 MB for the 20,301 states of
    liquidation at q_max=100).  A frontier's rows are built at once: the
    component's own members, OR the row of its tallest successor, OR the
    rows of the other successors whose representative state is not yet
    in that union.  A skipped successor's representative is reached through the
    tallest successor, so its whole set is already contained, and the
    result is exact.  Taking the tallest successor first leaves few rows
    to OR on chains with long paths.
    """
    cond = _condensation(chain)
    n_comp = cond.is_open.size
    out_degree = np.diff(cond.succ_ptr)
    owner = np.repeat(np.arange(n_comp, dtype=np.int64), out_degree)
    height = _heights(cond, out_degree)
    # A component's tallest successors sit exactly one frontier below it;
    # any one of them will do.
    tall = height[cond.succ] == height[owner] - 1
    tallest = np.zeros(n_comp, dtype=np.int64)
    tallest[owner[tall]] = cond.succ[tall]
    del owner, tall

    # Components by height, and their edges in the same order.
    comps = np.argsort(height, kind="stable")
    comp_ptr = np.searchsorted(height[comps], np.arange(height[comps[-1]] + 2))
    edge_ptr = np.zeros(n_comp + 1, dtype=np.int64)
    np.cumsum(out_degree[comps], out=edge_ptr[1:])
    edge_ptr = edge_ptr[comp_ptr]
    succ = cond.succ[gather_ranges(cond.succ_ptr[comps], out_degree[comps])]
    # Each edge's probe: the bit of its successor's representative state,
    # at its flat position in the row of the edge's own component.
    words = (chain.state_count + 63) // 64
    rep = cond.members[cond.member_ptr[:-1]]
    probe = np.repeat(comps * words, out_degree[comps]) + (rep >> 6)[succ]
    probe_bit = _bit(rep)[succ]
    tallest = tallest[comps]

    states = np.arange(chain.state_count, dtype=np.int64)
    bits = np.zeros((n_comp, words), dtype=np.uint64)
    np.bitwise_or.at(bits, (cond.labels, states >> 6), _bit(states))
    flat = bits.reshape(-1)
    for h in range(1, comp_ptr.size - 1):
        a, b = comp_ptr[h], comp_ptr[h + 1]
        bits[comps[a:b]] |= bits[tallest[a:b]]
        lo, hi = edge_ptr[h], edge_ptr[h + 1]
        open_ = (flat[probe[lo:hi]] & probe_bit[lo:hi]) == 0
        if open_.any():
            rows, reads = probe[lo:hi][open_] // words, succ[lo:hi][open_]
            new_row = np.ones(rows.size, dtype=bool)
            new_row[1:] = rows[1:] != rows[:-1]
            starts = new_row.nonzero()[0]
            bits[rows[starts]] |= np.bitwise_or.reduceat(bits[reads], starts, axis=0)

    phi_comp = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    return PotentialTable(
        phi=phi_comp[cond.labels], self_loops=frozenset(self_loop_states(chain))
    )


def _heights(cond, out_degree):
    """Kahn frontier index of every component, sinks at 0.

    A component joins the next frontier once all its successors are in
    earlier ones, so its height is one more than its tallest successor's.
    Linear in the condensation's size: scipy's CSR to CSC conversion, a
    counting sort, lists each component's predecessors, and each frontier
    lowers the waiting counts of its predecessors' edges only.
    """
    n_comp = out_degree.size
    ones = np.ones(cond.succ.size, dtype=np.int8)
    by_target = csr_matrix(
        (ones, cond.succ, cond.succ_ptr), shape=(n_comp, n_comp)
    ).tocsc()
    pred = by_target.indices.astype(np.int64)
    pred_ptr = by_target.indptr.astype(np.int64)
    pred_len = np.diff(pred_ptr)
    waiting = out_degree.copy()
    height = np.zeros(n_comp, dtype=np.int64)
    stamp = np.zeros(n_comp, dtype=np.int64)
    frontier = (out_degree == 0).nonzero()[0]
    h = 0
    while frontier.size:
        height[frontier] = h
        preds = pred[gather_ranges(pred_ptr[frontier], pred_len[frontier])]
        np.subtract.at(waiting, preds, 1)
        ready = preds[waiting[preds] == 0]
        # Keep one copy of each ready component: whichever of its writes
        # lands, exactly one of its copies matches it.
        rank = np.arange(ready.size)
        stamp[ready] = rank
        frontier = ready[stamp[ready] == rank]
        h += 1
    return height


def _bit(states):
    """Each state's bit within its 64-bit word."""
    return np.left_shift(np.uint64(1), (states & 63).astype(np.uint64))


def potential_difference(pt, x, xp):
    """phi[xp] - phi[x]; at most 0 whenever xp is a one-step successor of x."""
    return int(pt.phi[xp] - pt.phi[x])


def self_loop_states(model, subset=None):
    """States with a fractional self-loop.

    For a chain that is 0 < p(x, x) < 1.  For an Mdp's Support it is the
    same rule on the union of the actions: some action has a self-loop,
    and not every action has p(x, x) >= 1.  Intersected with subset when
    one is given.
    """
    src = _entry_sources(model)
    has_loop = np.zeros(model.state_count, dtype=bool)
    has_loop[src[src == model.col]] = True
    loops = set(np.flatnonzero(has_loop & ~model.certain_self_loops()).tolist())
    if subset is not None:
        loops &= {int(s) for s in subset}
    return loops


def absorbing_decomposition(chain):
    """Split states into the transient part and the closed classes.

    Classes are exactly the strongly-connected components with no outgoing
    edges; everything else is transient.
    """
    cond = _condensation(chain)
    is_open = cond.is_open[cond.labels]
    transient = np.flatnonzero(is_open)
    absorbing = np.flatnonzero(~is_open)
    groups = [
        cond.members[cond.member_ptr[c] : cond.member_ptr[c + 1]]
        for c in np.flatnonzero(~cond.is_open)
    ]
    groups.sort(key=lambda g: int(g[0]))
    return AbsorbingDecomposition(
        transient=transient, absorbing=absorbing, classes=tuple(groups)
    )


def verify_reductive(model):
    """Certify the drift condition, reporting counterexample edges if any.

    Reductive means: nonempty absorbing part, and along every stored
    transient transition other than a self-loop the potential strictly
    decreases.  An edge x -> xp fails exactly when xp can reach back to x,
    i.e. when both ends share a multi-state strongly-connected component
    that is not closed, so the verdict needs no potential values.  A
    transient state that stays put for certain (certain_self_loops) fails
    too.  model is a MarkovChain or an Mdp's Support.
    """
    cond = _condensation(model)
    violations = _drift_violations(model, cond) + _loop_violations(model, cond)
    return ReductivityVerdict(
        reductive=not violations, violations=tuple(violations)
    )


def _drift_violations(model, cond):
    """Non-decreasing transient edges, ascending, then NoAbsorbingSet if due."""
    violations = []
    bad_comp = _transient_cycles(cond)
    if bad_comp.any():
        labels = cond.labels
        src = _entry_sources(model)
        mask = bad_comp[labels[src]] & (labels[src] == labels[model.col]) & (
            src != model.col
        )
        # Entries are sorted by (row, successor), so the edges come out sorted.
        violations = [
            Violation(x, xp, NON_DECREASING_TRANSIENT)
            for x, xp in zip(src[mask].tolist(), model.col[mask].tolist())
        ]
    if np.all(cond.is_open):
        # Unreachable for row-stochastic inputs: a finite chain always has
        # at least one closed component.  Kept as a defensive report.
        violations.append(Violation(0, 0, NO_ABSORBING_SET))
    return violations


def _loop_violations(model, cond):
    return [
        Violation(x, x, CERTAIN_SELF_LOOP_MARKED_TRANSIENT)
        for x in _certain_loops(model, cond).tolist()
    ]


def _transient_cycles(cond):
    """Flags of the open components with two or more states."""
    return cond.is_open & (np.diff(cond.member_ptr) >= 2)


def _certain_loops(model, cond):
    """Open states that stay put for certain, ascending.

    cond is model's condensation or that of a view with the same support,
    such as an Mdp's union chain.
    """
    return np.flatnonzero(model.certain_self_loops() & cond.is_open[cond.labels])


def verify_reductive_mdp(mdp, view=None):
    """Certify that the union of the action supports is reductive.

    A transient edge x -> xp of any action whose target can reach back to
    x is reported, whichever actions close the cycle, and so is a
    transient state where every admissible action stays put for certain.
    That is the property rvi_solve needs: its schedule reads the union
    graph, and it solves each closed union class by Gauss-Seidel over all
    actions, so a policy that cycles inside such a class changes no value
    it returns.  Violations are sorted by (kind, x, xp).  The structure is
    read from view, mdp.support() or mdp.union_chain() when the caller
    already has one, else from a new mdp.support(); the self-loop rule
    always reads mdp's own entries.
    """
    if view is None:
        view = mdp.support()
    cond = _condensation(view)
    violations = sorted(
        _drift_violations(view, cond) + _loop_violations(mdp, cond),
        key=lambda v: (v.kind, v.x, v.xp),
    )
    return ReductivityVerdict(
        reductive=not violations, violations=tuple(violations)
    )


def canonical_permutation(chain, decomp, pt):
    """Permutation: transient by descending potential, then grouped classes.

    Under the returned order the transient block of the permuted matrix is
    upper-triangular (self-loops on the diagonal) and absorbing rows carry
    no mass into transient columns.  Ties in the transient potential are
    broken by ascending state id, which is safe because equal-potential
    transient states of a reductive chain are never adjacent.  chain is
    a MarkovChain or an Mdp's Support.  Raises NotReductive, read off its
    condensation, when it is not.
    """
    cond = _condensation(chain)
    if np.any(_transient_cycles(cond)) or _certain_loops(chain, cond).size:
        raise NotReductive("chain is not reductive")
    transient = decomp.transient
    order_t = transient[np.lexsort((transient, -pt.phi[transient]))]
    blocks = sorted(decomp.classes, key=lambda g: int(g[0]))
    parts = [order_t] + [np.sort(g) for g in blocks]
    order = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return CanonicalPermutation(order=order.astype(np.int64))


def level_set_schedule(pt, decomp):
    """Transient states bucketed by potential value, buckets ascending."""
    return _grouped(decomp.transient, pt.phi)


def height_schedule(chain, decomp):
    """Transient states bucketed by Kahn height, buckets ascending.

    A state's height is that of its component in chain's condensation
    (see _heights): one more than its tallest successor's, sinks at 0.
    Along every edge of a reductive chain other than a self-loop the
    height falls, so each bucket reads only earlier buckets and the
    absorbing part.  There are never more buckets than potential level
    sets: a state of height h starts a path through h transient states
    of strictly falling potential.  chain is a MarkovChain or an Mdp's
    Support.
    """
    cond = _condensation(chain)
    height = _heights(cond, np.diff(cond.succ_ptr))
    return _grouped(decomp.transient, height[cond.labels])


def _grouped(transient, key):
    """transient grouped by key[state], groups ascending, ties by state id."""
    if transient.size == 0:
        return LevelSetSchedule(levels=())
    keys = key[transient]
    order = np.lexsort((transient, keys))
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    return LevelSetSchedule(levels=tuple(np.split(transient[order], cuts)))


def predecessors(chain, target, n):
    """States outside target that can hit it within n steps."""
    if n < 1:
        raise ModelError("n must be at least 1")
    in_target = np.zeros(chain.state_count, dtype=bool)
    for s in target:
        if not 0 <= s < chain.state_count:
            raise ModelError(f"state {s} out of range")
        in_target[s] = True
    order = np.argsort(chain.col, kind="stable")
    src_sorted = _entry_sources(chain)[order]
    col_sorted = chain.col[order]
    rev_ptr = np.zeros(chain.state_count + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(chain.col, minlength=chain.state_count), out=rev_ptr[1:]
    )

    seen = in_target.copy()
    frontier = np.where(in_target)[0]
    found = []
    for _ in range(n):
        if frontier.size == 0:
            break
        starts = rev_ptr[frontier]
        lengths = rev_ptr[frontier + 1] - starts
        preds = src_sorted[gather_ranges(starts, lengths)]
        preds = _unique_sorted(preds[~seen[preds]])
        seen[preds] = True
        found.append(preds)
        frontier = preds
    if not found:
        return set()
    return set(np.concatenate(found).tolist())
