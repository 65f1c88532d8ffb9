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
an Mdp is certified and ordered without building that chain.

The components come from the model's successor lists, self-loops
aside.  A numpy pass peels the graph in Kahn frontiers from its sources;
a peeled state lies on no cycle, and in a reductive model the peel
takes every transient state.  Only what is left, the closed classes and
in a non-reductive model the transient cycles and what they reach, is
split by Tarjan's depth-first search, in time linear in its size.  The
peel's frontiers are kept on the condensation, so the Kahn heights of
the components (one more than the tallest successor's, sinks at 0) take
one pass back through them.  The potential visits the components by
height and builds a whole height's reach sets at once as rows of a
bitset matrix.  Its rows and bits are numbered by height, lowest first,
so the states below a height have their bits in the first width words
of a row, and the height's ORs and probes read and write those alone.

The passes over the edges (self-loops, condensation keys, heights, the
potential's reads) take them in blocks of whole rows, frontiers or
heights with at most mdp._BLOCK_ENTRIES edges (mdp._block_cuts), so
their temporaries stay small next to the model.  The condensation's
edges and bvi's predecessor lists become rows as Mdp.support()'s do, by
mdp._edge_rows, from int64 keys (source << shift) | target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NotReductive
from .mdp import _block_cuts, _edge_rows, _offsets, _unique_sorted, gather_ranges

# Violation kinds reported in a ReductivityVerdict.
NO_ABSORBING_SET = "NoAbsorbingSet"
NON_DECREASING_TRANSIENT = "NonDecreasingTransient"
CERTAIN_SELF_LOOP_MARKED_TRANSIENT = "CertainSelfLoopMarkedTransient"

# Up to this many words, a height's rows OR their reads by reduceat.
_REDUCEAT_WORDS = 1 << 11


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


class _Condensation:
    """Strongly-connected components of a chain and the edges between them.

    labels[x] is the component of state x; components are numbered in
    the order of their smallest members.  members lists the states
    grouped by component (ascending inside each group), component c
    owning members[member_ptr[c]:member_ptr[c + 1]].  succ[succ_ptr[c]:
    succ_ptr[c + 1]] are the distinct other components that c has an edge
    into, ascending; is_open[c] says that there is at least one.
    frontiers[frontier_ptr[k]:frontier_ptr[k + 1]] are the components of
    the k-th Kahn frontier from the sources: every edge runs from an
    earlier frontier to a later one.  has_loop[x] says that state x has an
    entry to itself.  The arrays are read-only; _heights computes the
    components' heights once and keeps them here.
    """

    __slots__ = (
        "labels",
        "members",
        "member_ptr",
        "succ_ptr",
        "succ",
        "is_open",
        "frontiers",
        "frontier_ptr",
        "has_loop",
        "height",
    )

    def __init__(self, **arrays):
        for name, arr in arrays.items():
            arr.setflags(write=False)
            setattr(self, name, arr)
        self.height = None


def _condensation(model):
    """The model's condensation, computed on first use and kept on the model.

    The components come from one pass over the model's support
    (_strong_components).  The edge keys are (source << shift) | target
    of the cross-component entries, made in blocks of rows (_block_cuts),
    and become the rows in place (_edge_rows).  They need no sort when
    the entries already come in their order, which they do when the
    numbering by smallest member keeps the order of the states and no
    multi-state component has edges out of it from two of its states: for
    example when every multi-state component is a closed class of
    consecutive states.
    """
    if model._condensation is not None:
        return model._condensation
    n = model.state_count
    rep, peeled, peel_ptr, has_loop = _strong_components(model.row_ptr, model.col)
    is_rep = rep == np.arange(n, dtype=np.int64)
    labels = (np.cumsum(is_rep) - 1)[rep]
    n_comp = int(np.count_nonzero(is_rep))
    member_ptr = _offsets(np.bincount(labels, minlength=n_comp))

    # The edge keys are the largest temporaries of a structure query, so
    # they are made in one array, each block's kept keys after the last
    # block's, and shrunk in place.
    shift = max(n_comp - 1, 1).bit_length()
    row_ptr, col = model.row_ptr, model.col
    keys = np.empty(col.size, dtype=np.int64)
    size = 0
    cuts = _block_cuts(row_ptr)
    for a, b in zip(cuts, cuts[1:]):
        src = labels[a:b].repeat(row_ptr[a + 1 : b + 1] - row_ptr[a:b])
        dst = labels[col[row_ptr[a] : row_ptr[b]]]
        keep = src != dst
        src <<= shift
        src |= dst
        part = src[keep]
        keys[size : size + part.size] = part
        size += part.size
    keys.resize(size, refcheck=False)
    succ_ptr, succ = _edge_rows(keys, n_comp, shift)
    out_degree = succ_ptr[1:] - succ_ptr[:-1]

    # The peeled states are components of their own, in the peel's
    # frontiers.  The other components only reach one another; they
    # follow in their own Kahn frontiers.
    rest = np.ones(n_comp, dtype=bool)
    rest[labels[peeled]] = False
    rest = np.flatnonzero(rest)
    waiting = np.bincount(_out_edges((succ_ptr, succ), rest)[0], minlength=n_comp)
    order, order_ptr = _peel((succ_ptr, succ), waiting, rest[waiting[rest] == 0])
    cond = _Condensation(
        labels=labels,
        members=np.argsort(labels, kind="stable"),
        member_ptr=member_ptr,
        succ_ptr=succ_ptr,
        succ=succ,
        is_open=out_degree > 0,
        frontiers=np.concatenate((labels[peeled], order)),
        frontier_ptr=np.concatenate((peel_ptr, peel_ptr[-1] + order_ptr[1:])),
        has_loop=has_loop,
    )
    model._condensation = cond
    return cond


def _strong_components(row_ptr, col):
    """Strongly-connected components of a graph, and its source peel.

    Node x has the successors col[row_ptr[x]:row_ptr[x + 1]]; self-loops
    are ignored and a row may repeat a successor.  The graph is peeled in
    Kahn frontiers from its sources (_peel).  A peeled node lies on no
    cycle, so it is a component of its own; in a reductive model that is
    every transient state.  The nodes left over only reach one another
    and are split by _tarjan.  Returns each node's representative (the
    smallest member of its component), the peeled nodes frontier by
    frontier, the frontiers' bounds, and the flags of the nodes with a
    self-loop.
    """
    n = row_ptr.size - 1
    loops = _self_loops(row_ptr, col)
    waiting = np.bincount(col, minlength=n)
    waiting -= loops
    peeled, peel_ptr = _peel((row_ptr, col), waiting, (waiting == 0).nonzero()[0])
    rep = np.arange(n, dtype=np.int64)
    rest = np.flatnonzero(waiting > 0)
    if rest.size:
        nxt, lens = _out_edges((row_ptr, col), rest)
        local = np.zeros(n, dtype=np.int64)
        local[rest] = np.arange(rest.size, dtype=np.int64)
        succ = local[nxt]
        comp = np.array(_tarjan(_offsets(lens).tolist(), succ.tolist()))
        smallest = np.full(rest.size, rest.size, dtype=np.int64)
        np.minimum.at(smallest, comp, np.arange(rest.size, dtype=np.int64))
        rep[rest] = rest[smallest[comp]]
    return rep, peeled, peel_ptr, loops > 0


def _self_loops(row_ptr, col):
    """How many of each row's entries lead back to the row itself.

    Row x has the entries col[row_ptr[x]:row_ptr[x + 1]].  The rows are
    taken in blocks (_block_cuts), so no entry-sized array of sources is
    made.
    """
    hits = [np.empty(0, dtype=np.int64)]
    cuts = _block_cuts(row_ptr)
    for a, b in zip(cuts, cuts[1:]):
        lens = row_ptr[a + 1 : b + 1] - row_ptr[a:b]
        src = np.arange(a, b, dtype=np.int64).repeat(lens)
        hits.append(src[src == col[row_ptr[a] : row_ptr[b]]])
    return np.bincount(np.concatenate(hits), minlength=row_ptr.size - 1)


def _kahn(graph, waiting, frontier):
    """Walk a graph in Kahn frontiers, starting from frontier.

    graph is (ptr, succ): node x has the successors succ[ptr[x]:ptr[x +
    1]].  waiting[x] counts x's in-edges from nodes not yet walked;
    frontier's nodes wait for none.  A node joins the next frontier once
    its count falls to 0.  waiting is updated in place: a walked node's
    count is negative, and a node never reached keeps a positive one.
    Yields each frontier with its nodes' out-degrees and successors.
    """
    while frontier.size:
        # Mark the frontier's nodes as walked; of the copies of a node
        # that two edges made ready, one matches the mark that landed.
        mark = -1 - np.arange(frontier.size, dtype=np.int64)
        waiting[frontier] = mark
        frontier = frontier[waiting[frontier] == mark]
        nxt, lens = _out_edges(graph, frontier)
        yield frontier, lens, nxt
        np.subtract.at(waiting, nxt, 1)
        frontier = nxt[waiting[nxt] == 0]


def _peel(graph, waiting, frontier):
    """The nodes of _kahn's frontiers, frontier by frontier, and their bounds."""
    parts = [f for f, _, _ in _kahn(graph, waiting, frontier)]
    if not parts:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    return np.concatenate(parts), _offsets([p.size for p in parts])


def _tarjan(ptr, succ):
    """Component of each node, by Tarjan's depth-first search without recursion.

    ptr and succ are lists: node x has the successors succ[ptr[x]:ptr[x +
    1]].  Components are numbered in the order they finish.  Each edge is
    looked at once, so the time is linear in the graph's size; being a
    Python loop, it only sees what the numpy peel leaves.
    """
    count = len(ptr) - 1
    index = [-1] * count
    low = [0] * count
    comp = [-1] * count
    stack = []
    seen = found = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work = [(root, ptr[root])]
        while work:
            v, i = work[-1]
            end = ptr[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if index[w] < 0:
                    # Descend into w, resuming v's edges after it later.
                    work[-1] = (v, i)
                    index[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    work.append((w, ptr[w]))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = found
                        if w == v:
                            break
                    found += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp


def _out_edges(graph, frontier):
    """The successors of frontier's nodes in graph = (ptr, succ), and their counts."""
    ptr, succ = graph
    starts = ptr[frontier]
    lens = ptr[frontier + 1] - starts
    return succ[gather_ranges(starts, lens)], lens


def _walk(graph, seen, frontier):
    """Breadth-first steps through graph = (ptr, succ) from frontier.

    Yields each step's distinct successors of the last step's nodes that
    are not yet seen, ascending, and flags them in seen (in place).  The
    walk ends after the first empty step.
    """
    while frontier.size:
        nxt, _ = _out_edges(graph, frontier)
        frontier = _unique_sorted(nxt[~seen[nxt]])
        seen[frontier] = True
        yield frontier


def _predecessor_lists(row_ptr, col):
    """The graph's edges reversed, each state's sources distinct.

    State x has the successors col[row_ptr[x]:row_ptr[x + 1]], repeats
    allowed.  Returns (rev_ptr, rev_src): the states with an edge into y
    are rev_src[rev_ptr[y]:rev_ptr[y + 1]], ascending (_edge_rows).
    """
    n = row_ptr.size - 1
    shift = max(n - 1, 1).bit_length()
    keys = col << shift
    keys |= np.arange(n, dtype=np.int64).repeat(np.diff(row_ptr))
    return _edge_rows(keys, n, shift)


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
    for _ in _walk((row_ptr, col), seen, np.array([x], dtype=np.int64)):
        pass
    return seen


def counting_potential(chain):
    """Number of reachable states per state, via the model's condensation.

    chain is a MarkovChain or an Mdp's Support.

    Components are visited by Kahn height (_heights), sinks first, so
    every successor of a component is done before it.  Each component's
    reach set is one row of a uint64 bitset matrix, components x
    ceil(n / 64) words (about 51 MB for the 20,301 states of liquidation
    at q_max=100).  Rows and bits are both numbered by height, lowest
    first: row r is the r-th component by height, and the bits of its
    members follow those of the rows before it.  So the states of height
    below h have their bits in a row's first width[h - 1] words, and a
    component of height h reaches no others than these and its own
    members: every OR and probe at height h acts on those words alone.
    phi is a popcount, so it is exact under any numbering of the bits.
    The edges are gathered in blocks of whole heights, so beside the
    bitset no array grows with the edge count.

    A height's rows are built at once: the component's own members, OR
    the row of its tallest successor, OR the rows of the other
    successors whose first member is not yet in that union.  A skipped
    successor's first member is reached through the tallest successor,
    so its whole set is already contained, and the result is exact.
    Taking the tallest successor first leaves few rows to OR on chains
    with long paths.
    """
    cond = _condensation(chain)
    n, n_comp = chain.state_count, cond.is_open.size
    height = _heights(cond)
    rows = np.argsort(height, kind="stable")
    row_ptr = np.searchsorted(height[rows], np.arange(height[rows[-1]] + 2))
    rank = np.empty(n_comp, dtype=np.int64)
    rank[rows] = np.arange(n_comp, dtype=np.int64)
    # Row r's members hold the bits bit_ptr[r]:bit_ptr[r + 1].
    sizes = np.diff(cond.member_ptr)[rows]
    bit_ptr = _offsets(sizes)
    width = (bit_ptr[row_ptr[1:]] + 63) // 64
    words = int(width[-1])

    # One more row than components: _or_rows pads with it, and it stays 0.
    bits = np.zeros((n_comp + 1, words), dtype=np.uint64)
    flat = bits.reshape(-1)
    # The members' own bits.  Bit i lies in word i >> 6 of its row; the
    # keys of those words ascend, and one reduceat ORs each word's bits.
    key = np.arange(0, n_comp * words, words).repeat(sizes)
    key += np.arange(n, dtype=np.int64) >> 6
    new_word = np.ones(n, dtype=bool)
    new_word[1:] = key[1:] != key[:-1]
    flat[key[new_word]] = np.bitwise_or.reduceat(
        _bit(np.arange(n, dtype=np.int64)), new_word.nonzero()[0]
    )
    del key, new_word

    # The heights are taken in blocks of whole heights (_block_cuts).  A
    # block gathers its edges in row order, their targets as rows (reads);
    # an edge's probe is the flat position, in its source's row, of the
    # word that holds its target's first bit, and probe_bit is that bit.
    first = bit_ptr[:-1]  # each row's first bit
    word_of, first_bit = first >> 6, _bit(first)
    out_degree = np.diff(cond.succ_ptr)[rows]
    edge_ptr = _offsets(out_degree)
    height_ptr = edge_ptr[row_ptr]
    tall = row_ptr[1]  # the first row above height 0
    cuts = _block_cuts(height_ptr)
    for f, g in zip(cuts, cuts[1:]):
        a, b, base = row_ptr[f], row_ptr[g], height_ptr[f]
        reads = rank[_out_edges((cond.succ_ptr, cond.succ), rows[a:b])[0]]
        probe = word_of[reads]
        probe += np.arange(a * words, b * words, words).repeat(out_degree[a:b])
        probe_bit = first_bit[reads]
        # Rows ascend by height, so a component's last successor row is a
        # tallest successor, one height below it.
        t = max(a, tall)
        if t < b:
            tallest = np.maximum.reduceat(reads, edge_ptr[t:b] - base)
        # Height h: its rows ra:rb, their tallest successors tallest[ta:tb]
        # and their edges lo:hi in the block.
        h = max(f, 1)
        steps = zip(
            width[h - 1 : g - 1],
            row_ptr[h:g],
            row_ptr[h + 1 : g + 1],
            row_ptr[h:g] - t,
            row_ptr[h + 1 : g + 1] - t,
            height_ptr[h:g] - base,
            height_ptr[h + 1 : g + 1] - base,
        )
        for w, ra, rb, ta, tb, lo, hi in steps:
            sub = bits[:, :w]
            np.bitwise_or(sub[ra:rb], sub[tallest[ta:tb]], out=sub[ra:rb])
            open_ = ((flat.take(probe[lo:hi]) & probe_bit[lo:hi]) == 0).nonzero()[0]
            if open_.size:
                open_ += lo
                _or_rows(sub, probe.take(open_) // words, reads.take(open_))

    phi = np.empty(n_comp, dtype=np.int64)
    cuts = _block_cuts(np.arange(0, (n_comp + 1) * words, words))
    for a, b in zip(cuts, cuts[1:]):
        w = (bit_ptr[b] + 63) // 64
        phi[a:b] = np.bitwise_count(bits[a:b, :w]).sum(axis=1, dtype=np.int64)
    return PotentialTable(
        phi=phi[rank[cond.labels]], self_loops=frozenset(self_loop_states(chain))
    )


def _or_rows(sub, dst, src):
    """sub[dst[i]] |= sub[src[i]] for every i.

    sub is a column slice of the bitset, whose last row is all zero.
    dst ascends, and no src row is a dst row.  The reads of each dst row
    are ORed together first.  A reduceat over their segments loops
    column by column, so it serves narrow rows.  Wide rows pad each dst
    row's reads to the largest count with the zero row and reduce them
    at once, as long as the padding at most doubles the reads: one row
    with many reads beside many rows with few keeps the reduceat, whose
    temporary grows with the reads alone.
    """
    new_row = np.ones(dst.size, dtype=bool)
    new_row[1:] = dst[1:] != dst[:-1]
    starts = new_row.nonzero()[0]
    # The largest read count, found only for wide rows: narrow ones,
    # count 0, never pad.
    count = 0
    if starts.size * sub.shape[1] > _REDUCEAT_WORDS:
        count = int(np.diff(starts, append=dst.size).max())
    if 0 < starts.size * count <= 2 * dst.size:
        seg = new_row.cumsum() - 1
        padded = np.full(starts.size * count, sub.shape[0] - 1)
        padded[seg * count + np.arange(dst.size) - starts[seg]] = src
        acc = sub[padded].reshape(starts.size, count, -1)
        acc = np.bitwise_or.reduce(acc, axis=1)
    else:
        acc = np.bitwise_or.reduceat(sub[src], starts, axis=0)
    sub[dst.take(starts)] |= acc


def _heights(cond):
    """Kahn height of every component, sinks at 0, computed once per condensation.

    One pass back through the condensation's frontiers (_back_heights).
    """
    if cond.height is None:
        graph = (cond.succ_ptr, cond.succ)
        height = _back_heights(graph, cond.frontiers, cond.frontier_ptr)
        height.setflags(write=False)
        cond.height = height
    return cond.height


def _frontier_heights(reader, read, count):
    """Kahn height of each of count nodes of a DAG, sinks at 0.

    Node reader[i] has an edge to node read[i], reader ascending, and a
    repeated edge counts as often as it is listed.  A node's height is
    one more than the tallest it reads, 0 when it reads none.  The DAG is
    walked in Kahn frontiers from its sources (_peel), then the heights
    are taken in one pass back through the frontiers (_back_heights).
    Neither needs predecessor lists, and the whole is linear in the
    graph's size.
    """
    graph = (_offsets(np.bincount(reader, minlength=count)), read)
    waiting = np.bincount(read, minlength=count)
    order, bounds = _peel(graph, waiting, np.flatnonzero(waiting == 0))
    return _back_heights(graph, order, bounds)


def _back_heights(graph, order, bounds):
    """Height of every node of graph = (ptr, succ), sinks at 0.

    order lists the nodes by Kahn frontier, frontier k being
    order[bounds[k]:bounds[k + 1]], and every edge runs from an earlier
    frontier to a later one.  A node's height is one more than its
    tallest successor's.  The frontiers' edges are gathered in blocks of
    whole frontiers (_block_cuts), then taken last frontier first, so a
    node's successors are done before it.
    """
    ptr, succ = graph
    height = np.zeros(ptr.size - 1, dtype=np.int64)
    lens = ptr[order + 1] - ptr[order]
    cut = _offsets(lens)[bounds]
    blocks = _block_cuts(cut)
    for f, g in zip(blocks[-2::-1], blocks[:0:-1]):
        a, b = bounds[f], bounds[g]
        dst, _ = _out_edges(graph, order[a:b])
        owner = order[a:b].repeat(lens[a:b])
        edges = (cut[f : g + 1] - cut[f]).tolist()
        for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
            if hi > lo:
                np.maximum.at(height, owner[lo:hi], height[dst[lo:hi]] + 1)
    return height


def _bit(states):
    """Each state's bit within its 64-bit word."""
    return np.left_shift(np.uint64(1), (states & 63).astype(np.uint64))


def potential_difference(pt, x, xp):
    """phi[xp] - phi[x]; at most 0 whenever xp is a one-step successor of x."""
    return int(pt.phi[xp] - pt.phi[x])


def self_loop_states(model):
    """States with a fractional self-loop.

    For a chain that is 0 < p(x, x) < 1.  For an Mdp's Support it is the
    same rule on the union of the actions: some action has a self-loop,
    and not every action has p(x, x) >= 1.  The self-loops are read off
    the model's condensation when it has one, else off its entries, so no
    condensation is computed.
    """
    cond = model._condensation
    if cond is None:
        has_loop = _self_loops(model.row_ptr, model.col) > 0
    else:
        has_loop = cond.has_loop
    fractional = has_loop & ~model.certain_self_loops()
    return set(np.flatnonzero(fractional).tolist())


def absorbing_decomposition(chain):
    """Split states into the transient part and the closed classes.

    Classes are exactly the strongly-connected components with no outgoing
    edges; everything else is transient.
    """
    cond = _condensation(chain)
    is_open = cond.is_open[cond.labels]
    transient = np.flatnonzero(is_open)
    absorbing = np.flatnonzero(~is_open)
    # Components are numbered by smallest member: so are the classes.
    groups = [
        cond.members[cond.member_ptr[c] : cond.member_ptr[c + 1]]
        for c in np.flatnonzero(~cond.is_open)
    ]
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
        src = np.repeat(
            np.arange(model.state_count, dtype=np.int64), np.diff(model.row_ptr)
        )
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
    height = _heights(cond)
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
    seen = in_target.copy()
    walk = _walk(
        _predecessor_lists(chain.row_ptr, chain.col), seen, np.flatnonzero(in_target)
    )
    # No walk takes more steps than there are states; islice takes no
    # count beyond sys.maxsize.
    for _ in itertools.islice(walk, min(n, chain.state_count)):
        pass
    return set(np.flatnonzero(seen & ~in_target).tolist())
