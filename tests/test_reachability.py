import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmdp import (
    CERTAIN_SELF_LOOP_MARKED_TRANSIENT,
    NON_DECREASING_TRANSIENT,
    DivergentSelfLoop,
    MarkovChain,
    ModelError,
    NotReductive,
    SolverConfig,
    Violation,
    absorbing_decomposition,
    build_fig2,
    build_mdp,
    canonical_permutation,
    counting_potential,
    height_schedule,
    level_set_schedule,
    potential_difference,
    predecessors,
    qvi_solve,
    reachable_set,
    rvi_solve,
    self_loop_states,
    spiral_chain,
    spiral_state_id,
    successors,
    verify_reductive,
    verify_reductive_mdp,
)
from rmdp import mdp as mdp_module
from rmdp.domains import LiquidationParams, build_liquidation
from rmdp.mdp import Support, gather_ranges
from rmdp.reachability import _condensation, _heights

# Annotated reachable-set sizes of the spiral walk, row 0 first.
SPIRAL_PHI = [
    25, 24, 23, 22, 21,
    10, 9, 8, 7, 20,
    11, 2, 1, 6, 19,
    12, 3, 4, 5, 18,
    13, 14, 15, 16, 17,
]


def two_cycle_chain():
    # a -> b -> a with an escape to an absorbing state
    return MarkovChain.from_rows(
        [[(1, 1.0)], [(0, 0.5), (2, 0.5)], [(2, 1.0)]]
    )


def dense(chain):
    P = np.zeros((chain.state_count, chain.state_count))
    for x in range(chain.state_count):
        cols, probs = chain.row(x)
        P[x, cols] = probs
    return P


def assert_rvi_matches_qvi(mdp):
    """rvi_solve on the support's height schedule agrees with value iteration.

    A pair that stays forever at a gain makes both raise DivergentSelfLoop.
    """
    support = mdp.support()
    decomp = absorbing_decomposition(support)
    try:
        ref = qvi_solve(mdp, SolverConfig(epsilon=1e-12))
    except DivergentSelfLoop:
        with pytest.raises(DivergentSelfLoop):
            rvi_solve(mdp, height_schedule(support, decomp), decomp)
        return
    res = rvi_solve(mdp, height_schedule(support, decomp), decomp)
    assert np.max(np.abs(res.values.v - ref.values.v)) <= 1e-9


def assert_canonical_form(chain, order, transient_count):
    P = dense(chain)[np.ix_(order, order)]
    k = transient_count
    assert not np.any(np.tril(P[:k, :k], -1)), "transient block not triangular"
    assert not np.any(P[k:, :k]), "absorbing rows leak into transient columns"


# ---------------------------------------------------------------------------
# potentials


def test_spiral_potentials_match_annotations():
    pt = counting_potential(spiral_chain())
    assert pt.phi.tolist() == SPIRAL_PHI


def test_potential_equals_reachable_set_size_on_spiral():
    ch = spiral_chain()
    pt = counting_potential(ch)
    for x in range(ch.state_count):
        assert pt.phi[x] == len(reachable_set(ch, x))


def edge_chain(n, edges):
    """Chain on n states with uniform rows over the given edges.

    A state with no listed edge gets a certain self-loop, so it is a
    closed class of its own.
    """
    succs = [set() for _ in range(n)]
    for x, xp in edges:
        succs[x].add(xp)
    rows = []
    for x in range(n):
        row = sorted(succs[x]) or [x]
        rows.append([(s, 1.0 / len(row)) for s in row])
    return MarkovChain.from_rows(rows)


def seeded_chain(n, seed=0):
    rng = np.random.default_rng(seed)
    edges = []
    for x in range(n):
        k = int(rng.integers(1, min(3, n) + 1))
        edges += [(x, int(s)) for s in rng.choice(n, size=k, replace=False)]
    return edge_chain(n, edges)


def assert_potential_counts_reach(chain, states=None):
    phi = counting_potential(chain).phi
    assert phi.shape == (chain.state_count,)
    for x in range(chain.state_count) if states is None else states:
        assert phi[x] == len(reachable_set(chain, x)), x


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
def test_potential_at_word_boundaries(n):
    assert_potential_counts_reach(seeded_chain(n, seed=n))
    # A path into the last state, which closes on itself.
    path = edge_chain(n, [(x, x + 1) for x in range(n - 1)])
    assert counting_potential(path).phi.tolist() == list(range(n, 0, -1))


def test_potential_closed_class_straddling_words():
    # States 30..99 form one closed cycle across the words of bits 0..63
    # and 64..127; 0..29 lead into it and 100..109 lead into 0.
    edges = [(x, x + 1) for x in range(30)]
    edges += [(x, 30 + (x - 29) % 70) for x in range(30, 100)]
    edges += [(x, x + 1) for x in range(100, 109)] + [(109, 0), (105, 99)]
    chain = edge_chain(110, edges)
    assert_potential_counts_reach(chain)
    assert counting_potential(chain).phi[30:100].tolist() == [70] * 70


def test_potential_long_path_has_one_frontier_per_state():
    n = 3000
    chain = edge_chain(n, [(x, x + 1) for x in range(n - 1)])
    phi = counting_potential(chain).phi
    assert phi.tolist() == list(range(n, 0, -1))
    assert_potential_counts_reach(chain, states=[0, 1, 1500, n - 64, n - 1])


def test_potential_wide_star():
    # Every leaf is its own sink, so after the tallest leaf every other
    # successor of the hub is uncovered and must be ORed in.
    k = 300
    hub = edge_chain(k + 1, [(0, leaf) for leaf in range(1, k + 1)])
    assert counting_potential(hub).phi.tolist() == [k + 1] + [1] * k
    # Leaves of unequal height: leaf i is a path of i + 1 states.
    edges, nxt = [], 1
    for i in range(40):
        edges.append((0, nxt))
        edges += [(s, s + 1) for s in range(nxt, nxt + i)]
        nxt += i + 1
    assert_potential_counts_reach(edge_chain(nxt, edges))


def test_potential_diamond_lattice():
    # Grid (i, j) -> (i + 1, j), (i, j + 1): successors share most of
    # their reach sets, so most are skipped as covered.
    side = 24

    def sid(i, j):
        return i * side + j

    edges = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                edges.append((sid(i, j), sid(i + 1, j)))
            if j + 1 < side:
                edges.append((sid(i, j), sid(i, j + 1)))
    chain = edge_chain(side * side, edges)
    phi = counting_potential(chain).phi
    for i in range(side):
        for j in range(side):
            assert phi[sid(i, j)] == (side - i) * (side - j)
    assert_potential_counts_reach(chain, states=[0, sid(3, 20), sid(side - 1, 0)])


def layered_chain(sizes, ids, fan=2, seed=0):
    """Chain whose k-th layer holds sizes[k] states of height k.

    Layer 0 are sinks.  Every later state moves to one state of the
    layer below and to up to fan random lower states, so its height is
    its layer.  ids names the state ids in layer order: "forward" keeps
    them, "reverse" runs them against the heights and "shuffled" draws
    them at random.
    """
    rng = np.random.default_rng(seed)
    starts = np.cumsum([0, *sizes]).tolist()
    n = starts[-1]
    edges = []
    for k in range(1, len(sizes)):
        for x in range(starts[k], starts[k + 1]):
            edges.append((x, int(rng.integers(starts[k - 1], starts[k]))))
            edges += [(x, int(y)) for y in rng.integers(0, starts[k], size=fan)]
    label = {
        "forward": np.arange(n),
        "reverse": np.arange(n)[::-1],
        "shuffled": rng.permutation(n),
    }[ids]
    return edge_chain(n, [(int(label[x]), int(label[y])) for x, y in edges])


@pytest.mark.parametrize("ids", ["forward", "reverse", "shuffled"])
@pytest.mark.parametrize(
    "sizes",
    [
        (64, 64, 64),  # every height ends exactly on a word boundary
        (1, 63, 64, 1),
        (65, 63, 1, 127, 2),  # some end on a boundary, some inside a word
        (3, 61, 1, 63, 64, 128, 5),
    ],
)
def test_potential_with_heights_ending_at_and_inside_words(sizes, ids):
    # The bits are numbered by height, so a height's rows are ORed over
    # the words up to where the states below it end.
    assert_potential_counts_reach(layered_chain(sizes, ids, seed=len(sizes)))


def test_potential_of_a_deep_chain_numbered_against_its_heights():
    # State x moves to x + 1 and to one random state above it, and the
    # last state is a sink: state 0 is the tallest.
    n = 500
    rng = np.random.default_rng(5)
    edges = [(x, x + 1) for x in range(n - 1)]
    edges += [(x, int(rng.integers(x + 1, n))) for x in range(n - 2)]
    chain = edge_chain(n, edges)
    assert counting_potential(chain).phi.tolist() == list(range(n, 0, -1))
    assert_potential_counts_reach(chain, states=range(0, n, 7))


@pytest.mark.parametrize("fan", [1, 3])
def test_potential_of_wide_rows_with_many_reads(fan):
    # 1,000 sinks take 16 words, and each of 200 states reads the
    # rows of several sinks: with fan=3 most rows OR more than one read
    # at once, with fan=1 at most one.
    chain = layered_chain((1000, 200, 40), "shuffled", fan=fan, seed=fan)
    assert_potential_counts_reach(chain)


def test_potential_of_a_hub_beside_rows_with_one_read():
    # State 0 moves to all 2,000 sinks and 200 states move to two sinks
    # each, so one height ORs 2,198 reads into 201 rows of 32 words.
    # Padding every row to the hub's 1,999 reads would take about 100 MB;
    # the reads themselves take 0.6 MB and the bitset 0.6 MB.
    sinks, k = 2000, 200
    n = 1 + sinks + k
    rng = np.random.default_rng(3)
    edges = [(0, 1 + s) for s in range(sinks)]
    for x in range(1 + sinks, n):
        edges += [(x, 1 + int(s)) for s in rng.choice(sinks, size=2, replace=False)]
    chain = edge_chain(n, edges)
    _heights(_condensation(chain))
    tracemalloc.start()
    try:
        phi = counting_potential(chain).phi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi[0] == 1 + sinks and phi[1 + sinks :].tolist() == [3] * k
    bitset = (n + 1) * ((n + 63) // 64) * 8
    assert peak <= 4 * bitset, (peak, bitset)


def test_potential_holds_no_second_bitset():
    # A deep chain of n states: the bitset has n rows of ceil(n / 64)
    # words.  Everything else counting_potential keeps is a few arrays
    # per state and per edge, well within 256 bytes a state here; a
    # popcount of the whole bitset at once would add a byte per word.
    n = 20_000
    rng = np.random.default_rng(11)
    rows = [[(0, 1.0)], [(0, 1.0)]]
    for x in range(2, n):
        rows.append([(int(rng.integers(0, x - 1)), 0.5), (x - 1, 0.5)])
    chain = MarkovChain.from_rows(rows)
    _heights(_condensation(chain))
    tracemalloc.start()
    try:
        phi = counting_potential(chain).phi
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi[:3].tolist() == [1, 2, 3] and phi[-1] == n
    bitset = n * ((n + 63) // 64) * 8
    assert peak <= bitset + 256 * n, (peak, bitset)


def test_fig2_potentials():
    assert counting_potential(build_fig2("A")).phi.tolist() == [4, 2, 2, 1]
    assert counting_potential(build_fig2("B")).phi.tolist() == [5, 3, 3, 2, 2]


def test_potential_difference_is_negative_along_edges():
    pt = counting_potential(build_fig2("A"))
    assert potential_difference(pt, 0, 1) == -2
    assert potential_difference(pt, 1, 3) == -1
    assert potential_difference(pt, 0, 0) == 0


def test_self_loop_states_counts_fractional_loops_only():
    ch = build_fig2("A", loop_prob=0.25)
    assert self_loop_states(ch) == {0}
    pt = counting_potential(ch)
    assert pt.self_loops == frozenset({0})
    # (3,3) is a certain loop, not a member
    assert 3 not in self_loop_states(ch)


def test_reachable_set_includes_seed_and_closure():
    ch = build_fig2("A")
    assert reachable_set(ch, 1) == {1, 3}
    assert reachable_set(ch, 0) == {0, 1, 2, 3}
    assert reachable_set(ch, 3) == {3}


# ---------------------------------------------------------------------------
# decomposition


def test_fig2_decompositions():
    da = absorbing_decomposition(build_fig2("A"))
    assert da.transient.tolist() == [0, 1, 2]
    assert [g.tolist() for g in da.classes] == [[3]]
    db = absorbing_decomposition(build_fig2("B"))
    assert db.transient.tolist() == [0, 1, 2]
    assert db.absorbing.tolist() == [3, 4]
    assert [g.tolist() for g in db.classes] == [[3, 4]]


def test_decomposition_partitions_states():
    ch = spiral_chain()
    d = absorbing_decomposition(ch)
    together = np.concatenate([d.transient, d.absorbing])
    assert sorted(together.tolist()) == list(range(ch.state_count))
    assert d.absorbing.tolist() == [spiral_state_id(2, 2)]


# ---------------------------------------------------------------------------
# verification


def test_verify_accepts_reference_fixtures():
    for ch in (build_fig2("A"), build_fig2("B"), spiral_chain()):
        verdict = verify_reductive(ch)
        assert verdict.reductive
        assert verdict.violations == ()


def test_verify_rejects_transient_two_cycle():
    verdict = verify_reductive(two_cycle_chain())
    assert not verdict.reductive
    edges = {(v.x, v.xp) for v in verdict.violations}
    assert edges == {(0, 1), (1, 0)}
    assert all(v.kind == NON_DECREASING_TRANSIENT for v in verdict.violations)


def test_verify_accepts_transient_self_loop():
    ch = MarkovChain.from_rows([[(0, 0.9), (1, 0.1)], [(1, 1.0)]])
    assert verify_reductive(ch).reductive


def test_verify_mdp_accepts_single_action_fixtures():
    from rmdp import mdp_from_chain

    for ch in (build_fig2("A"), build_fig2("B"), spiral_chain()):
        assert verify_reductive_mdp(mdp_from_chain(ch)).reductive


def test_verify_mdp_rejects_cross_action_cycle():
    # the cycle needs one specific action at each of two states; both also
    # have an escape action, and the union must still be rejected
    spec = {
        "states": 3,
        "actions": 2,
        "discount": 1.0,
        "mask": [[0, 1], [0, 1], [0]],
        "transitions": [
            {"x": 0, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
            {"x": 0, "u": 1, "xp": 2, "p": 1.0, "r": 0.0},
            {"x": 1, "u": 0, "xp": 0, "p": 1.0, "r": 0.0},
            {"x": 1, "u": 1, "xp": 2, "p": 1.0, "r": 0.0},
            {"x": 2, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
        ],
    }
    verdict = verify_reductive_mdp(build_mdp(spec))
    assert not verdict.reductive
    assert {(v.x, v.xp) for v in verdict.violations} == {(0, 1), (1, 0)}


def test_verify_mdp_accepts_policy_breakable_class():
    # the union chain is one closed three-state class; choosing the
    # self-loop action at state 2 would strand {0, 1} as a two-cycle, but
    # the closed class is solved over all actions, so the model is
    # reductive and the one-pass solve agrees with value iteration
    spec = {
        "states": 3,
        "actions": 2,
        "discount": 1.0,
        "mask": [[0], [0], [0, 1]],
        "transitions": [
            {"x": 0, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
            {"x": 1, "u": 0, "xp": 0, "p": 0.5, "r": 0.0},
            {"x": 1, "u": 0, "xp": 2, "p": 0.5, "r": 0.0},
            {"x": 2, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
            {"x": 2, "u": 1, "xp": 0, "p": 1.0, "r": 0.0},
        ],
    }
    mdp = build_mdp(spec)
    assert verify_reductive(mdp.union_chain()).reductive
    verdict = verify_reductive_mdp(mdp)
    assert verdict.reductive and verdict.violations == ()
    assert_rvi_matches_qvi(mdp)


def test_verify_mdp_accepts_action_redundant_class():
    spec = {
        "states": 2,
        "actions": 2,
        "discount": 1.0,
        "mask": [[0, 1], [0]],
        "transitions": [
            {"x": 0, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
            {"x": 0, "u": 1, "xp": 1, "p": 1.0, "r": 5.0},
            {"x": 1, "u": 0, "xp": 0, "p": 1.0, "r": 0.0},
        ],
    }
    assert verify_reductive_mdp(build_mdp(spec)).reductive


def test_verify_mdp_accepts_large_multi_action_class():
    # 13 two-action members make 2**13 joint choices; the union check
    # needs none of them, and every policy keeps the class one cycle
    m = 13
    transitions = []
    for i in range(m):
        transitions.append({"x": i, "u": 0, "xp": (i + 1) % m, "p": 1.0, "r": 0.0})
        transitions.append({"x": i, "u": 1, "xp": (i + 1) % m, "p": 1.0, "r": 1.0})
    spec = {
        "states": m,
        "actions": 2,
        "discount": 1.0,
        "mask": [[0, 1]] * m,
        "transitions": transitions,
    }
    verdict = verify_reductive_mdp(build_mdp(spec))
    assert verdict.reductive
    assert verdict.violations == ()


# ---------------------------------------------------------------------------
# canonical permutation and schedule


def test_canonical_permutation_on_fixtures():
    for ch in (build_fig2("A"), build_fig2("B"), spiral_chain()):
        d = absorbing_decomposition(ch)
        pt = counting_potential(ch)
        perm = canonical_permutation(ch, d, pt)
        assert sorted(perm.order.tolist()) == list(range(ch.state_count))
        assert_canonical_form(ch, perm.order, d.transient.size)


def test_canonical_permutation_rejects_non_reductive():
    # p(0, 0) = 1.0 within the row-sum tolerance, with an exit kept open
    certain_loop = MarkovChain.from_rows([[(0, 1.0), (1, 1e-20)], [(1, 1.0)]])
    for ch in (two_cycle_chain(), certain_loop):
        assert not verify_reductive(ch).reductive
        d = absorbing_decomposition(ch)
        pt = counting_potential(ch)
        with pytest.raises(NotReductive):
            canonical_permutation(ch, d, pt)


def test_level_sets_ascend_and_partition():
    ch = spiral_chain()
    d = absorbing_decomposition(ch)
    pt = counting_potential(ch)
    sched = level_set_schedule(pt, d)
    seen = []
    prev = 0
    for level in sched.levels:
        vals = {int(pt.phi[s]) for s in level}
        assert len(vals) == 1
        val = vals.pop()
        assert val > prev
        prev = val
        seen.extend(level.tolist())
    assert sorted(seen) == sorted(d.transient.tolist())


def test_level_sets_empty_without_transient():
    ch = MarkovChain.from_rows([[(0, 1.0)]])
    d = absorbing_decomposition(ch)
    assert level_set_schedule(counting_potential(ch), d).levels == ()


def test_predecessors_one_step_on_spiral():
    ch = spiral_chain()
    target = [spiral_state_id(2, 2)]
    got = predecessors(ch, target, 1)
    expect = {spiral_state_id(2, 1), spiral_state_id(1, 2), spiral_state_id(2, 3)}
    assert set(np.asarray(got).tolist()) == expect


def test_predecessors_excludes_target_states():
    ch = build_fig2("B")
    got = set(np.asarray(predecessors(ch, [3, 4], 1)).tolist())
    assert got == {1, 2}


@pytest.mark.parametrize("state", [-1, 3, 5])
def test_predecessors_rejects_out_of_range_target(state):
    ch = MarkovChain.from_rows([[(1, 1.0)], [(2, 1.0)], [(2, 1.0)]])
    with pytest.raises(ModelError, match=f"^state {state} out of range$"):
        predecessors(ch, [state], 1)


# ---------------------------------------------------------------------------
# randomized properties


def scalar_reach(chain, x):
    """reachable_set by a pure-Python breadth-first search over successors()."""
    seen = frontier = {x}
    while frontier:
        frontier = {y for s in frontier for y, _ in successors(chain, s)} - seen
        seen |= frontier
    return seen


def scalar_predecessors(chain, target, steps):
    """predecessors by a pure-Python breadth-first search back over successors()."""
    succ = [{y for y, _ in successors(chain, x)} for x in range(chain.state_count)]
    seen = frontier = set(target)
    for _ in range(steps):
        frontier = {x for x, ys in enumerate(succ) if x not in seen and ys & frontier}
        seen = seen | frontier
    return seen - set(target)


@st.composite
def chains_and_targets(draw):
    """A random chain, self-loops included, and a target that may repeat states."""
    n = draw(st.integers(1, 12))
    rows = []
    for x in range(n):
        succs = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
        if draw(st.booleans()) and x not in succs:
            succs.append(x)
        rows.append([(s, 1.0 / len(succs)) for s in sorted(succs)])
    target = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return MarkovChain.from_rows(rows), target


@settings(max_examples=200, deadline=None)
@given(chains_and_targets())
def test_walks_match_a_scalar_breadth_first_search(case):
    chain, target = case
    for k in range(1, 6):
        assert predecessors(chain, target, k) == scalar_predecessors(chain, target, k)
    # Any step count is accepted, however large.
    everything = scalar_predecessors(chain, target, chain.state_count)
    assert predecessors(chain, target, 2**70) == everything
    for x in range(chain.state_count):
        assert reachable_set(chain, x) == scalar_reach(chain, x)


@st.composite
def random_chains(draw):
    # Also draw chains whose reach sets do not fit in one 64-bit word.
    n = draw(st.one_of(st.integers(1, 7), st.integers(65, 150)))
    rows = []
    for _ in range(n):
        succs = draw(
            st.lists(
                st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True
            )
        )
        share = 1.0 / len(succs)
        rows.append([(s, share) for s in succs])
    return MarkovChain.from_rows(rows)


@st.composite
def reductive_chains(draw):
    n_transient = draw(st.integers(min_value=0, max_value=6))
    class_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
    )
    n = n_transient + sum(class_sizes)
    rows = [None] * n
    base = n_transient
    for size in class_sizes:
        members = list(range(base, base + size))
        for i, s in enumerate(members):
            rows[s] = [(members[(i + 1) % size], 1.0)]
        base += size
    for x in range(n_transient):
        succs = draw(
            st.lists(
                st.integers(x + 1, n - 1),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        loop = draw(st.sampled_from([0.0, 0.3, 0.6]))
        share = (1.0 - loop) / len(succs)
        row = [(s, share) for s in succs]
        if loop:
            row.append((x, loop))
        rows[x] = row
    labels = draw(st.permutations(range(n)))
    out = [None] * n
    for x in range(n):
        out[labels[x]] = [(labels[s], p) for s, p in rows[x]]
    return MarkovChain.from_rows(out)


@settings(max_examples=60, deadline=None)
@given(random_chains())
def test_potential_counts_reachable_states(chain):
    pt = counting_potential(chain)
    for x in range(chain.state_count):
        assert pt.phi[x] == len(reachable_set(chain, x))


@st.composite
def chains_with_transient_cycles(draw):
    # Cycles of 1-4 states; cycle i leads only into later cycles, so the
    # early cycles are transient strongly-connected components.
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=30))
    starts = np.cumsum([0] + sizes).tolist()
    edges = []
    for i, size in enumerate(sizes):
        members = range(starts[i], starts[i] + size)
        edges += [(x, starts[i] + (x - starts[i] + 1) % size) for x in members]
        if i + 1 < len(sizes):
            for x in members:
                targets = draw(
                    st.lists(
                        st.integers(starts[i + 1], starts[-1] - 1),
                        max_size=2,
                        unique=True,
                    )
                )
                edges += [(x, t) for t in targets]
    n = starts[-1]
    labels = draw(st.permutations(range(n)))
    return edge_chain(n, [(labels[x], labels[t]) for x, t in edges])


@settings(max_examples=60, deadline=None)
@given(chains_with_transient_cycles())
def test_potential_counts_reachable_states_through_cycles(chain):
    assert_potential_counts_reach(chain)


@settings(max_examples=60, deadline=None)
@given(random_chains())
def test_decomposition_properties(chain):
    d = absorbing_decomposition(chain)
    ids = np.concatenate([d.transient, d.absorbing])
    assert sorted(ids.tolist()) == list(range(chain.state_count))
    assert sorted(np.concatenate(d.classes).tolist()) == sorted(
        d.absorbing.tolist()
    ) if d.classes else d.absorbing.size == 0
    for block in d.classes:
        members = set(block.tolist())
        for s in block:
            # closed: every successor stays inside the class
            cols, _ = chain.row(int(s))
            assert set(cols.tolist()) <= members
            # indecomposable: the whole class is mutually reachable
            assert members <= reachable_set(chain, int(s))


@settings(max_examples=60, deadline=None)
@given(random_chains())
def test_verdict_and_canonical_agree(chain):
    verdict = verify_reductive(chain)
    d = absorbing_decomposition(chain)
    pt = counting_potential(chain)
    if verdict.reductive:
        assert verdict.violations == ()
        perm = canonical_permutation(chain, d, pt)
        assert_canonical_form(chain, perm.order, d.transient.size)
    else:
        assert len(verdict.violations) > 0
        with pytest.raises(NotReductive):
            canonical_permutation(chain, d, pt)
        for v in verdict.violations:
            cols, _ = chain.row(v.x)
            assert v.xp in cols.tolist()


@settings(max_examples=60, deadline=None)
@given(reductive_chains())
def test_generated_reductive_chains_accepted(chain):
    verdict = verify_reductive(chain)
    assert verdict.reductive
    pt = counting_potential(chain)
    d = absorbing_decomposition(chain)
    loops = self_loop_states(chain)
    transient = set(d.transient.tolist())
    for x in range(chain.state_count):
        if x not in transient:
            continue
        cols, _ = chain.row(x)
        for xp in cols.tolist():
            if xp == x:
                assert x in loops or chain.self_loop_prob(x) == 1.0
            else:
                assert pt.phi[xp] < pt.phi[x]
    sched = level_set_schedule(pt, d)
    assert sum(lv.size for lv in sched.levels) == d.transient.size


# ---------------------------------------------------------------------------
# an Mdp's support against its union chain


@st.composite
def random_mdps(draw):
    """Small MDPs with 1-3 actions per state and successors that repeat
    across actions; some actions stay put with p = 1.0 beside a 1e-13 exit.
    Forward models only move to the same or a higher id, so most of them
    are reductive."""
    n = draw(st.one_of(st.integers(1, 7), st.integers(65, 90)))
    forward = draw(st.booleans())
    mask, transitions = [], []
    for x in range(n):
        acts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        mask.append(sorted(acts))
        for u in acts:
            lo = x if forward else 0
            succs = draw(
                st.lists(
                    st.integers(lo, n - 1), min_size=1, max_size=min(3, n - lo),
                    unique=True,
                )
            )
            if draw(st.integers(0, 4)) == 0:
                row = [(x, 1.0)] + [(s, 1e-13) for s in succs if s != x]
            else:
                row = [(s, 1.0 / len(succs)) for s in succs]
            transitions += [
                {"x": x, "u": u, "xp": s, "p": p, "r": 0.0} for s, p in row
            ]
    spec = {"states": n, "actions": 3, "discount": 0.9, "mask": mask,
            "transitions": transitions}
    return build_mdp(spec)


def self_loops_by_action(mdp):
    """Per state, p(x, x) of each admissible action (0.0 without a loop)."""
    out = []
    for x in range(mdp.state_count):
        probs = []
        for u in mdp.mask(x):
            cols, ps, _ = mdp.row(x, int(u))
            probs.append(float(ps[cols == x].sum()))
        out.append(probs)
    return out


def component_of(cond):
    """Each state's component, named by its smallest member."""
    return cond.members[cond.member_ptr[:-1]][cond.labels]


def component_edges(cond):
    first = cond.members[cond.member_ptr[:-1]]
    owner = np.repeat(np.arange(first.size), np.diff(cond.succ_ptr))
    return sorted(zip(first[owner].tolist(), first[cond.succ].tolist()))


def heights_by_argsort(cond):
    """Kahn heights as computed before the linear-time _heights: the
    predecessor lists come from a stable argsort of every edge."""
    out_degree = np.diff(cond.succ_ptr)
    n_comp = out_degree.size
    owner = np.repeat(np.arange(n_comp, dtype=np.int64), out_degree)
    pred = owner[np.argsort(cond.succ, kind="stable")]
    pred_len = np.bincount(cond.succ, minlength=n_comp)
    pred_ptr = np.cumsum(pred_len) - pred_len
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
        rank = np.arange(ready.size)
        stamp[ready] = rank
        frontier = ready[stamp[ready] == rank]
        h += 1
    return height


@settings(max_examples=150, deadline=None)
@given(random_mdps())
def test_support_structure_matches_union_chain(mdp):
    support, union = mdp.support(), mdp.union_chain()
    cs, cu = _condensation(support), _condensation(union)
    assert component_of(cs).tolist() == component_of(cu).tolist()
    assert component_edges(cs) == component_edges(cu)

    ds, du = absorbing_decomposition(support), absorbing_decomposition(union)
    assert ds.transient.tolist() == du.transient.tolist()
    assert ds.absorbing.tolist() == du.absorbing.tolist()
    assert [g.tolist() for g in ds.classes] == [g.tolist() for g in du.classes]
    ps, pu = counting_potential(support), counting_potential(union)
    assert ps.phi.tolist() == pu.phi.tolist()

    verdict = verify_reductive(support)
    assert verdict == verify_reductive(union)
    assert verify_reductive_mdp(mdp) == verify_reductive_mdp(mdp, union)
    if verdict.reductive:
        order = canonical_permutation(support, ds, ps).order
        assert order.tolist() == canonical_permutation(union, du, pu).order.tolist()
    else:
        for chain, d, pt in ((support, ds, ps), (union, du, pu)):
            with pytest.raises(NotReductive):
                canonical_permutation(chain, d, pt)

    # The self-loop rules, by their definitions over the actions.
    loops = self_loops_by_action(mdp)
    certain = {x for x, ps_ in enumerate(loops) if all(p >= 1.0 for p in ps_)}
    fractional = {
        x for x, ps_ in enumerate(loops) if any(ps_) and x not in certain
    }
    assert set(np.flatnonzero(support.certain_self_loops()).tolist()) == certain
    assert set(np.flatnonzero(mdp.certain_self_loops()).tolist()) == certain
    assert self_loop_states(support) == fractional
    assert ps.self_loops == frozenset(fractional)
    flagged = {
        v.x for v in verdict.violations if v.kind == CERTAIN_SELF_LOOP_MARKED_TRANSIENT
    }
    assert flagged == certain & set(ds.transient.tolist())


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_chains(), chains_with_transient_cycles()))
def test_linear_heights_match_argsort_heights(chain):
    cond = _condensation(chain)
    expected = heights_by_argsort(cond)
    assert _heights(cond).tolist() == expected.tolist()


@settings(max_examples=60, deadline=None)
@given(random_mdps())
def test_linear_heights_match_argsort_heights_on_supports(mdp):
    cond = _condensation(mdp.support())
    expected = heights_by_argsort(cond)
    assert _heights(cond).tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# the condensation against scipy's strong components and a brute-force closure


@st.composite
def block_graphs(draw):
    """Successor sets of graphs built from blocks, ids shuffled.

    Closed blocks: a lone state (with or without a self-loop, often with
    no predecessor) or a ring of 2-5 states with chords, and in a third
    of the graphs a two-way path of 101-120 states (diameter 100 or
    more).  Transient blocks: a ring of 2-5 states with chords, or a lone
    state.  Each transient block leads into earlier blocks, so every
    state reaches a closed class; some states carry a self-loop.
    """
    closed = draw(st.lists(st.sampled_from(["lone", "ring"]), min_size=1, max_size=3))
    if draw(st.integers(0, 2)) == 0:
        closed.append("path")
    transient = draw(st.lists(st.sampled_from(["lone", "ring"]), max_size=12))
    kinds = closed + transient
    sizes = [
        1 if kind == "lone" else
        draw(st.integers(2, 5)) if kind == "ring" else
        draw(st.integers(101, 120))
        for kind in kinds
    ]
    starts = np.cumsum([0] + sizes).tolist()
    n = starts[-1]
    succ = [set() for _ in range(n)]
    for i, kind in enumerate(kinds):
        members = list(range(starts[i], starts[i + 1]))
        if kind == "path":
            for x in members[:-1]:
                succ[x].add(x + 1)
                succ[x + 1].add(x)
        elif kind == "ring":
            for j, x in enumerate(members):
                succ[x].add(members[(j + 1) % len(members)])
            for _ in range(draw(st.integers(0, len(members)))):
                succ[draw(st.sampled_from(members))].add(draw(st.sampled_from(members)))
        if i >= len(closed):
            for _ in range(draw(st.integers(1, 3))):
                x = draw(st.sampled_from(members))
                succ[x].add(draw(st.integers(0, starts[i] - 1)))
    for x in draw(st.lists(st.integers(0, n - 1), max_size=5)):
        succ[x].add(x)
    labels = draw(st.permutations(range(n)))
    out = [set() for _ in range(n)]
    for x in range(n):
        out[labels[x]] = {labels[s] for s in succ[x]}
    return out


def closure_structure(succ):
    """Components, heights and reach sets by brute force.

    Returns each state's smallest fellow member, the sorted members and
    the sorted successor components (by smallest member) of each
    component, each component's height, and each state's reach set.
    """
    n = len(succ)
    rows = {(x, 0): [(s, 1.0, 0.0) for s in succ[x]] for x in range(n)}
    reach = union_reach(n, rows)[1]
    first = [min(y for y in reach[x] if x in reach[y]) for x in range(n)]
    groups = {}
    for x in range(n):
        groups.setdefault(first[x], []).append(x)
    out = {
        c: sorted({first[s] for x in g for s in succ[x]} - {c})
        for c, g in groups.items()
    }
    height = {}
    for c in sorted(groups, key=lambda c: len(reach[c])):
        height[c] = max((height[d] + 1 for d in out[c]), default=0)
    return first, groups, out, height, reach


def assert_condensation_matches_closure(model, succ):
    first, groups, out, height, reach = closure_structure(succ)
    n = len(succ)
    cond = _condensation(model)
    rep = cond.members[cond.member_ptr[:-1]]
    # Components are numbered by their smallest member.
    assert rep.tolist() == sorted(groups)
    assert component_of(cond).tolist() == first
    for c, r in enumerate(rep.tolist()):
        members = cond.members[cond.member_ptr[c] : cond.member_ptr[c + 1]]
        assert members.tolist() == groups[r]
        targets = cond.succ[cond.succ_ptr[c] : cond.succ_ptr[c + 1]]
        assert rep[targets].tolist() == out[r]
        assert bool(cond.is_open[c]) == bool(out[r])
    # Every edge runs from an earlier frontier to a later one.
    assert sorted(cond.frontiers.tolist()) == list(range(rep.size))
    place = np.empty(rep.size, dtype=np.int64)
    place[cond.frontiers] = np.repeat(
        np.arange(cond.frontier_ptr.size - 1), np.diff(cond.frontier_ptr)
    )
    owner = np.repeat(np.arange(rep.size), np.diff(cond.succ_ptr))
    assert np.all(place[owner] < place[cond.succ])
    assert _heights(cond)[cond.labels].tolist() == [height[first[x]] for x in range(n)]
    assert counting_potential(model).phi.tolist() == [len(r) for r in reach]

    d = absorbing_decomposition(model)
    closed = [x for x in range(n) if not out[first[x]]]
    assert d.absorbing.tolist() == closed
    assert d.transient.tolist() == sorted(set(range(n)) - set(closed))
    assert [g.tolist() for g in d.classes] == [
        groups[c] for c in sorted(groups) if not out[c]
    ]


def scipy_components(succ):
    """Each state's smallest fellow member, from scipy's strong components."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    n = len(succ)
    # scipy gets distinct successors: it has been seen never to return on
    # some rows that repeat one.
    cols = [sorted(s) for s in succ]
    row_ptr = np.cumsum([0] + [len(c) for c in cols])
    col = np.array([s for c in cols for s in c], dtype=np.int64)
    mat = sparse.csr_matrix((np.ones(col.size), col, row_ptr), shape=(n, n))
    labels = csgraph.connected_components(mat, directed=True, connection="strong")[1]
    smallest = {}
    for x in range(n):
        smallest.setdefault(labels[x], x)
    return [smallest[labels[x]] for x in range(n)]


@settings(max_examples=100, deadline=None)
@given(block_graphs())
def test_condensation_matches_scipy_and_closure(succ):
    n = len(succ)
    chain = edge_chain(n, [(x, s) for x in range(n) for s in succ[x]])
    assert_condensation_matches_closure(chain, succ)
    # edge_chain gives a state with no listed successor a certain self-loop.
    succ = [s or {x} for x, s in enumerate(succ)]
    assert component_of(_condensation(chain)).tolist() == scipy_components(succ)

    spec = {
        "states": n, "actions": 1, "discount": 0.9, "mask": [[0]] * n,
        "transitions": [
            {"x": x, "u": 0, "xp": s, "p": 1.0 / len(succ[x]), "r": 0.0}
            for x in range(n) for s in sorted(succ[x])
        ],
    }
    mdp = build_mdp(spec)
    assert_condensation_matches_closure(mdp.support(), succ)
    expected = brute_force_violations(spec)
    assert verify_reductive_mdp(mdp).violations == expected
    assert verify_reductive(chain).violations == expected


def test_condensation_of_a_long_chain_of_transient_cycles():
    """2,000 transient 2-cycles in a chain, ids falling then rising along it.

    No state of a cycle lacks an in-edge or an out-edge within its
    cycle, and a split that finds one cycle from each end of the chain
    per round would take a round per cycle.  The structure must come in
    time linear in the chain's length.
    """
    k = 2000
    ranks = list(range(k - 1, -1, -2)) + list(range(k % 2, k, 2))
    succ = [set() for _ in range(2 * k + 1)]
    for j, r in enumerate(ranks):
        succ[2 * r].add(2 * r + 1)
        succ[2 * r + 1].add(2 * r)
        succ[2 * r + 1].add(2 * ranks[j + 1] if j + 1 < k else 2 * k)
    succ[2 * k].add(2 * k)
    n = len(succ)
    chain = edge_chain(n, [(x, s) for x in range(n) for s in succ[x]])
    start = time.perf_counter()
    cond = _condensation(chain)
    height = _heights(cond)
    assert time.perf_counter() - start < 2.0
    assert component_of(cond).tolist() == scipy_components(succ)
    first = 2 * np.array(ranks)
    assert height[cond.labels[first]].tolist() == list(range(k, 0, -1))
    assert not cond.is_open[cond.labels[2 * k]]


@settings(max_examples=50, deadline=None)
@given(block_graphs(), st.data())
def test_condensation_of_rows_that_repeat_a_successor(succ, data):
    """A row may list a successor twice; the structure stays the same."""
    n = len(succ)
    succ = [s or {x} for x, s in enumerate(succ)]
    rows = []
    for x in range(n):
        row = sorted(succ[x])
        twice = data.draw(st.lists(st.sampled_from(row), max_size=2))
        rows.append(sorted(row + twice))
    row_ptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    col = np.array([s for r in rows for s in r], dtype=np.int64)
    support = Support(n, row_ptr, col, np.zeros(n, dtype=bool))
    assert_condensation_matches_closure(support, succ)


# ---------------------------------------------------------------------------
# verify_reductive_mdp against a brute-force check of the union support


@st.composite
def oracle_specs(draw):
    """Model specs with 2-7 states, 1-3 actions and 1-3 successors per pair.

    Successors mostly lie at the same or a higher id; one pair in five
    may also move back, which closes cycles inside closed classes and
    across transient states.  One action in six stays put for certain,
    beside up to two 1e-13 exits when the discount is below 1, and other
    rows often hold a fractional self-loop.  The discount is 0.5 or 0.9,
    or 1.0 with zero rewards on the closed classes.
    """
    n = draw(st.integers(2, 7))
    discount = draw(st.sampled_from([0.5, 0.9, 1.0]))
    mask, rows = [], {}
    for x in range(n):
        acts = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        mask.append(sorted(acts))
        for u in acts:
            if draw(st.integers(0, 5)) == 0:
                exits = []
                if discount < 1.0:
                    exits = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
                row = [(x, 1.0)] + [(s, 1e-13) for s in exits if s != x]
            else:
                lo = 0 if draw(st.integers(0, 4)) == 0 else x
                succs = draw(
                    st.lists(
                        st.integers(lo, n - 1), min_size=1, max_size=min(3, n - lo),
                        unique=True,
                    )
                )
                row = [(s, 1.0 / len(succs)) for s in succs]
            rows[x, u] = [
                [s, p, draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0]))] for s, p in row
            ]
    if discount == 1.0:
        closed = closed_states(union_reach(n, rows)[1])
        for (x, _), row in rows.items():
            if x in closed:
                for entry in row:
                    entry[2] = 0.0
    transitions = [
        {"x": x, "u": u, "xp": s, "p": p, "r": r}
        for (x, u), row in sorted(rows.items())
        for s, p, r in row
    ]
    return {"states": n, "actions": 3, "discount": discount, "mask": mask,
            "transitions": transitions}


def union_reach(n, rows):
    """Each state's successors over all actions and its reachable set."""
    succ = [set() for _ in range(n)]
    for (x, _), row in rows.items():
        succ[x].update(s for s, _, _ in row)
    reach = []
    for x in range(n):
        seen, stack = {x}, [x]
        while stack:
            for s in succ[stack.pop()]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        reach.append(seen)
    return succ, reach


def closed_states(reach):
    """States that every state they reach can reach back."""
    return {x for x, seen in enumerate(reach) if all(x in reach[y] for y in seen)}


def brute_force_violations(spec):
    """The union-support verdict by its definition, sorted like the package's."""
    n = spec["states"]
    rows = {}
    for t in spec["transitions"]:
        rows.setdefault((t["x"], t["u"]), []).append((t["xp"], t["p"], t["r"]))
    succ, reach = union_reach(n, rows)
    closed = closed_states(reach)
    out = []
    for x in sorted(set(range(n)) - closed):
        out += [
            Violation(x, s, NON_DECREASING_TRANSIENT)
            for s in sorted(succ[x])
            if s != x and x in reach[s]
        ]
        stays = [
            sum(p for s, p, _ in rows[x, u] if s == x) >= 1.0 for u in spec["mask"][x]
        ]
        if all(stays):
            out.append(Violation(x, x, CERTAIN_SELF_LOOP_MARKED_TRANSIENT))
    return tuple(sorted(out, key=lambda v: (v.kind, v.x, v.xp)))


@settings(max_examples=300, deadline=None)
@given(oracle_specs())
def test_verify_mdp_matches_brute_force_union_check(spec):
    mdp = build_mdp(spec)
    expected = brute_force_violations(spec)
    verdict = verify_reductive_mdp(mdp)
    assert verdict.violations == expected
    assert verdict.reductive == (not expected)
    if verdict.reductive:
        assert_rvi_matches_qvi(mdp)


# ---------------------------------------------------------------------------
# blocked passes against one gather


@settings(max_examples=60, deadline=None)
@given(random_mdps())
def test_self_loop_states_computes_no_condensation(mdp):
    fresh = mdp.support()
    loops = self_loop_states(fresh)
    assert fresh._condensation is None
    cached = mdp.support()
    _condensation(cached)
    assert loops == self_loop_states(cached)


# Block budgets, in entries, that cut rows and frontiers across blocks.
SMALL_BUDGETS = (1, 2, 3, 17)


def structure(model):
    """Every array a structure query on model derives, by name."""
    cond = _condensation(model)
    return {
        "labels": cond.labels,
        "succ_ptr": cond.succ_ptr,
        "succ": cond.succ,
        "frontiers": cond.frontiers,
        "frontier_ptr": cond.frontier_ptr,
        "has_loop": cond.has_loop,
        "height": _heights(cond),
        "phi": counting_potential(model).phi,
    }


def mdp_structure(mdp):
    """structure() of mdp's support, the support's and the union chain's
    arrays, and rvi_solve's values and policy on the height schedule when
    mdp is reductive."""
    support = mdp.support()
    out = structure(support)
    out.update(row_ptr=support.row_ptr, col=support.col)
    union = mdp.union_chain()
    out.update(
        union_row_ptr=union.row_ptr, union_col=union.col, union_prob=union.prob
    )
    out["loops"] = np.array(sorted(self_loop_states(mdp.support())))
    if verify_reductive_mdp(mdp, support).reductive:
        decomp = absorbing_decomposition(support)
        res = rvi_solve(mdp, height_schedule(support, decomp), decomp)
        out.update(v=res.values.v, q=res.values.q, policy=res.policy.choice)
    return out


def assert_blocks_match_one_gather(derive, budgets):
    """derive() gives the same arrays, bit for bit, under every block budget
    as with one block for everything."""
    with mock.patch.object(mdp_module, "_BLOCK_ENTRIES", 1 << 62):
        expected = derive()
    for budget in budgets:
        with mock.patch.object(mdp_module, "_BLOCK_ENTRIES", budget):
            got = derive()
        assert got.keys() == expected.keys()
        for name, arr in expected.items():
            assert got[name].dtype == arr.dtype, (name, budget)
            assert got[name].tobytes() == arr.tobytes(), (name, budget)


@settings(max_examples=60, deadline=None)
@given(random_mdps())
def test_blocked_structure_matches_one_gather_on_mdps(mdp):
    assert_blocks_match_one_gather(lambda: mdp_structure(mdp), SMALL_BUDGETS)


@settings(max_examples=60, deadline=None)
@given(block_graphs())
def test_blocked_structure_matches_one_gather_on_graphs(succ):
    n = len(succ)
    edges = [(x, s) for x in range(n) for s in succ[x]]
    assert_blocks_match_one_gather(
        lambda: structure(edge_chain(n, edges)), SMALL_BUDGETS
    )


def test_blocked_structure_matches_one_gather_on_liquidation():
    # q_max=10: 2,211 states and 33,656 entries, one block at the default
    # budget; a state has up to 30 entries, so a budget of 16 cuts some
    # rows into blocks of their own.
    mdp, schedule, decomp = build_liquidation(LiquidationParams(q_max=10))

    def derive():
        out = mdp_structure(mdp)
        res = rvi_solve(mdp, schedule, decomp)
        out.update(domain_v=res.values.v, domain_policy=res.policy.choice)
        return out

    assert_blocks_match_one_gather(derive, (16, 1000))
