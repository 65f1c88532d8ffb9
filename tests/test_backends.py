"""The numpy kernels against serial references.

gs_sweep must match a one-state-at-a-time Gauss-Seidel loop bit for bit,
over one level plan per solve: a fixed order's plan, levelled by its own
waves and reused for every sweep, and a plan for sweeps in changing
orders, levelled by component height and re-indexed per sweep.  Every
plan gives each swept state one slot and lets a state read the new value
only of states in earlier steps.  bellman_residual_pass must match the
largest change of one-state backups of an unchanged value table, and
bvi_run a queue that looks at one predecessor at a time.  The checks run
on random small MDPs and on a liquidation instance.  The
references pick a state's best pair with np.argmax, so a NaN counts as
the largest, and a NaN change is the largest change.
"""

import contextlib
import inspect
import io
import re
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmdp
import rmdp.cli
from rmdp import (
    DivergentSelfLoop,
    InvalidParams,
    LevelSetSchedule,
    LiquidationParams,
    MaxSweepsExceeded,
    Mdp,
    SolverConfig,
    backends,
    build_liquidation,
    solvers,
)
from rmdp.backends import bellman_residual_pass, bvi_run, gs_sweep, rvi_pass
from rmdp.mdp import gather_ranges
from rmdp.reachability import _predecessor_lists

# The benchmark package sits at the root of the checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import tracer  # noqa: E402


def test_active_backend_is_a_registered_implementation():
    assert rmdp.active_backend() == "numpy"


def test_tracer_counts_kernel_entries_from_leading_arguments():
    """perfbench's tracer reads the kernels' leading positional arguments:
    rvi_pass's level_states, state_ptr and pair_ptr, and gs_sweep's order,
    state_ptr and pair_ptr."""
    leading = {
        rvi_pass: ["level_ptr", "level_states", "state_ptr", "pair_action", "pair_ptr"],
        gs_sweep: ["order", "state_ptr", "pair_action", "pair_ptr"],
    }
    for kernel, names in leading.items():
        assert list(inspect.signature(kernel).parameters)[: len(names)] == names
    tr = tracer.Tracer()
    argv = ["solve", "--domain", "liquidation", "--q-max", "20"]
    with tracer.installed(tr, rmdp), contextlib.redirect_stdout(io.StringIO()):
        assert rmdp.cli.main(argv) == 0
    mdp, _, decomp = build_liquidation(LiquidationParams(q_max=20))
    first = mdp.pair_ptr[mdp.state_ptr[decomp.transient]]
    last = mdp.pair_ptr[mdp.state_ptr[decomp.transient + 1]]
    assert tr.counts["backends.rvi_pass.entries"] == int(np.sum(last - first)) > 0


def test_tracer_counts_every_random_sweep_over_the_whole_model():
    """A random-order solve calls gs_sweep once per sweep, each time with
    a full order, so the tracer counts every entry of the model per sweep."""
    tr = tracer.Tracer()
    out = io.StringIO()
    argv = ["bench", "--q-max", "10", "--solvers", "rvi,qvi-random"]
    with tracer.installed(tr, rmdp), contextlib.redirect_stdout(out):
        assert rmdp.cli.main(argv) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    sweeps = sum(int(row[4]) for row in rows if row[0] == "qvi-random")
    mdp, _, _ = build_liquidation(LiquidationParams(q_max=10))
    assert tr.counts["backends.gs_sweep.calls"] == sweeps > 1
    assert tr.counts["backends.gs_sweep.entries"] == sweeps * mdp.col.size


# ---------------------------------------------------------------------------
# batched Gauss-Seidel and the residual against serial loops


def serial_backup(x, state_ptr, pair_ptr, col, prob, rew, gamma, v):
    """Reference: the q values of state x and the first best pair among them."""
    a, b = state_ptr[x], state_ptr[x + 1]
    lo, hi = pair_ptr[a], pair_ptr[b]
    with np.errstate(over="ignore", invalid="ignore"):
        vals = prob[lo:hi] * (rew[lo:hi] + gamma * v[col[lo:hi]])
        qvals = np.add.reduceat(vals, pair_ptr[a:b] - lo)
    return qvals, int(np.argmax(qvals))


def stay_forever(x, state_ptr, pair_ptr, col, prob, rew, gamma, qvals):
    """Give state x's pairs with gamma * p(x|x,u) >= 1 their fixed values.

    Such a pair is worth 0 without reward and -inf at a cost; a gain
    raises DivergentSelfLoop.  Returns the first best pair after that.
    """
    for i in range(qvals.size):
        lo, hi = pair_ptr[state_ptr[x] + i], pair_ptr[state_ptr[x] + i + 1]
        alpha = np.add.reduce(np.where(col[lo:hi] == x, prob[lo:hi], 0.0))
        if 1.0 - gamma * alpha <= 0.0:
            rbar = np.add.reduce(prob[lo:hi] * rew[lo:hi])
            if rbar > 0.0:
                raise DivergentSelfLoop(f"state {x} has gamma * p(x|x,u) = 1")
            qvals[i] = -np.inf if rbar < 0.0 else 0.0
    return int(np.argmax(qvals))


def serial_gs_sweep(
    order, state_ptr, pair_action, pair_ptr, col, prob, rew, gamma, v, q, pol
):
    """Reference: back up one state at a time in order; returns max delta."""
    deltas = [0.0]
    for x in order:
        qvals, _ = serial_backup(x, state_ptr, pair_ptr, col, prob, rew, gamma, v)
        best = stay_forever(x, state_ptr, pair_ptr, col, prob, rew, gamma, qvals)
        a = state_ptr[x]
        q[a : a + qvals.size] = qvals
        with np.errstate(over="ignore", invalid="ignore"):
            deltas.append(abs(qvals[best] - v[x]))
        v[x] = qvals[best]
        pol[x] = pair_action[a + best]
    return np.max(deltas)


def serial_residual(state_ptr, pair_ptr, col, prob, rew, gamma, v):
    """Reference: largest |best - v[x]| over one-state backups of an unchanged v."""
    res = [0.0]
    for x in range(state_ptr.size - 1):
        qvals, best = serial_backup(x, state_ptr, pair_ptr, col, prob, rew, gamma, v)
        with np.errstate(over="ignore", invalid="ignore"):
            res.append(abs(qvals[best] - v[x]))
    return np.max(res)


def same_bits(a, b):
    """a equals b bit for bit, except that a NaN matches any NaN payload."""
    a, b = np.asarray(a), np.asarray(b)
    keep = ~(np.isnan(a) & np.isnan(b))
    return a.shape == b.shape and a[keep].tobytes() == b[keep].tobytes()


def mdp_from_rows(rows, discount):
    """Mdp from rows[x] = list of (successors, rewards) per action, each
    action spreading its mass evenly over its sorted distinct successors."""
    state_ptr, pair_ptr = [0], [0]
    pair_action, col, prob, rew = [], [], [], []
    for actions in rows:
        for u, (succs, rews) in enumerate(actions):
            pair_action.append(u)
            col.extend(succs)
            prob.extend([1.0 / len(succs)] * len(succs))
            rew.extend(rews)
            pair_ptr.append(len(col))
        state_ptr.append(len(pair_action))
    n_actions = max(len(a) for a in rows)
    return Mdp(
        len(rows), n_actions, discount, state_ptr, pair_action, pair_ptr, col, prob, rew
    )


BIG = 1e308
# Reward and start-value choices.  Huge ones overflow, so a backup can
# add +inf to -inf.
SCALES = {
    "zero": ([0.0, -0.0], [0.0, -0.0, 1.0, -2.0, 0.25]),
    "small": ([0.0, -0.0, 1.0, -1.0, 0.5], [0.0, -0.0, 1.0, -2.0, 0.25]),
    "huge": ([BIG, -BIG, 1.0], [BIG, -BIG, 0.0]),
}


@st.composite
def sweep_cases(draw):
    """A small MDP (self-loops, several actions, ties, signed zeros, rewards
    and start values of +-1e308 whose backups overflow to +-inf and NaN),
    a sweep order over all or some of its states, and a start value table."""
    n = draw(st.integers(min_value=1, max_value=8))
    rewards, values = SCALES[draw(st.sampled_from(sorted(SCALES)))]
    reward = st.sampled_from(rewards)
    rows = []
    for _ in range(n):
        actions = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            succs = sorted(
                draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n)))
            )
            actions.append((succs, [draw(reward) for _ in succs]))
        rows.append(actions)
    mdp = mdp_from_rows(rows, draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])))
    kind = draw(st.sampled_from(["natural", "random", "subset"]))
    if kind == "natural":
        order = list(range(n))
    else:
        order = draw(st.permutations(range(n)))
        if kind == "subset":
            order = order[: draw(st.integers(min_value=0, max_value=n))]
    v0 = [draw(st.sampled_from(values)) for _ in range(n)]
    return mdp, np.asarray(order, dtype=np.int64), np.asarray(v0, dtype=np.float64)


def assert_plan_levels_order(mdp, order, plan, steps, fixed):
    """The plan as a sweep over order steps through it.

    Each state of order has exactly one slot, holding all its pairs and
    their entries.  An entry reads the new copy of its successor exactly
    when the successor is placed before the entry's state in order, and
    that successor sits in an earlier step.  For a fixed order, every
    state in step k > 0 reads the new copy of a state in step k - 1.
    """
    n = mdp.state_count
    dest = plan.dest.tolist()
    assert sorted(dest) == sorted(order.tolist())
    assert steps[0].tolist() == [0, 0, 0]
    assert steps[-1].tolist() == [order.size, plan.pairs.size, plan.reads.size]
    assert np.all(np.diff(steps[:, 0]) > 0)
    place = {x: i for i, x in enumerate(order.tolist())}
    step = np.repeat(np.arange(len(steps) - 1), np.diff(steps[:, 0]))
    step_of = dict(zip(dest, step.tolist()))
    # Walk the slots: their pairs, and the pairs' entries, follow each other.
    p = e = 0
    for i, x in enumerate(dest):
        k = step_of[x]
        _, pa, ea = steps[k]
        assert p == pa + plan.pair_in[i]
        pairs = plan.pairs[p : p + plan.p_lens[i]].tolist()
        assert pairs == list(range(mdp.state_ptr[x], mdp.state_ptr[x + 1]))
        entries = []
        for j, pair in enumerate(pairs):
            assert e + len(entries) == ea + plan.entry_in[p + j]
            entries += range(mdp.pair_ptr[pair], mdp.pair_ptr[pair + 1])
        p += len(pairs)
        span = slice(e, e + len(entries))
        e = span.stop
        assert plan.eprob[span].tobytes() == mdp.prob[entries].tobytes()
        assert plan.erew[span].tobytes() == mdp.rew[entries].tobytes()
        reads = plan.reads[span].tolist()
        assert all(0 <= r < 2 * n for r in reads)
        assert [r % n for r in reads] == mdp.col[entries].tolist()
        new = [r for r in reads if r < n]
        for r in reads:
            y = r % n
            assert (r < n) == (y in place and place[y] < place[x]), (x, y)
        assert all(step_of[y] < k for y in new), (x, new)
        if fixed and k:
            assert any(step_of[y] == k - 1 for y in new), (x, k)


# The parts of a plan that a sweep only reads.
PLAN_FIELDS = (
    "dest", "p_lens", "pair_in", "pairs", "entry_in", "reads", "eprob", "erew",
    "steps", "stay", "stay_q",
)


def assert_batched_matches_serial(mdp, order, v0, sweeps=3):
    """Sweep with one plan built up front for order, checking each sweep
    against the serial loop and the plan against its own copy after
    every sweep.  Returns the slots where the plan's steps start, the end
    included.

    Where the serial loop raises DivergentSelfLoop, building the plan
    must raise it too, naming the same state; returns None then.
    """
    model = (mdp.state_ptr, mdp.pair_action, mdp.pair_ptr, mdp.col, mdp.prob, mdp.rew)
    entries = (mdp.state_ptr, mdp.pair_ptr, mdp.col, mdp.prob, mdp.rew, mdp.discount)
    try:
        copies = (v0.copy(), np.zeros(mdp.pair_count), np.zeros(mdp.state_count))
        serial_gs_sweep(order, *model, mdp.discount, *copies)
    except DivergentSelfLoop as exc:
        with pytest.raises(DivergentSelfLoop, match=f"^{re.escape(str(exc))}$"):
            solvers._level_plan(mdp, order)
        return None
    plan = solvers._level_plan(mdp, order)
    assert_plan_levels_order(mdp, order, plan, plan.steps, fixed=True)
    frozen = [getattr(plan, name).copy() for name in PLAN_FIELDS]
    ref = [
        v0.copy(),
        np.zeros(mdp.pair_count),
        np.zeros(mdp.state_count, dtype=np.int64),
    ]
    out = [a.copy() for a in ref]
    prefix = (order, mdp.state_ptr, mdp.pair_action, mdp.pair_ptr)
    for _ in range(sweeps):
        r_ref = serial_residual(*entries, ref[0])
        r_out = bellman_residual_pass(*entries, out[0])
        assert same_bits(r_out, r_ref)
        d_ref = serial_gs_sweep(order, *model, mdp.discount, *ref)
        d_out = gs_sweep(*prefix, plan, mdp.discount, *out)
        assert same_bits(d_out, d_ref)
        for a, b in zip(out, ref):
            assert same_bits(a, b)
        for name, b in zip(PLAN_FIELDS, frozen):
            assert getattr(plan, name).tobytes() == b.tobytes()
        if not np.all(np.isfinite(ref[0])):
            # A costly stay-forever pair is worth -inf, and a value can
            # overflow.  The solvers stop at the first sweep that leaves a
            # value non-finite, and later sweeps would only compare NaN
            # deltas.
            break
    return plan.steps[:, 0]


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_batched_gs_sweep_matches_serial_loop(case):
    assert_batched_matches_serial(*case)


def chain_mdp(succ):
    """One action per state: state x moves to succ[x] with reward 1."""
    return mdp_from_rows([[([s], [1.0])] for s in succ], 0.9)


def test_batched_gs_sweep_edge_cases():
    mdp = chain_mdp([0, 1, 1])
    v0 = np.zeros(3)
    empty = np.empty(0, dtype=np.int64)
    assert assert_batched_matches_serial(mdp, empty, v0).tolist() == [0]
    assert assert_batched_matches_serial(mdp, np.array([1]), v0).tolist() == [0, 1]
    # each state reads the one before it: every wave is a single state
    down = chain_mdp([0, 0, 1, 2, 3])
    order = np.arange(5, dtype=np.int64)
    waves = assert_batched_matches_serial(down, order, np.zeros(5))
    assert waves.tolist() == [0, 1, 2, 3, 4, 5]
    # each state reads only later states or itself: one wave
    up = chain_mdp([1, 2, 3, 4, 4])
    assert assert_batched_matches_serial(up, order, np.zeros(5)).tolist() == [0, 5]


def test_batched_gs_sweep_takes_a_nan_as_the_best_q():
    """State 1's second action adds +inf to -inf.  Its NaN is the largest
    q, as in np.argmax, so the NaN is the value and not the first action's
    finite q."""
    rows = [[([0], [0.0])], [([0], [1.0]), ([2, 3], [BIG, -BIG])]]
    mdp = mdp_from_rows(rows + [[([0], [0.0])]] * 2, 0.9)
    order = np.arange(4, dtype=np.int64)
    v0 = np.array([0.0, 0.0, BIG, -BIG])
    assert assert_batched_matches_serial(mdp, order, v0).tolist() == [0, 1, 4]
    v, q, pol = v0.copy(), np.zeros(mdp.pair_count), np.zeros(4, dtype=np.int64)
    prefix = (order, mdp.state_ptr, mdp.pair_action, mdp.pair_ptr)
    plan = solvers._level_plan(mdp, order)
    delta = gs_sweep(*prefix, plan, mdp.discount, v, q, pol)
    assert np.isnan(delta) and np.isnan(v[1]) and pol[1] == 1


def test_batched_gs_sweep_matches_serial_loop_on_liquidation():
    """Multi-action states, self-loop-free transients and an absorbing slice."""
    mdp, _, _ = build_liquidation(
        LiquidationParams(q_max=4, z_min=100, z_max=108, z0=104)
    )
    order = np.random.default_rng(5).permutation(mdp.state_count).astype(np.int64)
    assert_batched_matches_serial(mdp, order, np.zeros(mdp.state_count), sweeps=4)


@settings(max_examples=100, deadline=None)
@given(sweep_cases(), st.data())
def test_subset_sweep_writes_only_its_states(case, data):
    """A sweep over part of the states leaves the values, q values and
    policy of every other state as they were."""
    mdp, order, v0 = case
    order = order[: data.draw(st.integers(0, order.size))]
    try:
        plan = solvers._level_plan(mdp, order)
    except DivergentSelfLoop:
        return
    v, q = v0.copy(), np.full(mdp.pair_count, 7.5)
    pol = np.full(mdp.state_count, -1, dtype=np.int64)
    rest = np.setdiff1d(np.arange(mdp.state_count), order)
    rest_pairs = gather_ranges(
        mdp.state_ptr[rest], mdp.state_ptr[rest + 1] - mdp.state_ptr[rest]
    )
    kept = (v[rest].tobytes(), q[rest_pairs].tobytes(), pol[rest].tobytes())
    prefix = (order, mdp.state_ptr, mdp.pair_action, mdp.pair_ptr)
    for _ in range(2):
        gs_sweep(*prefix, plan, mdp.discount, v, q, pol)
        assert (v[rest].tobytes(), q[rest_pairs].tobytes(), pol[rest].tobytes()) == kept


def test_fixed_order_divergence_is_raised_before_the_v0_check():
    """A fixed order's plan is built before qvi_solve reads v0, and raises
    DivergentSelfLoop for a pair that stays forever at a gain.  A random
    order's plan finds the pair only in its first sweep, after the v0
    length check."""
    mdp = mdp_from_rows([[([1], [1.0])], [([1], [1.0])]], 1.0)
    sched = LevelSetSchedule(levels=(np.array([0]),))
    short = np.zeros(1)
    for ordering in (solvers.NATURAL, solvers.REVERSED_LEVEL_SETS):
        cfg = SolverConfig(ordering=ordering)
        with pytest.raises(DivergentSelfLoop, match="^state 1 has"):
            solvers.qvi_solve(mdp, cfg, schedule=sched, v0=short)
    cfg = SolverConfig(ordering=solvers.RANDOM_PER_SWEEP)
    with pytest.raises(InvalidParams, match="v0 length"):
        solvers.qvi_solve(mdp, cfg, v0=short)
    with pytest.raises(DivergentSelfLoop, match="^state 1 has"):
        solvers.qvi_solve(mdp, cfg)


# ---------------------------------------------------------------------------
# level plans: one gather for sweeps in any order


@st.composite
def level_cases(draw):
    """An MDP of planted components, start values and sweep orders.

    The states are cut into blocks.  A block of two or more states is
    one component: its states' first actions step around it.  Every
    other successor lies in the state's own block or an earlier one, so a
    block with no successor in an earlier block is a closed class and any
    other block of two or more states a transient cycle.  A state whose
    only successor is itself stays there forever.  Each order is a
    permutation of all the states.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    rewards, values = SCALES[draw(st.sampled_from(sorted(SCALES)))]
    reward = st.sampled_from(rewards)
    rows = []
    for a, b in zip(bounds, bounds[1:]):
        for x in range(a, b):
            actions = []
            for u in range(draw(st.integers(min_value=1, max_value=3))):
                succs = draw(st.sets(st.integers(0, b - 1), max_size=3))
                if u == 0 and b - a > 1:
                    succs.add(a + (x - a + 1) % (b - a))
                succs = sorted(succs or {x})
                actions.append((succs, [draw(reward) for _ in succs]))
            rows.append(actions)
    mdp = mdp_from_rows(rows, draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])))
    orders = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    v0 = [draw(st.sampled_from(values)) for _ in range(n)]
    return mdp, [np.asarray(o, dtype=np.int64) for o in orders], np.asarray(v0)


def assert_level_sweeps_match_serial(mdp, orders, v0):
    """Sweep in each order over one level plan, checking every sweep
    against the serial loop.  Where the serial loop raises
    DivergentSelfLoop, the sweep raises it too, naming the same state."""
    plan = solvers._level_plan(mdp)
    model = (mdp.state_ptr, mdp.pair_action, mdp.pair_ptr, mdp.col, mdp.prob, mdp.rew)
    ref = [
        v0.copy(),
        np.zeros(mdp.pair_count),
        np.zeros(mdp.state_count, dtype=np.int64),
    ]
    out = [a.copy() for a in ref]
    for order in orders:
        prefix = (order, mdp.state_ptr, mdp.pair_action, mdp.pair_ptr)
        try:
            d_ref = serial_gs_sweep(order, *model, mdp.discount, *ref)
        except DivergentSelfLoop as exc:
            with pytest.raises(DivergentSelfLoop, match=f"^{re.escape(str(exc))}$"):
                gs_sweep(*prefix, plan, mdp.discount, *out)
            return
        d_out = gs_sweep(*prefix, plan, mdp.discount, *out)
        assert same_bits(d_out, d_ref)
        for a, b in zip(out, ref):
            assert same_bits(a, b)
        steps, _, _ = backends._level_steps(
            plan, order, mdp.state_ptr, mdp.pair_ptr, out[0]
        )
        assert_plan_levels_order(mdp, order, plan, steps, fixed=False)
        if not np.all(np.isfinite(ref[0])):
            break


@settings(max_examples=300, deadline=None)
@given(level_cases())
def test_level_sweeps_match_serial_loop(case):
    assert_level_sweeps_match_serial(*case)


@settings(max_examples=100, deadline=None)
@given(sweep_cases(), st.randoms(use_true_random=False))
def test_level_sweeps_match_serial_loop_on_random_graphs(case, rnd):
    mdp, _, v0 = case
    orders = [np.asarray(rnd.sample(range(mdp.state_count), mdp.state_count))]
    assert_level_sweeps_match_serial(mdp, orders * 2 + orders[::-1], v0)


def test_level_sweeps_wave_through_a_transient_cycle_into_a_closed_class():
    """States 3, 4 and 5 cycle and leave into the closed class 0, 1, 2."""
    rows = [
        [([1], [0.0]), ([0, 2], [1.0, -1.0])],
        [([2], [0.0])],
        [([0], [0.0]), ([1, 2], [0.5, 0.25])],
        [([4], [1.0]), ([0, 3], [2.0, 0.0])],
        [([5], [-1.0])],
        [([3], [0.5]), ([1, 4], [0.0, 3.0])],
    ]
    mdp = mdp_from_rows(rows, 0.9)
    rng = np.random.default_rng(0)
    orders = [rng.permutation(6) for _ in range(20)]
    orders += [np.arange(6), np.arange(6)[::-1]]
    assert_level_sweeps_match_serial(mdp, orders, np.zeros(6))


def test_level_sweeps_match_serial_loop_on_liquidation():
    """A 9-state closed class below 36 transient states."""
    mdp, _, _ = build_liquidation(
        LiquidationParams(q_max=4, z_min=100, z_max=108, z0=104)
    )
    rng = np.random.default_rng(5)
    orders = [rng.permutation(mdp.state_count) for _ in range(4)]
    assert_level_sweeps_match_serial(mdp, orders, np.zeros(mdp.state_count))


def test_random_order_solve_gathers_the_model_once(monkeypatch):
    """qvi-random gathers every state once per solve, not once per sweep."""
    mdp, _, _ = build_liquidation(
        LiquidationParams(q_max=6, z_min=100, z_max=108, z0=104)
    )
    gathered = []
    gather = backends._gather

    def counting(states, *model):
        gathered.append(states.size)
        return gather(states, *model)

    monkeypatch.setattr(backends, "_gather", counting)
    cfg = SolverConfig(ordering=solvers.RANDOM_PER_SWEEP, seed=3)
    result = solvers.qvi_solve(mdp, cfg)
    assert result.stats.sweeps > 1
    assert gathered == [mdp.state_count]


# ---------------------------------------------------------------------------
# bvi_run against a queue that takes one predecessor at a time


def serial_bvi_run(
    seeds, is_transient, rev_ptr, rev_src, state_ptr, pair_action, pair_ptr,
    col, prob, rew, gamma, epsilon, max_dequeues, v, q, pol, seen=None,
):
    """Reference for bvi_run: each predecessor of a dequeued state is
    looked at on its own, in ascending order.  seen, when given, collects
    "nan" for a NaN change that queued an unvisited predecessor, "zero"
    for a zero change that did, and "loop" for a state that queued itself.
    """
    model = (state_ptr, pair_ptr, col, prob, rew, gamma)
    for x in range(v.size):
        # Raises DivergentSelfLoop for the first state with a gain.
        stay_forever(x, *model, serial_backup(x, *model, v)[0])
    in_q = np.zeros(v.size, dtype=bool)
    in_q[seeds] = True
    visited = np.zeros(v.size, dtype=bool)
    queue = deque(seeds.tolist())
    dequeues = backups = 0
    while queue:
        if dequeues >= max_dequeues:
            raise MaxSweepsExceeded(f"BVI hit the dequeue cap ({max_dequeues})")
        x = queue.popleft()
        in_q[x] = False
        visited[x] = True
        dequeues += 1
        qvals, _ = serial_backup(x, *model, v)
        best = stay_forever(x, *model, qvals)
        a = state_ptr[x]
        q[a : a + qvals.size] = qvals
        backups += qvals.size
        with np.errstate(invalid="ignore"):
            delta = abs(qvals[best] - v[x])
        v[x] = qvals[best]
        pol[x] = pair_action[a + best]
        for y in rev_src[rev_ptr[x] : rev_ptr[x + 1]].tolist():
            if is_transient[y] and not in_q[y] and (delta > epsilon or not visited[y]):
                in_q[y] = True
                queue.append(y)
                if seen is not None:
                    if y == x:
                        seen.add("loop")
                    if np.isnan(delta):
                        seen.add("nan")
                    elif delta == 0.0:
                        seen.add("zero")
    return dequeues, backups


def assert_bvi_matches_serial(mdp, is_transient, seeds, v0, cap, seen=None):
    """bvi_run and serial_bvi_run give the same counts, values, action
    values and policy, or raise the same error."""
    n = mdp.state_count
    rev_ptr, rev_src = _predecessor_lists(mdp.pair_ptr[mdp.state_ptr], mdp.col)
    flags = np.asarray(is_transient, dtype=np.uint8)
    seeds = np.asarray(seeds, dtype=np.int64)
    model = (
        seeds, flags, rev_ptr, rev_src, mdp.state_ptr, mdp.pair_action,
        mdp.pair_ptr, mdp.col, mdp.prob, mdp.rew, mdp.discount, 1e-10, cap,
    )
    runs = []
    for kernel, extra in ((serial_bvi_run, {"seen": seen}), (bvi_run, {})):
        tables = [v0.copy(), np.zeros(mdp.pair_count), np.zeros(n, dtype=np.int64)]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                out = kernel(*model, *tables, **extra)
        except (DivergentSelfLoop, MaxSweepsExceeded) as exc:
            out = (type(exc), str(exc))
        runs.append((out, tables))
    (ref, ref_tables), (got, got_tables) = runs
    assert got == ref
    for a, b in zip(got_tables, ref_tables):
        assert same_bits(a, b)


@settings(max_examples=200, deadline=None)
@given(sweep_cases(), st.data())
def test_bvi_run_matches_one_predecessor_at_a_time(case, data):
    """Random small MDPs, with self-loops, zero rewards (zero changes) and
    values of +-1e308 whose backups overflow to NaN changes, random
    transient flags and seeds."""
    mdp, _, v0 = case
    n = mdp.state_count
    is_transient = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    transient = [x for x in range(n) if is_transient[x]]
    seeds = sorted(data.draw(st.sets(st.sampled_from(transient))) if transient else [])
    assert_bvi_matches_serial(mdp, is_transient, seeds, v0, cap=30 * n)


def test_bvi_run_queues_past_nan_and_zero_changes_and_self_loops():
    """A NaN change and a zero change each queue only unvisited
    predecessors, and a moving state with a self-loop queues itself.
    State 9's NaN change comes after its predecessor 6 was backed up, so
    6 is not queued again."""
    rows = [
        [([0], [0.0])],  # absorbing, value 1e308
        [([1], [0.0])],  # absorbing, value -1e308
        [([0, 1], [BIG, -BIG])],  # inf + -inf: a NaN change
        [([2], [0.0])],
        [([4], [0.0])],  # absorbing, value 0
        [([4], [0.0])],  # a zero change
        [([5], [0.0]), ([9], [0.0])],
        [([4, 7], [1.0, 1.0])],  # a self-loop, moving
        [([7], [0.0])],
        [([3], [0.0])],
    ]
    mdp = mdp_from_rows(rows, 0.9)
    is_transient = [False, False, True, True, False, True, True, True, True, True]
    v0 = np.array([BIG, -BIG] + [0.0] * 8)
    seen = set()
    assert_bvi_matches_serial(mdp, is_transient, [2, 5, 7], v0, cap=1000, seen=seen)
    assert seen == {"nan", "zero", "loop"}
