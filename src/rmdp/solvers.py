"""Solvers: one-pass reductive value iteration and iterative baselines.

rvi_solve performs exactly one closed-form q evaluation per transient
(state, action) pair, walking the level-set schedule in ascending order
after the absorbing part has been solved.  qvi_solve is classical
Gauss-Seidel value iteration with a configurable state ordering.
bvi_solve drives plain Bellman backups through a FIFO queue seeded at the
absorbing boundary.  All three return the same SolveResult shape with
instrumentation counters.  Their inner loops are the numpy kernels of
rmdp.backends; rvi_pass and bvi_run raise ScheduleMismatch,
DivergentSelfLoop and MaxSweepsExceeded themselves.  A value that
overflows raises NonFiniteValue naming the first such state: the
iterative solvers check each sweep's residual, rvi_solve and bvi_solve
their values once at the end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import (
    DivergentSelfLoop,
    InvalidParams,
    MaxSweepsExceeded,
    NonContractive,
    NonFiniteValue,
    NotReductive,
    ScheduleMismatch,
)
from .mdp import Policy, ValueTable, _unique_sorted, induced_chain
from .reachability import absorbing_decomposition

NATURAL = "Natural"
RANDOM_PER_SWEEP = "RandomPerSweep"
REVERSED_LEVEL_SETS = "ReversedLevelSets"
_ORDERINGS = (NATURAL, RANDOM_PER_SWEEP, REVERSED_LEVEL_SETS)


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for the iterative solvers.

    epsilon bounds the max per-state residual at termination; max_sweeps
    caps Gauss-Seidel sweeps (and, scaled by the state and action counts,
    BVI dequeues).  seed drives the RandomPerSweep ordering.
    """

    epsilon: float = 1e-10
    max_sweeps: int = 100_000
    ordering: str = NATURAL
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1e-2:
            raise InvalidParams(f"epsilon {self.epsilon} outside (0, 1e-2]")
        if self.max_sweeps < 1:
            raise InvalidParams("max_sweeps must be at least 1")
        if self.ordering not in _ORDERINGS:
            raise InvalidParams(f"unknown ordering {self.ordering!r}")


@dataclass(frozen=True)
class SolveStats:
    q_updates: int
    sweeps: int
    wall_nanos: int
    converged: bool
    residual: float


@dataclass(frozen=True)
class SolveResult:
    values: ValueTable
    policy: Policy
    stats: SolveStats

    def to_json_dict(self):
        return {
            "v": [float(x) for x in self.values.v],
            "policy": [int(a) for a in self.policy.choice],
            "stats": {
                "q_updates": self.stats.q_updates,
                "sweeps": self.stats.sweeps,
                "wall_nanos": self.stats.wall_nanos,
                "converged": self.stats.converged,
                "residual": self.stats.residual,
            },
        }


def q_update(mdp, values, x, u):
    """Closed-form action value of (x, u) given final successor values.

    Evaluates q(x,u) = [r(x,u) + gamma*beta*q'(x,u)] / (1 - gamma*alpha)
    where alpha is the self-loop probability p(x|x,u), beta = 1 - alpha,
    r(x,u) the expected one-step reward, and q'(x,u) the expected value of
    the successor conditioned on leaving x.  Self-transitions contribute
    through the denominator, so no fixed point over repeats is needed.
    A pair with gamma * alpha >= 1 stays at x forever: its value is 0
    when rbar is 0 and -inf when rbar is negative, and a positive rbar
    raises DivergentSelfLoop.
    """
    cols, probs, rews = mdp.row(x, u)
    gamma = mdp.discount
    v = values.v
    alpha = 0.0
    rbar = 0.0
    s = 0.0
    for c, p, r in zip(cols, probs, rews):
        rbar += p * r
        if c == x:
            alpha += p
        else:
            s += p * v[c]
    denom = 1.0 - gamma * alpha
    if denom <= 0.0:
        if rbar > 0.0:
            raise DivergentSelfLoop(f"gamma * p({x}|{x},{u}) = 1")
        return 0.0 if rbar == 0.0 else -np.inf
    return (rbar + gamma * s) / denom


def _absorbing_rewards_nonzero(mdp, states):
    for x in states:
        a, b = mdp.state_ptr[x], mdp.state_ptr[x + 1]
        if np.any(mdp.rew[mdp.pair_ptr[a] : mdp.pair_ptr[b]] != 0.0):
            return True
    return False


def _lowest_actions(mdp, states, pol):
    pol[states] = mdp.pair_action[mdp.state_ptr[states]]


def _require_finite(v):
    """Raise NonFiniteValue naming the first state whose value is not finite."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        x = int(bad[0])
        raise NonFiniteValue(f"state {x} has a non-finite value ({v[x]})")


def _plan(mdp, order):
    return backends.sweep_plan(
        order, mdp.state_ptr, mdp.pair_ptr, mdp.col, mdp.prob, mdp.rew
    )


def _sweep(mdp, order, plan, v, q, pol):
    """One Gauss-Seidel sweep over order with its plan; returns the max delta."""
    return backends.gs_sweep(
        order,
        mdp.state_ptr,
        mdp.pair_action,
        mdp.pair_ptr,
        plan,
        mdp.discount,
        v,
        q,
        pol,
    )


def _solve_absorbing(mdp, decomp, cfg, v, q, pol):
    """Fill v/q/pol on the absorbing part.  Returns (residual, sweeps)."""
    absorbing = decomp.absorbing
    if absorbing.size == 0:
        return 0.0, 0
    if not _absorbing_rewards_nonzero(mdp, absorbing):
        # All absorbing rewards are exactly zero: the fixed point is
        # v = 0 with q = 0, no iteration needed.
        v[absorbing] = 0.0
        _lowest_actions(mdp, absorbing, pol)
        return 0.0, 0
    if mdp.discount >= 1.0:
        for block in decomp.classes:
            if _absorbing_rewards_nonzero(mdp, block):
                raise NonContractive(
                    f"discount 1 with nonzero rewards on absorbing class "
                    f"containing state {int(block[0])}"
                )
    order = np.sort(absorbing).astype(np.int64)
    plan = _plan(mdp, order)
    residual = np.inf
    sweeps = 0
    while True:
        residual = _sweep(mdp, order, plan, v, q, pol)
        sweeps += 1
        if not np.isfinite(residual):
            _require_finite(v)
        if residual < cfg.epsilon:
            return float(residual), sweeps
        if sweeps >= cfg.max_sweeps:
            raise MaxSweepsExceeded(
                f"absorbing solve: residual {residual} after {sweeps} sweeps"
            )


def solve_absorbing_subspace(mdp, decomp, cfg):
    """Values on the absorbing part only; transient entries are left 0."""
    v = np.zeros(mdp.state_count, dtype=np.float64)
    q = np.zeros(mdp.pair_count, dtype=np.float64)
    pol = np.zeros(mdp.state_count, dtype=np.int64)
    _lowest_actions(mdp, np.arange(mdp.state_count, dtype=np.int64), pol)
    _solve_absorbing(mdp, decomp, cfg, v, q, pol)
    return ValueTable(v=v, q=q)


def _check_schedule(mdp, schedule, decomp):
    if decomp.transient.size + decomp.absorbing.size != mdp.state_count:
        raise ScheduleMismatch("decomposition does not cover the state space")
    if decomp.transient.size and decomp.absorbing.size == 0:
        raise NotReductive("transient states with an empty absorbing part")
    levels = list(schedule.levels)
    total = (
        np.concatenate(levels).astype(np.int64)
        if levels
        else np.empty(0, dtype=np.int64)
    )
    if not np.array_equal(np.sort(total), np.sort(decomp.transient)):
        raise ScheduleMismatch("schedule does not enumerate the transient set")
    return levels, total


def _level_groups(mdp, levels, level_states, absorbing):
    """Cut the levels into groups that the pass can back up at once.

    Returns a pointer into level_states: group k holds the states of one
    maximal run of consecutive levels with no edge from a level of the run
    to another level of the same run.  A valid schedule reads only earlier
    levels and the absorbing part, so each group sees exactly the values
    its levels would see one at a time.  A level that reads itself or a
    later level always starts a group, where the pass reports the state it
    reports when levels run one at a time.
    """
    sizes = np.asarray([lv.size for lv in levels], dtype=np.int64)
    level_ptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=level_ptr[1:])
    if level_states.size == 0:
        return level_ptr
    # Per-entry arrays are int32 to keep this pass's memory small.
    rank = np.full(mdp.state_count, sizes.size, dtype=np.int32)
    rank[level_states] = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
    rank[absorbing] = -1
    # Latest level each state reads, self-loops aside; every state has
    # at least one entry.
    entry_ptr = mdp.pair_ptr[mdp.state_ptr]
    src = np.repeat(np.arange(mdp.state_count, dtype=np.int32), np.diff(entry_ptr))
    reads = rank[mdp.col]
    reads[mdp.col == src] = -1
    state_reads = np.maximum.reduceat(reads, entry_ptr[:-1])[level_states]
    # Latest level each level reads; empty levels read none.
    latest = np.full(sizes.size, -1, dtype=np.int64)
    filled = sizes > 0
    latest[filled] = np.maximum.reduceat(state_reads, level_ptr[:-1][filled])
    cuts = [0]
    for lv, j in enumerate(latest.tolist()):
        if j >= cuts[-1] and lv > cuts[-1]:
            cuts.append(lv)
    cuts.append(sizes.size)
    return level_ptr[cuts]


def rvi_solve(mdp, schedule, decomp, cfg=None):
    """Single-pass solve: absorbing part first, then levels ascending.

    Each transient (state, action) pair is evaluated exactly once with the
    closed-form update, so stats.q_updates equals the number of admissible
    transient pairs and stats.sweeps is always 1.  Consecutive levels with
    no edge between them are backed up together (_level_groups); values,
    policy and errors are the same as level by level.  Raises
    ScheduleMismatch when a level references a successor outside earlier
    levels or the absorbing part, and DivergentSelfLoop on
    gamma * p(x|x,u) = 1 with a positive expected reward.  Such a pair
    without reward is worth 0 and with a cost -inf (see q_update), so a
    state whose every action is such a costly loop ends in NonFiniteValue.
    Where a stay-forever action ties with the best one, the policy may
    name a different action than the iterative solvers.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    t0 = time.perf_counter_ns()
    levels, level_cat = _check_schedule(mdp, schedule, decomp)

    v = np.zeros(mdp.state_count, dtype=np.float64)
    q = np.zeros(mdp.pair_count, dtype=np.float64)
    pol = np.zeros(mdp.state_count, dtype=np.int64)
    residual, _ = _solve_absorbing(mdp, decomp, cfg, v, q, pol)

    solved = np.zeros(mdp.state_count, dtype=np.uint8)
    solved[decomp.absorbing] = 1
    level_states = level_cat.astype(np.int64)

    backends.rvi_pass(
        _level_groups(mdp, levels, level_states, decomp.absorbing),
        level_states,
        mdp.state_ptr,
        mdp.pair_action,
        mdp.pair_ptr,
        mdp.col,
        mdp.prob,
        mdp.rew,
        mdp.discount,
        v,
        solved,
        q,
        pol,
    )
    _require_finite(v)

    sizes = mdp.mask_sizes()
    q_updates = int(sizes[level_states].sum()) if level_states.size else 0
    stats = SolveStats(
        q_updates=q_updates,
        sweeps=1,
        wall_nanos=time.perf_counter_ns() - t0,
        converged=True,
        residual=float(residual),
    )
    return SolveResult(values=ValueTable(v=v, q=q), policy=Policy(pol), stats=stats)


def _reversed_order(mdp, schedule):
    if schedule is None:
        raise InvalidParams("ReversedLevelSets ordering requires a schedule")
    levels = list(schedule.levels)
    in_schedule = np.zeros(mdp.state_count, dtype=bool)
    for lv in levels:
        in_schedule[lv] = True
    rest = np.where(~in_schedule)[0].astype(np.int64)
    parts = [np.asarray(lv, dtype=np.int64) for lv in reversed(levels)]
    parts.append(rest)
    return np.concatenate(parts)


def qvi_solve(mdp, cfg, schedule=None, v0=None):
    """Gauss-Seidel value iteration with a configurable sweep order.

    Sweeps run until the max per-state value change drops below
    cfg.epsilon.  ReversedLevelSets processes the schedule's levels in
    descending potential with the remaining states last, the worst case
    for information flow; it needs the schedule argument.  v0 warm-starts
    the value table.
    """
    t0 = time.perf_counter_ns()
    n = mdp.state_count
    rng = None
    if cfg.ordering == REVERSED_LEVEL_SETS:
        order = _reversed_order(mdp, schedule)
    elif cfg.ordering == NATURAL:
        order = np.arange(n, dtype=np.int64)
    else:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    if rng is None:
        plan = _plan(mdp, order)

    v = (
        np.array(v0, dtype=np.float64, copy=True)
        if v0 is not None
        else np.zeros(n, dtype=np.float64)
    )
    if v.size != n:
        raise InvalidParams("v0 length does not match state count")
    q = np.zeros(mdp.pair_count, dtype=np.float64)
    pol = np.zeros(n, dtype=np.int64)

    per_sweep = mdp.pair_count
    sweeps = 0
    q_updates = 0
    while True:
        if rng is None:
            residual = _sweep(mdp, order, plan, v, q, pol)
        else:
            # Each sweep's plan is dropped before the next is gathered.
            order = rng.permutation(n).astype(np.int64)
            residual = _sweep(mdp, order, _plan(mdp, order), v, q, pol)
        sweeps += 1
        if not np.isfinite(residual):
            _require_finite(v)
        q_updates += per_sweep
        if residual < cfg.epsilon:
            break
        if sweeps >= cfg.max_sweeps:
            raise MaxSweepsExceeded(
                f"residual {residual} after {sweeps} sweeps"
            )
    stats = SolveStats(
        q_updates=q_updates,
        sweeps=sweeps,
        wall_nanos=time.perf_counter_ns() - t0,
        converged=True,
        residual=float(residual),
    )
    return SolveResult(values=ValueTable(v=v, q=q), policy=Policy(pol), stats=stats)


def _raw_reverse_graph(mdp):
    """Deduplicated predecessor lists over every action's support.

    Unlike the n-step predecessor map this keeps self-edges, so a state
    whose value moved re-enqueues itself when it has a self-loop and keeps
    iterating it to convergence.
    """
    n = mdp.state_count
    sizes = mdp.mask_sizes()
    state_of_pair = np.repeat(np.arange(n, dtype=np.int64), sizes)
    src = np.repeat(state_of_pair, np.diff(mdp.pair_ptr))
    keys = _unique_sorted(mdp.col * np.int64(n) + src)
    rev_dst = keys // n
    rev_src = keys % n
    rev_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rev_dst, minlength=n), out=rev_ptr[1:])
    return rev_ptr, rev_src


def bvi_solve(mdp, decomp, cfg):
    """Queue-based backward value iteration from the absorbing boundary.

    Seeds a FIFO queue with the one-step predecessors of the absorbing
    part (ascending id), then repeatedly dequeues a state, backs up all
    its admissible actions, and enqueues its raw-edge transient
    predecessors whenever the value moved by more than cfg.epsilon — or
    when the predecessor has never been backed up, so a zero-delta state
    (one whose value is already exact) still passes the wavefront
    upstream.  stats.sweeps counts dequeues; stats.q_updates counts every
    backup.
    """
    t0 = time.perf_counter_ns()
    if decomp.absorbing.size == 0:
        raise NotReductive("BVI needs a nonempty absorbing part")
    n = mdp.state_count
    v = np.zeros(n, dtype=np.float64)
    q = np.zeros(mdp.pair_count, dtype=np.float64)
    pol = np.zeros(n, dtype=np.int64)
    _lowest_actions(mdp, np.arange(n, dtype=np.int64), pol)
    _solve_absorbing(mdp, decomp, cfg, v, q, pol)

    rev_ptr, rev_src = _raw_reverse_graph(mdp)
    is_abs = np.zeros(n, dtype=bool)
    is_abs[decomp.absorbing] = True
    is_transient = (~is_abs).astype(np.uint8)
    seed_mask = np.zeros(n, dtype=bool)
    for x in decomp.absorbing:
        preds = rev_src[rev_ptr[x] : rev_ptr[x + 1]]
        seed_mask[preds] = True
    seed_mask[decomp.absorbing] = False
    seeds = np.where(seed_mask)[0].astype(np.int64)

    cap = int(cfg.max_sweeps) * n * mdp.action_count
    dequeues, backups = backends.bvi_run(
        seeds,
        is_transient,
        rev_ptr,
        rev_src,
        mdp.state_ptr,
        mdp.pair_action,
        mdp.pair_ptr,
        mdp.col,
        mdp.prob,
        mdp.rew,
        mdp.discount,
        cfg.epsilon,
        cap,
        v,
        q,
        pol,
    )
    _require_finite(v)
    stats = SolveStats(
        q_updates=int(backups),
        sweeps=int(dequeues),
        wall_nanos=time.perf_counter_ns() - t0,
        converged=True,
        residual=bellman_residual(mdp, v),
    )
    return SolveResult(values=ValueTable(v=v, q=q), policy=Policy(pol), stats=stats)


def bellman_residual(mdp, v):
    """Max-norm residual of one synchronous Bellman backup at v."""
    return float(
        backends.bellman_residual_pass(
            mdp.state_ptr,
            mdp.pair_ptr,
            mdp.col,
            mdp.prob,
            mdp.rew,
            mdp.discount,
            np.asarray(v, dtype=np.float64),
        )
    )


# Steps of uniforms drawn at once for each trial still moving.
_SIMULATE_BLOCK_STEPS = 64


@dataclass(frozen=True)
class Trajectory:
    """One rollout: states has one more element than actions and rewards."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray


def simulate_policy(mdp, policy, start, horizon, trials, seed):
    """Monte-Carlo rollouts of a fixed policy, deterministic given seed.

    Each trajectory stops on entering an absorbing state of the induced
    chain or after horizon transitions, whichever comes first.  Trial t
    uses the t-th spawned child of the seed, so results do not depend on
    execution order.  Step k of a trial draws the k-th uniform u of its
    generator and moves to the first successor whose cumulative
    probability exceeds u, or to the row's last successor when none does.
    """
    if horizon < 1 or trials < 1:
        raise InvalidParams("horizon and trials must be at least 1")
    chain = induced_chain(mdp, policy)
    decomp = absorbing_decomposition(chain)
    is_abs = np.zeros(chain.state_count, dtype=bool)
    is_abs[decomp.absorbing] = True

    # Row cumulative sums, padded with each row's total; cumsum along a
    # row adds in the same order as a cumsum of the row alone.
    lens = np.diff(chain.row_ptr)
    row_of = np.repeat(np.arange(chain.state_count, dtype=np.int64), lens)
    slot = np.arange(chain.col.size, dtype=np.int64) - chain.row_ptr[row_of]
    padded = np.zeros((chain.state_count, int(lens.max())), dtype=np.float64)
    padded[row_of, slot] = chain.prob
    cum = np.cumsum(padded, axis=1)

    # All trials step together.  active lists the trials still moving and
    # u holds their uniforms for the current block of steps, row for row.
    children = np.random.SeedSequence(seed).spawn(trials)
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in children]
    x = np.full(trials, int(start), dtype=np.int64)
    active = np.arange(trials, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    moved, taken = [none], [none]
    for step in range(horizon):
        keep = ~is_abs[x[active]]
        active = active[keep]
        if active.size == 0:
            break
        k = step % _SIMULATE_BLOCK_STEPS
        if k == 0:
            u = np.empty((active.size, min(_SIMULATE_BLOCK_STEPS, horizon - step)))
            for i, t in enumerate(active.tolist()):
                rngs[t].random(out=u[i])
        else:
            u = u[keep]
        xs = x[active]
        hits = np.count_nonzero(cum[xs] <= u[:, k, None], axis=1)
        entry = chain.row_ptr[xs] + np.minimum(hits, lens[xs] - 1)
        x[active] = chain.col[entry]
        moved.append(active)
        taken.append(entry)

    # Regroup the steps by trial; a stable sort keeps each trial's steps
    # in order.
    moved = np.concatenate(moved)
    taken = np.concatenate(taken)[np.argsort(moved, kind="stable")]
    steps = np.bincount(moved, minlength=trials)
    ends = np.cumsum(steps)
    actions = np.asarray(policy.choice, dtype=np.int64)[row_of[taken]]
    rewards = chain.rew[taken]
    # Each trial's states are its start state, then its successors.
    states = np.insert(chain.col[taken], ends - steps, int(start))
    out = []
    lo = 0
    for t, hi in enumerate(ends.tolist()):
        out.append(
            Trajectory(
                states=states[lo + t : hi + t + 1],
                actions=actions[lo:hi],
                rewards=rewards[lo:hi],
            )
        )
        lo = hi
    return out
