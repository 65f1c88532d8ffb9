"""Solvers: one-pass reductive value iteration and iterative baselines.

rvi_solve performs exactly one closed-form q evaluation per transient
(state, action) pair, walking the level-set schedule in ascending order
after the absorbing part has been solved.  qvi_solve is classical
Gauss-Seidel value iteration with a configurable state ordering.
bvi_solve drives plain Bellman backups through a FIFO queue seeded at the
absorbing boundary.  All three return the same SolveResult shape with
instrumentation counters (_result).  qvi_solve's sweeps and those of the
absorbing solve that rvi_solve and bvi_solve start with run one
Gauss-Seidel loop (_gauss_seidel), which raises MaxSweepsExceeded.  The
inner loops are the numpy kernels of rmdp.backends, which raise
ScheduleMismatch, DivergentSelfLoop and bvi_run's MaxSweepsExceeded
themselves.  A value that overflows raises NonFiniteValue naming the
first such state: the sweeps check each sweep's residual, rvi_solve and
bvi_solve their values once at the end.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import backends
from .errors import (
    DivergentSelfLoop,
    InvalidParams,
    MaxSweepsExceeded,
    ModelError,
    NonContractive,
    NonFiniteValue,
    NotReductive,
    ScheduleMismatch,
)
from .mdp import Policy, ValueTable, _offsets, induced_chain
from .reachability import (
    _condensation,
    _heights,
    _out_edges,
    _predecessor_lists,
    _walk,
    absorbing_decomposition,
)

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
    rew, _ = _out_edges((mdp.pair_ptr[mdp.state_ptr], mdp.rew), states)
    return bool(np.any(rew != 0.0))


def _tables(mdp):
    """Zero values and action values, and each state's lowest action as policy."""
    v = np.zeros(mdp.state_count, dtype=np.float64)
    q = np.zeros(mdp.pair_count, dtype=np.float64)
    return v, q, mdp.pair_action[mdp.state_ptr[:-1]]


def _result(t0, v, q, pol, q_updates, sweeps, residual):
    """The SolveResult of a solve that started at perf_counter_ns() t0."""
    stats = SolveStats(
        q_updates=int(q_updates),
        sweeps=int(sweeps),
        wall_nanos=time.perf_counter_ns() - t0,
        converged=True,
        residual=float(residual),
    )
    return SolveResult(values=ValueTable(v=v, q=q), policy=Policy(pol), stats=stats)


def _require_finite(v):
    """Raise NonFiniteValue naming the first state whose value is not finite."""
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        x = int(bad[0])
        raise NonFiniteValue(f"state {x} has a non-finite value ({v[x]})")


def _components(mdp):
    """Component heights and inner edges, from the condensation of mdp.support().

    Returns each state's component height and the support's edges between
    distinct states of one component.  The support is dropped on return.
    """
    support = mdp.support()
    cond = _condensation(support)
    labels = cond.labels
    big = np.flatnonzero(np.diff(cond.member_ptr)[labels] > 1)
    dst, lens = _out_edges((support.row_ptr, support.col), big)
    src = np.repeat(big, lens)
    inner = (labels[src] == labels[dst]) & (src != dst)
    return _heights(cond)[labels], src[inner], dst[inner]


def _level_plan(mdp, order=None):
    """The Mdp gathered once per solve into a backends.LevelPlan.

    With an order, its states levelled by the order's own waves, for
    sweeps in that order; without, every state levelled by component
    height, for sweeps in any order.
    """
    model = (mdp.state_ptr, mdp.pair_ptr, mdp.col, mdp.prob, mdp.rew, mdp.discount)
    if order is not None:
        return backends._order_plan(order, *model)
    return backends._level_plan(*_components(mdp), *model)


def _gauss_seidel(mdp, plan, orders, cfg, v, q, pol, what=""):
    """Gauss-Seidel sweeps over plan, one per order drawn from orders.

    Sweeps until the largest value change drops below cfg.epsilon and
    returns (residual, sweeps).  Raises NonFiniteValue on a sweep whose
    residual is not finite and a value is not, and MaxSweepsExceeded,
    its message starting with what, after cfg.max_sweeps sweeps.
    """
    for sweeps, order in enumerate(orders, 1):
        residual = backends.gs_sweep(
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
        if not np.isfinite(residual):
            _require_finite(v)
        if residual < cfg.epsilon:
            return residual, sweeps
        if sweeps >= cfg.max_sweeps:
            raise MaxSweepsExceeded(f"{what}residual {residual} after {sweeps} sweeps")


def _solve_absorbing(mdp, decomp, cfg, v, q, pol):
    """Fill v/q/pol on the absorbing part.  Returns (residual, sweeps)."""
    absorbing = decomp.absorbing
    if absorbing.size == 0:
        return 0.0, 0
    if not _absorbing_rewards_nonzero(mdp, absorbing):
        # All absorbing rewards are exactly zero: the fixed point is
        # v = 0 with q = 0, no iteration needed.
        v[absorbing] = 0.0
        pol[absorbing] = mdp.pair_action[mdp.state_ptr[absorbing]]
        return 0.0, 0
    if mdp.discount >= 1.0:
        for block in decomp.classes:
            if _absorbing_rewards_nonzero(mdp, block):
                raise NonContractive(
                    f"discount 1 with nonzero rewards on absorbing class "
                    f"containing state {int(block[0])}"
                )
    order = np.sort(absorbing).astype(np.int64)
    plan = _level_plan(mdp, order)
    return _gauss_seidel(
        mdp, plan, itertools.repeat(order), cfg, v, q, pol, "absorbing solve: "
    )


def solve_absorbing_subspace(mdp, decomp, cfg):
    """Values on the absorbing part only; transient entries are left 0."""
    v, q, pol = _tables(mdp)
    _solve_absorbing(mdp, decomp, cfg, v, q, pol)
    return ValueTable(v=v, q=q)


def _check_schedule(mdp, schedule, decomp):
    """The schedule's level bounds and its states level by level, once checked."""
    if decomp.transient.size + decomp.absorbing.size != mdp.state_count:
        raise ScheduleMismatch("decomposition does not cover the state space")
    if decomp.transient.size and decomp.absorbing.size == 0:
        raise NotReductive("transient states with an empty absorbing part")
    levels = schedule.levels
    total = np.concatenate([np.empty(0, dtype=np.int64), *levels]).astype(np.int64)
    if not np.array_equal(np.sort(total), np.sort(decomp.transient)):
        raise ScheduleMismatch("schedule does not enumerate the transient set")
    return _offsets([lv.size for lv in levels]), total


def rvi_solve(mdp, schedule, decomp, cfg=None):
    """Single-pass solve: absorbing part first, then levels ascending.

    Each transient (state, action) pair is evaluated exactly once with the
    closed-form update, so stats.q_updates equals the number of admissible
    transient pairs and stats.sweeps is always 1.  backends.rvi_pass
    gathers the levels in blocks of at most 2^16 entries, cuts each
    block's levels into greedy maximal runs that read none of their own
    states and backs up each run in one step; values, policy and errors
    are the same as level by level.  Raises
    ScheduleMismatch when a level references a successor outside earlier
    levels or the absorbing part, and DivergentSelfLoop on
    gamma * p(x|x,u) = 1 with a positive expected reward.  Such a pair
    without reward is worth 0 and with a cost -inf (see q_update), so a
    state whose every action is such a costly loop ends in NonFiniteValue.
    The iterative solvers give such pairs the same values.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    t0 = time.perf_counter_ns()
    level_ptr, level_states = _check_schedule(mdp, schedule, decomp)
    v, q, pol = _tables(mdp)
    residual, _ = _solve_absorbing(mdp, decomp, cfg, v, q, pol)

    solved = np.zeros(mdp.state_count, dtype=np.uint8)
    solved[decomp.absorbing] = 1
    backends.rvi_pass(
        level_ptr,
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
    q_updates = mdp.mask_sizes()[level_states].sum()
    return _result(t0, v, q, pol, q_updates, 1, residual)


def _reversed_order(mdp, schedule):
    """The schedule's levels in reverse, then the unscheduled states.

    Raises ScheduleMismatch naming the first scheduled state that is not
    a state of mdp, or failing that the first one scheduled more than once.
    """
    if schedule is None:
        raise InvalidParams("ReversedLevelSets ordering requires a schedule")
    n = mdp.state_count
    levels = [np.asarray(lv, dtype=np.int64) for lv in schedule.levels]
    scheduled = np.concatenate([np.empty(0, dtype=np.int64), *levels])
    outside = scheduled[(scheduled < 0) | (scheduled >= n)]
    if outside.size:
        raise ScheduleMismatch(f"state {int(outside[0])} is not a state of the model")
    times = np.bincount(scheduled, minlength=n)
    if scheduled.size > np.count_nonzero(times):
        x = int(scheduled[np.argmax(times[scheduled] > 1)])
        raise ScheduleMismatch(f"state {x} is scheduled twice")
    return np.concatenate([*levels[::-1], np.flatnonzero(times == 0)])


def qvi_solve(mdp, cfg, schedule=None, v0=None):
    """Gauss-Seidel value iteration with a configurable sweep order.

    Sweeps run until the max per-state value change drops below
    cfg.epsilon.  ReversedLevelSets processes the schedule's levels in
    descending potential with the remaining states last, the worst case
    for information flow; it needs the schedule argument.  v0 warm-starts
    the value table.  Each solve gathers the model once into a level plan
    (_level_plan).  A fixed order (Natural, ReversedLevelSets) is levelled
    by its own waves and indexed once.  RandomPerSweep draws a new
    permutation for every sweep; its plan is levelled by component height
    and each sweep only re-indexes it.  Every order gives the values of a
    one-state-at-a-time sweep.  Raises ScheduleMismatch when a scheduled
    state is not a state of mdp or is scheduled twice.
    """
    t0 = time.perf_counter_ns()
    n = mdp.state_count
    order = None
    if cfg.ordering == REVERSED_LEVEL_SETS:
        order = _reversed_order(mdp, schedule)
    elif cfg.ordering == NATURAL:
        order = np.arange(n, dtype=np.int64)
    plan = _level_plan(mdp, order)
    if order is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
        orders = (rng.permutation(n) for _ in itertools.count())
    else:
        orders = itertools.repeat(order)

    v, q, pol = _tables(mdp)
    if v0 is not None:
        v = np.array(v0, dtype=np.float64, copy=True)
        if v.size != n:
            raise InvalidParams("v0 length does not match state count")
    residual, sweeps = _gauss_seidel(mdp, plan, orders, cfg, v, q, pol)
    return _result(t0, v, q, pol, sweeps * mdp.pair_count, sweeps, residual)


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
    v, q, pol = _tables(mdp)
    _solve_absorbing(mdp, decomp, cfg, v, q, pol)

    # Predecessor lists over every action's support, self-edges kept: a
    # state whose value moved re-enqueues itself when it has a self-loop
    # and keeps iterating it to convergence.
    rev_ptr, rev_src = _predecessor_lists(mdp.pair_ptr[mdp.state_ptr], mdp.col)
    is_abs = np.zeros(n, dtype=bool)
    is_abs[decomp.absorbing] = True
    is_transient = (~is_abs).astype(np.uint8)
    seeds = next(_walk((rev_ptr, rev_src), is_abs, decomp.absorbing))

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
    return _result(t0, v, q, pol, backups, dequeues, bellman_residual(mdp, v))


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
    if not 0 <= start < mdp.state_count:
        raise ModelError(f"state {start} out of range")
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
