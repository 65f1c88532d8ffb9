"""Benchmark domains and encoded figure fixtures.

build_liquidation constructs the optimal-liquidation MDP: sell inventory
q against a reflected trinomial price walk, with action masking that
forces at least one unit sold per step.  build_spiral builds the
25-state spiral lattice with a path-choice action at its three branch
states.  build_fig2 reproduces the two small reference chains.  The
shrinking-intervals process is a sampled continuous-state companion used
to sanity-check the drift arithmetic by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParams
from .mdp import MarkovChain, Mdp, _offsets, gather_ranges
from .reachability import (
    AbsorbingDecomposition,
    LevelSetSchedule,
    absorbing_decomposition,
    counting_potential,
    level_set_schedule,
)

PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# Optimal liquidation


@dataclass(frozen=True)
class LiquidationParams:
    """Inventory bound, price grid, walk probabilities, reward weights.

    Defaults reproduce the reference configuration: q_max 100, prices in
    [50, 250] anchored at 150, a symmetric trinomial walk and weights
    (1, 0.2, 0.002).  Rewards are w0*u*(z - z0) - w1*u**2 - w2*q**2 with
    pre-trade inventory q.  The discount defaults to 1; termination comes
    from the masking, not from discounting.
    """

    q_max: int = 100
    z_min: int = 50
    z_max: int = 250
    z0: int = 150
    p_down: float = 0.4
    p_stay: float = 0.2
    p_up: float = 0.4
    w0: float = 1.0
    w1: float = 0.2
    w2: float = 0.002
    discount: float = 1.0

    def __post_init__(self):
        for name in ("q_max", "z_min", "z_max", "z0"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or isinstance(val, bool):
                raise InvalidParams(f"{name} must be an integer")
        if self.q_max <= 0:
            raise InvalidParams("q_max must be positive")
        if not 0 < self.z_min < self.z_max:
            raise InvalidParams("need 0 < z_min < z_max")
        if not self.z_min <= self.z0 <= self.z_max:
            raise InvalidParams("z0 must lie within the price bounds")
        probs = (self.p_down, self.p_stay, self.p_up)
        if min(probs) < 0.0:
            raise InvalidParams("walk probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > PROB_TOL:
            raise InvalidParams(f"walk probabilities sum to {sum(probs)!r}")
        if min(self.w0, self.w1, self.w2) < 0.0:
            raise InvalidParams("reward weights must be nonnegative")
        if not 0.0 <= self.discount <= 1.0:
            raise InvalidParams("discount must lie in [0, 1]")

    @property
    def z_count(self):
        return self.z_max - self.z_min + 1

    @property
    def state_count(self):
        return (self.q_max + 1) * self.z_count


def liquidation_state_id(params, q, z):
    """Dense id of inventory-price pair (q, z)."""
    if not 0 <= q <= params.q_max:
        raise InvalidParams(f"inventory {q} out of range")
    if not params.z_min <= z <= params.z_max:
        raise InvalidParams(f"price {z} out of range")
    return q * params.z_count + (z - params.z_min)


def liquidation_state(params, sid):
    """Inverse of liquidation_state_id."""
    if not 0 <= sid < params.state_count:
        raise InvalidParams(f"state id {sid} out of range")
    q, zi = divmod(int(sid), params.z_count)
    return q, zi + params.z_min


def liquidation_reward(params, q, z, u):
    """Reward of selling u units at price z holding pre-trade inventory q."""
    p = params
    return p.w0 * u * (z - p.z0) - p.w1 * u * u - p.w2 * q * q


def _price_walk(params):
    """The reflected trinomial walk over price indices, as a chain.

    Mass that would leave the grid folds onto the boundary state; exact
    zero probabilities are dropped so the stored support stays strict.
    """
    Z = params.z_count
    moves = ((-1, params.p_down), (0, params.p_stay), (1, params.p_up))
    rows = []
    for zi in range(Z):
        acc = {}
        for dz, p in moves:
            if p <= 0.0:
                continue
            t = min(max(zi + dz, 0), Z - 1)
            acc[t] = acc.get(t, 0.0) + p
        rows.append(sorted(acc.items()))
    return MarkovChain.from_rows(rows)


def _liquidation_arrays(p, walk):
    """The liquidation MDP's state_ptr, pair_action, pair_ptr, col, prob, rew.

    State (q, z) has max(q, 1) pairs: action 0 at q = 0, actions 1..q
    above it.  Each entry-sized array is made once, and each index array
    is dropped before the next array is made; the pair-sized temporaries
    die on return, before the Mdp checks the arrays.
    """
    Z = p.z_count
    q_of = np.arange(p.state_count, dtype=np.int64) // Z
    sizes = np.maximum(q_of, 1)
    state_ptr = _offsets(sizes)
    pair_state = np.repeat(np.arange(p.state_count, dtype=np.int64), sizes)
    qs, zi = np.divmod(pair_state, Z)
    # A pair's rank within its state, plus one above q = 0.
    us = np.arange(pair_state.size, dtype=np.int64) - state_ptr[pair_state]
    us += qs > 0
    del pair_state
    pair_len = np.diff(walk.row_ptr)[zi]
    rw = (
        p.w0 * us * (zi + (p.z_min - p.z0))
        - p.w1 * us.astype(np.float64) ** 2
        - p.w2 * (qs * qs).astype(np.float64)
    )
    # The q = 0 pairs come first; below z0 the formula gives them -0.0.
    rw[:Z] = 0.0
    rew = np.repeat(rw, pair_len)
    del rw
    entries = gather_ranges(walk.row_ptr[zi], pair_len)
    del zi
    prob = walk.prob[entries]
    col = walk.col[entries]
    del entries
    # The successors' inventory q - u, as the first state of its slice.
    qs -= us
    qs *= Z
    col += np.repeat(qs, pair_len)
    return state_ptr, us, _offsets(pair_len), col, prob, rew


def build_liquidation(params):
    """Construct the liquidation MDP, its solve schedule and decomposition.

    Action u in U(q) = {1..q} sells u units (U(0) = {0}); the price moves
    by the reflected trinomial walk regardless.  The q = 0 slice keeps the
    price walk with reward 0 and forms the absorbing part; its classes are
    computed from the walk itself so degenerate probabilities (for example
    p_up = 0) stay handled.  The schedule groups states by inventory,
    ascending, which is a valid dependency order because every admissible
    action strictly decreases the inventory.
    """
    p = params
    Z = p.z_count
    n = p.state_count
    walk = _price_walk(p)
    mdp = Mdp(n, p.q_max + 1, p.discount, *_liquidation_arrays(p, walk))

    slice_decomp = absorbing_decomposition(walk)
    slice_schedule = level_set_schedule(counting_potential(walk), slice_decomp)
    decomp = AbsorbingDecomposition(
        transient=np.concatenate(
            [slice_decomp.transient, np.arange(Z, n, dtype=np.int64)]
        ),
        absorbing=slice_decomp.absorbing,
        classes=slice_decomp.classes,
    )
    inventories = tuple(np.arange(Z, n, dtype=np.int64).reshape(-1, Z))
    schedule = LevelSetSchedule(levels=slice_schedule.levels + inventories)
    return mdp, schedule, decomp


# ---------------------------------------------------------------------------
# Spiral lattice

SPIRAL_SIDE = 5
SPIRAL_ABSORBING = (2, 2)

# Edge set of the spiral walk, keyed by (col, row) with row 0 at the top;
# east is +col, south is +row.
SPIRAL_EDGES = {
    (0, 0): ((1, 0),),
    (1, 0): ((2, 0),),
    (2, 0): ((3, 0), (2, 1)),
    (3, 0): ((4, 0),),
    (4, 0): ((4, 1),),
    (0, 1): ((1, 1),),
    (1, 1): ((2, 1),),
    (2, 1): ((3, 1), (2, 2)),
    (3, 1): ((3, 2),),
    (4, 1): ((4, 2),),
    (0, 2): ((0, 1),),
    (1, 2): ((2, 2),),
    (2, 2): ((2, 2),),
    (3, 2): ((3, 3),),
    (4, 2): ((4, 3),),
    (0, 3): ((0, 2),),
    (1, 3): ((1, 2),),
    (2, 3): ((1, 3), (2, 2)),
    (3, 3): ((2, 3),),
    (4, 3): ((4, 4),),
    (0, 4): ((0, 3),),
    (1, 4): ((0, 4),),
    (2, 4): ((1, 4),),
    (3, 4): ((2, 4),),
    (4, 4): ((3, 4),),
}


def spiral_state_id(x, y):
    """Dense id of lattice site (x, y): row-major with row 0 first."""
    if not (0 <= x < SPIRAL_SIDE and 0 <= y < SPIRAL_SIDE):
        raise InvalidParams(f"lattice site ({x}, {y}) out of range")
    return SPIRAL_SIDE * y + x


def spiral_chain():
    """The spiral walk as a chain: branch states split mass half and half."""
    n = SPIRAL_SIDE * SPIRAL_SIDE
    rows = [None] * n
    for (x, y), succs in SPIRAL_EDGES.items():
        share = 1.0 / len(succs)
        rows[spiral_state_id(x, y)] = [
            (spiral_state_id(*s), share) for s in succs
        ]
    return MarkovChain.from_rows(rows)


def build_spiral(step_reward=-1.0, mix_levels=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """Spiral MDP: the action picks how strongly to prefer the short path.

    Action a stands for the mixing weight mix_levels[a]: at a branch state
    it sends that probability to the lower-potential successor and the
    rest to the other; elsewhere the action changes nothing.  Every
    transient transition pays step_reward; the absorbing site pays 0.
    Weight-0 or weight-1 actions drop the zero-probability edge.
    """
    if len(mix_levels) == 0:
        raise InvalidParams("mix_levels must not be empty")
    mixes = [float(u) for u in mix_levels]
    if any(not 0.0 <= u <= 1.0 for u in mixes):
        raise InvalidParams("mix levels must lie in [0, 1]")

    chain = spiral_chain()
    pt = counting_potential(chain)
    decomp = absorbing_decomposition(chain)
    schedule = level_set_schedule(pt, decomp)
    n = chain.state_count
    absorbing_id = spiral_state_id(*SPIRAL_ABSORBING)

    state_ptr = np.arange(0, (n + 1) * len(mixes), len(mixes), dtype=np.int64)
    pair_action = np.tile(np.arange(len(mixes), dtype=np.int64), n)
    entry_cols = []
    entry_probs = []
    entry_rews = []
    entry_lens = []
    for sid in range(n):
        x, y = sid % SPIRAL_SIDE, sid // SPIRAL_SIDE
        succs = [spiral_state_id(*s) for s in SPIRAL_EDGES[(x, y)]]
        reward = 0.0 if sid == absorbing_id else float(step_reward)
        for u in mixes:
            if len(succs) == 1:
                row = [(succs[0], 1.0)]
            else:
                lo, hi = sorted(succs, key=lambda s: int(pt.phi[s]))
                row = [(lo, u), (hi, 1.0 - u)]
                row = [(s, pr) for s, pr in row if pr > 0.0]
                row.sort()
            entry_lens.append(len(row))
            entry_cols.extend(s for s, _ in row)
            entry_probs.extend(pr for _, pr in row)
            entry_rews.extend(reward for _ in row)
    mdp = Mdp(
        state_count=n,
        action_count=len(mixes),
        discount=1.0,
        state_ptr=state_ptr,
        pair_action=pair_action,
        pair_ptr=_offsets(entry_lens),
        col=np.array(entry_cols, dtype=np.int64),
        prob=np.array(entry_probs, dtype=np.float64),
        rew=np.array(entry_rews, dtype=np.float64),
    )
    return mdp, schedule, decomp


# ---------------------------------------------------------------------------
# Reference chains


def build_fig2(variant, loop_prob=0.5):
    """The two small reference chains, uniform split over non-loop mass.

    Variant A: 4 states, edges 0 -> {1,2,3} (uniform after the loop),
    1 -> 3, 2 -> 3, a fractional self-loop on 0 and a certain one on 3.
    Variant B: 5 states, 0 -> {1,2}, 1 -> 3, 2 -> 4, and {3,4} a closed
    two-state class with fractional self-loops.
    """
    if not 0.0 < loop_prob < 1.0:
        raise InvalidParams("loop_prob must lie strictly between 0 and 1")
    v = str(variant).upper()
    if v == "A":
        rest = (1.0 - loop_prob) / 3.0
        rows = [
            [(0, loop_prob), (1, rest), (2, rest), (3, rest)],
            [(3, 1.0)],
            [(3, 1.0)],
            [(3, 1.0)],
        ]
    elif v == "B":
        rows = [
            [(1, 0.5), (2, 0.5)],
            [(3, 1.0)],
            [(4, 1.0)],
            [(3, loop_prob), (4, 1.0 - loop_prob)],
            [(3, 1.0 - loop_prob), (4, loop_prob)],
        ]
    else:
        raise InvalidParams(f"unknown variant {variant!r}")
    return MarkovChain.from_rows(rows)


# ---------------------------------------------------------------------------
# Shrinking intervals

MULTIPLICATIVE = "Multiplicative"
DELTA_INTERVAL = "DeltaInterval"
# Uniforms held at once by the blocked simulation.
_SHRINK_BLOCK_DRAWS = 1 << 20


@dataclass(frozen=True)
class ShrinkParams:
    trials: int
    steps: int
    seed: int
    mode: str = MULTIPLICATIVE
    delta: float | None = None

    def __post_init__(self):
        if self.trials < 1 or self.steps < 1:
            raise InvalidParams("trials and steps must be at least 1")
        if self.mode not in (MULTIPLICATIVE, DELTA_INTERVAL):
            raise InvalidParams(f"unknown mode {self.mode!r}")
        if self.mode == DELTA_INTERVAL:
            if self.delta is None or not 0.0 < self.delta < 1.0:
                raise InvalidParams("delta must lie in (0, 1)")


@dataclass(frozen=True)
class ShrinkResult:
    final_abs: np.ndarray
    max_final: float
    all_monotone: bool


def shrink_simulate(params):
    """Sample the shrinking-intervals process from X_0 = 1.

    Multiplicative mode multiplies by an independent Uniform[0,1) each
    step; DeltaInterval draws uniformly from [0, max(X - delta, 0)].  Both
    run one loop: Multiplicative is delta = 0, for which
    U * max(X - 0, 0) equals X * U bit for bit.  Trials use spawned
    per-trial seeds, so results are reproducible and independent of any
    execution partitioning.  Monotonicity is checked on the sampled
    paths, not assumed.
    """
    delta = params.delta if params.mode == DELTA_INTERVAL else 0.0
    children = np.random.SeedSequence(params.seed).spawn(params.trials)
    finals = np.empty(params.trials, dtype=np.float64)
    all_monotone = True
    # Step a block of trials together; row k of u holds each trial's
    # k-th uniform, drawn from that trial's own stream.
    block = max(1, _SHRINK_BLOCK_DRAWS // params.steps)
    for lo in range(0, params.trials, block):
        hi = min(lo + block, params.trials)
        u = np.empty((params.steps, hi - lo), dtype=np.float64)
        for t in range(lo, hi):
            rng = np.random.Generator(np.random.PCG64(children[t]))
            u[:, t - lo] = rng.random(params.steps)
        x = np.ones(hi - lo, dtype=np.float64)
        for k in range(params.steps):
            nxt = u[k] * np.maximum(x - delta, 0.0)
            if np.any(nxt > x):
                all_monotone = False
            x = nxt
        finals[lo:hi] = x
    final_abs = np.abs(finals)
    return ShrinkResult(
        final_abs=final_abs,
        max_final=float(final_abs.max()),
        all_monotone=all_monotone,
    )


def shrink_expected_drift(x, delta):
    """Expected one-step decrease of the interval length at X = x.

    For X' uniform on [0, x - delta] the conditional mean decrease is
    (x + delta) / 2.  Defined for x in (delta, 1].
    """
    if delta < 0.0:
        raise DomainError("delta must be nonnegative")
    if not delta < x <= 1.0:
        raise DomainError(f"x must lie in ({delta}, 1]")
    return (x + delta) / 2.0
