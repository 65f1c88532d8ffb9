"""Numerical kernels: the hot loops of the solvers, vectorized with numpy.

rvi_pass backs up the one-pass solve's level groups with the self-loop
closed form, gs_sweep runs one Gauss-Seidel sweep, bvi_run drives the
queue of backward value iteration, and bellman_residual_pass measures the
residual of one synchronous Bellman backup.  The kernels work on the flat
arrays of an Mdp and update the value, action-value and policy arrays
they are given in place.

A Gauss-Seidel sweep runs over a plan (sweep_plan): its order's pairs
and entries gathered once in sweep order, and the order cut into
conflict-free runs.  No state in a run reads a state placed earlier in
the same run, so every state of a run sees exactly the values the
one-state-at-a-time loop would show it.  gs_sweep backs up each run in
vectorized form, with results bit-identical to that serial loop.  A plan
depends only on the order, so a solve whose order stays fixed builds it
once for all its sweeps.  bellman_residual_pass reads the arrays as
stored, since gathering them in natural order would only copy them.

rvi_pass takes the levels in blocks of at most _BLOCK_ENTRIES (2^16)
entries.  It gathers a block once, with the helper of the sweep plans,
and computes the block's value-free terms and schedule checks at once;
each run of the block's levels that reads none of its own states is
then one step that only reads successor values and writes its values.

A pair with gamma * p(x|x,u) >= 1 stays at x forever: every kernel
gives it the value 0 without reward and -inf at a cost, and raises
DivergentSelfLoop with a positive expected reward, naming the state.
rvi_pass raises ScheduleMismatch when a state reads an unsolved
successor, with the state and precedence of a pass over one level at a
time.  bvi_run raises MaxSweepsExceeded when its dequeue cap is hit.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import DivergentSelfLoop, MaxSweepsExceeded, ScheduleMismatch
from .mdp import gather_ranges


def _offsets(lengths):
    """Start offsets of consecutive segments of the given lengths, plus the end."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


class SweepPlan(NamedTuple):
    """A sweep order's pairs and entries, gathered in sweep order.

    The pairs of order[i] are pairs[pair_off[i]:pair_off[i + 1]], the
    entries of pairs[j] are col, prob and rew[entry_off[j]:entry_off[j + 1]],
    and run k of the order is order[run_ptr[k]:run_ptr[k + 1]].  The
    plan pairs stay (ascending) have gamma * p(x|x,u) >= 1 and the fixed
    values stay_q.  Nothing in a plan changes during a sweep, so one plan
    serves every sweep over the same order.
    """

    pairs: np.ndarray
    pair_off: np.ndarray
    entry_off: np.ndarray
    col: np.ndarray
    prob: np.ndarray
    rew: np.ndarray
    run_ptr: np.ndarray
    stay: np.ndarray
    stay_q: np.ndarray


def _gather(states, state_ptr, pair_ptr, col, prob, rew):
    """The plan of states without its runs: pairs, offsets and entries."""
    p_starts = state_ptr[states]
    p_lens = state_ptr[states + 1] - p_starts
    pairs = gather_ranges(p_starts, p_lens)
    # A state's pairs are adjacent, and so are their entries.
    e_starts = pair_ptr[p_starts]
    entries = gather_ranges(e_starts, pair_ptr[p_starts + p_lens] - e_starts)
    entry_off = _offsets(pair_ptr[pairs + 1] - pair_ptr[pairs])
    return (
        pairs,
        _offsets(p_lens),
        entry_off,
        col[entries],
        prob[entries],
        rew[entries],
    )


def _conflict_free_runs(order, state_count, pair_off, entry_off, ecol):
    """Cut a sweep order into maximal conflict-free runs; returns run_ptr.

    No state in a run has a stored successor placed earlier in the same
    run, so a run can be backed up at once from the values before it.
    Self-loops and successors outside the order never conflict.  Runs are
    greedy and maximal: each run after the first starts at a state that
    reads a member of the run before it.
    """
    m = order.size
    if m == 0:
        return np.zeros(1, dtype=np.int64)
    # Positions are int32, and the per-entry arrays are reused in place,
    # to keep this pass's memory small next to the gathered plan.
    pos = np.full(state_count, m, dtype=np.int32)
    pos[order] = np.arange(m, dtype=np.int32)
    state_off = entry_off[pair_off]
    own = np.repeat(np.arange(m, dtype=np.int32), np.diff(state_off))
    earlier = pos[ecol]
    earlier[earlier >= own] = -1
    latest = np.maximum.reduceat(earlier, state_off[:-1]).tolist()
    cuts = [0]
    start = 0
    for i, j in enumerate(latest):
        if j >= start:
            cuts.append(i)
            start = i
    cuts.append(m)
    return np.asarray(cuts, dtype=np.int64)


def _stay_pairs(order, pair_off, entry_off, ecol, eprob, erew, gamma):
    """The plan pairs that stay at their state forever, and their values.

    A pair with gamma * p(x|x,u) >= 1 is worth 0 without reward and -inf
    at a cost, as in rvi_pass, and raises DivergentSelfLoop with a gain,
    naming the first such state of the order.  A pair's successors are
    distinct and gamma <= 1, so only an entry with p >= 1 can be one.
    """
    e = np.flatnonzero(eprob >= 1.0)
    pair = np.searchsorted(entry_off, e, side="right") - 1
    x = order[np.searchsorted(pair_off, pair, side="right") - 1]
    keep = (ecol[e] == x) & (1.0 - gamma * eprob[e] <= 0.0)
    stay, x = pair[keep], x[keep]
    if stay.size == 0:
        return stay, np.empty(0, dtype=np.float64)
    lo, hi = entry_off[stay], entry_off[stay + 1]
    entries = gather_ranges(lo, hi - lo)
    rbar = np.add.reduceat(eprob[entries] * erew[entries], _offsets(hi - lo)[:-1])
    gain = np.flatnonzero(rbar > 0.0)
    if gain.size:
        raise DivergentSelfLoop(f"state {int(x[gain[0]])} has gamma * p(x|x,u) = 1")
    return stay, np.where(rbar < 0.0, -np.inf, 0.0)


def sweep_plan(order, state_ptr, pair_ptr, col, prob, rew, gamma):
    """Gather the distinct states of order into a SweepPlan, runs included."""
    gathered = _gather(order, state_ptr, pair_ptr, col, prob, rew)
    _, pair_off, entry_off, ecol, eprob, erew = gathered
    run_ptr = _conflict_free_runs(
        order, state_ptr.size - 1, pair_off, entry_off, ecol
    )
    stay = _stay_pairs(order, pair_off, entry_off, ecol, eprob, erew, gamma)
    return SweepPlan(*gathered, run_ptr, *stay)


# Entries that rvi_pass gathers at once: enough to spread a block's fixed
# cost over many level groups, few enough that its temporaries stay small
# next to the model.
_BLOCK_ENTRIES = 1 << 16


def _block_cuts(level_states, state_ptr, pair_ptr):
    """Cut level_states into blocks of at most _BLOCK_ENTRIES entries.

    Returns the cut positions, 0 and the end included.  A state with more
    entries than the bound is a block of its own.
    """
    p_starts = state_ptr[level_states]
    cum = _offsets(pair_ptr[state_ptr[level_states + 1]] - pair_ptr[p_starts])
    cuts = [0]
    while cuts[-1] < level_states.size:
        a = cuts[-1]
        b = int(np.searchsorted(cum, cum[a] + _BLOCK_ENTRIES, side="right")) - 1
        cuts.append(max(b, a + 1))
    return cuts


def _block_terms(xs, state_ptr, pair_ptr, col, prob, rew, gamma, pos):
    """Gather the states xs and the parts of their pairs' updates that do not read v.

    Returns the gather's pairs, pair and entry offsets, successors and
    probabilities, each pair's expected reward rbar and denominator
    1 - gamma * p(x|x,u), and the latest place in pos that each state
    reads, self-loops aside.
    """
    pairs, pair_off, entry_off, ecol, eprob, erew = _gather(
        xs, state_ptr, pair_ptr, col, prob, rew
    )
    state_off = entry_off[pair_off]
    is_self = ecol == np.repeat(xs, np.diff(state_off))
    ebounds = entry_off[:-1]
    rbar = np.add.reduceat(eprob * erew, ebounds)
    alpha = np.add.reduceat(np.where(is_self, eprob, 0.0), ebounds)
    reads = pos[ecol]
    reads[is_self] = -1
    latest = np.maximum.reduceat(reads, state_off[:-1])
    return pairs, pair_off, entry_off, ecol, eprob, rbar, 1.0 - gamma * alpha, latest


def _raise_level_error(xs, level_start, *model):
    """Raise what a pass over the one level xs, placed at level_start, raises.

    The first state that reads an unsolved successor wins; failing that,
    the first state with a pair that stays forever at a gain.
    """
    _, pair_off, _, _, _, rbar, denom, latest = _block_terms(xs, *model)
    late = np.flatnonzero(latest >= level_start)
    if late.size:
        x = int(xs[late[0]])
        raise ScheduleMismatch(f"state {x} reads an unsolved successor")
    bad = np.flatnonzero((denom <= 0.0) & (rbar > 0.0))[0]
    x = int(xs[np.searchsorted(pair_off, bad, side="right") - 1])
    raise DivergentSelfLoop(f"state {x} has gamma * p(x|x,u) = 1")


def _level_groups(a, b, level_firsts, latest):
    """Cut the block level_states[a:b] into groups backed up in one step each.

    Returns offsets into the block, 0 and b - a included.  level_firsts
    holds the places where levels start, and latest the latest place each
    state of the block reads.  A level, or its part in the block, joins
    the group before it unless it reads one of that group's states, so no
    group reads itself and each group reads the one before it.
    """
    k0, k1 = np.searchsorted(level_firsts, (a + 1, b))
    starts = level_firsts[k0:k1]
    group_ptr = [0]
    if starts.size:
        group_start = a
        reads = np.maximum.reduceat(latest, starts - a).tolist()
        for p, j in zip(starts.tolist(), reads):
            if j >= group_start:
                group_ptr.append(p - a)
                group_start = p
    group_ptr.append(b - a)
    return group_ptr


def rvi_pass(
    level_ptr,
    level_states,
    state_ptr,
    pair_action,
    pair_ptr,
    col,
    prob,
    rew,
    gamma,
    v,
    solved,
    q,
    pol,
):
    """Back up the levels level_states[level_ptr[k]:level_ptr[k + 1]] in order.

    Each pair gets the self-loop closed form from its successors' final
    values; solved flags the states whose values are final on entry, and
    is only read.  The states are taken in blocks of at most
    _BLOCK_ENTRIES entries (one state may exceed it).  A block is
    gathered, checked and given its pairs' value-free terms at once; then
    each run of consecutive levels in it that reads none of its own
    states is backed up in one step, and the block's policy is its first
    best pairs.  Values, policy and errors are those of a pass that backs
    up one level at a time.
    """
    m = level_states.size
    if m == 0:
        return
    # A state's place in level_states, -1 once solved and m if it is never
    # scheduled: a state reads an unsolved successor exactly when the
    # successor's place is at or after the start of the state's own level.
    pos = np.full(v.size, m, dtype=np.int64)
    pos[level_states] = np.arange(m, dtype=np.int64)
    pos[solved.astype(bool)] = -1
    level_start = np.repeat(level_ptr[:-1], np.diff(level_ptr))
    level_firsts = np.flatnonzero(level_start == np.arange(m))
    model = (state_ptr, pair_ptr, col, prob, rew, gamma, pos)
    # Unsolved states read as +0.0, so a self-loop entry adds p * 0.0 = 0.0
    # to the successor sum; the denominator accounts for it instead.
    v[level_states] = 0.0
    cuts = _block_cuts(level_states, state_ptr, pair_ptr)
    for a, b in zip(cuts[:-1], cuts[1:]):
        xs = level_states[a:b]
        pairs, pair_off, entry_off, ecol, eprob, rbar, denom, latest = (
            _block_terms(xs, *model)
        )
        stuck = denom <= 0.0
        late = latest >= level_start[a:b]
        bad = stuck & (rbar > 0.0)
        if np.any(late) or np.any(bad):
            fails = late | np.logical_or.reduceat(bad, pair_off[:-1])
            lo = level_start[a + np.flatnonzero(fails)[0]]
            k = np.searchsorted(level_firsts, lo, side="right")
            hi = level_firsts[k] if k < level_firsts.size else m
            _raise_level_error(level_states[lo:hi], lo, *model)
        # A pair with gamma * p(x|x,u) >= 1 stays at x forever: worth 0
        # without reward and -inf at a cost.
        fixed = np.where(rbar < 0.0, -np.inf, 0.0) if np.any(stuck) else None

        # Each group's bounds, and each pair's and entry's offset in its
        # group, so that a group step only slices.
        group_ptr = np.asarray(_level_groups(a, b, level_firsts, latest))
        group_pairs = pair_off[group_ptr]
        group_entries = entry_off[group_pairs]
        pair_in = pair_off[:-1] - np.repeat(group_pairs[:-1], np.diff(group_ptr))
        entry_in = entry_off[:-1] - np.repeat(
            group_entries[:-1], np.diff(group_pairs)
        )
        bounds = np.column_stack((group_ptr, group_pairs, group_entries)).tolist()
        qall = np.empty(pairs.size, dtype=np.float64)
        vblk = np.empty(b - a, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            for (s, pa, ea), (t, pb, eb) in zip(bounds, bounds[1:]):
                sums = np.add.reduceat(
                    eprob[ea:eb] * v[ecol[ea:eb]], entry_in[pa:pb]
                )
                qvals = np.divide(
                    rbar[pa:pb] + gamma * sums, denom[pa:pb], out=qall[pa:pb]
                )
                if fixed is not None:
                    np.copyto(qvals, fixed[pa:pb], where=stuck[pa:pb])
                np.maximum.reduceat(qvals, pair_in[s:t], out=vblk[s:t])
                v[xs[s:t]] = vblk[s:t]

        hit = qall == np.repeat(vblk, np.diff(pair_off))
        idx = np.where(hit, np.arange(pairs.size, dtype=np.int64), pairs.size)
        first = np.minimum.reduceat(idx, pair_off[:-1])
        q[pairs] = qall
        pol[xs] = pair_action[pairs[first]]


def gs_sweep(order, state_ptr, pair_action, pair_ptr, plan, gamma, v, q, pol):
    """One Gauss-Seidel sweep over order; returns the largest value change.

    plan is sweep_plan(order, ...) of the same model, and the sweep reads
    the model's entries only through it.  state_ptr and pair_ptr are
    those of that model; they let a caller count the entries a sweep
    covers from its arguments alone.
    """
    # Each run is a slice of the plan.  Only v is read during the sweep
    # and each state is backed up once, so q, pol and the deltas are
    # settled after the last run.
    m = order.size
    if m == 0:
        return 0.0
    pairs, pair_off, entry_off, ecol, eprob, erew, run_ptr, stay, stay_q = plan
    p_lens = np.diff(pair_off)
    pair_idx = np.arange(pairs.size, dtype=np.int64)
    v_old = v[order]
    qall = np.empty(pairs.size, dtype=np.float64)
    first = np.empty(m, dtype=np.int64)
    # Each run's slice of the stay-forever pairs, whose values are fixed.
    stay_ptr = None
    if stay.size:
        stay_ptr = np.searchsorted(stay, pair_off[run_ptr]).tolist()

    for k in range(run_ptr.size - 1):
        s, t = run_ptr[k], run_ptr[k + 1]
        pa, pb = pair_off[s], pair_off[t]
        ea, eb = entry_off[pa], entry_off[pb]
        vals = eprob[ea:eb] * (erew[ea:eb] + gamma * v[ecol[ea:eb]])
        qvals = np.add.reduceat(vals, entry_off[pa:pb] - ea, out=qall[pa:pb])
        if stay_ptr is not None:
            i, j = stay_ptr[k], stay_ptr[k + 1]
            qall[stay[i:j]] = stay_q[i:j]
        sbounds = pair_off[s:t] - pa
        vmax = np.maximum.reduceat(qvals, sbounds)
        hit = qvals == np.repeat(vmax, p_lens[s:t])
        np.minimum.reduceat(
            np.where(hit, pair_idx[pa:pb], pairs.size), sbounds, out=first[s:t]
        )
        v[order[s:t]] = qall[first[s:t]]

    q[pairs] = qall
    pol[order] = pair_action[pairs[first]]
    return float(np.max(np.abs(v[order] - v_old)))


def _backup_state(
    x, state_ptr, pair_action, pair_ptr, col, prob, rew, gamma, v, q, stay
):
    a, b = state_ptr[x], state_ptr[x + 1]
    lo, hi = pair_ptr[a], pair_ptr[b]
    vals = prob[lo:hi] * (rew[lo:hi] + gamma * v[col[lo:hi]])
    bounds = pair_ptr[a:b] - lo
    qvals = np.add.reduceat(vals, bounds)
    if stay:
        for i in range(a, b):
            if i in stay:
                qvals[i - a] = stay[i]
    q[a:b] = qvals
    best = int(np.argmax(qvals))
    return qvals[best], pair_action[a + best], b - a


def bvi_run(
    seeds,
    is_transient,
    rev_ptr,
    rev_src,
    state_ptr,
    pair_action,
    pair_ptr,
    col,
    prob,
    rew,
    gamma,
    epsilon,
    max_dequeues,
    v,
    q,
    pol,
):
    # Pairs that stay forever keep their fixed values, as in gs_sweep.
    stay = _stay_pairs(
        np.arange(v.size, dtype=np.int64), state_ptr, pair_ptr, col, prob, rew, gamma
    )
    stay = dict(zip(*(part.tolist() for part in stay)))
    in_q = np.zeros(v.size, dtype=np.uint8)
    visited = np.zeros(v.size, dtype=np.uint8)
    queue = deque()
    for s in seeds:
        queue.append(int(s))
        in_q[s] = 1
    dequeues = 0
    backups = 0
    while queue:
        if dequeues >= max_dequeues:
            raise MaxSweepsExceeded(f"BVI hit the dequeue cap ({max_dequeues})")
        x = queue.popleft()
        in_q[x] = 0
        visited[x] = 1
        dequeues += 1
        best, act, n_pairs = _backup_state(
            x, state_ptr, pair_action, pair_ptr, col, prob, rew, gamma, v, q, stay
        )
        backups += int(n_pairs)
        delta = abs(best - v[x])
        v[x] = best
        pol[x] = act
        # A zero delta must not cut off upstream propagation: predecessors
        # that have never been backed up still need their first visit.
        for y in rev_src[rev_ptr[x] : rev_ptr[x + 1]]:
            if (
                is_transient[y]
                and not in_q[y]
                and (delta > epsilon or not visited[y])
            ):
                in_q[y] = 1
                queue.append(int(y))
    return dequeues, backups


def bellman_residual_pass(state_ptr, pair_ptr, col, prob, rew, gamma, v):
    vals = prob * (rew + gamma * v[col])
    qall = np.add.reduceat(vals, pair_ptr[:-1])
    vnew = np.maximum.reduceat(qall, state_ptr[:-1])
    return float(np.max(np.abs(vnew - v)))


def active_backend():
    """Name of the kernel implementation, kept for reports that record it."""
    return "numpy"
