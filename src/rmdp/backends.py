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
once for all its sweeps.  rvi_pass takes each level group's pairs and
entries from the same gather.  bellman_residual_pass reads the arrays as
stored, since gathering them in natural order would only copy them.

rvi_pass raises ScheduleMismatch when a state reads an unsolved
successor and DivergentSelfLoop on gamma * p(x|x,u) = 1, naming the
state; bvi_run raises MaxSweepsExceeded when its dequeue cap is hit.
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
    and run k of the order is order[run_ptr[k]:run_ptr[k + 1]].  Nothing
    in a plan changes during a sweep, so one plan serves every sweep over
    the same order.
    """

    pairs: np.ndarray
    pair_off: np.ndarray
    entry_off: np.ndarray
    col: np.ndarray
    prob: np.ndarray
    rew: np.ndarray
    run_ptr: np.ndarray


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


def sweep_plan(order, state_ptr, pair_ptr, col, prob, rew):
    """Gather the distinct states of order into a SweepPlan, runs included."""
    gathered = _gather(order, state_ptr, pair_ptr, col, prob, rew)
    _, pair_off, entry_off, ecol, _, _ = gathered
    run_ptr = _conflict_free_runs(
        order, state_ptr.size - 1, pair_off, entry_off, ecol
    )
    return SweepPlan(*gathered, run_ptr)


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
    for lv in range(level_ptr.size - 1):
        xs = level_states[level_ptr[lv] : level_ptr[lv + 1]]
        pairs, pair_off, entry_off, ecol, eprob, erew = _gather(
            xs, state_ptr, pair_ptr, col, prob, rew
        )
        p_lens = np.diff(pair_off)
        state_of_pair = np.repeat(np.arange(xs.size, dtype=np.int64), p_lens)
        pair_of_entry = np.repeat(
            np.arange(pairs.size, dtype=np.int64), np.diff(entry_off)
        )
        x_of_entry = xs[state_of_pair[pair_of_entry]]
        is_self = ecol == x_of_entry

        unsolved = ~solved.astype(bool)[ecol] & ~is_self
        if np.any(unsolved):
            x = int(x_of_entry[np.where(unsolved)[0][0]])
            raise ScheduleMismatch(f"state {x} reads an unsolved successor")

        ebounds = entry_off[:-1]
        rbar = np.add.reduceat(eprob * erew, ebounds)
        alpha = np.add.reduceat(np.where(is_self, eprob, 0.0), ebounds)
        s = np.add.reduceat(np.where(is_self, 0.0, eprob * v[ecol]), ebounds)
        denom = 1.0 - gamma * alpha
        bad = denom <= 0.0
        if np.any(bad):
            x = int(xs[state_of_pair[np.where(bad)[0][0]]])
            raise DivergentSelfLoop(f"state {x} has gamma * p(x|x,u) = 1")
        qvals = (rbar + gamma * s) / denom
        q[pairs] = qvals

        sbounds = pair_off[:-1]
        vmax = np.maximum.reduceat(qvals, sbounds)
        v[xs] = vmax
        hit = qvals == vmax[state_of_pair]
        idx = np.where(hit, np.arange(pairs.size, dtype=np.int64), pairs.size)
        first = np.minimum.reduceat(idx, sbounds)
        pol[xs] = pair_action[pairs[first]]
        solved[xs] = 1


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
    pairs, pair_off, entry_off, ecol, eprob, erew, run_ptr = plan
    p_lens = np.diff(pair_off)
    pair_idx = np.arange(pairs.size, dtype=np.int64)
    v_old = v[order]
    qall = np.empty(pairs.size, dtype=np.float64)
    first = np.empty(m, dtype=np.int64)

    for k in range(run_ptr.size - 1):
        s, t = run_ptr[k], run_ptr[k + 1]
        pa, pb = pair_off[s], pair_off[t]
        ea, eb = entry_off[pa], entry_off[pb]
        vals = eprob[ea:eb] * (erew[ea:eb] + gamma * v[ecol[ea:eb]])
        qvals = np.add.reduceat(vals, entry_off[pa:pb] - ea, out=qall[pa:pb])
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


def _backup_state(x, state_ptr, pair_action, pair_ptr, col, prob, rew, gamma, v, q):
    a, b = state_ptr[x], state_ptr[x + 1]
    lo, hi = pair_ptr[a], pair_ptr[b]
    vals = prob[lo:hi] * (rew[lo:hi] + gamma * v[col[lo:hi]])
    bounds = pair_ptr[a:b] - lo
    qvals = np.add.reduceat(vals, bounds)
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
            x, state_ptr, pair_action, pair_ptr, col, prob, rew, gamma, v, q
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
