"""Numerical kernels in two interchangeable implementations.

The hot loops (one-pass level solve, Gauss-Seidel sweep, queue-driven
backward iteration, Bellman residual) exist twice: a numba-compiled
version and a numpy fallback with identical semantics.  The active
implementation is chosen at import time from the RMDP_BACKEND environment
variable ("numba" or "numpy"); unset picks numba when it is importable.

A Gauss-Seidel sweep takes its order cut into conflict-free runs
(conflict_free_runs): no state in a run reads a state placed earlier in
the same run, so every state of a run sees exactly the values the
one-state-at-a-time loop would show it.  The numpy sweep backs up each
run in vectorized form, with results bit-identical to that serial loop;
the numba sweep walks the runs state by state.

Kernels communicate failure through status codes instead of exceptions so
the compiled versions stay object-mode free:
  RVI pass: 0 ok, 1 unsolved successor, 2 divergent self-loop.
  BVI run: 0 converged (queue drained), 1 dequeue cap exceeded.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np

from .mdp import gather_ranges

_ENV_VAR = "RMDP_BACKEND"

RVI_OK = 0
RVI_UNSOLVED_SUCCESSOR = 1
RVI_DIVERGENT_LOOP = 2
BVI_OK = 0
BVI_CAP_EXCEEDED = 1


def _select_backend():
    choice = os.environ.get(_ENV_VAR, "").strip().lower()
    if choice not in ("", "numba", "numpy"):
        raise ValueError(f"{_ENV_VAR} must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numpy":
        return "numpy", None
    try:
        import numba
    except ImportError:
        if choice == "numba":
            raise RuntimeError(f"{_ENV_VAR}=numba but numba is not importable")
        return "numpy", None
    return "numba", numba


BACKEND, _numba = _select_backend()


# ---------------------------------------------------------------------------
# numpy implementations


def _offsets(lengths):
    """Start offsets of consecutive segments of the given lengths, plus the end."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _rvi_pass_np(
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
        p_starts = state_ptr[xs]
        p_lens = state_ptr[xs + 1] - p_starts
        pairs = gather_ranges(p_starts, p_lens)
        e_starts = pair_ptr[pairs]
        e_lens = pair_ptr[pairs + 1] - e_starts
        entries = gather_ranges(e_starts, e_lens)
        ecol = col[entries]
        eprob = prob[entries]
        state_of_pair = np.repeat(np.arange(xs.size, dtype=np.int64), p_lens)
        pair_of_entry = np.repeat(np.arange(pairs.size, dtype=np.int64), e_lens)
        x_of_entry = xs[state_of_pair[pair_of_entry]]
        is_self = ecol == x_of_entry

        unsolved = ~solved.astype(bool)[ecol] & ~is_self
        if np.any(unsolved):
            return RVI_UNSOLVED_SUCCESSOR, int(x_of_entry[np.where(unsolved)[0][0]])

        ebounds = _offsets(e_lens)[:-1]
        rbar = np.add.reduceat(eprob * rew[entries], ebounds)
        alpha = np.add.reduceat(np.where(is_self, eprob, 0.0), ebounds)
        s = np.add.reduceat(np.where(is_self, 0.0, eprob * v[ecol]), ebounds)
        denom = 1.0 - gamma * alpha
        bad = denom <= 0.0
        if np.any(bad):
            return RVI_DIVERGENT_LOOP, int(xs[state_of_pair[np.where(bad)[0][0]]])
        qvals = (rbar + gamma * s) / denom
        q[pairs] = qvals

        sbounds = _offsets(p_lens)[:-1]
        vmax = np.maximum.reduceat(qvals, sbounds)
        v[xs] = vmax
        hit = qvals == vmax[state_of_pair]
        idx = np.where(hit, np.arange(pairs.size, dtype=np.int64), pairs.size)
        first = np.minimum.reduceat(idx, sbounds)
        pol[xs] = pair_action[pairs[first]]
        solved[xs] = 1
    return RVI_OK, -1


def conflict_free_runs(order, state_ptr, pair_ptr, col):
    """Cut a sweep order into maximal conflict-free runs.

    order lists distinct states.  Returns run_ptr: run k is
    order[run_ptr[k]:run_ptr[k + 1]].  No state in a run has a stored
    successor placed earlier in the same run, so a run can be backed up
    at once from the values before it.  Self-loops and successors outside
    the order never conflict.  Runs are greedy and maximal: each run after
    the first starts at a state that reads a member of the run before it.
    """
    m = order.size
    if m == 0:
        return np.zeros(1, dtype=np.int64)
    pos = np.full(state_ptr.size - 1, m, dtype=np.int64)
    pos[order] = np.arange(m, dtype=np.int64)
    e_starts = pair_ptr[state_ptr[order]]
    e_lens = pair_ptr[state_ptr[order + 1]] - e_starts
    succ_pos = pos[col[gather_ranges(e_starts, e_lens)]]
    own_pos = np.repeat(np.arange(m, dtype=np.int64), e_lens)
    earlier = np.where(succ_pos < own_pos, succ_pos, -1)
    latest = np.maximum.reduceat(earlier, _offsets(e_lens)[:-1]).tolist()
    cuts = [0]
    start = 0
    for i, j in enumerate(latest):
        if j >= start:
            cuts.append(i)
            start = i
    cuts.append(m)
    return np.asarray(cuts, dtype=np.int64)


def _gs_sweep_np(
    order, state_ptr, pair_action, pair_ptr, col, prob, rew, gamma, v, q, pol, run_ptr
):
    # Gather the sweep's pairs and entries in sweep order once, so each run
    # is a slice of the gathered arrays.  Only v is read during the sweep
    # and each state is backed up once, so q, pol and the deltas are
    # settled after the last run.
    m = order.size
    if m == 0:
        return 0.0
    p_starts = state_ptr[order]
    p_lens = state_ptr[order + 1] - p_starts
    pairs = gather_ranges(p_starts, p_lens)
    e_starts = pair_ptr[p_starts]
    entries = gather_ranges(e_starts, pair_ptr[p_starts + p_lens] - e_starts)
    ecol = col[entries]
    eprob = prob[entries]
    erew = rew[entries]
    pair_off = _offsets(p_lens)
    entry_off = _offsets(pair_ptr[pairs + 1] - pair_ptr[pairs])
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


def _backup_state_np(x, state_ptr, pair_action, pair_ptr, col, prob, rew, gamma, v, q):
    a, b = state_ptr[x], state_ptr[x + 1]
    lo, hi = pair_ptr[a], pair_ptr[b]
    vals = prob[lo:hi] * (rew[lo:hi] + gamma * v[col[lo:hi]])
    bounds = pair_ptr[a:b] - lo
    qvals = np.add.reduceat(vals, bounds)
    q[a:b] = qvals
    best = int(np.argmax(qvals))
    return qvals[best], pair_action[a + best], b - a


def _bvi_run_np(
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
            return dequeues, backups, BVI_CAP_EXCEEDED
        x = queue.popleft()
        in_q[x] = 0
        visited[x] = 1
        dequeues += 1
        best, act, n_pairs = _backup_state_np(
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
    return dequeues, backups, BVI_OK


def _bellman_residual_np(state_ptr, pair_ptr, col, prob, rew, gamma, v):
    vals = prob * (rew + gamma * v[col])
    qall = np.add.reduceat(vals, pair_ptr[:-1])
    vnew = np.maximum.reduceat(qall, state_ptr[:-1])
    return float(np.max(np.abs(vnew - v)))


_NUMPY_IMPL = {
    "rvi_pass": _rvi_pass_np,
    "gs_sweep": _gs_sweep_np,
    "bvi_run": _bvi_run_np,
    "bellman_residual": _bellman_residual_np,
}


# ---------------------------------------------------------------------------
# numba implementations

_NUMBA_IMPL = None

if _numba is not None:
    njit = _numba.njit

    @njit(cache=True)
    def _rvi_pass_nb(
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
            for k in range(level_ptr[lv], level_ptr[lv + 1]):
                x = level_states[k]
                best = -np.inf
                best_pair = -1
                for i in range(state_ptr[x], state_ptr[x + 1]):
                    alpha = 0.0
                    rbar = 0.0
                    s = 0.0
                    for e in range(pair_ptr[i], pair_ptr[i + 1]):
                        c = col[e]
                        p = prob[e]
                        rbar += p * rew[e]
                        if c == x:
                            alpha += p
                        else:
                            if solved[c] == 0:
                                return RVI_UNSOLVED_SUCCESSOR, x
                            s += p * v[c]
                    denom = 1.0 - gamma * alpha
                    if denom <= 0.0:
                        return RVI_DIVERGENT_LOOP, x
                    qi = (rbar + gamma * s) / denom
                    q[i] = qi
                    if qi > best:
                        best = qi
                        best_pair = i
                v[x] = best
                pol[x] = pair_action[best_pair]
            for k in range(level_ptr[lv], level_ptr[lv + 1]):
                solved[level_states[k]] = 1
        return RVI_OK, -1

    @njit(cache=True)
    def _gs_sweep_nb(
        order,
        state_ptr,
        pair_action,
        pair_ptr,
        col,
        prob,
        rew,
        gamma,
        v,
        q,
        pol,
        run_ptr,
    ):
        max_delta = 0.0
        for r in range(run_ptr.size - 1):
            for k in range(run_ptr[r], run_ptr[r + 1]):
                x = order[k]
                best = -np.inf
                best_pair = -1
                for i in range(state_ptr[x], state_ptr[x + 1]):
                    acc = 0.0
                    for e in range(pair_ptr[i], pair_ptr[i + 1]):
                        acc += prob[e] * (rew[e] + gamma * v[col[e]])
                    q[i] = acc
                    if acc > best:
                        best = acc
                        best_pair = i
                delta = abs(best - v[x])
                if delta > max_delta:
                    max_delta = delta
                v[x] = best
                pol[x] = pair_action[best_pair]
        return max_delta

    @njit(cache=True)
    def _bvi_run_nb(
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
        n = v.size
        queue = np.empty(n + 1, dtype=np.int64)
        in_q = np.zeros(n, dtype=np.uint8)
        visited = np.zeros(n, dtype=np.uint8)
        head = 0
        tail = 0
        for j in range(seeds.size):
            queue[tail] = seeds[j]
            tail += 1
            in_q[seeds[j]] = 1
        dequeues = 0
        backups = 0
        while head != tail:
            if dequeues >= max_dequeues:
                return dequeues, backups, BVI_CAP_EXCEEDED
            x = queue[head]
            head += 1
            if head == queue.size:
                head = 0
            in_q[x] = 0
            visited[x] = 1
            dequeues += 1
            best = -np.inf
            best_pair = -1
            for i in range(state_ptr[x], state_ptr[x + 1]):
                acc = 0.0
                for e in range(pair_ptr[i], pair_ptr[i + 1]):
                    acc += prob[e] * (rew[e] + gamma * v[col[e]])
                q[i] = acc
                backups += 1
                if acc > best:
                    best = acc
                    best_pair = i
            delta = abs(best - v[x])
            v[x] = best
            pol[x] = pair_action[best_pair]
            # A zero delta must not cut off upstream propagation:
            # predecessors that were never backed up still need their
            # first visit.
            for j in range(rev_ptr[x], rev_ptr[x + 1]):
                y = rev_src[j]
                if (
                    is_transient[y] == 1
                    and in_q[y] == 0
                    and (delta > epsilon or visited[y] == 0)
                ):
                    in_q[y] = 1
                    queue[tail] = y
                    tail += 1
                    if tail == queue.size:
                        tail = 0
        return dequeues, backups, BVI_OK

    @njit(cache=True)
    def _bellman_residual_nb(state_ptr, pair_ptr, col, prob, rew, gamma, v):
        res = 0.0
        for x in range(state_ptr.size - 1):
            best = -np.inf
            for i in range(state_ptr[x], state_ptr[x + 1]):
                acc = 0.0
                for e in range(pair_ptr[i], pair_ptr[i + 1]):
                    acc += prob[e] * (rew[e] + gamma * v[col[e]])
                if acc > best:
                    best = acc
            d = abs(best - v[x])
            if d > res:
                res = d
        return res

    _NUMBA_IMPL = {
        "rvi_pass": _rvi_pass_nb,
        "gs_sweep": _gs_sweep_nb,
        "bvi_run": _bvi_run_nb,
        "bellman_residual": _bellman_residual_nb,
    }

IMPLEMENTATIONS = {"numpy": _NUMPY_IMPL}
if _NUMBA_IMPL is not None:
    IMPLEMENTATIONS["numba"] = _NUMBA_IMPL

_ACTIVE = IMPLEMENTATIONS[BACKEND]

rvi_pass = _ACTIVE["rvi_pass"]
gs_sweep = _ACTIVE["gs_sweep"]
bvi_run = _ACTIVE["bvi_run"]
bellman_residual_pass = _ACTIVE["bellman_residual"]


def active_backend():
    """Name of the kernel set selected at import time."""
    return BACKEND


def warmup():
    """Force kernel compilation on a dummy instance.

    Call once before timing anything so the first measured solve does not
    pay the JIT cost.  A no-op on the numpy backend.
    """
    if BACKEND != "numba":
        return
    state_ptr = np.array([0, 1, 2], dtype=np.int64)
    pair_action = np.zeros(2, dtype=np.int64)
    pair_ptr = np.array([0, 1, 2], dtype=np.int64)
    col = np.array([1, 1], dtype=np.int64)
    prob = np.ones(2, dtype=np.float64)
    rew = np.zeros(2, dtype=np.float64)
    v = np.zeros(2, dtype=np.float64)
    q = np.zeros(2, dtype=np.float64)
    pol = np.zeros(2, dtype=np.int64)
    solved = np.array([0, 1], dtype=np.uint8)
    levels = np.array([0, 1], dtype=np.int64)
    level_states = np.array([0], dtype=np.int64)
    rvi_pass(
        levels, level_states, state_ptr, pair_action, pair_ptr, col, prob, rew,
        1.0, v, solved, q, pol,
    )
    gs_sweep(
        level_states, state_ptr, pair_action, pair_ptr, col, prob, rew, 1.0, v, q, pol,
        conflict_free_runs(level_states, state_ptr, pair_ptr, col),
    )
    bvi_run(
        level_states,
        np.array([1, 0], dtype=np.uint8),
        np.array([0, 0, 2], dtype=np.int64),
        np.array([0, 1], dtype=np.int64),
        state_ptr, pair_action, pair_ptr, col, prob, rew,
        1.0, 1e-10, 100, v, q, pol,
    )
    bellman_residual_pass(state_ptr, pair_ptr, col, prob, rew, 1.0, v)
