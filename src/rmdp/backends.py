"""Numerical kernels: the hot loops of the solvers, vectorized with numpy.

rvi_pass backs up the one-pass solve's levels with the self-loop closed
form, gs_sweep runs one Gauss-Seidel sweep, bvi_run drives the queue of
backward value iteration, and bellman_residual_pass measures the
residual of one synchronous Bellman backup.  The kernels work on the flat
arrays of an Mdp and update the value, action-value and policy arrays
they are given in place.  Each keeps its own arithmetic, and they back up
states through shared helpers: _run_slices slices a group of states'
pairs and entries so that a step over it only slices; _stay_pairs finds
and values the pairs that stay forever; _first_best picks each state's
first best pair as np.argmax.

gs_sweep runs over a LevelPlan: states' pairs and entries gathered once
per solve in level order, each level one step backed up at once.  Each
entry reads the new or the old copy of its successor's value from a
two-copy buffer [v_new | v_old]: the new copy when the successor is
placed before the entry's state in the sweep order.  A level reads only
the new values of earlier levels, so the results are bit-identical to
the one-state-at-a-time loop (level scheduling of a triangular solve).
A plan for one fixed order (_order_plan) is levelled by the order's own
Kahn waves, read off the entries' successors alone, then gathered once
in wave order and indexed once.  A plan for sweeps in any order
(_level_plan) is levelled by the height of each state's component in
the condensation, a valid level for every order; each sweep re-indexes
it and lays the multi-state components out in the waves its order needs
(_level_steps).  rvi_pass gathers the levels in
blocks of at most mdp._BLOCK_ENTRIES (2^16) entries, computes a block's
value-free terms and schedule checks at once, and cuts the block's
levels into greedy maximal runs that read none of their own states
(_cut_runs).

A pair with gamma * p(x|x,u) >= 1 stays at x forever: every kernel
gives it the value 0 without reward and -inf at a cost, and raises
DivergentSelfLoop with a positive expected reward, naming the state.
rvi_pass raises ScheduleMismatch when a state reads an unsolved
successor, with the state and precedence of a pass over one level at a
time.  bvi_run raises MaxSweepsExceeded when its dequeue cap is hit.
Overflow and invalid values raise no numpy warning: such a value stays
inf or NaN, and the solvers report it.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import DivergentSelfLoop, MaxSweepsExceeded, ScheduleMismatch
from .mdp import _block_cuts, _offsets, gather_ranges
from .reachability import _frontier_heights


def _entry_spans(states, state_ptr, pair_ptr):
    """Where each state's entries start in the model, and how many it has."""
    starts = pair_ptr[state_ptr[states]]
    return starts, pair_ptr[state_ptr[states + 1]] - starts


def _gather(states, state_ptr, pair_ptr, col, prob, rew):
    """The pairs of states, their pair and entry offsets, and their entries."""
    p_starts = state_ptr[states]
    p_lens = state_ptr[states + 1] - p_starts
    pairs = gather_ranges(p_starts, p_lens)
    # A state's pairs are adjacent, and so are their entries.
    entries = gather_ranges(*_entry_spans(states, state_ptr, pair_ptr))
    entry_off = _offsets(pair_ptr[pairs + 1] - pair_ptr[pairs])
    return (
        pairs,
        _offsets(p_lens),
        entry_off,
        col[entries],
        prob[entries],
        rew[entries],
    )


def _blocks(key):
    """Where the runs of equal values of key start, and its size."""
    cut = np.ones(key.size, dtype=bool)
    cut[1:] = key[1:] != key[:-1]
    return np.append(np.flatnonzero(cut), key.size)


def _cut_runs(first, latest, start, end):
    """Cut the places start..end - 1 into greedy maximal runs.

    first[i] is where the unit of place start + i begins (its level, or
    the place itself), and latest[i] the latest place it reads; no place
    reads its own unit.  A unit joins the run before it unless it reads
    one of that run's places, so no run reads itself and each run after
    the first reads the one before it.  Returns the run bounds counted
    from start, 0 and end - start included.
    """
    cuts = [start]
    for p, j in zip(first, latest.tolist()):
        if j >= cuts[-1]:
            cuts.append(p)
    cuts.append(end)
    return np.asarray(cuts, dtype=np.int64) - start


def _run_slices(run_ptr, pair_off, entry_off):
    """Where each run starts, and where its states and pairs start within it.

    Returns one row (state, pair, entry) per run start, the end included,
    then each state's first pair and each pair's first entry counted from
    its run's, so that a step over a run only slices.
    """
    run_pairs = pair_off[run_ptr]
    run_entries = entry_off[run_pairs]
    pair_in = pair_off[:-1] - np.repeat(run_pairs[:-1], np.diff(run_ptr))
    entry_in = entry_off[:-1] - np.repeat(run_entries[:-1], np.diff(run_pairs))
    return np.column_stack((run_ptr, run_pairs, run_entries)), pair_in, entry_in


def _step_rows(starts, stay):
    """The rows of starts with each step's first stay pair, as lists."""
    return np.column_stack((starts, np.searchsorted(stay, starts[:, 1]))).tolist()


def _stay_pairs(states, pair_off, entry_off, ecol, eprob, erew, gamma):
    """The pairs of gathered states that stay at their state forever.

    Returns the pairs (ascending), their values and the places in states
    of the pairs with a gain (ascending).  A pair with
    gamma * p(x|x,u) >= 1 is worth 0 without reward and -inf at a cost;
    with a positive expected reward it diverges, and the caller raises
    DivergentSelfLoop in its own precedence.  A pair's successors are
    distinct and gamma <= 1, so only an entry with p >= 1 can be one.
    """
    e = np.flatnonzero(eprob >= 1.0)
    pair = np.searchsorted(entry_off, e, side="right") - 1
    place = np.searchsorted(pair_off, pair, side="right") - 1
    keep = (ecol[e] == states[place]) & (1.0 - gamma * eprob[e] <= 0.0)
    stay, place = pair[keep], place[keep]
    lo, hi = entry_off[stay], entry_off[stay + 1]
    entries = gather_ranges(lo, hi - lo)
    rbar = np.add.reduceat(eprob[entries] * erew[entries], _offsets(hi - lo)[:-1])
    return stay, np.where(rbar < 0.0, -np.inf, 0.0), place[rbar > 0.0]


def _divergent(x):
    return DivergentSelfLoop(f"state {int(x)} has gamma * p(x|x,u) = 1")


def _first_best(qvals, best, p_lens, bounds, idx, out=None):
    """Each state's first best pair, as np.argmax picks it from its q values.

    qvals holds the q values of consecutive states, p_lens their pair
    counts, bounds their first pairs' offsets in qvals, best their
    largest q values (np.maximum.reduceat of qvals) and idx the pairs'
    indices.  A NaN counts as the largest, so a state whose best is NaN
    gets its first NaN pair.  Every state hits one of its own pairs, so
    the fill idx[-1] never wins.
    """
    hit = qvals == np.repeat(best, p_lens)
    hit |= np.isnan(qvals)
    return np.minimum.reduceat(np.where(hit, idx, idx[-1]), bounds, out=out)


class _ClassPart(NamedTuple):
    """The states of multi-state components, as _level_plan gathered them.

    slots, pair_slots and entry_slots are their places in the plan's
    layout, which each sweep refills in wave order.  The other arrays are
    the states' own copies, counted locally in gathered order (height,
    then id): states and base (height times the number of states) per
    state; pair_off, each state's pairs, with the end; pairs per pair;
    entry_off, each pair's entries, with the end; ecol, eprob and erew
    per entry; stay and stay_q, the local pairs that
    stay forever and their values; src and dst, the edges between
    distinct states of one component, src ascending.
    """

    slots: np.ndarray
    pair_slots: np.ndarray
    entry_slots: np.ndarray
    states: np.ndarray
    base: np.ndarray
    pair_off: np.ndarray
    pairs: np.ndarray
    entry_off: np.ndarray
    ecol: np.ndarray
    eprob: np.ndarray
    erew: np.ndarray
    stay: np.ndarray
    stay_q: np.ndarray
    src: np.ndarray
    dst: np.ndarray


class LevelPlan(NamedTuple):
    """States' pairs and entries gathered once per solve, in level order.

    A level reads only the new values of earlier levels, so a sweep backs
    up each level in one step.  Per slot: dest, the state; p_lens and
    pair_in, its pair count and first pair counted from its step's.  Per
    pair: pairs and entry_in.  Per entry: reads, where in buf its
    successor's value is read (the new copy at the successor, the old at
    n + successor), eprob and erew.  steps are the (slot, pair, entry)
    starts of the levels, the end included, and stay, stay_q their pairs
    that stay forever and the pairs' values.  gains are the states with a
    pair that stays forever at a gain.  buf (the new values, then the
    old), qall, first and pair_idx are scratch that every sweep reuses.

    _order_plan builds a plan for one fixed order, levelled by the
    order's own waves and indexed once.  _level_plan builds a plan for
    sweeps in any order, levelled by (component height, in a multi-state
    component, id); its steps and stay pairs cover the single-state
    components.  Each sweep re-indexes it (_level_steps): reads from ecol,
    the entries' successors, with pos as scratch for the sweep's places,
    and the multi-state components of part laid out in the sweep's waves.
    """

    dest: np.ndarray
    p_lens: np.ndarray
    pair_in: np.ndarray
    pairs: np.ndarray
    entry_in: np.ndarray
    reads: np.ndarray
    eprob: np.ndarray
    erew: np.ndarray
    steps: np.ndarray
    stay: np.ndarray
    stay_q: np.ndarray
    gains: np.ndarray
    buf: np.ndarray
    qall: np.ndarray
    first: np.ndarray
    pair_idx: np.ndarray
    ecol: np.ndarray | None = None
    part: _ClassPart | None = None
    pos: np.ndarray | None = None


def _layout(dest, key, gathered, state_count, gamma):
    """Lay the states dest out as a LevelPlan, a level per run of equal key.

    gathered is what _gather returns for dest.  The plan's reads are the
    entries' successors, not yet pointed at buf (_point_reads).  Returns
    the plan and its pair and entry offsets.
    """
    pairs, pair_off, entry_off, ecol, eprob, erew = gathered
    stay, stay_q, gains = _stay_pairs(
        dest, pair_off, entry_off, ecol, eprob, erew, gamma
    )
    steps, pair_in, entry_in = _run_slices(_blocks(key), pair_off, entry_off)
    plan = LevelPlan(
        dest=dest,
        p_lens=np.diff(pair_off),
        pair_in=pair_in,
        pairs=pairs,
        entry_in=entry_in,
        reads=ecol,
        eprob=eprob,
        erew=erew,
        steps=steps,
        stay=stay,
        stay_q=stay_q,
        gains=dest[gains],
        buf=np.empty(2 * state_count, dtype=np.float64),
        qall=np.empty(pairs.size, dtype=np.float64),
        first=np.empty(dest.size, dtype=np.int64),
        pair_idx=np.arange(pairs.size, dtype=np.int64),
    )
    return plan, pair_off, entry_off


def _point_reads(reads, ecol, pos, dest, state_ptr, pair_ptr):
    """Point each entry of a plan at the copy of its successor it reads.

    ecol holds the successors of the entries of dest's states, laid out
    as the plan gathered them, and pos each state's place in the sweep.
    A successor placed before the entry's state is read from the new
    copy, at its id; any other, the state itself included, from the old
    copy at n + id.  The places are compared in blocks of at most
    _BLOCK_ENTRIES entries, so no entry-sized array of places is made.
    reads may be ecol itself.
    """
    n = pos.size
    e_lens = _entry_spans(dest, state_ptr, pair_ptr)[1]
    cum = _offsets(e_lens)
    own = pos[dest]
    cuts = _block_cuts(cum)
    for a, b in zip(cuts, cuts[1:]):
        lo, hi = cum[a], cum[b]
        later = pos[ecol[lo:hi]] >= np.repeat(own[a:b], e_lens[a:b])
        np.add(ecol[lo:hi], later * n, out=reads[lo:hi])


def _order_plan(order, state_ptr, pair_ptr, col, prob, rew, gamma):
    """Gather the distinct states of order into a LevelPlan for sweeps in it.

    The levels are the order's own waves: a state waits for its
    successors placed before it in order, read off the entries' columns
    alone.  The states are then gathered once, in wave order (a stable
    sort, so order itself when the waves already ascend along it), and
    the entries are indexed once.  Raises DivergentSelfLoop naming the
    first state of order with a pair that stays forever at a gain.
    """
    m = order.size
    # Places are int32 to keep the wave graph small next to the plan; a
    # state outside order is placed after all of it.
    pos = np.full(state_ptr.size - 1, m, dtype=np.int32)
    pos[order] = np.arange(m, dtype=np.int32)
    starts, e_lens = _entry_spans(order, state_ptr, pair_ptr)
    succ = pos[col[gather_ranges(starts, e_lens)]]
    own = np.repeat(np.arange(m, dtype=np.int32), e_lens)
    waits = succ < own
    wave = _frontier_heights(own[waits], succ[waits], m)
    del succ, own, waits  # entry-sized, and the gather below is the peak
    lay = np.argsort(wave, kind="stable")
    dest = order[lay]
    gathered = _gather(dest, state_ptr, pair_ptr, col, prob, rew)
    plan, _, _ = _layout(dest, wave[lay], gathered, state_ptr.size - 1, gamma)
    if plan.gains.size:
        raise _divergent(order[pos[plan.gains].min()])
    _point_reads(plan.reads, plan.reads, pos, plan.dest, state_ptr, pair_ptr)
    return plan


def _slot_perm(perm, pair_off, entry_off):
    """Lay gathered states out in perm's order.

    pair_off gives each state's pairs in the gather and entry_off each
    pair's entries, both with the end.  Returns the states' pair counts
    in the new order, the pairs' places in the gather, the pairs' entry
    counts in the new order and the entries' places in the gather.  A
    state's pairs are adjacent, and so are their entries.
    """
    first, last = pair_off[perm], pair_off[perm + 1]
    p_lens = last - first
    pperm = gather_ranges(first, p_lens)
    starts = entry_off[first]
    eperm = gather_ranges(starts, entry_off[last] - starts)
    return p_lens, pperm, np.diff(entry_off)[pperm], eperm


def _level_plan(
    height, class_src, class_dst, state_ptr, pair_ptr, col, prob, rew, gamma
):
    """Gather every state once into a LevelPlan for sweeps in any order.

    height[x] is the height of x's component in the condensation of the
    model's support, and class_src, class_dst the support's edges between
    distinct states of one component.
    """
    n = height.size
    in_class = np.zeros(n, dtype=bool)
    in_class[class_src] = True
    key = 2 * height + in_class
    lay = np.argsort(key, kind="stable")
    plan, pair_off, entry_off = _layout(
        lay, key[lay], _gather(lay, state_ptr, pair_ptr, col, prob, rew), n, gamma
    )
    ecol, pairs, stay, stay_q = plan.reads, plan.pairs, plan.stay, plan.stay_q

    # The class blocks' steps are replaced by their waves in every sweep.
    steps = plan.steps[np.append(~in_class[lay[plan.steps[:-1, 0]]], True)]
    slots = np.flatnonzero(in_class[lay])
    states = lay[slots]
    c_plens, pair_slots, c_elens, entry_slots = _slot_perm(slots, pair_off, entry_off)
    shared = in_class[lay[np.searchsorted(pair_off, stay, side="right") - 1]]
    loc = np.zeros(n, dtype=np.int64)
    loc[states] = np.arange(states.size, dtype=np.int64)
    by_src = np.argsort(loc[class_src], kind="stable")
    part = _ClassPart(
        slots=slots,
        pair_slots=pair_slots,
        entry_slots=entry_slots,
        states=states,
        base=height[states] * states.size,
        pair_off=_offsets(c_plens),
        pairs=pairs[pair_slots],
        entry_off=_offsets(c_elens),
        ecol=ecol[entry_slots],
        eprob=plan.eprob[entry_slots],
        erew=plan.erew[entry_slots],
        stay=np.searchsorted(pair_slots, stay[shared]),
        stay_q=stay_q[shared],
        src=loc[class_src][by_src],
        dst=loc[class_dst][by_src],
    )
    return plan._replace(
        reads=np.empty(ecol.size, dtype=np.int64),
        steps=steps,
        stay=stay[~shared],
        stay_q=stay_q[~shared],
        ecol=ecol,
        part=part,
        pos=np.empty(n, dtype=np.int64),
    )


def _class_waves(plan, pos):
    """Lay the multi-state components out in this sweep's waves.

    A state waits for the states of its component placed before it in the
    sweep, and its wave is its Kahn height over those waits
    (_frontier_heights).  Rewrites the component slots of the plan in
    (height, wave, id) order and returns the steps and the stay pairs and
    values with the waves' steps and stay pairs merged in.
    """
    c = plan.part
    cpos = pos[c.states]
    waits = cpos[c.src] > cpos[c.dst]
    key = c.base + _frontier_heights(c.src[waits], c.dst[waits], c.states.size)
    perm = np.argsort(key, kind="stable")
    p_lens, pperm, e_lens, eperm = _slot_perm(perm, c.pair_off, c.entry_off)
    starts, pair_in, entry_in = _run_slices(
        _blocks(key[perm]), _offsets(p_lens), _offsets(e_lens)
    )

    plan.dest[c.slots] = c.states[perm]
    plan.p_lens[c.slots] = p_lens
    plan.pair_in[c.slots] = pair_in
    plan.pairs[c.pair_slots] = c.pairs[pperm]
    plan.entry_in[c.pair_slots] = entry_in
    for name in ("ecol", "eprob", "erew"):
        getattr(plan, name)[c.entry_slots] = getattr(c, name)[eperm]

    s, pa, ea = starts[:-1].T
    waves = np.column_stack((c.slots[s], c.pair_slots[pa], c.entry_slots[ea]))
    steps = np.concatenate((plan.steps[:-1], waves))
    steps = np.concatenate((steps[np.argsort(steps[:, 0])], plan.steps[-1:]))
    stay, stay_q = plan.stay, plan.stay_q
    if c.stay.size:
        place = np.empty(pperm.size, dtype=np.int64)
        place[pperm] = np.arange(pperm.size, dtype=np.int64)
        stay = np.concatenate((stay, c.pair_slots[place[c.stay]]))
        stay_q = np.concatenate((stay_q, c.stay_q))
        by_pair = np.argsort(stay)
        stay, stay_q = stay[by_pair], stay_q[by_pair]
    return steps, stay, stay_q


def _level_steps(plan, order, state_ptr, pair_ptr, v):
    """Ready a LevelPlan for one sweep in order and fill buf with v.

    A plan for sweeps in any order, where order is a permutation of the
    states, lays out its multi-state components in this order's waves
    and points each entry at the new or the old copy of its successor.
    Returns the steps' (slot, pair, entry) starts, the end included, and
    the stay pairs and values.  Raises DivergentSelfLoop naming the first
    state of order with a pair that stays forever at a gain.
    """
    n = v.size
    steps, stay, stay_q = plan.steps, plan.stay, plan.stay_q
    if plan.part is not None:
        pos = plan.pos
        pos[order] = np.arange(n, dtype=np.int64)
        if plan.gains.size:
            raise _divergent(plan.gains[np.argmin(pos[plan.gains])])
        if plan.part.states.size:
            steps, stay, stay_q = _class_waves(plan, pos)
        _point_reads(plan.reads, plan.ecol, pos, plan.dest, state_ptr, pair_ptr)
    plan.buf[:n] = v
    plan.buf[n:] = v
    return steps, stay, stay_q


def _block_terms(xs, state_ptr, pair_ptr, col, prob, rew, gamma, pos):
    """Gather the states xs and the parts of their pairs' updates that do not read v.

    Returns the gather's pairs, pair and entry offsets, successors and
    probabilities, each pair's expected reward rbar and denominator
    1 - gamma * p(x|x,u), the latest place in pos that each state reads,
    self-loops aside, and the three arrays of _stay_pairs.
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
    denom = 1.0 - gamma * alpha
    stay = _stay_pairs(xs, pair_off, entry_off, ecol, eprob, erew, gamma)
    return pairs, pair_off, entry_off, ecol, eprob, rbar, denom, latest, *stay


def _raise_level_error(xs, level_start, *model):
    """Raise what a pass over the one level xs, placed at level_start, raises.

    The first state that reads an unsolved successor wins; failing that,
    the first state with a pair that stays forever at a gain.
    """
    *_, latest, _, _, gains = _block_terms(xs, *model)
    late = np.flatnonzero(latest >= level_start)
    if late.size:
        x = int(xs[late[0]])
        raise ScheduleMismatch(f"state {x} reads an unsolved successor")
    raise _divergent(xs[gains[0]])


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
    its levels are cut into greedy maximal runs that read none of their
    own states, each backed up in one step, and the block's policy is its
    first best pairs.  Values, policy and errors are those of a pass that
    backs up one level at a time.
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
    model = (state_ptr, pair_ptr, col, prob, rew, gamma, pos)
    # Unsolved states read as +0.0, so a self-loop entry adds p * 0.0 = 0.0
    # to the successor sum; the denominator accounts for it instead.
    v[level_states] = 0.0
    cuts = _block_cuts(_offsets(_entry_spans(level_states, state_ptr, pair_ptr)[1]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, b in zip(cuts[:-1], cuts[1:]):
            xs = level_states[a:b]
            (pairs, pair_off, entry_off, ecol, eprob, rbar, denom, latest,
             stay, stay_q, gains) = _block_terms(xs, *model)
            late = np.flatnonzero(latest >= level_start[a:b])
            fails = np.concatenate((late[:1], gains[:1]))
            if fails.size:
                lo = level_start[a + fails.min()]
                hi = np.searchsorted(level_start, lo, side="right")
                _raise_level_error(level_states[lo:hi], lo, *model)

            run_ptr = _cut_runs(level_start[a:b].tolist(), latest, a, b)
            starts, pair_in, entry_in = _run_slices(run_ptr, pair_off, entry_off)
            starts = _step_rows(starts, stay)
            qall = np.empty(pairs.size, dtype=np.float64)
            vblk = np.empty(b - a, dtype=np.float64)
            for (s, pa, ea, sa), (t, pb, eb, sb) in zip(starts, starts[1:]):
                sums = np.add.reduceat(
                    eprob[ea:eb] * v[ecol[ea:eb]], entry_in[pa:pb]
                )
                qvals = np.divide(
                    rbar[pa:pb] + gamma * sums, denom[pa:pb], out=qall[pa:pb]
                )
                if sb > sa:
                    qall[stay[sa:sb]] = stay_q[sa:sb]
                np.maximum.reduceat(qvals, pair_in[s:t], out=vblk[s:t])
                v[xs[s:t]] = vblk[s:t]

            idx = np.arange(pairs.size, dtype=np.int64)
            first = _first_best(qall, vblk, np.diff(pair_off), pair_off[:-1], idx)
            q[pairs] = qall
            pol[xs] = pair_action[pairs[first]]


def gs_sweep(order, state_ptr, pair_action, pair_ptr, plan, gamma, v, q, pol):
    """One Gauss-Seidel sweep over order; returns the largest value change.

    plan is a LevelPlan of the same model: _order_plan(order, ...), built
    for this order, or a _level_plan of the model when order is a
    permutation of all its states.  The sweep reads the model's entries
    only through the plan, and writes v, q and pol only for order's
    states.  state_ptr and pair_ptr are those of that model; they let a
    caller count the entries a sweep covers from its arguments alone.
    """
    # Each step is a level of the plan.  A step's states read only buf,
    # through reads, and each state is backed up once, so q, pol and the
    # deltas are settled after the last step.
    starts, stay, stay_q = _level_steps(plan, order, state_ptr, pair_ptr, v)
    dest, p_lens, pair_in = plan.dest, plan.p_lens, plan.pair_in
    pairs, entry_in, reads = plan.pairs, plan.entry_in, plan.reads
    eprob, erew, buf = plan.eprob, plan.erew, plan.buf
    qall, first, pair_idx = plan.qall, plan.first, plan.pair_idx
    starts = _step_rows(starts, stay)
    with np.errstate(over="ignore", invalid="ignore"):
        for (s, pa, ea, sa), (t, pb, eb, sb) in zip(starts, starts[1:]):
            vals = eprob[ea:eb] * (erew[ea:eb] + gamma * buf[reads[ea:eb]])
            qvals = np.add.reduceat(vals, entry_in[pa:pb], out=qall[pa:pb])
            if sb > sa:
                qall[stay[sa:sb]] = stay_q[sa:sb]
            bounds = pair_in[s:t]
            vmax = np.maximum.reduceat(qvals, bounds)
            _first_best(
                qvals, vmax, p_lens[s:t], bounds, pair_idx[pa:pb], out=first[s:t]
            )
            buf[dest[s:t]] = qall[first[s:t]]
        q[pairs] = qall
        pol[dest] = pair_action[pairs[first]]
        new = buf[dest]
        v[dest] = new
        return float(np.max(np.abs(new - buf[v.size + dest]), initial=0.0))


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
    """Backward value iteration from the queue seeds; returns (dequeues, backups).

    Each dequeued state gets a plain backup of all its pairs, and its
    transient predecessors (rev_ptr, rev_src) are queued when its value
    moved by more than epsilon or they were never backed up.  Pairs that
    stay forever keep their fixed values, as in gs_sweep.
    """
    n = v.size
    stay, stay_q, gains = _stay_pairs(
        np.arange(n, dtype=np.int64), state_ptr, pair_ptr, col, prob, rew, gamma
    )
    if gains.size:
        raise _divergent(gains[0])
    stay_ptr = np.searchsorted(stay, state_ptr).tolist()
    in_q = np.zeros(n, dtype=np.uint8)
    in_q[seeds] = 1
    visited = np.zeros(n, dtype=np.uint8)
    queue = deque(seeds.tolist())
    dequeues = 0
    backups = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while queue:
            if dequeues >= max_dequeues:
                raise MaxSweepsExceeded(f"BVI hit the dequeue cap ({max_dequeues})")
            x = queue.popleft()
            in_q[x] = 0
            visited[x] = 1
            dequeues += 1
            a, b = state_ptr[x], state_ptr[x + 1]
            lo, hi = pair_ptr[a], pair_ptr[b]
            vals = prob[lo:hi] * (rew[lo:hi] + gamma * v[col[lo:hi]])
            qvals = np.add.reduceat(vals, pair_ptr[a:b] - lo, out=q[a:b])
            i, j = stay_ptr[x], stay_ptr[x + 1]
            if j > i:
                q[stay[i:j]] = stay_q[i:j]
            best = int(np.argmax(qvals))
            backups += int(b - a)
            delta = abs(qvals[best] - v[x])
            v[x] = qvals[best]
            pol[x] = pair_action[a + best]
            # A zero delta must not cut off upstream propagation: predecessors
            # that have never been backed up still need their first visit.
            # The predecessors are distinct, so they are queued in one step
            # and in ascending order, as one at a time.
            ys = rev_src[rev_ptr[x] : rev_ptr[x + 1]]
            go = (is_transient[ys] != 0) & (in_q[ys] == 0)
            if not delta > epsilon:
                go &= visited[ys] == 0
            ys = ys[go]
            in_q[ys] = 1
            queue.extend(ys.tolist())
    return dequeues, backups


def bellman_residual_pass(state_ptr, pair_ptr, col, prob, rew, gamma, v):
    with np.errstate(over="ignore", invalid="ignore"):
        vals = prob * (rew + gamma * v[col])
        qall = np.add.reduceat(vals, pair_ptr[:-1])
        vnew = np.maximum.reduceat(qall, state_ptr[:-1])
        return float(np.max(np.abs(vnew - v)))


def active_backend():
    """Name of the kernel implementation, kept for reports that record it."""
    return "numpy"
