"""Finite MDP and Markov-chain data model.

States and actions are dense integer ids.  Transition structure is stored
in a flat compressed-sparse-row layout so that solvers can run over plain
arrays: per state a contiguous range of (state, action) pairs, per pair a
contiguous range of (successor, probability, reward) entries.  Zero
probabilities are rejected at build time, so the stored support and the
probabilistic support coincide and reachability can be read straight off
the arrays.

All objects are immutable after construction.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateSuccessor,
    EmptyMask,
    InvalidPolicy,
    ModelError,
    NegativeProbability,
    NonStochasticRow,
)

ROW_SUM_TOL = 1e-12

_MODEL_KEYS = {"states", "actions", "discount", "mask", "transitions"}
_RECORD_KEYS = {"x", "u", "xp", "p", "r"}
_INT64 = np.iinfo(np.int64)


def _as_int_array(values, name):
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ModelError(f"{name} must be one-dimensional")
    return arr


def _check_integers(values, field):
    """Raise ModelError naming field(i) at the first value not an integer.

    Model ids must be JSON integers: a float, string or boolean is
    rejected, never truncated or parsed into a different model from the
    one the file describes.  The common all-int case costs one type scan.
    """
    if not set(map(type, values)) <= {int}:
        for i, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ModelError(f"{field(i)} must be an integer, got {v!r}")


def _as_reals(values, field):
    """values as a float64 array; ModelError names field(i) if one is not.

    Probabilities, rewards and the discount must be JSON numbers: a
    string or boolean is rejected, never parsed by float(), and so is an
    integer beyond the float64 range.  The common case costs one type scan.
    """
    if not set(map(type, values)) <= {int, float}:
        for i, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ModelError(f"{field(i)} must be a number, got {v!r}")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        k = next(k for k, v in enumerate(values) if abs(v) > sys.float_info.max)
        raise ModelError(f"{field(k)} out of range, got {values[k]}") from None


def gather_ranges(starts, lengths):
    """Concatenate index ranges [starts[i], starts[i]+lengths[i]) into one array."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    # Method calls, not np.cumsum and np.repeat: this runs once per Kahn
    # frontier, where the arrays are small and call overhead dominates.
    ends = lengths.cumsum()
    back = (ends - lengths - starts).repeat(lengths)
    out = np.arange(back.size, dtype=np.int64)
    out -= back
    return out


# Entries that a blocked pass gathers at once: enough to spread a block's
# fixed cost over many rows, few enough that its temporaries stay small
# next to the model.
_BLOCK_ENTRIES = 1 << 16


def _block_cuts(cum):
    """Cut rows into blocks of at most _BLOCK_ENTRIES entries.

    cum[i] is the number of entries of the rows before the i-th, the
    total last.  Returns the cut positions, 0 and the end included.  A
    row with more entries than the bound is a block of its own, so a
    model within the bound takes one block, found without a search.
    """
    cuts, a, end = [0], 0, cum.size - 1
    while a < end:
        if cum[end] - cum[a] <= _BLOCK_ENTRIES:
            a = end
        else:
            b = int(np.searchsorted(cum, cum[a] + _BLOCK_ENTRIES, side="right")) - 1
            a = max(b, a + 1)
        cuts.append(a)
    return cuts


def _compact(arr, keep):
    """arr[keep], moved to the start of arr itself, which shrinks to it.

    Block by block: a block's kept entries never land past its start, so
    they overwrite only entries already read, and no second array of
    arr's size is made.  arr must own its memory, and no view of it may
    be in use.
    """
    if np.count_nonzero(keep) == keep.size:
        return arr
    size = 0
    for lo in range(0, arr.size, _BLOCK_ENTRIES):
        part = arr[lo : lo + _BLOCK_ENTRIES][keep[lo : lo + _BLOCK_ENTRIES]]
        arr[size : size + part.size] = part
        size += part.size
    arr.resize(size, refcheck=False)
    return arr


def _offsets(lengths):
    """Start offsets of consecutive segments of the given lengths, plus the end."""
    out = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _unique_sorted(keys):
    """Distinct keys ascending.

    Sort-and-diff in place of np.unique, whose hash-based path for integer
    keys is an order of magnitude slower on millions of keys.
    """
    ranked = np.sort(keys)
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return ranked[first]


def _same_row(row_ptr, size):
    """Flags of entries 1..size - 1: is entry e + 1 in the same row as entry e.

    Entries count from row_ptr[0]; row_ptr spans size of them and does
    not decrease.  One boolean per entry, where a row id per entry would
    take eight bytes.
    """
    # A row that starts at entry c clears flag c - 1.  Only empty rows
    # start at entry 0 or at the end; their flags -1 and size - 1 fall on
    # the two spare flags past the returned ones.
    same = np.ones(size + 1, dtype=bool)
    same[row_ptr[1:-1] - (row_ptr[0] + 1)] = False
    return same[: max(size - 1, 0)]


def _check_rows(row_ptr, col, prob, rew, state_count, what):
    """Shared row validation.

    Probabilities and rewards must be finite, successors in range,
    probabilities positive, successors distinct per row and rows sum to 1.
    """
    for name, values in (("probability", prob), ("reward", rew)):
        if values is not None and not np.all(np.isfinite(values)):
            e = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ModelError(f"{what}: non-finite {name} {values[e]} at entry {e}")
    if col.size:
        if col.min() < 0 or col.max() >= state_count:
            raise ModelError(f"{what}: successor id out of range")
        bad = np.where(prob <= 0.0)[0]
        if bad.size:
            e = int(bad[0])
            raise NegativeProbability(
                f"{what}: non-positive probability {float(prob[e])!r} at entry {e}"
            )
    counts = np.diff(row_ptr)
    if (counts <= 0).any():
        if (counts == 0).any():
            r = int(np.where(counts == 0)[0][0])
            raise NonStochasticRow(f"{what}: row {r} has no entries (sum 0)")
        raise ModelError(f"{what}: row pointers must not decrease")
    dup = _same_row(row_ptr, col.size) & (col[1:] == col[:-1])
    if dup.any():
        e = int(np.where(dup)[0][0])
        r = int(np.searchsorted(row_ptr, row_ptr[0] + e, side="right")) - 1
        raise DuplicateSuccessor(f"{what}: duplicate successor {col[e]} in row {r}")
    sums = np.add.reduceat(prob, row_ptr[:-1])
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(off):
        r = int(np.where(off)[0][0])
        raise NonStochasticRow(f"{what}: row {r} sums to {float(sums[r])!r}")


def _sort_entries(key_row, col, prob, rew):
    """Order entries by (row, successor); returns sorted copies."""
    order = np.lexsort((col, key_row))
    return col[order], prob[order], None if rew is None else rew[order]


class MarkovChain:
    """Sparse row-stochastic transition structure over dense states.

    Attributes:
      state_count: number of states.
      row_ptr: int64[state_count + 1], entry range per state.
      col: int64[nnz] successor ids, ascending within each row.
      prob: float64[nnz] strictly positive probabilities.
      rew: optional float64[nnz] per-entry rewards.

    _condensation caches the reachability module's SCC condensation.
    """

    __slots__ = ("state_count", "row_ptr", "col", "prob", "rew", "_condensation")

    def __init__(self, state_count, row_ptr, col, prob, rew=None):
        self.state_count = int(state_count)
        self.row_ptr = _as_int_array(row_ptr, "row_ptr")
        self.col = _as_int_array(col, "col")
        self.prob = np.asarray(prob, dtype=np.float64)
        self.rew = None if rew is None else np.asarray(rew, dtype=np.float64)
        if self.row_ptr.size != self.state_count + 1:
            raise ModelError("row_ptr length mismatch")
        if (self.row_ptr[1:] < self.row_ptr[:-1]).any():
            raise ModelError("chain: row pointers must not decrease")
        if self.row_ptr[-1] - self.row_ptr[0] != self.col.size:
            raise ModelError("row_ptr does not match the entry count")
        # Callers such as Mdp.union_chain already emit (row, successor)
        # order; the stable sort would return the arrays unchanged.
        same_row = _same_row(self.row_ptr, self.col.size)
        if (same_row & (self.col[1:] < self.col[:-1])).any():
            row_of_entry = np.repeat(
                np.arange(self.state_count, dtype=np.int64), np.diff(self.row_ptr)
            )
            self.col, self.prob, self.rew = _sort_entries(
                row_of_entry, self.col, self.prob, self.rew
            )
        del same_row  # _check_rows builds its own
        _check_rows(
            self.row_ptr, self.col, self.prob, self.rew, self.state_count, "chain"
        )
        for arr in (self.row_ptr, self.col, self.prob, self.rew):
            if arr is not None:
                arr.setflags(write=False)
        self._condensation = None

    @classmethod
    def from_rows(cls, rows, rewards=None):
        """Build from a list of per-state [(successor, probability), ...] rows.

        rewards, if given, mirrors the nesting of rows with one real per entry.
        """
        lengths = [len(r) for r in rows]
        row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=row_ptr[1:])
        col = np.array([xp for r in rows for xp, _ in r], dtype=np.int64)
        prob = np.array([p for r in rows for _, p in r], dtype=np.float64)
        rew = None
        if rewards is not None:
            rew = np.array([v for r in rewards for v in r], dtype=np.float64)
            if rew.size != prob.size:
                raise ModelError("rewards shape does not match rows")
        return cls(len(rows), row_ptr, col, prob, rew)

    def row(self, x):
        """Successor and probability arrays of state x (views)."""
        a, b = self.row_ptr[x], self.row_ptr[x + 1]
        return self.col[a:b], self.prob[a:b]

    def self_loop_prob(self, x):
        cols, probs = self.row(x)
        hit = np.where(cols == x)[0]
        return float(probs[hit[0]]) if hit.size else 0.0

    def certain_self_loops(self):
        """Flags of the states with p(x, x) >= 1."""
        return _certain_self_loops(self.row_ptr, self.col, self.prob, 1)


def _certain_self_loops(row_ptr, col, prob, actions):
    """Flags of the states where each of their actions has p(x, x) >= 1.

    row_ptr spans each state's entries over all its actions, and actions
    counts them per state.  Rows sum to one only up to ROW_SUM_TOL, so a
    certain self-loop may carry a little more than 1.0 next to a tiny
    exit.  An action's successors are distinct, so counting a state's
    certain self-loops against its actions decides the rule exactly; a
    mixture would not, since k shares of 1/k need not sum to 1.0.
    """
    e = np.flatnonzero(prob >= 1.0)
    x = np.searchsorted(row_ptr, e, side="right") - 1
    return np.bincount(x[col[e] == x], minlength=row_ptr.size - 1) == actions


class Support:
    """Where an Mdp can go: every state's distinct successors over its actions.

    The support of the Mdp's union chain, which the reachability module
    reads in place of that chain.  Attributes as on a MarkovChain:
      state_count: number of states.
      row_ptr: int64[state_count + 1], entry range per state.
      col: int64[nnz] successor ids, ascending and distinct within each row.
      prob: float64[nnz] of ones.  A support has no probabilities; these
        are the weights of its adjacency matrix, made on each read as a
        read-only broadcast view of one float, which takes no memory.
    The self-loop rules need the Mdp's own entries, so they come from it:
    certain_self_loops() returns the flags that Mdp.certain_self_loops
    computed.  _condensation caches the reachability module's SCC
    condensation.
    """

    __slots__ = ("state_count", "row_ptr", "col", "_certain", "_condensation")

    def __init__(self, state_count, row_ptr, col, certain):
        self.state_count = state_count
        self.row_ptr = row_ptr
        self.col = col
        self._certain = certain
        for arr in (row_ptr, col, certain):
            arr.setflags(write=False)
        self._condensation = None

    @property
    def prob(self):
        return np.broadcast_to(np.float64(1.0), self.col.shape)

    def certain_self_loops(self):
        return self._certain


def successors(chain, x):
    """The strictly-positive-probability successor entries of x.

    Returns a list of (StateId, probability) pairs, ascending by state id.
    """
    if not 0 <= x < chain.state_count:
        raise ModelError(f"state {x} out of range")
    cols, probs = chain.row(x)
    return [(int(c), float(p)) for c, p in zip(cols, probs)]


class Mdp:
    """Masked-action finite MDP with a sparse transition kernel.

    Layout: (state, action) pairs are enumerated state-major with actions
    ascending inside each state.  pair range of state x is
    state_ptr[x]:state_ptr[x+1]; entry range of pair i is
    pair_ptr[i]:pair_ptr[i+1].
    """

    __slots__ = (
        "state_count",
        "action_count",
        "discount",
        "state_ptr",
        "pair_action",
        "pair_ptr",
        "col",
        "prob",
        "rew",
    )

    def __init__(
        self,
        state_count,
        action_count,
        discount,
        state_ptr,
        pair_action,
        pair_ptr,
        col,
        prob,
        rew,
    ):
        self.state_count = int(state_count)
        self.action_count = int(action_count)
        self.discount = float(discount)
        self.state_ptr = _as_int_array(state_ptr, "state_ptr")
        self.pair_action = _as_int_array(pair_action, "pair_action")
        self.pair_ptr = _as_int_array(pair_ptr, "pair_ptr")
        self.col = _as_int_array(col, "col")
        self.prob = np.asarray(prob, dtype=np.float64)
        self.rew = np.asarray(rew, dtype=np.float64)
        self._validate()
        for arr in (
            self.state_ptr,
            self.pair_action,
            self.pair_ptr,
            self.col,
            self.prob,
            self.rew,
        ):
            arr.setflags(write=False)

    def _validate(self):
        if not 0.0 <= self.discount <= 1.0:
            raise ModelError(f"discount {self.discount} outside [0, 1]")
        if self.state_ptr.size != self.state_count + 1:
            raise ModelError("state_ptr length mismatch")
        n_pairs = self.pair_action.size
        if self.pair_ptr.size != n_pairs + 1:
            raise ModelError("pair_ptr length mismatch")
        if self.rew.size != self.prob.size or self.col.size != self.prob.size:
            raise ModelError("entry array length mismatch")
        pair_counts = np.diff(self.state_ptr)
        if np.any(pair_counts <= 0):
            x = int(np.where(pair_counts <= 0)[0][0])
            raise EmptyMask(f"state {x} has no admissible action")
        if n_pairs:
            if self.pair_action.min() < 0 or self.pair_action.max() >= self.action_count:
                raise ModelError("action id out of range")
        if self.state_ptr[-1] - self.state_ptr[0] != n_pairs:
            raise ModelError("state_ptr does not match the pair count")
        if self.pair_ptr[-1] - self.pair_ptr[0] != self.col.size:
            raise ModelError("pair_ptr does not match the entry count")
        same_state = _same_row(self.state_ptr, n_pairs)
        if (same_state & (self.pair_action[1:] <= self.pair_action[:-1])).any():
            raise ModelError("mask actions must be strictly ascending per state")
        _check_rows(
            self.pair_ptr, self.col, self.prob, self.rew, self.state_count, "mdp"
        )

    @property
    def pair_count(self):
        return self.pair_action.size

    def mask(self, x):
        """Admissible actions of state x, ascending (view)."""
        return self.pair_action[self.state_ptr[x] : self.state_ptr[x + 1]]

    def mask_sizes(self):
        return np.diff(self.state_ptr)

    def pair_index(self, x, u):
        """Dense pair id of (x, u); raises InvalidPolicy if u is masked out."""
        a, b = self.state_ptr[x], self.state_ptr[x + 1]
        i = a + np.searchsorted(self.pair_action[a:b], u)
        if i >= b or self.pair_action[i] != u:
            raise InvalidPolicy(f"action {u} not admissible in state {x}")
        return int(i)

    def row(self, x, u):
        """(successors, probabilities, rewards) arrays of pair (x, u)."""
        i = self.pair_index(x, u)
        a, b = self.pair_ptr[i], self.pair_ptr[i + 1]
        return self.col[a:b], self.prob[a:b], self.rew[a:b]

    def certain_self_loops(self):
        """Flags of the states where every admissible action has p(x, x) >= 1."""
        return _certain_self_loops(
            self.pair_ptr[self.state_ptr], self.col, self.prob, self.mask_sizes()
        )

    def support(self):
        """The union chain's support, without its probabilities.

        One sort of the entries' (state, successor) keys; no probabilities
        are mixed and no rows are checked, so this is the cheap way to
        certify and order the MDP (see Support).  The keys are sorted,
        rid of their repeats and turned into the successors in place.
        """
        n = self.state_count
        per_state = np.diff(self.pair_ptr[self.state_ptr])
        keys = np.repeat(np.arange(n, dtype=np.int64) * n, per_state)
        keys += self.col
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = _compact(keys, first)
        del first
        row_ptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        keys %= n
        return Support(n, row_ptr, keys, self.certain_self_loops())

    def union_chain(self):
        """Chain whose rows are the unions of all admissible action supports.

        Probabilities are the uniform mixture over the state's admissible
        actions, so the support equals the union of the action supports.
        The rows are the support's (Mdp.support()), and only the masses
        are added.  Each entry's share is its probability over the state's
        action count, and a (state, successor) pair's mass is the sum of
        its shares in model order: by action, as the Mdp stores its
        entries.  The states are taken in blocks of whole states
        (_block_cuts).  In a block, a searchsorted of each entry's
        state * n + successor key among the support's keys finds the
        slot of its mass, and one bincount adds the shares in input
        order, which is the model's, so the sums, down to the last bit,
        depend on it.
        """
        support = self.support()
        n = self.state_count
        row_ptr, col = support.row_ptr, support.col
        entry_ptr = self.pair_ptr[self.state_ptr]
        actions = self.mask_sizes()
        mass = np.empty(col.size, dtype=np.float64)
        cuts = _block_cuts(entry_ptr)
        for a, b in zip(cuts, cuts[1:]):
            lo, hi, ra, rb = entry_ptr[a], entry_ptr[b], row_ptr[a], row_ptr[b]
            base = np.arange(a * n, b * n, n, dtype=np.int64)
            per_state = entry_ptr[a + 1 : b + 1] - entry_ptr[a:b]
            keys = base.repeat(per_state)
            keys += self.col[lo:hi]
            row_keys = base.repeat(row_ptr[a + 1 : b + 1] - row_ptr[a:b])
            row_keys += col[ra:rb]
            slot = np.searchsorted(row_keys, keys)
            del keys, row_keys
            share = self.prob[lo:hi] / actions[a:b].repeat(per_state)
            mass[ra:rb] = np.bincount(slot, weights=share, minlength=rb - ra)
            del slot, share
        return MarkovChain(n, row_ptr, col, mass)


@dataclass(frozen=True)
class Policy:
    """Deterministic policy: one admissible action per state."""

    choice: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.choice, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "choice", arr)


@dataclass(frozen=True)
class ValueTable:
    """State values plus, when available, per-(state, action) values.

    q is aligned with the owning Mdp's dense pair enumeration; it is None
    for results that carry state values only.
    """

    v: np.ndarray
    q: np.ndarray | None = None


def _policy_pairs(mdp, policy):
    """Pair id of every state's chosen action, found in one lookup.

    Raises InvalidPolicy for the first state whose action is masked out.
    """
    choice = np.asarray(policy.choice, dtype=np.int64)
    n = mdp.state_count
    if choice.size != n:
        raise InvalidPolicy("policy length does not match state count")
    states = np.arange(n, dtype=np.int64)
    pairs, found = _find_pairs(mdp.state_ptr, mdp.pair_action, states, choice)
    if not found.all():
        x = int(np.argmin(found))
        raise InvalidPolicy(f"action {int(choice[x])} not admissible in state {x}")
    return pairs


def validate_policy(mdp, policy):
    _policy_pairs(mdp, policy)


def induced_chain(mdp, policy):
    """Markov chain obtained by following the policy's action in each state."""
    pairs = _policy_pairs(mdp, policy)
    starts = mdp.pair_ptr[pairs]
    lengths = mdp.pair_ptr[pairs + 1] - starts
    idx = gather_ranges(starts, lengths)
    row_ptr = np.zeros(mdp.state_count + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    return MarkovChain(
        mdp.state_count, row_ptr, mdp.col[idx], mdp.prob[idx], mdp.rew[idx]
    )


def mdp_from_chain(chain, discount=1.0):
    """Wrap a chain as a single-action MDP (action 0 admissible everywhere)."""
    n = chain.state_count
    rew = chain.rew if chain.rew is not None else np.zeros(chain.prob.size)
    return Mdp(
        state_count=n,
        action_count=1,
        discount=discount,
        state_ptr=np.arange(n + 1, dtype=np.int64),
        pair_action=np.zeros(n, dtype=np.int64),
        pair_ptr=chain.row_ptr,
        col=chain.col,
        prob=chain.prob,
        rew=rew,
    )


def build_mdp(spec):
    """Validate a raw model description and construct an Mdp.

    The description is a mapping with fields states, actions, discount,
    mask (list of per-state admissible action lists) and transitions (list
    of {x, u, xp, p, r} records).  states, actions, mask entries and
    x, u, xp must be integers, and discount, p and r numbers.  Unknown
    fields are rejected; rows are checked, never renormalized.

    The mask and the records are read column by column.  When a check on
    a whole column fails, the values are walked in file order to name the
    first offender, so every error is the one a record-by-record reading
    reports first.
    """
    if not isinstance(spec, dict):
        raise ModelError("model description must be a JSON object")
    unknown = set(spec) - _MODEL_KEYS
    if unknown:
        raise ModelError(f"unknown model fields: {sorted(unknown)}")
    missing = _MODEL_KEYS - set(spec)
    if missing:
        raise ModelError(f"missing model fields: {sorted(missing)}")
    scalars = ("states", "actions")
    _check_integers([spec[k] for k in scalars], scalars.__getitem__)
    state_count, action_count = int(spec["states"]), int(spec["actions"])
    discount = float(_as_reals([spec["discount"]], lambda _: "discount")[0])
    if state_count <= 0 or action_count <= 0:
        raise ModelError("states and actions must be positive")

    mask = spec["mask"]
    if not isinstance(mask, list) or len(mask) != state_count:
        raise ModelError("mask must list actions for every state")
    sizes, pair_action = _mask_columns(mask, action_count)
    state_ptr = np.zeros(state_count + 1, dtype=np.int64)
    np.cumsum(sizes, out=state_ptr[1:])

    records = spec["transitions"]
    if not isinstance(records, list):
        raise ModelError("transitions must be a list of records")
    if not (
        set(map(type, records)) <= {dict}
        and set(map(len, records)) <= {5}
        and set().union(*records) == _RECORD_KEYS
    ):
        _check_records(records)

    def column(key):
        return [rec[key] for rec in records]

    def id_field(k):
        return f"transition {k // 3}: {('x', 'u', 'xp')[k % 3]}"

    def real_field(k):
        return f"transition {k // 2}: {('p', 'r')[k % 2]}"

    ps, rs = _real_columns([column("p"), column("r")], real_field)
    xs, us, xps = _id_columns([column("x"), column("u"), column("xp")], id_field)
    if xs.size:
        if xs.min() < 0 or xs.max() >= state_count:
            raise ModelError("transition source out of range")
        if xps.min() < 0 or xps.max() >= state_count:
            raise ModelError("transition successor out of range")
        if us.min() < 0 or us.max() >= action_count:
            raise ModelError("transition action out of range")

    pair_ids, found = _find_pairs(state_ptr, pair_action, xs, us)
    if not found.all():
        i = int(np.argmin(found))
        raise ModelError(
            f"transition {i}: action {int(us[i])} not in mask of state {int(xs[i])}"
        )
    order = np.lexsort((xps, pair_ids))
    pair_ids = pair_ids[order]
    counts = np.bincount(pair_ids, minlength=pair_action.size)
    if np.any(counts == 0):
        i = int(np.where(counts == 0)[0][0])
        x = int(np.searchsorted(state_ptr, i, side="right") - 1)
        raise NonStochasticRow(
            f"pair (state {x}, action {pair_action[i]}) has no transitions"
        )
    pair_ptr = np.zeros(pair_action.size + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_ptr[1:])
    return Mdp(
        state_count=state_count,
        action_count=action_count,
        discount=discount,
        state_ptr=state_ptr,
        pair_action=pair_action,
        pair_ptr=pair_ptr,
        col=xps[order],
        prob=ps[order],
        rew=rs[order],
    )


def _mask_columns(mask, action_count):
    """Every state's action count, and all admissible actions state-major.

    Actions ascend within each state.  They are int64, or Python ints
    (dtype object) when one does not fit, which the mask allows only when
    actions does not fit either; no transition can use such an action, so
    build_mdp then stops at a transition error or at its empty pair.  A
    mask that fails a check on the flattened entries is walked row by row
    by _mask_rows, which raises at the first bad row.
    """
    if set(map(type, mask)) <= {list} and all(mask):
        flat = list(itertools.chain.from_iterable(mask))
        if set(map(type, flat)) <= {int}:
            acts = _id_array(flat)
            if acts.min() >= 0 and acts.max() < action_count:
                sizes = np.fromiter(map(len, mask), dtype=np.int64, count=len(mask))
                state = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
                acts = acts[np.lexsort((acts, state))]
                if not np.any((state[1:] == state[:-1]) & (acts[1:] == acts[:-1])):
                    return sizes, acts
    rows = _mask_rows(mask, action_count)
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    return sizes, _id_array(list(itertools.chain.from_iterable(rows)))


def _mask_rows(mask, action_count):
    """Each state's admissible actions as ascending ints, checked row by row."""
    rows = []
    for x, actions in enumerate(mask):
        if not actions:
            raise EmptyMask(f"state {x} has no admissible action")
        _check_integers(actions, lambda _: f"state {x}: mask entry")
        acts = sorted(int(u) for u in actions)
        if any(u < 0 or u >= action_count for u in acts):
            raise ModelError(f"state {x}: action id out of range")
        if len(set(acts)) != len(acts):
            raise ModelError(f"state {x}: duplicate action in mask")
        rows.append(acts)
    return rows


def _id_array(values):
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _check_records(records):
    """Raise ModelError at the first transition not an {x, u, xp, p, r} record."""
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ModelError(f"transition {i} is not a record")
        unknown = set(rec) - _RECORD_KEYS
        if unknown:
            raise ModelError(f"transition {i}: unknown fields {sorted(unknown)}")
        missing = _RECORD_KEYS - set(rec)
        if missing:
            raise ModelError(f"transition {i}: missing fields {sorted(missing)}")


def _interleave(columns):
    """The columns' values record by record: row 0 of each, then row 1, ..."""
    return [v for row in zip(*columns) for v in row]


def _real_columns(columns, field):
    """Each column as a float64 array, checked as _as_reals checks values.

    field(k) names the k-th value of the columns interleaved record by
    record, so the first bad record is the one reported.
    """
    if all(set(map(type, c)) <= {int, float} for c in columns):
        try:
            return [np.asarray(c, dtype=np.float64) for c in columns]
        except OverflowError:
            pass
    return list(_as_reals(_interleave(columns), field).reshape(-1, len(columns)).T)


def _id_columns(columns, field):
    """Each column as an int64 array, checked as _check_integers checks ids.

    field(k) names the k-th value of the columns interleaved record by
    record.  An id beyond the int64 range is a ModelError.
    """
    if all(set(map(type, c)) <= {int} for c in columns):
        try:
            return [np.asarray(c, dtype=np.int64) for c in columns]
        except OverflowError:
            pass
    ids = _interleave(columns)
    _check_integers(ids, field)
    try:
        return list(np.asarray(ids, dtype=np.int64).reshape(-1, len(columns)).T)
    except OverflowError:
        k = next(k for k, i in enumerate(ids) if not _INT64.min <= i <= _INT64.max)
        raise ModelError(f"{field(k)} out of range, got {ids[k]}") from None


def _find_pairs(state_ptr, pair_action, xs, us):
    """Pair id of each (xs[i], us[i]), and flags of the pairs that exist.

    Pairs ascend by (state, rank of the action among all admissible
    ids), so one searchsorted finds every pair, and the keys stay small
    however large the action ids are.  pair_action holds each state's
    actions, ascending, in the pair ranges state_ptr gives.
    """
    actions = _unique_sorted(pair_action)
    width = np.int64(actions.size)
    sizes = np.diff(state_ptr)
    keys = np.repeat(
        np.arange(sizes.size, dtype=np.int64), sizes
    ) * width + np.searchsorted(actions, pair_action)
    pairs = np.searchsorted(keys, xs * width + np.searchsorted(actions, us))
    found = pairs < state_ptr[xs + 1]
    found[found] = pair_action[pairs[found]] == us[found]
    return pairs, found


def mdp_to_spec(mdp):
    """Serialize an Mdp back to the model description format.

    Rebuilding the result with build_mdp reproduces the sparse structure
    bit for bit: entries are already stored in (state, action, successor)
    order and floats survive the JSON round trip exactly.  The columns
    are read with tolist(), so ids are Python ints and reals floats.
    """
    entries = np.diff(mdp.pair_ptr)
    state_of_pair = np.repeat(np.arange(mdp.state_count), mdp.mask_sizes())
    actions = mdp.pair_action.tolist()
    bounds = mdp.state_ptr.tolist()
    columns = (
        np.repeat(state_of_pair, entries).tolist(),
        np.repeat(mdp.pair_action, entries).tolist(),
        mdp.col.tolist(),
        mdp.prob.tolist(),
        mdp.rew.tolist(),
    )
    return {
        "states": mdp.state_count,
        "actions": mdp.action_count,
        "discount": mdp.discount,
        "mask": [actions[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
        "transitions": [
            {"x": x, "u": u, "xp": xp, "p": p, "r": r}
            for x, u, xp, p, r in zip(*columns)
        ],
    }
