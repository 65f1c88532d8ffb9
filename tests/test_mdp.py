import copy
import numbers
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmdp import (
    DuplicateSuccessor,
    EmptyMask,
    InvalidPolicy,
    MarkovChain,
    Mdp,
    ModelError,
    NegativeProbability,
    NonStochasticRow,
    Policy,
    build_mdp,
    induced_chain,
    mdp_from_chain,
    mdp_to_spec,
    successors,
    validate_policy,
)
from rmdp.mdp import gather_ranges


def two_state_spec():
    return {
        "states": 2,
        "actions": 2,
        "discount": 0.9,
        "mask": [[0, 1], [0]],
        "transitions": [
            {"x": 0, "u": 0, "xp": 0, "p": 0.5, "r": 1.0},
            {"x": 0, "u": 0, "xp": 1, "p": 0.5, "r": 2.0},
            {"x": 0, "u": 1, "xp": 1, "p": 1.0, "r": 0.25},
            {"x": 1, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
        ],
    }


def test_gather_ranges_concatenates_slices():
    starts = np.array([0, 5, 9], dtype=np.int64)
    lengths = np.array([2, 3, 0], dtype=np.int64)
    out = gather_ranges(starts, lengths)
    assert out.tolist() == [0, 1, 5, 6, 7]
    assert gather_ranges(starts[:0], lengths[:0]).size == 0


def test_from_rows_sorts_successors():
    ch = MarkovChain.from_rows([[(1, 0.25), (0, 0.75)], [(1, 1.0)]])
    cols, probs = ch.row(0)
    assert cols.tolist() == [0, 1]
    assert probs.tolist() == [0.75, 0.25]
    assert successors(ch, 0) == [(0, 0.75), (1, 0.25)]
    assert ch.self_loop_prob(0) == 0.75
    assert ch.self_loop_prob(1) == 1.0


def test_from_rows_carries_rewards():
    ch = MarkovChain.from_rows(
        [[(1, 0.5), (0, 0.5)], [(1, 1.0)]], rewards=[[3.0, -1.0], [0.0]]
    )
    # rewards follow their entries through the successor sort
    assert ch.rew.tolist() == [-1.0, 3.0, 0.0]


def test_row_sum_tolerance_boundary():
    MarkovChain.from_rows([[(0, 1.0 + 5e-13)]])
    with pytest.raises(NonStochasticRow):
        MarkovChain.from_rows([[(0, 1.0 + 5e-12)]])


def test_empty_row_rejected():
    with pytest.raises(NonStochasticRow):
        MarkovChain.from_rows([[(1, 1.0)], []])


def test_duplicate_successor_rejected():
    with pytest.raises(DuplicateSuccessor):
        MarkovChain.from_rows([[(0, 0.5), (0, 0.5)]])


def test_chain_sorts_rows_only_when_out_of_order():
    # A descent across a row boundary needs no sort.
    ch = MarkovChain.from_rows([[(0, 0.5), (1, 0.5)], [(0, 1.0)]])
    assert ch.col.tolist() == [0, 1, 0]
    assert ch.prob.tolist() == [0.5, 0.5, 1.0]
    # Sorting brings separated duplicates together, where they are caught.
    with pytest.raises(DuplicateSuccessor):
        MarkovChain.from_rows([[(1, 0.5), (0, 0.25), (1, 0.25)], [(1, 1.0)]])


def test_chain_rejects_row_ptr_not_covering_entries():
    with pytest.raises(ModelError):
        MarkovChain(2, [0, 1, 3], [1, 1], [1.0, 1.0])


def test_nonpositive_probability_rejected():
    with pytest.raises(NegativeProbability):
        MarkovChain.from_rows([[(0, 1.5), (1, -0.5)], [(1, 1.0)]])
    with pytest.raises(NegativeProbability):
        MarkovChain.from_rows([[(0, 1.0), (1, 0.0)], [(1, 1.0)]])


def test_out_of_range_successor_rejected():
    with pytest.raises(ModelError):
        MarkovChain.from_rows([[(2, 1.0)], [(1, 1.0)]])


def test_chain_arrays_read_only():
    ch = MarkovChain.from_rows([[(0, 1.0)]])
    with pytest.raises(ValueError):
        ch.prob[0] = 0.5


def test_build_mdp_round_trip_is_stable():
    mdp = build_mdp(two_state_spec())
    spec = mdp_to_spec(mdp)
    again = mdp_to_spec(build_mdp(spec))
    assert again == spec


def test_build_mdp_sorts_mask_and_entries():
    spec = two_state_spec()
    spec["mask"][0] = [1, 0]
    spec["transitions"].reverse()
    mdp = build_mdp(spec)
    assert mdp.mask(0).tolist() == [0, 1]
    cols, probs, rews = mdp.row(0, 0)
    assert cols.tolist() == [0, 1]
    assert probs.tolist() == [0.5, 0.5]
    assert rews.tolist() == [1.0, 2.0]


def test_build_mdp_rejects_unknown_fields():
    spec = two_state_spec()
    spec["extra"] = 1
    with pytest.raises(ModelError, match="unknown model fields"):
        build_mdp(spec)
    spec = two_state_spec()
    spec["transitions"][0]["bogus"] = 1
    with pytest.raises(ModelError, match="unknown fields"):
        build_mdp(spec)


def test_build_mdp_rejects_missing_fields():
    spec = two_state_spec()
    del spec["mask"]
    with pytest.raises(ModelError, match="missing model fields"):
        build_mdp(spec)
    spec = two_state_spec()
    del spec["transitions"][0]["p"]
    with pytest.raises(ModelError, match="missing fields"):
        build_mdp(spec)


def test_build_mdp_rejects_non_integer_ids():
    cases = [
        (("states",), 2.9, "states"),
        (("actions",), "2", "actions"),
        (("mask", 0, 1), 1.0, "state 0: mask entry"),
        (("mask", 1, 0), False, "state 1: mask entry"),
        (("transitions", 1, "x"), 0.7, "transition 1: x"),
        (("transitions", 2, "u"), True, "transition 2: u"),
        (("transitions", 1, "xp"), 1.9, "transition 1: xp"),
    ]
    for path, value, field in cases:
        spec = two_state_spec()
        owner = spec
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        with pytest.raises(ModelError, match=f"^{field} must be an integer"):
            build_mdp(spec)


def test_build_mdp_rejects_empty_mask():
    spec = two_state_spec()
    spec["mask"][1] = []
    with pytest.raises(EmptyMask):
        build_mdp(spec)


def test_build_mdp_rejects_duplicate_mask_action():
    spec = two_state_spec()
    spec["mask"][1] = [0, 0]
    with pytest.raises(ModelError, match="duplicate action"):
        build_mdp(spec)


def test_build_mdp_rejects_transition_outside_mask():
    spec = two_state_spec()
    spec["transitions"].append({"x": 1, "u": 1, "xp": 1, "p": 1.0, "r": 0.0})
    with pytest.raises(ModelError, match="not in mask"):
        build_mdp(spec)


def test_build_mdp_rejects_missing_pair_row():
    spec = two_state_spec()
    spec["transitions"] = [t for t in spec["transitions"] if t["u"] != 1]
    with pytest.raises(NonStochasticRow, match="action 1"):
        build_mdp(spec)


def test_build_mdp_rejects_bad_row_sum():
    spec = two_state_spec()
    spec["transitions"][3]["p"] = 0.9
    with pytest.raises(NonStochasticRow):
        build_mdp(spec)


def test_build_mdp_rejects_bad_discount():
    spec = two_state_spec()
    spec["discount"] = 1.1
    with pytest.raises(ModelError):
        build_mdp(spec)


def test_mask_and_pair_lookup():
    mdp = build_mdp(two_state_spec())
    assert mdp.mask_sizes().tolist() == [2, 1]
    assert mdp.pair_index(0, 1) == 1
    with pytest.raises(InvalidPolicy):
        mdp.pair_index(1, 1)


def test_union_chain_merges_action_supports():
    mdp = build_mdp(two_state_spec())
    union = mdp.union_chain()
    cols, probs = union.row(0)
    assert cols.tolist() == [0, 1]
    # uniform mixture of the two actions: (0.5, 0.5)/2 and (0.5+1.0)/2
    assert probs.tolist() == pytest.approx([0.25, 0.75])
    assert abs(probs.sum() - 1.0) < 1e-12


def test_support_prob_is_a_read_only_view_of_ones():
    mdp = build_mdp(two_state_spec())
    support = mdp.support()
    assert support.prob.dtype == np.float64
    assert support.prob.shape == support.col.shape
    assert not support.prob.flags.writeable
    assert np.all(support.prob == 1.0)
    assert support.prob.strides == (0,)
    assert support.col.tolist() == mdp.union_chain().col.tolist()


def union_chain_reference(mdp):
    """The union chain's row_ptr, col and prob by scattering an inverse.

    Each entry's share is summed into its (state, successor) slot by a
    bincount over the entries in model order, through an entry-sized
    inverse of the sort of the keys.
    """
    n = mdp.state_count
    per_state = np.diff(mdp.pair_ptr[mdp.state_ptr])
    src = np.repeat(np.arange(n, dtype=np.int64), per_state)
    share = mdp.prob / np.repeat(mdp.mask_sizes(), per_state)
    keys = src * np.int64(n) + mdp.col
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    inverse = np.empty(keys.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    keys = keys[first]
    mass = np.bincount(inverse, weights=share, minlength=keys.size)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=row_ptr[1:])
    return row_ptr, keys % n, mass


# Action rows whose sums round: 0.1 + 0.7 + 0.2 is not 1.0 in doubles,
# and a successor's shares over several actions round in turn.
ROUNDING_ROWS = (
    (1.0,),
    (0.5, 0.5),
    (0.1, 0.7, 0.2),
    (0.7, 0.2, 0.1),
    (0.3, 0.3, 0.4),
    (0.1, 0.2, 0.3, 0.4),
    (0.2, 0.2, 0.2, 0.2, 0.2),
)


@st.composite
def shared_successor_mdps(draw):
    """Mdps whose actions share successors.

    Every action of a state draws its successors from one small pool,
    so a successor can appear under each of the state's actions.
    """
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    mask, transitions = [], []
    for x in range(n):
        actions = draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True))
        mask.append(actions)
        pool = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True)
        )
        rows = [r for r in ROUNDING_ROWS if len(r) <= len(pool)]
        for u in actions:
            probs = draw(st.sampled_from(rows))
            succ = draw(st.permutations(pool))
            transitions += [
                {"x": x, "u": u, "xp": xp, "p": p, "r": 0.0}
                for xp, p in zip(succ, probs)
            ]
    spec = {
        "states": n,
        "actions": k,
        "discount": 0.9,
        "mask": mask,
        "transitions": transitions,
    }
    return build_mdp(spec)


@settings(max_examples=300, deadline=None)
@given(shared_successor_mdps())
def test_union_chain_sums_shares_in_model_order(mdp):
    union = mdp.union_chain()
    for name, want in zip(("row_ptr", "col", "prob"), union_chain_reference(mdp)):
        assert getattr(union, name).tobytes() == want.tobytes(), name


def test_duplicate_successor_names_its_row():
    rows = [[(0, 1.0)], [(1, 1.0)], [(0, 0.5), (1, 0.25), (1, 0.25)]]
    message = "^chain: duplicate successor 1 in row 2$"
    with pytest.raises(DuplicateSuccessor, match=message):
        MarkovChain.from_rows(rows)
    # An Mdp's rows are its (state, action) pairs.
    message = "^mdp: duplicate successor 0 in row 2$"
    with pytest.raises(DuplicateSuccessor, match=message):
        Mdp(
            state_count=2,
            action_count=2,
            discount=0.9,
            state_ptr=[0, 2, 3],
            pair_action=[0, 1, 0],
            pair_ptr=[0, 1, 2, 4],
            col=[0, 1, 0, 0],
            prob=[1.0, 1.0, 0.5, 0.5],
            rew=[0.0] * 4,
        )


def test_row_pointers_must_cover_the_entries_in_order():
    with pytest.raises(ModelError, match="^chain: row pointers must not decrease$"):
        MarkovChain(2, [0, 2, 1], [0], [1.0])
    spec = dict(
        state_count=1,
        action_count=1,
        discount=0.9,
        state_ptr=[0, 1],
        pair_action=[0],
        pair_ptr=[0, 2],
        col=[0],
        prob=[1.0],
        rew=[0.0],
    )
    with pytest.raises(ModelError, match="^pair_ptr does not match the entry count$"):
        Mdp(**spec)
    with pytest.raises(ModelError, match="^state_ptr does not match the pair count$"):
        Mdp(**dict(spec, state_count=2, state_ptr=[0, 1, 2]))


def test_induced_chain_and_policy_validation():
    mdp = build_mdp(two_state_spec())
    pol = Policy(choice=np.array([1, 0], dtype=np.int64))
    validate_policy(mdp, pol)
    ch = induced_chain(mdp, pol)
    cols, probs = ch.row(0)
    assert cols.tolist() == [1]
    assert probs.tolist() == [1.0]
    assert ch.rew.tolist() == [0.25, 0.0]

    bad = Policy(choice=np.array([1, 1], dtype=np.int64))
    with pytest.raises(InvalidPolicy):
        validate_policy(mdp, bad)
    with pytest.raises(InvalidPolicy):
        induced_chain(mdp, bad)


def pairs_one_state_at_a_time(mdp, policy):
    """The pair lookup as a loop: one Mdp.pair_index call per state."""
    if policy.choice.size != mdp.state_count:
        raise InvalidPolicy("policy length does not match state count")
    return np.array(
        [mdp.pair_index(x, int(u)) for x, u in enumerate(policy.choice)],
        dtype=np.int64,
    )


@st.composite
def masks_and_policies(draw):
    # Action ids up to 2**62, so that keys built from raw ids would overflow.
    ids = draw(st.sampled_from([[0], [0, 1, 2], [0, 3, 7, 8], [1, 2**40, 2**62]]))
    n = draw(st.integers(1, 8))
    mask = [
        sorted(draw(st.lists(st.sampled_from(ids), min_size=1, unique=True)))
        for _ in range(n)
    ]
    state_ptr = np.cumsum([0] + [len(m) for m in mask])
    pairs = state_ptr[-1]
    # Every pair stays put, which is all the lookup needs of the entries.
    mdp = Mdp(
        state_count=n,
        action_count=max(ids) + 1,
        discount=0.9,
        state_ptr=state_ptr,
        pair_action=[u for m in mask for u in m],
        pair_ptr=np.arange(pairs + 1),
        col=np.repeat(np.arange(n), np.diff(state_ptr)),
        prob=np.ones(pairs),
        rew=np.arange(pairs, dtype=np.float64),
    )
    # Mostly admissible choices, sometimes any id, -1 or one past the last.
    choice = [
        draw(st.one_of(st.sampled_from(m), st.sampled_from(ids + [-1, max(ids) + 1])))
        for m in mask
    ]
    if draw(st.integers(0, 9)) == 0:
        choice = choice[:-1]
    return mdp, Policy(choice=np.array(choice, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(masks_and_policies())
def test_policy_lookup_matches_one_state_at_a_time(case):
    mdp, policy = case
    try:
        pairs = pairs_one_state_at_a_time(mdp, policy)
    except InvalidPolicy as exc:
        for fn in (validate_policy, induced_chain):
            with pytest.raises(InvalidPolicy) as got:
                fn(mdp, policy)
            assert str(got.value) == str(exc)
        return
    validate_policy(mdp, policy)
    chain = induced_chain(mdp, policy)
    assert chain.col.tolist() == mdp.col[pairs].tolist()
    assert chain.rew.tolist() == mdp.rew[pairs].tolist()


def test_mdp_from_chain_adapter():
    ch = MarkovChain.from_rows(
        [[(1, 1.0)], [(1, 1.0)]], rewards=[[2.0], [0.0]]
    )
    mdp = mdp_from_chain(ch, discount=0.5)
    assert mdp.action_count == 1
    assert mdp.discount == 0.5
    cols, probs, rews = mdp.row(0, 0)
    assert cols.tolist() == [1]
    assert rews.tolist() == [2.0]


# ---------------------------------------------------------------------------
# build_mdp against a record-by-record reading


def check_integers_one_by_one(values, field):
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ModelError(f"{field(i)} must be an integer, got {v!r}")


def as_reals_one_by_one(values, field):
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ModelError(f"{field(i)} must be a number, got {v!r}")
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        k = next(k for k, v in enumerate(values) if abs(v) > sys.float_info.max)
        raise ModelError(f"{field(k)} out of range, got {values[k]}") from None


def build_mdp_record_by_record(spec):
    """Reference for build_mdp: every mask row and record checked in turn.

    The mask rows are checked in state order, the records one by one,
    then their reals, ids and ranges, and each record's pair is looked up
    in a dict, so the first error is the first offender in file order.
    """
    if not isinstance(spec, dict):
        raise ModelError("model description must be a JSON object")
    unknown = set(spec) - {"states", "actions", "discount", "mask", "transitions"}
    if unknown:
        raise ModelError(f"unknown model fields: {sorted(unknown)}")
    missing = {"states", "actions", "discount", "mask", "transitions"} - set(spec)
    if missing:
        raise ModelError(f"missing model fields: {sorted(missing)}")
    scalars = ("states", "actions")
    check_integers_one_by_one([spec[k] for k in scalars], scalars.__getitem__)
    state_count, action_count = int(spec["states"]), int(spec["actions"])
    discount = float(as_reals_one_by_one([spec["discount"]], lambda _: "discount")[0])
    if state_count <= 0 or action_count <= 0:
        raise ModelError("states and actions must be positive")

    mask = spec["mask"]
    if not isinstance(mask, list) or len(mask) != state_count:
        raise ModelError("mask must list actions for every state")
    mask_sets = []
    for x, actions in enumerate(mask):
        if not actions:
            raise EmptyMask(f"state {x} has no admissible action")
        check_integers_one_by_one(actions, lambda _: f"state {x}: mask entry")
        acts = sorted(int(u) for u in actions)
        if any(u < 0 or u >= action_count for u in acts):
            raise ModelError(f"state {x}: action id out of range")
        if len(set(acts)) != len(acts):
            raise ModelError(f"state {x}: duplicate action in mask")
        mask_sets.append(acts)

    records = spec["transitions"]
    if not isinstance(records, list):
        raise ModelError("transitions must be a list of records")
    keys = {"x", "u", "xp", "p", "r"}
    ids, reals = [], []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ModelError(f"transition {i} is not a record")
        unknown, missing = set(rec) - keys, keys - set(rec)
        if unknown:
            raise ModelError(f"transition {i}: unknown fields {sorted(unknown)}")
        if missing:
            raise ModelError(f"transition {i}: missing fields {sorted(missing)}")
        ids += (rec["x"], rec["u"], rec["xp"])
        reals += (rec["p"], rec["r"])

    def id_field(k):
        return f"transition {k // 3}: {('x', 'u', 'xp')[k % 3]}"

    def real_field(k):
        return f"transition {k // 2}: {('p', 'r')[k % 2]}"

    ps, rs = as_reals_one_by_one(reals, real_field).reshape(-1, 2).T
    check_integers_one_by_one(ids, id_field)
    try:
        xs, us, xps = np.asarray(ids, dtype=np.int64).reshape(-1, 3).T
    except OverflowError:
        k = next(k for k, v in enumerate(ids) if not -(2**63) <= v < 2**63)
        raise ModelError(f"{id_field(k)} out of range, got {ids[k]}") from None
    if xs.size:
        if xs.min() < 0 or xs.max() >= state_count:
            raise ModelError("transition source out of range")
        if xps.min() < 0 or xps.max() >= state_count:
            raise ModelError("transition successor out of range")
        if us.min() < 0 or us.max() >= action_count:
            raise ModelError("transition action out of range")

    pair_of = {}
    pair_action = []
    state_ptr = np.zeros(state_count + 1, dtype=np.int64)
    for x, acts in enumerate(mask_sets):
        for u in acts:
            pair_of[(x, u)] = len(pair_action)
            pair_action.append(u)
        state_ptr[x + 1] = len(pair_action)
    pair_ids = np.empty(len(records), dtype=np.int64)
    for i in range(len(records)):
        key = (int(xs[i]), int(us[i]))
        if key not in pair_of:
            raise ModelError(
                f"transition {i}: action {key[1]} not in mask of state {key[0]}"
            )
        pair_ids[i] = pair_of[key]

    order = np.lexsort((xps, pair_ids))
    counts = np.bincount(pair_ids[order], minlength=len(pair_action))
    if np.any(counts == 0):
        i = int(np.where(counts == 0)[0][0])
        x = int(np.searchsorted(state_ptr, i, side="right") - 1)
        raise NonStochasticRow(
            f"pair (state {x}, action {pair_action[i]}) has no transitions"
        )
    pair_ptr = np.zeros(len(pair_action) + 1, dtype=np.int64)
    np.cumsum(counts, out=pair_ptr[1:])
    return Mdp(
        state_count=state_count,
        action_count=action_count,
        discount=discount,
        state_ptr=state_ptr,
        pair_action=np.asarray(pair_action, dtype=np.int64),
        pair_ptr=pair_ptr,
        col=xps[order],
        prob=ps[order],
        rew=rs[order],
    )


ARRAYS = ("state_ptr", "pair_action", "pair_ptr", "col", "prob", "rew")


def outcome(build, spec):
    """The Mdp's scalars and arrays with their dtypes, or the error raised."""
    try:
        mdp = build(copy.deepcopy(spec))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    arrays = [(getattr(mdp, a).dtype.str, getattr(mdp, a).tobytes()) for a in ARRAYS]
    return (mdp.state_count, mdp.action_count, mdp.discount, arrays)


@st.composite
def model_specs(draw):
    """A valid model: unsorted masks, shuffled records, ids up to 2**62."""
    ids = draw(st.sampled_from([[0], [0, 1, 2], [0, 3, 7, 8], [1, 2**40, 2**62]]))
    n = draw(st.integers(1, 6))
    mask = [
        draw(st.lists(st.sampled_from(ids), min_size=1, unique=True)) for _ in range(n)
    ]
    reward = st.sampled_from([0, 1, -2.5, 0.1, 3.0, -0.0])
    records = []
    for x, acts in enumerate(mask):
        for u in acts:
            succs = draw(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
            )
            p = 1 if len(succs) == 1 and draw(st.booleans()) else 1.0 / len(succs)
            records += [
                {"x": x, "u": u, "xp": xp, "p": p, "r": draw(reward)} for xp in succs
            ]
    return {
        "states": n,
        "actions": max(ids) + draw(st.sampled_from([1, 5])),
        "discount": draw(st.sampled_from([0, 0.5, 0.9, 1])),
        "mask": mask,
        "transitions": draw(st.permutations(records)),
    }


MUTATIONS = (
    "not-a-record", "extra-key", "missing-key", "bad-type", "huge-id",
    "u-outside-mask", "missing-pair-row", "mask-empty", "mask-duplicate",
    "mask-not-a-list", "mask-bad-entry", "mask-beyond-int64", "non-finite",
)


def mutate(spec, kind, data):
    """spec with one defect of the given kind (some leave it valid)."""
    spec = copy.deepcopy(spec)
    records, mask = spec["transitions"], spec["mask"]
    if not records:
        return spec
    i = data.draw(st.integers(0, len(records) - 1))
    x = data.draw(st.integers(0, len(mask) - 1))
    intact = isinstance(records[i], dict) and len(records[i]) == 5
    if not intact or not isinstance(mask[x], list) or not mask[x]:
        return spec  # already broken there by an earlier mutation
    field = data.draw(st.sampled_from(["x", "u", "xp", "p", "r"]))
    if kind == "not-a-record":
        records[i] = data.draw(st.sampled_from([[0, 0, 0, 1.0, 0.0], 3, None, "x"]))
    elif kind == "extra-key":
        records[i]["w"] = 0
    elif kind == "missing-key":
        del records[i][field]
    elif kind == "bad-type":
        records[i][field] = data.draw(st.sampled_from([True, False, "1", 1.5, None]))
    elif kind == "huge-id":
        records[i][data.draw(st.sampled_from(["x", "u", "xp"]))] = data.draw(
            st.sampled_from([2**63, -(2**63) - 1, 10**30])
        )
    elif kind == "u-outside-mask":
        # One or two records, each with an action its state does not admit.
        for k in {i, data.draw(st.integers(0, len(records) - 1))}:
            rec = records[k]
            if isinstance(rec, dict) and isinstance(rec.get("x"), int):
                allowed = mask[rec["x"]] if 0 <= rec["x"] < len(mask) else []
                if not isinstance(allowed, list):
                    continue  # that mask row is already broken
                outside = [u for u in range(spec["actions"])[:10] if u not in allowed]
                if outside:
                    rec["u"] = data.draw(st.sampled_from(outside))
    elif kind == "missing-pair-row":
        pair = (records[i]["x"], records[i]["u"])
        spec["transitions"] = [
            r
            for r in records
            if not isinstance(r, dict) or (r.get("x"), r.get("u")) != pair
        ]
    elif kind == "mask-empty":
        mask[x] = []
    elif kind == "mask-duplicate":
        mask[x].append(mask[x][0])
    elif kind == "mask-not-a-list":
        mask[x] = data.draw(st.sampled_from([3, 0, "ab", {"0": 1}, {}, None, 1.0]))
    elif kind == "mask-bad-entry":
        j = data.draw(st.integers(0, len(mask[x]) - 1))
        mask[x][j] = data.draw(
            st.sampled_from([True, "0", 1.5, -1, spec["actions"], 2**63, np.int64(0)])
        )
    elif kind == "mask-beyond-int64":
        spec["actions"] = 2**65
        mask[x].append(2**63 + data.draw(st.integers(0, 3)))
    elif kind == "non-finite":
        records[i][data.draw(st.sampled_from(["p", "r"]))] = data.draw(
            st.sampled_from([float("nan"), float("inf"), -float("inf")])
        )
    return spec


@settings(max_examples=300, deadline=None)
@given(model_specs())
def test_build_mdp_matches_record_by_record_on_valid_models(spec):
    expected = outcome(build_mdp_record_by_record, spec)
    assert isinstance(expected[0], int), expected
    assert outcome(build_mdp, spec) == expected


@settings(max_examples=600, deadline=None)
@given(
    model_specs(),
    st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2),
    st.data(),
)
def test_build_mdp_reports_the_first_error_of_a_record_by_record_reading(
    spec, kinds, data
):
    # A second defect checks that the first one in file order is named.
    for kind in kinds:
        spec = mutate(spec, kind, data)
    assert outcome(build_mdp, spec) == outcome(build_mdp_record_by_record, spec)
