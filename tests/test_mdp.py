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
