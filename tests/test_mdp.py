import numpy as np
import pytest

from rmdp import (
    DuplicateSuccessor,
    EmptyMask,
    InvalidPolicy,
    MarkovChain,
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
