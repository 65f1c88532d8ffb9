import numpy as np
import pytest

import rmdp
from rmdp import (
    DomainError,
    InvalidParams,
    LiquidationParams,
    ShrinkParams,
    build_fig2,
    build_liquidation,
    build_spiral,
    liquidation_reward,
    liquidation_state,
    liquidation_state_id,
    shrink_expected_drift,
    shrink_simulate,
    spiral_chain,
    spiral_state_id,
)
from rmdp.domains import SPIRAL_EDGES


def assert_schedule_is_dependency_order(mdp, schedule, decomp):
    """Every successor of a scheduled state sits in an earlier level,
    is the state itself, or is absorbing."""
    solved = set(decomp.absorbing.tolist())
    for level in schedule.levels:
        members = [int(s) for s in level]
        for x in members:
            a, b = mdp.state_ptr[x], mdp.state_ptr[x + 1]
            lo, hi = mdp.pair_ptr[a], mdp.pair_ptr[b]
            for c in mdp.col[lo:hi]:
                assert int(c) in solved or int(c) == x
        solved.update(members)


# ---------------------------------------------------------------------------
# liquidation


def test_liquidation_params_validation():
    with pytest.raises(InvalidParams):
        LiquidationParams(q_max=0)
    with pytest.raises(InvalidParams):
        LiquidationParams(z_min=0)
    with pytest.raises(InvalidParams):
        LiquidationParams(z_min=200, z_max=100)
    with pytest.raises(InvalidParams):
        LiquidationParams(z0=40)
    with pytest.raises(InvalidParams):
        LiquidationParams(p_down=0.5, p_stay=0.5, p_up=0.5)
    with pytest.raises(InvalidParams):
        LiquidationParams(p_down=-0.1, p_stay=0.6, p_up=0.5)
    with pytest.raises(InvalidParams):
        LiquidationParams(w1=-1.0)
    with pytest.raises(InvalidParams):
        LiquidationParams(discount=1.5)
    with pytest.raises(InvalidParams):
        LiquidationParams(q_max=10.5)


def test_liquidation_state_id_round_trip():
    p = LiquidationParams(q_max=3, z_min=100, z_max=104, z0=102)
    seen = set()
    for q in range(4):
        for z in range(100, 105):
            sid = liquidation_state_id(p, q, z)
            assert liquidation_state(p, sid) == (q, z)
            seen.add(sid)
    assert seen == set(range(p.state_count))
    with pytest.raises(InvalidParams):
        liquidation_state_id(p, 4, 100)
    with pytest.raises(InvalidParams):
        liquidation_state_id(p, 0, 99)


def test_liquidation_reward_hand_checked():
    p = LiquidationParams()
    # sell 1 of 2 at the anchor price: 0 - 0.2*1 - 0.002*4 = -0.208
    assert liquidation_reward(p, 2, 150, 1) == pytest.approx(-0.208, abs=1e-15)
    assert liquidation_reward(p, 5, 160, 3) == pytest.approx(
        1.0 * 3 * 10 - 0.2 * 9 - 0.002 * 25, abs=1e-12
    )


def test_liquidation_masks_and_rows():
    p = LiquidationParams(q_max=3, z_min=100, z_max=104, z0=102)
    mdp, schedule, decomp = build_liquidation(p)
    assert mdp.state_count == 20
    # U(0) = {0}, U(q) = {1..q}
    assert mdp.mask(liquidation_state_id(p, 0, 102)).tolist() == [0]
    assert mdp.mask(liquidation_state_id(p, 1, 102)).tolist() == [1]
    assert mdp.mask(liquidation_state_id(p, 3, 102)).tolist() == [1, 2, 3]

    # interior price row under u=2 from q=3: inventory drops to 1
    cols, probs, rews = mdp.row(liquidation_state_id(p, 3, 102), 2)
    expect = [
        liquidation_state_id(p, 1, 101),
        liquidation_state_id(p, 1, 102),
        liquidation_state_id(p, 1, 103),
    ]
    assert cols.tolist() == expect
    assert probs.tolist() == pytest.approx([0.4, 0.2, 0.4])
    assert rews.tolist() == pytest.approx([liquidation_reward(p, 3, 102, 2)] * 3)


def test_liquidation_boundary_mass_folds():
    p = LiquidationParams(q_max=1, z_min=100, z_max=102, z0=101)
    mdp, _, _ = build_liquidation(p)
    cols, probs, _ = mdp.row(liquidation_state_id(p, 1, 100), 1)
    assert cols.tolist() == [
        liquidation_state_id(p, 0, 100),
        liquidation_state_id(p, 0, 101),
    ]
    # down-move mass folds onto the boundary: 0.4 + 0.2
    assert probs.tolist() == pytest.approx([0.6, 0.4])
    cols, probs, _ = mdp.row(liquidation_state_id(p, 1, 102), 1)
    assert probs.tolist() == pytest.approx([0.4, 0.6])


def test_liquidation_zero_probability_entries_dropped():
    p = LiquidationParams(p_down=0.5, p_stay=0.0, p_up=0.5, z_min=100, z_max=104, z0=102)
    mdp, _, _ = build_liquidation(p)
    cols, probs, _ = mdp.row(liquidation_state_id(p, 1, 102), 1)
    assert cols.tolist() == [
        liquidation_state_id(p, 0, 101),
        liquidation_state_id(p, 0, 103),
    ]
    assert probs.tolist() == pytest.approx([0.5, 0.5])


def test_liquidation_decomposition_default_walk():
    p = LiquidationParams(q_max=2, z_min=100, z_max=104, z0=102)
    mdp, schedule, decomp = build_liquidation(p)
    # the whole q=0 slice is one closed communicating class
    assert decomp.absorbing.tolist() == list(range(5))
    assert len(decomp.classes) == 1
    assert decomp.classes[0].tolist() == list(range(5))
    assert decomp.transient.tolist() == list(range(5, 15))
    assert_schedule_is_dependency_order(mdp, schedule, decomp)
    assert rmdp.verify_reductive_mdp(mdp).reductive


def test_liquidation_degenerate_walk_keeps_honest_slice():
    # prices only drift down: every q=0 state above the floor is transient
    p = LiquidationParams(
        q_max=2, z_min=100, z_max=103, z0=100, p_down=0.7, p_stay=0.3, p_up=0.0
    )
    mdp, schedule, decomp = build_liquidation(p)
    floor = liquidation_state_id(p, 0, 100)
    assert decomp.absorbing.tolist() == [floor]
    slice_transient = [liquidation_state_id(p, 0, z) for z in (101, 102, 103)]
    assert [s for s in decomp.transient if s < p.z_count] == slice_transient
    assert_schedule_is_dependency_order(mdp, schedule, decomp)
    assert rmdp.verify_reductive_mdp(mdp).reductive
    # solving still works end to end
    res = rmdp.rvi_solve(mdp, schedule, decomp)
    assert rmdp.bellman_residual(mdp, res.values.v) < 1e-9


def test_liquidation_inventory_levels_ascend():
    p = LiquidationParams(q_max=3, z_min=100, z_max=102, z0=101)
    mdp, schedule, decomp = build_liquidation(p)
    Z = p.z_count
    # default walk: no slice-transient levels, one level per inventory count
    assert len(schedule.levels) == 3
    for i, level in enumerate(schedule.levels, start=1):
        assert level.tolist() == list(range(i * Z, (i + 1) * Z))


def test_liquidation_solves_single_unit_policy():
    p = LiquidationParams(q_max=2, z_min=148, z_max=152, z0=150)
    mdp, schedule, decomp = build_liquidation(p)
    res = rmdp.rvi_solve(mdp, schedule, decomp)
    for z in range(148, 153):
        assert res.policy.choice[liquidation_state_id(p, 0, z)] == 0
        assert res.policy.choice[liquidation_state_id(p, 1, z)] == 1


# ---------------------------------------------------------------------------
# spiral


def test_spiral_edges_shape():
    assert len(SPIRAL_EDGES) == 25
    branch = [s for s, succ in SPIRAL_EDGES.items() if len(succ) == 2]
    assert sorted(branch) == [(2, 0), (2, 1), (2, 3)]
    assert SPIRAL_EDGES[(2, 2)] == ((2, 2),)


def test_spiral_state_id_bounds():
    assert spiral_state_id(2, 2) == 12
    assert spiral_state_id(4, 0) == 4
    with pytest.raises(InvalidParams):
        spiral_state_id(5, 0)
    with pytest.raises(InvalidParams):
        spiral_state_id(0, -1)


def test_spiral_chain_rows():
    ch = spiral_chain()
    cols, probs = ch.row(spiral_state_id(2, 1))
    assert cols.tolist() == sorted(
        [spiral_state_id(3, 1), spiral_state_id(2, 2)]
    )
    assert probs.tolist() == [0.5, 0.5]
    cols, probs = ch.row(spiral_state_id(0, 0))
    assert cols.tolist() == [spiral_state_id(1, 0)]
    assert probs.tolist() == [1.0]


def test_spiral_mdp_action_semantics():
    mdp, schedule, decomp = build_spiral(step_reward=-1.0)
    sid = spiral_state_id(2, 1)
    lo = spiral_state_id(2, 2)  # potential 1
    hi = spiral_state_id(3, 1)  # potential 7
    # full weight on the low-potential successor drops the other entry
    cols, probs, rews = mdp.row(sid, 4)
    assert cols.tolist() == [lo]
    assert probs.tolist() == [1.0]
    assert rews.tolist() == [-1.0]
    # weight 0 keeps only the high-potential successor
    cols, probs, _ = mdp.row(sid, 0)
    assert cols.tolist() == [hi]
    # an interior weight splits
    cols, probs, _ = mdp.row(sid, 1)
    assert cols.tolist() == sorted([lo, hi])
    got = dict(zip(cols.tolist(), probs.tolist()))
    assert got[lo] == pytest.approx(0.25)
    assert got[hi] == pytest.approx(0.75)
    # single-successor states ignore the action
    for u in range(5):
        cols, probs, rews = mdp.row(spiral_state_id(0, 0), u)
        assert cols.tolist() == [spiral_state_id(1, 0)]
        assert rews.tolist() == [-1.0]
    # the absorbing site pays nothing
    _, _, rews = mdp.row(spiral_state_id(2, 2), 2)
    assert rews.tolist() == [0.0]
    assert_schedule_is_dependency_order(mdp, schedule, decomp)


def test_spiral_mdp_rejects_bad_mix_levels():
    with pytest.raises(InvalidParams):
        build_spiral(mix_levels=())
    with pytest.raises(InvalidParams):
        build_spiral(mix_levels=(0.0, 1.5))


# ---------------------------------------------------------------------------
# reference chains


def test_fig2a_rows_exact():
    ch = build_fig2("A")
    cols, probs = ch.row(0)
    assert cols.tolist() == [0, 1, 2, 3]
    third = (1.0 - 0.5) / 3.0
    assert probs.tolist() == [0.5, third, third, third]
    for x in (1, 2, 3):
        cols, probs = ch.row(x)
        assert cols.tolist() == [3]
        assert probs.tolist() == [1.0]


def test_fig2b_rows_exact():
    ch = build_fig2("B", loop_prob=0.3)
    cols, probs = ch.row(0)
    assert cols.tolist() == [1, 2]
    assert probs.tolist() == [0.5, 0.5]
    cols, probs = ch.row(3)
    assert cols.tolist() == [3, 4]
    assert probs.tolist() == pytest.approx([0.3, 0.7])
    cols, probs = ch.row(4)
    assert cols.tolist() == [3, 4]
    assert probs.tolist() == pytest.approx([0.7, 0.3])


def test_fig2_validation():
    with pytest.raises(InvalidParams):
        build_fig2("C")
    with pytest.raises(InvalidParams):
        build_fig2("A", loop_prob=0.0)
    with pytest.raises(InvalidParams):
        build_fig2("A", loop_prob=1.0)


# ---------------------------------------------------------------------------
# shrinking intervals


def test_shrink_params_validation():
    with pytest.raises(InvalidParams):
        ShrinkParams(trials=0, steps=1, seed=0)
    with pytest.raises(InvalidParams):
        ShrinkParams(trials=1, steps=0, seed=0)
    with pytest.raises(InvalidParams):
        ShrinkParams(trials=1, steps=1, seed=0, mode="Wobble")
    with pytest.raises(InvalidParams):
        ShrinkParams(trials=1, steps=1, seed=0, mode=rmdp.DELTA_INTERVAL)
    with pytest.raises(InvalidParams):
        ShrinkParams(
            trials=1, steps=1, seed=0, mode=rmdp.DELTA_INTERVAL, delta=1.0
        )


def test_shrink_multiplicative_monotone_and_bounded():
    out = shrink_simulate(ShrinkParams(trials=50, steps=40, seed=7))
    assert out.all_monotone
    assert out.final_abs.shape == (50,)
    assert out.max_final < 1.0
    assert np.all(out.final_abs >= 0.0)


def test_shrink_multiplicative_reproducible():
    a = shrink_simulate(ShrinkParams(trials=20, steps=10, seed=5))
    b = shrink_simulate(ShrinkParams(trials=20, steps=10, seed=5))
    assert np.array_equal(a.final_abs, b.final_abs)
    c = shrink_simulate(ShrinkParams(trials=20, steps=10, seed=6))
    assert not np.array_equal(a.final_abs, c.final_abs)


def test_shrink_delta_interval_collapses_to_zero():
    # with delta = 0.5 the first draw lands in [0, 0.5], so the second
    # interval is empty and every later value is exactly zero
    out = shrink_simulate(
        ShrinkParams(
            trials=30, steps=3, seed=1, mode=rmdp.DELTA_INTERVAL, delta=0.5
        )
    )
    assert out.max_final == 0.0
    assert out.all_monotone


def scalar_delta_interval(trials, steps, seed, delta):
    """Reference: each trial steps X <- U * max(X - delta, 0) one scalar
    draw at a time.  Returns (finals, all_monotone)."""
    children = np.random.SeedSequence(seed).spawn(trials)
    finals = np.empty(trials, dtype=np.float64)
    all_monotone = True
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(children[t]))
        x = 1.0
        for _ in range(steps):
            nxt = rng.random() * max(x - delta, 0.0)
            if nxt > x:
                all_monotone = False
            x = nxt
        finals[t] = x
    return finals, all_monotone


@pytest.mark.parametrize(
    "seed,delta,trials,steps",
    [(0, 0.25, 300, 20), (3, 0.01, 200, 4), (8, 0.05, 150, 2), (5, 0.001, 100, 9)],
)
@pytest.mark.parametrize("block_draws", [None, 10])
def test_shrink_delta_interval_matches_scalar_loop(
    monkeypatch, seed, delta, trials, steps, block_draws
):
    # block_draws=10 forces many small trial blocks, one trial per block
    # when steps exceeds 5
    if block_draws is not None:
        monkeypatch.setattr(rmdp.domains, "_SHRINK_BLOCK_DRAWS", block_draws)
    out = shrink_simulate(
        ShrinkParams(
            trials=trials, steps=steps, seed=seed, mode=rmdp.DELTA_INTERVAL,
            delta=delta,
        )
    )
    finals, monotone = scalar_delta_interval(trials, steps, seed, delta)
    ref_abs = np.abs(finals)
    assert out.final_abs.tobytes() == ref_abs.tobytes()
    assert out.max_final == float(ref_abs.max())
    assert float(out.final_abs.mean()) == float(ref_abs.mean())
    assert out.all_monotone is monotone is True


def test_shrink_expected_drift_values():
    assert shrink_expected_drift(1.0, 0.0) == pytest.approx(0.5)
    assert shrink_expected_drift(0.8, 0.1) == pytest.approx(0.45)
    assert shrink_expected_drift(0.5, 0.075) == pytest.approx(0.2875)


def test_shrink_expected_drift_domain():
    with pytest.raises(DomainError):
        shrink_expected_drift(0.1, 0.2)
    with pytest.raises(DomainError):
        shrink_expected_drift(0.2, 0.2)
    with pytest.raises(DomainError):
        shrink_expected_drift(1.2, 0.0)
    with pytest.raises(DomainError):
        shrink_expected_drift(0.5, -0.1)
