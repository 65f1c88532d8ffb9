import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmdp
from rmdp import (
    DivergentSelfLoop,
    InvalidParams,
    MarkovChain,
    MaxSweepsExceeded,
    NonContractive,
    NonFiniteValue,
    NotReductive,
    Policy,
    ScheduleMismatch,
    SolverConfig,
    ValueTable,
    build_mdp,
    mdp_from_chain,
)
from rmdp import backends, solvers
from rmdp.domains import SPIRAL_EDGES
from rmdp.reachability import AbsorbingDecomposition


def schedule_of(mdp):
    union = mdp.union_chain()
    decomp = rmdp.absorbing_decomposition(union)
    pt = rmdp.counting_potential(union)
    return rmdp.level_set_schedule(pt, decomp), decomp


def reward_mdp():
    """3 states, closed-form value 4.136363... at state 0."""
    spec = {
        "states": 3,
        "actions": 2,
        "discount": 0.9,
        "mask": [[0], [0, 1], [0]],
        "transitions": [
            {"x": 0, "u": 0, "xp": 0, "p": 0.5, "r": 2.0},
            {"x": 0, "u": 0, "xp": 1, "p": 0.25, "r": 1.0},
            {"x": 0, "u": 0, "xp": 2, "p": 0.25, "r": 0.5},
            {"x": 1, "u": 0, "xp": 2, "p": 1.0, "r": 3.0},
            {"x": 1, "u": 1, "xp": 2, "p": 1.0, "r": 4.0},
            {"x": 2, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
        ],
    }
    return build_mdp(spec)


def single_loop_mdp(alpha, gamma, reward):
    """One transient state with a self-loop, one zero-reward sink."""
    spec = {
        "states": 2,
        "actions": 1,
        "discount": gamma,
        "mask": [[0], [0]],
        "transitions": [
            {"x": 0, "u": 0, "xp": 0, "p": alpha, "r": reward},
            {"x": 0, "u": 0, "xp": 1, "p": 1.0 - alpha, "r": reward},
            {"x": 1, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
        ],
    }
    return build_mdp(spec)


# ---------------------------------------------------------------------------
# closed-form update


def test_q_update_hand_checked_case():
    mdp = single_loop_mdp(alpha=0.5, gamma=0.9, reward=1.0)
    values = ValueTable(v=np.zeros(2))
    got = rmdp.q_update(mdp, values, 0, 0)
    assert got == pytest.approx(1.0 / 0.55, abs=1e-10)
    assert got == pytest.approx(1.8181818181818181, abs=1e-10)


def test_q_update_matches_fixed_point_iteration():
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        alpha = rng.uniform(0.0, 0.95)
        gamma = rng.choice([1.0, rng.uniform(0.1, 1.0)])
        if gamma * alpha >= 0.999:
            continue
        reward = rng.normal()
        succ_value = rng.normal()
        mdp = single_loop_mdp(alpha, gamma, reward)
        values = ValueTable(v=np.array([0.0, succ_value]))
        got = rmdp.q_update(mdp, values, 0, 0)
        q = 0.0
        for _ in range(10_000):
            q = reward + gamma * (alpha * q + (1 - alpha) * succ_value)
        assert got == pytest.approx(q, abs=1e-10)


def test_q_update_divergent_loop_raises():
    mdp = single_loop_mdp(alpha=1.0 - 1e-13, gamma=1.0, reward=1.0)
    # alpha is 1 up to float rounding on this row; the sink keeps row sums
    # honest while 1 - gamma*alpha underflows to <= 0
    spec = {
        "states": 1,
        "actions": 1,
        "discount": 1.0,
        "mask": [[0]],
        "transitions": [{"x": 0, "u": 0, "xp": 0, "p": 1.0, "r": 1.0}],
    }
    certain = build_mdp(spec)
    with pytest.raises(DivergentSelfLoop):
        rmdp.q_update(certain, ValueTable(v=np.zeros(1)), 0, 0)
    del mdp


def stay_with_exit_mdp(reward):
    """At discount 1, state 0's only action stays with p = 1.0 and reward
    reward beside a 1e-13 exit to the absorbing state 1."""
    return build_mdp(
        {
            "states": 2,
            "actions": 1,
            "discount": 1.0,
            "mask": [[0], [0]],
            "transitions": [
                {"x": 0, "u": 0, "xp": 0, "p": 1.0, "r": reward},
                {"x": 0, "u": 0, "xp": 1, "p": 1e-13, "r": 0.0},
                {"x": 1, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
            ],
        }
    )


@pytest.mark.parametrize("reward, value", [(0.0, 0.0), (-1.0, -np.inf)])
def test_q_update_stay_without_gain(reward, value):
    got = rmdp.q_update(stay_with_exit_mdp(reward), ValueTable(v=np.zeros(2)), 0, 0)
    assert got == value


def test_rvi_costly_stays_only_end_in_non_finite_value():
    mdp = stay_with_exit_mdp(-1.0)
    support = mdp.support()
    decomp = rmdp.absorbing_decomposition(support)
    schedule = rmdp.height_schedule(support, decomp)
    with pytest.raises(NonFiniteValue, match=r"state 0 has a non-finite value \(-inf\)"):
        rmdp.rvi_solve(mdp, schedule, decomp)


# ---------------------------------------------------------------------------
# absorbing subspace


def test_zero_reward_absorbing_shortcut():
    mdp = mdp_from_chain(rmdp.build_fig2("A"))
    sched, decomp = schedule_of(mdp)
    res = rmdp.rvi_solve(mdp, sched, decomp)
    assert res.values.v.tolist() == [0.0, 0.0, 0.0, 0.0]
    assert res.stats.residual == 0.0


def test_absorbing_two_cycle_discounted_value():
    # closed 2-cycle, reward 1 every step, discount 0.5: v = 1/(1-0.5) = 2
    ch = MarkovChain.from_rows(
        [[(1, 1.0)], [(0, 1.0)]], rewards=[[1.0], [1.0]]
    )
    mdp = mdp_from_chain(ch, discount=0.5)
    decomp = rmdp.absorbing_decomposition(ch)
    values = rmdp.solve_absorbing_subspace(mdp, decomp, SolverConfig())
    assert values.v == pytest.approx([2.0, 2.0], abs=1e-9)


def test_undiscounted_rewarded_class_raises_non_contractive():
    ch = MarkovChain.from_rows(
        [[(1, 1.0)], [(0, 1.0)]], rewards=[[1.0], [1.0]]
    )
    mdp = mdp_from_chain(ch, discount=1.0)
    decomp = rmdp.absorbing_decomposition(ch)
    with pytest.raises(NonContractive):
        rmdp.solve_absorbing_subspace(mdp, decomp, SolverConfig())


# ---------------------------------------------------------------------------
# rvi


def test_rvi_exact_on_reward_mdp():
    mdp = reward_mdp()
    sched, decomp = schedule_of(mdp)
    res = rmdp.rvi_solve(mdp, sched, decomp)
    assert res.values.v == pytest.approx([4.136363636363636, 4.0, 0.0], abs=1e-12)
    assert res.policy.choice.tolist() == [0, 1, 0]
    assert res.stats.sweeps == 1
    assert res.stats.q_updates == 3
    assert res.stats.converged
    assert res.stats.wall_nanos > 0


def spiral_oracle_distances():
    # min-plus shortest path over the allowed successor sets, iterated to
    # fixation; branch states may pick either edge
    dist = {s: np.inf for s in SPIRAL_EDGES}
    dist[(2, 2)] = 0.0
    for _ in range(60):
        for s, succs in SPIRAL_EDGES.items():
            if s == (2, 2):
                continue
            dist[s] = 1.0 + min(dist[t] for t in succs)
    return dist


def test_rvi_spiral_against_shortest_path_oracle():
    mdp, sched, decomp = rmdp.build_spiral()
    res = rmdp.rvi_solve(mdp, sched, decomp)
    dist = spiral_oracle_distances()
    for (x, y), d in dist.items():
        sid = rmdp.spiral_state_id(x, y)
        assert res.values.v[sid] == pytest.approx(-d, abs=1e-12)
    # the full-weight action is strictly best at every branch state; ties
    # elsewhere resolve to the lowest action id
    for x, y in ((2, 0), (2, 1), (2, 3)):
        assert res.policy.choice[rmdp.spiral_state_id(x, y)] == 4
    assert res.policy.choice[rmdp.spiral_state_id(0, 0)] == 0


def test_rvi_schedule_mismatch_detected():
    mdp = reward_mdp()
    sched, decomp = schedule_of(mdp)
    missing = rmdp.LevelSetSchedule(levels=sched.levels[:-1])
    with pytest.raises(ScheduleMismatch):
        rmdp.rvi_solve(mdp, missing, decomp)
    doubled = rmdp.LevelSetSchedule(levels=sched.levels + sched.levels[-1:])
    with pytest.raises(ScheduleMismatch):
        rmdp.rvi_solve(mdp, doubled, decomp)


def test_rvi_out_of_order_schedule_detected():
    # reversing the levels makes a state read an unsolved successor
    mdp = reward_mdp()
    sched, decomp = schedule_of(mdp)
    assert len(sched.levels) >= 2
    backwards = rmdp.LevelSetSchedule(levels=tuple(reversed(sched.levels)))
    with pytest.raises(ScheduleMismatch):
        rmdp.rvi_solve(mdp, backwards, decomp)


def test_rvi_rejects_empty_absorbing_decomposition():
    mdp = reward_mdp()
    sched, _ = schedule_of(mdp)
    fake = AbsorbingDecomposition(
        transient=np.arange(3, dtype=np.int64),
        absorbing=np.empty(0, dtype=np.int64),
        classes=(),
    )
    bad_sched = rmdp.LevelSetSchedule(
        levels=sched.levels + (np.array([2], dtype=np.int64),)
    )
    with pytest.raises(NotReductive):
        rmdp.rvi_solve(mdp, bad_sched, fake)


# ---------------------------------------------------------------------------
# baselines


def test_qvi_matches_rvi_on_reward_mdp():
    mdp = reward_mdp()
    sched, decomp = schedule_of(mdp)
    ref = rmdp.rvi_solve(mdp, sched, decomp)
    cfg = SolverConfig()
    for result in (
        rmdp.qvi_solve(mdp, cfg),
        rmdp.qvi_solve(
            mdp, SolverConfig(ordering=rmdp.RANDOM_PER_SWEEP, seed=5)
        ),
        rmdp.qvi_solve(
            mdp,
            SolverConfig(ordering=rmdp.REVERSED_LEVEL_SETS),
            schedule=sched,
        ),
        rmdp.bvi_solve(mdp, decomp, cfg),
    ):
        assert np.max(np.abs(result.values.v - ref.values.v)) < 1e-8
        assert result.stats.converged


def test_qvi_warm_start_converges_in_one_sweep():
    mdp = reward_mdp()
    sched, decomp = schedule_of(mdp)
    ref = rmdp.rvi_solve(mdp, sched, decomp)
    warm = rmdp.qvi_solve(mdp, SolverConfig(), v0=ref.values.v)
    assert warm.stats.sweeps == 1
    assert np.max(np.abs(warm.values.v - ref.values.v)) < 1e-9


def test_qvi_reversed_requires_schedule():
    mdp = reward_mdp()
    with pytest.raises(InvalidParams):
        rmdp.qvi_solve(mdp, SolverConfig(ordering=rmdp.REVERSED_LEVEL_SETS))


def test_qvi_max_sweeps_exceeded():
    mdp = single_loop_mdp(alpha=0.9, gamma=1.0, reward=1.0)
    with pytest.raises(MaxSweepsExceeded):
        rmdp.qvi_solve(mdp, SolverConfig(max_sweeps=2))


def test_qvi_random_ordering_is_seed_deterministic():
    mdp = reward_mdp()
    a = rmdp.qvi_solve(mdp, SolverConfig(ordering=rmdp.RANDOM_PER_SWEEP, seed=9))
    b = rmdp.qvi_solve(mdp, SolverConfig(ordering=rmdp.RANDOM_PER_SWEEP, seed=9))
    assert np.array_equal(a.values.v, b.values.v)
    assert a.stats.sweeps == b.stats.sweeps


def test_bvi_requires_absorbing_part():
    mdp = reward_mdp()
    fake = AbsorbingDecomposition(
        transient=np.arange(3, dtype=np.int64),
        absorbing=np.empty(0, dtype=np.int64),
        classes=(),
    )
    with pytest.raises(NotReductive):
        rmdp.bvi_solve(mdp, fake, SolverConfig())


def test_bvi_dequeue_cap_exceeded():
    # 2 states x 1 action x 1 sweep: the self-loop needs a third dequeue
    mdp = single_loop_mdp(alpha=0.9, gamma=1.0, reward=1.0)
    _, decomp = schedule_of(mdp)
    with pytest.raises(MaxSweepsExceeded, match=r"^BVI hit the dequeue cap \(2\)$"):
        rmdp.bvi_solve(mdp, decomp, SolverConfig(max_sweeps=1))


def test_bvi_self_loop_state_reconverges():
    # the transient self-loop forces repeated dequeues of state 0
    mdp = single_loop_mdp(alpha=0.5, gamma=0.9, reward=1.0)
    sched, decomp = schedule_of(mdp)
    res = rmdp.bvi_solve(mdp, decomp, SolverConfig())
    assert res.values.v[0] == pytest.approx(1.0 / 0.55, abs=1e-9)
    assert res.stats.sweeps > 1


def test_bvi_propagates_past_zero_delta_states():
    # state 1's backup leaves its value at exactly 0, yet state 0 behind it
    # still earns reward 1; the wavefront must pass the plateau
    spec = {
        "states": 3,
        "actions": 1,
        "discount": 1.0,
        "mask": [[0], [0], [0]],
        "transitions": [
            {"x": 0, "u": 0, "xp": 1, "p": 1.0, "r": 1.0},
            {"x": 1, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
            {"x": 2, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
        ],
    }
    mdp = rmdp.build_mdp(spec)
    sched, decomp = schedule_of(mdp)
    res = rmdp.bvi_solve(mdp, decomp, SolverConfig())
    assert res.values.v.tolist() == [1.0, 0.0, 0.0]
    assert res.stats.sweeps >= 2  # both transient states dequeued


def test_solver_config_validation():
    with pytest.raises(InvalidParams):
        SolverConfig(epsilon=0.5)
    with pytest.raises(InvalidParams):
        SolverConfig(epsilon=0.0)
    with pytest.raises(InvalidParams):
        SolverConfig(max_sweeps=0)
    with pytest.raises(InvalidParams):
        SolverConfig(ordering="Sideways")


def test_bellman_residual_zero_at_fixed_point():
    mdp = reward_mdp()
    sched, decomp = schedule_of(mdp)
    res = rmdp.rvi_solve(mdp, sched, decomp)
    assert rmdp.bellman_residual(mdp, res.values.v) < 1e-12
    off = res.values.v + 1.0
    assert rmdp.bellman_residual(mdp, off) > 0.05


def self_loop_instance():
    mdp = single_loop_mdp(alpha=0.5, gamma=0.9, reward=1.0)
    sched, decomp = schedule_of(mdp)
    return mdp, sched, decomp


@pytest.mark.parametrize(
    "build",
    [
        rmdp.build_spiral,
        lambda: rmdp.build_liquidation(
            rmdp.LiquidationParams(q_max=4, z_min=100, z_max=108, z0=104)
        ),
        self_loop_instance,
    ],
    ids=["spiral", "liquidation", "self-loop"],
)
def test_bvi_reports_measured_residual(build):
    mdp, _, decomp = build()
    res = rmdp.bvi_solve(mdp, decomp, SolverConfig())
    assert res.stats.residual == rmdp.bellman_residual(mdp, res.values.v)
    assert res.stats.residual <= 1e-8


def test_bvi_residual_is_nonzero_when_iteration_stops_short():
    # the self-loop state converges geometrically, so BVI stops within
    # epsilon of the fixed point, not on it
    mdp, _, decomp = self_loop_instance()
    assert rmdp.bvi_solve(mdp, decomp, SolverConfig()).stats.residual > 0.0


# ---------------------------------------------------------------------------
# agreement on randomized reductive MDPs


@st.composite
def reductive_mdps(draw):
    n_transient = draw(st.integers(min_value=1, max_value=5))
    class_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=2)
    )
    n = n_transient + sum(class_sizes)
    discount = draw(st.sampled_from([0.9, 1.0]))
    transitions = []
    mask = []
    base = n_transient
    for size in class_sizes:
        members = list(range(base, base + size))
        for i, s in enumerate(members):
            r = 0.0 if discount >= 1.0 else draw(st.sampled_from([0.0, 1.0, -2.0]))
            transitions.append(
                {"x": s, "u": 0, "xp": members[(i + 1) % size], "p": 1.0, "r": r}
            )
        base += size
    for x in range(n_transient):
        n_actions = draw(st.integers(min_value=1, max_value=2))
        for u in range(n_actions):
            succs = draw(
                st.lists(
                    st.integers(x + 1, n - 1),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
            loop = draw(st.sampled_from([0.0, 0.4]))
            share = (1.0 - loop) / len(succs)
            for s in succs:
                r = draw(st.sampled_from([0.0, 1.0, -1.0, 2.5]))
                transitions.append({"x": x, "u": u, "xp": s, "p": share, "r": r})
            if loop:
                transitions.append({"x": x, "u": u, "xp": x, "p": loop, "r": 0.5})
        mask.append(list(range(n_actions)))
    mask.extend([[0]] * (n - n_transient))
    spec = {
        "states": n,
        "actions": max(len(m) for m in mask),
        "discount": discount,
        "mask": mask,
        "transitions": transitions,
    }
    return build_mdp(spec)


@settings(max_examples=50, deadline=None)
@given(reductive_mdps())
def test_all_solvers_agree_on_generated_instances(mdp):
    assert rmdp.verify_reductive_mdp(mdp).reductive
    sched, decomp = schedule_of(mdp)
    ref = rmdp.rvi_solve(mdp, sched, decomp)
    assert ref.stats.q_updates == int(mdp.mask_sizes()[decomp.transient].sum())
    assert rmdp.bellman_residual(mdp, ref.values.v) < 1e-9
    cfg = SolverConfig()
    others = [
        rmdp.qvi_solve(mdp, cfg),
        rmdp.qvi_solve(mdp, SolverConfig(ordering=rmdp.RANDOM_PER_SWEEP, seed=3)),
        rmdp.qvi_solve(
            mdp, SolverConfig(ordering=rmdp.REVERSED_LEVEL_SETS), schedule=sched
        ),
        rmdp.bvi_solve(mdp, decomp, cfg),
    ]
    for res in others:
        assert np.max(np.abs(res.values.v - ref.values.v)) < 1e-7


# ---------------------------------------------------------------------------
# merged levels


def rvi_level_by_level(mdp, schedule, decomp):
    """The one-pass solve with one kernel step per schedule level.

    Reference for rvi_solve, which backs up runs of independent levels
    together.  Returns the error the kernel raised (None if it ran
    through) with v, q, pol and the number of transient pairs.
    """
    v = np.zeros(mdp.state_count)
    q = np.zeros(mdp.pair_count)
    pol = np.zeros(mdp.state_count, dtype=np.int64)
    solvers._solve_absorbing(mdp, decomp, SolverConfig(), v, q, pol)
    solved = np.zeros(mdp.state_count, dtype=np.uint8)
    solved[decomp.absorbing] = 1
    sizes = [lv.size for lv in schedule.levels]
    level_ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    states = np.concatenate(
        [np.asarray(lv, dtype=np.int64) for lv in schedule.levels]
    ) if sizes else np.empty(0, dtype=np.int64)
    try:
        backends.rvi_pass(
            level_ptr, states, mdp.state_ptr, mdp.pair_action, mdp.pair_ptr,
            mdp.col, mdp.prob, mdp.rew, mdp.discount, v, solved, q, pol,
        )
    except (ScheduleMismatch, DivergentSelfLoop) as exc:
        error = exc
    else:
        error = None
    return error, v, q, pol, int(mdp.mask_sizes()[states].sum())


def assert_rvi_matches_level_by_level(mdp, schedule, decomp):
    """rvi_solve equals the reference bit for bit, or fails as it does.

    A failure must be the same exception naming the same state.  Returns
    the reference's error, None when it ran through.
    """
    error, v, q, pol, q_updates = rvi_level_by_level(mdp, schedule, decomp)
    if error is not None:
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            rmdp.rvi_solve(mdp, schedule, decomp)
    else:
        res = rmdp.rvi_solve(mdp, schedule, decomp)
        assert res.values.v.tobytes() == v.tobytes()
        assert res.values.q.tobytes() == q.tobytes()
        assert res.policy.choice.tobytes() == pol.tobytes()
        assert res.stats.q_updates == q_updates
    return error


def assert_groups_valid_and_maximal(mdp, schedule, decomp):
    levels = list(schedule.levels)
    states = np.concatenate(levels).astype(np.int64)
    group_ptr = solvers._level_groups(mdp, levels, states, decomp.absorbing)
    level_ptr = np.concatenate([[0], np.cumsum([lv.size for lv in levels])])
    assert set(group_ptr.tolist()) <= set(level_ptr.tolist())
    assert group_ptr[0] == 0 and group_ptr[-1] == states.size
    group_of = np.full(mdp.state_count, -1)
    for k in range(group_ptr.size - 1):
        group_of[states[group_ptr[k] : group_ptr[k + 1]]] = k
    reads = [set() for _ in range(group_ptr.size - 1)]
    for x in states.tolist():
        a, b = mdp.state_ptr[x], mdp.state_ptr[x + 1]
        for xp in mdp.col[mdp.pair_ptr[a] : mdp.pair_ptr[b]].tolist():
            if xp != x and group_of[xp] >= 0:
                reads[group_of[x]].add(int(group_of[xp]))
    for k, r in enumerate(reads):
        assert k not in r, "a group reads itself"
        if k:
            assert k - 1 in r, "a group could have joined the one before"
    return group_ptr.size - 1


def reschedule(schedule, how, data):
    levels = [np.asarray(lv, dtype=np.int64) for lv in schedule.levels]
    if how == "reversed":
        levels = levels[::-1]
    elif how == "singletons":
        levels = [np.array([x]) for lv in levels for x in lv.tolist()]
    elif how == "merge-two" and len(levels) >= 2:
        i = data.draw(st.integers(0, len(levels) - 2))
        levels[i : i + 2] = [np.concatenate(levels[i : i + 2])]
    elif how == "swap-two" and len(levels) >= 2:
        i = data.draw(st.integers(0, len(levels) - 2))
        levels[i], levels[i + 1] = levels[i + 1], levels[i]
    elif how == "shuffled":
        levels = data.draw(st.permutations(levels))
    elif how == "empty-level":
        i = data.draw(st.integers(0, len(levels)))
        levels.insert(i, np.empty(0, dtype=np.int64))
    return rmdp.LevelSetSchedule(levels=tuple(levels))


@settings(max_examples=60, deadline=None)
@given(
    reductive_mdps(),
    st.sampled_from(
        [
            "derived",
            "reversed",
            "singletons",
            "merge-two",
            "swap-two",
            "shuffled",
            "empty-level",
        ]
    ),
    st.data(),
)
def test_rvi_merged_levels_match_level_by_level(mdp, how, data):
    sched, decomp = schedule_of(mdp)
    sched = reschedule(sched, how, data)
    error = assert_rvi_matches_level_by_level(mdp, sched, decomp)
    if error is None and sched.levels:
        assert_groups_valid_and_maximal(mdp, sched, decomp)


@pytest.mark.parametrize("derived", [False, True])
def test_rvi_merged_levels_match_level_by_level_on_liquidation(derived):
    mdp, sched, decomp = rmdp.build_liquidation(rmdp.LiquidationParams(q_max=20))
    if derived:
        sched, decomp = schedule_of(mdp)
    assert assert_rvi_matches_level_by_level(mdp, sched, decomp) is None
    groups = assert_groups_valid_and_maximal(mdp, sched, decomp)
    if derived:
        assert groups < len(sched.levels)


def assert_levels_read_only_earlier(mdp, schedule, decomp):
    """Each level's successors, self-loops aside, are in earlier levels or absorbing."""
    done = np.zeros(mdp.state_count, dtype=bool)
    done[decomp.absorbing] = True
    for level in schedule.levels:
        for x in level.tolist():
            a, b = mdp.state_ptr[x], mdp.state_ptr[x + 1]
            row = mdp.col[mdp.pair_ptr[a] : mdp.pair_ptr[b]]
            assert done[row[row != x]].all(), f"state {x} reads its level or later"
        done[level] = True


def assert_same_solve(mdp, a, b, decomp):
    """rvi_solve on schedules a and b agrees bit for bit, stats included."""
    ra, rb = (rmdp.rvi_solve(mdp, s, decomp) for s in (a, b))
    assert ra.values.v.tobytes() == rb.values.v.tobytes()
    assert ra.values.q.tobytes() == rb.values.q.tobytes()
    assert ra.policy.choice.tobytes() == rb.policy.choice.tobytes()
    assert replace(ra.stats, wall_nanos=0) == replace(rb.stats, wall_nanos=0)


@settings(max_examples=60, deadline=None)
@given(reductive_mdps())
def test_height_schedule_solves_like_potential_levels(mdp):
    union = mdp.union_chain()
    decomp = rmdp.absorbing_decomposition(union)
    by_potential = rmdp.level_set_schedule(rmdp.counting_potential(union), decomp)
    by_height = rmdp.height_schedule(union, decomp)
    assert len(by_height.levels) <= len(by_potential.levels)
    for lv in by_height.levels:
        assert lv.size and np.all(np.diff(lv) > 0)
    # The support has the union chain's structure, so the same heights.
    from_support = rmdp.height_schedule(mdp.support(), decomp)
    assert [lv.tolist() for lv in from_support.levels] == [
        lv.tolist() for lv in by_height.levels
    ]
    assert_levels_read_only_earlier(mdp, by_height, decomp)
    assert_same_solve(mdp, by_height, by_potential, decomp)


def test_height_schedule_solves_like_potential_levels_on_liquidation():
    mdp, domain, decomp = rmdp.build_liquidation(rmdp.LiquidationParams(q_max=20))
    support = mdp.support()
    by_height = rmdp.height_schedule(support, decomp)
    by_potential = rmdp.level_set_schedule(rmdp.counting_potential(support), decomp)
    # One level per inventory level, like the domain's own schedule.
    assert len(by_height.levels) == len(domain.levels) < len(by_potential.levels)
    assert_levels_read_only_earlier(mdp, by_height, decomp)
    assert_same_solve(mdp, by_height, by_potential, decomp)


def liquidation_derived_schedule():
    mdp, _, _ = rmdp.build_liquidation(rmdp.LiquidationParams(q_max=20))
    sched, decomp = schedule_of(mdp)
    return mdp, [np.asarray(lv) for lv in sched.levels], decomp


def reads_level(mdp, level, other):
    """Whether some state of level has a successor in other."""
    targets = set(np.asarray(other).tolist())
    for x in np.asarray(level).tolist():
        a, b = mdp.state_ptr[x], mdp.state_ptr[x + 1]
        row = mdp.col[mdp.pair_ptr[a] : mdp.pair_ptr[b]].tolist()
        if targets.intersection(row) - {x}:
            return True
    return False


def test_rvi_invalid_schedules_name_the_level_by_level_state():
    mdp, levels, decomp = liquidation_derived_schedule()
    # First consecutive pair of levels joined by an edge.
    i = next(
        k for k in range(1, len(levels)) if reads_level(mdp, levels[k], levels[k - 1])
    )
    cases = {
        "reversed": levels[::-1],
        # Two adjacent states in one level.
        "merged": levels[: i - 1] + [np.concatenate(levels[i - 1 : i + 1])]
        + levels[i + 1 :],
        # A level that reads the level after it.
        "swapped": levels[: i - 1] + [levels[i], levels[i - 1]] + levels[i + 1 :],
    }
    for name, lv in cases.items():
        sched = rmdp.LevelSetSchedule(levels=tuple(lv))
        error = assert_rvi_matches_level_by_level(mdp, sched, decomp)
        assert isinstance(error, ScheduleMismatch), name


# ---------------------------------------------------------------------------
# simulation


def test_simulate_policy_deterministic_and_absorbing():
    mdp = mdp_from_chain(rmdp.build_fig2("A"))
    pol = Policy(choice=np.zeros(4, dtype=np.int64))
    a = rmdp.simulate_policy(mdp, pol, start=0, horizon=200, trials=20, seed=4)
    b = rmdp.simulate_policy(mdp, pol, start=0, horizon=200, trials=20, seed=4)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.states, tb.states)
        assert np.array_equal(ta.rewards, tb.rewards)
    for tr in a:
        assert tr.states[-1] == 3
        assert tr.states.size == tr.actions.size + 1
        assert tr.states.size == tr.rewards.size + 1


def test_simulate_policy_respects_horizon():
    # self-loop heavy chain that rarely leaves state 0 in 2 steps
    ch = MarkovChain.from_rows([[(0, 0.99), (1, 0.01)], [(1, 1.0)]])
    mdp = mdp_from_chain(ch)
    pol = Policy(choice=np.zeros(2, dtype=np.int64))
    trajs = rmdp.simulate_policy(mdp, pol, start=0, horizon=2, trials=50, seed=0)
    assert all(t.actions.size <= 2 for t in trajs)


def test_simulate_policy_rejects_bad_params():
    mdp = mdp_from_chain(rmdp.build_fig2("A"))
    pol = Policy(choice=np.zeros(4, dtype=np.int64))
    with pytest.raises(InvalidParams):
        rmdp.simulate_policy(mdp, pol, start=0, horizon=0, trials=1, seed=0)
    with pytest.raises(InvalidParams):
        rmdp.simulate_policy(mdp, pol, start=0, horizon=1, trials=0, seed=0)


def simulate_one_trial_at_a_time(mdp, policy, start, horizon, trials, seed):
    """Reference: each trial alone, one draw and one searchsorted per step.

    Returns the trajectories and how many steps took the clamp to a row's
    last successor (a draw at or above the row's last cumulative sum).
    """
    chain = rmdp.induced_chain(mdp, policy)
    is_abs = np.zeros(chain.state_count, dtype=bool)
    is_abs[rmdp.absorbing_decomposition(chain).absorbing] = True
    clamps = 0
    out = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.Generator(np.random.PCG64(child))
        x = int(start)
        states, actions, rewards = [x], [], []
        for _ in range(horizon):
            if is_abs[x]:
                break
            a = chain.row_ptr[x]
            cum = np.cumsum(chain.prob[a : chain.row_ptr[x + 1]])
            j = int(np.searchsorted(cum, rng.random(), side="right"))
            if j >= cum.size:
                j = cum.size - 1
                clamps += 1
            states.append(int(chain.col[a + j]))
            actions.append(int(policy.choice[x]))
            rewards.append(float(chain.rew[a + j]))
            x = states[-1]
        out.append(
            solvers.Trajectory(
                states=np.asarray(states, dtype=np.int64),
                actions=np.asarray(actions, dtype=np.int64),
                rewards=np.asarray(rewards, dtype=np.float64),
            )
        )
    return out, clamps


TOP_DRAW = np.nextafter(1.0, 0.0)


class HighDraws:
    """numpy's Generator with every draw above 0.9 raised to the largest
    double below 1, so that rows whose cumulative sums end below 1 hit
    the clamp to their last successor."""

    def __init__(self, bit_generator, _real=np.random.Generator):
        self._rng = _real(bit_generator)

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        if out is None and size is None:
            return TOP_DRAW if u > 0.9 else u
        u[u > 0.9] = TOP_DRAW
        return u


def lockstep_chain():
    """State 0 spreads 0.1 over ten successors (cumulative sums end at
    1 - 2**-53); state 1 loops on itself; states 2-10 return to 0 or
    absorb; 11 and 12 are absorbing."""
    rows = [[(s, 0.1) for s in range(1, 11)], [(1, 0.5), (11, 0.5)]]
    rows += [[(0, 0.3), (12, 0.7)] for _ in range(2, 11)]
    rows += [[(11, 1.0)], [(12, 1.0)]]
    rewards = [[float(10 * x + k) for k in range(len(r))] for x, r in enumerate(rows)]
    return mdp_from_chain(MarkovChain.from_rows(rows, rewards))


@pytest.mark.parametrize(
    "start, horizon, trials, block, high",
    [
        (0, 7, 60, 3, True),  # clamp path, horizon cut-off, several blocks
        (0, 60, 40, 4, False),  # trials end at different steps
        (0, 60, 40, None, True),
        (11, 5, 10, 2, False),  # the start state is already absorbing
    ],
)
def test_simulate_policy_matches_scalar_loop(
    monkeypatch, start, horizon, trials, block, high
):
    mdp = lockstep_chain()
    pol = Policy(choice=np.zeros(mdp.state_count, dtype=np.int64))
    if high:
        monkeypatch.setattr(np.random, "Generator", HighDraws)
    if block is not None:
        monkeypatch.setattr(solvers, "_SIMULATE_BLOCK_STEPS", block)
    ref, clamps = simulate_one_trial_at_a_time(mdp, pol, start, horizon, trials, 5)
    out = rmdp.simulate_policy(mdp, pol, start, horizon, trials, 5)
    assert len(out) == trials
    for a, b in zip(out, ref):
        for name in ("states", "actions", "rewards"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    steps = [t.actions.size for t in ref]
    if start == 11:
        assert steps == [0] * trials
        return
    assert len(set(steps)) > 1
    assert (max(steps) == horizon) == (horizon < 60)
    assert (clamps > 0) == high
    if block is not None:
        assert max(steps) > 2 * block


def test_simulate_policy_matches_scalar_loop_on_liquidation(monkeypatch):
    """Several actions per state, the policy's choices as actions."""
    params = rmdp.LiquidationParams(q_max=6, z_min=100, z_max=108, z0=104)
    mdp, schedule, decomp = rmdp.build_liquidation(params)
    pol = rmdp.rvi_solve(mdp, schedule, decomp).policy
    start = rmdp.liquidation_state_id(params, params.q_max, params.z0)
    monkeypatch.setattr(solvers, "_SIMULATE_BLOCK_STEPS", 2)
    ref, _ = simulate_one_trial_at_a_time(mdp, pol, start, 50, 30, 9)
    out = rmdp.simulate_policy(mdp, pol, start, 50, 30, 9)
    assert any(t.actions.size > 4 for t in ref)
    assert len(np.unique(np.concatenate([t.actions for t in ref]))) > 1
    for a, b in zip(out, ref):
        for name in ("states", "actions", "rewards"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
