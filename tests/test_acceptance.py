"""Acceptance gate: ten end-to-end criteria, one printed verdict each.

Every test prints a single `[criterion NN] label: PASS|FAIL` line (always
visible, even under -q) and then asserts, so the suite both reports and
enforces the contract.  Shared instances are built once per module.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from rmdp import (
    MULTIPLICATIVE,
    REVERSED_LEVEL_SETS,
    LiquidationParams,
    MarkovChain,
    Policy,
    ShrinkParams,
    SolverConfig,
    ValueTable,
    absorbing_decomposition,
    bellman_residual,
    build_fig2,
    build_liquidation,
    build_mdp,
    build_spiral,
    bvi_solve,
    canonical_permutation,
    counting_potential,
    induced_chain,
    level_set_schedule,
    liquidation_state_id,
    mdp_from_chain,
    q_update,
    qvi_solve,
    rvi_solve,
    self_loop_states,
    shrink_expected_drift,
    shrink_simulate,
    simulate_policy,
    spiral_chain,
    verify_reductive,
)

# Annotated potential grid for the 5x5 spiral fixture, state id = 5*y + x
# with row y=0 at the top.
SPIRAL_PHI = [
    25, 24, 23, 22, 21,
    10,  9,  8,  7, 20,
    11,  2,  1,  6, 19,
    12,  3,  4,  5, 18,
    13, 14, 15, 16, 17,
]

TWO_CYCLE_ROWS = [
    [(1, 1.0)],
    [(0, 0.5), (2, 0.5)],
    [(2, 1.0)],
]


@pytest.fixture(scope="module")
def check():
    def _check(num, label, ok):
        print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}")
        assert ok, f"criterion {num} failed: {label}"

    return _check


@pytest.fixture(autouse=True)
def _always_show(capsys):
    """Emit the verdict lines outside pytest's capture."""
    yield
    out = capsys.readouterr().out
    if out:
        with capsys.disabled():
            print(out, end="")


@pytest.fixture(scope="module")
def fixtures():
    chains = {
        "fig2a": build_fig2("A"),
        "fig2b": build_fig2("B"),
        "spiral": spiral_chain(),
    }
    liq10 = build_liquidation(LiquidationParams(q_max=10))
    two_cycle = MarkovChain.from_rows(TWO_CYCLE_ROWS)
    return chains, liq10, two_cycle


def schedule_of(mdp):
    union = mdp.union_chain()
    decomp = absorbing_decomposition(union)
    pt = counting_potential(union)
    return level_set_schedule(pt, decomp), decomp


def dense(chain):
    n = chain.state_count
    mat = np.zeros((n, n))
    for x in range(n):
        a, b = chain.row_ptr[x], chain.row_ptr[x + 1]
        mat[x, chain.col[a:b]] = chain.prob[a:b]
    return mat


def test_criterion_01_spiral_potentials_exact(check):
    t0 = time.perf_counter()
    pt = counting_potential(spiral_chain())
    elapsed = time.perf_counter() - t0
    ok = pt.phi.tolist() == SPIRAL_PHI and elapsed < 1.0
    check(1, "spiral potentials exact", ok)


def test_criterion_02_canonical_form_full_scan(check, fixtures):
    chains, liq10, _ = fixtures
    cases = dict(chains)
    cases["liquidation-q10"] = liq10[0].union_chain()
    ok = True
    for chain in cases.values():
        decomp = absorbing_decomposition(chain)
        pt = counting_potential(chain)
        perm = canonical_permutation(chain, decomp, pt)
        mat = dense(chain)[np.ix_(perm.order, perm.order)]
        k = decomp.transient.size
        ok &= bool(np.all(np.tril(mat[:k, :k], -1) == 0.0))
        ok &= bool(np.all(mat[k:, :k] == 0.0))
    check(2, "canonical form upper-triangular", ok)


def test_criterion_03_verifier_soundness(check, fixtures):
    chains, liq10, two_cycle = fixtures
    ok = True
    for chain in chains.values():
        ok &= verify_reductive(chain).reductive
    ok &= verify_reductive(liq10[0].union_chain()).reductive
    verdict = verify_reductive(two_cycle)
    ok &= not verdict.reductive
    ok &= any(v.kind == "NonDecreasingTransient" for v in verdict.violations)
    check(3, "verifier soundness", ok)


def test_criterion_04_solver_equivalence(check):
    t0 = time.perf_counter()
    liq = build_liquidation(
        LiquidationParams(
            q_max=20, z_min=140, z_max=160, z0=150,
            w0=1.0, w1=0.2, w2=0.002, discount=1.0,
        )
    )
    spiral = build_spiral()
    cfg = SolverConfig(epsilon=1e-10)
    ok = True
    for mdp, schedule, decomp in (liq, spiral):
        rvi = rvi_solve(mdp, schedule, decomp, cfg)
        gs = qvi_solve(mdp, cfg)
        ok &= float(np.max(np.abs(rvi.values.v - gs.values.v))) <= 1e-6
        ok &= bellman_residual(mdp, rvi.values.v) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    check(4, "solver equivalence", ok)


def test_criterion_05_single_pass_accounting(check, fixtures):
    chains, liq10, _ = fixtures
    instances = [mdp_from_chain(c) for c in chains.values()]
    instances.append(liq10[0])
    instances.append(build_spiral()[0])
    ok = True
    for mdp in instances:
        schedule, decomp = schedule_of(mdp)
        res = rvi_solve(mdp, schedule, decomp)
        transient = np.ones(mdp.state_count, dtype=bool)
        transient[decomp.absorbing] = False
        expected = int(mdp.mask_sizes()[transient].sum())
        ok &= res.stats.q_updates == expected
        ok &= res.stats.sweeps == 1
    mdp, schedule, decomp = build_liquidation(LiquidationParams(q_max=50))
    rev = qvi_solve(
        mdp,
        SolverConfig(ordering=REVERSED_LEVEL_SETS),
        schedule=schedule,
    )
    ok &= rev.stats.sweeps >= 25
    check(5, "single-pass accounting", ok)


def test_criterion_06_speedup_trend(check):
    t0 = time.perf_counter()
    mdp, schedule, decomp = build_liquidation(
        LiquidationParams(q_max=100, z_min=40, z_max=260, z0=150)
    )
    cfg = SolverConfig(epsilon=1e-10)

    def median_wall(run):
        walls = []
        for rep in range(5):
            walls.append(run(replace(cfg, seed=rep)).stats.wall_nanos)
        return float(np.median(walls))

    rvi_med = median_wall(lambda c: rvi_solve(mdp, schedule, decomp, c))
    rev_med = median_wall(
        lambda c: qvi_solve(
            mdp, replace(c, ordering=REVERSED_LEVEL_SETS), schedule=schedule
        )
    )
    bvi_med = median_wall(lambda c: bvi_solve(mdp, decomp, c))
    elapsed = time.perf_counter() - t0
    ok = rvi_med * 5.0 <= rev_med and rvi_med <= bvi_med and elapsed < 300.0
    check(6, "speedup trend", ok)


def single_loop_spec(alpha, gamma, reward, tail_value):
    transitions = [
        {"x": 0, "u": 0, "xp": 1, "p": 1.0 - alpha, "r": reward},
        {"x": 1, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
    ]
    if alpha > 0.0:
        transitions.insert(0, {"x": 0, "u": 0, "xp": 0, "p": alpha, "r": reward})
    return {
        "states": 2,
        "actions": 1,
        "discount": gamma,
        "mask": [[0], [0]],
        "transitions": transitions,
    }


def test_criterion_07_self_loop_closed_form(check):
    rng = np.random.default_rng(74343)
    ok = True
    for _ in range(1000):
        alpha = float(rng.uniform(0.01, 0.95))
        gamma = float(rng.uniform(0.0, 1.0))
        reward = float(rng.uniform(-5.0, 5.0))
        tail = float(rng.uniform(-5.0, 5.0))
        mdp = build_mdp(single_loop_spec(alpha, gamma, reward, tail))
        values = ValueTable(v=np.array([0.0, tail]))
        closed = q_update(mdp, values, 0, 0)
        w = 0.0
        rbar = reward
        drift = gamma * (1.0 - alpha) * tail
        for _ in range(10_000):
            w = rbar + gamma * alpha * w + drift
        ok &= abs(closed - w) <= 1e-10
    hand = build_mdp(single_loop_spec(0.5, 0.9, 1.0, 0.0))
    got = q_update(hand, ValueTable(v=np.zeros(2)), 0, 0)
    ok &= abs(got - 1.8181818181818181) <= 1e-10
    check(7, "self-loop closed form", ok)


def test_criterion_08_shrinking_intervals(check):
    out = shrink_simulate(
        ShrinkParams(trials=10_000, steps=100, seed=8, mode=MULTIPLICATIVE)
    )
    ok = bool(np.all(np.abs(out.final_abs) < 1e-10))
    ok &= out.max_final < 1e-10
    ok &= out.all_monotone
    rng = np.random.default_rng(88)
    m = 200_000
    for x, delta in ((1.0, 0.0), (0.8, 0.1), (0.5, 0.075)):
        samples = rng.uniform(0.0, x - delta, size=m)
        est = x - samples.mean()
        se = samples.std(ddof=1) / np.sqrt(m)
        ok &= abs(est - shrink_expected_drift(x, delta)) <= 3.0 * se
    check(8, "shrinking intervals", ok)


def test_criterion_09_absorption_time_ordering(check):
    means = []
    all_absorbed = True
    for w1 in (0.1, 0.2, 0.4):
        params = LiquidationParams(w1=w1)
        mdp, schedule, decomp = build_liquidation(params)
        res = rvi_solve(mdp, schedule, decomp)
        start = liquidation_state_id(params, params.q_max, params.z0)
        trajs = simulate_policy(mdp, res.policy, start, 5000, 2000, 99)
        Z = params.z_count
        lengths = []
        for tr in trajs:
            all_absorbed &= int(tr.states[-1]) // Z == 0
            lengths.append(tr.states.size - 1)
        means.append(float(np.mean(lengths)))
    ok = all_absorbed and means[0] < means[1] < means[2]
    check(9, "absorption time ordering", ok)


def test_criterion_10_rollouts_reach_absorbing(check, fixtures):
    chains, liq10, _ = fixtures
    cases = []
    for chain in chains.values():
        mdp = mdp_from_chain(chain)
        pt = counting_potential(chain)
        start = int(np.argmax(pt.phi))
        cases.append((mdp, Policy(np.zeros(mdp.state_count, dtype=np.int64)), start))
    liq_mdp, liq_sched, liq_dec = liq10
    liq_pol = rvi_solve(liq_mdp, liq_sched, liq_dec).policy
    params = LiquidationParams(q_max=10)
    cases.append(
        (liq_mdp, liq_pol, liquidation_state_id(params, params.q_max, params.z0))
    )
    ok = True
    for mdp, policy, start in cases:
        chain = induced_chain(mdp, policy)
        decomp = absorbing_decomposition(chain)
        budget = int(decomp.transient.size) + 50 * len(self_loop_states(chain))
        is_abs = np.zeros(chain.state_count, dtype=bool)
        is_abs[decomp.absorbing] = True
        trajs = simulate_policy(mdp, policy, start, budget, 1000, 1234)
        ok &= all(bool(is_abs[tr.states[-1]]) for tr in trajs)
    check(10, "rollouts reach absorbing", ok)
