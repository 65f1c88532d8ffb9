"""Cross-checks between the numpy and numba kernel implementations.

Every kernel in rmdp.backends.IMPLEMENTATIONS must produce the same
numbers on the same inputs regardless of which implementation runs, and
the RMDP_BACKEND environment flag must select the dispatch target at
import time.  The numba half of the matrix is skipped when numba is not
installed so the pure-numpy path stays testable on its own.
"""

import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmdp
from rmdp import LiquidationParams, Mdp, build_liquidation
from rmdp.backends import IMPLEMENTATIONS, conflict_free_runs
from rmdp.solvers import _raw_reverse_graph

KERNELS = ("rvi_pass", "gs_sweep", "bvi_run", "bellman_residual")

HAS_NUMBA = "numba" in IMPLEMENTATIONS
needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


def small_instance():
    """Liquidation instance small enough to solve instantly but with
    multi-action states, self-loop-free transients, and a nonempty
    absorbing slice."""
    params = LiquidationParams(q_max=4, z_min=100, z_max=108, z0=104)
    return build_liquidation(params)


def kernel_inputs():
    mdp, schedule, decomp = small_instance()
    levels = list(schedule.levels)
    level_ptr = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum(np.asarray([lv.size for lv in levels], dtype=np.int64), out=level_ptr[1:])
    level_states = np.concatenate(levels).astype(np.int64)
    solved = np.zeros(mdp.state_count, dtype=np.uint8)
    solved[decomp.absorbing] = 1
    return mdp, decomp, level_ptr, level_states, solved


def run_rvi_pass(impl):
    mdp, decomp, level_ptr, level_states, solved = kernel_inputs()
    v = np.zeros(mdp.state_count, dtype=np.float64)
    q = np.zeros(mdp.pair_count, dtype=np.float64)
    pol = np.zeros(mdp.state_count, dtype=np.int64)
    code, bad = impl["rvi_pass"](
        level_ptr,
        level_states,
        mdp.state_ptr,
        mdp.pair_action,
        mdp.pair_ptr,
        mdp.col,
        mdp.prob,
        mdp.rew,
        mdp.discount,
        v,
        solved.copy(),
        q,
        pol,
    )
    return code, bad, v, q, pol


def run_gs_sweep(impl, sweeps=3):
    mdp, _, _, _, _ = kernel_inputs()
    order = np.random.default_rng(11).permutation(mdp.state_count).astype(np.int64)
    run_ptr = conflict_free_runs(order, mdp.state_ptr, mdp.pair_ptr, mdp.col)
    v = np.zeros(mdp.state_count, dtype=np.float64)
    q = np.zeros(mdp.pair_count, dtype=np.float64)
    pol = np.zeros(mdp.state_count, dtype=np.int64)
    deltas = []
    for _ in range(sweeps):
        deltas.append(
            float(
                impl["gs_sweep"](
                    order,
                    mdp.state_ptr,
                    mdp.pair_action,
                    mdp.pair_ptr,
                    mdp.col,
                    mdp.prob,
                    mdp.rew,
                    mdp.discount,
                    v,
                    q,
                    pol,
                    run_ptr,
                )
            )
        )
    return deltas, v, q, pol


def run_bvi(impl):
    mdp, decomp, _, _, _ = kernel_inputs()
    n = mdp.state_count
    rev_ptr, rev_src = _raw_reverse_graph(mdp)
    is_abs = np.zeros(n, dtype=bool)
    is_abs[decomp.absorbing] = True
    is_transient = (~is_abs).astype(np.uint8)
    seed_mask = np.zeros(n, dtype=bool)
    for x in decomp.absorbing:
        seed_mask[rev_src[rev_ptr[x] : rev_ptr[x + 1]]] = True
    seed_mask[decomp.absorbing] = False
    seeds = np.where(seed_mask)[0].astype(np.int64)
    v = np.zeros(n, dtype=np.float64)
    q = np.zeros(mdp.pair_count, dtype=np.float64)
    pol = np.zeros(n, dtype=np.int64)
    dequeues, backups, code = impl["bvi_run"](
        seeds,
        is_transient,
        rev_ptr,
        rev_src,
        mdp.state_ptr,
        mdp.pair_action,
        mdp.pair_ptr,
        mdp.col,
        mdp.prob,
        mdp.rew,
        mdp.discount,
        1e-10,
        10_000_000,
        v,
        q,
        pol,
    )
    return int(dequeues), int(backups), int(code), v, q, pol


def run_residual(impl, v):
    mdp, _, _, _, _ = kernel_inputs()
    return float(
        impl["bellman_residual"](
            mdp.state_ptr,
            mdp.pair_ptr,
            mdp.col,
            mdp.prob,
            mdp.rew,
            mdp.discount,
            v,
        )
    )


def test_registry_always_has_numpy_with_all_kernels():
    assert "numpy" in IMPLEMENTATIONS
    for impl in IMPLEMENTATIONS.values():
        assert set(KERNELS) <= set(impl)
        for name in KERNELS:
            assert callable(impl[name])


def test_active_backend_is_a_registered_implementation():
    assert rmdp.active_backend() in IMPLEMENTATIONS


def test_warmup_is_idempotent():
    rmdp.warmup()
    rmdp.warmup()


@needs_numba
def test_rvi_pass_agrees_across_implementations():
    code_np, bad_np, v_np, q_np, pol_np = run_rvi_pass(IMPLEMENTATIONS["numpy"])
    code_nb, bad_nb, v_nb, q_nb, pol_nb = run_rvi_pass(IMPLEMENTATIONS["numba"])
    assert (code_np, bad_np) == (code_nb, bad_nb)
    assert code_np == 0
    np.testing.assert_allclose(v_np, v_nb, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(q_np, q_nb, rtol=0.0, atol=1e-12)
    assert np.array_equal(pol_np, pol_nb)


@needs_numba
def test_gs_sweep_agrees_across_implementations():
    d_np, v_np, q_np, pol_np = run_gs_sweep(IMPLEMENTATIONS["numpy"])
    d_nb, v_nb, q_nb, pol_nb = run_gs_sweep(IMPLEMENTATIONS["numba"])
    np.testing.assert_allclose(d_np, d_nb, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(v_np, v_nb, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(q_np, q_nb, rtol=0.0, atol=1e-12)
    assert np.array_equal(pol_np, pol_nb)


@needs_numba
def test_bvi_run_agrees_across_implementations():
    deq_np, bk_np, code_np, v_np, q_np, pol_np = run_bvi(IMPLEMENTATIONS["numpy"])
    deq_nb, bk_nb, code_nb, v_nb, q_nb, pol_nb = run_bvi(IMPLEMENTATIONS["numba"])
    assert (deq_np, bk_np, code_np) == (deq_nb, bk_nb, code_nb)
    assert code_np == 0
    np.testing.assert_allclose(v_np, v_nb, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(q_np, q_nb, rtol=0.0, atol=1e-12)
    assert np.array_equal(pol_np, pol_nb)


@needs_numba
def test_bellman_residual_agrees_across_implementations():
    mdp, _, _, _, _ = kernel_inputs()
    rng = np.random.default_rng(7)
    v = rng.normal(size=mdp.state_count)
    r_np = run_residual(IMPLEMENTATIONS["numpy"], v)
    r_nb = run_residual(IMPLEMENTATIONS["numba"], v)
    assert r_np == pytest.approx(r_nb, abs=1e-12)


@needs_numba
def test_full_solve_matches_across_backend_subprocesses(tmp_path):
    """Solving the same model under each backend flag yields the same
    values; exercised through fresh interpreters because the dispatch
    target binds at import time."""
    script = (
        "import json, sys\n"
        "import rmdp\n"
        "mdp, sched, dec = rmdp.build_liquidation(\n"
        "    rmdp.LiquidationParams(q_max=3, z_min=100, z_max=106, z0=103))\n"
        "res = rmdp.rvi_solve(mdp, sched, dec)\n"
        "print(json.dumps({'backend': rmdp.active_backend(),\n"
        "                  'v': res.values.v.tolist()}))\n"
    )
    outs = {}
    for backend in ("numpy", "numba"):
        env = dict(os.environ, RMDP_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs[backend] = json.loads(proc.stdout)
        assert outs[backend]["backend"] == backend
    v_np = np.asarray(outs["numpy"]["v"])
    v_nb = np.asarray(outs["numba"]["v"])
    np.testing.assert_allclose(v_np, v_nb, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# batched Gauss-Seidel on the numpy backend against the serial loop


def serial_gs_sweep(
    order, state_ptr, pair_action, pair_ptr, col, prob, rew, gamma, v, q, pol
):
    """Reference: back up one state at a time in order; returns max delta."""
    max_delta = 0.0
    for x in order:
        a, b = state_ptr[x], state_ptr[x + 1]
        lo, hi = pair_ptr[a], pair_ptr[b]
        vals = prob[lo:hi] * (rew[lo:hi] + gamma * v[col[lo:hi]])
        qvals = np.add.reduceat(vals, pair_ptr[a:b] - lo)
        q[a:b] = qvals
        best = int(np.argmax(qvals))
        delta = abs(qvals[best] - v[x])
        if delta > max_delta:
            max_delta = delta
        v[x] = qvals[best]
        pol[x] = pair_action[a + best]
    return max_delta


def mdp_from_rows(rows, discount):
    """Mdp from rows[x] = list of (successors, rewards) per action, each
    action spreading its mass evenly over its sorted distinct successors."""
    state_ptr, pair_ptr = [0], [0]
    pair_action, col, prob, rew = [], [], [], []
    for actions in rows:
        for u, (succs, rews) in enumerate(actions):
            pair_action.append(u)
            col.extend(succs)
            prob.extend([1.0 / len(succs)] * len(succs))
            rew.extend(rews)
            pair_ptr.append(len(col))
        state_ptr.append(len(pair_action))
    n_actions = max(len(a) for a in rows)
    return Mdp(
        len(rows), n_actions, discount, state_ptr, pair_action, pair_ptr, col, prob, rew
    )


@st.composite
def sweep_cases(draw):
    """A small MDP (self-loops, several actions, ties, signed zeros), a
    sweep order over all or some of its states, and a start value table."""
    n = draw(st.integers(min_value=1, max_value=8))
    zero_rewards = draw(st.booleans())
    rewards = [0.0, -0.0] if zero_rewards else [0.0, -0.0, 1.0, -1.0, 0.5]
    reward = st.sampled_from(rewards)
    rows = []
    for _ in range(n):
        actions = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            succs = sorted(
                draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n)))
            )
            actions.append((succs, [draw(reward) for _ in succs]))
        rows.append(actions)
    mdp = mdp_from_rows(rows, draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])))
    kind = draw(st.sampled_from(["natural", "random", "subset"]))
    if kind == "natural":
        order = list(range(n))
    else:
        order = draw(st.permutations(range(n)))
        if kind == "subset":
            order = order[: draw(st.integers(min_value=0, max_value=n))]
    v0 = [draw(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.25])) for _ in range(n)]
    return mdp, np.asarray(order, dtype=np.int64), np.asarray(v0, dtype=np.float64)


def assert_runs_conflict_free_and_maximal(mdp, order, run_ptr):
    assert run_ptr[0] == 0 and run_ptr[-1] == order.size
    assert np.all(np.diff(run_ptr) > 0)
    pos = {int(x): i for i, x in enumerate(order)}

    def reads(i):
        x = order[i]
        lo, hi = mdp.pair_ptr[mdp.state_ptr[x]], mdp.pair_ptr[mdp.state_ptr[x + 1]]
        return {pos[int(y)] for y in mdp.col[lo:hi] if int(y) in pos}

    for k in range(run_ptr.size - 1):
        s, t = int(run_ptr[k]), int(run_ptr[k + 1])
        for i in range(s, t):
            assert not any(s <= j < i for j in reads(i)), (k, i)
        if k:
            prev = int(run_ptr[k - 1])
            assert any(prev <= j < s for j in reads(s)), k


def assert_batched_matches_serial(mdp, order, v0, sweeps=3):
    run_ptr = conflict_free_runs(order, mdp.state_ptr, mdp.pair_ptr, mdp.col)
    assert_runs_conflict_free_and_maximal(mdp, order, run_ptr)
    ref = [
        v0.copy(),
        np.zeros(mdp.pair_count),
        np.zeros(mdp.state_count, dtype=np.int64),
    ]
    out = [a.copy() for a in ref]
    model = (mdp.state_ptr, mdp.pair_action, mdp.pair_ptr, mdp.col, mdp.prob, mdp.rew)
    for _ in range(sweeps):
        d_ref = serial_gs_sweep(order, *model, mdp.discount, *ref)
        d_out = IMPLEMENTATIONS["numpy"]["gs_sweep"](
            order, *model, mdp.discount, *out, run_ptr
        )
        assert np.float64(d_out).tobytes() == np.float64(d_ref).tobytes()
        for a, b in zip(out, ref):
            assert a.tobytes() == b.tobytes()
    return run_ptr


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_batched_gs_sweep_matches_serial_loop(case):
    assert_batched_matches_serial(*case)


def chain_mdp(succ):
    """One action per state: state x moves to succ[x] with reward 1."""
    return mdp_from_rows([[([s], [1.0])] for s in succ], 0.9)


def test_batched_gs_sweep_edge_cases():
    mdp = chain_mdp([0, 1, 1])
    v0 = np.zeros(3)
    empty = np.empty(0, dtype=np.int64)
    assert assert_batched_matches_serial(mdp, empty, v0).tolist() == [0]
    assert assert_batched_matches_serial(mdp, np.array([1]), v0).tolist() == [0, 1]
    # each state reads the one before it: every run is a single state
    down = chain_mdp([0, 0, 1, 2, 3])
    order = np.arange(5, dtype=np.int64)
    runs = assert_batched_matches_serial(down, order, np.zeros(5))
    assert runs.tolist() == [0, 1, 2, 3, 4, 5]
    # each state reads only later states or itself: one run
    up = chain_mdp([1, 2, 3, 4, 4])
    assert assert_batched_matches_serial(up, order, np.zeros(5)).tolist() == [0, 5]


def test_batched_gs_sweep_matches_serial_loop_on_liquidation():
    mdp, _, _, _, _ = kernel_inputs()
    order = np.random.default_rng(5).permutation(mdp.state_count).astype(np.int64)
    assert_batched_matches_serial(mdp, order, np.zeros(mdp.state_count), sweeps=4)


def test_env_flag_selects_numpy_backend():
    env = dict(os.environ, RMDP_BACKEND="numpy")
    proc = subprocess.run(
        [sys.executable, "-c", "import rmdp; print(rmdp.active_backend())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "numpy"


def test_default_backend_prefers_numba_when_available():
    env = {k: v for k, v in os.environ.items() if k != "RMDP_BACKEND"}
    proc = subprocess.run(
        [sys.executable, "-c", "import rmdp; print(rmdp.active_backend())"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # judged by installability, not by the (possibly numpy-forced) parent
    installed = importlib.util.find_spec("numba") is not None
    assert proc.stdout.strip() == ("numba" if installed else "numpy")


def test_unknown_backend_value_fails_at_import():
    env = dict(os.environ, RMDP_BACKEND="fortran")
    proc = subprocess.run(
        [sys.executable, "-c", "import rmdp"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode != 0
    assert "RMDP_BACKEND" in proc.stderr
