"""End-to-end tests of the command-line interface via subprocesses.

Each test drives `python -m rmdp.cli` exactly as a user would and checks
exit codes, JSON payloads, and CSV layouts; the tests that count union
chains and SCC passes, compare the JSON writer with json.dumps or feed
hard-edge model files call the CLI's main() in-process instead.
"""

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmdp.cli
import rmdp.reachability
from rmdp import (
    LiquidationParams,
    Mdp,
    build_liquidation,
    build_spiral,
    liquidation_state_id,
    mdp_to_spec,
    reachable_set,
    spiral_state_id,
)

SMALL = ["--z-min", "100", "--z-max", "110", "--z0", "105"]
# A five-price grid, as flags and as config values.
TINY = ["--z-min", "100", "--z-max", "104", "--z0", "102"]
TINY_CONFIG = {"z_min": 100, "z_max": 104, "z0": 102}

TWO_CYCLE_SPEC = {
    "states": 3,
    "actions": 1,
    "discount": 0.9,
    "mask": [[0], [0], [0]],
    "transitions": [
        {"x": 0, "u": 0, "xp": 1, "p": 1.0, "r": 1.0},
        {"x": 1, "u": 0, "xp": 0, "p": 0.5, "r": 0.0},
        {"x": 1, "u": 0, "xp": 2, "p": 0.5, "r": 0.0},
        {"x": 2, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
    ],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_solve_liquidation_rvi_payload(cli):
    proc = cli("solve", "--domain", "liquidation", "--q-max", "5", *SMALL)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    params = LiquidationParams(q_max=5, z_min=100, z_max=110, z0=105)
    mdp, _, decomp = build_liquidation(params)
    assert len(payload["v"]) == mdp.state_count
    assert len(payload["policy"]) == mdp.state_count
    assert payload["stats"]["sweeps"] == 1
    assert payload["stats"]["converged"] is True
    sizes = mdp.mask_sizes()
    transient = np.ones(mdp.state_count, dtype=bool)
    transient[decomp.absorbing] = False
    assert payload["stats"]["q_updates"] == int(sizes[transient].sum())
    v = np.asarray(payload["v"])
    assert np.all(np.isfinite(v))
    assert np.all(v[decomp.absorbing] == 0.0)


def test_solve_spiral_value_and_policy(cli):
    proc = cli("solve", "--domain", "spiral")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    v = payload["v"]
    assert v[spiral_state_id(0, 0)] == pytest.approx(-4.0, abs=1e-12)
    assert v[spiral_state_id(2, 2)] == 0.0
    for x, y in ((2, 0), (2, 1), (2, 3)):
        assert payload["policy"][spiral_state_id(x, y)] == 4


def test_solve_writes_out_file(cli, tmp_path):
    out = tmp_path / "result.json"
    proc = cli("solve", "--domain", "fig2a", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    payload = json.loads(out.read_text())
    assert len(payload["v"]) == 4


def test_solve_each_solver_agrees_on_fig2b(cli):
    values = {}
    for solver in ("rvi", "qvi-random", "qvi-reversed", "bvi"):
        proc = cli(
            "solve", "--domain", "fig2b", "--solver", solver,
            "--discount", "0.9",
        )
        # fig2b ignores --discount (fixed chain); just check the solver runs.
        assert proc.returncode == 0, proc.stderr
        values[solver] = json.loads(proc.stdout)["v"]
    ref = np.asarray(values["rvi"])
    for solver, v in values.items():
        np.testing.assert_allclose(np.asarray(v), ref, rtol=0, atol=1e-8)


def test_solve_requires_exactly_one_model_source(cli, tmp_path):
    neither = cli("solve")
    assert neither.returncode == 2
    model = write_json(tmp_path / "m.json", TWO_CYCLE_SPEC)
    both = cli("solve", "--model", model, "--domain", "spiral")
    assert both.returncode == 2


def test_solve_rvi_rejects_non_reductive_model(cli, tmp_path):
    model = write_json(tmp_path / "cycle.json", TWO_CYCLE_SPEC)
    proc = cli("solve", "--model", model, "--solver", "rvi")
    assert proc.returncode == 3
    assert "reductive" in proc.stderr.lower()


def test_qvi_still_solves_non_reductive_model(cli, tmp_path):
    model = write_json(tmp_path / "cycle.json", TWO_CYCLE_SPEC)
    proc = cli("solve", "--model", model, "--solver", "qvi-random")
    assert proc.returncode == 0, proc.stderr
    v = json.loads(proc.stdout)["v"]
    assert np.all(np.isfinite(v))


def test_verify_reports_violations_on_cycle(cli, tmp_path):
    model = write_json(tmp_path / "cycle.json", TWO_CYCLE_SPEC)
    proc = cli("verify", "--model", model)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["reductive"] is False
    edges = {(rec["x"], rec["xp"]) for rec in payload["violations"]}
    assert edges == {(0, 1), (1, 0)}
    assert all(rec["kind"] for rec in payload["violations"])
    assert "order" not in payload


def test_verify_fig2b_payload(cli):
    proc = cli("verify", "--domain", "fig2b")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["reductive"] is True
    assert payload["violations"] == []
    assert sorted(payload["order"]) == [0, 1, 2, 3, 4]


def test_verify_model_file_roundtrip(cli, tmp_path):
    mdp, _, _ = build_spiral()
    model = write_json(tmp_path / "spiral.json", mdp_to_spec(mdp))
    proc = cli("verify", "--model", model)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["reductive"] is True
    # The spiral's potentials are all distinct, so the order is unique:
    # the walk from the outer corner inwards to the absorbing centre.
    assert payload["order"] == [
        0, 1, 2, 3, 4, 9, 14, 19, 24, 23, 22, 21, 20,
        15, 10, 5, 6, 7, 8, 13, 18, 17, 16, 11, 12,
    ]


def test_import_loads_no_scipy():
    """The package and its CLI need numpy alone: importing them loads no scipy."""
    code = (
        "import rmdp, rmdp.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_verify_condenses_each_chain_once(tmp_path, monkeypatch):
    """Every structure query shares one SCC pass, on the model's support."""
    mdp, _, _ = build_spiral()
    model = write_json(tmp_path / "spiral.json", mdp_to_spec(mdp))

    chains = []
    union_chain = Mdp.union_chain

    def recording_union_chain(self):
        chains.append(union_chain(self))
        return chains[-1]

    scc_calls = []
    scc = rmdp.reachability._strong_components

    def counting_scc(*args, **kwargs):
        scc_calls.append(args)
        return scc(*args, **kwargs)

    monkeypatch.setattr(Mdp, "union_chain", recording_union_chain)
    monkeypatch.setattr(rmdp.reachability, "_strong_components", counting_scc)
    out = tmp_path / "verify.json"
    assert rmdp.cli.main(["verify", "--model", model, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["reductive"] is True
    # The verdict, decomposition, potential and permutation share the
    # support's single SCC pass; no union chain is built.
    assert chains == []
    assert len(scc_calls) == 1


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_command_builds_one_union_chain(tmp_path, monkeypatch, command):
    """Verdict, decomposition, potential and order share one SCC pass.

    solve takes them from one union chain; verify from the model's
    support, building no union chain at all.
    """
    mdp, _, _ = build_spiral()
    model = write_json(tmp_path / "spiral.json", mdp_to_spec(mdp))

    chains = []
    union_chain = Mdp.union_chain

    def recording_union_chain(self):
        chains.append(union_chain(self))
        return chains[-1]

    scc_calls = []
    scc = rmdp.reachability._strong_components

    def counting_scc(*args, **kwargs):
        scc_calls.append(args)
        return scc(*args, **kwargs)

    monkeypatch.setattr(Mdp, "union_chain", recording_union_chain)
    monkeypatch.setattr(rmdp.reachability, "_strong_components", counting_scc)
    out = tmp_path / "out.json"
    assert rmdp.cli.main([command, "--model", model, "--out", str(out)]) == 0
    assert len(chains) == {"verify": 0, "solve": 1}[command]
    assert len(scc_calls) == 1


def test_out_of_memory_exits_4(monkeypatch, capsys):
    """A model too large for memory is a solver failure: exit 4 with one
    stderr line, not a traceback."""

    def no_memory(chain):
        raise MemoryError

    monkeypatch.setattr(rmdp.cli, "counting_potential", no_memory)
    assert rmdp.cli.main(["verify", "--domain", "spiral"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rmdp: out of memory\n"


@pytest.mark.parametrize("solver", ["rvi", "bvi"])
def test_solve_model_takes_no_potential(tmp_path, monkeypatch, solver):
    """rvi schedules by Kahn height and bvi needs only the decomposition.

    rvi still certifies the model from one union chain; bvi builds none.
    """
    mdp, schedule, decomp = build_spiral()
    model = write_json(tmp_path / "spiral.json", mdp_to_spec(mdp))

    chains = []
    union_chain = Mdp.union_chain

    def recording_union_chain(self):
        chains.append(union_chain(self))
        return chains[-1]

    potentials = []
    counting_potential = rmdp.reachability.counting_potential

    def recording_potential(chain):
        potentials.append(chain)
        return counting_potential(chain)

    monkeypatch.setattr(Mdp, "union_chain", recording_union_chain)
    monkeypatch.setattr(rmdp.cli, "counting_potential", recording_potential)
    monkeypatch.setattr(rmdp.reachability, "counting_potential", recording_potential)
    out = tmp_path / "out.json"
    argv = ["solve", "--solver", solver, "--model", model, "--out", str(out)]
    assert rmdp.cli.main(argv) == 0
    assert potentials == []
    assert len(chains) == {"rvi": 1, "bvi": 0}[solver]
    expected = rmdp.rvi_solve(mdp, schedule, decomp).values.v
    assert json.loads(out.read_text())["v"] == pytest.approx(expected.tolist())


def test_policy_grid_reachable_column_builds_no_union_chain(tmp_path, monkeypatch):
    """The flags equal reachable_set on the union chain, cell for cell."""
    params = LiquidationParams(q_max=4, z_min=100, z_max=106, z0=103)
    chains = []
    union_chain = Mdp.union_chain

    def recording_union_chain(self):
        chains.append(union_chain(self))
        return chains[-1]

    monkeypatch.setattr(Mdp, "union_chain", recording_union_chain)
    out = tmp_path / "grid.csv"
    args = ["policy-grid", "--q-max", "4", "--z-min", "100", "--z-max", "106"]
    assert rmdp.cli.main([*args, "--z0", "103", "--out", str(out)]) == 0
    assert chains == []

    mdp, _, _ = build_liquidation(params)
    start = liquidation_state_id(params, params.q_max, params.z0)
    reach = reachable_set(union_chain(mdp), start)
    flags = {}
    for line in out.read_text().splitlines()[1:]:
        q, z, _, flag = (int(c) for c in line.split(","))
        flags[liquidation_state_id(params, q, z)] = flag
    assert flags == {x: int(x in reach) for x in range(mdp.state_count)}
    assert 0 < len(reach) < mdp.state_count


def test_broken_models_exit_2(cli, tmp_path):
    bad_sum = dict(TWO_CYCLE_SPEC)
    bad_sum["transitions"] = [
        {"x": 0, "u": 0, "xp": 1, "p": 0.9, "r": 0.0},
        {"x": 1, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
        {"x": 2, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
    ]
    model = write_json(tmp_path / "bad_sum.json", bad_sum)
    assert cli("verify", "--model", model).returncode == 2

    unknown = dict(TWO_CYCLE_SPEC, flavor="salted")
    model = write_json(tmp_path / "unknown.json", unknown)
    assert cli("verify", "--model", model).returncode == 2

    missing = str(tmp_path / "nope.json")
    assert cli("verify", "--model", missing).returncode == 2

    notjson = tmp_path / "garbage.json"
    notjson.write_text("{not json")
    assert cli("verify", "--model", str(notjson)).returncode == 2

    # Ids must be JSON integers: 0.7 -> 1.9 is not the edge 0 -> 1.
    fractional = dict(TWO_CYCLE_SPEC)
    fractional["transitions"] = [dict(t) for t in TWO_CYCLE_SPEC["transitions"]]
    fractional["transitions"][0].update(x=0.7, xp=1.9)
    for name, spec in (
        ("fractional", fractional),
        ("states", dict(TWO_CYCLE_SPEC, states=3.0)),
        ("mask", dict(TWO_CYCLE_SPEC, mask=[[0], ["0"], [0]])),
    ):
        model = write_json(tmp_path / f"{name}.json", spec)
        proc = cli("verify", "--model", model)
        assert proc.returncode == 2, (name, proc.stderr)
        assert "must be an integer" in proc.stderr

    # p, r and discount must be JSON numbers, not strings or booleans,
    # and an integer must fit in a double.
    for name, field, value, message in (
        ("p_bool", "p", True, "p must be a number"),
        ("r_string", "r", "2.5", "r must be a number"),
        ("discount_string", "discount", "0.9", "discount must be a number"),
        ("r_huge", "r", 10**400, "r out of range"),
    ):
        spec = dict(TWO_CYCLE_SPEC)
        spec["transitions"] = [dict(t) for t in TWO_CYCLE_SPEC["transitions"]]
        if field == "discount":
            spec["discount"] = value
        else:
            spec["transitions"][0][field] = value
        model = write_json(tmp_path / f"{name}.json", spec)
        proc = cli("verify", "--model", model)
        assert proc.returncode == 2, (name, proc.stderr)
        assert message in proc.stderr

    # An id beyond int64 is out of range, not a numpy OverflowError.
    huge = dict(TWO_CYCLE_SPEC)
    huge["transitions"] = [dict(t) for t in TWO_CYCLE_SPEC["transitions"]]
    huge["transitions"][2]["xp"] = 10**30
    model = write_json(tmp_path / "huge_id.json", huge)
    proc = cli("verify", "--model", model)
    assert proc.returncode == 2, proc.stderr
    assert "transition 2: xp out of range" in proc.stderr

    # json.dumps writes NaN, which json.loads reads back as a float.
    for field in ("p", "r"):
        nan = dict(TWO_CYCLE_SPEC)
        nan["transitions"] = [dict(t) for t in TWO_CYCLE_SPEC["transitions"]]
        nan["transitions"][0][field] = float("nan")
        model = write_json(tmp_path / f"nan_{field}.json", nan)
        for cmd in ("verify", "solve"):
            proc = cli(cmd, "--model", model)
            assert proc.returncode == 2, (field, cmd, proc.stderr)
            assert "non-finite" in proc.stderr

    # json.load recurses per nesting level: a file nested deeper than the
    # recursion limit, given as the model or as the config, is bad input.
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    for args in (("--model", nested), ("--domain", "spiral", "--config", nested)):
        proc = cli("verify", *args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stderr.splitlines() == [
            f"rmdp: {nested}: JSON nested too deeply to read"
        ]


def certain_loop_spec(k):
    """State 0 has k actions, each staying with p = 1.0 beside a 5e-13 exit."""
    transitions = []
    for u in range(k):
        transitions.append({"x": 0, "u": u, "xp": 0, "p": 1.0, "r": 1.0})
        transitions.append({"x": 0, "u": u, "xp": 1, "p": 5e-13, "r": 0.0})
    transitions.append({"x": 1, "u": 0, "xp": 1, "p": 1.0, "r": 0.0})
    return {
        "states": 2,
        "actions": k,
        "discount": 1.0,
        "mask": [list(range(k)), [0]],
        "transitions": transitions,
    }


@pytest.mark.parametrize("k", [1, 2, 6, 7, 10])
def test_certain_self_loop_rejected_for_any_mask_size(tmp_path, k):
    """The rule counts certain self-loops; it never sums k shares of 1/k,
    which reach exactly 1.0 only for some k (not for 6, 7 or 10)."""
    model = write_json(tmp_path / "loop.json", certain_loop_spec(k))
    out = tmp_path / "verify.json"
    assert rmdp.cli.main(["verify", "--model", model, "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "reductive": False,
        "violations": [{"x": 0, "xp": 0, "kind": "CertainSelfLoopMarkedTransient"}],
    }
    solve = ["solve", "--model", model, "--out", str(tmp_path / "solve.json")]
    assert rmdp.cli.main(solve) == 3


def stay_or_leave_spec(r):
    """At discount 1, state 0 stays for certain with reward r under action
    0, or moves to the absorbing state 1 with reward 1 under action 1."""
    return {
        "states": 2,
        "actions": 2,
        "discount": 1.0,
        "mask": [[0, 1], [0]],
        "transitions": [
            {"x": 0, "u": 0, "xp": 0, "p": 1.0, "r": r},
            {"x": 0, "u": 1, "xp": 1, "p": 1.0, "r": 1.0},
            {"x": 1, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
        ],
    }


@pytest.mark.parametrize("r", [0.0, -1.0])
def test_solve_rvi_values_a_stay_without_gain(tmp_path, r):
    """A pair that stays forever is worth 0 without reward and -inf at a
    cost; the state takes its other action, as value iteration does."""
    model = write_json(tmp_path / "stay.json", stay_or_leave_spec(r))
    out = tmp_path / "out.json"
    assert rmdp.cli.main(["verify", "--model", model, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["order"] == [0, 1]
    values = {}
    for solver in ("rvi", "qvi-reversed"):
        args = ["solve", "--model", model, "--solver", solver, "--out", str(out)]
        assert rmdp.cli.main(args) == 0
        values[solver] = json.loads(out.read_text())["v"]
    assert values["rvi"] == values["qvi-reversed"] == [1.0, 0.0]


def test_solve_rvi_rejects_a_stay_with_gain(tmp_path, capsys):
    model = write_json(tmp_path / "stay.json", stay_or_leave_spec(1.0))
    out = tmp_path / "out.json"
    assert rmdp.cli.main(["solve", "--model", model, "--out", str(out)]) == 4
    assert "state 0 has gamma * p(x|x,u) = 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("solver", ["qvi-reversed", "qvi-random", "bvi"])
def test_solve_iterative_solvers_reject_a_stay_with_gain(tmp_path, capsys, solver):
    model = write_json(tmp_path / "stay.json", stay_or_leave_spec(1.0))
    out = tmp_path / "out.json"
    args = ["solve", "--model", model, "--solver", solver, "--out", str(out)]
    assert rmdp.cli.main(args) == 4
    assert "state 0 has gamma * p(x|x,u) = 1" in capsys.readouterr().err
    assert not out.exists()


# At discount 1, state 1 stays for certain at no reward (action 0), or
# (action 1) pays -1 to stay or 2 to reach state 3, half and half; state 3
# pays -1 to reach the closed state 0.  Both actions are worth 0, but the
# stay's backup v(1) = v(1) holds any value, and value iteration that
# backs it up as it stands settles at v(1) = 0.5.
COSTLESS_STAY = {
    "states": 4,
    "actions": 2,
    "discount": 1.0,
    "mask": [[0], [0, 1], [0], [0]],
    "transitions": [
        {"x": 0, "u": 0, "xp": 0, "p": 1.0, "r": 0.0},
        {"x": 1, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
        {"x": 1, "u": 1, "xp": 1, "p": 0.5, "r": -1.0},
        {"x": 1, "u": 1, "xp": 3, "p": 0.5, "r": 2.0},
        {"x": 2, "u": 0, "xp": 0, "p": 1.0, "r": 0.0},
        {"x": 3, "u": 0, "xp": 0, "p": 1.0, "r": -1.0},
    ],
}


# The same stay, where the other action's value falls after the first
# backup of state 1: 1 reaches 0 at a gain and 3 first, and 3 reaches 2 at
# a cost.  Backward value iteration backs state 1 up first at 0.5.
COSTLESS_STAY_LATE_COST = {
    **COSTLESS_STAY,
    "transitions": [
        {"x": 0, "u": 0, "xp": 0, "p": 1.0, "r": 0.0},
        {"x": 1, "u": 0, "xp": 1, "p": 1.0, "r": 0.0},
        {"x": 1, "u": 1, "xp": 0, "p": 0.5, "r": 1.0},
        {"x": 1, "u": 1, "xp": 3, "p": 0.5, "r": 0.0},
        {"x": 2, "u": 0, "xp": 0, "p": 1.0, "r": 0.0},
        {"x": 3, "u": 0, "xp": 2, "p": 1.0, "r": -10.0},
    ],
}


@pytest.mark.parametrize(
    "spec, expected",
    [
        (COSTLESS_STAY, [0.0, 0.0, 0.0, -1.0]),
        (COSTLESS_STAY_LATE_COST, [0.0, 0.0, 0.0, -10.0]),
    ],
)
def test_solvers_agree_on_a_costless_stay(tmp_path, spec, expected):
    model = write_json(tmp_path / "stay.json", spec)
    out = tmp_path / "out.json"
    for solver in ("rvi", "qvi-reversed", "qvi-random", "bvi"):
        args = ["solve", "--model", model, "--solver", solver, "--out", str(out)]
        assert rmdp.cli.main(args) == 0, solver
        v = json.loads(out.read_text())["v"]
        assert np.allclose(v, expected, rtol=0.0, atol=1e-9), solver


BIG = 1.7e308
# A transient chain whose rewards add up past the largest double, and a
# closed class whose discounted rewards do, so the absorbing solve overflows.
OVERFLOW_CHAIN = {
    "states": 3,
    "actions": 1,
    "discount": 1.0,
    "mask": [[0], [0], [0]],
    "transitions": [
        {"x": 0, "u": 0, "xp": 1, "p": 1.0, "r": BIG},
        {"x": 1, "u": 0, "xp": 2, "p": 1.0, "r": BIG},
        {"x": 2, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
    ],
}
OVERFLOW_CLASS = {
    "states": 3,
    "actions": 1,
    "discount": 0.9,
    "mask": [[0], [0], [0]],
    "transitions": [
        {"x": 0, "u": 0, "xp": 1, "p": 1.0, "r": BIG},
        {"x": 1, "u": 0, "xp": 0, "p": 1.0, "r": BIG},
        {"x": 2, "u": 0, "xp": 0, "p": 1.0, "r": 0.0},
    ],
}


@pytest.mark.parametrize("solver", ["rvi", "bvi", "qvi-random", "qvi-reversed"])
@pytest.mark.parametrize(
    "spec, state", [(OVERFLOW_CHAIN, 0), (OVERFLOW_CLASS, 1)], ids=["chain", "class"]
)
def test_value_overflow_exits_4(tmp_path, capsys, solver, spec, state):
    """Finite rewards whose values overflow: no Infinity in the JSON, and
    no sweeps spent on a nan residual."""
    model = write_json(tmp_path / "overflow.json", spec)
    out = tmp_path / "out.json"
    args = ["solve", "--model", model, "--solver", solver, "--out", str(out)]
    with np.errstate(over="ignore", invalid="ignore"):
        assert rmdp.cli.main(args) == 4
    err = capsys.readouterr().err
    assert f"state {state} has a non-finite value (inf)" in err
    assert not out.exists()


# At discount 1, state 1 overflows to +inf and state 3 to -inf: each
# stays or leaves half and half, at a reward of 1e308 and -1e308.  State
# 4 moves to both, so its value is NaN.
OVERFLOW_TO_NAN = {
    "states": 5,
    "actions": 1,
    "discount": 1.0,
    "mask": [[0], [0], [0], [0], [0]],
    "transitions": [
        {"x": 0, "u": 0, "xp": 0, "p": 1.0, "r": 0.0},
        {"x": 1, "u": 0, "xp": 0, "p": 0.5, "r": 1e308},
        {"x": 1, "u": 0, "xp": 1, "p": 0.5, "r": 1e308},
        {"x": 2, "u": 0, "xp": 2, "p": 1.0, "r": 0.0},
        {"x": 3, "u": 0, "xp": 2, "p": 0.5, "r": -1e308},
        {"x": 3, "u": 0, "xp": 3, "p": 0.5, "r": -1e308},
        {"x": 4, "u": 0, "xp": 1, "p": 0.5, "r": 0.0},
        {"x": 4, "u": 0, "xp": 3, "p": 0.5, "r": 0.0},
    ],
}


@pytest.mark.parametrize(
    "solver, seed",
    [("rvi", 0), ("qvi-reversed", 0), ("bvi", 0)]
    + [("qvi-random", seed) for seed in range(6)],
)
def test_overflow_to_nan_exits_4_with_one_line(tmp_path, capsys, solver, seed):
    """No traceback and no numpy warning: the one stderr line names the
    first state whose value is not finite."""
    model = write_json(tmp_path / "nan.json", OVERFLOW_TO_NAN)
    out = tmp_path / "out.json"
    args = ["solve", "--model", model, "--solver", solver, "--seed", str(seed)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rmdp.cli.main([*args, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "rmdp: state 1 has a non-finite value (inf)\n"
    assert not out.exists()


def test_parser_is_built_once_and_reused(capsys):
    assert rmdp.cli._parser() is rmdp.cli._parser()
    outputs = []
    for _ in range(2):
        for argv, code in ((["solve", "--help"], 0), (["solve", "--solver", "x"], 2)):
            with pytest.raises(SystemExit) as exc:
                rmdp.cli.main(argv)
            assert exc.value.code == code
            outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:]
    assert "--solver" in outputs[0].out
    assert "invalid choice: 'x'" in outputs[1].err


def test_bench_csv_layout(cli):
    proc = cli(
        "bench", "--q-max", "4,6", "--solvers", "rvi,bvi", "--repeats", "2",
        "--z-min", "100", "--z-max", "106", "--z0", "103",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "solver,q_max,states,q_updates,sweeps,wall_nanos,vmax_err"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 2 * 2 * 2
    for row in rows:
        assert row[0] in ("rvi", "bvi")
        assert int(row[1]) in (4, 6)
        assert int(row[2]) == (int(row[1]) + 1) * 7
        assert int(row[3]) > 0
        assert int(row[4]) >= 1
        assert int(row[5]) > 0
        if row[0] == "rvi":
            assert float(row[6]) == 0.0


def test_bench_default_backend_smoke(cli):
    proc = cli("bench", "--q-max", "4", "--solvers", "rvi", *SMALL)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


def test_bench_without_rvi_is_rejected(cli):
    proc = cli("bench", "--solvers", "bvi", *SMALL)
    assert proc.returncode == 2
    assert "rvi" in proc.stderr


def test_bench_sweep_starved_solver_exits_4(cli):
    proc = cli(
        "bench", "--q-max", "6", "--solvers", "rvi,qvi-reversed",
        "--max-sweeps", "2", "--z-min", "100", "--z-max", "106", "--z0", "103",
    )
    assert proc.returncode == 4


def test_simulate_csv_is_deterministic_and_absorbs(cli):
    args = (
        "simulate", "--q-max", "5", *SMALL, "--w1", "0.1,0.2",
        "--trials", "50", "--horizon", "60", "--seed", "3",
    )
    first = cli(*args)
    second = cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines[0] == "w1,t,mean_q,stderr_q"
    assert len(lines) == 1 + 2 * 61
    for w1 in (0.1, 0.2):
        block = [
            parts
            for parts in (ln.split(",") for ln in lines[1:])
            if float(parts[0]) == w1
        ]
        assert len(block) == 61
        means = [float(r[2]) for r in block]
        assert means[0] == 5.0
        assert all(a >= b for a, b in zip(means, means[1:]))
        # every admissible action sells at least one unit, so inventory 5
        # is gone after at most five steps in every trial
        assert means[5] == 0.0
        assert float(block[-1][2]) == 0.0


def test_policy_grid_csv(cli):
    proc = cli(
        "policy-grid", "--q-max", "3",
        "--z-min", "100", "--z-max", "104", "--z0", "102",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "q,z,u,reachable"
    rows = [tuple(int(c) for c in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 4 * 5
    assert [(q, z) for q, z, _, _ in rows] == [
        (q, z) for q in range(4) for z in range(100, 105)
    ]
    for q, z, u, reach in rows:
        assert reach in (0, 1)
        if q == 0:
            assert u == 0
            assert reach == 1
        else:
            assert 1 <= u <= q
    start = [r for r in rows if (r[0], r[1]) == (3, 102)]
    assert start[0][3] == 1


def test_config_file_supplies_values_and_flags_override(cli, tmp_path):
    cfg = write_json(
        tmp_path / "cfg.json",
        {
            "q_max": "4",
            "solvers": "rvi",
            "repeats": 2,
            "z_min": 100,
            "z_max": 106,
            "z0": 103,
        },
    )
    from_config = cli("bench", "--config", cfg)
    assert from_config.returncode == 0, from_config.stderr
    rows = from_config.stdout.splitlines()[1:]
    assert len(rows) == 2
    assert all(r.split(",")[1] == "4" for r in rows)

    overridden = cli("bench", "--config", cfg, "--repeats", "1", "--q-max", "5")
    assert overridden.returncode == 0, overridden.stderr
    rows = overridden.stdout.splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].split(",")[1] == "5"


def masked(text):
    """text with every measured wall_nanos set to 0, in JSON and in CSV."""
    text = re.sub(r'"wall_nanos": \d+', '"wall_nanos": 0', text)
    if text.startswith(rmdp.cli.BENCH_HEADER):
        text = re.sub(r"^((?:[^,\n]*,){5})\d+", r"\g<1>0", text, flags=re.M)
    return text


# Per subcommand: a config, the same values as flags, and a flag that
# overrides the config and changes the output.
CONFIG_CASES = {
    "solve": (
        {"domain": "liquidation", "q_max": 2, **TINY_CONFIG, "solver": "bvi",
         "epsilon": 1e-9},
        ["--domain", "liquidation", "--q-max", "2", *TINY, "--solver", "bvi",
         "--epsilon", "1e-9"],
        ["--q-max", "3"],
    ),
    "verify": (
        {"domain": "fig2b", "loop_prob": 0.25},
        ["--domain", "fig2b", "--loop-prob", "0.25"],
        ["--domain", "spiral"],
    ),
    "bench": (
        {"q_max": [3, 4], "solvers": ["rvi", "qvi-reversed"], "seed": 3,
         **TINY_CONFIG},
        ["--q-max", "3,4", "--solvers", "rvi,qvi-reversed", "--seed", "3",
         *TINY],
        ["--repeats", "2"],
    ),
    "simulate": (
        {"q_max": 3, "w1": [0.1, 0.3], "trials": 20, "horizon": 6,
         **TINY_CONFIG},
        ["--q-max", "3", "--w1", "0.1,0.3", "--trials", "20", "--horizon", "6",
         *TINY],
        ["--horizon", "4"],
    ),
    "policy-grid": (
        {"q_max": 3, "w1": 0.5, **TINY_CONFIG},
        ["--q-max", "3", "--w1", "0.5", *TINY],
        ["--w1", "0.05"],
    ),
    "shrink": (
        {"mode": "DeltaInterval", "delta": 0.2, "trials": 30, "steps": 10},
        ["--mode", "DeltaInterval", "--delta", "0.2", "--trials", "30",
         "--steps", "10"],
        ["--seed", "4"],
    ),
}


@pytest.mark.parametrize("command", sorted(CONFIG_CASES))
def test_config_matches_its_flags_and_explicit_flags_win(cli, tmp_path, command):
    config, flags, override = CONFIG_CASES[command]
    cfg = write_json(tmp_path / "cfg.json", config)
    runs = {
        "config": cli(command, "--config", cfg),
        "flags": cli(command, *flags),
        "config+override": cli(command, "--config", cfg, *override),
        "flags+override": cli(command, *flags, *override),
    }
    for name, proc in runs.items():
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stderr == "", name
    out = {name: masked(proc.stdout) for name, proc in runs.items()}
    assert out["config"] == out["flags"]
    assert out["config+override"] == out["flags+override"]
    assert out["config+override"] != out["config"]


def test_config_list_scalar_null_and_unknown_keys(cli, tmp_path):
    base = {"solvers": "rvi", **TINY_CONFIG}
    three = ["--q-max", "3", "--solvers", "rvi", *TINY]
    # A null is no value: the flag's default holds (q_max 10,20,40).
    defaults = ["--solvers", "rvi", *TINY]
    cases = {
        "list": ({"q_max": [3]}, three),
        "int": ({"q_max": 3}, three),
        "text": ({"q_max": " 3, "}, three),
        "unknown keys": (
            {"q_max": 3, "no_such_flag": [True, {}], "command": "verify",
             "config": "elsewhere.json"},
            three,
        ),
        "null": ({"q_max": None, "repeats": None}, defaults),
    }
    for name, (values, argv) in cases.items():
        cfg = write_json(tmp_path / "cfg.json", {**base, **values})
        proc = cli("bench", "--config", cfg)
        expected = cli("bench", *argv)
        assert proc.returncode == expected.returncode == 0, (name, proc.stderr)
        assert masked(proc.stdout) == masked(expected.stdout), name


@pytest.mark.parametrize(
    "command, values, message",
    [
        ("solve", {"q_max": 3.9}, "argument --q-max: invalid int value: '3.9'"),
        ("solve", {"q_max": True}, "config value of 'q_max' must be"),
        ("bench", {"repeats": 2.0}, "argument --repeats: invalid int value: '2.0'"),
        ("bench", {"q_max": [3, True]}, "config value of 'q_max' must be"),
        ("bench", {"q_max": [[3]]}, "config value of 'q_max' must be"),
        ("solve", {"out": {"path": "x"}}, "config value of 'out' must be"),
        ("solve", {"solver": "nope"}, "argument --solver: invalid choice: 'nope'"),
        ("simulate", {"w1": "0.1,x"}, "argument --w1: invalid float list value"),
        ("shrink", {"mode": "Exotic"}, "argument --mode: invalid choice: 'Exotic'"),
    ],
)
def test_bad_config_values_exit_2_naming_the_key(
    cli, tmp_path, command, values, message
):
    config = {} if command == "shrink" else {"domain": "liquidation", **TINY_CONFIG}
    cfg = write_json(tmp_path / "cfg.json", {**config, **values})
    proc = cli(command, "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr.splitlines()[-1]
    assert proc.stdout == ""


def test_shrink_multiplicative_payload(cli):
    args = ("shrink", "--trials", "200", "--steps", "80", "--seed", "5")
    first = cli(*args)
    second = cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["mode"] == "Multiplicative"
    assert payload["trials"] == 200
    assert payload["steps"] == 80
    assert payload["delta"] is None
    assert payload["all_monotone"] is True
    assert 0.0 <= payload["max_final"] < 1e-10
    assert 0.0 <= payload["mean_final"] <= payload["max_final"]


def test_shrink_delta_interval_hits_zero(cli):
    proc = cli(
        "shrink", "--mode", "DeltaInterval", "--delta", "0.25",
        "--trials", "100", "--steps", "50",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["mode"] == "DeltaInterval"
    assert payload["delta"] == 0.25
    assert payload["max_final"] == 0.0


def test_shrink_bad_delta_exits_2(cli):
    proc = cli("shrink", "--mode", "DeltaInterval", "--delta", "-0.5")
    assert proc.returncode == 2


def test_unknown_subcommand_exits_2(cli):
    proc = cli("transmogrify")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--q-max", ","],
        ["bench", "--solvers", ","],
        ["simulate", "--w1", ","],
        ["solve", "--domain", "spiral", "--mix-levels", ","],
    ],
)
def test_empty_comma_list_exits_2_naming_the_flag(cli, tmp_path, argv):
    """A comma list with no item left is refused, as a flag and as a
    config value, rather than run as no work."""
    flag = argv[-2]
    key = flag[2:].replace("-", "_")
    runs = [argv]
    for i, value in enumerate(([], " , ")):
        cfg = write_json(tmp_path / f"cfg{i}.json", {key: value})
        runs.append([*argv[:-2], "--config", cfg])
    for args in runs:
        proc = cli(*args)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == ""
        last = proc.stderr.splitlines()[-1]
        assert f"argument {flag}: expected at least one value in" in last, args


@pytest.mark.parametrize(
    "argv",
    [
        ["shrink", "--seed", "-1"],
        ["solve", "--domain", "spiral", "--solver", "qvi-random", "--seed", "-1"],
        ["solve", "--domain", "spiral", "--seed", "-1"],
        ["bench", "--q-max", "3", *TINY, "--seed", "-1"],
        ["simulate", "--q-max", "3", *TINY, "--seed", "-1"],
        ["policy-grid", "--q-max", "3", *TINY, "--seed", "-1"],
    ],
)
def test_negative_seed_exits_2_naming_seed(cli, argv):
    proc = cli(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["rmdp: seed must be nonnegative"]
    assert proc.stdout == ""


def test_undecodable_json_files_exit_2_with_the_decoders_line(tmp_path, capsys):
    """A model or config file that is not UTF-8, or not JSON, is refused
    by main's ValueError handler with the decoder's own message."""
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    lines = {
        garbage: "rmdp: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
        binary: "rmdp: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte",
    }
    for path, line in lines.items():
        for argv in (
            ["verify", "--model", str(path)],
            ["verify", "--domain", "spiral", "--config", str(path)],
        ):
            assert rmdp.cli.main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert (out, err.splitlines()) == ("", [line]), argv


def test_out_files_use_unix_newlines(cli, tmp_path):
    out = tmp_path / "bench.csv"
    proc = cli(
        "bench", "--q-max", "4", "--solvers", "rvi", *SMALL,
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


# ---------------------------------------------------------------------------
# the JSON writer


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--domain", "liquidation", "--q-max", "6", *SMALL],
        ["verify", "--domain", "fig2b"],
        ["verify", "--model", "{cycle}"],
        ["solve", "--domain", "liquidation", "--q-max", "6", *SMALL],
        ["solve", "--domain", "spiral", "--solver", "qvi-random"],
        ["solve", "--model", "{cycle}", "--solver", "bvi"],
        ["shrink", "--trials", "50", "--steps", "20"],
        ["shrink", "--mode", "DeltaInterval", "--delta", "0.1", "--trials", "50"],
    ],
)
def test_json_writer_matches_json_dumps_on_cli_payloads(tmp_path, argv):
    """Every JSON file rmdp writes reads back to an equal payload that
    json.dumps(indent=2) writes byte for byte."""
    cycle = write_json(tmp_path / "cycle.json", TWO_CYCLE_SPEC)
    out = tmp_path / "out.json"
    argv = [a.replace("{cycle}", cycle) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert rmdp.cli.main([*argv, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


# ---------------------------------------------------------------------------
# hard edges: every model file ends in one exit code and at most one line

# perfbench's model generator sits at the root of the checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import models  # noqa: E402

INT64_EDGES = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1]
HUGE_REWARDS = [1e308, -1e308, 1.7e308, -1.7e308]


@st.composite
def hard_edge_specs(draw):
    """A small perfbench-style model file with some of these mutations:
    rewards near +-1e308, discount 1, certain self-loops that cost, pay
    nothing or gain, tiny exits beside p = 1 loops, and ids at the int64
    edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec, _ = models.make_model(
        rng,
        draw(st.integers(min_value=4, max_value=12)),
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.sampled_from(models.DISCOUNTS)),
        draw(st.booleans()),
    )
    trans = spec["transitions"]
    kinds = ["huge", "discount", "loop", "tiny_exit", "int64"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        pick = st.integers(0, len(trans) - 1)
        t = trans[draw(pick)]
        if kind == "huge":
            for i in draw(st.lists(pick, min_size=1, max_size=4)):
                trans[i]["r"] = draw(st.sampled_from(HUGE_REWARDS))
        elif kind == "discount":
            spec["discount"] = 1.0
        elif kind in ("loop", "tiny_exit"):
            x, u = t["x"], t["u"]
            trans[:] = [e for e in trans if (e["x"], e["u"]) != (x, u)]
            r = draw(st.sampled_from([0.0, -1.0, 1.0]))
            trans.append({"x": x, "u": u, "xp": x, "p": 1.0, "r": r})
            if kind == "tiny_exit":
                exit_p = draw(st.sampled_from([5e-324, 1e-300, 1e-17]))
                y = draw(st.integers(0, spec["states"] - 1))
                if y != x:
                    trans.append({"x": x, "u": u, "xp": y, "p": exit_p, "r": r})
            trans.sort(key=lambda e: (e["x"], e["u"], e["xp"]))
        else:
            field = draw(st.sampled_from(["x", "u", "xp"]))
            t[field] = draw(st.sampled_from(INT64_EDGES))
    return spec


@settings(max_examples=150, deadline=None)
@given(hard_edge_specs())
def test_hard_edge_models_exit_cleanly(spec):
    """verify and the four solves, run in process with warnings as
    errors, exit 0, 2, 3 or 4 and write at most one stderr line, which
    starts with "rmdp: "."""
    with tempfile.TemporaryDirectory() as tmp:
        model = write_json(Path(tmp) / "model.json", spec)
        calls = [["verify", "--model", model]] + [
            ["solve", "--model", model, "--solver", solver, "--max-sweeps", "200"]
            for solver in rmdp.cli.SOLVER_NAMES
        ]
        for argv in calls:
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = rmdp.cli.main(argv)
            assert code in (0, 2, 3, 4), argv
            lines = err.getvalue().splitlines()
            assert lines == [] or (len(lines) == 1 and lines[0].startswith("rmdp: ")), (
                argv, lines,
            )
