"""End-to-end tests of the command-line interface via subprocesses.

Each test drives `python -m rmdp.cli` exactly as a user would and checks
exit codes, JSON payloads, and CSV layouts; the tests that count union
chains and SCC passes call the CLI's main() in-process instead.
"""

import json

import numpy as np
import pytest

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
    scc = rmdp.reachability.connected_components

    def counting_scc(*args, **kwargs):
        scc_calls.append(args)
        return scc(*args, **kwargs)

    monkeypatch.setattr(Mdp, "union_chain", recording_union_chain)
    monkeypatch.setattr(rmdp.reachability, "connected_components", counting_scc)
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
    scc = rmdp.reachability.connected_components

    def counting_scc(*args, **kwargs):
        scc_calls.append(args)
        return scc(*args, **kwargs)

    monkeypatch.setattr(Mdp, "union_chain", recording_union_chain)
    monkeypatch.setattr(rmdp.reachability, "connected_components", counting_scc)
    out = tmp_path / "out.json"
    assert rmdp.cli.main([command, "--model", model, "--out", str(out)]) == 0
    assert len(chains) == {"verify": 0, "solve": 1}[command]
    assert len(scc_calls) == 1


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
