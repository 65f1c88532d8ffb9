"""The benchmark's traced run, on small inputs.

perfbench's traced run wraps rmdp's public functions in spans, and its
counters read the positional arguments of the four kernels and the
arguments of counting_potential, rvi_solve and bvi_solve.  This runs one
copy of every operation of the three workloads under perfbench.tracer, as
it stands, so that a change to one of those signatures or attributes
fails here and not only in a benchmark run.
"""

import contextlib
import io
import sys
from pathlib import Path

import rmdp
import rmdp.cli

# perfbench sits at the root of the checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import models, tracer  # noqa: E402

SMALL = ["--q-max", "4", "--z-min", "100", "--z-max", "106", "--z0", "103"]

# One counter of each kind the tracer fills, besides the span calls.
COUNTERS = {
    "mdp.build_mdp.records",
    "reachability.sccs",
    "reachability.levels",
    "solvers.rvi_solve.q_updates",
    "solvers.qvi_reversed.sweeps",
    "solvers.qvi_random.sweeps",
    "solvers.bvi_solve.dequeues",
    "solvers.bvi_solve.backups",
    "solvers.bvi_solve.transient_pairs",
    "solvers.simulate_policy.steps",
    "backends.rvi_pass.entries",
    "backends.gs_sweep.entries",
    "backends.bvi_run.entries",
    "backends.bellman_residual_pass.entries",
}


def _lookup_sites():
    """Every attribute the tracer may patch, with its current value."""
    owners = [getattr(rmdp, m) for m in tracer.PATCHED_MODULES] + [rmdp.Mdp]
    return {(o, attr): value for o in owners for attr, value in vars(o).items()}


def _derived_schedule_recipe():
    """README's recipe for an arbitrary model, plus the residual check."""
    params = rmdp.LiquidationParams(q_max=4, z_min=100, z_max=106, z0=103)
    mdp, _, _ = rmdp.build_liquidation(params)
    union = mdp.union_chain()
    decomp = rmdp.reachability.absorbing_decomposition(union)
    pt = rmdp.reachability.counting_potential(union)
    schedule = rmdp.reachability.level_set_schedule(pt, decomp)
    result = rmdp.solvers.rvi_solve(mdp, schedule, decomp)
    return rmdp.solvers.bellman_residual(mdp, result.values.v)


def test_traced_operations_fill_every_counter_and_restore_functions(tmp_path):
    text = next(t for t, facts in models.generate(1, count=8) if not facts["back_edge"])
    model = tmp_path / "model.json"
    model.write_text(text, encoding="utf-8")
    out = ["--out", str(tmp_path / "out")]
    commands = [
        ["verify", "--domain", "liquidation", *SMALL],
        ["solve", "--domain", "liquidation", *SMALL],
        ["policy-grid", *SMALL],
        ["bench", *SMALL, "--solvers", "rvi,qvi-reversed,qvi-random,bvi", "--seed", "1"],
        ["simulate", *SMALL, "--trials", "20", "--horizon", "30"],
        ["shrink", "--trials", "50", "--steps", "20"],
        ["shrink", "--mode", "DeltaInterval", "--delta", "0.1", "--trials", "50"],
        ["verify", "--model", str(model)],
        ["solve", "--model", str(model)],
    ]
    before = _lookup_sites()
    tr = tracer.Tracer()
    with tracer.installed(tr, rmdp), contextlib.redirect_stdout(io.StringIO()):
        codes = [rmdp.cli.main([*argv, *out]) for argv in commands]
        residual = _derived_schedule_recipe()
    after = _lookup_sites()

    assert codes == [0] * len(commands)
    assert residual < 1e-9
    assert before.keys() == after.keys()
    assert all(after[site] is value for site, value in before.items())
    assert COUNTERS <= tr.counts.keys()
    assert {name: n for name, n in tr.counts.items() if not n > 0} == {}
    assert tr.counts["cli.main.calls"] == len(commands)
