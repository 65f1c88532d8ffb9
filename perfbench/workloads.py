"""The three benchmark workloads: inputs, timed operations and their checks.

A workload builds its inputs in setup(), which the runner repeats and
times, then lists its operations.  One round runs every operation once.
An operation's run() is the timed part and calls only rmdp's public entry
points: rmdp.cli.main for each subcommand, and the README's recipe for a
derived schedule.  Its check() reads what run() produced and returns
problems; it runs outside the timed region.

Why these workloads (see README.md beside this file):
- liq-ref: the reference instance; structure derivation dominates.
- liq-baselines: iterative baselines and Monte Carlo; per-state Python
  loops in the kernels dominate and structure derivation is absent.
- model-files: hundreds of small user models; fixed cost per call
  dominates.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, NamedTuple

import numpy as np

import rmdp
import rmdp.cli

from . import gates, models

LIQ_REF_Q_MAX = 100
BASELINES_Q_MAX = 40
BASELINE_SOLVERS = ("rvi", "qvi-reversed", "qvi-random", "bvi")
SIMULATE_TRIALS = 2000
SHRINK_DELTA = 0.1
FIXTURES = ("spiral", "fig2a", "fig2b")


class Op(NamedTuple):
    task: str  # the metric this operation's time counts towards
    label: str  # unique within a round
    run: Callable[[], object]
    check: Callable[[object], list]


def _cli(argv):
    return lambda: rmdp.cli.main(argv)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _exit_ok(code, label):
    return [] if code == gates.EXIT_OK else [f"{label}: exit {code}"]


def instance_properties(mdp, schedule, decomp):
    """Sizes of one instance and the properties the layers depend on."""
    state_of_entry = np.repeat(
        np.repeat(np.arange(mdp.state_count), mdp.mask_sizes()), np.diff(mdp.pair_ptr)
    )
    loop_entry = mdp.col == state_of_entry
    pair_of_entry = np.repeat(np.arange(mdp.pair_count), np.diff(mdp.pair_ptr))
    loop_pairs = np.unique(pair_of_entry[loop_entry]).size
    return {
        "states": mdp.state_count,
        "pairs": mdp.pair_count,
        "entries": int(mdp.col.size),
        "self_loop_pair_share": loop_pairs / mdp.pair_count,
        "largest_closed_class": max(g.size for g in decomp.classes),
        "schedule_levels": len(schedule.levels),
    }


class _Liquidation:
    """Set-up shared by the liquidation workloads: the instance the CLI
    builds, kept for the checks and the report."""

    q_max = None

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        self.params = rmdp.LiquidationParams(q_max=self.q_max)
        self.mdp, self.schedule, self.decomp = rmdp.build_liquidation(self.params)

    def fingerprint(self):
        return None  # built in memory, nothing written

    def properties(self):
        return instance_properties(self.mdp, self.schedule, self.decomp)


class LiqRef(_Liquidation):
    """rmdp verify, solve and policy-grid at q_max=100, plus the recipe."""

    name = "liq-ref"
    q_max = LIQ_REF_Q_MAX
    solve_out = None

    def ops(self):
        q = str(LIQ_REF_Q_MAX)
        out = {k: os.path.join(self.workdir, k) for k in ("verify", "solve", "grid")}
        return [
            Op(
                "verify_s",
                "verify",
                _cli(["verify", "--domain", "liquidation", "--q-max", q, "--out", out["verify"]]),
                lambda code: self._check_verify(code, out["verify"]),
            ),
            Op(
                "solve_s",
                "solve",
                _cli(["solve", "--domain", "liquidation", "--q-max", q, "--out", out["solve"]]),
                lambda code: self._check_solve(code, out["solve"]),
            ),
            Op(
                "policy_grid_s",
                "policy-grid",
                _cli(["policy-grid", "--q-max", q, "--out", out["grid"]]),
                lambda code: self._check_grid(code, out["grid"]),
            ),
            Op("solve_derived_s", "derived", self._derived, self._check_derived),
        ]

    def _derived(self):
        # The README recipe for an arbitrary model, plus the residual check.
        mdp = self.mdp
        union = mdp.union_chain()
        decomp = rmdp.reachability.absorbing_decomposition(union)
        pt = rmdp.reachability.counting_potential(union)
        schedule = rmdp.reachability.level_set_schedule(pt, decomp)
        result = rmdp.solvers.rvi_solve(mdp, schedule, decomp)
        residual = rmdp.solvers.bellman_residual(mdp, result.values.v)
        return result, residual

    def _check_verify(self, code, path):
        if code != gates.EXIT_OK:
            return _exit_ok(code, "verify")
        return gates.check_verify(json.loads(_read(path)), self.mdp.state_count)

    def _check_solve(self, code, path):
        self.solve_out = None
        if code != gates.EXIT_OK:
            return _exit_ok(code, "solve")
        self.solve_out = json.loads(_read(path))
        return []

    def _check_grid(self, code, path):
        if code != gates.EXIT_OK:
            return _exit_ok(code, "policy-grid")
        if self.solve_out is None:
            return ["policy-grid: no solve output to compare with"]
        return gates.check_policy_grid(
            _read(path), LIQ_REF_Q_MAX, self.params.z_count, self.solve_out["policy"]
        )

    def _check_derived(self, out):
        result, residual = out
        problems = gates.check_residual(residual)
        if self.solve_out is None:
            return problems + ["derived: no solve output to compare with"]
        return problems + gates.check_identical(
            result.values.v, self.solve_out["v"], "derived vs solve"
        )


class LiqBaselines(_Liquidation):
    """rmdp bench, simulate and shrink at q_max=40 with the domain schedule."""

    name = "liq-baselines"
    q_max = BASELINES_Q_MAX

    def setup(self):
        super().setup()
        # What the rvi row of the bench must report.
        self.transient_pairs = int(self.mdp.mask_sizes()[self.decomp.transient].sum())

    def ops(self):
        q, seed = str(BASELINES_Q_MAX), str(self.seed)

        def path(name):
            return os.path.join(self.workdir, name)

        ops = [
            Op(
                "bench_s",
                "bench",
                _cli(
                    ["bench", "--q-max", q, "--solvers", ",".join(BASELINE_SOLVERS),
                     "--seed", seed, "--out", path("bench.csv")]
                ),
                lambda code: _exit_ok(code, "bench")
                or gates.check_bench(
                    _read(path("bench.csv")), BASELINE_SOLVERS, self.transient_pairs
                ),
            ),
            Op(
                "simulate_s",
                "simulate",
                _cli(
                    ["simulate", "--q-max", q, "--trials", str(SIMULATE_TRIALS),
                     "--seed", seed, "--out", path("simulate.csv")]
                ),
                lambda code: _exit_ok(code, "simulate")
                or gates.check_simulate(_read(path("simulate.csv")), BASELINES_Q_MAX),
            ),
        ]
        for mode, extra in (
            (rmdp.MULTIPLICATIVE, []),
            (rmdp.DELTA_INTERVAL, ["--delta", str(SHRINK_DELTA)]),
        ):
            out = path(f"shrink-{mode}.json")
            ops.append(
                Op(
                    "shrink_s",
                    f"shrink-{mode}",
                    _cli(["shrink", "--mode", mode, *extra, "--seed", seed, "--out", out]),
                    lambda code, out=out, mode=mode: _exit_ok(code, f"shrink {mode}")
                    or gates.check_shrink(json.loads(_read(out))),
                )
            )
        return ops


class ModelFiles:
    """rmdp verify then rmdp solve on generated model files and fixtures."""

    name = "model-files"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.verdicts = {}
        self.references = {}

    def setup(self):
        self.generated = models.generate(self.seed)
        self.paths = []
        for i, (text, _) in enumerate(self.generated):
            path = os.path.join(self.workdir, f"model-{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths.append(path)

    def fingerprint(self):
        """Digest of the written files, to check that set-up repeats exactly."""
        h = hashlib.sha256()
        for path in self.paths:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def properties(self):
        facts = [f for _, f in self.generated]
        n = len(facts)
        pairs = sum(f["pairs"] for f in facts)
        verdicts = [self.verdicts[i] for i in range(n) if i in self.verdicts]
        return {
            "models": n,
            "fixtures": list(FIXTURES),
            "states": sum(f["states"] for f in facts),
            "pairs": pairs,
            "entries": sum(f["entries"] for f in facts),
            "not_reductive_share": (
                sum(1 for r in verdicts if not r) / len(verdicts) if verdicts else None
            ),
            "back_edge_share": sum(f["back_edge"] for f in facts) / n,
            "multi_state_class_share": sum(f["class_size"] > 1 for f in facts) / n,
            "self_loop_pair_share": sum(f["self_loop_pairs"] for f in facts) / pairs,
        }

    def ops(self):
        ops = []
        for i, path in enumerate(self.paths):
            ops.append(self._op(f"model-{i:03d}", ["--model", path], i))
        for name in FIXTURES:
            ops.append(self._op(name, ["--domain", name], name))
        return ops

    def _op(self, label, source, key):
        v_out = os.path.join(self.workdir, "verify.json")
        s_out = os.path.join(self.workdir, "solve.json")
        verify = ["verify", *source, "--out", v_out]
        solve = ["solve", *source, "--out", s_out]

        def run():
            return rmdp.cli.main(verify), rmdp.cli.main(solve)

        def check(codes):
            v_code, s_code = codes
            if v_code != gates.EXIT_OK:
                return [f"{label}: verify exit {v_code}"]
            reductive = json.loads(_read(v_out))["reductive"]
            self.verdicts[key] = reductive
            back_edge = isinstance(key, int) and self.generated[key][1]["back_edge"]
            problems = gates.check_model_exit(reductive, s_code, back_edge)
            if problems or s_code != gates.EXIT_OK:
                return [f"{label}: {p}" for p in problems]
            v = json.loads(_read(s_out))["v"]
            os.remove(s_out)  # so a later solve that writes nothing shows
            if key not in self.references:
                self.references[key] = self._reference(key, v)
            return gates.check_close(v, self.references[key], f"{label} vs qvi")

        return Op("model", label, run, check)

    def _reference(self, key, v):
        """Converged rmdp.qvi_solve values, which a wrong solve cannot fake.

        Generated models: ids ascend along the acyclic transient part and
        the closed class pays 0, so natural-order Gauss-Seidel converges
        in a few sweeps when started from the solve's values with the
        class reset to its exact value 0.  A wrong transient value moves,
        and a wrong class value is replaced.  Fixtures are tiny and start
        from 0.
        """
        cfg = rmdp.SolverConfig()
        if isinstance(key, int):
            text, facts = self.generated[key]
            mdp = rmdp.build_mdp(json.loads(text))
            v0 = np.asarray(v, dtype=np.float64).copy()
            v0[: facts["class_size"]] = 0.0
            return rmdp.qvi_solve(mdp, cfg, v0=v0).values.v
        if key == "spiral":
            mdp = rmdp.build_spiral()[0]
        else:
            mdp = rmdp.mdp_from_chain(rmdp.build_fig2(key[-1].upper()))
        return rmdp.qvi_solve(mdp, cfg).values.v


WORKLOADS = {w.name: w for w in (LiqRef, LiqBaselines, ModelFiles)}
