"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload liq-ref --seed 1 --seconds 30 --trace 0

The workload runs in this single process on rmdp's numpy backend with
one BLAS thread.  Set-up (importing rmdp, then building the inputs three
times) is timed first.  Rounds of the workload's operations then run
until the next round would end after --seconds; at least one always runs.
Each operation's output is checked outside the timed region.  An
operation's time is its median over the rounds, and round_s sums those
medians over the workload's operations.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every
operation twice per round, untraced then traced, and reports per-layer
self times and counts per round from the traced copies, the per-task
times of the untraced copies, and the tracing overhead between the two.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is a JSON report with
the environment, the workload's input properties, sample counts and the
first problems found.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

# numpy, scipy, rmdp and this package's modules are imported in main(),
# after the environment is fixed and inside the timed set-up.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("liq-ref", "liq-baselines", "model-files")
SETUP_REPEATS = 3
MAX_PROBLEMS_SHOWN = 10

# Every workload reports these with --trace 0.
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}

# Per-task times, from the untraced copies of a traced run; 0 on a
# workload that does not run the task.
TASK_METRICS = {
    "verify_s": "s",
    "solve_s": "s",
    "solve_derived_s": "s",
    "policy_grid_s": "s",
    "bench_s": "s",
    "simulate_s": "s",
    "shrink_s": "s",
    "models_per_s": "1/s",
    "model_p50_ms": "ms",
    "model_p95_ms": "ms",
}

# Self time per round of one traced function.
SELF_TIMES = (
    "mdp.union_chain",
    "mdp.build_mdp",
    "reachability.counting_potential",
    "reachability.verify_reductive_mdp",
    "reachability.verify_reductive",
    "reachability.absorbing_decomposition",
    "reachability.level_set_schedule",
    "reachability.canonical_permutation",
    "reachability.reachable_set",
    "solvers.rvi_solve",
    "solvers.qvi_reversed",
    "solvers.qvi_random",
    "solvers.bvi_solve",
    "solvers.bellman_residual",
    "solvers.simulate_policy",
    "backends.gs_sweep",
    "backends.bvi_run",
    "backends.rvi_pass",
    "backends.bellman_residual_pass",
    "domains.build_liquidation",
    "domains.shrink_simulate",
)
# Self time per round summed over every traced function of a module.
LAYERS = ("mdp", "reachability", "solvers", "backends", "domains")
# Counts per round.
COUNTS = (
    "mdp.union_chain.calls",
    "mdp.build_mdp.records",
    "reachability.sccs",
    "reachability.levels",
    "solvers.rvi_solve.q_updates",
    "solvers.qvi_reversed.sweeps",
    "solvers.qvi_random.sweeps",
    "solvers.bvi_solve.dequeues",
    "solvers.bvi_solve.backups",
    "solvers.simulate_policy.steps",
    "backends.gs_sweep.calls",
    "backends.gs_sweep.entries",
    "backends.bvi_run.entries",
    "backends.rvi_pass.entries",
    "backends.bellman_residual_pass.entries",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Sample(NamedTuple):
    round: int
    task: str
    label: str
    traced: bool
    seconds: float


class Runner:
    """Executes operations, keeps their timings and counts failures."""

    def __init__(self, rmdp, tracer_mod, tracer=None):
        self.rmdp = rmdp
        self.tracer_mod = tracer_mod
        self.tracer = tracer
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, problems):
        self.failed += 1
        self.problems.extend(problems[: MAX_PROBLEMS_SHOWN - len(self.problems)])

    def execute(self, op, round_, traced):
        self.attempted += 1
        stderr = io.StringIO()
        if traced:
            self.tracer.task = op.label
            patches = self.tracer_mod.installed(self.tracer, self.rmdp)
        else:
            patches = contextlib.nullcontext()
        error = None
        with contextlib.redirect_stderr(stderr), patches:
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a traceback is a failed operation
                result, error = None, exc
            elapsed = time.perf_counter() - start
        if error is not None:
            self.fail([f"{op.label}: {type(error).__name__}: {error}"])
            return
        try:
            problems = op.check(result)
        except Exception as exc:  # unreadable or malformed output
            problems = [f"{op.label}: check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.fail(problems)
            return
        self.samples.append(Sample(round_, op.task, op.label, traced, elapsed))

    def run_rounds(self, workload, seconds, traced):
        """Whole rounds until the next one would end after `seconds`."""
        start = time.perf_counter()
        rounds, last = 0, 0.0
        while rounds == 0 or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            for op in workload.ops():
                self.execute(op, rounds, False)
                if traced:
                    self.execute(op, rounds, True)
            last = time.perf_counter() - began
            rounds += 1
        return rounds


def op_medians(samples):
    """{(task, label): median untraced seconds of that operation over rounds}.

    Taking each operation's median before summing keeps a slow stretch
    that hit one operation in one round out of the totals.
    """
    by_op = defaultdict(list)
    for s in samples:
        if not s.traced:
            by_op[(s.task, s.label)].append(s.seconds)
    return {key: statistics.median(v) for key, v in by_op.items()}


def task_metrics(samples):
    """Per-task times (sums of operation medians) and per-model latency."""
    out = {name: 0.0 for name in TASK_METRICS}
    for (task, _), seconds in op_medians(samples).items():
        if task in out:
            out[task] += seconds
    model = [s.seconds for s in samples if s.task == "model" and not s.traced]
    if model:
        out["models_per_s"] = len(model) / sum(model)
        out["model_p50_ms"] = 1e3 * statistics.median(model)
        out["model_p95_ms"] = 1e3 * statistics.quantiles(model, n=20)[18]
    return out


def round_totals(samples, rounds):
    """Untraced seconds spent in each round's operations."""
    totals = [0.0] * rounds
    for s in samples:
        if not s.traced:
            totals[s.round] += s.seconds
    return totals


def layer_metrics(tracer_mod, tracer, samples, rounds):
    selfs = tracer_mod.self_times(tracer.spans)
    out = {f"{name}.s": selfs.get(name, 0.0) / rounds for name in SELF_TIMES}
    for layer in LAYERS:
        total = sum(v for k, v in selfs.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = total / rounds
    out["cli.main.self_s"] = selfs.get("cli.main", 0.0) / rounds
    for name in COUNTS:
        out[name] = tracer.counts.get(name, 0.0) / rounds
    backups = tracer.counts.get("solvers.bvi_solve.backups", 0.0)
    useful = tracer.counts.get("solvers.bvi_solve.transient_pairs", 0.0)
    out["solvers.bvi_solve.useful_ratio"] = useful / backups if backups else 0.0
    plain = sum(s.seconds for s in samples if not s.traced)
    traced = sum(s.seconds for s in samples if s.traced)
    out["trace.overhead_pct"] = 100.0 * (traced - plain) / plain if plain else 0.0
    return out


def per_layer_units():
    units = {name: unit for name, unit in TASK_METRICS.items()}
    units.update({f"{name}.s": "s" for name in SELF_TIMES})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["cli.main.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units["solvers.bvi_solve.useful_ratio"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


def environment(rmdp, args):
    import numpy
    import scipy

    return {
        "backend": rmdp.active_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rmdp" / "__init__.py").is_file():
        print(f"perfbench: no rmdp package under {SRC}", file=sys.stderr)
        return 2
    # Fixed before numpy loads: the numpy kernels, one BLAS thread.
    os.environ["RMDP_BACKEND"] = "numpy"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[0:1] = [str(SRC), str(ROOT)]

    start = time.perf_counter()
    import rmdp
    import rmdp.cli

    import_s = time.perf_counter() - start
    if Path(rmdp.__file__).resolve().parent != SRC / "rmdp":
        print(f"perfbench: rmdp imported from {rmdp.__file__}", file=sys.stderr)
        return 2

    from perfbench import tracer as tracer_mod
    from perfbench import workloads

    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        runner = Runner(rmdp, tracer_mod, tracer_mod.Tracer() if args.trace else None)

        setup_times, prints = [], set()
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - began)
            prints.add(workload.fingerprint())
        runner.attempted += 1
        if len(prints) != 1:
            runner.fail(["setup: repeated set-up wrote different inputs"])
        setup_s = import_s + statistics.median(setup_times)

        rounds = runner.run_rounds(workload, args.seconds, traced=bool(args.trace))
        samples = runner.samples

        if args.trace:
            metrics = task_metrics(samples)
            metrics.update(layer_metrics(tracer_mod, runner.tracer, samples, rounds))
            units = per_layer_units()
            runner.tracer.dump(
                workdir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
        else:
            metrics = {
                "setup_s": setup_s,
                "round_s": sum(op_medians(samples).values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        report = {
            "environment": environment(rmdp, args),
            "properties": workload.properties(),
            "rounds_s": round_totals(samples, rounds),
            "samples": len([s for s in samples if not s.traced]),
            "import_s": import_s,
            "setup_runs_s": setup_times,
            "tasks": task_metrics(samples),
            "problems": runner.problems,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"report": report}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
