"""Command-line front end and benchmark harness.

Subcommands: solve, verify, bench, simulate, policy-grid, shrink.  Models
come either from a JSON file (--model) or a built-in domain (--domain);
a JSON --config file can supply any flag value, with explicit flags
winning.  CSV output is byte-deterministic given config and seed, except
for the measured wall_nanos column.  Exit codes: 0 ok, 2 bad input,
3 not reductive, 4 solver failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

import numpy as np

from .domains import (
    DELTA_INTERVAL,
    MULTIPLICATIVE,
    LiquidationParams,
    ShrinkParams,
    build_fig2,
    build_liquidation,
    build_spiral,
    liquidation_state_id,
    shrink_simulate,
)
from .errors import InvalidParams, ModelError, NotReductive, SolverError
from .mdp import build_mdp, mdp_from_chain
from .reachability import (
    _reachable_mask,
    absorbing_decomposition,
    canonical_permutation,
    counting_potential,
    height_schedule,
    level_set_schedule,
    verify_reductive_mdp,
)
from .solvers import (
    RANDOM_PER_SWEEP,
    REVERSED_LEVEL_SETS,
    SolverConfig,
    bvi_solve,
    qvi_solve,
    rvi_solve,
    simulate_policy,
)

SOLVER_NAMES = ("rvi", "qvi-random", "qvi-reversed", "bvi")
DOMAIN_NAMES = ("liquidation", "spiral", "fig2a", "fig2b")

BENCH_HEADER = "solver,q_max,states,q_updates,sweeps,wall_nanos,vmax_err"
SIMULATE_HEADER = "w1,t,mean_q,stderr_q"
GRID_HEADER = "q,z,u,reachable"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_REDUCTIVE = 3
EXIT_SOLVER = 4

_LIQ_FIELDS = {
    "q_max": int,
    "z_min": int,
    "z_max": int,
    "z0": int,
    "p_down": float,
    "p_stay": float,
    "p_up": float,
    "w0": float,
    "w1": float,
    "w2": float,
    "discount": float,
}


def _fmt(x):
    return "%.17g" % float(x)


class _Resolver:
    """Flag lookup with config-file fallback: explicit flags win."""

    def __init__(self, args, config):
        self._args = args
        self._config = config

    def get(self, name, default=None):
        value = self._args.get(name)
        if value is None:
            value = self._config.get(name, default)
        return value


def _as_list(value, cast):
    if value is None:
        return None
    if isinstance(value, str):
        parts = [p.strip() for p in value.split(",")]
        return [cast(p) for p in parts if p]
    if isinstance(value, (list, tuple)):
        return [cast(x) for x in value]
    return [cast(value)]


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# How json spells the floats that float.__repr__ writes as nan and inf.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(reprs):
    if "nan" in reprs or "inf" in reprs or "-inf" in reprs:
        return [_JSON_FLOATS.get(r, r) for r in reprs]
    return reprs


def _json_text(obj, depth=0):
    """json.dumps(obj, indent=2), byte for byte, placed at nesting depth.

    With indent, json encodes in pure Python, one call per number.  Here
    a list of plain floats or of plain ints is one join of float.__repr__
    or int.__repr__ strings; strings and any other type go to json.dumps,
    whose newlines get this depth's indent.
    """
    inner = "\n" + "  " * (depth + 1)
    if type(obj) is list:
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {float}:
            items = _json_floats(list(map(float.__repr__, obj)))
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = [_json_text(x, depth + 1) for x in obj]
        return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"
    if type(obj) is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = [
            json.dumps(k) + ": " + _json_text(x, depth + 1) for k, x in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "}"
    if type(obj) is float:
        return _json_floats([float.__repr__(obj)])[0]
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def _write_json(path, payload):
    _write_text(path, _json_text(payload) + "\n")


def _liq_params(res, **overrides):
    kwargs = {}
    for name, cast in _LIQ_FIELDS.items():
        value = overrides.get(name, res.get(name))
        if value is not None:
            kwargs[name] = cast(value)
    return LiquidationParams(**kwargs)


def _solver_config(res):
    return SolverConfig(
        epsilon=float(res.get("epsilon", 1e-10)),
        max_sweeps=int(res.get("max_sweeps", 100_000)),
        seed=int(res.get("seed", 0)),
    )


def _read_json(path):
    """The JSON value in the file at path.

    json.load reads nested arrays and objects by recursion, so a file
    nested deeper than the interpreter's recursion limit is bad input.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ModelError(f"{path}: JSON nested too deeply to read") from None


def _resolve_model(res):
    """Build (mdp, schedule, decomp); schedule/decomp may be None."""
    model = res.get("model")
    domain = res.get("domain")
    if (model is None) == (domain is None):
        raise InvalidParams("give exactly one of --model and --domain")
    if model is not None:
        return build_mdp(_read_json(model)), None, None
    if domain == "liquidation":
        return build_liquidation(_liq_params(res))
    if domain == "spiral":
        kwargs = {}
        step = res.get("step_reward")
        if step is not None:
            kwargs["step_reward"] = float(step)
        mixes = _as_list(res.get("mix_levels"), float)
        if mixes is not None:
            kwargs["mix_levels"] = tuple(mixes)
        return build_spiral(**kwargs)
    if domain in ("fig2a", "fig2b"):
        loop = res.get("loop_prob")
        chain = (
            build_fig2(domain[-1].upper(), loop_prob=float(loop))
            if loop is not None
            else build_fig2(domain[-1].upper())
        )
        return mdp_from_chain(chain), None, None
    raise InvalidParams(f"unknown domain {domain!r}")


def _dispatch(solver, mdp, schedule, decomp, cfg):
    """Run a named solver; reductivity is the caller's concern.

    rvi needs schedule and decomp: a domain's, or _verified_schedule's.
    The other solvers derive what they need of them when they are None.
    """
    if solver == "rvi":
        return rvi_solve(mdp, schedule, decomp, cfg)
    if solver == "qvi-random":
        return qvi_solve(mdp, replace(cfg, ordering=RANDOM_PER_SWEEP))
    if solver == "qvi-reversed":
        if schedule is None:
            # The sweep order, and with it the values' last bits and the
            # sweep count, follows the levels: keep the potential's level
            # sets, not the coarser Kahn heights.
            support = mdp.support()
            pt = counting_potential(support)
            schedule = level_set_schedule(pt, absorbing_decomposition(support))
        return qvi_solve(
            mdp, replace(cfg, ordering=REVERSED_LEVEL_SETS), schedule=schedule
        )
    if solver == "bvi":
        if decomp is None:
            decomp = absorbing_decomposition(mdp.support())
        return bvi_solve(mdp, decomp, cfg)
    raise InvalidParams(f"unknown solver {solver!r}")


def _cmd_solve(res):
    mdp, schedule, decomp = _resolve_model(res)
    solver = res.get("solver", "rvi")
    if solver not in SOLVER_NAMES:
        raise InvalidParams(f"unknown solver {solver!r}")
    if solver == "rvi":
        schedule, decomp = _verified_schedule(mdp, schedule, decomp)
    result = _dispatch(solver, mdp, schedule, decomp, _solver_config(res))
    _write_json(res.get("out"), result.to_json_dict())
    return EXIT_OK


def _verified_schedule(mdp, schedule, decomp):
    """Certify mdp from its union chain, then schedule it by Kahn height.

    A given schedule and decomposition are kept.  The chain is dropped
    on return, before any solve runs.  rmdp verify reads the cheaper
    mdp.support() instead; solve keeps the union chain, whose span
    perfbench's trace test expects.
    """
    union = mdp.union_chain()
    verdict = verify_reductive_mdp(mdp, union)
    if not verdict.reductive:
        raise NotReductive(
            f"model is not reductive ({len(verdict.violations)} violations)"
        )
    if schedule is None or decomp is None:
        decomp = absorbing_decomposition(union)
        schedule = height_schedule(union, decomp)
    return schedule, decomp


def _cmd_verify(res):
    mdp, _, _ = _resolve_model(res)
    support = mdp.support()
    verdict = verify_reductive_mdp(mdp, support)
    del mdp  # nothing below reads the model, and the support holds none of it
    payload = {
        "reductive": verdict.reductive,
        "violations": [
            {"x": v.x, "xp": v.xp, "kind": v.kind} for v in verdict.violations
        ],
    }
    if verdict.reductive:
        decomp = absorbing_decomposition(support)
        pt = counting_potential(support)
        perm = canonical_permutation(support, decomp, pt)
        payload["order"] = [int(s) for s in perm.order]
    _write_json(res.get("out"), payload)
    return EXIT_OK


def _cmd_bench(res):
    q_maxes = _as_list(res.get("q_max", [10, 20, 40]), int)
    solvers = _as_list(res.get("solvers", list(SOLVER_NAMES)), str)
    for s in solvers:
        if s not in SOLVER_NAMES:
            raise InvalidParams(f"unknown solver {s!r}")
    if "rvi" not in solvers:
        raise InvalidParams("bench needs rvi among the solvers as reference")
    repeats = int(res.get("repeats", 1))
    if repeats < 1:
        raise InvalidParams("repeats must be at least 1")
    base_seed = int(res.get("seed", 0))

    lines = [BENCH_HEADER]
    for qm in q_maxes:
        params = _liq_params(res, q_max=qm)
        mdp, schedule, decomp = build_liquidation(params)
        ref_cfg = _solver_config(res)
        v_ref = rvi_solve(mdp, schedule, decomp, ref_cfg).values.v
        for solver in solvers:
            for rep in range(repeats):
                cfg = replace(ref_cfg, seed=base_seed + rep)
                result = _dispatch(solver, mdp, schedule, decomp, cfg)
                err = float(np.max(np.abs(result.values.v - v_ref)))
                st = result.stats
                lines.append(
                    f"{solver},{qm},{mdp.state_count},{st.q_updates},"
                    f"{st.sweeps},{st.wall_nanos},{_fmt(err)}"
                )
    _write_text(res.get("out"), "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_simulate(res):
    w1s = _as_list(res.get("w1", [0.1, 0.2, 0.4]), float)
    trials = int(res.get("trials", 2000))
    horizon = int(res.get("horizon", 1000))
    solver = res.get("solver", "rvi")
    if solver not in SOLVER_NAMES:
        raise InvalidParams(f"unknown solver {solver!r}")
    seed = int(res.get("seed", 0))

    lines = [SIMULATE_HEADER]
    for w1 in w1s:
        params = _liq_params(res, w1=w1)
        mdp, schedule, decomp = build_liquidation(params)
        result = _dispatch(solver, mdp, schedule, decomp, _solver_config(res))
        start = liquidation_state_id(params, params.q_max, params.z0)
        trajs = simulate_policy(mdp, result.policy, start, horizon, trials, seed)
        # Every trial holds its last state after it ends, so the columns
        # past the longest trajectory repeat its last one.
        Z = params.z_count
        width = max(tr.states.size for tr in trajs)
        qpath = np.empty((trials, width), dtype=np.float64)
        for i, tr in enumerate(trajs):
            qs = tr.states // Z
            qpath[i, : qs.size] = qs
            qpath[i, qs.size :] = qs[-1]
        mean_q = qpath.mean(axis=0)
        if trials > 1:
            stderr_q = qpath.std(axis=0, ddof=1) / np.sqrt(trials)
        else:
            stderr_q = np.zeros(width)
        for t in range(horizon + 1):
            c = min(t, width - 1)
            lines.append(f"{_fmt(w1)},{t},{_fmt(mean_q[c])},{_fmt(stderr_q[c])}")
    _write_text(res.get("out"), "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_policy_grid(res):
    params = _liq_params(res)
    mdp, schedule, decomp = build_liquidation(params)
    result = rvi_solve(mdp, schedule, decomp, _solver_config(res))
    start = liquidation_state_id(params, params.q_max, params.z0)
    reach = _reachable_mask(mdp.pair_ptr[mdp.state_ptr], mdp.col, start)
    choice = result.policy.choice
    Z = params.z_count
    lines = [GRID_HEADER]
    for q in range(params.q_max + 1):
        for z in range(params.z_min, params.z_max + 1):
            sid = q * Z + (z - params.z_min)
            lines.append(
                f"{q},{z},{int(choice[sid])},{1 if reach[sid] else 0}"
            )
    _write_text(res.get("out"), "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_shrink(res):
    delta = res.get("delta")
    params = ShrinkParams(
        trials=int(res.get("trials", 10_000)),
        steps=int(res.get("steps", 100)),
        seed=int(res.get("seed", 0)),
        mode=res.get("mode", MULTIPLICATIVE),
        delta=float(delta) if delta is not None else None,
    )
    out = shrink_simulate(params)
    payload = {
        "mode": params.mode,
        "trials": params.trials,
        "steps": params.steps,
        "seed": params.seed,
        "delta": params.delta,
        "max_final": out.max_final,
        "mean_final": float(out.final_abs.mean()),
        "all_monotone": out.all_monotone,
    }
    _write_json(res.get("out"), payload)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "simulate": _cmd_simulate,
    "policy-grid": _cmd_policy_grid,
    "shrink": _cmd_shrink,
}


def _add_model_flags(sp):
    sp.add_argument("--model", help="path to a model JSON file")
    sp.add_argument("--domain", choices=DOMAIN_NAMES, help="built-in domain")
    sp.add_argument("--q-max", type=int, dest="q_max")
    sp.add_argument("--w1", type=float)
    sp.add_argument("--step-reward", type=float, dest="step_reward")
    sp.add_argument("--mix-levels", dest="mix_levels", help="comma list in [0,1]")
    sp.add_argument("--loop-prob", type=float, dest="loop_prob")


@functools.cache
def _parser():
    """The argument parser, built on the first call and shared after it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--config", default=None, help="JSON config file")

    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--epsilon", type=float, default=None)
    solver_flags.add_argument("--max-sweeps", type=int, dest="max_sweeps")

    liq = argparse.ArgumentParser(add_help=False)
    liq.add_argument("--z-min", type=int, dest="z_min")
    liq.add_argument("--z-max", type=int, dest="z_max")
    liq.add_argument("--z0", type=int)
    liq.add_argument("--p-down", type=float, dest="p_down")
    liq.add_argument("--p-stay", type=float, dest="p_stay")
    liq.add_argument("--p-up", type=float, dest="p_up")
    liq.add_argument("--w0", type=float)
    liq.add_argument("--w2", type=float)
    liq.add_argument("--discount", type=float)

    parser = argparse.ArgumentParser(
        prog="rmdp",
        description="Reductive MDP solvers, verifiers and benchmark domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser(
        "solve",
        parents=[common, solver_flags, liq],
        help="solve a model and write SolveResult JSON",
    )
    _add_model_flags(sp)
    sp.add_argument("--solver", choices=SOLVER_NAMES, default=None)

    sp = sub.add_parser(
        "verify",
        parents=[common, liq],
        help="write a reductivity verdict as JSON",
    )
    _add_model_flags(sp)

    sp = sub.add_parser(
        "bench",
        parents=[common, solver_flags, liq],
        help="time solvers on liquidation instances, write CSV",
    )
    sp.add_argument("--q-max", dest="q_max", help="comma list of inventory bounds")
    sp.add_argument("--w1", type=float)
    sp.add_argument("--solvers", help="comma list of solver names")
    sp.add_argument("--repeats", type=int, default=None)

    sp = sub.add_parser(
        "simulate",
        parents=[common, solver_flags, liq],
        help="mean liquidation inventory paths per w1, write CSV",
    )
    sp.add_argument("--q-max", type=int, dest="q_max")
    sp.add_argument("--w1", dest="w1", help="comma list of transaction weights")
    sp.add_argument("--solver", choices=SOLVER_NAMES, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--horizon", type=int, default=None)

    sp = sub.add_parser(
        "policy-grid",
        parents=[common, solver_flags, liq],
        help="optimal liquidation action per (q, z), write CSV",
    )
    sp.add_argument("--q-max", type=int, dest="q_max")
    sp.add_argument("--w1", type=float)

    sp = sub.add_parser(
        "shrink",
        parents=[common],
        help="Monte-Carlo summary of the shrinking-intervals process",
    )
    sp.add_argument("--mode", choices=(MULTIPLICATIVE, DELTA_INTERVAL))
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--delta", type=float, default=None)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        config = {}
        if args.config is not None:
            config = _read_json(args.config)
            if not isinstance(config, dict):
                raise InvalidParams("config file must hold a JSON object")
        res = _Resolver(vars(args), config)
        return _COMMANDS[args.command](res)
    except NotReductive as exc:
        print(f"rmdp: {exc}", file=sys.stderr)
        return EXIT_NOT_REDUCTIVE
    except SolverError as exc:
        print(f"rmdp: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError:
        print("rmdp: out of memory", file=sys.stderr)
        return EXIT_SOLVER
    except (ModelError, OSError, ValueError, TypeError) as exc:
        print(f"rmdp: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
