"""Command-line front end and benchmark harness.

Subcommands: solve, verify, bench, simulate, policy-grid, shrink.  Models
come either from a JSON file (--model) or a built-in domain (--domain).
Each flag is declared once, with its type and default, in _parser().  A
JSON --config file is a second way to spell the command line: an object
whose keys are the command's flag dests (q_max for --q-max).  Each value
is read as --flag=value, a list as its items joined by commas, before
the command line's own flags, so an explicit flag wins.  A null value,
and a key the command does not take, are skipped; a boolean, an object,
or a list holding either exits 2, and so does any value the flag itself
would refuse, as does a comma list with no item left.  Each JSON file is
json.dumps(payload, indent=2) plus a newline.  CSV and JSON output is
byte-deterministic given config and seed, except for the measured
wall_nanos.  Exit codes: 0 ok, 2 bad input, 3 not reductive, 4 solver
failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, replace

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


def _fmt(x):
    return "%.17g" % float(x)


def _comma_list(cast):
    """An argparse type: a comma list of cast values, blank items skipped.

    A list with no item left is refused: it would run no work.
    """

    def parse(text):
        items = [cast(p) for p in map(str.strip, text.split(",")) if p]
        if not items:
            raise argparse.ArgumentTypeError(f"expected at least one value in {text!r}")
        return items

    parse.__name__ = f"{cast.__name__} list"
    return parse


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_json(path, payload):
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _call(factory, args, *names, **overrides):
    """factory called with the values of names in args, then overrides.

    Without names, they are the fields of factory, a dataclass.  A value
    of None is left out, so that factory's own default holds.
    """
    names = names or [f.name for f in fields(factory)]
    values = {name: getattr(args, name, None) for name in names} | overrides
    return factory(**{k: v for k, v in values.items() if v is not None})


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


def _resolve_model(args):
    """Build (mdp, schedule, decomp); schedule/decomp may be None."""
    if (args.model is None) == (args.domain is None):
        raise InvalidParams("give exactly one of --model and --domain")
    if args.model is not None:
        return build_mdp(_read_json(args.model)), None, None
    if args.domain == "liquidation":
        return build_liquidation(_call(LiquidationParams, args))
    if args.domain == "spiral":
        return _call(build_spiral, args, "step_reward", "mix_levels")
    chain = _call(build_fig2, args, "loop_prob", variant=args.domain[-1].upper())
    return mdp_from_chain(chain), None, None


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


def _cmd_solve(args):
    mdp, schedule, decomp = _resolve_model(args)
    if args.solver == "rvi":
        schedule, decomp = _verified_schedule(mdp, schedule, decomp)
    result = _dispatch(
        args.solver, mdp, schedule, decomp, _call(SolverConfig, args)
    )
    _write_json(args.out, result.to_json_dict())
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


def _cmd_verify(args):
    mdp, _, _ = _resolve_model(args)
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
        payload["order"] = perm.order.tolist()
    _write_json(args.out, payload)
    return EXIT_OK


def _cmd_bench(args):
    for s in args.solvers:
        if s not in SOLVER_NAMES:
            raise InvalidParams(f"unknown solver {s!r}")
    if "rvi" not in args.solvers:
        raise InvalidParams("bench needs rvi among the solvers as reference")
    if args.repeats < 1:
        raise InvalidParams("repeats must be at least 1")

    lines = [BENCH_HEADER]
    for qm in args.q_max:
        mdp, schedule, decomp = build_liquidation(
            _call(LiquidationParams, args, q_max=qm)
        )
        ref_cfg = _call(SolverConfig, args)
        v_ref = rvi_solve(mdp, schedule, decomp, ref_cfg).values.v
        for solver in args.solvers:
            for rep in range(args.repeats):
                cfg = replace(ref_cfg, seed=args.seed + rep)
                result = _dispatch(solver, mdp, schedule, decomp, cfg)
                err = float(np.max(np.abs(result.values.v - v_ref)))
                st = result.stats
                lines.append(
                    f"{solver},{qm},{mdp.state_count},{st.q_updates},"
                    f"{st.sweeps},{st.wall_nanos},{_fmt(err)}"
                )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_simulate(args):
    trials, horizon, seed = args.trials, args.horizon, args.seed
    cfg = _call(SolverConfig, args)
    lines = [SIMULATE_HEADER]
    for w1 in args.w1:
        params = _call(LiquidationParams, args, w1=w1)
        mdp, schedule, decomp = build_liquidation(params)
        result = _dispatch(args.solver, mdp, schedule, decomp, cfg)
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
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_policy_grid(args):
    params = _call(LiquidationParams, args)
    mdp, schedule, decomp = build_liquidation(params)
    result = rvi_solve(mdp, schedule, decomp, _call(SolverConfig, args))
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
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_shrink(args):
    params = _call(ShrinkParams, args)
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
    _write_json(args.out, payload)
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
    sp.add_argument("--q-max", type=int)
    sp.add_argument("--w1", type=float)
    sp.add_argument("--step-reward", type=float)
    sp.add_argument("--mix-levels", type=_comma_list(float), help="comma list in [0,1]")
    sp.add_argument("--loop-prob", type=float)


@functools.cache
def _parser():
    """The argument parser, built on the first call and shared after it.

    Every flag's dest is argparse's own, its name with _ for -, so that a
    config key spells its flag back.  A default of None leaves the value
    to the default of the function or dataclass that takes it (_call).
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--config", help="JSON config file")

    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--epsilon", type=float)
    solver_flags.add_argument("--max-sweeps", type=int)

    liq = argparse.ArgumentParser(add_help=False)
    liq.add_argument("--z-min", type=int)
    liq.add_argument("--z-max", type=int)
    liq.add_argument("--z0", type=int)
    liq.add_argument("--p-down", type=float)
    liq.add_argument("--p-stay", type=float)
    liq.add_argument("--p-up", type=float)
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
    sp.add_argument("--solver", choices=SOLVER_NAMES, default="rvi")

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
    sp.add_argument(
        "--q-max",
        type=_comma_list(int),
        default=(10, 20, 40),
        help="comma list of inventory bounds",
    )
    sp.add_argument("--w1", type=float)
    sp.add_argument(
        "--solvers",
        type=_comma_list(str),
        default=SOLVER_NAMES,
        help="comma list of solver names",
    )
    sp.add_argument("--repeats", type=int, default=1)

    sp = sub.add_parser(
        "simulate",
        parents=[common, solver_flags, liq],
        help="mean liquidation inventory paths per w1, write CSV",
    )
    sp.add_argument("--q-max", type=int)
    sp.add_argument(
        "--w1",
        type=_comma_list(float),
        default=(0.1, 0.2, 0.4),
        help="comma list of transaction weights",
    )
    sp.add_argument("--solver", choices=SOLVER_NAMES, default="rvi")
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--horizon", type=int, default=1000)

    sp = sub.add_parser(
        "policy-grid",
        parents=[common, solver_flags, liq],
        help="optimal liquidation action per (q, z), write CSV",
    )
    sp.add_argument("--q-max", type=int)
    sp.add_argument("--w1", type=float)

    sp = sub.add_parser(
        "shrink",
        parents=[common],
        help="Monte-Carlo summary of the shrinking-intervals process",
    )
    sp.add_argument("--mode", choices=(MULTIPLICATIVE, DELTA_INTERVAL))
    sp.add_argument("--trials", type=int, default=10_000)
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--delta", type=float)

    return parser


def _config_flags(config, taken):
    """The values of a config file, spelled as the flags they stand for.

    taken holds the command's dests.  A key outside it, the config and
    command keys, and a null value are skipped.  A list is its items
    joined by commas.
    """
    if not isinstance(config, dict):
        raise InvalidParams("config file must hold a JSON object")
    flags = []
    for key, value in config.items():
        if key in ("config", "command") or key not in taken or value is None:
            continue
        items = value if type(value) is list else [value]
        if any(type(x) not in (str, int, float) for x in items):
            raise InvalidParams(
                f"config value of {key!r} must be a string, a number or a list of them"
            )
        flags.append(f"--{key.replace('_', '-')}=" + ",".join(map(str, items)))
    return flags


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            flags = _config_flags(_read_json(args.config), vars(args))
            # The command first, then the config, then the explicit flags,
            # so that argparse keeps an explicit flag's value.
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        return _COMMANDS[args.command](args)
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
