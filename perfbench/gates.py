"""Correctness checks on the outputs of each benchmark operation.

Every check returns a list of problems; an empty list is a pass.  The
checks read only what the operation wrote, plus expectations fixed in
set-up, and run outside the timed regions.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# Value agreement between solvers (bench vmax_err, model-file values
# against the qvi reference): qvi stops at a per-sweep change of 1e-10,
# so errors stay far below this.
VALUE_TOL = 1e-7
# Bellman residual of the derived-schedule solve; a one-pass solve is
# exact up to rounding.
RESIDUAL_TOL = 1e-8

EXIT_OK = 0
EXIT_NOT_REDUCTIVE = 3


def check_verify(payload, state_count):
    """A reductive verdict with no violations and a full state order."""
    problems = []
    if payload.get("reductive") is not True:
        problems.append("verify: model not certified reductive")
    if payload.get("violations"):
        problems.append(f"verify: {len(payload['violations'])} violations")
    order = np.asarray(payload.get("order", []), dtype=np.int64)
    if not np.array_equal(np.sort(order), np.arange(state_count)):
        problems.append("verify: order is not a permutation of the states")
    return problems


def check_identical(v, ref, what):
    v, ref = np.asarray(v, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if v.shape != ref.shape:
        return [f"{what}: {v.size} values, expected {ref.size}"]
    if not np.array_equal(v, ref):
        diff = float(np.max(np.abs(v - ref)))
        return [f"{what}: values differ (max {diff:.3g}), expected bit-identical"]
    return []


def check_close(v, ref, what, tol=VALUE_TOL):
    v, ref = np.asarray(v, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if v.shape != ref.shape:
        return [f"{what}: {v.size} values, expected {ref.size}"]
    diff = float(np.max(np.abs(v - ref))) if v.size else 0.0
    if not diff <= tol:
        return [f"{what}: max difference {diff:.3g} exceeds {tol:g}"]
    return []


def check_residual(residual, tol=RESIDUAL_TOL):
    if not residual <= tol:
        return [f"bellman residual {residual:.3g} exceeds {tol:g}"]
    return []


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_policy_grid(text, q_max, z_count, policy):
    """(q_max+1)*z_count rows whose u column is the solve policy."""
    rows = _rows(text)
    if len(rows) != (q_max + 1) * z_count:
        return [f"policy-grid: {len(rows)} rows, expected {(q_max + 1) * z_count}"]
    u = np.asarray([int(r["u"]) for r in rows], dtype=np.int64)
    if not np.array_equal(u, np.asarray(policy, dtype=np.int64)):
        return ["policy-grid: u column differs from the solve policy"]
    return []


def check_bench(text, solvers, transient_pairs, tol=VALUE_TOL):
    """One row per solver, every error within tol, rvi a single pass."""
    rows = _rows(text)
    problems = []
    if sorted(r["solver"] for r in rows) != sorted(solvers):
        problems.append(f"bench: rows {[r['solver'] for r in rows]}")
    for r in rows:
        err = float(r["vmax_err"])
        if not err <= tol:
            problems.append(f"bench: {r['solver']} vmax_err {err:.3g} exceeds {tol:g}")
        if r["solver"] == "rvi" and (
            int(r["sweeps"]) != 1 or int(r["q_updates"]) != transient_pairs
        ):
            problems.append(
                f"bench: rvi made {r['sweeps']} sweeps and {r['q_updates']} "
                f"updates, expected 1 and {transient_pairs}"
            )
    return problems


def check_simulate(text, q_max):
    """Per w1, mean inventory starts at q_max and never rises."""
    by_w1 = {}
    for r in _rows(text):
        by_w1.setdefault(r["w1"], []).append((int(r["t"]), float(r["mean_q"])))
    if not by_w1:
        return ["simulate: no rows"]
    problems = []
    for w1, pts in by_w1.items():
        mean_q = np.asarray([m for _, m in sorted(pts)])
        if mean_q[0] != q_max:
            problems.append(f"simulate: w1={w1} starts at {mean_q[0]}, not {q_max}")
        if np.any(np.diff(mean_q) > 0.0):
            problems.append(f"simulate: w1={w1} mean inventory rises")
    return problems


def check_shrink(payload):
    if payload.get("all_monotone") is not True:
        return [f"shrink {payload.get('mode')}: paths not all monotone"]
    return []


def check_model_exit(reductive, code, back_edge=False):
    """Verify and solve agree: reductive exits 0, anything else exits 3.

    A generated back edge closes a real cycle, so such a model must be
    rejected whatever else the verifier does.
    """
    problems = []
    if back_edge and reductive:
        problems.append("verify: a model with a cycle was certified reductive")
    expected = EXIT_OK if reductive else EXIT_NOT_REDUCTIVE
    if code != expected:
        problems.append(f"solve: exit {code}, expected {expected}")
    return problems
