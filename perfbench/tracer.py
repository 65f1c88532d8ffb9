"""Spans around rmdp's public functions, for the traced benchmark run.

The wrappers live here, not in rmdp.  They replace each public function
where its callers look it up: the module globals of rmdp.cli,
rmdp.solvers, rmdp.reachability and rmdp.backends, plus the
Mdp.union_chain method.  A public function is one named in rmdp.__all__,
one of the four kernels of rmdp.backends, or rmdp.cli.main.  A span is
named "<module>.<function>", so the module is the layer.  Calls made
inside rmdp.domains and rmdp.mdp use their own imported names and stay
inside the caller's span.

Wrappers are installed only around the traced operations and removed
after them.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

PATCHED_MODULES = ("cli", "solvers", "reachability", "backends")
KERNELS = ("rvi_pass", "gs_sweep", "bvi_run", "bellman_residual_pass")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    task: str


def self_times(spans):
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    that its direct children cover.  Children are clipped to the parent
    and their overlaps merged, so nothing is subtracted twice.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    out = defaultdict(float)
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, sp.start), min(hi, sp.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sp.name] += (sp.end - sp.start) - covered
    return dict(out)


class Tracer:
    """Span recorder plus counters fed from the wrapped calls."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.task = ""
        self._stack = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.task)
            self.counts[name + ".calls"] += 1

    def wrap(self, name, fn):
        """fn wrapped in a span named name (qvi_solve's depends on its ordering)."""
        count = _COUNTERS.get(name)
        namer = _SPAN_NAMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            out = self.call(span_name, fn, args, kwargs)
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp._asdict()) + "\n")


def _targets(rmdp):
    """(owner, attribute, span name) for every lookup site to patch."""
    public = {
        name
        for name in rmdp.__all__
        if inspect.isfunction(getattr(rmdp, name))
    }
    out = []
    for modname in PATCHED_MODULES:
        mod = getattr(rmdp, modname)
        for attr, value in vars(mod).items():
            if attr in KERNELS and modname == "backends":
                out.append((mod, attr, "backends." + attr))
            elif attr in public and value is getattr(rmdp, attr):
                layer = value.__module__.rsplit(".", 1)[-1]
                out.append((mod, attr, f"{layer}.{attr}"))
    out.append((rmdp.cli, "main", "cli.main"))
    out.append((rmdp.Mdp, "union_chain", "mdp.union_chain"))
    return out


@contextlib.contextmanager
def installed(tracer, rmdp):
    """Patch every lookup site with a traced wrapper; restore on exit."""
    saved = []
    wrappers = {}
    try:
        for owner, attr, name in _targets(rmdp):
            original = owner.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = tracer.wrap(name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span names that depend on the arguments, and counters fed from a call's
# arguments and result.  Counters run after the span closes, so their cost
# shows in the tracing overhead, not in any layer's self time.


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _qvi_name(args, kwargs):
    ordering = _arg(args, kwargs, 1, "cfg").ordering
    return {
        "ReversedLevelSets": "solvers.qvi_reversed",
        "RandomPerSweep": "solvers.qvi_random",
    }.get(ordering, "solvers.qvi_solve")


_SPAN_NAMES = {"solvers.qvi_solve": _qvi_name}


def _entries_of(states, state_ptr, pair_ptr):
    states = np.asarray(states, dtype=np.int64)
    return int(np.sum(pair_ptr[state_ptr[states + 1]] - pair_ptr[state_ptr[states]]))


def _count_build_mdp(c, args, kwargs, out):
    c["mdp.build_mdp.records"] += len(_arg(args, kwargs, 0, "spec")["transitions"])


def _count_potential(c, args, kwargs, out):
    chain = _arg(args, kwargs, 0, "chain")
    n = chain.state_count
    mat = csr_matrix((chain.prob, chain.col, chain.row_ptr), shape=(n, n))
    c["reachability.sccs"] += connected_components(mat, connection="strong")[0]


def _count_rvi(c, args, kwargs, out):
    c["reachability.levels"] += len(_arg(args, kwargs, 1, "schedule").levels)
    c["solvers.rvi_solve.q_updates"] += out.stats.q_updates


def _count_qvi(c, args, kwargs, out):
    c[_qvi_name(args, kwargs) + ".sweeps"] += out.stats.sweeps


def _count_bvi(c, args, kwargs, out):
    mdp = _arg(args, kwargs, 0, "mdp")
    transient = _arg(args, kwargs, 1, "decomp").transient
    c["solvers.bvi_solve.dequeues"] += out.stats.sweeps
    c["solvers.bvi_solve.backups"] += out.stats.q_updates
    c["solvers.bvi_solve.transient_pairs"] += int(mdp.mask_sizes()[transient].sum())


def _count_simulate(c, args, kwargs, out):
    c["solvers.simulate_policy.steps"] += sum(t.actions.size for t in out)


def _count_rvi_pass(c, args, kwargs, out):
    c["backends.rvi_pass.entries"] += _entries_of(args[1], args[2], args[4])


def _count_gs_sweep(c, args, kwargs, out):
    c["backends.gs_sweep.entries"] += _entries_of(args[0], args[1], args[3])


def _count_bvi_run(c, args, kwargs, out):
    # The kernel reports pair backups, not which states it backed up, so
    # entries are computed as backups times the mean entries per
    # transient pair.
    is_transient, state_ptr, pair_ptr = args[1], args[4], args[6]
    transient = np.flatnonzero(is_transient)
    pairs = int(np.sum(state_ptr[transient + 1] - state_ptr[transient]))
    if pairs:
        entries = _entries_of(transient, state_ptr, pair_ptr)
        c["backends.bvi_run.entries"] += round(int(out[1]) * entries / pairs)


def _count_residual_pass(c, args, kwargs, out):
    c["backends.bellman_residual_pass.entries"] += args[2].size


_COUNTERS = {
    "mdp.build_mdp": _count_build_mdp,
    "reachability.counting_potential": _count_potential,
    "solvers.rvi_solve": _count_rvi,
    "solvers.qvi_solve": _count_qvi,
    "solvers.bvi_solve": _count_bvi,
    "solvers.simulate_policy": _count_simulate,
    "backends.rvi_pass": _count_rvi_pass,
    "backends.gs_sweep": _count_gs_sweep,
    "backends.bvi_run": _count_bvi_run,
    "backends.bellman_residual_pass": _count_residual_pass,
}
