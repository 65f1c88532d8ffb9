"""Tests for the benchmark's own code (not for rmdp).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import io
import contextlib
import json

import numpy as np
import pytest

import rmdp
import rmdp.cli
from perfbench import gates, models, tracer
from perfbench.tracer import Span


def test_generator_is_deterministic():
    a = models.generate(7, count=12)
    b = models.generate(7, count=12)
    assert [t for t, _ in a] == [t for t, _ in b]
    assert [f for _, f in a] == [f for _, f in b]
    assert [t for t, _ in models.generate(8, count=12)] != [t for t, _ in a]


def test_generated_models_have_the_stated_shape():
    for text, facts in models.generate(3, count=40):
        spec = json.loads(text)
        mdp = rmdp.build_mdp(spec)  # rows sum to one, masks are valid
        assert models.MIN_STATES <= mdp.state_count <= models.MAX_STATES
        assert 1 <= mdp.action_count <= models.MAX_ACTIONS
        sizes = np.diff(mdp.pair_ptr)
        # 1-3 drawn successors, plus a self-loop and one back edge at most.
        assert sizes.min() >= 1 and sizes.max() <= models.MAX_SUCCESSORS + 2
        assert facts["entries"] == mdp.col.size
        assert facts["pairs"] == mdp.pair_count
        # Ids below the class size form the one closed class.
        decomp = rmdp.absorbing_decomposition(mdp.union_chain())
        assert [g.tolist() for g in decomp.classes] == [list(range(facts["class_size"]))]


def test_back_edge_models_are_rejected():
    seen = 0
    for text, facts in models.generate(5, count=40):
        if facts["back_edge"]:
            seen += 1
            verdict = rmdp.verify_reductive_mdp(rmdp.build_mdp(json.loads(text)))
            assert not verdict.reductive
    assert seen > 0


def test_self_times_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, "t"),
        Span("a", 1.0, 4.0, 0, "t"),
        Span("b", 3.0, 6.0, 0, "t"),  # overlaps a: 1..6 covered once
        Span("leaf", 1.5, 2.5, 1, "t"),  # grandchild: only a loses it
        Span("c", 9.0, 12.0, 0, "t"),  # clipped to the parent's end
    ]
    got = tracer.self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got["a"] == pytest.approx(3.0 - 1.0)
    assert got["b"] == pytest.approx(3.0)
    assert got["leaf"] == pytest.approx(1.0)
    assert got["c"] == pytest.approx(3.0)


def test_tracing_records_spans_and_restores_functions():
    main, union_chain = rmdp.cli.main, rmdp.Mdp.union_chain
    tr = tracer.Tracer()
    with tracer.installed(tr, rmdp), contextlib.redirect_stdout(io.StringIO()):
        assert rmdp.cli.main(["solve", "--domain", "spiral"]) == 0
    assert rmdp.cli.main is main and rmdp.Mdp.union_chain is union_chain
    names = [sp.name for sp in tr.spans]
    assert names[0] == "cli.main" and tr.spans[0].parent == -1
    assert {"reachability.verify_reductive_mdp", "mdp.union_chain",
            "solvers.rvi_solve", "backends.rvi_pass"} <= set(names)
    total = sum(tracer.self_times(tr.spans).values())
    root = tr.spans[0]
    assert total == pytest.approx(root.end - root.start)
    assert tr.counts["solvers.rvi_solve.q_updates"] > 0


def test_gate_flags_a_perturbed_value_vector():
    v = np.linspace(-3.0, 2.0, 50)
    assert gates.check_close(v, v.copy(), "v") == []
    assert gates.check_identical(v, v.copy(), "v") == []
    bad = v.copy()
    bad[17] += 1e-5
    assert gates.check_close(bad, v, "v")
    assert gates.check_identical(bad, v, "v")
    bad = v.copy()
    bad[3] = np.nan
    assert gates.check_close(bad, v, "v")


def test_gate_flags_a_wrong_exit_code():
    assert gates.check_model_exit(True, 0) == []
    assert gates.check_model_exit(False, 3) == []
    assert gates.check_model_exit(True, 3)
    assert gates.check_model_exit(False, 0)
    assert gates.check_model_exit(False, 4)
    assert gates.check_model_exit(True, 0, back_edge=True)


def test_gate_flags_a_bench_rvi_row_with_extra_sweeps():
    header = "solver,q_max,states,q_updates,sweeps,wall_nanos,vmax_err\n"
    good = header + "rvi,4,10,7,1,5,0\nbvi,4,10,9,3,5,1e-12\n"
    assert gates.check_bench(good, ("rvi", "bvi"), 7) == []
    assert gates.check_bench(good.replace("rvi,4,10,7,1", "rvi,4,10,7,2"), ("rvi", "bvi"), 7)
    assert gates.check_bench(good.replace("1e-12", "1e-3"), ("rvi", "bvi"), 7)
