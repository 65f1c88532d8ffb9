"""Seeded generator of JSON model files for the model-files workload.

Each model is a masked MDP in the `rmdp` model-file format.  States
0..k-1 form one closed class (k in 1..3); every other state is transient
and, apart from self-loops and the occasional back edge, only moves to
lower ids, so the transient part is acyclic by construction:

- 4-300 states, 1-4 actions, a random non-empty mask per state;
- 1-3 distinct successors per pair, plus a self-loop on about a fifth of
  pairs;
- closed-class rewards are 0, so discount 1 is well posed;
- a quarter of models get one back edge x -> y that closes a cycle
  x -> y -> x under some policy.  The cycle leaves through x's lower
  successors, so such a model is never reductive.

State counts, action counts, class sizes, discounts and back edges are
spread evenly over the model set, so the set's total work hardly varies
with the seed.

Generation draws only from numpy's PCG64 stream seeded by the caller and
writes JSON with fixed separators, so the same seed gives byte-identical
files.
"""

from __future__ import annotations

import json

import numpy as np

MODEL_COUNT = 300
MIN_STATES = 4
MAX_STATES = 300
MAX_ACTIONS = 4
MAX_SUCCESSORS = 3
SELF_LOOP_SHARE = 0.2
BACK_EDGE_SHARE = 0.25
CLASS_SIZES = (1, 1, 2, 3)  # half the models get a multi-state class
DISCOUNTS = (1.0, 0.99, 0.9)


def make_model(rng, n, action_count, k, discount, back_edge):
    """One model spec plus its facts.

    n states, action_count actions, a closed class of k states; back_edge
    asks for one back edge, which facts["back_edge"] confirms.
    """

    sizes = rng.integers(1, action_count + 1, size=n)
    perms = np.argsort(rng.random((n, action_count)), axis=1)
    mask = [sorted(perms[x, : sizes[x]].tolist()) for x in range(n)]

    # All draws for all pairs at once.  Successor candidates are drawn
    # with replacement and deduplicated, so a pair has 1-3 distinct
    # successors; closed-class pairs stay inside 0..k-1.
    pair_state = np.repeat(np.arange(n), sizes)
    n_pairs = pair_state.size
    span = np.where(pair_state < k, k, pair_state)
    n_succ = rng.integers(1, MAX_SUCCESSORS + 1, size=n_pairs).tolist()
    cand = (rng.random((n_pairs, MAX_SUCCESSORS)) * span[:, None]).astype(np.int64)
    loops = (rng.random(n_pairs) < SELF_LOOP_SHARE).tolist()
    weights = rng.uniform(0.2, 1.0, size=(n_pairs, MAX_SUCCESSORS + 1)).tolist()
    rewards = rng.uniform(-1.0, 1.0, size=(n_pairs, MAX_SUCCESSORS + 1)).tolist()
    cand = cand.tolist()

    rows = {}  # (x, u) -> (cols, probs, rewards)
    j = 0
    for x in range(n):
        closed = x < k
        for i, u in enumerate(mask[x]):
            succs = set(cand[j][: n_succ[j]])
            if closed and i == 0:
                # Stepping around the class keeps it strongly connected.
                succs.add((x + 1) % k)
            if not closed and loops[j]:
                succs.add(x)
            cols = sorted(succs)
            w = weights[j][: len(cols)]
            if x in succs and not closed:
                w[cols.index(x)] *= 0.5  # keep self-loop mass well below 1
            total = sum(w)
            # Closed-class rewards are 0, so discount 1 stays well posed.
            r = [0.0] * len(cols) if closed else rewards[j][: len(cols)]
            rows[(x, u)] = (cols, [wi / total for wi in w], r)
            j += 1

    if back_edge:
        back_edge = False
        # Pairs (y, u) with a transient successor x < y; add y to x's
        # first pair, whose lower successors remain as exits.
        cands = [
            (y, c)
            for (y, _), (cols, _, _) in rows.items()
            if y >= k
            for c in cols
            if k <= c < y
        ]
        if cands:
            y, x = cands[int(rng.integers(len(cands)))]
            u = mask[x][0]
            cols, p, r = rows[(x, u)]
            w = float(rng.uniform(0.2, 1.0))
            rows[(x, u)] = (
                cols + [y],
                [pi / (1.0 + w) for pi in p + [w]],
                r + [float(rng.uniform(-1.0, 1.0))],
            )
            back_edge = True

    transitions = [
        {"x": x, "u": u, "xp": c, "p": pc, "r": rc}
        for (x, u), (cols, p, r) in rows.items()
        for c, pc, rc in zip(cols, p, r)
    ]
    spec = {
        "states": n,
        "actions": action_count,
        "discount": discount,
        "mask": mask,
        "transitions": transitions,
    }
    facts = {
        "states": n,
        "pairs": len(rows),
        "entries": len(transitions),
        "self_loop_pairs": sum(1 for (x, _), row in rows.items() if x in row[0]),
        "class_size": k,
        "back_edge": back_edge,
    }
    return spec, facts


def generate(seed, count=MODEL_COUNT):
    """(json_text, facts) for count models, deterministic in seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    # Sizes, action counts, class sizes, discounts and back edges are
    # spread evenly over the models, then shuffled, so the total work of
    # a model set hardly depends on the seed; the structure is random.
    states = np.linspace(MIN_STATES, MAX_STATES, count).round().astype(np.int64)
    plan = zip(
        rng.permutation(states).tolist(),
        rng.permutation(np.resize(np.arange(1, MAX_ACTIONS + 1), count)).tolist(),
        rng.permutation(np.resize(CLASS_SIZES, count)).tolist(),
        rng.permutation(np.resize(DISCOUNTS, count)).tolist(),
        rng.permutation(np.arange(count) < round(BACK_EDGE_SHARE * count)).tolist(),
    )
    out = []
    for args in plan:
        spec, facts = make_model(rng, *args)
        out.append((json.dumps(spec, separators=(",", ":")), facts))
    return out
