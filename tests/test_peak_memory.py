"""Peak memory of the structure layers on liquidation at q_max=40.

Each test bounds what a layer allocates beyond what it returns or
caches: its tracemalloc peak minus what is still allocated after the
call.  At q_max=40 the model has 8,241 states and 493,421 entries, so one
int64 per entry is 3.8 MiB.  Each bound is the layer's measured peak plus
10%, written as 1.1 times that peak in MiB.
"""

import gc
import tracemalloc

import pytest

from rmdp import LiquidationParams, absorbing_decomposition, counting_potential
from rmdp.domains import build_liquidation
from rmdp.reachability import _condensation, _heights

MiB = 1 << 20


def scratch_peak(call):
    """call()'s result, and its tracemalloc peak above what it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - held


@pytest.fixture(scope="module")
def liquidation():
    return build_liquidation(LiquidationParams(q_max=40))[0]


def test_build_liquidation_makes_each_entry_array_once():
    _, scratch = scratch_peak(lambda: build_liquidation(LiquidationParams(q_max=40)))
    assert scratch <= 1.1 * 5.61 * MiB, scratch / MiB


def test_support_sorts_its_keys_in_place(liquidation):
    _, scratch = scratch_peak(liquidation.support)
    assert scratch <= 1.1 * 0.65 * MiB, scratch / MiB


def test_union_chain_adds_masses_to_the_support(liquidation):
    # The chain's rows are the support's; only its masses are new.
    _, scratch = scratch_peak(liquidation.union_chain)
    assert scratch <= 1.1 * 1.74 * MiB, scratch / MiB


def test_condensation_builds_its_keys_in_blocks(liquidation):
    support = liquidation.support()
    _, scratch = scratch_peak(lambda: absorbing_decomposition(support))
    assert support._condensation is not None
    assert scratch <= 1.1 * 2.28 * MiB, scratch / MiB


def test_heights_gather_their_frontiers_in_blocks(liquidation):
    cond = _condensation(liquidation.support())
    _, scratch = scratch_peak(lambda: _heights(cond))
    assert scratch <= 1.1 * 2.11 * MiB, scratch / MiB


def test_potential_gathers_its_reads_in_blocks(liquidation):
    # The bitset alone is 8,042 rows of 129 words, 7.9 MiB.
    support = liquidation.support()
    _condensation(support)
    _, scratch = scratch_peak(lambda: counting_potential(support))
    assert scratch <= 1.1 * 10.66 * MiB, scratch / MiB
