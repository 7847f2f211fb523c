"""The activity contract that lets ``System.run_until`` skip cycles.

A component's ``idle_cycles()`` promises that for that many cycles it asserts
no val while nothing arrives, and that its tick with nothing arriving changes
nothing except in the last of them; the kernel then moves ``System.cycle`` to
the last of them and ticks there each component whose stretch ends. The
static eval schedule trusts each block's declared signals. These tests check
both promises instead of trusting them: idle_cycles against input-free
cycles, that the kernel steps no cycle in which nothing could transfer, and
the declarations against what the blocks really touch. The ``audit_blocks``
fixture of ``conftest.py`` checks the declarations in every test of
``test_cache.py``, ``test_memory.py`` and ``test_prefetcher.py``: a block
that touches an undeclared signal fails the test that ran it. Here it audits
the 36 trace-lock runs and one prefetcher testbench, which together touch
every declared signal.
"""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chasesim import (Channel, MemRequest, MsgKind, PointerChasePrefetcher,
                      build_system, build_testbench, make_config)
from golden.make_golden import TOPOLOGIES, WORKLOADS
from golden.make_traces import LATENCIES, SMALL

from conftest import DECLARED, after_each_block, chase_testbench, run_to_responses

TRACE_LOCK = [(name, topo, lat) for name in WORKLOADS for topo in TOPOLOGIES
              for lat in LATENCIES]


# -- the kernel steps only cycles that carry a val --


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_stepped_cycle_leaves_every_val_low(name):
    quiet = []
    for topo in TOPOLOGIES:
        for lat in LATENCIES:
            handle = build_system(make_config(topo, lat, name, **SMALL[name]))
            system = handle.system
            per_cycle, ran = sum(len(c.blocks) for c in system.components), [0]

            def checked(comp, block, system=system, where=(topo, lat)):
                ran[0] += 1
                if ran[0] == per_cycle:  # the eval phase is over
                    ran[0] = 0
                    if not any(ch.val for ch in system.channels):
                        quiet.append((*where, system.cycle))
            after_each_block(system, checked)
            assert system.run_until(lambda: handle.core.done)
    assert quiet == []


# -- idle_cycles() cycles change nothing until the last --


def _state(comp):
    """Everything a component keeps, except its ports, its system and the
    core's program generator (it only advances with the core's state)."""
    return {k: v for k, v in vars(comp).items()
            if k not in ("system", "_gen") and not isinstance(v, Channel)}


def _reset(system):
    for ch in system.channels:
        ch.msg, ch.rdy = None, False


def _contract_case(name, topology, latency):
    """A system of a golden workload, or a prefetcher testbench with source
    and sink delays."""
    if name == "testbench":
        return chase_testbench(latency, [0, 5, 0, 2, 9, 0, 1, 3], [4, 0, 7, 1, 0, 12],
                               PointerChasePrefetcher())[0]
    return build_system(make_config(topology, latency, name, **SMALL[name])).system


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([*WORKLOADS, "testbench"]),
       topology=st.sampled_from(TOPOLOGIES), latency=st.sampled_from([1, 4, 40]),
       cycles=st.integers(0, 1500), n=st.integers(1, 64))
# a demand that hits a prefetch still in flight waits for its fill: a
# prefetcher that forwards it instead asserts a val in its first idle cycle
@example(name="traversal", topology="alternate", latency=40, cycles=55, n=8)
def test_idle_ticks_change_nothing_until_the_last(name, topology, latency, cycles, n):
    # each idle component runs k = min(n, idle_cycles()) cycles of its eval
    # blocks and tick with every channel low on entry and system.cycle
    # advancing: no block asserts a val, the trace state holds, and no tick
    # but the last changes the component, so a skip of n cycles ticks only
    # the components whose k is n, and only at the last of them
    system = _contract_case(name, topology, latency)
    if cycles:
        system.run_until(lambda: False, max_cycles=cycles)
    start = system.cycle
    idle = [(c, min(n, c.idle_cycles())) for c in system.components]
    for comp, k in idle:
        system.cycle = start
        shown = comp.trace_state()
        for i in range(k):
            before = copy.deepcopy(_state(comp))
            assert comp.trace_state() == shown, (comp.name, i)
            for method in comp.blocks:
                getattr(comp, method)()
            assert not any(ch.val for ch in system.channels), (comp.name, i)
            _reset(system)
            comp.tick()
            system.cycle += 1
            if i < k - 1:
                assert _state(comp) == before, (comp.name, i)


# -- declared-signal audit --


def test_eval_blocks_touch_exactly_their_declared_signals(audit_blocks):
    # audit_blocks fails an undeclared access; the trace-lock runs and one
    # testbench must also touch every declared signal. Only a testbench has a
    # source writing req.val and a sink writing resp.rdy, and only there does
    # the prefetcher's cache_req ready read cache_resp.rdy: an INIT, then a
    # read that hits its entry
    for name, topo, lat in TRACE_LOCK:
        handle = build_system(make_config(topo, lat, name, **SMALL[name]))
        assert handle.system.run_until(lambda: handle.core.done)
    sys_, _, sink, _, _ = build_testbench(
        1, [MemRequest(MsgKind.INIT, 0x1000, data=bytes(16)),
            MemRequest(MsgKind.READ, 0x1000)], PointerChasePrefetcher())
    run_to_responses(sys_, sink, 2)
    assert sorted(DECLARED - audit_blocks()) == [], "declared signals never touched"
