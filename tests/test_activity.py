"""The activity contract that lets ``System.run_until`` skip cycles.

A component's ``idle_cycles()`` promises that for that many cycles it asserts
no val while nothing arrives, and that its tick with nothing arriving changes
nothing except in the last of them; the kernel then moves ``System.cycle`` to
the last of them and ticks once. The static eval schedule trusts each block's
declared signals. These tests check both promises instead of trusting them:
the declarations against what the blocks really touch, idle_cycles against
input-free cycles, and that the kernel steps no cycle in which nothing could
transfer.
"""

import copy
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chasesim.kernel as kernel
from chasesim import (BlockingCache, Channel, Component, CoreModel,
                      PipelinedMemory, PointerChasePrefetcher, System, TestSink,
                      TestSource, build_system, make_config)
from golden.make_golden import TOPOLOGIES, WORKLOADS
from golden.make_traces import LATENCIES, SMALL

import test_cache
import test_memory
import test_prefetcher

TRACE_LOCK = [(name, topo, lat) for name in WORKLOADS for topo in TOPOLOGIES
              for lat in LATENCIES]


# -- declared-signal audit --

COMPONENTS = (CoreModel, BlockingCache, PointerChasePrefetcher, PipelinedMemory,
              TestSource, TestSink)
BLOCK_NAMES = {block for cls in COMPONENTS for block in cls.blocks}
KERNEL = (System.step.__code__, System._skip.__code__)  # ticks run from these
ACCESSES: set[tuple] = set()  # (component, block, channel, wire, "read"/"write")


def _note(ch, wire, mode):
    """Record an access made, directly or through a Channel method, by the
    eval block that is running; accesses from ticks and the kernel are not
    block accesses."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code not in KERNEL:
        name = frame.f_code.co_name
        if name in BLOCK_NAMES:
            me = frame.f_locals.get("self")
            if isinstance(me, Component) and name in me.blocks:
                ACCESSES.add((me, name, ch, wire, mode))
                return
        frame = frame.f_back


def _recorded(slot, wire):
    def get(ch):
        _note(ch, wire, "read")
        return slot.__get__(ch)

    def set_(ch, value):
        _note(ch, wire, "write")
        slot.__set__(ch, value)
    return property(get, set_)


class RecordingChannel(Channel):
    """A channel whose val, rdy and msg accesses are recorded per eval block
    (msg travels with val, so it counts as val)."""

    __slots__ = ()
    msg = _recorded(Channel.msg, "val")
    val = _recorded(Channel.val, "val")
    rdy = _recorded(Channel.rdy, "rdy")


def _directed_tests():
    """The directed testbench tests as calls, one per parametrization."""
    for module in (test_cache, test_memory, test_prefetcher):
        for name, fn in sorted(vars(module).items()):
            if not name.startswith("test_"):
                continue
            marks = [m for m in getattr(fn, "pytestmark", []) if m.name == "parametrize"]
            if not marks:
                yield fn
            for mark in marks:
                for value in mark.args[1]:
                    yield lambda fn=fn, value=value: fn(value)


def _declared():
    """(component name, block, port, wire, mode) for every declared signal."""
    out = set()
    for cls in COMPONENTS:
        for block, (reads, writes) in cls.blocks.items():
            for mode, signals in (("read", reads), ("write", writes)):
                for signal in signals:
                    port, _, wire = signal.partition(".")
                    out.add((cls.name, block, port, wire, mode))
    return out


def test_eval_blocks_touch_exactly_their_declared_signals(monkeypatch):
    # the trace-lock systems and the directed testbenches together exercise
    # every declared signal: the prefetcher reads cache_resp.rdy for its
    # cache_req ready only behind a test sink
    monkeypatch.setattr(kernel, "Channel", RecordingChannel)
    ACCESSES.clear()
    for name, topo, lat in TRACE_LOCK:
        handle = build_system(make_config(topo, lat, name, **SMALL[name]))
        assert handle.system.run_until(lambda: handle.core.done)
    for test in _directed_tests():
        test()
    assert ACCESSES, "no block access was recorded"
    touched = set()
    for comp, block, ch, wire, mode in ACCESSES:
        port = next(p for p, v in vars(comp).items() if v is ch)
        touched.add((comp.name, block, port, wire, mode))
    declared = _declared()
    assert sorted(touched - declared) == [], "undeclared signals"
    assert sorted(declared - touched) == [], "declared signals never touched"


# -- the kernel steps only cycles that carry a val --


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_stepped_cycle_leaves_every_val_low(name):
    quiet = []
    for topo in TOPOLOGIES:
        for lat in LATENCIES:
            handle = build_system(make_config(topo, lat, name, **SMALL[name]))
            system = handle.system
            per_cycle, ran = sum(len(c.blocks) for c in system.components), [0]
            for comp in system.components:
                for method in comp.blocks:
                    def checked(block=getattr(comp, method), where=(topo, lat)):
                        block()
                        ran[0] += 1
                        if ran[0] == per_cycle:  # the eval phase is over
                            ran[0] = 0
                            if not any(ch.val for ch in system.channels):
                                quiet.append((*where, system.cycle))
                    setattr(comp, method, checked)
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
        ch.msg, ch.val, ch.rdy = None, False, False


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["random", "traversal"]),
       topology=st.sampled_from(TOPOLOGIES), latency=st.sampled_from([1, 4, 40]),
       cycles=st.integers(0, 1500), n=st.integers(1, 64))
def test_idle_ticks_change_nothing_until_the_last(name, topology, latency, cycles, n):
    # each idle component runs k = min(n, idle_cycles()) cycles of its eval
    # blocks and tick with every channel low on entry and system.cycle
    # advancing: no block asserts a val, the trace state holds, and no tick
    # but the last changes the component, so the kernel may tick only there
    handle = build_system(make_config(topology, latency, name, **SMALL[name]))
    system = handle.system
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
