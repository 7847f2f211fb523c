"""Channel handshake and cycle-loop semantics."""

import dis
import functools
import gc
import io
import sys
import time
import traceback
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasesim import (BlockingCache, Channel, CombinationalLoopError, Component, Compute,
                      ConfigurationError, CoreModel, MemRequest, MsgKind,
                      PipelinedMemory, PointerChasePrefetcher, Read, System, TestSink,
                      TestSource, build_system, build_testbench, make_config,
                      make_workload)
from chasesim import kernel
from chasesim.core import LoadLog
from chasesim.testbench import LoggingMemory

from conftest import after_each_block, chase_testbench, count_steps


def req(addr, kind=MsgKind.READ):
    return MemRequest(kind, addr)


def wire_source_to_sink(script, sink_delays=()):
    sys_ = System()
    src = TestSource(script)
    sink = TestSink(sink_delays)
    sys_.add(src, sink)
    ch = sys_.connect((src, "req"), (sink, "resp"), "direct")
    return sys_, src, sink, ch


def test_connect_missing_port_raises():
    sys_ = System()
    src = sys_.add(TestSource([]))
    sink = TestSink()
    sys_.add(sink)
    with pytest.raises(ConfigurationError):
        sys_.connect((src, "nonexistent"), (sink, "resp"))


@pytest.mark.parametrize("make", [PointerChasePrefetcher, BlockingCache],
                         ids=["pf", "cache"])
def test_connect_refuses_a_name_no_block_declares(make):
    # req is the request being serviced, None while idle: an attribute that
    # reads None is not a port
    system = System()
    comp, mem = system.add(make(), PipelinedMemory(4))
    with pytest.raises(ConfigurationError, match=rf"^{comp.name} has no port 'req'$"):
        system.connect((comp, "req"), (mem, "req"))
    assert comp.req is None and mem.req is None and system.channels == []


# each component class, a fresh instance of it and the port names its blocks
# declare signals on
PORTS = [
    (CoreModel, lambda: CoreModel([]), {"mem_req", "mem_resp"}),
    (BlockingCache, BlockingCache, {"core_req", "core_resp", "mem_req", "mem_resp"}),
    (PointerChasePrefetcher, PointerChasePrefetcher,
     {"cache_req", "cache_resp", "mem_req", "mem_resp"}),
    (PipelinedMemory, lambda: PipelinedMemory(1), {"req", "resp"}),
    (LoggingMemory, lambda: LoggingMemory(1), {"req", "resp"}),
    (TestSource, lambda: TestSource([]), {"req"}),
    (TestSink, TestSink, {"resp"}),
]


@pytest.mark.parametrize("cls,make,ports", PORTS, ids=[case[0].__name__ for case in PORTS])
def test_ports_are_the_names_the_blocks_declare(cls, make, ports):
    assert cls.ports == ports
    assert set(cls.up + cls.down) <= cls.ports
    comp = make()
    assert {port: getattr(comp, port) for port in ports} == dict.fromkeys(ports)
    assert comp.system is None


def test_connect_double_bind_raises():
    sys_, src, sink, _ = wire_source_to_sink([])
    other = TestSink()
    sys_.add(other)
    with pytest.raises(ConfigurationError):
        sys_.connect((src, "req"), (other, "resp"))


def test_transfer_requires_val_and_rdy():
    # sink not ready for 3 cycles: the message is held and retried, and
    # transfers exactly once when both val and rdy are finally high
    sys_, src, sink, ch = wire_source_to_sink([req(0x10)], sink_delays=[3])
    for _ in range(3):
        sys_.step()
        assert ch.transfers == 0
        assert not src.done
    sys_.step()
    assert ch.transfers == 1
    assert src.done
    assert sink.responses() == [req(0x10)]


def test_channel_val_is_a_read_only_view_of_msg():
    ch = Channel("c")
    assert ch.val is False
    ch.msg = req(0x10)
    assert ch.val is True
    with pytest.raises(AttributeError):
        ch.val = False
    assert ch.msg == req(0x10)
    ch.msg = None
    assert ch.val is False


@pytest.mark.parametrize("topology", ["baseline", "alternate"])
def test_each_stepped_cycle_drops_every_message(topology):
    # val is msg is not None, so a message left over would be a val that
    # every later eval block sees asserted; the predicate runs after every
    # stepped cycle and every skip of the unwatched run, which steps inline
    handle = build_system(make_config(topology, 4, "random", n=200))
    system, held, checks = handle.system, [], [0]

    def done():
        checks[0] += 1
        held.extend((system.cycle, ch.name) for ch in system.channels if ch.msg is not None)
        return handle.core.done
    assert system.run_until(done)
    assert checks[0] > 100
    assert held == []


def test_one_transfer_per_cycle():
    script = [req(a) for a in (0x00, 0x10, 0x20)]
    sys_, src, sink, ch = wire_source_to_sink(script)
    for cycle in range(3):
        sys_.step()
        assert ch.transfers == cycle + 1
    assert [r.addr for r in sink.responses()] == [0x00, 0x10, 0x20]


def test_source_delay_offsets_offer():
    sys_, src, sink, ch = wire_source_to_sink([(req(0x10), 2)])
    sys_.step()
    sys_.step()
    assert ch.transfers == 0
    sys_.step()
    assert ch.transfers == 1
    assert src.log == [(2, req(0x10))]


def test_empty_system_cycles_advance():
    sys_ = System()
    for _ in range(5):
        sys_.step()
    assert sys_.cycle == 5


def test_run_until_reports_deadlock_as_false():
    # sink never becomes ready within the budget
    sys_, src, sink, ch = wire_source_to_sink([req(0x10)], sink_delays=[10**9])
    assert sys_.run_until(lambda: src.done, max_cycles=50) is False
    assert ch.transfers == 0
    summary = sys_.state_summary()
    assert set(summary) == {"src", "sink"}


def test_run_until_rejects_empty_budget():
    sys_, src, _, _ = wire_source_to_sink([req(0x10)])
    with pytest.raises(ConfigurationError, match="max_cycles"):
        sys_.run_until(lambda: src.done, max_cycles=0)


@pytest.mark.parametrize("budget,traced", [(1e6, False), (10.0, True), (True, False)],
                         ids=["1e6", "10.0-traced", "True"])
def test_run_until_refuses_a_budget_that_is_not_an_int(budget, traced):
    # unchecked, 1e6 ran to a float cycle count of 1000000.0, 10.0 with a
    # trace attached raised a TypeError from the trace writer, and True ran
    # one cycle
    sys_, src, _, _ = wire_source_to_sink([req(0x10)], sink_delays=[10**9])
    trace = io.StringIO()
    if traced:
        sys_.attach_trace(trace)
    with pytest.raises(ConfigurationError, match="^max_cycles must be an integer$"):
        sys_.run_until(lambda: False, max_cycles=budget)
    assert sys_.cycle == 0 and trace.getvalue() == ""


def test_run_until_on_an_empty_system_skips_to_the_budget():
    # no component polls, so the one skip is the budget itself
    sys_ = System()
    assert sys_.run_until(lambda: False, 7) is False
    assert sys_.cycle == 7


def test_a_component_that_declares_no_idle_stretch_steps_every_cycle():
    # the default idle_cycles() is 0: never skipped, ticked once per cycle
    class Ticker(Component):
        ticks = 0

        def tick(self):
            self.ticks += 1
    sys_ = System()
    ticker = sys_.add(Ticker())
    assert sys_.run_until(lambda: False, 9) is False
    assert ticker.ticks == sys_.cycle == 9


def test_a_component_that_asserts_every_cycle_transfers_every_cycle():
    # only an eval tells the default idle_cycles() of 0 from 1: a tick runs
    # at the end of a one-cycle skip as well, but no eval block does
    class Talker(Component):
        name = "talker"
        blocks = {"eval": ((), ("out.val",))}

        def eval(self):
            self.out.msg = req(0x10)
    sys_ = System()
    talker, sink = sys_.add(Talker(), TestSink())
    ch = sys_.connect((talker, "out"), (sink, "resp"))
    assert talker.idle_cycles() == 0
    assert sys_.run_until(lambda: False, 9) is False
    assert ch.transfers == 9
    assert [cycle for cycle, _ in sink.received] == list(range(9))


@pytest.mark.parametrize("budget,steps_taken", [(3_000_000, 0), (10_000_000, 0)])
def test_run_until_jumps_idle_cycles_to_the_budget(budget, steps_taken):
    # a core computing for 5M cycles, then done: no cycle asserts a val (the
    # compute ends at the end of its last cycle), so a never-true predicate
    # reaches the budget at once instead of stepping through it
    system = System()
    core = CoreModel([Compute(5_000_000)])
    system.chain(core, BlockingCache(), PipelinedMemory(4))
    counter = count_steps(system)
    t0 = time.perf_counter()
    assert system.run_until(lambda: False, max_cycles=budget) is False
    assert time.perf_counter() - t0 < 1.0
    assert system.cycle == budget
    assert counter.ticks == steps_taken


@settings(max_examples=40, deadline=None)
@given(latency=st.integers(1, 6), prefetch=st.booleans(),
       src_delays=st.lists(st.integers(0, 12), min_size=1, max_size=8),
       sink_delays=st.lists(st.integers(0, 12), max_size=8))
def test_delayed_source_and_sink_run_as_they_step(latency, prefetch, src_delays,
                                                  sink_delays):
    # the source and sink report idle cycles, so run_until skips their
    # delays: every transfer must still land on the cycle stepping gives it
    runs = []
    for stepped in (True, False):
        stages = [PointerChasePrefetcher()] if prefetch else []
        sys_, src, sink, *_ = chase_testbench(latency, src_delays, sink_delays, *stages)

        def done():
            return len(sink.received) == len(src_delays)
        if stepped:
            while not done() and sys_.cycle < 1000:
                sys_.step()
        else:
            sys_.run_until(done, max_cycles=1000)
        assert done()
        runs.append((src.log, sink.received, sys_.cycle))
    assert runs[0] == runs[1]


def test_add_after_the_first_cycle_raises():
    # a core counts its first Compute from cycle 0, so a late joiner would
    # start with its compute already over
    system = System()
    system.chain(CoreModel([Compute(3)]), BlockingCache(), PipelinedMemory(4))
    system.step()
    with pytest.raises(ConfigurationError, match="before its first cycle"):
        system.add(TestSource([]))


def test_run_until_predicate_sees_the_exact_cycle():
    system = System()
    core = CoreModel([Compute(5_000_000)])
    system.chain(core, BlockingCache(), PipelinedMemory(4))
    assert system.run_until(lambda: False, max_cycles=3_000_000) is False
    assert system.run_until(lambda: core.done)
    assert system.cycle == 5_000_000  # one compute tick per cycle


BEYOND_IDLE_FOREVER = 3 * 2**30  # three idle-forever skips and then some


def test_a_budget_beyond_idle_forever_is_met_exactly():
    # a finished system reports IDLE_FOREVER everywhere: each skip covers
    # that many cycles, and the last one stops at the budget
    system = System()
    core = CoreModel([Read(0)])
    system.chain(core, BlockingCache(), PipelinedMemory(4))
    assert system.run_until(lambda: core.done)
    start = system.cycle
    assert system.run_until(lambda: False, max_cycles=BEYOND_IDLE_FOREVER + 5) is False
    assert system.cycle == start + BEYOND_IDLE_FOREVER + 5


def test_a_compute_beyond_idle_forever_ends_on_its_cycle():
    # the cache and memory idle forever while the core computes longer than
    # that: the skips stop at IDLE_FOREVER, tick the idle ones (which changes
    # nothing), and the compute still ends on its own cycle
    system = System()
    core = CoreModel([Compute(BEYOND_IDLE_FOREVER), Read(0)])
    system.chain(core, BlockingCache(), PipelinedMemory(4))
    assert system.run_until(lambda: core.done, max_cycles=2 * BEYOND_IDLE_FOREVER)
    assert system.cycle == BEYOND_IDLE_FOREVER + 9  # then a 9-cycle miss at L=4
    assert core.loads == [(0, 0)]


LOADS = [(0x40, 7), (0x80, 0xFFFFFFFF), (0x40, 9)]


def load_log(pairs):
    return LoadLog(array("I", [word for pair in pairs for word in pair]))


def test_the_load_log_reads_as_its_list_of_pairs():
    # core.loads packs each load into two 32-bit words, yet the acceptance
    # gate and the benchmark read it as the list of (addr, value) pairs it
    # replaced
    log = load_log(LOADS)
    assert log == LOADS and LOADS == log and log == tuple(LOADS)
    assert not log != LOADS and not LOADS != log  # the benchmark's form
    assert log == load_log(LOADS) and not log != load_log(LOADS)
    assert len(log) == 3 and list(log) == LOADS
    empty = load_log([])
    assert empty == [] and [] == empty and empty == load_log([]) and empty != log
    assert len(empty) == 0 and list(empty) == []
    with pytest.raises(TypeError, match="unhashable"):
        hash(log)
    for other in (None, 7, {(0x40, 7)}, iter(LOADS)):
        assert log.__eq__(other) is NotImplemented
        assert log != other and not log == other


def flipped(i, field):
    pairs = [list(pair) for pair in LOADS]
    pairs[i][field] ^= 1
    return [tuple(pair) for pair in pairs]


@pytest.mark.parametrize("other", [
    *(pytest.param(flipped(i, field), id=f"{('addr', 'value')[field]}{i}-flipped")
      for i in range(len(LOADS)) for field in (0, 1)),
    pytest.param(LOADS[:-1], id="one-fewer"), pytest.param(LOADS + [(0, 0)], id="one-more"),
    pytest.param(LOADS[1:] + LOADS[:1], id="reordered"), pytest.param([], id="empty")])
def test_the_load_log_differs_from_other_pairs(other):
    # a changed address or value, a load more or fewer, or the same loads
    # in another order
    log = load_log(LOADS)
    for against in (other, load_log(other)):
        assert log != against and against != log
        assert not log == against and not against == log


def test_channel_conservation():
    # every message offered by the source is observed exactly once at the sink
    script = [(req(0x10 * i), i % 3) for i in range(20)]
    sys_, src, sink, ch = wire_source_to_sink(script, sink_delays=[2, 0, 1] * 7)
    assert sys_.run_until(lambda: len(sink.received) == 20, 500)
    assert ch.transfers == 20
    assert [r for _, r in sink.received] == [r for r, _ in src.script]


@pytest.mark.parametrize("watch", ["trace", "probe"])
def test_a_watched_run_steps_every_cycle(watch):
    # with a trace attached or step replaced on the instance, run_until
    # calls step for every cycle, the memory waits that an unwatched run
    # skips included, and stops on the unwatched run's cycle
    def build():
        return build_testbench(40, [req(0x1000), req(0x2000)], BlockingCache())
    unwatched, _, sink, *_ = build()
    assert unwatched.run_until(lambda: len(sink.received) == 2)
    system, _, sink, *_ = build()
    stepped, trace = [], io.StringIO()
    if watch == "trace":
        system.attach_trace(trace)
    else:
        step = system.step
        system.step = lambda: stepped.append(step())
    assert system.run_until(lambda: len(sink.received) == 2)
    seen = trace.getvalue().count("\n") if watch == "trace" else len(stepped)
    assert seen == system.cycle == unwatched.cycle > 80


def test_the_compiled_run_neither_traces_nor_steps(monkeypatch):
    # an unwatched run_until is the compiled run alone: no trace check and no
    # call of step; the stepped cycle keeps the trace hook
    sources = []

    def kept(source, *args):
        sources.append(source)
        return compile(source, *args)
    monkeypatch.setattr(kernel, "compile", kept, raising=False)
    kernel._cycle_code.cache_clear()  # wirings of one shape share one code object
    build_system(make_config("alternate", 4, "random", n=20)).system.schedule()
    cycle, run = sources[0].split("\ndef run(")
    assert run.startswith("system, predicate, max_cycles):")
    assert "_trace" not in run and "step(" not in run
    assert "system._write_trace()" in cycle


def test_trace_lines_one_per_cycle(tmp_path):
    buf = io.StringIO()
    sys_, src, sink, _ = wire_source_to_sink([req(0x10)])
    sys_.attach_trace(buf)
    sys_.step()
    sys_.step()
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert "src:" in lines[0] and "sink:" in lines[0]
    # transfer marker with the rendered message on the transfer cycle
    assert "[direct rd 00000010 op=00]" in lines[0]


def test_a_fault_in_the_cycle_names_the_wiring():
    sys_, src, sink, _ = wire_source_to_sink([req(0x10)])

    def broken():
        raise RuntimeError("tick failed")
    sink.tick = broken
    with pytest.raises(RuntimeError, match="tick failed") as info:
        sys_.step()
    files = [frame.filename for frame in traceback.extract_tb(info.tb)]
    assert "<cycle of src sink>" in files


# -- static eval schedule --


class RdyFollower(Component):
    """Toy consumer whose input rdy copies the rdy it sees on its output."""

    blocks = {"eval": (("out.rdy",), ("inp.rdy",))}

    def __init__(self, name):
        self.name = name
        self.ticks = 0

    def eval(self):
        self.inp.rdy = self.out.rdy

    def tick(self):
        self.ticks += 1


@pytest.mark.parametrize("advance", [System.step,
                                     lambda s: s.run_until(lambda: False, 10)])
def test_declared_rdy_loop_raises_before_any_cycle(advance):
    system = System()
    a, b = system.add(RdyFollower("a"), RdyFollower("b"))
    system.connect((a, "out"), (b, "inp"))
    system.connect((b, "out"), (a, "inp"))
    with pytest.raises(CombinationalLoopError, match="a.eval, b.eval"):
        advance(system)
    assert system.cycle == 0
    assert a.ticks == b.ticks == 0


def test_declared_signal_on_unbound_port_raises():
    system = System()
    a, b = system.add(RdyFollower("a"), RdyFollower("b"))
    system.connect((a, "out"), (b, "inp"))
    with pytest.raises(ConfigurationError, match="a.inp is not bound"):
        system.step()


def test_declared_signal_other_than_val_or_rdy_raises():
    sys_, src, _, _ = wire_source_to_sink([])
    src.blocks = {"eval": ((), ("req.foo",))}
    with pytest.raises(ConfigurationError, match=r"^src: bad signal 'req\.foo'$"):
        sys_.step()


def block_names(system):
    return [f"{b.__self__.name}.{b.__name__}" for b in system.schedule()]


def test_schedule_orders_blocks_across_components():
    # pf.cache_req.rdy needs mem.req.rdy, which needs pf.mem_resp.rdy: no
    # order of whole components works, an order of their blocks does
    handle = build_system(make_config("alternate", 4, "random", n=20))
    assert block_names(handle.system) == [
        "core.eval", "cache.eval", "mem.eval", "pf.eval", "mem.eval_req_rdy",
        "pf.eval_cache_req_rdy"]


def test_schedule_follows_rewiring():
    sys_, src, sink, ch = wire_source_to_sink([req(0x10)])
    assert block_names(sys_) == ["src.eval", "sink.eval"]
    src2, mem, sink2 = sys_.add(TestSource([req(0x20)]), PipelinedMemory(1), TestSink())
    src2.name, sink2.name = "src2", "sink2"
    sys_.connect((src2, "req"), (mem, "req"))
    sys_.connect((mem, "resp"), (sink2, "resp"))
    assert block_names(sys_) == ["src.eval", "sink.eval", "src2.eval", "mem.eval",
                                 "sink2.eval", "mem.eval_req_rdy"]
    # the ticks are bound with the schedule, so the late joiners tick too
    assert sys_.run_until(lambda: len(sink2.received) == 1, 10)
    assert src.done and src2.done and sys_.cycle == 2
    assert src2.log == [(0, req(0x20))]
    assert [r.kind for r in sink2.responses()] == [MsgKind.READ]


def test_methods_are_bound_when_the_schedule_is():
    # a tick or idle_cycles replaced on an instance before the first cycle is
    # the one the kernel calls; one replaced later, with no rewiring, is not
    sys_, src, sink, ch = wire_source_to_sink([req(0x10), (req(0x20), 5)])
    calls = []
    for comp in (src, sink):
        for method in ("tick", "idle_cycles"):
            def counted(original=getattr(comp, method), key=(comp.name, method)):
                calls.append(key)
                return original()
            setattr(comp, method, counted)
    assert sys_.run_until(lambda: len(sink.received) == 1, 100)
    assert calls.count(("src", "tick")) == calls.count(("sink", "tick")) == 1
    assert calls.count(("src", "idle_cycles")) == 1
    calls.clear()
    src.tick = sink.tick = lambda: calls.append("late")
    assert sys_.run_until(lambda: len(sink.received) == 2, 100)
    assert "late" not in calls and calls.count(("src", "tick")) > 0
    assert src.log == [(0, req(0x10)), (6, req(0x20))]


# Per-cycle cost of run_until, by (workload, latency, params): ceilings on
# Python calls, bytecodes and C calls per simulated cycle, each as (without
# prefetcher, with prefetcher). One traced pass per case counts all three:
# calls as its sys.settrace "call" events, bytecodes as its opcode events,
# C calls as its sys.setprofile "c_call" events; the guards below read the
# same pass. Measured calls 6.98/10.44, 1.27/2.77 and 5.55/7.34; bytecodes
# 205.7/313.5, 36.8/88.8 and 158.2/207.5; C calls 0.940/0.947, 0.201/0.304
# and 0.888/0.861. Bytecodes alone once rewarded a min() per skip: it ran 8
# bytecodes fewer than a compare chain, but as a C call it cost about twice
# the time. A ceiling is set about 3% above the count measured when it is
# set.
PER_CYCLE = [
    ("random", 4, dict(n=2000), (7.19, 10.75), (212, 323), (0.968, 0.975)),
    ("traversal", 40, dict(nodes=200, gap=12), (1.31, 2.85), (37.9, 91.5), (0.207, 0.313)),
    ("array", 10, dict(elements=512), (5.72, 7.56), (163, 214), (0.915, 0.887)),
]
PER_CYCLE_IDS = [case[0] for case in PER_CYCLE]
PER_CYCLE_ARGS = "name,latency,params,call_ceilings,bytecode_ceilings,c_call_ceilings"
# bytecode and the builtins a bytecode calls differ between interpreters
# and minor versions
COUNTS_BYTECODES = sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11)


@functools.cache
def per_cycle_counts(name):
    """{topology: (calls, bytecodes, C calls) per cycle} for one PER_CYCLE
    case, each run once under one settrace and one setprofile hook;
    bytecodes and C calls are counted only where COUNTS_BYTECODES holds
    (None elsewhere)."""
    _, latency, params, *_ = next(case for case in PER_CYCLE if case[0] == name)
    counts = {}
    for topology in ("baseline", "alternate"):
        handle = build_system(make_config(topology, latency, name, **params))
        calls = opcodes = c_calls = 0

        def trace(frame, event, arg):
            nonlocal calls, opcodes
            if event == "call":
                calls += 1
                if not COUNTS_BYTECODES:
                    return None
                frame.f_trace_lines, frame.f_trace_opcodes = False, True
            elif event == "opcode":
                opcodes += 1
            return trace

        def profile(frame, event, arg):
            nonlocal c_calls
            if event == "c_call":
                c_calls += 1
        sys.settrace(trace)
        if COUNTS_BYTECODES:
            sys.setprofile(profile)
        try:
            assert handle.system.run_until(lambda: handle.core.done)
        finally:
            sys.setprofile(None)
            sys.settrace(None)
        cycles = handle.system.cycle
        counts[topology] = ((calls / cycles, opcodes / cycles, c_calls / cycles)
                            if COUNTS_BYTECODES else (calls / cycles, None, None))
    return counts


@pytest.mark.parametrize(PER_CYCLE_ARGS, PER_CYCLE, ids=PER_CYCLE_IDS)
def test_python_calls_per_cycle_stay_under_their_ceiling(name, latency, params, call_ceilings,
                                                          bytecode_ceilings, c_call_ceilings):
    # a deterministic guard on the per-cycle path: a call added to every
    # tick, poll or transfer shows up here whatever the host's speed
    counts = per_cycle_counts(name)
    for topology, ceiling in zip(("baseline", "alternate"), call_ceilings):
        assert counts[topology][0] <= ceiling, topology


@pytest.mark.skipif(not COUNTS_BYTECODES,
                    reason="bytecode differs between interpreters and minor versions")
@pytest.mark.parametrize(PER_CYCLE_ARGS, PER_CYCLE, ids=PER_CYCLE_IDS)
def test_bytecodes_per_cycle_stay_under_their_ceiling(name, latency, params, call_ceilings,
                                                      bytecode_ceilings, c_call_ceilings):
    # calls per cycle cannot see work inside a call: a branch added before a
    # waiting state's test, or a store added per channel, shows up here
    counts = per_cycle_counts(name)
    for topology, ceiling in zip(("baseline", "alternate"), bytecode_ceilings):
        assert counts[topology][1] <= ceiling, topology


@pytest.mark.skipif(not COUNTS_BYTECODES,
                    reason="the builtins a bytecode calls differ between interpreters")
@pytest.mark.parametrize(PER_CYCLE_ARGS, PER_CYCLE, ids=PER_CYCLE_IDS)
def test_c_calls_per_cycle_stay_under_their_ceiling(name, latency, params, call_ceilings,
                                                    bytecode_ceilings, c_call_ceilings):
    # neither guard above sees a builtin: a call of min() or of a C type's
    # method is one bytecode and no Python call, yet it can cost as much as
    # a dozen bytecodes
    counts = per_cycle_counts(name)
    for topology, ceiling in zip(("baseline", "alternate"), c_call_ceilings):
        assert counts[topology][2] <= ceiling, topology


# Bytes per token of a random alternate run (n=2000, L=4), traced with
# tracemalloc: what its build allocates, and what the finished run holds
# beyond that. Measured 92.3-94.1 and 8.1-11.7 (the higher ones when the run
# compiles its loop); 107.8 and 79.0 when the core kept a tuple per load and
# _random a fresh int per address. The build's ceiling is about 4% above
# its measure and holds on CPython 3.11 only, since object sizes differ
# between interpreters; the run's is loose enough for any of them.
MEMORY_CASE = ("alternate", 4, "random", dict(n=2000))
BUILD_BYTES_CEILING, RUN_BYTES_CEILING = 98, 32


@functools.cache
def bytes_per_token():
    """(build, run) bytes per token of MEMORY_CASE, one traced pass."""
    topology, latency, name, params = MEMORY_CASE
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        handle = build_system(make_config(topology, latency, name, **params))
        built = tracemalloc.get_traced_memory()[0]
        assert handle.system.run_until(lambda: handle.core.done)
        gc.collect()
        ran = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (built - start) / params["n"], (ran - built) / params["n"]


def test_a_finished_run_holds_few_bytes_per_token():
    # the load log is the one record that grows with the run: 8 bytes a
    # load, where a tuple per load held about 96
    run = bytes_per_token()[1]
    assert run <= RUN_BYTES_CEILING, run


@pytest.mark.skipif(not COUNTS_BYTECODES, reason="object sizes differ between interpreters")
def test_a_random_build_allocates_few_bytes_per_token():
    # one token object each; the addresses are shared ints from the region
    build = bytes_per_token()[0]
    assert build <= BUILD_BYTES_CEILING, build


def test_every_idle_cycles_result_is_an_int_below_one_digit():
    # the compiled run loop compares every idle_cycles() result; CPython
    # specializes a compare of two ints below 2**30 (one digit), never one
    # of an int and a float, and no count above sees the difference
    assert kernel.MAX_CYCLES < kernel.IDLE_FOREVER < 2**30
    runs = []
    for name, latency, params, *_ in PER_CYCLE:
        for topology in ("baseline", "alternate"):
            handle = build_system(make_config(topology, latency, name, **params))
            runs.append((handle.system, lambda core=handle.core: core.done))
    delays = [0, 5, 0, 2, 9, 0, 1, 3]
    testbench, _, sink, _, _ = chase_testbench(4, delays, [4, 0, 7, 1, 0, 12],
                                               PointerChasePrefetcher())
    runs.append((testbench, lambda: len(sink.received) == len(delays)))
    for system, done in runs:
        kinds = {}
        for comp in system.components:
            def recorded(poll=comp.idle_cycles, name=comp.name):
                k = poll()
                kinds.setdefault(name, set()).add(type(k))
                return k
            comp.idle_cycles = recorded  # before the first cycle binds it
        assert system.run_until(done)
        assert kinds == {c.name: {int} for c in system.components}


@pytest.mark.skipif(not COUNTS_BYTECODES,
                    reason="specialized instructions differ between interpreters and versions")
@pytest.mark.parametrize("topology", ["baseline", "alternate"])
def test_every_compare_of_the_run_loop_is_specialized_for_ints(topology):
    # a compare the interpreter cannot specialize (an int against a float)
    # costs about three times a specialized one, with the same bytecodes
    kernel._cycle_code.cache_clear()  # wirings of one shape share one code object
    handle = build_system(make_config(topology, 4, "random", n=2000))
    assert handle.system.run_until(lambda: handle.core.done)
    compares = [i.opname for i in dis.get_instructions(handle.system._run, adaptive=True)
                if i.opname.startswith("COMPARE_OP")]
    assert compares and set(compares) == {"COMPARE_OP_INT_JUMP"}, compares


@pytest.mark.parametrize("latency", [1, 4])
def test_schedule_does_not_depend_on_component_order(latency):
    # the same alternate system added memory-first: only the declared
    # signals order the blocks, so every result must be the same
    want = build_system(make_config("alternate", latency, "random", n=300))
    assert want.system.run_until(lambda: want.core.done)
    work = make_workload("random", n=300)
    core, cache, pf = CoreModel(work.program), BlockingCache(), PointerChasePrefetcher()
    mem = PipelinedMemory(latency)
    mem.load_image(work.segments)
    system = System()
    system.add(mem, pf, cache, core)
    for a, b in ((core, cache), (cache, pf), (pf, mem)):
        system.connect((a, a.down[0]), (b, b.up[0]))
        system.connect((b, b.up[1]), (a, a.down[1]))
    assert system.run_until(lambda: core.done)
    assert system.cycle == want.system.cycle
    assert core.loads == want.core.loads
    assert (cache.stats, pf.stats) == (want.cache.stats, want.prefetcher.stats)
    assert mem.store == want.memory.store


@pytest.mark.parametrize("topology", ["baseline", "alternate"])
def test_each_eval_block_runs_once_per_stepped_cycle(topology):
    # a passive component, ticked in each stepped cycle and in no skip,
    # counts the stepped cycles of the same unwatched run
    handle = build_system(make_config(topology, 4, "random", n=200))
    calls = {(c.name, m): 0 for c in handle.system.components for m in c.blocks}

    def counted(comp, block):
        calls[comp.name, block] += 1
    after_each_block(handle.system, counted)
    counter = count_steps(handle.system)
    assert handle.system.run_until(lambda: handle.core.done)
    assert 100 < counter.ticks < handle.system.cycle
    assert calls == dict.fromkeys(calls, counter.ticks)
