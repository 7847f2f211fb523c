"""Channel handshake and cycle-loop semantics."""

import time

import pytest

from chasesim import (BlockingCache, Compute, ConfigurationError, CoreModel,
                      MemRequest, MsgKind, PipelinedMemory, System, TestSink,
                      TestSource)
from conftest import count_steps


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


@pytest.mark.parametrize("budget,steps_taken", [(3_000_000, 0), (10_000_000, 1)])
def test_run_until_jumps_idle_cycles_to_the_budget(budget, steps_taken):
    # a core computing for 5M cycles, then done: every cycle but the one that
    # ends the compute is idle, so a never-true predicate reaches the budget
    # at once instead of stepping through it
    system = System()
    core = CoreModel([Compute(5_000_000)])
    system.chain(core, BlockingCache(), PipelinedMemory(4))
    steps = count_steps(system)
    t0 = time.perf_counter()
    assert system.run_until(lambda: False, max_cycles=budget) is False
    assert time.perf_counter() - t0 < 1.0
    assert system.cycle == budget
    assert steps[0] == steps_taken


def test_run_until_predicate_sees_the_exact_cycle():
    system = System()
    core = CoreModel([Compute(5_000_000)])
    system.chain(core, BlockingCache(), PipelinedMemory(4))
    assert system.run_until(lambda: False, max_cycles=3_000_000) is False
    assert system.run_until(lambda: core.done)
    assert system.cycle == 5_000_000  # one compute tick per cycle


def test_channel_conservation():
    # every message offered by the source is observed exactly once at the sink
    script = [(req(0x10 * i), i % 3) for i in range(20)]
    sys_, src, sink, ch = wire_source_to_sink(script, sink_delays=[2, 0, 1] * 7)
    assert sys_.run_until(lambda: len(sink.received) == 20, 500)
    assert ch.transfers == 20
    assert [r for _, r in sink.received] == [r for r, _ in src.script]


def test_trace_lines_one_per_cycle(tmp_path):
    import io

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
