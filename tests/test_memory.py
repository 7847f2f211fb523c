"""Pipelined memory: latency, inelastic stalls, ordering, image load and dump."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasesim import (ConfigurationError, CoreModel, MemRequest, MsgKind,
                      PipelinedMemory, System, build_testbench)
from chasesim.memory import dump_image

from conftest import raised_optimized, rd, run_to_responses, wr_line

pytestmark = pytest.mark.usefixtures("audit_blocks")


LINE_A = bytes(range(16))
LINE_B = bytes(range(16, 32))


def test_latency_zero_rejected():
    with pytest.raises(ConfigurationError):
        PipelinedMemory(0)


@pytest.mark.parametrize("latency", [1, 2, 40])
def test_latency_accepted(latency):
    assert PipelinedMemory(latency).latency == latency


def test_load_image_and_default_zero():
    mem = PipelinedMemory(1)
    mem.load_image([(0x1000, LINE_A)])
    assert mem.peek_line(0x1000) == LINE_A
    assert mem.peek_line(0x1008) == LINE_A  # same line
    assert mem.peek_line(0x2000) == bytes(16)  # untouched => zero


def test_load_image_overlap_later_wins():
    mem = PipelinedMemory(1)
    mem.load_image([(0x1000, LINE_A), (0x1000, LINE_B)])
    assert mem.peek_line(0x1000) == LINE_B


def test_load_image_rejects_a_misaligned_segment():
    with pytest.raises(ConfigurationError, match="^segment address misaligned: 0x1002$"):
        PipelinedMemory(1).load_image([(0x1002, LINE_A)])


def test_load_image_partial_lines():
    mem = PipelinedMemory(1)
    mem.load_image([(0x1008, b"\xAA" * 12)])  # spans two lines
    assert mem.peek_line(0x1000) == bytes(8) + b"\xAA" * 8
    assert mem.peek_line(0x1010) == b"\xAA" * 4 + bytes(12)


segments = st.lists(st.tuples(
    st.integers(0, 24).map(lambda w: 0x1000 + 4 * w),  # word-aligned, overlapping
    st.binary(max_size=72).flatmap(lambda b: st.sampled_from([b, bytearray(b)]))),
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(segments)
def test_load_image_matches_a_byte_at_a_time_reference(segments):
    mem = PipelinedMemory(1)
    mem.load_image(segments)
    ref = {}  # byte address -> byte; later segments overwrite earlier ones
    for addr, data in segments:
        for i, b in enumerate(data):
            ref[addr + i] = b
    expected = {base: bytes(ref.get(base + i, 0) for i in range(16))
                for base in {a & ~15 for a in ref}}
    assert mem.store == expected
    assert all(type(line) is bytes and len(line) == 16 for line in mem.store.values())


@pytest.mark.parametrize("latency", [1, 2, 5, 40])
def test_response_exactly_latency_after_accept(latency):
    sys_, src, sink, _ = build_testbench(
        latency, [rd(0x1000)], segments=[(0x1000, LINE_A)])
    run_to_responses(sys_, sink, 1)
    accept_cycle = src.log[0][0]
    resp_cycle, resp = sink.received[0]
    assert resp_cycle - accept_cycle == latency
    assert resp.data == LINE_A
    assert resp.hit is False


def test_back_to_back_pipelining():
    sys_, src, sink, _ = build_testbench(
        5, [rd(0x1000), rd(0x2000)],
        segments=[(0x1000, LINE_A), (0x2000, LINE_B)])
    run_to_responses(sys_, sink, 2)
    accepts = [c for c, _ in src.log]
    resps = [c for c, _ in sink.received]
    assert accepts == [0, 1]
    assert resps == [5, 6]
    assert [r.data for _, r in sink.received] == [LINE_A, LINE_B]


def test_inelastic_stall_shifts_everything():
    # sink not ready until cycle 8: the head response (due cycle 5) stalls
    # 3 cycles and the trailing response shifts with it
    sys_, src, sink, _ = build_testbench(
        5, [rd(0x1000), rd(0x2000)], sink_delays=[8])
    run_to_responses(sys_, sink, 2)
    assert [c for c, _ in sink.received] == [8, 9]


def test_stalled_memory_stops_accepting():
    sys_, src, sink, mem = build_testbench(
        2, [rd(0x10 * i) for i in range(6)], sink_delays=[4])
    run_to_responses(sys_, sink, 6)
    # during the stall the request port was not ready, so acceptance cycles
    # have a gap rather than being consecutive
    accepts = [c for c, _ in src.log]
    assert accepts[0] == 0 and accepts[-1] > 5
    assert len(mem.request_log) == 6


def test_read_your_writes():
    line = b"\x11" * 16
    sys_, src, sink, mem = build_testbench(
        4, [wr_line(0x1000, line), rd(0x1000)])
    run_to_responses(sys_, sink, 2)
    assert sink.responses()[0].kind == MsgKind.WRITE
    assert sink.responses()[1].data == line


def test_order_preserved_across_kinds():
    script = [rd(0x1000), wr_line(0x2000, LINE_B), rd(0x2000), rd(0x1000)]
    sys_, src, sink, _ = build_testbench(
        3, script, segments=[(0x1000, LINE_A)])
    run_to_responses(sys_, sink, 4)
    kinds = [r.kind for r in sink.responses()]
    assert kinds == [MsgKind.READ, MsgKind.WRITE, MsgKind.READ, MsgKind.READ]
    assert sink.responses()[2].data == LINE_B


def test_opaque_echoed():
    sys_, src, sink, _ = build_testbench(2, [rd(0x1000, opaque=1)])
    run_to_responses(sys_, sink, 1)
    assert sink.responses()[0].opaque == 1


def test_occupancy_never_exceeds_latency():
    latency = 4
    sys_, src, sink, mem = build_testbench(
        latency, [rd(0x10 * i) for i in range(12)], sink_delays=[0, 2, 0, 3])
    max_occ = 0
    while len(sink.received) < 12:
        sys_.step()
        max_occ = max(max_occ, len(mem.pipeline))
        assert sys_.cycle < 1000
    assert max_occ <= latency


def test_overdue_response_raises():
    # eval sends the head response only on its due cycle: one behind the
    # pipeline clock would never go, and run_until would step to its budget.
    # run_until consults memory only when every component before it reports
    # idle cycles, which a done core does
    core, mem = CoreModel([]), PipelinedMemory(4)
    system = System()
    system.chain(core, mem)
    mem.pipeline.append((-3, rd(0x1000)))
    with pytest.raises(RuntimeError, match="^memory response overdue by 3 cycles$"):
        system.run_until(lambda: False)


@pytest.mark.parametrize("delay", [0, 5])
def test_overdue_response_raises_in_a_testbench(delay):
    # the sink and a source waiting to offer report idle cycles too, and the
    # poll reaches memory before a source that offers, so a directed test
    # meets the same check at once instead of stepping
    sys_, src, sink, mem = build_testbench(4, [(rd(0x1000), delay)])
    mem.pipeline.append((-3, rd(0x1000)))
    with pytest.raises(RuntimeError, match="^memory response overdue by 3 cycles$"):
        sys_.run_until(lambda: False, max_cycles=100)
    assert sys_.cycle == 0 and src.log == []


def test_partial_write_rejected():
    sys_, src, sink, _ = build_testbench(
        1, [MemRequest(MsgKind.WRITE, 0x1000, data=b"\x01\x00\x00\x00")])
    with pytest.raises(ValueError, match="full-line"):
        run_to_responses(sys_, sink, 1)


def test_partial_write_rejected_under_optimize():
    assert raised_optimized("""
        from chasesim import MemRequest, MsgKind, build_testbench
        sys_, src, sink, _ = build_testbench(
            1, [MemRequest(MsgKind.WRITE, 0x1000, data=bytes(4))])
        sys_.run_until(lambda: sink.received, 100)
    """) == "ValueError: memory writes must be full-line, got 4 bytes for 0x1000"


def test_poke_line_rejects_partial_line():
    mem = PipelinedMemory(1)
    with pytest.raises(ValueError, match="needs 16 bytes, got 4"):
        mem.poke_line(0x1000, bytes(4))
    assert mem.store == {}


def test_dump_empty_store():
    assert dump_image({}) == ""
