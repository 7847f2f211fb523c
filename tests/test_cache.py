"""Blocking cache: hit/miss timing, allocation policy, eviction, transparency."""

import textwrap

import pytest

from chasesim import (BlockingCache, MemRequest, MsgKind, build_testbench,
                      make_workload)
from chasesim.cache import IDLE
from chasesim.messages import line_base, word_bytes

from conftest import cp, raised_optimized, rd, run_against_oracle, run_to_responses

pytestmark = pytest.mark.usefixtures("audit_blocks")

LINE_A = bytes(range(1, 17))


def wr(addr, value):
    return MemRequest(MsgKind.WRITE, addr, data=word_bytes(value))


def test_read_miss_then_hit_timing():
    latency = 5
    sys_, src, sink, cache, mem = build_testbench(
        latency, [rd(0x1000), rd(0x1004)], BlockingCache(),
        segments=[(0x1000, LINE_A)])
    run_to_responses(sys_, sink, 2)
    (a0, _), (a1, _) = src.log
    (r0, resp0), (r1, resp1) = sink.received
    # miss service time is latency + 4 (tag check, refill request, refill
    # update, data access around the memory round trip)
    assert r0 - a0 == latency + 4
    assert resp0.hit is False
    # hit: accept at t, response at t+2
    assert r1 - a1 == 2
    assert resp1.hit is True
    assert resp0.data == LINE_A[0:4]
    assert resp1.data == LINE_A[4:8]
    assert cache.stats.read_hits == 1 and cache.stats.read_misses == 1


@pytest.mark.parametrize("latency", [2, 10, 40])
def test_miss_service_time_scales_with_latency(latency):
    sys_, src, sink, cache, mem = build_testbench(
        latency, [rd(0x1000)], BlockingCache(), segments=[(0x1000, LINE_A)])
    run_to_responses(sys_, sink, 1)
    assert sink.received[0][0] - src.log[0][0] == latency + 4


def test_write_miss_allocates_with_read_refill():
    sys_, src, sink, cache, mem = build_testbench(
        3, [wr(0x1000, 0xABCD), rd(0x1000)], BlockingCache())
    run_to_responses(sys_, sink, 2)
    # refill for a write miss goes downstream as a plain read
    assert [r.kind for r in mem.request_log] == [MsgKind.READ]
    w, r = sink.responses()
    assert w.kind == MsgKind.WRITE and w.hit is False
    assert r.hit is True and int.from_bytes(r.data, "little") == 0xABCD
    assert cache.stats.write_misses == 1 and cache.stats.read_hits == 1


def test_readcp_kind_and_offset_preserved_downstream():
    sys_, src, sink, cache, mem = build_testbench(
        3, [cp(0x1008)], BlockingCache(), segments=[(0x1000, LINE_A)])
    run_to_responses(sys_, sink, 1)
    assert len(mem.request_log) == 1
    downstream = mem.request_log[0]
    assert downstream.kind == MsgKind.READCP
    assert downstream.addr == 0x1008  # offset bits survive for the prefetcher
    assert cache.stats.readcp_misses == 1


def test_dirty_eviction_writes_full_victim_line():
    # 0x1000 and 0x2000 share cache index 0 but differ in tag
    sys_, src, sink, cache, mem = build_testbench(
        3, [wr(0x1004, 0x5555), rd(0x2000)], BlockingCache(),
        segments=[(0x1000, LINE_A)])
    run_to_responses(sys_, sink, 2)
    kinds = [r.kind for r in mem.request_log]
    assert kinds == [MsgKind.READ, MsgKind.WRITE, MsgKind.READ]
    evict = mem.request_log[1]
    assert evict.addr == 0x1000
    assert len(evict.data) == 16
    assert int.from_bytes(evict.data[4:8], "little") == 0x5555  # victim carries the write
    assert cache.stats.evictions == 1
    assert mem.peek_line(0x1000)[4:8] == word_bytes(0x5555)


def test_clean_eviction_skips_writeback():
    sys_, src, sink, cache, mem = build_testbench(
        3, [rd(0x1000), rd(0x2000)], BlockingCache(), segments=[(0x1000, LINE_A)])
    run_to_responses(sys_, sink, 2)
    assert [r.kind for r in mem.request_log] == [MsgKind.READ, MsgKind.READ]
    assert cache.stats.evictions == 0


def test_direct_mapped_conflict_never_hits():
    script = [rd(0x1000), rd(0x2000), rd(0x1000), rd(0x2000)]
    sys_, src, sink, cache, mem = build_testbench(2, script, BlockingCache())
    run_to_responses(sys_, sink, 4)
    assert cache.stats.read_misses == 4
    assert cache.stats.read_hits == 0


@pytest.mark.parametrize("make", [lambda i: rd(0x100 + 4 * i),
                                  lambda i: wr(0x100 + 4 * i, 0xA0 + i)],
                         ids=["read", "write"])
def test_a_refusing_sink_still_gets_every_response(make):
    # the sink refuses for 7, 3 and 9 cycles: the cache must hold each
    # response until the sink takes it, not drop it on the cycle it asserts it
    script = [make(i) for i in range(6)]
    sys_, src, sink, cache, mem = build_testbench(
        5, script, BlockingCache(), sink_delays=[0, 7, 0, 3, 0, 9],
        segments=[(0x100, bytes(range(32)))])
    assert sys_.run_until(lambda: len(sink.received) == 6, 45)
    got = sink.responses()
    assert [r.kind for r in got] == [r.kind for r in script]
    if script[0].kind == MsgKind.READ:
        assert [r.data for r in got] == [bytes(range(4 * i, 4 * i + 4)) for i in range(6)]
    assert cache.state == IDLE


def test_blocking_one_outstanding_miss():
    latency = 10
    sys_, src, sink, cache, mem = build_testbench(
        latency, [rd(0x1000), rd(0x2000)], BlockingCache())
    run_to_responses(sys_, sink, 2)
    first_resp = sink.received[0][0]
    second_accept = src.log[1][0]
    assert second_accept > first_resp  # no overlap while blocked


def test_flush_dirty_counts():
    out = {}
    cache_sys = build_testbench(2, [], BlockingCache())
    cache = cache_sys[3]
    assert cache.flush_dirty(out.__setitem__) == 0

    sys_, src, sink, cache, mem = build_testbench(
        2, [wr(0x1000, 1)] + [wr(0x10 * i, i) for i in range(16)], BlockingCache())
    run_to_responses(sys_, sink, 17)
    assert cache.state == IDLE
    flushed = {}
    assert cache.flush_dirty(lambda a, d: flushed.__setitem__(a, d)) == 16
    assert line_base(0x1000) not in flushed  # 0x1000 was evicted by 0x000
    assert flushed[0x0000][0:4] == word_bytes(0)
    # second flush is a no-op
    assert cache.flush_dirty(lambda a, d: None) == 0


BUSY_FLUSH = """
    from chasesim import BlockingCache, MemRequest, MsgKind, build_testbench
    sys_, src, sink, cache, mem = build_testbench(
        10, [MemRequest(MsgKind.READ, 0x1000)], BlockingCache())
    for _ in range(3):
        sys_.step()  # accept, tag check, refill request: now waiting
    cache.flush_dirty(lambda addr, data: None)
"""


def test_flush_on_busy_cache_raises():
    with pytest.raises(RuntimeError, match="idle cache, not RW"):
        exec(textwrap.dedent(BUSY_FLUSH), {})
    assert raised_optimized(BUSY_FLUSH) == (
        "RuntimeError: flush requires an idle cache, not RW")


def test_functional_transparency_against_flat_replay():
    # a randomized token stream through core+cache+memory must match the
    # flat-memory oracle in both load values and the final image
    w = make_workload("random", seed=7, n=2000)
    run_against_oracle("baseline", w.program, w.segments, 3)
