"""Pointer-chase prefetcher: directed timing, prefetch issue, invalidation,
duplicate suppression, drop behavior, a property over random streams with
sink delays, and one that at most one entry, the buffer's line, is pending."""

import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from chasesim import (Channel, MemRequest, MemResponse, MsgKind,
                      PointerChasePrefetcher, build_system, build_testbench,
                      make_config, PREFETCH_OPAQUE, DEMAND_OPAQUE)
from chasesim.messages import (LINE_BYTES, PREFETCH_GEOMETRY, WORD_BYTES,
                               set_word_in_line, split_address)
from chasesim.kernel import IDLE_FOREVER
from chasesim.prefetcher import (BUFFER_TO_MEM, TAG_CHECK, WAIT_DATA_INVALID,
                                 PrefetchEntry)
from golden.make_traces import SMALL

from conftest import chase_testbench, cp, rd, run_to_responses, wr_line

pytestmark = pytest.mark.usefixtures("audit_blocks")

# pf index bits are addr[5:4]: 0x1000->0, 0x1010->1, 0x2020->2, 0x2030->3
ADDR_A = 0x1000
ADDR_B = 0x1010
PTR_P = 0x2020
PTR_Q = 0x2030

PAYLOAD_P = bytes(range(16, 32))
PAYLOAD_Q = bytes(range(32, 48))


def line_with_ptr(ptr, offset=0):
    return set_word_in_line(bytes(16), offset, ptr)


def init(addr, data):
    return MemRequest(MsgKind.INIT, addr, data=data)


def prefetch_requests(mem):
    return [r for r in mem.request_log if r.opaque == PREFETCH_OPAQUE]


def drain(sys_, pf, cycles=80):
    """Run long enough for any issued prefetch to reach memory and fill."""
    for _ in range(cycles):
        sys_.step()
    assert not pf.buffer.busy


def probe_hit(pf, addr):
    """_probe's hit for addr, split as an accept splits it."""
    tag, idx, _ = split_address(addr, PREFETCH_GEOMETRY)
    return pf._probe(tag, idx)[0]


def test_probe_direct():
    pf = PointerChasePrefetcher()
    assert split_address(ADDR_A, PREFETCH_GEOMETRY)[1:] == (0, 0)
    assert probe_hit(pf, ADDR_A) is False
    e = pf.entries[0]
    e.tag, e.tag_valid, e.data_valid = ADDR_A >> 6, True, True
    assert probe_hit(pf, ADDR_A) is True
    assert probe_hit(pf, ADDR_A + 8) is True  # same line, other word
    assert split_address(ADDR_A + 8, PREFETCH_GEOMETRY)[1:] == (0, 8)
    assert probe_hit(pf, ADDR_A + 0x40) is False  # same index, other tag
    # a pending (data-invalid) entry still tag-hits
    e.data_valid = False
    assert probe_hit(pf, ADDR_A) is True


def test_wait_data_invalid_is_idle_until_the_fill_lands():
    # a demand that hit a claimed entry waits in DI; the kernel may skip
    # cycles only while the entry's data is still invalid
    pf = PointerChasePrefetcher()
    pf.entries[0] = PrefetchEntry(tag=ADDR_A >> 6, tag_valid=True,
                                  data_valid=False, fresh=True)
    pf.buffer.next_addr, pf.buffer.busy = ADDR_A, True
    # accept the demand as the IDLE tick does: that splits its address
    pf.cache_req = Channel("cache.req")
    pf.cache_req.send(rd(ADDR_A + 4))
    pf.cache_req.rdy = True
    pf._next_or_idle()
    assert pf.state == TAG_CHECK
    pf.state = WAIT_DATA_INVALID
    assert pf.idle_cycles() == IDLE_FOREVER
    pf._apply_fill(MemResponse(MsgKind.READ, PREFETCH_OPAQUE, PAYLOAD_P))
    assert pf.entries[0].data_valid and pf.idle_cycles() == 0


def test_init_loads_entry_without_memory_traffic():
    sys_, src, sink, pf, mem = build_testbench(
        5, [init(ADDR_A, PAYLOAD_P)], PointerChasePrefetcher())
    run_to_responses(sys_, sink, 1)
    assert sink.responses()[0].kind == MsgKind.INIT
    assert mem.request_log == []
    assert pf.entries[0].data_valid and pf.entries[0].data == PAYLOAD_P


def test_read_hit_is_single_cycle():
    sys_, src, sink, pf, mem = build_testbench(
        5, [init(ADDR_A, PAYLOAD_P), rd(ADDR_A + 4)], PointerChasePrefetcher())
    run_to_responses(sys_, sink, 2)
    accept = src.log[1][0]
    resp_cycle, resp = sink.received[1]
    assert resp_cycle - accept == 1
    assert resp.hit is True
    assert resp.data == PAYLOAD_P
    assert pf.stats.read_hits == 1
    assert mem.request_log == []


@pytest.mark.parametrize("latency", [2, 5, 10, 40])
def test_read_miss_adds_exactly_one_cycle(latency):
    sys_, src, sink, pf, mem = build_testbench(
        latency, [rd(ADDR_A)], PointerChasePrefetcher(), segments=[(ADDR_A, PAYLOAD_P)])
    run_to_responses(sys_, sink, 1)
    accept = src.log[0][0]
    resp_cycle, resp = sink.received[0]
    # tag check costs one cycle; the memory response passes through
    # combinationally on arrival
    assert resp_cycle - accept == latency + 1
    assert resp.hit is False
    assert resp.data == PAYLOAD_P
    assert pf.stats.read_misses == 1


def test_readcp_hit_issues_prefetch():
    sys_, src, sink, pf, mem = build_testbench(
        5, [init(ADDR_A, line_with_ptr(PTR_P)), cp(ADDR_A)], PointerChasePrefetcher(),
        segments=[(PTR_P & ~0xF, PAYLOAD_P)])
    run_to_responses(sys_, sink, 2)
    drain(sys_, pf)
    pfs = prefetch_requests(mem)
    assert len(pfs) == 1
    assert pfs[0].kind == MsgKind.READ
    assert pfs[0].addr == PTR_P & ~0xF  # line-aligned
    assert pf.stats.prefetches_issued == 1
    assert pf.stats.prefetch_fills == 1
    assert pf.entries[2].data == PAYLOAD_P  # PTR_P -> index 2


def test_readcp_miss_prefetches_from_response():
    # the chased line comes from memory; its pointer word (selected by the
    # request's offset bits) still triggers a prefetch
    src_line = line_with_ptr(PTR_P, offset=8)
    sys_, src, sink, pf, mem = build_testbench(
        4, [cp(0x3008)], PointerChasePrefetcher(), segments=[(0x3000, src_line),
                                   (PTR_P & ~0xF, PAYLOAD_P)])
    run_to_responses(sys_, sink, 1)
    drain(sys_, pf)
    assert [(r.kind, r.opaque) for r in mem.request_log] == [
        (MsgKind.READCP, DEMAND_OPAQUE), (MsgKind.READ, PREFETCH_OPAQUE)]
    assert pf.stats.readcp_misses == 1
    assert pf.stats.prefetch_fills == 1


def test_prefetched_line_hits_later_demand():
    sys_, src, sink, pf, mem = build_testbench(
        5, [init(ADDR_A, line_with_ptr(PTR_P)), cp(ADDR_A), (rd(PTR_P), 20), rd(PTR_P)],
        PointerChasePrefetcher(),
        segments=[(PTR_P & ~0xF, PAYLOAD_P)])
    run_to_responses(sys_, sink, 4)
    for resp in sink.responses()[2:]:
        assert resp.hit is True and resp.data == PAYLOAD_P
    assert len(prefetch_requests(mem)) == 1
    # a prefetched line counts as useful on its first demand hit only
    assert pf.stats.read_hits == 2
    assert pf.stats.useful_prefetch_hits == 1


def test_null_pointer_suppresses_prefetch():
    sys_, src, sink, pf, mem = build_testbench(
        5, [init(ADDR_A, line_with_ptr(0)), cp(ADDR_A)], PointerChasePrefetcher())
    run_to_responses(sys_, sink, 2)
    for _ in range(20):
        sys_.step()
    assert prefetch_requests(mem) == []
    assert pf.stats.prefetches_issued == 0
    assert not pf.buffer.busy


def test_plain_read_does_not_prefetch():
    sys_, src, sink, pf, mem = build_testbench(
        4, [rd(0x3000)], PointerChasePrefetcher(),
        segments=[(0x3000, line_with_ptr(PTR_P))])
    run_to_responses(sys_, sink, 1)
    for _ in range(20):
        sys_.step()
    assert prefetch_requests(mem) == []


def test_write_invalidates_matching_entry():
    new_line = b"\x99" * 16
    sys_, src, sink, pf, mem = build_testbench(
        3, [init(ADDR_A, PAYLOAD_P), wr_line(ADDR_A, new_line), rd(ADDR_A)],
        PointerChasePrefetcher())
    run_to_responses(sys_, sink, 3)
    w, r = sink.responses()[1:]
    assert w.kind == MsgKind.WRITE
    # the stale entry is gone: the read misses and fetches the fresh line
    assert r.hit is False
    assert r.data == new_line
    assert pf.stats.writes == 1
    assert pf.stats.read_misses == 1
    assert mem.peek_line(ADDR_A) == new_line


def test_write_to_unrelated_line_keeps_entry():
    new_line = b"\x77" * 16
    sys_, src, sink, pf, mem = build_testbench(
        3, [init(ADDR_A, PAYLOAD_P), wr_line(ADDR_B, new_line), rd(ADDR_A)],
        PointerChasePrefetcher())
    run_to_responses(sys_, sink, 3)
    assert sink.responses()[2].hit is True
    assert sink.responses()[2].data == PAYLOAD_P


def test_demand_waits_on_inflight_fill_without_duplicate():
    # a demand to a line whose prefetch is still in flight waits in the
    # data-invalid state; memory sees exactly one request for that line
    trace = io.StringIO()
    sys_, src, sink, pf, mem = build_testbench(
        10, [init(ADDR_A, line_with_ptr(PTR_P)), cp(ADDR_A), rd(PTR_P)],
        PointerChasePrefetcher(),
        segments=[(PTR_P & ~0xF, PAYLOAD_P)], trace=trace)
    run_to_responses(sys_, sink, 3)
    final = sink.responses()[2]
    assert final.hit is True and final.data == PAYLOAD_P
    line_reqs = [r for r in mem.request_log if r.addr == (PTR_P & ~0xF)]
    assert len(line_reqs) == 1 and line_reqs[0].opaque == PREFETCH_OPAQUE
    assert "pf:DI" in trace.getvalue()
    assert pf.stats.useful_prefetch_hits == 1


@pytest.mark.parametrize("delay", range(9))
def test_demand_fill_race_all_alignments(delay):
    # whatever the relative timing of demand arrival and fill return, the
    # demand gets the correct data from a single memory request
    sys_, src, sink, pf, mem = build_testbench(
        6, [init(ADDR_A, line_with_ptr(PTR_P)), cp(ADDR_A), (rd(PTR_P), delay)],
        PointerChasePrefetcher(),
        segments=[(PTR_P & ~0xF, PAYLOAD_P)])
    run_to_responses(sys_, sink, 3)
    final = sink.responses()[2]
    assert final.hit is True and final.data == PAYLOAD_P
    assert len([r for r in mem.request_log if r.addr == (PTR_P & ~0xF)]) == 1


def test_second_prefetch_dropped_while_busy():
    sys_, src, sink, pf, mem = build_testbench(
        30, [init(ADDR_A, line_with_ptr(PTR_P)),
             init(ADDR_B, line_with_ptr(PTR_Q)),
             cp(ADDR_A), cp(ADDR_B)], PointerChasePrefetcher())
    run_to_responses(sys_, sink, 4)
    drain(sys_, pf)
    assert pf.stats.prefetches_issued == 2
    assert pf.stats.prefetches_dropped == 1
    assert pf.stats.prefetch_fills == 1
    assert len(prefetch_requests(mem)) == 1


def test_invalidated_inflight_fill_is_dropped():
    new_line = b"\x55" * 16
    sys_, src, sink, pf, mem = build_testbench(
        10, [init(ADDR_A, line_with_ptr(PTR_P)), cp(ADDR_A),
             wr_line(PTR_P, new_line), (rd(PTR_P), 25)], PointerChasePrefetcher(),
        segments=[(PTR_P & ~0xF, PAYLOAD_P)])
    run_to_responses(sys_, sink, 4)
    final = sink.responses()[3]
    # the write killed the claimed entry; its fill must not resurrect stale
    # data, so the read misses and sees the written line
    assert final.hit is False
    assert final.data == new_line
    assert pf.stats.prefetches_issued == 1
    assert pf.stats.prefetch_fills == 0
    assert pf.stats.prefetches_dropped == 1
    assert not pf.buffer.busy


def test_stall_mem_when_sink_not_ready():
    trace = io.StringIO()
    sys_, src, sink, pf, mem = build_testbench(
        5, [rd(ADDR_A)], PointerChasePrefetcher(), sink_delays=[15],
        segments=[(ADDR_A, PAYLOAD_P)], trace=trace)
    run_to_responses(sys_, sink, 1)
    assert sink.responses()[0].data == PAYLOAD_P
    assert "pf:SM" in trace.getvalue()


def test_issue_accounting_invariant():
    # issued prefetches are exactly fills + drops once the buffer drains
    sys_, src, sink, pf, mem = build_testbench(
        7, [init(ADDR_A, line_with_ptr(PTR_P)),
            init(ADDR_B, line_with_ptr(PTR_Q)),
            cp(ADDR_A), (cp(ADDR_B), 3), (cp(ADDR_A), 3)], PointerChasePrefetcher(),
        segments=[(PTR_P & ~0xF, PAYLOAD_P), (PTR_Q & ~0xF, PAYLOAD_Q)])
    run_to_responses(sys_, sink, 5)
    drain(sys_, pf)
    s = pf.stats
    assert s.prefetches_issued == s.prefetch_fills + s.prefetches_dropped


def test_fill_with_no_prefetch_outstanding_raises():
    pf = PointerChasePrefetcher()
    with pytest.raises(RuntimeError, match="no prefetch outstanding"):
        pf._apply_fill(MemResponse(MsgKind.READ, PREFETCH_OPAQUE, PAYLOAD_P))


@pytest.mark.parametrize("opaque", [1, 7])
def test_forwarded_demands_carry_the_demand_opaque(opaque):
    # memory's responses are told from prefetch fills by their opaque field,
    # so a demand goes down as a copy tagged DEMAND_OPAQUE, whatever the
    # requester sent, and its response takes back the requester's opaque
    sys_, src, sink, pf, mem = build_testbench(
        4, [rd(ADDR_A, opaque), cp(ADDR_B, opaque)], PointerChasePrefetcher(),
        segments=[(ADDR_A, PAYLOAD_P), (ADDR_B, line_with_ptr(PTR_P))])
    got = run_to_responses(sys_, sink, 2, max_cycles=200)
    assert [(r.kind, r.opaque) for r in got] == [(MsgKind.READ, opaque),
                                                 (MsgKind.READCP, opaque)]
    drain(sys_, pf)
    assert [(r.addr, r.opaque) for r in mem.request_log] == [
        (ADDR_A, DEMAND_OPAQUE), (ADDR_B, DEMAND_OPAQUE), (PTR_P, PREFETCH_OPAQUE)]


STREAM_REGION = 0x1000  # nonzero, so no in-region pointer is null


def line_stream(n, seed, lines):
    """A region of lines whose every word points to a word of the region, a
    script of n READ, READCP and full-line WRITE requests over it, and the
    (kind, data) of each response as a sequential line map predicts it.
    Once a READCP has loaded a pointer, every READ and half of the READCPs go
    to the pointer the last READCP loaded, so prefetched lines are demanded
    again."""
    rng = random.Random(seed)
    words = lines * LINE_BYTES // WORD_BYTES

    def pointer():
        return STREAM_REGION + WORD_BYTES * rng.randrange(words)

    def new_line():
        return b"".join(pointer().to_bytes(WORD_BYTES, "little")
                        for _ in range(LINE_BYTES // WORD_BYTES))

    model = {STREAM_REGION + i * LINE_BYTES: new_line() for i in range(lines)}
    segments = list(model.items())
    script, expected, chased = [], [], None
    for _ in range(n):
        p = rng.random()
        if p < 0.25:
            addr = pointer() & ~(LINE_BYTES - 1)
            model[addr] = new_line()
            script.append(wr_line(addr, model[addr]))
            expected.append((MsgKind.WRITE, b""))
            continue
        addr = chased if chased is not None and p < 0.75 else pointer()
        line = model[addr & ~(LINE_BYTES - 1)]
        if p < 0.5:
            script.append(rd(addr))
            expected.append((MsgKind.READ, line))
        else:
            script.append(cp(addr))
            expected.append((MsgKind.READCP, line))
            offset = addr % LINE_BYTES
            chased = int.from_bytes(line[offset:offset + WORD_BYTES], "little")
    return script, segments, expected


def run_line_stream(latency, delays, script, segments, expected):
    """Run the stream; check its responses and that no prefetch is
    outstanding whenever the prefetcher accepts a demand response (memory
    answers in order and fills are always drained, so an earlier prefetch
    has landed: a busy drop is decided in PUSH_NEXT only). Returns the
    prefetcher, memory and the number of demand responses accepted."""
    sys_, src, sink, pf, mem = build_testbench(
        latency, script, PointerChasePrefetcher(), sink_delays=delays,
        segments=segments)
    tick, demands = pf.tick, [0]

    def checked_tick():
        got = pf.mem_resp.msg if pf.mem_resp.rdy else None
        if got is not None and got.opaque == DEMAND_OPAQUE:
            assert not pf.buffer.busy, sys_.cycle
            demands[0] += 1
        tick()
    pf.tick = checked_tick  # the schedule binds ticks at the first cycle
    # each request may wait out a prefetch and its own memory trip and its
    # sink delay; the largest example (40 requests, latency 20, delays 40)
    # takes at most 1,640 cycles of this 3,520, and a deadlock fails fast
    budget = len(script) * (2 * latency + max(delays, default=0) + 8)
    got = run_to_responses(sys_, sink, len(script), max(budget, 1))
    assert [(r.kind, r.data) for r in got] == expected
    return pf, mem, demands[0]


@given(latency=st.integers(1, 20), seed=st.integers(0, 2**31 - 1),
       n=st.integers(0, 40), lines=st.integers(2, 12),
       delays=st.lists(st.integers(0, 40), max_size=40))
def test_line_streams_with_sink_delays_match_a_line_map(latency, seed, n, lines,
                                                        delays):
    # sink delays are the only way to stall memory: a due response that the
    # sink refuses holds the pipeline, and the prefetcher in STALL_MEM
    run_line_stream(latency, delays, *line_stream(n, seed, lines))


def test_a_delayed_line_stream_stalls_memory():
    pf, mem, demands = run_line_stream(10, [30] * 60, *line_stream(60, 3, 8))
    assert mem.stalls > 0 and demands > 0
    assert pf.stats.read_hits + pf.stats.readcp_hits > 0


def watch_pending_entries(pf):
    """Make each of pf's ticks check, once it has run, that at most one
    entry is claimed but unfilled, and that this is the line at the buffer
    address with its prefetch outstanding or about to issue. Returns a
    one-item list counting the probes that took a fill in the same cycle.
    The schedule binds ticks, so call this before the first cycle."""
    tick, probe, fills = pf.tick, pf._probe, [0]

    def checked_tick():
        tick()
        pending = [i for i, e in enumerate(pf.entries) if e.tag_valid and not e.data_valid]
        assert len(pending) <= 1, pending
        if pending:
            tag, idx, _ = split_address(pf.buffer.next_addr, PREFETCH_GEOMETRY)
            assert pending == [idx] and pf.entries[idx].tag == tag
            assert pf.buffer.busy or pf.state == BUFFER_TO_MEM

    def counted_probe(tag, idx, fill=None):
        hit, line, dvalid = probe(tag, idx, fill)
        fills[0] += dvalid and not pf.entries[idx].data_valid
        return hit, line, dvalid

    pf.tick, pf._probe = checked_tick, counted_probe
    return fills


def test_the_one_pending_entry_is_the_buffer_line():
    # the same-cycle fill path of _probe hands a fill to any pending entry
    # that hits; that is right only while the one pending entry is the line
    # the outstanding prefetch fetches. Line streams also drop prefetches
    # while one is outstanding, which chains and the full systems never do
    fills, drops = [], []

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["chain", "stream", "traversal", "insertion",
                                 "hashtable"]),
           latency=st.integers(1, 12), seed=st.integers(1, 1000),
           src_delays=st.lists(st.integers(0, 12), min_size=1, max_size=8),
           sink_delays=st.lists(st.integers(0, 12), max_size=8))
    @example(name="chain", latency=6, seed=1, src_delays=[0, 0, 3], sink_delays=[])
    @example(name="stream", latency=6, seed=1, src_delays=[0], sink_delays=[])
    def run(name, latency, seed, src_delays, sink_delays):
        if name == "chain":
            sys_, src, sink, pf, _ = chase_testbench(latency, src_delays, sink_delays,
                                                     PointerChasePrefetcher())
        elif name == "stream":
            script, segments, _ = line_stream(16, seed, 4)
            sys_, src, sink, pf, _ = build_testbench(
                latency, script, PointerChasePrefetcher(), sink_delays=sink_delays,
                segments=segments)
        else:
            handle = build_system(make_config("alternate", latency, name, seed=seed,
                                              **SMALL[name]))
            sys_, pf = handle.system, handle.prefetcher
        same_cycle = watch_pending_entries(pf)
        if name in ("chain", "stream"):
            run_to_responses(sys_, sink, len(src.script))
        else:
            assert sys_.run_until(lambda: handle.core.done)
        fills.append(same_cycle[0])
        drops.append(pf.stats.prefetches_dropped)

    run()
    assert any(fills), "no run took a fill in the same cycle"
    assert any(drops), "no run dropped a prefetch"
