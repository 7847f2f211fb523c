"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria mix directed latency checks (single-cycle hits, +1 miss overhead),
oracle equivalence against flat replay, and qualitative performance trends
(latency sweep shape, non-pointer degradation bounds, spatial locality,
small-structure pathology).
"""

import io
import sys
import time
from contextlib import contextmanager

import pytest

from chasesim import (BlockingCache, MemRequest, MsgKind,
                      PointerChasePrefetcher, build_system, build_testbench,
                      make_config, replay_program, PREFETCH_OPAQUE)
from chasesim.harness import report, sweep
from chasesim.messages import set_word_in_line

from conftest import run_to_responses


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num:02d} {name}: FAIL", file=sys.__stdout__)
        raise
    print(f"[acceptance] {num:02d} {name}: PASS", file=sys.__stdout__)


def run_handle(config):
    handle = build_system(config)
    assert handle.system.run_until(lambda: handle.core.done, config.max_cycles)
    handle.cache.flush_dirty(handle.memory.poke_line)
    return handle


def cycles_of(config):
    stats_handle = run_handle(config)
    return stats_handle.system.cycle


LATENCIES = (2, 5, 10, 20, 40)


def test_01_coherence_oracle():
    with criterion(1, "randomized streams match flat-replay oracle"):
        start = time.monotonic()
        for seed in (1, 2, 3):
            cfg = make_config("alternate", 4, "random", n=10_000, seed=seed)
            handle = run_handle(cfg)
            loads, flat = replay_program(handle.workload.program,
                                         handle.workload.segments)
            assert handle.core.loads == loads
            expect = flat.lines()
            for addr in set(expect) | set(handle.memory.store):
                assert handle.memory.peek_line(addr) == expect.get(addr, bytes(16))
        assert time.monotonic() - start < 10.0


def test_02_single_cycle_prefetcher_hit():
    with criterion(2, "prefetcher buffer hit serviced in a single cycle"):
        line = bytes(range(16))
        sys_, src, sink, pf, mem = build_testbench(
            5, [MemRequest(MsgKind.INIT, 0x1000, data=line),
                MemRequest(MsgKind.READ, 0x1004)], PointerChasePrefetcher())
        run_to_responses(sys_, sink, 2)
        accept = src.log[1][0]
        resp_cycle, resp = sink.received[1]
        assert resp_cycle - accept == 1
        assert resp.hit is True and resp.data == line


def test_03_miss_overhead_exactly_one_cycle():
    with criterion(3, "read-miss overhead is exactly +1 cycle at all latencies"):
        for latency in LATENCIES:
            times = {}
            for topo in ("baseline", "alternate"):
                stages = [BlockingCache()]
                if topo == "alternate":
                    stages.append(PointerChasePrefetcher())
                sys_, src, sink, *_ = build_testbench(
                    latency, [MemRequest(MsgKind.READ, 0x1000)], *stages,
                    segments=[(0x1000, bytes(range(16)))])
                run_to_responses(sys_, sink, 1)
                times[topo] = sink.received[0][0] - src.log[0][0]
            assert times["alternate"] - times["baseline"] == 1, latency


def test_04_write_invalidation():
    with criterion(4, "write invalidates prefetched line; read sees new data"):
        ptr = 0x2020
        new_line = b"\x42" * 16
        script = [
            MemRequest(MsgKind.INIT, 0x1000, data=set_word_in_line(bytes(16), 0, ptr)),
            MemRequest(MsgKind.READCP, 0x1000),
            (MemRequest(MsgKind.WRITE, ptr, data=new_line), 15),
            (MemRequest(MsgKind.READ, ptr), 2),
        ]
        sys_, src, sink, pf, mem = build_testbench(
            5, script, PointerChasePrefetcher(),
            segments=[(ptr & ~0xF, bytes(range(16, 32)))])
        run_to_responses(sys_, sink, 4)
        assert pf.stats.prefetch_fills == 1  # the line was prefetched first
        final = sink.responses()[3]
        assert final.hit is False            # the read is a prefetcher miss
        assert final.data == new_line        # and returns the written value
        assert pf.stats.writes == 1


def test_05_duplicate_suppression():
    with criterion(5, "demand during in-flight prefetch sends no duplicate"):
        ptr = 0x2020
        payload = bytes(range(16, 32))
        trace = io.StringIO()
        script = [
            MemRequest(MsgKind.INIT, 0x1000, data=set_word_in_line(bytes(16), 0, ptr)),
            MemRequest(MsgKind.READCP, 0x1000),
            MemRequest(MsgKind.READ, ptr),
        ]
        sys_, src, sink, pf, mem = build_testbench(
            10, script, PointerChasePrefetcher(),
            segments=[(ptr & ~0xF, payload)], trace=trace)
        run_to_responses(sys_, sink, 3)
        line_reqs = [r for r in mem.request_log if r.addr == (ptr & ~0xF)]
        assert len(line_reqs) == 1
        assert line_reqs[0].opaque == PREFETCH_OPAQUE
        assert "pf:DI" in trace.getvalue()   # the reader waited in data-invalid
        final = sink.responses()[2]
        assert final.hit is True and final.data == payload


def test_06_hanoi_pathology():
    with criterion(6, "6-disk hanoi: exactly 6 read-cp hits and a slowdown"):
        handle = run_handle(make_config("alternate", 5, "hanoi", disks=6))
        assert handle.prefetcher.stats.readcp_hits == 6
        alt_cycles = handle.system.cycle
        base_cycles = cycles_of(make_config("baseline", 5, "hanoi", disks=6))
        assert alt_cycles > base_cycles


def test_07_latency_sweep_trend():
    with criterion(7, "traversal improvement positive, interior peak >= 15%"):
        improvements = {}
        for latency in LATENCIES:
            start = time.monotonic()
            base = cycles_of(make_config("baseline", latency, "traversal",
                                         nodes=64, gap=12))
            alt = cycles_of(make_config("alternate", latency, "traversal",
                                        nodes=64, gap=12))
            improvements[latency] = (base - alt) / base * 100.0
            assert time.monotonic() - start < 5.0
        assert all(improvements[l] > 0 for l in LATENCIES if l >= 10)
        peak = max(LATENCIES, key=lambda l: improvements[l])
        assert peak not in (LATENCIES[0], LATENCIES[-1])  # interior peak
        assert improvements[peak] >= 15.0
        assert improvements[40] < improvements[peak]      # declines at 40


def test_08_non_pointer_degradation():
    with criterion(8, "array kernel degradation <= 6% at L=2, <= 2% at L=40"):
        bounds = {2: 6.0, 40: 2.0}
        for latency, bound in bounds.items():
            base = cycles_of(make_config("baseline", latency, "array"))
            alt = cycles_of(make_config("alternate", latency, "array"))
            degradation = (alt - base) / base * 100.0
            assert degradation <= bound, (latency, degradation)


def test_09_spatial_locality_trend():
    with criterion(9, "1 node/line speedup strictly exceeds 2 nodes/line"):
        for latency in (10, 20, 40):
            speedup = {}
            for npl in (1, 2):
                base = cycles_of(make_config("baseline", latency, "traversal",
                                             nodes=64, nodes_per_line=npl, gap=12))
                alt = cycles_of(make_config("alternate", latency, "traversal",
                                            nodes=64, nodes_per_line=npl, gap=12))
                speedup[npl] = base / alt
            assert speedup[1] > speedup[2], latency


def test_10_drop_policy():
    with criterion(10, "overlapping prefetch opportunities drop, no deadlock"):
        ptr_line = lambda p: set_word_in_line(bytes(16), 0, p)
        script = [
            MemRequest(MsgKind.INIT, 0x1000, data=ptr_line(0x2020)),
            MemRequest(MsgKind.INIT, 0x1010, data=ptr_line(0x2030)),
            MemRequest(MsgKind.READCP, 0x1000),
            MemRequest(MsgKind.READCP, 0x1010),
        ]
        sys_, src, sink, pf, mem = build_testbench(30, script, PointerChasePrefetcher())
        run_to_responses(sys_, sink, 4)
        for _ in range(80):
            sys_.step()
        assert pf.stats.prefetches_dropped >= 1
        assert not pf.buffer.busy
        s = pf.stats
        assert s.prefetches_issued == s.prefetch_fills + s.prefetches_dropped


def test_11_deterministic_csv():
    with criterion(11, "repeated sweeps render byte-identical CSV"):
        def once():
            configs = [make_config(t, lat, "traversal", nodes=32, gap=12)
                       for lat in (5, 20) for t in ("baseline", "alternate")]
            return report(sweep(configs), "csv")

        first, second = once(), once()
        assert first == second
        assert len(first.splitlines()) == 5
