"""Direct-mapped blocking cache, write-back write-allocate.

16 lines of 16 bytes (256 B total). Services one core request at a time; on
a miss the original request kind is preserved downstream (write misses
refill with a plain read, read-cp misses stay read-cp so the prefetcher
sees the offset bits).
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import IDLE_FOREVER, Component
from .messages import (CACHE_GEOMETRY, READ, READCP, WRITE, ZERO_LINE,
                       MemRequest, MemResponse, join_address, split_address)


@dataclass
class CacheLine:
    tag: int = 0
    valid: bool = False
    dirty: bool = False
    data: bytes = ZERO_LINE


# FSM states: each is its trace letter
(IDLE, TAG_CHECK, READ_DATA, WRITE_DATA, EVICT_REQ, EVICT_WAIT, REFILL_REQ,
 REFILL_WAIT, REFILL_UPDATE) = "I", "TC", "RD", "WD", "ER", "EW", "RR", "RW", "RU"

# states whose tick does nothing while nothing arrives, and the states that
# assert no val and act at the end of the cycle
_WAITING = (IDLE, EVICT_WAIT, REFILL_WAIT)
_ONE_CYCLE = (TAG_CHECK, REFILL_UPDATE)


@dataclass
class CacheStats:
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    readcp_hits: int = 0
    readcp_misses: int = 0
    evictions: int = 0


class BlockingCache(Component):
    name = "cache"
    up = ("core_req", "core_resp")
    down = ("mem_req", "mem_resp")
    blocks = {"eval": ((), ("core_req.rdy", "core_resp.val", "mem_req.val", "mem_resp.rdy"))}

    def __init__(self):
        self.lines = [CacheLine() for _ in range(CACHE_GEOMETRY.num_indices)]
        self.state = IDLE
        self.req: MemRequest | None = None
        self.tag = self.idx = self.off = 0  # self.req's address, split on accept
        self.was_hit = False
        self.stats = CacheStats()

    def eval(self):
        st = self.state
        if st == REFILL_WAIT or st == EVICT_WAIT:  # waiting states first: the most common
            self.core_req.rdy, self.mem_resp.rdy = False, True
            return
        if st == IDLE:
            self.core_req.rdy, self.mem_resp.rdy = True, False
            return
        self.core_req.rdy = self.mem_resp.rdy = False
        if st == READ_DATA:
            off = self.off
            word = self.lines[self.idx].data[off:off + 4]
            self.core_resp.send(
                MemResponse(self.req.kind, self.req.opaque, word, self.was_hit))
        elif st == WRITE_DATA:
            self.core_resp.send(MemResponse(WRITE, self.req.opaque, b"", self.was_hit))
        elif st == EVICT_REQ:
            # the victim stays in its line until the refill replaces it
            idx = self.idx
            victim = self.lines[idx]
            self.mem_req.send(MemRequest(
                WRITE, join_address(victim.tag, idx, 0, CACHE_GEOMETRY), 0, victim.data))
        elif st == REFILL_REQ:
            kind = READCP if self.req.kind == READCP else READ
            self.mem_req.send(MemRequest(kind, self.req.addr))

    def tick(self):
        st = self.state
        if st == REFILL_WAIT:
            r = self.mem_resp.msg if self.mem_resp.rdy else None
            if r is not None:
                self.lines[self.idx] = CacheLine(self.tag, True, False, r.data)  # valid, clean
                self.state = REFILL_UPDATE
        elif st == IDLE:
            r = self.core_req.msg if self.core_req.rdy else None
            if r is not None:
                self.req = r
                self.tag, self.idx, self.off = split_address(r.addr, CACHE_GEOMETRY)
                self.state = TAG_CHECK
        elif st == EVICT_WAIT:
            if self.mem_resp.rdy and self.mem_resp.msg is not None:
                self.state = REFILL_REQ
        elif st == TAG_CHECK:
            self._tag_check()
        elif st == EVICT_REQ:
            if self.mem_req.val and self.mem_req.rdy:
                self.stats.evictions += 1
                self.state = EVICT_WAIT
        elif st == REFILL_REQ:
            if self.mem_req.val and self.mem_req.rdy:
                self.state = REFILL_WAIT
        elif st == REFILL_UPDATE:
            self.state = WRITE_DATA if self.req.kind == WRITE else READ_DATA
        elif st == READ_DATA:
            if self.core_resp.val and self.core_resp.rdy:
                self.state = IDLE
        elif st == WRITE_DATA:
            if self.core_resp.val and self.core_resp.rdy:
                # the core's write data is one word; off is word-aligned
                line, off = self.lines[self.idx], self.off
                line.data = line.data[:off] + self.req.data[:4] + line.data[off + 4:]
                line.dirty = True
                self.state = IDLE

    def _tag_check(self):
        line = self.lines[self.idx]
        hit = line.valid and line.tag == self.tag
        self.was_hit = hit
        s = self.stats
        kind = self.req.kind
        if kind == READ:
            s.read_hits += hit
            s.read_misses += not hit
        elif kind == WRITE:
            s.write_hits += hit
            s.write_misses += not hit
        elif kind == READCP:
            s.readcp_hits += hit
            s.readcp_misses += not hit
        if hit:
            self.state = WRITE_DATA if kind == WRITE else READ_DATA
        elif line.valid and line.dirty:
            self.state = EVICT_REQ
        else:
            self.state = REFILL_REQ

    def flush_dirty(self, write_line) -> int:
        """Write all dirty lines back via write_line(addr, data); clear dirty.

        Zero-time drain for end-of-run image comparison; cache must be Idle.
        """
        if self.state != IDLE:
            raise RuntimeError(f"flush requires an idle cache, not {self.state}")
        count = 0
        for idx, line in enumerate(self.lines):
            if line.valid and line.dirty:
                write_line(join_address(line.tag, idx, 0, CACHE_GEOMETRY), line.data)
                line.dirty = False
                count += 1
        return count

    def idle_cycles(self):
        st = self.state
        if st in _WAITING:
            return IDLE_FOREVER
        return 1 if st in _ONE_CYCLE else 0
