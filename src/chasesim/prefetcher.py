"""Pointer-chase prefetch buffer sitting between cache and memory.

Four entries of {26-bit tag, tag-valid, data-valid, 16-byte line, fresh}. On
read-cp traffic the address generation unit latches the next-node pointer of
the serviced line (``next_ptr``); the buffer address register holds its line
and issues one outstanding prefetch (opaque=1). A request's address is split
once, on accept, for ``_probe``, the one lookup; a fill splits the register.
Separate tag/data valid bits let a demand to a line whose fill is in flight
wait instead of re-requesting; a claimed entry is ``fresh`` until its first
demand hit counts it useful. A demand goes to memory as a copy tagged
``DEMAND_OPAQUE``: the opaque field is what tells its response from a fill.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import IDLE_FOREVER, Component
from .messages import (INIT as INIT_KIND, LINE_BYTES, PREFETCH_GEOMETRY, READ,
                       READCP, WRITE, ZERO_LINE, MemRequest, MemResponse,
                       line_base, split_address)

DEMAND_OPAQUE = 0    # forwarded cache requests
PREFETCH_OPAQUE = 1  # buffer-to-memory prefetch requests


@dataclass
class PrefetchEntry:
    tag: int = 0
    tag_valid: bool = False
    data_valid: bool = False  # tag valid, data not: claimed, fill in flight
    data: bytes = ZERO_LINE
    fresh: bool = False  # claimed by a prefetch, no demand hit yet


@dataclass
class BufferAddressRegister:
    next_addr: int = 0  # the line to prefetch
    busy: bool = False  # at most one prefetch outstanding


# FSM states: each is its trace letter
(IDLE, TAG_CHECK, INIT, PUSH_NEXT, BUFFER_TO_MEM, WAIT_MEM, STALL_MEM,
 WAIT_DATA_INVALID) = "I", "TC", "IN", "PN", "BM", "WM", "SM", "DI"

# states whose tick does nothing while nothing arrives
_WAITING = (IDLE, WAIT_MEM, STALL_MEM)


@dataclass
class PrefetchStats:
    read_hits: int = 0
    readcp_hits: int = 0
    read_misses: int = 0
    readcp_misses: int = 0
    writes: int = 0
    prefetches_issued: int = 0
    prefetches_dropped: int = 0
    prefetch_fills: int = 0
    useful_prefetch_hits: int = 0


class PointerChasePrefetcher(Component):
    name = "pf"
    up = ("cache_req", "cache_resp")
    down = ("mem_req", "mem_resp")
    blocks = {
        "eval": (("mem_resp.val", "cache_resp.rdy"),
                 ("cache_resp.val", "mem_req.val", "mem_resp.rdy")),
        "eval_cache_req_rdy": (("cache_resp.val", "cache_resp.rdy", "mem_req.rdy"),
                               ("cache_req.rdy",)),
    }

    def __init__(self):
        self.entries = [PrefetchEntry() for _ in range(PREFETCH_GEOMETRY.num_indices)]
        self.buffer = BufferAddressRegister()
        self.state = IDLE
        self.req: MemRequest | None = None
        self.tag = self.idx = self.off = 0  # self.req's address, split on accept
        self.next_ptr = 0  # AGU output latched for PUSH_NEXT
        self.stats = PrefetchStats()

    # -- combinational helpers --

    def _probe(self, tag: int, idx: int, fill: MemResponse | None = None):
        """(hit, line, data_valid) for a split address. Hit iff the indexed
        entry's tag is valid and matches; hit is true even when the data is
        still pending (the FSM then waits). An arriving prefetch fill is
        applied combinationally, so a same-cycle demand sees its data. It is
        the data of any pending entry that hits: PUSH_NEXT claims an entry
        only while no prefetch is outstanding, so the one pending entry is
        the line at the buffer address."""
        e = self.entries[idx]
        hit = e.tag_valid and e.tag == tag
        if fill is not None and hit and not e.data_valid:
            return hit, fill.data, True
        return hit, e.data, e.data_valid

    def eval(self):
        resp = self.mem_resp.msg
        drain = resp is not None and resp.opaque == PREFETCH_OPAQUE  # drain each fill
        st = self.state
        if st == IDLE:  # waiting states first: the most common
            self.mem_resp.rdy = drain
            return
        if st == WAIT_MEM or st == STALL_MEM:
            if resp is not None and resp.opaque == DEMAND_OPAQUE:
                # forward the demand response combinationally; flow control
                # passes through (memory held while the cache is not ready)
                self.cache_resp.msg = MemResponse(resp.kind, self.req.opaque, resp.data, False)
                drain = self.cache_resp.rdy
        elif st == TAG_CHECK or st == WAIT_DATA_INVALID:
            req = self.req
            if req.kind != INIT_KIND:
                hit, line, dvalid = self._probe(self.tag, self.idx, resp if drain else None)
                if req.kind == WRITE or not hit:
                    self.mem_req.msg = MemRequest(req.kind, req.addr, DEMAND_OPAQUE, req.data)
                elif dvalid:
                    self.cache_resp.msg = MemResponse(req.kind, req.opaque, line, True)
                # else a hit on a pending fill: wait, never re-request
        elif st == INIT:
            self.cache_resp.msg = MemResponse(INIT_KIND, self.req.opaque)
        elif st == BUFFER_TO_MEM:
            self.mem_req.msg = MemRequest(READ, self.buffer.next_addr, PREFETCH_OPAQUE)
        self.mem_resp.rdy = drain

    def eval_cache_req_rdy(self):
        st = self.state
        if st == IDLE:
            self.cache_req.rdy = True
        elif st == BUFFER_TO_MEM:
            self.cache_req.rdy = self.mem_req.rdy
        elif st == INIT or (st == TAG_CHECK and self.req.kind == READ):
            # INIT, or a single-cycle read hit: accept the next request as
            # the response drains
            self.cache_req.rdy = self.cache_resp.rdy and self.cache_resp.msg is not None
        else:
            self.cache_req.rdy = False

    def tick(self):
        got = self.mem_resp.msg if self.mem_resp.rdy else None
        if got is not None and got.opaque == PREFETCH_OPAQUE:
            self._apply_fill(got)
            got = None
        st = self.state
        if st == IDLE:
            if self.cache_req.msg is not None:  # IDLE's cache_req is ready
                self._next_or_idle()
        elif st == WAIT_MEM or st == STALL_MEM:
            if got is not None:  # memory answers in order: no prefetch is outstanding
                if self.req.kind == READCP:
                    self._push(got.data)
                else:
                    self.state = IDLE
            elif self.mem_resp.msg is not None and not self.mem_resp.rdy:
                # eval drains every fill: a refused response is the demand's
                self.state = STALL_MEM
        elif st == TAG_CHECK or st == WAIT_DATA_INVALID:
            self._tick_tag_check()
        elif st == INIT:
            if self.cache_resp.rdy and self.cache_resp.msg is not None:
                data = (self.req.data + ZERO_LINE)[:LINE_BYTES]
                self.entries[self.idx] = PrefetchEntry(self.tag, True, True, data)
                self._next_or_idle()
        elif st == PUSH_NEXT:
            self._tick_push_next()
        elif st == BUFFER_TO_MEM:
            if self.mem_req.rdy and self.mem_req.msg is not None:
                self.buffer.busy = True
                self._next_or_idle()

    def _tick_tag_check(self):
        # TAG_CHECK and WAIT_DATA_INVALID: the fill of this cycle has landed
        req = self.req
        hit, line, dvalid = self._probe(self.tag, self.idx)
        if req.kind == INIT_KIND:
            self.state = INIT
        elif self.cache_resp.rdy and self.cache_resp.msg is not None:
            if req.kind == READ:
                self.stats.read_hits += 1
            else:
                self.stats.readcp_hits += 1
            e = self.entries[self.idx]
            if e.fresh:
                e.fresh = False
                self.stats.useful_prefetch_hits += 1
            if req.kind == READCP:
                self._push(line)
            else:
                self._next_or_idle()  # cache_req is not ready in DI: idle
        elif self.mem_req.rdy and self.mem_req.msg is not None:
            if req.kind == WRITE:
                self.stats.writes += 1
                if hit:
                    # invalidate before forwarding so no stale data survives
                    e = self.entries[self.idx]
                    e.tag_valid = e.data_valid = False
            elif req.kind == READ:
                self.stats.read_misses += 1
            else:
                self.stats.readcp_misses += 1
            self.state = WAIT_MEM
        elif hit and not dvalid and req.kind != WRITE:
            self.state = WAIT_DATA_INVALID

    def _push(self, line: bytes):
        # the AGU: the next-node pointer is the word of the serviced line at
        # the request's offset (a node's first word is its next pointer)
        self.next_ptr = int.from_bytes(line[self.off:self.off + 4], "little")
        self.state = PUSH_NEXT

    def _tick_push_next(self):
        nxt = self.next_ptr
        self.state = IDLE
        if nxt == 0:
            return  # null next pointer: prefetch suppressed
        self.stats.prefetches_issued += 1
        if self.buffer.busy:
            self.stats.prefetches_dropped += 1
            return
        self.buffer.next_addr = line_base(nxt)
        tag, idx, _ = split_address(nxt, PREFETCH_GEOMETRY)
        # claim the entry now, in place (tag valid, data pending, fresh) so a
        # demand to this line waits instead of duplicating the memory request
        e = self.entries[idx]
        e.tag = tag
        e.tag_valid = True
        e.data_valid = False
        e.data = ZERO_LINE
        e.fresh = True
        self.state = BUFFER_TO_MEM

    def _apply_fill(self, resp: MemResponse):
        if not self.buffer.busy:
            raise RuntimeError("prefetch fill with no prefetch outstanding")
        tag, idx, _ = split_address(self.buffer.next_addr, PREFETCH_GEOMETRY)
        hit, _, dvalid = self._probe(tag, idx)
        if hit and not dvalid:
            e = self.entries[idx]
            e.data = resp.data
            e.data_valid = True
            self.stats.prefetch_fills += 1
        else:
            # entry invalidated (write) since the issue: drop the fill
            self.stats.prefetches_dropped += 1
        self.buffer.busy = False

    def _next_or_idle(self):
        r = self.cache_req.msg if self.cache_req.rdy else None
        if r is not None:
            self.req = r
            self.tag, self.idx, self.off = split_address(r.addr, PREFETCH_GEOMETRY)
            self.state = TAG_CHECK
        else:
            self.state = IDLE

    def idle_cycles(self):
        st = self.state
        if st in _WAITING:
            return IDLE_FOREVER
        if st == PUSH_NEXT:
            return 1
        if st == TAG_CHECK or st == WAIT_DATA_INVALID:
            hit, _, dvalid = self._probe(self.tag, self.idx)
            if hit and not dvalid and self.req.kind != WRITE:
                # a hit on a pending fill asserts nothing: TAG_CHECK moves to
                # DI at the end of the cycle, DI waits for the fill
                return 1 if st == TAG_CHECK else IDLE_FOREVER
        return 0
