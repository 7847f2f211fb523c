"""Main memory: a magic backing store behind a fixed-latency inelastic pipeline.

The pipeline accepts one request per cycle while unstalled and returns
responses in order, each exactly ``latency`` cycles after acceptance. Each
entry holds the pipeline-clock value at which its response is due. The
pipeline clock is ``system.cycle`` less the cycles the pipeline stood still:
it stops while the head response is not accepted downstream, so no entry
advances then.
"""

from __future__ import annotations

from collections import deque

from .kernel import IDLE_FOREVER, Component, ConfigurationError
from .messages import (LINE_BYTES, WORD_BYTES, WRITE, ZERO_LINE, MemRequest,
                       MemResponse, line_base)


class PipelinedMemory(Component):
    name = "mem"
    up = ("req", "resp")
    blocks = {"eval": ((), ("resp.val",)),
              "eval_req_rdy": (("resp.val", "resp.rdy"), ("req.rdy",))}

    def __init__(self, latency: int):
        if latency < 1:
            raise ConfigurationError("memory latency must be >= 1 cycle")
        self.latency = latency
        # sparse map: 16-byte-aligned address -> 16-byte line
        self.store: dict[int, bytes] = {}
        # in-flight entries: (due pipeline-clock value, request)
        self.pipeline: deque[tuple[int, MemRequest]] = deque()
        self.stalls = 0  # cycles the pipeline clock stood still

    # -- backing-store access (zero-time, used by loaders and oracles) --

    def load_image(self, segments):
        """Install (addr, bytes) segments; overlapping segments: later wins.
        Each whole line of a segment is stored as one slice; a partial head
        or tail line merges into the line already stored."""
        store = self.store
        for addr, data in segments:
            if addr % WORD_BYTES != 0:
                raise ConfigurationError(f"segment address misaligned: {addr:#x}")
            data = bytes(data)
            head = min(-addr % LINE_BYTES, len(data))  # bytes before the first whole line
            tail = head + (len(data) - head) // LINE_BYTES * LINE_BYTES
            if head:
                self._merge_line(addr, data[:head])
            store.update({addr + p: data[p:p + LINE_BYTES]
                          for p in range(head, tail, LINE_BYTES)})
            if tail < len(data):
                self._merge_line(addr + tail, data[tail:])

    def poke_line(self, addr: int, data: bytes):
        if len(data) != LINE_BYTES:
            raise ValueError(f"poke_line needs {LINE_BYTES} bytes, got {len(data)}")
        self.store[line_base(addr)] = bytes(data)

    def peek_line(self, addr: int) -> bytes:
        return self.store.get(line_base(addr), ZERO_LINE)

    def _merge_line(self, addr: int, data: bytes):
        """Overwrite the bytes of one line from addr on with data."""
        base = line_base(addr)
        old = self.store.get(base, ZERO_LINE)
        self.store[base] = old[:addr - base] + data + old[addr - base + len(data):]

    # -- cycle behavior --

    def eval(self):
        if self.pipeline and self.pipeline[0][0] == self.system.cycle - self.stalls:
            r = self.pipeline[0][1]
            # a read returns its whole line (r.addr & -LINE_BYTES is its
            # line_base), a write an empty response
            data = (b"" if r.kind == WRITE
                    else self.store.get(r.addr & -LINE_BYTES, ZERO_LINE))
            self.resp.msg = MemResponse(r.kind, r.opaque, data)

    def eval_req_rdy(self):
        # a due head that is not accepted stalls the whole pipeline
        self.req.rdy = self.resp.msg is None or self.resp.rdy

    def tick(self):
        if self.resp.msg is not None:
            if not self.resp.rdy:
                self.stalls += 1  # due head stalled: the clock stops, req was not ready
                return
            self.pipeline.popleft()
        r = self.req.msg if self.req.rdy else None
        if r is not None:
            if r.kind == WRITE:
                # writes are full-line; applied at acceptance so later reads
                # in the pipeline observe them (read-your-writes)
                if len(r.data) != LINE_BYTES:
                    raise ValueError(f"memory writes must be full-line, got "
                                     f"{len(r.data)} bytes for {r.addr:#x}")
                self.store[line_base(r.addr)] = r.data
            self.pipeline.append((self.system.cycle - self.stalls + self.latency, r))

    def idle_cycles(self):
        if self.pipeline:
            wait = self.pipeline[0][0] - (self.system.cycle - self.stalls)
            if wait < 0:
                # eval sends only on the due cycle: this response never goes
                raise RuntimeError(f"memory response overdue by {-wait} cycles")
            return wait
        return IDLE_FOREVER

    def trace_state(self):
        return f"p{len(self.pipeline)}"


def dump_image(store: dict[int, bytes]) -> str:
    """Render a backing store as text: one ``<addr>: <hex line>`` per line,
    in address order."""
    lines = [f"{addr:08x}: {data.hex()}" for addr, data in sorted(store.items())]
    return "\n".join(lines) + ("\n" if lines else "")

