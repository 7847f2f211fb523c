"""Directed-test harness: a scripted request source, a response sink with
acceptance delays, and the testbench that wires a device under test between
them and a pipelined memory that logs its requests.
"""

from __future__ import annotations

from .kernel import IDLE_FOREVER, Component, System
from .memory import PipelinedMemory
from .messages import MemRequest, MemResponse


class TestSource(Component):
    """Feeds a scripted request sequence, with optional per-request delays."""

    __test__ = False  # a simulator component, not a pytest test class
    name = "src"
    blocks = {"eval": ((), ("req.val",))}

    def __init__(self, script):
        # script items: MemRequest or (MemRequest, delay-cycles-before-offer)
        self.script = [(s, 0) if not isinstance(s, tuple) else s for s in script]
        self.index = 0
        self.offer_at = self.script[0][1] if self.script else 0  # next offer's cycle
        self.log: list[tuple[int, object]] = []  # (cycle accepted, request)

    @property
    def done(self):
        return self.index >= len(self.script)

    def eval(self):
        if not self.done and self.system.cycle >= self.offer_at:
            self.req.send(self.script[self.index][0])

    def tick(self):
        if self.req.val and self.req.rdy:
            now = self.system.cycle
            self.log.append((now, self.script[self.index][0]))
            self.index += 1
            if not self.done:
                self.offer_at = now + 1 + self.script[self.index][1]

    def idle_cycles(self):
        return IDLE_FOREVER if self.done else self.offer_at - self.system.cycle

    def trace_state(self):
        return "." if self.done else f"{self.index}"


class TestSink(Component):
    """Collects responses; can apply per-response acceptance delays."""

    __test__ = False
    name = "sink"
    blocks = {"eval": ((), ("resp.rdy",))}

    def __init__(self, delays=()):
        self.delays = list(delays)
        self.ready_at = self.delays[0] if self.delays else 0  # cycle rdy rises
        self.received: list[tuple[int, MemResponse]] = []  # (cycle, response)

    def eval(self):
        self.resp.rdy = self.system.cycle >= self.ready_at

    def tick(self):
        r = self.resp.msg if self.resp.rdy else None
        if r is not None:
            now = self.system.cycle
            self.received.append((now, r))
            i = len(self.received)
            self.ready_at = now + 1 + (self.delays[i] if i < len(self.delays) else 0)

    def idle_cycles(self):
        return IDLE_FOREVER  # it never asserts val

    def responses(self):
        return [r for _, r in self.received]


class LoggingMemory(PipelinedMemory):
    """A pipelined memory that also keeps every request it accepts, in order,
    in ``request_log``. Full systems count them on the request channel only."""

    def __init__(self, latency: int):
        super().__init__(latency)
        self.request_log: list[MemRequest] = []

    def tick(self):
        # req is not ready while stalled: what arrived is accepted
        r = self.req.msg if self.req.rdy else None
        super().tick()
        if r is not None:
            self.request_log.append(r)


def build_testbench(latency: int, script, *stages: Component, sink_delays=(),
                    segments=(), trace=None):
    """source -> stages -> memory, the first stage's responses to the sink.

    With no stages the source talks to memory directly. Returns
    ``(system, src, sink, *stages, mem)``; ``mem.request_log`` lists the
    requests memory accepted.
    """
    sys_ = System()
    src = TestSource(script)
    sink = TestSink(sink_delays)
    mem = LoggingMemory(latency)
    mem.load_image(segments)
    head = stages[0] if stages else mem
    sys_.add(sink)
    sys_.connect((src, "req"), (head, head.up[0]), "src.req")
    sys_.connect((head, head.up[1]), (sink, "resp"), "src.resp")
    sys_.chain(*stages, mem)
    # run_until's poll stops at the first component that may act; the
    # source comes last, so memory's overdue check runs while it offers
    sys_.add(src)
    if trace is not None:
        sys_.attach_trace(trace)
    return (sys_, src, sink, *stages, mem)
