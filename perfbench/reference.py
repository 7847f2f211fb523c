"""A fixed yardstick for the host's current speed.

The host this benchmark was defined on (a 2-vCPU KVM guest on a shared
machine) runs the same Python code up to 1.8x faster or slower from one
second to the next, in CPU time as well as wall time. So while a workload
runs, ``sampling`` interrupts it every ``INTERVAL_S`` (SIGALRM, in this
thread) and times a short slice of the kernel below. ``clock`` stops while a
slice runs, so the slices add nothing to the times the benchmark measures,
and ``run.py`` scales each repetition's host times by ``NOMINAL_S`` over the
mean slice time during that repetition.

The kernel is a small cycle-level model in plain Python (valid/ready
channels, eval/tick components, a dict-backed cache and a latency pipeline),
so it stresses the interpreter the way chasesim does. It imports nothing
from chasesim and must never change: if it did, every scaled time would
shift with it. Its result is checked, so a broken interpreter cannot pass
unnoticed.
"""

from __future__ import annotations

import contextlib
import signal
from collections import deque
from time import perf_counter

N_OPS = 64
RESULT = (576, 3729928004)   # run(N_OPS)
NOMINAL_S = 0.0020      # seconds for run(N_OPS) on the defining host
INTERVAL_S = 0.05       # wall seconds between slices


class Msg:
    __slots__ = ("op", "addr", "data")

    def __init__(self, op, addr, data):
        self.op, self.addr, self.data = op, addr, data


class Chan:
    __slots__ = ("msg", "valid", "ready")

    def __init__(self):
        self.msg, self.valid, self.ready = None, False, False

    def fire(self):
        return self.valid and self.ready


class Core:
    def __init__(self, program, req, resp):
        self.program, self.req, self.resp = program, req, resp
        self.pc, self.waiting, self.acc = 0, False, 0

    def eval(self):
        self.req.valid = not self.waiting and self.pc < len(self.program)
        if self.req.valid:
            op, addr = self.program[self.pc]
            self.req.msg = Msg(op, addr, self.pc)
        self.resp.ready = self.waiting

    def tick(self):
        if self.req.fire():
            self.pc, self.waiting = self.pc + 1, True
        if self.resp.fire():
            self.acc = (self.acc * 31 + self.resp.msg.data) & 0xFFFFFFFF
            self.waiting = False


class Cache:
    def __init__(self, up_req, up_resp, mem_req, mem_resp, lines=16):
        self.ur, self.us, self.mr, self.ms = up_req, up_resp, mem_req, mem_resp
        self.lines, self.tags = lines, {}
        self.pending = self.out = None   # pending: [request, sent to memory]

    def eval(self):
        self.ur.ready = self.pending is None and self.out is None
        self.us.valid, self.us.msg = self.out is not None, self.out
        self.mr.valid = self.pending is not None and not self.pending[1]
        if self.mr.valid:
            self.mr.msg = Msg("rd", self.pending[0].addr & ~15, None)
        self.ms.ready = self.pending is not None

    def _access(self, m, data):
        word = (m.addr >> 2) & 3
        if m.op == "wr":
            data[word] = m.data
        self.out = Msg("ack", m.addr, data[word])

    def tick(self):
        if self.us.fire():
            self.out = None
        if self.ur.fire():
            m = self.ur.msg
            line = self.tags.get((m.addr >> 4) % self.lines)
            if line is not None and line[0] == m.addr >> 4:
                self._access(m, line[1])
            else:
                self.pending = [m, False]
        elif self.mr.fire():
            self.pending[1] = True
        elif self.ms.fire():
            m, self.pending = self.pending[0], None
            data = list(self.ms.msg.data)
            self.tags[(m.addr >> 4) % self.lines] = (m.addr >> 4, data)
            self._access(m, data)


class Memory:
    def __init__(self, req, resp, latency):
        self.req, self.resp, self.latency = req, resp, latency
        self.pipe, self.now = deque(), 0

    def eval(self):
        self.req.ready = len(self.pipe) < 4
        head = self.pipe[0] if self.pipe else None
        self.resp.valid = head is not None and head[0] <= self.now
        if self.resp.valid:
            self.resp.msg = head[1]

    def tick(self):
        if self.resp.fire():
            self.pipe.popleft()
        if self.req.fire():
            a = self.req.msg.addr
            self.pipe.append((self.now + self.latency, Msg("data", a, (a, a + 1, a + 2, a + 3))))
        self.now += 1


def run(n_ops: int, latency: int = 6, seed: int = 12345) -> tuple[int, int]:
    """Simulate ``n_ops`` reads and writes; (cycles, checksum of read data)."""
    x, program = seed, []
    for _ in range(n_ops):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        program.append(("wr" if x % 5 == 0 else "rd", (x >> 4) % 1024 * 4))
    chans = [Chan() for _ in range(4)]
    core = Core(program, chans[0], chans[1])
    comps = [core, Cache(*chans), Memory(chans[2], chans[3], latency)]
    cycles = 0
    while core.pc < n_ops or core.waiting:
        for _ in range(2):           # settle: two eval passes per cycle
            for c in comps:
                c.eval()
        for c in comps:
            c.tick()
        cycles += 1
    return cycles, core.acc


_spent = 0.0            # seconds spent in slices so far
samples: list[float] = []  # seconds of each slice, in order
bad: list[tuple] = []      # wrong kernel results


def clock() -> float:
    """``perf_counter`` minus the time spent in slices."""
    return perf_counter() - _spent


def _slice(signum, frame):
    global _spent
    t0 = perf_counter()
    got = run(N_OPS)
    dt = perf_counter() - t0
    if got != RESULT:
        bad.append(got)
    samples.append(dt)
    _spent += perf_counter() - t0


@contextlib.contextmanager
def sampling():
    """Time a slice of the kernel every ``INTERVAL_S`` inside the context."""
    previous = signal.signal(signal.SIGALRM, _slice)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
