"""Abstract in-order core model driven by token programs.

A program is either a static token sequence or a generator function; in the
generator form each Read/ReadCP token's loaded value is sent back into the
generator, so later addresses can depend on earlier load results (the
pointer-chase dependence chain). Tokens are unhashable and never changed after
construction: list programs share them with ``replay_program``. The core is
blocking: one outstanding memory request, and a Compute of c cycles started by
the tick of cycle t lasts cycles t+1..t+c, without memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import IDLE_FOREVER, Component
from .messages import READ, READCP, WRITE, MemRequest, word_bytes

# states: each is its trace letter
REQUEST, WAIT, COMPUTE, DONE = "RQ", "WT", "CP", "."


@dataclass(slots=True)
class Read:
    addr: int


@dataclass(slots=True)
class Write:
    addr: int
    value: int


@dataclass(slots=True)
class ReadCP:
    addr: int


@dataclass(slots=True)
class Compute:
    cycles: int


Token = Read | Write | ReadCP | Compute


def as_generator(program):
    """Accept a generator function or a plain token iterable."""
    return program() if callable(program) else (tok for tok in program)


class CoreModel(Component):
    name = "core"
    down = ("mem_req", "mem_resp")
    blocks = {"eval": ((), ("mem_req.val", "mem_resp.rdy"))}

    def __init__(self, program):
        self._gen = as_generator(program)
        self._req: MemRequest | None = None  # the current token's request
        self.state = REQUEST
        self._compute_end = 0  # last cycle of the current Compute
        self.loads: list[tuple[int, int]] = []  # (addr, value) in issue order
        self.done = False
        self._advance(None, -1)  # the program starts at cycle 0

    def _advance(self, value, now):
        """Take the next token after the tick of cycle now."""
        while True:
            try:
                tok = self._gen.send(value)
            except StopIteration:
                self.done = True
                self.state = DONE
                return
            if isinstance(tok, Compute):
                if tok.cycles <= 0:
                    value = None
                    continue
                self._compute_end = now + tok.cycles
                self.state = COMPUTE
                return
            if isinstance(tok, Write):
                self._req = MemRequest(WRITE, tok.addr, 0, word_bytes(tok.value))
            else:
                self._req = MemRequest(READCP if isinstance(tok, ReadCP) else READ,
                                       tok.addr)
            self.state = REQUEST
            return

    def eval(self):
        if self.state == WAIT:  # WAIT first: most stepped cycles find the core waiting
            self.mem_resp.rdy = True
            return
        if self.state == REQUEST:
            self.mem_req.msg = self._req
        self.mem_resp.rdy = False

    def tick(self):
        st = self.state
        if st == WAIT:
            r = self.mem_resp.msg if self.mem_resp.rdy else None
            if r is not None:
                if self._req.kind != WRITE:  # a Read or ReadCP: a load
                    value = int.from_bytes(r.data[:4], "little")
                    self.loads.append((self._req.addr, value))
                    self._advance(value, self.system.cycle)
                else:
                    self._advance(None, self.system.cycle)
        elif st == REQUEST:
            if self.mem_req.rdy and self.mem_req.msg is not None:
                self.state = WAIT
        elif st == COMPUTE:
            now = self.system.cycle
            if now >= self._compute_end:
                self._advance(None, now)

    def idle_cycles(self):
        st = self.state
        if st == WAIT:
            return IDLE_FOREVER
        if st == COMPUTE:
            return self._compute_end - self.system.cycle + 1
        return 0 if st == REQUEST else IDLE_FOREVER
