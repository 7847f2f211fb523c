"""Helpers shared by the test modules.

Directed tests wire a device under test between a scripted source/sink pair
and a memory with ``chasesim.build_testbench``, feed it ``rd``, ``cp`` and
``wr_line`` requests and compare acceptance / response cycles from their
logs. The ``audit_blocks`` fixture, which every directed-test module uses,
checks that each eval block a test runs touches only the signals it
declares and assigns every rdy it declares. System tests run a token program with ``run_program``, or with
``run_against_oracle``, which also checks its loads and final image against
the flat-replay oracle. A ``RefusingStage``, which refuses on a seeded
schedule, puts a handshake under backpressure: ``refusing_testbench`` puts
one on each side of a device under test, and ``run_program``'s ``refusing``
one on each link of a full system.
"""

from __future__ import annotations

import os
import random
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import strategies as st

import chasesim.kernel as kernel
from chasesim import (BlockingCache, Channel, Component, CoreModel, Lcg, MemRequest, MsgKind,
                      PipelinedMemory, PointerChasePrefetcher, Read, ReadCP, System,
                      TestSink, TestSource, Write, build_testbench, replay_program)
from chasesim.core import as_generator
from chasesim.messages import (LINE_BYTES, WORD_BYTES, ZERO_LINE, set_word_in_line,
                               word_bytes)
from chasesim.workloads import LCG_MOD, LINE_WORDS, Workload

SRC = Path(__file__).resolve().parents[1] / "src"


def rd(addr, opaque=0):
    return MemRequest(MsgKind.READ, addr, opaque=opaque)


def cp(addr, opaque=0):
    return MemRequest(MsgKind.READCP, addr, opaque=opaque)


def wr_line(addr, data):
    """A full-line write (``test_cache.py``'s ``wr`` writes one word)."""
    return MemRequest(MsgKind.WRITE, addr, data=data)


def run_to_responses(sys_, sink, count, max_cycles=100_000):
    ok = sys_.run_until(lambda: len(sink.received) >= count, max_cycles)
    assert ok, f"expected {count} responses, got {len(sink.received)}"
    return sink.responses()


def chase_testbench(latency, src_delays, sink_delays=(), *stages):
    """A testbench whose source offers one ReadCP per item of src_delays,
    that many cycles after the one before it, down a chain of lines whose
    first word points to the next line; the sink waits sink_delays."""
    lines = [0x1000 + 3 * LINE_BYTES * i for i in range(len(src_delays) + 1)]
    segments = [(a, set_word_in_line(ZERO_LINE, 0, b)) for a, b in zip(lines, lines[1:])]
    return build_testbench(latency, [(cp(a), d) for a, d in zip(lines, src_delays)],
                           *stages, sink_delays=sink_delays, segments=segments)


class StepCounter(Component):
    """A passive component: no blocks, idle forever, ticks counted. The
    kernel ticks it in every stepped cycle and in no skip shorter than
    IDLE_FOREVER, so it counts stepped cycles without replacing ``step``,
    which would make run_until step every cycle."""

    name = "steps"
    blocks = {}

    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1

    def idle_cycles(self):
        return kernel.IDLE_FOREVER


class RefusingStage(Component):
    """A pass-through stage that refuses on a seeded schedule. In the cycles
    the schedule names for a direction it drops rdy toward the sender and
    holds the message back from the receiver; in the others it forwards
    both combinationally, so it never holds a message itself. The schedule
    repeats every PERIOD cycles and depends on the cycle alone: the stage
    keeps no state, and skipped cycles change nothing."""

    name = "gate"
    up = ("req_in", "resp_out")
    down = ("req_out", "resp_in")
    blocks = {"eval_req": (("req_in.val",), ("req_out.val",)),
              "eval_req_rdy": (("req_out.rdy",), ("req_in.rdy",)),
              "eval_resp": (("resp_in.val",), ("resp_out.val",)),
              "eval_resp_rdy": (("resp_out.rdy",), ("resp_in.rdy",))}
    PERIOD = 61

    def __init__(self, seed, name="gate", share=0.4):
        rng = random.Random(seed)
        self.name = name
        self.refuse_req, self.refuse_resp = (
            [rng.random() < share for _ in range(self.PERIOD)] for _ in range(2))

    def eval_req(self):
        if not self.refuse_req[self.system.cycle % self.PERIOD]:
            self.req_out.msg = self.req_in.msg

    def eval_req_rdy(self):
        self.req_in.rdy = (self.req_out.rdy
                           and not self.refuse_req[self.system.cycle % self.PERIOD])

    def eval_resp(self):
        if not self.refuse_resp[self.system.cycle % self.PERIOD]:
            self.resp_out.msg = self.resp_in.msg

    def eval_resp_rdy(self):
        self.resp_in.rdy = (self.resp_out.rdy
                            and not self.refuse_resp[self.system.cycle % self.PERIOD])

    def idle_cycles(self):
        return kernel.IDLE_FOREVER  # it asserts only what a neighbour asserts


def refusing_testbench(latency, script, dut, seed, **kwargs):
    """``build_testbench`` with a RefusingStage on each side of dut: returns
    ``(system, src, sink, stage_up, dut, stage_down, mem)``."""
    return build_testbench(latency, script, RefusingStage(seed, "gate_up"), dut,
                           RefusingStage(seed + 1, "gate_down"), **kwargs)


def count_steps(system):
    """Add a StepCounter to system, before its first cycle; return it."""
    return system.add(StepCounter())


def after_each_block(system, hook):
    """Make each eval block of system's components call hook(component,
    block name) once it has run. The schedule binds the blocks, so call
    this before the system's first cycle."""
    for comp in system.components:
        for name in comp.blocks:
            def run(block=getattr(comp, name), comp=comp, name=name):
                block()
                hook(comp, name)
            setattr(comp, name, run)


def tokens_of(program):
    """Expand a program against flat replay, recording the yielded tokens."""
    out = []

    def wrapper():
        gen = as_generator(program)
        value = None
        first = True
        while True:
            try:
                tok = next(gen) if first else gen.send(value)
                first = False
            except StopIteration:
                return
            out.append(tok)
            value = yield tok

    return wrapper, out


def mixes():
    """Strategy for a random stream's (read, write, read-cp) shares: a read
    share, then the write share of the rest; read-cp takes what is left."""
    return st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
        lambda p: (p[0], (1 - p[0]) * p[1], (1 - p[0]) * (1 - p[1])))


def per_call_random(seed, n, lines, mix):
    """``_random``'s workload with one Lcg call per draw and its stream as
    one token list, over a region of ``lines`` lines with (read, write,
    read-cp) shares ``mix``: ``_random``'s image, and its program's tokens
    expanded, are this at ``RANDOM_LINES`` and ``RANDOM_MIX``."""
    rng = Lcg(seed)
    region = [rng.next() for _ in range(lines * LINE_WORDS)]
    tokens = []
    for _ in range(n):
        addr = WORD_BYTES * rng.randrange(lines * LINE_WORDS)
        p = rng.next() / LCG_MOD
        if p < mix[0]:
            tokens.append(Read(addr))
        elif p < mix[0] + mix[1]:
            tokens.append(Write(addr, rng.next()))
        else:
            tokens.append(ReadCP(addr))
    return Workload([(0, struct.pack(f"<{len(region)}I", *region))], tokens)


POINTER_REGION = 0x1000  # nonzero, so no in-region pointer is null


def pointer_stream(n, seed, lines, chase, write):
    """A region whose every word points to a word of the region, and a
    program of n tokens over it: with probability chase a ReadCP of the last
    ReadCP's result, else (write the share) a Write of an in-region pointer
    to a random word, or a Read or ReadCP of a random word."""
    words = lines * LINE_BYTES // WORD_BYTES

    def pointer(rng):
        return POINTER_REGION + WORD_BYTES * rng.randrange(words)

    image = random.Random(seed)
    region = b"".join(word_bytes(pointer(image)) for _ in range(words))

    def program():
        rng = random.Random(~seed)
        ptr = pointer(rng)
        for _ in range(n):
            if rng.random() < chase:
                ptr = yield ReadCP(ptr)
            elif rng.random() < write:
                yield Write(pointer(rng), pointer(rng))
            elif rng.random() < 0.5:
                yield Read(pointer(rng))
            else:
                ptr = yield ReadCP(pointer(rng))

    return program, [(POINTER_REGION, region)]


def run_program(topology, program, segments, latency=4, refusing=None):
    """Run a token program to completion in a system of the given topology;
    return the system and its core. With a seed for refusing, a
    RefusingStage sits on each link of the chain, each seeded apart."""
    core, cache, memory = CoreModel(program), BlockingCache(), PipelinedMemory(latency)
    memory.load_image(segments)
    system = System()
    pf = [PointerChasePrefetcher()] if topology == "alternate" else []
    chain = [core, cache, *pf, memory]
    if refusing is not None:
        chain[1:] = [x for i, comp in enumerate(chain[1:])
                     for x in (RefusingStage(refusing + i, f"gate{i}"), comp)]
    system.chain(*chain)
    assert system.run_until(lambda: core.done)
    return system, core


def run_against_oracle(topology, program, segments, latency, refusing=None):
    """Run program; assert its loads and flushed image match
    replay_program's; return the system."""
    system, core = run_program(topology, program, segments, latency, refusing)
    loads, flat = replay_program(program, segments)
    assert core.loads == loads
    cache = next(c for c in system.components if isinstance(c, BlockingCache))
    memory = system.components[-1]
    cache.flush_dirty(memory.poke_line)
    expect = flat.lines()
    for addr in set(expect) | set(memory.store):
        assert memory.peek_line(addr) == expect.get(addr, ZERO_LINE), hex(addr)
    return system


def raised_optimized(snippet: str) -> str:
    """Run snippet in a fresh ``python -O``, where assert statements are
    stripped; return ``"<ExceptionType>: <message>"`` of what it raised, or
    ``""`` if it raised nothing."""
    code = ("if __debug__:\n    raise SystemExit('asserts are not stripped')\n"
            "try:\n" + textwrap.indent(textwrap.dedent(snippet), "    ") +
            "\nexcept Exception as e:\n    print(f'{type(e).__name__}: {e}')\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


# -- declared-signal audit --

AUDITED = (CoreModel, BlockingCache, PointerChasePrefetcher, PipelinedMemory,
           TestSource, TestSink)
# (component name, block, port, wire, "read"/"write") of every declared signal
DECLARED = {(cls.name, block, *signal.split("."), mode)
            for cls in AUDITED for block, signals in cls.blocks.items()
            for mode, names in zip(("read", "write"), signals) for signal in names}


def _recorded(slot, wire):
    def note(ch, mode):
        if RecordingChannel.block is not None:
            RecordingChannel.accesses.add((*RecordingChannel.block, ch, wire, mode))
            if wire == "rdy" and mode == "write":
                RecordingChannel.assigned.add(ch)

    def get(ch):
        note(ch, "read")
        return slot.__get__(ch)

    def set_(ch, value):
        note(ch, "write")
        slot.__set__(ch, value)
    return property(get, set_)


class RecordingChannel(Channel):
    """A channel that notes the val, rdy and msg accesses of the audited eval
    block that is running (msg travels with val, so it counts as val);
    accesses from ticks and the kernel are not block accesses."""

    __slots__ = ()
    block = None  # (component, block name) while an audited block runs
    accesses: set = set()  # (component, block, channel, wire, "read"/"write")
    assigned: set = set()  # channels whose rdy the running block assigned
    unassigned: set = set()  # (component name, block, port) of a rdy a call left
    msg = _recorded(Channel.msg, "val")  # Channel.val reads msg
    rdy = _recorded(Channel.rdy, "rdy")


def _marked(block, name, rdys):
    """block, noting its accesses while it runs and, after each call, each
    port of ``rdys`` whose rdy the call did not assign: the kernel never
    drops a rdy, so one left unassigned keeps the last cycle's value."""
    def run(self):
        outer = RecordingChannel.block, RecordingChannel.assigned
        RecordingChannel.block, RecordingChannel.assigned = (self, name), set()
        try:
            block(self)
            left = {(self.name, name, port) for port in rdys
                    if getattr(self, port) not in RecordingChannel.assigned}
        finally:
            RecordingChannel.block, RecordingChannel.assigned = outer
        RecordingChannel.unassigned |= left
    return run


@pytest.fixture
def audit_blocks(monkeypatch):
    """For the length of the test, systems wire ``RecordingChannel``s and each
    audited class's eval blocks mark themselves while they run. Yields a
    function giving the (component name, block, port, wire, mode) touched so
    far; fails the test if a block touched a signal it does not declare, or
    if a call of a block left a rdy it declares unassigned."""
    monkeypatch.setattr(kernel, "Channel", RecordingChannel)
    monkeypatch.setattr(RecordingChannel, "accesses", set())
    monkeypatch.setattr(RecordingChannel, "unassigned", set())
    for cls in AUDITED:
        for name, (_, written) in cls.blocks.items():
            rdys = [s.partition(".")[0] for s in written if s.endswith(".rdy")]
            monkeypatch.setattr(cls, name, _marked(getattr(cls, name), name, rdys))

    def touched():
        return {(comp.name, block, next(p for p, v in vars(comp).items() if v is ch),
                 wire, mode) for comp, block, ch, wire, mode in RecordingChannel.accesses}
    yield touched
    assert sorted(touched() - DECLARED) == [], "undeclared signals"
    assert sorted(RecordingChannel.unassigned) == [], "rdy left unassigned"
