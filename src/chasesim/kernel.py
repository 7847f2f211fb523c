"""Valid/ready channels and the deterministic two-phase cycle loop.

Every cycle has two phases. In the eval phase each combinational eval block
runs exactly once, in a static order computed once per wiring. A component
declares its blocks in ``blocks``: per block method, the ``port.val`` and
``port.rdy`` signals it reads and those it writes. Over the bound channels, a
block that reads a signal runs after the block that writes it; blocks that
form a cycle raise a ``CombinationalLoopError`` naming them before the first
cycle runs. A block asserts val by assigning ``port.msg`` and assigns every
rdy it declares on every call. In the commit phase each component's ``tick``
runs once and sees a transfer where rdy is high and a message is asserted;
then the kernel counts the transfers and drops every message; each rdy holds
what its consumer's eval last assigned. Once per wiring, ``System.schedule``
compiles this cycle into straight-line code.

``System.cycle`` is the only clock: a component that waits for a cycle (a
core's compute, memory's due responses) compares against it instead of
counting down, so components join a system before its first cycle.
``System.run_until`` steps only the cycles in which some channel asserts
val. Each component reports ``idle_cycles()``: for how many cycles from now
it asserts no val while nothing arrives, and its tick with nothing arriving
changes nothing except in the last of them. When all of them report more
than 0 and n is the least report, nothing can transfer in those n cycles, so
the kernel writes the n trace lines unchanged, moves the cycle to the last
of them and runs there only the ticks of the components that reported
exactly n: the others would change nothing. The predicate is therefore
evaluated at every cycle where a component's state, a transfer log or a
counter can change, which makes predicates over those exact. ``step``
always advances exactly one cycle. ``run_until``'s loop is compiled per
wiring too, and it calls the ``self.step`` bound at its entry for each cycle
it steps, so a probe that replaces ``System.step`` sees every stepped cycle.
"""

from __future__ import annotations

from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from typing import Callable

# idle_cycles() of a component that stays idle until something arrives
IDLE_FOREVER = float("inf")
# default budget of run_until and of an experiment, in cycles
MAX_CYCLES = 10_000_000


class ConfigurationError(Exception):
    pass


class CombinationalLoopError(Exception):
    pass


class Channel:
    """Single-message val/rdy channel. Capacity 1, no queuing. In the eval
    phase the producer asserts val by assigning ``msg`` and the consumer
    assigns ``rdy``; only ``msg`` is stored, so val is ``msg is not None``.
    In the commit phase a tick reads the fields: a transfer is ``rdy and msg
    is not None``, and the message that arrived is ``msg if rdy else None``."""

    __slots__ = ("name", "msg", "rdy", "transfers")

    def __init__(self, name: str):
        self.name = name
        self.msg = None
        self.rdy = False
        self.transfers = 0

    @property
    def val(self) -> bool:  # read-only, for readers off the per-cycle path
        return self.msg is not None


class Component:
    """Base role: combinational eval blocks plus a sequential tick. Its
    ``ports`` are the names its ``blocks`` declare signals on, each None on
    the class until ``System.connect`` binds a channel to it."""

    name = "comp"
    state = "--"  # the FSM state: its trace letter
    system: System | None = None  # set by System.add
    # the ports System.chain links:
    # up = (request-in, response-out), down = (request-out, response-in)
    up: tuple[str, ...] = ()
    down: tuple[str, ...] = ()
    # eval blocks: method name -> (signals read, signals written), each signal
    # "<port>.val" (val and msg) or "<port>.rdy"
    blocks: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {"eval": ((), ())}
    ports: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.ports = frozenset(signal.partition(".")[0] for signals in cls.blocks.values()
                              for names in signals for signal in names)
        for port in cls.ports:
            setattr(cls, port, None)

    def eval(self):
        """Assert outputs: assign msg on output ports, rdy on input ports.
        Runs once per stepped cycle, after the blocks that write the signals
        it declares it reads. Each msg starts the cycle None, each rdy as its
        eval last left it: assign every rdy declared. Must not mutate state."""

    def tick(self):
        """Apply one cycle's sequential state update; the cycle is
        ``system.cycle``."""

    def idle_cycles(self):
        """Cycles from now in which this component asserts no val while
        nothing arrives, and its tick with nothing arriving changes nothing
        except in the last of them; 0 means it may assert val now."""
        return 0

    def trace_state(self) -> str:
        return self.state


class System:
    """A fully connected set of components advanced in lockstep."""

    def __init__(self):
        self.components: list[Component] = []
        self.channels: list[Channel] = []
        self.cycle = 0
        self._trace = None
        self._schedule: list[Callable[[], None]] | None = None
        self._cycle: Callable[[System], None] | None = None
        self._run: Callable[..., bool] | None = None

    def add(self, *comps: Component):
        if self.cycle:
            raise ConfigurationError("components join a system before its first cycle")
        for c in comps:
            c.system = self
            self.components.append(c)
        self._schedule = None
        return comps[0] if len(comps) == 1 else comps

    def connect(self, producer: tuple[Component, str], consumer: tuple[Component, str],
                name: str | None = None) -> Channel:
        """Bind a producer port to a consumer port with a fresh channel."""
        for comp, port in (producer, consumer):
            if port not in comp.ports:
                raise ConfigurationError(f"{comp.name} has no port {port!r}")
            if getattr(comp, port) is not None:
                raise ConfigurationError(f"port {comp.name}.{port} already bound")
        pcomp, pport = producer
        ccomp, cport = consumer
        ch = Channel(name or f"{pcomp.name}.{pport}")
        setattr(pcomp, pport, ch)
        setattr(ccomp, cport, ch)
        self.channels.append(ch)
        self._schedule = None
        return ch

    def chain(self, *comps: Component):
        """Add comps and link each one's ``down`` ports to the next one's
        ``up`` ports with channels named ``<requester>.req``/``.resp``."""
        self.add(*comps)
        for a, b in zip(comps, comps[1:]):
            self.connect((a, a.down[0]), (b, b.up[0]), f"{a.name}.req")
            self.connect((b, b.up[1]), (a, a.down[1]), f"{a.name}.resp")

    def attach_trace(self, stream):
        """Write one line per cycle: component states plus transfer markers."""
        self._trace = stream

    def schedule(self) -> list[Callable[[], None]]:
        """The bound eval blocks in the order ``step`` calls them.

        Computed once per wiring: graphlib's ``static_order()`` of the
        blocks, numbered in component order, over the declared signals
        (writer before readers). A cycle raises ``CombinationalLoopError``
        naming the blocks on it. Each component's ``tick`` and
        ``idle_cycles`` are bound here too, so a method replaced on an
        instance takes effect only if replaced before the first cycle or
        a rewiring. So are the stepped cycle and ``run_until``'s loop,
        compiled from ``_cycle_code`` with ``b<i>``, ``t<i>``, ``i<i>`` and
        ``c<i>`` its i-th block, tick, ``idle_cycles`` and channel.
        """
        if self._schedule is not None:
            return self._schedule
        blocks, writer, reads = [], {}, []
        for c in self.components:
            for method, (rd, wr) in c.blocks.items():
                i = len(blocks)
                blocks.append((c, method))
                reads.append([self._signal(c, s) for s in rd])
                for s in wr:
                    writer[self._signal(c, s)] = i
        graph = TopologicalSorter({i: {writer[s] for s in rd if s in writer} - {i}
                                   for i, rd in enumerate(reads)})
        try:
            self._schedule = [getattr(*blocks[i]) for i in graph.static_order()]
        except CycleError as e:
            loop = ", ".join(f"{blocks[i][0].name}.{blocks[i][1]}"
                             for i in sorted(set(e.args[1])))
            raise CombinationalLoopError(
                f"eval blocks form a combinational loop: {loop}") from None
        bound = {"b": self._schedule, "t": [c.tick for c in self.components],
                 "i": [c.idle_cycles for c in self.components], "c": self.channels}
        env = {f"{k}{i}": f for k, fs in bound.items() for i, f in enumerate(fs)}
        exec(_cycle_code(" ".join(c.name for c in self.components), len(self._schedule),
                         len(self.components), len(self.channels)), env)
        self._cycle, self._run = env["cycle"], env["run"]
        return self._schedule

    @staticmethod
    def _signal(comp: Component, signal: str) -> tuple[Channel, str]:
        port, _, wire = signal.partition(".")
        if wire not in ("val", "rdy"):
            raise ConfigurationError(f"{comp.name}: bad signal {signal!r}")
        ch = getattr(comp, port, None)
        if ch is None:
            raise ConfigurationError(f"{comp.name}.{port} is not bound")
        return ch, wire

    def step(self):
        if self._schedule is None:
            self.schedule()
        self._cycle(self)

    def run_until(self, predicate: Callable[[], bool], max_cycles: int = MAX_CYCLES) -> bool:
        """Advance until predicate holds, skipping cycles in which no
        component asserts val. False when max_cycles cycles pass first (a
        deadlock reaches them at once). The loop is the wiring's compiled
        ``run``; each stepped cycle calls the ``self.step`` bound here."""
        if max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")
        self.schedule()  # a combinational loop fails before the first cycle
        return self._run(self, predicate, max_cycles, self.step)

    def state_summary(self) -> dict[str, str]:
        return {c.name: c.trace_state() for c in self.components}

    def _write_trace(self, n: int = 1):
        """One line per cycle for this cycle and the n - 1 after it, which
        must be idle (same states, no transfers)."""
        parts = [f"{c.name}:{c.trace_state():<2}" for c in self.components]
        parts += [f"[{ch.name} {ch.msg}]" for ch in self.channels if ch.val and ch.rdy]
        tail = "".join(" " + p for p in parts) + "\n"
        self._trace.writelines(f"{cy:8d}{tail}"
                               for cy in range(self.cycle, self.cycle + n))


@lru_cache(maxsize=64)
def _cycle_code(wiring: str, blocks: int, components: int, channels: int):
    """Code defining ``cycle(system)``, one stepped cycle: each block in
    schedule order, the trace hook, each tick, then per channel: count a
    transfer, drop the message. It also defines ``run(system, predicate,
    max_cycles, step)``, the loop of ``run_until``: the idle poll keeps each
    component's ``idle_cycles()`` in a local ``k<i>`` and calls ``step`` at
    the first k <= 0; otherwise it skips n cycles, the least of each k and
    the budget, found by one compare per k (not a ``min()`` call), and ticks,
    at the last of them, only the components with k == n. Compiling both
    takes about 0.6 ms (2 vCPUs, Python 3.11), which a sweep of short runs
    would pay per run, so wirings of one shape share the code."""
    src = ["def cycle(system):"]
    src += [f"    b{i}()" for i in range(blocks)]
    src += ["    if system._trace is not None:", "        system._write_trace()"]
    src += [f"    t{i}()" for i in range(components)]
    for c in (f"c{i}" for i in range(channels)):
        src += [f"    if {c}.msg is not None:", f"        if {c}.rdy:",
                f"            {c}.transfers += 1", f"        {c}.msg = None"]
    src.append("    system.cycle += 1")
    src += ["def run(system, predicate, max_cycles, step):", "    steps = 0",
            "    while not predicate():", "        if steps >= max_cycles:",
            "            return False"]
    for i in range(components):
        src += [f"        k{i} = i{i}()", f"        if k{i} <= 0:", "            step()",
                "            steps += 1", "            continue"]
    src.append("        n = max_cycles - steps")
    src += [f"        if k{i} < n:\n            n = k{i}" for i in range(components)]
    # no component asserts val in these n cycles: only the last of them can
    # change a component, and only one whose idle stretch ends there
    src += ["        if system._trace is not None:", "            system._write_trace(n)",
            "        system.cycle += n - 1"]
    src += [f"        if k{i} == n:\n            t{i}()" for i in range(components)]
    src += ["        system.cycle += 1", "        steps += n", "    return True"]
    return compile("\n".join(src), f"<cycle of {wiring}>", "exec")
