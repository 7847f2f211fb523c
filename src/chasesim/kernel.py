"""Valid/ready channels and the deterministic two-phase cycle loop.

Every cycle has two phases. In the eval phase each combinational eval block
runs exactly once, in a static order. A component
declares its blocks in ``blocks``: per block method, the ``port.val`` and
``port.rdy`` signals it reads and those it writes. Over the bound channels, a
block that reads a signal runs after the block that writes it; blocks that
form a cycle raise a ``CombinationalLoopError`` naming them before the first
cycle runs. A block asserts val by assigning ``port.msg`` and assigns every
rdy it declares on every call. In the commit phase each component's ``tick``
runs once and sees a transfer where rdy is high and a message is asserted;
then the kernel counts the transfers and drops every message; each rdy holds
what its consumer's eval last assigned. Systems of one shape (the same
components' names and blocks over the same channel indices) share one block
order and one compiled, straight-line copy of this cycle; ``System.schedule``
binds each system's own blocks, ticks and channels to it through ``_bound``.

``System.cycle`` is the only clock: a component that waits for a cycle (a
core's compute, memory's due responses) compares against it instead of
counting down, so components join a system before its first cycle.
``System.run_until`` steps only the cycles in which some channel asserts
val. Each component reports ``idle_cycles()``: for how many cycles from now
it asserts no val while nothing arrives, and its tick with nothing arriving
changes nothing except in the last of them. When all of them report more
than 0 and n is the least report, nothing can transfer in those n cycles, so
the kernel moves the cycle to the last of them and runs there only the ticks
of the components that reported exactly n: the others would change nothing.
The predicate is therefore evaluated at every cycle where a component's
state, a transfer log or a counter can change, which makes predicates over
those exact. ``run_until``'s loop is compiled per shape too, with the
stepped cycle's lines inline. ``step`` always advances exactly one cycle,
and only it writes a trace line: a watched system (a trace attached, or
``step`` replaced on the class or the instance: a probe) is never skipped,
since ``run_until`` calls its ``step`` for every cycle.
"""

from __future__ import annotations

from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from typing import Callable

# idle_cycles() of a component that stays idle until something arrives. An
# int, not float("inf"): CPython specializes a compare of two ints below
# 2**30 (one digit), but never an int against a float, and the compiled run
# loop compares every poll result. It is above MAX_CYCLES; a deadlock meets a
# larger budget in ceil(budget / IDLE_FOREVER) skips, each ending in ticks
# of the components idle forever, which change nothing.
IDLE_FOREVER = 2**30 - 1
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

        The order is graphlib's ``static_order()`` of the blocks, numbered in
        component order, over the declared signals (writer before readers);
        a cycle raises ``CombinationalLoopError`` naming the blocks on it.
        Systems of one shape (the same component names and blocks over the
        same channel indices) share ``_compiled``'s order and code, sorted
        and compiled once. Each binds its blocks in that order, each
        component's ``tick`` and ``idle_cycles`` and each channel into
        ``_bound``, so a method replaced on an instance takes effect only if
        replaced before the first cycle or a rewiring.
        """
        if self._schedule is not None:
            return self._schedule
        index = {ch: i for i, ch in enumerate(self.channels)}
        comps = self.components
        shape = tuple((c.name, tuple((method, tuple([self._signal(c, s, index) for s in rd]),
                                      tuple([self._signal(c, s, index) for s in wr]))
                                     for method, (rd, wr) in c.blocks.items()))
                      for c in comps)
        order, self._cycle, self._run = _compiled(shape, len(self.channels))
        self._schedule = [getattr(comps[c], method) for c, method in order]
        self._bound = (*self._schedule, *[c.tick for c in comps],
                       *[c.idle_cycles for c in comps], *self.channels)
        return self._schedule

    @staticmethod
    def _signal(comp: Component, signal: str, index: dict[Channel, int]) -> tuple[int, str]:
        port, _, wire = signal.partition(".")
        if wire not in ("val", "rdy"):
            raise ConfigurationError(f"{comp.name}: bad signal {signal!r}")
        ch = getattr(comp, port, None)
        if ch is None:
            raise ConfigurationError(f"{comp.name}.{port} is not bound")
        return index.setdefault(ch, len(index)), wire

    def step(self):
        if self._schedule is None:
            self.schedule()
        self._cycle(self)

    def run_until(self, predicate: Callable[[], bool], max_cycles: int = MAX_CYCLES) -> bool:
        """Advance until predicate holds, skipping cycles in which no
        component asserts val. False when max_cycles cycles pass first (a
        deadlock reaches them at once, in ceil(max_cycles / IDLE_FOREVER)
        skips: IDLE_FOREVER is a one-digit int, not infinity, so that CPython
        specializes the poll's compares). The loop is the shape's compiled
        ``run``. A watched system (a trace attached, or ``step`` replaced on
        the class or the instance: a probe) calls the ``self.step`` bound
        here for every cycle instead, a deadlock's whole budget included."""
        if type(max_cycles) is not int:
            raise ConfigurationError("max_cycles must be an integer")
        if max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")
        self.schedule()  # a combinational loop fails before the first cycle
        step = self.step
        if self._trace is None and getattr(step, "__func__", None) is _STEP:
            return self._run(self, predicate, max_cycles)
        for _ in range(max_cycles):
            if predicate():
                return True
            step()
        return bool(predicate())

    def state_summary(self) -> dict[str, str]:
        return {c.name: c.trace_state() for c in self.components}

    def _write_trace(self):
        """This cycle's line: component states, then transfer markers."""
        parts = [f"{c.name}:{c.trace_state():<2}" for c in self.components]
        parts += [f"[{ch.name} {ch.msg}]" for ch in self.channels if ch.val and ch.rdy]
        self._trace.write(f"{self.cycle:8d}" + "".join(" " + p for p in parts) + "\n")


_STEP = System.step  # run_until runs the compiled loop while self.step is this


@lru_cache(maxsize=64)
def _compiled(shape: tuple, channels: int):
    """The block order and the functions ``cycle(system)``, one stepped
    cycle, and ``run(system, predicate, max_cycles)``, unwatched
    ``run_until``'s loop, shared by the systems of one shape: per component
    its name and per block (method, signals read, signals written), each
    signal (channel index, wire). The order is (component index, method) per
    block; a combinational loop raises, and ``lru_cache`` caches no raise.
    Each function first unpacks ``system._bound`` into fast locals: ``b<i>``,
    ``t<i>``, ``i<i>`` and ``c<i>`` are the i-th block, tick,
    ``idle_cycles`` and channel. ``cycle`` runs each block in schedule
    order, the trace hook, each tick, then per channel: count a transfer,
    drop the message. In ``run`` the idle poll keeps each ``idle_cycles()``
    in a local ``k<i>`` and stops at the first k <= 0, which falls through
    to ``cycle``'s lines inline, less the trace hook. Otherwise it skips n
    cycles, the least of each k and the budget, found by one compare per k
    (not a ``min()`` call), and ticks, at the last of them, only the
    components with k == n. Compiling both takes about 0.5 ms (four
    components; 2 vCPUs, Python 3.11), which a sweep of short runs would
    otherwise pay per run."""
    blocks, writer, reads = [], {}, []
    for c, (_, comp_blocks) in enumerate(shape):
        for method, rd, wr in comp_blocks:
            i = len(blocks)
            blocks.append((c, method))
            reads.append(rd)
            for s in wr:
                writer[s] = i
    graph = TopologicalSorter({i: {writer[s] for s in rd if s in writer} - {i}
                               for i, rd in enumerate(reads)})
    try:
        order = tuple(blocks[i] for i in graph.static_order())
    except CycleError as e:
        loop = ", ".join(f"{shape[blocks[i][0]][0]}.{blocks[i][1]}"
                         for i in sorted(set(e.args[1])))
        raise CombinationalLoopError(f"eval blocks form a combinational loop: {loop}") from None
    components = len(shape)
    names = [f"{k}{i}" for k, n in (("b", len(order)), ("t", components),
                                    ("i", components), ("c", channels)) for i in range(n)]
    bind = [f"{', '.join(names)}, = system._bound"] if names else []
    evals = [f"b{i}()" for i in range(len(order))]
    commit = [f"t{i}()" for i in range(components)]
    for c in (f"c{i}" for i in range(channels)):
        commit += [f"if {c}.msg is not None:", f"    if {c}.rdy:",
                   f"        {c}.transfers += 1", f"    {c}.msg = None"]
    commit.append("system.cycle += 1")
    hook = ["if system._trace is not None:", "    system._write_trace()"]
    src = ["def cycle(system):", *("    " + line for line in bind + evals + hook + commit)]
    poll = " and ".join(f"(k{i} := i{i}()) > 0" for i in range(components)) or "True"
    src += ["def run(system, predicate, max_cycles):", *("    " + line for line in bind),
            "    steps = 0", "    while not predicate():", "        if steps >= max_cycles:",
            "            return False", f"        if {poll}:",
            "            n = max_cycles - steps"]
    src += [f"            if k{i} < n:\n                n = k{i}" for i in range(components)]
    # no component asserts val in these n cycles: only the last of them can
    # change a component, and only one whose idle stretch ends there
    src += ["            system.cycle += n - 1",
            *(f"            if k{i} == n:\n                t{i}()" for i in range(components))]
    src += ["            system.cycle += 1", "            steps += n", "            continue",
            "        steps += 1", *("        " + line for line in evals + commit),
            "    return True"]
    env = {}
    wiring = " ".join(name for name, _ in shape)
    exec(compile("\n".join(src), f"<cycle of {wiring}>", "exec"), env)
    return order, env["cycle"], env["run"]
