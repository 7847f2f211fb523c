"""Valid/ready channels and the deterministic two-phase cycle loop.

Every cycle has two phases. In the settle phase each component's
combinational ``eval`` runs repeatedly until channel val/rdy signals reach a
fixpoint (bounded iteration; a combinational loop aborts with a diagnostic).
In the commit phase every channel where val and rdy are both asserted
transfers exactly one message, and each component's sequential ``tick`` runs
exactly once.

``System.run_until`` advances time to the next cycle in which some component
can act. Each component reports ``idle_cycles()``: for how many cycles from
now it asserts no val and its tick only counts down. When all of them report
n > 0, no channel can transfer in those n cycles, so the kernel applies the n
countdowns at once with ``skip(n)`` (writing the n trace lines unchanged)
instead of stepping. The predicate is therefore evaluated at every cycle where
some component can change state, which makes predicates over component state
exact. ``step`` always advances exactly one cycle.
"""

from __future__ import annotations

from typing import Callable

# Deepest combinational val/rdy chain (core-cache-prefetcher-memory and back)
# has fewer than 8 handshake stages.
SETTLE_BOUND = 8

# idle_cycles() of a component that stays idle until something arrives
IDLE_FOREVER = float("inf")


class ConfigurationError(Exception):
    pass


class CombinationalLoopError(Exception):
    pass


class Channel:
    """Single-message val/rdy channel. Capacity 1, no queuing."""

    __slots__ = ("name", "msg", "val", "rdy", "_xfer", "transfers")

    def __init__(self, name: str = "chan"):
        self.name = name
        self.msg = None
        self.val = False
        self.rdy = False
        self._xfer = False
        self.transfers = 0

    # -- producer side, settle phase --
    def send(self, msg):
        self.msg = msg
        self.val = True

    def clear(self):
        self.msg = None
        self.val = False

    # -- consumer side, settle phase --
    def set_rdy(self, rdy):
        self.rdy = bool(rdy)

    def peek(self):
        return self.msg if self.val else None

    # -- commit phase --
    def took(self) -> bool:
        """Producer: was my message accepted this cycle?"""
        return self._xfer

    def recv(self):
        """Consumer: message transferred this cycle, or None."""
        return self.msg if self._xfer else None

    def _commit(self):
        self._xfer = self.val and self.rdy
        if self._xfer:
            self.transfers += 1

    def _finish(self):
        if self._xfer:
            self.msg = None
            self.val = False
        self._xfer = False
        self.rdy = False


class Component:
    """Base role: a combinational eval plus a sequential tick."""

    name = "comp"
    # port attribute names for System.chain:
    # up = (request-in, response-out), down = (request-out, response-in)
    up: tuple[str, ...] = ()
    down: tuple[str, ...] = ()

    def __init__(self):
        self.system: System | None = None

    def eval(self):
        """Recompute outputs (val/msg on output ports, rdy on input ports).

        Must be idempotent within a cycle and must not mutate state.
        """

    def tick(self):
        """Apply one cycle's sequential state update."""

    def idle_cycles(self):
        """Cycles from now in which this component asserts no val and its
        tick only counts down; 0 means it may act now."""
        return 0

    def skip(self, n: int):
        """Apply n idle cycles' countdowns (n <= idle_cycles())."""

    def trace_state(self) -> str:
        return "--"


class System:
    """A fully connected set of components advanced in lockstep."""

    def __init__(self):
        self.components: list[Component] = []
        self.channels: list[Channel] = []
        self.cycle = 0
        self._trace = None

    def add(self, *comps: Component):
        for c in comps:
            c.system = self
            self.components.append(c)
        return comps[0] if len(comps) == 1 else comps

    def connect(self, producer: tuple[Component, str], consumer: tuple[Component, str],
                name: str | None = None) -> Channel:
        """Bind a producer port to a consumer port with a fresh channel."""
        for comp, port in (producer, consumer):
            if not hasattr(comp, port):
                raise ConfigurationError(f"{comp.name} has no port {port!r}")
            if getattr(comp, port) is not None:
                raise ConfigurationError(f"port {comp.name}.{port} already bound")
        pcomp, pport = producer
        ccomp, cport = consumer
        ch = Channel(name or f"{pcomp.name}.{pport}")
        setattr(pcomp, pport, ch)
        setattr(ccomp, cport, ch)
        self.channels.append(ch)
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

    def step(self):
        prev = None
        for _ in range(SETTLE_BOUND):
            for c in self.components:
                c.eval()
            sig = tuple((ch.val, ch.rdy, ch.msg) for ch in self.channels)
            if sig == prev:
                break
            prev = sig
        else:
            raise CombinationalLoopError(
                f"val/rdy signals did not settle within {SETTLE_BOUND} "
                f"iterations at cycle {self.cycle}")
        for ch in self.channels:
            ch._commit()
        if self._trace is not None:
            self._write_trace()
        for c in self.components:
            c.tick()
        for ch in self.channels:
            ch._finish()
        self.cycle += 1

    def run_until(self, predicate: Callable[[], bool], max_cycles: int = 10_000_000) -> bool:
        """Advance until predicate holds, skipping cycles in which every
        component is idle. False signals probable deadlock."""
        if max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")
        steps = 0
        while not predicate():
            if steps >= max_cycles:
                return False
            n = max_cycles - steps
            for c in self.components:
                k = c.idle_cycles()
                if k < n:
                    n = k
                    if n <= 0:
                        break
            if n > 0:
                self._skip(n)
            else:
                self.step()
                n = 1
            steps += n
        return True

    def _skip(self, n: int):
        """Advance n cycles in which no component asserts val."""
        if self._trace is not None:
            self._write_trace(n)
        for c in self.components:
            c.skip(n)
        for ch in self.channels:
            ch.clear()  # as the skipped cycles' evals would have left them
        self.cycle += n

    def state_summary(self) -> dict[str, str]:
        return {c.name: c.trace_state() for c in self.components}

    def _write_trace(self, n: int = 1):
        """One line per cycle for this cycle and the n - 1 after it, which
        must be idle (same states, no transfers)."""
        parts = [f"{c.name}:{c.trace_state():<2}" for c in self.components]
        parts += [f"[{ch.name} {ch.msg}]" for ch in self.channels if ch._xfer]
        tail = "".join(" " + p for p in parts) + "\n"
        self._trace.writelines(f"{cy:8d}{tail}"
                               for cy in range(self.cycle, self.cycle + n))
