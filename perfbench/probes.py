"""Hooks the benchmark installs around chasesim's public calls.

Nothing here changes what the simulator computes: every hook calls the
original function and only records time, counts or the object it returned.
Hooks are installed by ``patched`` and removed again when its context exits.

``Probe`` runs in every measurement. It adds O(1) work per simulation: it
times set-up (``build_system``) and the simulation loop (``System.run_until``),
and after each ``run_experiment`` it checks the finished system against the
flat-memory oracle, with the check's time taken out of the wall clock.

``Tracer`` is the separate traced run. It keeps coarse spans (name, parent,
start, end) for the calls a simulation makes once, and per-simulation
aggregates (calls, seconds) for the calls it makes every cycle: ``System.step``
and each component's ``eval``/``tick``. Keeping a span per cycle would hold
millions of records, so per-cycle calls are folded into their parent
``run_until`` span.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field

from chasesim import (BlockingCache, CoreModel, MemRequest, PipelinedMemory,
                      PointerChasePrefetcher, System, cli, harness)
from chasesim.messages import ZERO_LINE
from reference import clock

COMPONENTS = {"core": CoreModel, "cache": BlockingCache,
              "prefetcher": PointerChasePrefetcher, "memory": PipelinedMemory}


@contextlib.contextmanager
def patched(target, name, wrapper_factory):
    """Replace ``target.name`` with ``wrapper_factory(original)`` for the
    duration of the context."""
    original = getattr(target, name)
    setattr(target, name, wrapper_factory(original))
    try:
        yield
    finally:
        setattr(target, name, original)


def check_simulation(handle, oracle) -> str | None:
    """First difference between a finished simulation and the oracle, or
    None. The final image is compared after ``run_experiment``'s flush."""
    if not handle.core.done:
        return "did not complete"
    loads, flat = oracle(handle.workload.program, handle.workload.segments)
    if handle.core.loads != loads:
        return "load values differ from replay_program"
    expect = flat.lines()
    for addr in sorted(set(expect) | set(handle.memory.store)):
        if handle.memory.peek_line(addr) != expect.get(addr, ZERO_LINE):
            return f"memory line {addr:#x} differs from replay_program"
    return None


@dataclass
class SimRecord:
    """What the benchmark keeps of one finished simulation."""

    key: tuple            # (workload name, latency)
    alternate: bool
    cycles: int
    counters: dict
    transfers: int        # all channels
    req_transfers: int    # request channels only (names ending in .req)


@dataclass
class Rep:
    """One execution of a workload's simulations (one unit)."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    loop_s: float = 0.0
    check_s: float = 0.0
    ref_s: float = 0.0    # mean reference slice seconds during this unit (run.py)
    csv: str = ""
    sims: list[SimRecord] = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # traced runs only

    @property
    def total_cycles(self) -> int:
        return sum(s.cycles for s in self.sims)


class Probe:
    """Per-simulation timing, capture and oracle check, installed in every run."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.attempted = 0
        self.failures: list[str] = []
        self.rep = Rep()
        self._handle = None

    def install(self, stack: contextlib.ExitStack):
        stack.enter_context(patched(harness, "build_system", self._wrap_build))
        stack.enter_context(patched(System, "run_until", self._wrap_run_until))
        stack.enter_context(patched(harness, "run_experiment", self._wrap_experiment))

    def _wrap_build(self, build_system):
        def wrapper(config, trace=None):
            t0 = clock()
            handle = build_system(config, trace=trace)
            self.rep.setup_s += clock() - t0
            self._handle = handle
            return handle
        return wrapper

    def _wrap_run_until(self, run_until):
        def wrapper(system, predicate, max_cycles=10_000_000):
            t0 = clock()
            done = run_until(system, predicate, max_cycles)
            self.rep.loop_s += clock() - t0
            return done
        return wrapper

    def _wrap_experiment(self, run_experiment):
        def wrapper(config, trace=None):
            self.attempted += 1
            self._handle = None
            try:
                stats = run_experiment(config, trace=trace)
            except Exception as e:  # noqa: BLE001 - counted, then re-raised to sweep
                self.failures.append(f"{config}: raised {e!r}")
                raise
            handle, self._handle = self._handle, None
            t0 = clock()
            self._record(config, handle)
            self.rep.check_s += clock() - t0
            return stats
        return wrapper

    def _record(self, config, handle):
        problem = check_simulation(handle, self.oracle)
        if problem:
            self.failures.append(f"{config}: {problem}")
        channels = handle.system.channels
        self.rep.sims.append(SimRecord(
            key=(config.workload, config.latency),
            alternate=handle.prefetcher is not None,
            cycles=handle.system.cycle,
            counters=harness.collect_counters(handle),
            transfers=sum(ch.transfers for ch in channels),
            req_transfers=sum(ch.transfers for ch in channels
                              if ch.name.endswith(".req"))))

    def run(self, unit) -> Rep:
        """Execute one unit; its wall time excludes the oracle checks."""
        self.rep = Rep()
        t0 = clock()
        self.rep.csv = unit(self)
        self.rep.wall_s = clock() - t0 - self.rep.check_s
        return self.rep


class Tracer:
    """Spans and per-cycle aggregates for the traced run."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.t0 = clock()
        self.spans: list[list] = []      # [name, parent index or -1, start, end]
        self.aggregates: list[dict] = []  # per run_until span: {name: [calls, s]}
        self._stack: list[int] = []
        names = [f"{c}.{m}" for c in COMPONENTS for m in ("eval", "tick")]
        self.acc = {n: [0, 0.0] for n in ["kernel.step", *names]}
        self.counts = dict.fromkeys(
            ["kernel.cycles", "kernel.quiescent", "core.wait", "memory.occupancy",
             "memory.resp_stall", "messages.requests_built"], 0)

    def install(self, stack: contextlib.ExitStack):
        span = self._span
        stack.enter_context(patched(harness, "make_workload", span("workloads.make_workload")))
        stack.enter_context(patched(harness, "build_system", span("harness.build_system")))
        stack.enter_context(patched(harness, "run_experiment", span("harness.run_experiment")))
        stack.enter_context(patched(harness, "report", span("harness.report")))
        stack.enter_context(patched(cli, "report", span("harness.report")))
        stack.enter_context(patched(cli, "sweep", span("cli.sweep")))
        stack.enter_context(patched(cli, "main", span("cli.main")))
        stack.enter_context(patched(BlockingCache, "flush_dirty", span("harness.flush_dirty")))
        stack.enter_context(patched(self.probe, "oracle", span("workloads.replay_program")))
        stack.enter_context(patched(System, "run_until", self._wrap_run_until))
        stack.enter_context(patched(System, "step", self._wrap_step))
        stack.enter_context(patched(MemRequest, "__init__", self._wrap_request_init))
        special = {"core.tick": self._wrap_core_tick, "memory.tick": self._wrap_memory_tick}
        for comp, cls in COMPONENTS.items():
            for method in ("eval", "tick"):
                name = f"{comp}.{method}"
                factory = special.get(name) or self._timed(name)
                stack.enter_context(patched(cls, method, factory))

    # -- coarse spans --

    def _span(self, name):
        def factory(fn):
            def wrapper(*args, **kwargs):
                rec = [name, self._stack[-1] if self._stack else -1,
                       clock() - self.t0, 0.0]
                self._stack.append(len(self.spans))
                self.spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[3] = clock() - self.t0
                    self._stack.pop()
            return wrapper
        return factory

    def _wrap_run_until(self, run_until):
        traced = self._span("kernel.run_until")(run_until)

        def wrapper(system, predicate, max_cycles=10_000_000):
            before = {k: list(v) for k, v in self.acc.items()}
            parent = len(self.spans)  # index of the span ``traced`` opens
            try:
                return traced(system, predicate, max_cycles)
            finally:
                self.aggregates.append({"parent": parent, "calls": {
                    k: [v[0] - before[k][0], v[1] - before[k][1]]
                    for k, v in self.acc.items()}})
        return wrapper

    # -- per-cycle aggregates --

    def _timed(self, name):
        acc = self.acc[name]

        def factory(fn):
            def wrapper(obj):
                t0 = clock()
                fn(obj)
                acc[1] += clock() - t0
                acc[0] += 1
            return wrapper
        return factory

    def _wrap_step(self, step):
        timed = self._timed("kernel.step")(step)
        counts = self.counts

        def wrapper(system):
            before = sum(ch.transfers for ch in system.channels)
            timed(system)
            counts["kernel.cycles"] += 1
            if sum(ch.transfers for ch in system.channels) == before:
                counts["kernel.quiescent"] += 1
        return wrapper

    def _wrap_core_tick(self, tick):
        timed = self._timed("core.tick")(tick)
        counts = self.counts

        def wrapper(core):
            if core.trace_state() == "WT":
                counts["core.wait"] += 1
            timed(core)
        return wrapper

    def _wrap_memory_tick(self, tick):
        timed = self._timed("memory.tick")(tick)
        counts = self.counts

        def wrapper(mem):
            counts["memory.occupancy"] += len(mem.pipeline)
            if mem.resp.val and not mem.resp.rdy:
                counts["memory.resp_stall"] += 1
            timed(mem)
        return wrapper

    def _wrap_request_init(self, init):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["messages.requests_built"] += 1
            init(*args, **kwargs)
        return wrapper

    # -- per-rep readout --

    def run(self, unit) -> Rep:
        """Execute one unit traced; attach its layer totals to the Rep."""
        first_span = len(self.spans)
        acc0 = {k: list(v) for k, v in self.acc.items()}
        counts0 = dict(self.counts)
        rep = self.probe.run(self._span("bench.unit")(unit))
        layers = {k: v[1] - acc0[k][1] for k, v in self.acc.items()}
        layers.update({f"{k}.calls": v[0] - acc0[k][0] for k, v in self.acc.items()})
        layers.update({k: v - counts0[k] for k, v in self.counts.items()})
        layers.update(self.self_times(first_span))
        rep.layers = layers
        return rep

    def self_times(self, first: int) -> dict[str, float]:
        """Per span name: total self time (duration minus direct children)
        of the spans recorded from index ``first`` on."""
        out: dict[str, float] = {}
        for s in self.spans[first:]:
            out[s[0]] = out.get(s[0], 0.0) + (s[3] - s[2])
        for s in self.spans[first:]:
            if s[1] >= first:
                parent = self.spans[s[1]]
                out[parent[0]] -= s[3] - s[2]
        return {f"{k}.self_s": v for k, v in out.items()}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [{"name": n, "parent": p, "start": a, "end": b}
                      for n, p, a, b in self.spans],
            "aggregates": self.aggregates,
        }
        path.write_text(json.dumps(doc) + "\n")
