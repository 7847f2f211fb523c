"""Experiment runner: builds baseline/alternate systems, runs workloads
across parameter sweeps, and renders results as table/CSV/JSON.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, replace

from .cache import BlockingCache, CacheStats
from .core import CoreModel
from .kernel import MAX_CYCLES, ConfigurationError, System
from .memory import PipelinedMemory
from .prefetcher import PointerChasePrefetcher, PrefetchStats
from . import workloads as wl

TOPOLOGIES = ("baseline", "alternate")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings; construction fails on bad input, so no invalid
    configuration exists."""

    topology: str
    latency: int
    workload: str
    params: tuple = ()  # (key, value) pairs; every one the workload takes
    seed: int = 1
    max_cycles: int = MAX_CYCLES

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(f"unknown topology {self.topology!r}")
        _check_integers({"latency": self.latency, "max_cycles": self.max_cycles})
        if self.latency < 1:
            raise ConfigurationError("memory latency must be >= 1 cycle")
        if self.max_cycles < 1:
            raise ConfigurationError("max_cycles must be >= 1")
        # stored filled in, so equal configs are exactly equal experiments
        object.__setattr__(self, "params", tuple(
            _workload_params(self.workload, self.seed, dict(self.params)).items()))


def make_config(topology, latency, workload, seed=1, max_cycles=MAX_CYCLES,
                **params) -> ExperimentConfig:
    return ExperimentConfig(topology, latency, workload, tuple(params.items()),
                            seed, max_cycles)


@dataclass
class RunStats:
    config: ExperimentConfig
    cycles: int
    completed: bool
    counters: dict[str, int] = field(default_factory=dict)
    deadlock_states: dict[str, str] | None = None


def _workload_params(name: str, seed, params: dict) -> dict:
    """The one gate of what a run accepts, for configs and make_workload:
    workload ``name``'s parameters, given or else the registry's defaults;
    names only other workloads take are dropped. Raises ConfigurationError,
    in order, for an unknown workload or parameter name, a seed or parameter
    whose type is not int, a value out of range, or a size that won't fit."""
    if name not in wl.WORKLOADS:
        raise ConfigurationError(f"unknown workload {name!r}")
    if unknown := [k for k in params if k not in wl.PARAMS]:
        raise ConfigurationError(f"unknown parameter {unknown[0]!r}")
    _, ranges, fits = wl.WORKLOADS[name]
    full = {k: params.get(k, default) for k, (default, _, _) in ranges.items()}
    _check_integers({"seed": seed, **full})
    wl.check_ranges(full, ranges)
    fits(full)
    return full


def _check_integers(settings: dict):
    """Raise ConfigurationError naming the first setting whose type is not int."""
    for name, value in settings.items():
        if type(value) is not int:
            raise ConfigurationError(f"{name} must be an integer")


def make_workload(name: str, seed: int = 1, **params) -> wl.Workload:
    """Build workload ``name`` of ``WORKLOADS`` (see ``_workload_params``):
    the one public way to build a workload."""
    params = _workload_params(name, seed, params)
    return wl.WORKLOADS[name][0](seed, **params)


@dataclass
class SimHandle:
    system: System
    core: CoreModel
    cache: BlockingCache
    prefetcher: PointerChasePrefetcher | None
    memory: PipelinedMemory
    workload: wl.Workload


_sweep_share = None  # while sweep runs: {key: workload} of its last build


def build_system(config: ExperimentConfig, trace=None) -> SimHandle:
    share = {} if _sweep_share is None else _sweep_share
    key = (config.workload, config.seed, config.params)
    if key not in share:
        share.clear()  # hold one workload at a time
        share[key] = make_workload(config.workload, seed=config.seed, **dict(config.params))
    workload = share[key]
    core = CoreModel(workload.program)
    cache = BlockingCache()
    memory = PipelinedMemory(config.latency)
    memory.load_image(workload.segments)
    pf = PointerChasePrefetcher() if config.topology == "alternate" else None
    sys_ = System()
    sys_.chain(core, cache, *([pf] if pf else []), memory)
    if trace is not None:
        sys_.attach_trace(trace)
    return SimHandle(sys_, core, cache, pf, memory, workload)


# counter names, built once so every counters dict shares the key strings
_CACHE_KEYS = tuple(f"cache_{f.name}" for f in fields(CacheStats))
_PF_KEYS = tuple(f"pf_{f.name}" for f in fields(PrefetchStats))


def collect_counters(handle: SimHandle) -> dict[str, int]:
    pf_stats = handle.prefetcher.stats if handle.prefetcher else PrefetchStats()
    counters = dict(zip(_CACHE_KEYS, vars(handle.cache.stats).values()))
    counters.update(zip(_PF_KEYS, vars(pf_stats).values()))
    counters["cache_downstream_requests"] = handle.cache.mem_req.transfers
    counters["mem_requests"] = handle.memory.req.transfers
    return counters


def run_experiment(config: ExperimentConfig, trace=None) -> RunStats:
    """Build the topology, run to completion, flush the cache, return stats."""
    return run_built(config, build_system(config, trace=trace))


def run_built(config: ExperimentConfig, handle: SimHandle) -> RunStats:
    """Run a system built from config to completion, flush the cache,
    return stats."""
    completed = handle.system.run_until(lambda: handle.core.done, config.max_cycles)
    if completed:
        handle.cache.flush_dirty(handle.memory.poke_line)
    return RunStats(
        config=config, cycles=handle.system.cycle, completed=completed,
        counters=collect_counters(handle),
        deadlock_states=None if completed else handle.system.state_summary())


def sweep(configs) -> list[RunStats]:
    """Run each config in order. Consecutive configs of one workload, seed
    and params share one build: no simulation changes a Workload."""
    global _sweep_share
    _sweep_share = {}
    try:
        return [run_experiment(cfg) for cfg in configs]
    finally:
        _sweep_share = None


def result_rows(results) -> tuple[list[str], list[list]]:
    """Stable column order: workload, topology, latency, cycles, speedup,
    then counters alphabetically. A row's speedup is the cycles of the
    completed baseline run of the same config over the row's cycles."""
    counter_names = sorted({k for r in results for k in r.counters})
    header = ["workload", "topology", "latency", "cycles", "speedup"] + counter_names
    base = {r.config: r.cycles for r in results
            if r.config.topology == "baseline" and r.completed}
    rows = []
    for r in results:
        c = r.config
        b = base.get(replace(c, topology="baseline"))
        rows.append([c.workload, c.topology, c.latency,
                     r.cycles if r.completed else "error:max_cycles",
                     f"{b / r.cycles:.6f}" if b and r.completed and r.cycles else ""]
                    + [r.counters[k] for k in counter_names])
    return header, rows


def report(results, format: str = "table") -> str:
    """Render results; CSV/JSON output is byte-reproducible."""
    header, rows = result_rows(results)
    if format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()
    if format == "json":
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    if format == "table":
        cells = [header] + [[str(c) for c in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                 for row in cells]
        return "\n".join(lines) + "\n"
    raise ConfigurationError(f"unknown report format {format!r}")
