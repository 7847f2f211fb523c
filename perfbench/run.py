"""chasesim benchmark: host speed and exact simulated cycles.

    python3 perfbench/run.py --workload chase --seed 1 --seconds 20 --trace 0

Runs one workload's simulations (both topologies) in this process, over and
over for ``--seconds`` seconds, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they
are its per-layer ones, from a separate traced pass (``probes.Tracer``), and
the spans are written to ``perfbench/out/``.

Every simulation is checked against the flat-memory oracle
(``replay_program``): it must complete, and its load values and final memory
image must match. Every repetition's CSV report must equal the first one's,
traced or not. Each mismatch counts as one failed simulation.

Host times (``wall_s``, ``kcycles_per_s``, ``setup_s``) are scaled to the
speed of the host the benchmark was defined on: while a workload runs,
``reference.sampling`` times a fixed kernel every 50 ms, and each
repetition's times are multiplied by ``reference.NOMINAL_S`` over the mean
kernel time during it. The host's speed drifts by up to 1.8x within seconds;
the scaled times do not. The raw median is printed in the ``meta`` line.

Modelled caches start empty (cold) in every simulation. The repository holds
no reference measurements, so the model is unvalidated and no error figure is
reported. The simulator is driven only through its public functions; the
hooks that time it live in ``probes.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "chasesim" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: chasesim sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from chasesim import cli, harness, make_config, replay_program  # noqa: E402

import reference  # noqa: E402
from probes import COMPONENTS, Probe, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOPOLOGIES = ("baseline", "alternate")
SWEEP_WORKLOADS = ("traversal", "array", "hanoi", "hashtable", "insertion")
SWEEP_LATENCIES = (2, 5, 10, 20, 40)


def _direct(workload, latency, seed, **params):
    """Both topologies of one configuration, run through ``run_experiment``."""
    configs = [make_config(t, latency, workload, seed=seed, **params)
               for t in TOPOLOGIES]

    def unit(probe):
        return harness.report([harness.run_experiment(c) for c in configs], "csv")
    return len(configs), unit


def _paper_sweep(seed, size):
    """The paper's latency sweep through the command line, in process, with
    the command line's default sizes."""
    argv = ["sweep", "--workloads", ",".join(SWEEP_WORKLOADS),
            "--latencies", ",".join(map(str, SWEEP_LATENCIES)),
            "--format", "csv", "--seed", str(seed),
            "--nodes", size(64, 12), "--inserts", size(8, 2),
            "--elements", size(256, 8), "--disks", size(6, 3),
            "--buckets", size(16, 2), "--keys", size(64, 4)]
    argv = [str(a) for a in argv]

    def unit(probe):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            probe.failures.append(f"chasesim sweep exited with {rc}")
        return out.getvalue()
    return len(SWEEP_WORKLOADS) * len(SWEEP_LATENCIES) * len(TOPOLOGIES), unit


def make_unit(name: str, seed: int, scale: float = 1.0):
    """(simulations per unit, unit). ``unit(probe)`` runs all of a workload's
    simulations once and returns their CSV report."""
    def size(base, low):
        return max(low, round(base * scale))
    if name == "chase":
        # 16 B nodes, one per line: the list dwarfs the 256 B cache
        return _direct("traversal", 40, seed, nodes=size(1000, 8), gap=12)
    if name == "mixed":
        # test_01_coherence_oracle's stream: 50/20/30 read/write/read-cp
        return _direct("random", 4, seed, n=size(10_000, 50))
    if name == "dense":
        return _direct("array", 10, seed, elements=size(2048, 16))
    if name == "paper_sweep":
        return _paper_sweep(seed, size)
    raise ValueError(f"unknown workload {name!r}")


def _ratio(num, den) -> float:
    """num / den, or 0.0 when nothing was counted (den == 0)."""
    return num / den if den else 0.0


def exact_metrics(rep) -> dict[str, float]:
    """Simulated results of one unit: identical on every repetition."""
    alt = {s.key: s.cycles for s in rep.sims if s.alternate}
    base = {s.key: s.cycles for s in rep.sims if not s.alternate}
    speedups = [base[k] / alt[k] for k in alt]
    return {"sim_cycles": sum(alt.values()),
            "pf_speedup": math.exp(statistics.fmean(map(math.log, speedups)))}


def end_to_end(reps) -> dict[str, float]:
    def med(f):
        return statistics.median(f(r) for r in reps)
    return {"wall_s": med(lambda r: scaled(r, r.wall_s)),
            "kcycles_per_s": med(lambda r: r.total_cycles / 1000 / scaled(r, r.loop_s)),
            "setup_s": med(lambda r: scaled(r, r.setup_s)),
            # this process runs one workload only, so its peak is that workload's
            "peak_mem_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **exact_metrics(reps[-1])}


def per_layer(traced, untraced) -> dict[str, float]:
    """Per-layer metrics: host times are medians over traced repetitions;
    counts come from the simulations themselves and repeat exactly."""
    def med(key):
        return statistics.median(r.layers.get(key, 0.0) for r in traced)

    lay, sims = traced[-1].layers, traced[-1].sims

    def total(counter, alternate=None):
        return sum(s.counters[counter] for s in sims
                   if alternate is None or s.alternate == alternate)

    comp_s = sum(med(f"{c}.{m}") for c in COMPONENTS for m in ("eval", "tick"))
    evals = sum(lay[f"{c}.eval.calls"] for c in COMPONENTS)
    ticks = sum(lay[f"{c}.tick.calls"] for c in COMPONENTS)
    hits = sum(total(f"cache_{k}_hits") for k in ("read", "write", "readcp"))
    misses = sum(total(f"cache_{k}_misses") for k in ("read", "write", "readcp"))
    useful = total("pf_useful_prefetch_hits", True)
    out = {
        "kernel.step_s": med("kernel.step"),
        "kernel.settle_passes": _ratio(evals, ticks),
        "kernel.commit_s": med("kernel.step") - comp_s,
        "kernel.quiescent_frac": _ratio(lay["kernel.quiescent"], lay["kernel.cycles"]),
        "kernel.transfers": sum(s.transfers for s in sims),
        "core.wait_frac": _ratio(lay["core.wait"], lay["core.tick.calls"]),
        "cache.hit_rate": _ratio(hits, hits + misses),
        "cache.evictions": total("cache_evictions"),
        "prefetcher.accuracy": _ratio(useful, total("pf_prefetch_fills", True)),
        "prefetcher.coverage": _ratio(useful, total("cache_readcp_misses", False)),
        "prefetcher.drop_ratio": _ratio(total("pf_prefetches_dropped", True),
                                        total("pf_prefetches_issued", True)),
        "prefetcher.extra_mem_requests": (total("mem_requests", True)
                                          - total("mem_requests", False)),
        "memory.requests": total("mem_requests"),
        "memory.occupancy": _ratio(lay["memory.occupancy"], lay["memory.tick.calls"]),
        "memory.resp_stall_cycles": lay["memory.resp_stall"],
        "messages.requests_built": lay["messages.requests_built"],
        "messages.requests_per_transfer": _ratio(lay["messages.requests_built"],
                                                 sum(s.req_transfers for s in sims)),
        "workloads.build_s": med("workloads.make_workload.self_s"),
        "workloads.replay_s": med("workloads.replay_program.self_s"),
        "harness.build_system_s": med("harness.build_system.self_s"),
        "harness.flush_s": med("harness.flush_dirty.self_s"),
        "harness.report_s": med("harness.report.self_s"),
        "cli.overhead_s": med("cli.main.self_s"),
        "trace.overhead": (statistics.median(scaled(r, r.wall_s) for r in traced)
                           / statistics.median(scaled(r, r.wall_s) for r in untraced)),
    }
    for comp in COMPONENTS:
        for m in ("eval", "tick"):
            out[f"{comp}.{m}_s"] = med(f"{comp}.{m}")
    return out


def repeat(run, unit, seconds: float) -> list:
    """Run units until ``seconds`` of wall time have been spent (at least one).
    Each unit's ``ref_s`` is the mean reference slice time while it ran (the
    last slice before it, if it was too short to be interrupted)."""
    reps, t0 = [], perf_counter()
    while not reps or perf_counter() - t0 < seconds:
        gc.collect()
        first = len(reference.samples)
        rep = run(unit)
        during = reference.samples[first:] or reference.samples[-1:]
        rep.ref_s = statistics.fmean(during) if during else reference.NOMINAL_S
        reps.append(rep)
    return reps


def scaled(rep, seconds: float) -> float:
    """Host seconds of ``rep`` at the defining host's speed."""
    return seconds * reference.NOMINAL_S / rep.ref_s


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, oracle=replay_program) -> tuple[dict, dict]:
    """Run one workload: (the result object the benchmark prints, run metadata)."""
    sims_per_unit, unit = make_unit(workload, seed, scale)
    probe = Probe(oracle)
    traced = []
    with contextlib.ExitStack() as stack:
        probe.install(stack)
        stack.enter_context(reference.sampling())
        first = probe.run(unit)  # warm-up: checked, but dropped from the timings
        untraced = repeat(probe.run, unit, seconds / 2 if trace else seconds)
        if trace:
            tracer = Tracer(probe)
            tracer.install(stack)
            traced = repeat(tracer.run, unit, seconds / 2)
            tracer.write(ROOT / "perfbench" / "out" / f"spans-{workload}-seed{seed}.json")
    reps = [first, *untraced, *traced]
    for i, rep in enumerate(reps):
        if rep.csv != first.csv:
            probe.failures.append(f"repetition {i}: CSV report differs from the first")
        if len(rep.sims) != sims_per_unit:
            probe.failures.append(f"repetition {i}: {len(rep.sims)} of "
                                  f"{sims_per_unit} simulations finished")
    if reference.bad:
        probe.failures.append(f"reference kernel returned {reference.bad[0]}")
    if trace:
        values, declared = per_layer(traced, untraced), SPEC["per_layer"]
    else:
        values, declared = end_to_end(untraced), SPEC["end_to_end"]
    result = {"correct": not probe.failures, "attempted": probe.attempted,
              "failed": len(probe.failures),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    meta = {"workload": workload, "seed": seed, "repetitions": len(reps),
            "src_lines": src_lines(), "caches": "cold", "model": "unvalidated",
            "raw_wall_s": statistics.median(r.wall_s for r in untraced),
            "host_speed": statistics.median(reference.NOMINAL_S / r.ref_s
                                            for r in untraced),
            "failures": probe.failures[:10]}
    return result, meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload size factor (smaller for smoke tests)")
    args = p.parse_args(argv)
    result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.scale)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    print(f"sims_failed {result['failed']} of sims_attempted {result['attempted']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
