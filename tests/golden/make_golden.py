"""Golden matrix: the exact results every refactor must keep.

For each workload x topology x latency x seed it records the cycle count,
every ``collect_counters`` value and the sha256 of the final memory image
(after ``flush_dirty``), plus the ``report(..., "csv")`` bytes of the whole
matrix. ``tests/test_golden.py`` compares a fresh run with ``matrix.json``.

    PYTHONPATH=src python3 tests/golden/make_golden.py          # check only
    PYTHONPATH=src python3 tests/golden/make_golden.py --regen  # append

Regenerate only for a change that is meant to alter simulated results, and
say why in CHANGES.md. ``--regen`` only appends: it adds new rows and new
counters and recomputes the CSV, but it exits 1 without writing if an
existing row is gone or its cycles, image hash or a counter changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import chasesim
from chasesim import build_system, make_config, report
from chasesim.harness import TOPOLOGIES, RunStats, run_built
from chasesim.memory import dump_image

GOLDEN = Path(__file__).resolve().parent / "matrix.json"

WORKLOADS = tuple(chasesim.WORKLOADS)  # in registry order
LATENCIES = (1, 2, 5, 10, 40)
SEEDS = (1, 2)
# command-line default sizes, except the 10 000-token random stream
PARAMS = {"random": {"n": 300}}


def configs():
    return [make_config(topo, lat, name, seed=seed, **PARAMS.get(name, {}))
            for name in WORKLOADS for topo in TOPOLOGIES
            for lat in LATENCIES for seed in SEEDS]


def run_row(config) -> tuple[dict, RunStats]:
    """Run config through the shipped path (``build_system``, then
    ``run_built``); the image is read after its flush."""
    handle = build_system(config)
    stats = run_built(config, handle)
    if not stats.completed:
        raise RuntimeError(f"{config} did not complete")
    image = dump_image(handle.memory.store).encode()
    row = {"workload": config.workload, "topology": config.topology,
           "latency": config.latency, "seed": config.seed,
           "cycles": stats.cycles, "counters": stats.counters,
           "image_sha256": hashlib.sha256(image).hexdigest()}
    return row, stats


def compute() -> dict:
    rows, stats = zip(*(run_row(c) for c in configs()))
    return {"rows": list(rows), "csv": report(list(stats), "csv")}


def render(matrix: dict) -> str:
    """JSON with one row per line, so a diff names the rows that changed."""
    rows = ",\n".join(json.dumps(r, sort_keys=True) for r in matrix["rows"])
    return f'{{"csv": {json.dumps(matrix["csv"])},\n"rows": [\n{rows}\n]}}\n'


def locked(matrix: dict) -> dict:
    """The values ``--regen`` may not change, by ``<row key> <field>``."""
    out = {}
    for r in matrix["rows"]:
        key = f'{r["workload"]}/{r["topology"]}/{r["latency"]}/{r["seed"]}'
        out[f"{key} cycles"] = r["cycles"]
        out[f"{key} image_sha256"] = r["image_sha256"]
        for name, value in r["counters"].items():
            out[f"{key} {name}"] = value
    return out


def first_rewrite(old: dict, new: dict) -> str | None:
    """The first key of old whose value new drops or changes, else None."""
    return next((k for k, v in old.items() if k not in new or new[k] != v), None)


def check_or_regen(path: Path, doc: str, compute, render, locked,
                   argv=None) -> int:
    """Command line of a golden script: compare ``render(compute())`` with
    the file at ``path``, or, with ``--regen``, rewrite the file unless that
    would drop or change one of its ``locked`` values."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--regen", action="store_true",
                        help=f"append new entries to {path.name}")
    args = parser.parse_args(argv)
    new = compute()
    text = render(new)
    if args.regen:
        if path.is_file():
            key = first_rewrite(locked(json.loads(path.read_text())), locked(new))
            if key is not None:
                print(f"{path.name}: refusing to drop or change {key}")
                return 1
        path.write_text(text)
        print(f"wrote {path}")
        return 0
    if path.is_file() and path.read_text() == text:
        print(f"{path.name}: unchanged")
        return 0
    print(f"{path.name}: differs from the current tree (use --regen to append)")
    return 1


if __name__ == "__main__":
    sys.exit(check_or_regen(GOLDEN, __doc__, compute, render, locked))
