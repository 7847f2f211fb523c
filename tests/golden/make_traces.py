"""Trace lock: the sha256 of the ``--trace`` bytes of small runs.

For each workload x topology x latency it records the sha256 of the per-cycle
trace that ``run_experiment`` writes (the bytes ``chasesim run --trace``
writes), so a change to any cycle's component states or transfers shows.
``tests/test_golden.py`` compares a fresh run with ``traces.json``.

    PYTHONPATH=src python3 tests/golden/make_traces.py          # check only
    PYTHONPATH=src python3 tests/golden/make_traces.py --regen  # append

Regenerate only for a change that is meant to alter simulated results, and
say why in CHANGES.md. ``--regen`` only appends: it adds new keys, but it
exits 1 without writing if an existing digest is gone or changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

from chasesim import make_config, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_golden import TOPOLOGIES, WORKLOADS, check_or_regen  # noqa: E402

TRACES = Path(__file__).resolve().parent / "traces.json"

LATENCIES = (1, 5, 40)
SMALL = {"traversal": {"nodes": 16, "gap": 5}, "insertion": {"nodes": 16, "inserts": 4},
         "hashtable": {"buckets": 4, "keys": 16}, "hanoi": {"disks": 3},
         "array": {"elements": 32}, "random": {"n": 200}}


def compute() -> dict[str, str]:
    """``"<workload>/<topology>/<latency>"`` -> sha256 of its trace bytes."""
    out = {}
    for name in WORKLOADS:
        for topo in TOPOLOGIES:
            for lat in LATENCIES:
                buf = io.StringIO()
                stats = run_experiment(make_config(topo, lat, name, **SMALL[name]),
                                       trace=buf)
                if not stats.completed:
                    raise RuntimeError(f"{name}/{topo}/{lat} did not complete")
                digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
                out[f"{name}/{topo}/{lat}"] = digest
    return out


def render(traces: dict[str, str]) -> str:
    return json.dumps(traces, indent=1) + "\n"


if __name__ == "__main__":
    sys.exit(check_or_regen(TRACES, __doc__, compute, render, dict))
