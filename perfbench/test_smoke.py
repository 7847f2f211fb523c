"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.05", "--scale", "0.02"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), *TINY],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']} = {got['value']} {m['unit']}" in lines


def corrupted_oracle(program, segments):
    """replay_program with its first expected load value flipped."""
    loads, flat = run.replay_program(program, segments)
    if loads:
        addr, value = loads[0]
        loads[0] = (addr, value ^ 1)
    return loads, flat


@pytest.mark.parametrize("workload", ["mixed", "paper_sweep"])
def test_corrupted_oracle_counts_as_failed(workload):
    result, _ = run.measure(workload, seed=3, seconds=0.05, trace=False, scale=0.02,
                            oracle=corrupted_oracle)
    assert result["correct"] is False
    assert result["failed"] >= 1
    # every simulation issues loads here, so every one must be flagged
    assert result["failed"] == result["attempted"]


def test_reference_slices_are_checked_and_kept_off_the_clock():
    assert reference.run(reference.N_OPS) == reference.RESULT
    first = len(reference.samples)
    with reference.sampling():
        t0, c0 = run.perf_counter(), reference.clock()
        while run.perf_counter() - t0 < 0.3:
            pass
        wall, clocked = run.perf_counter() - t0, reference.clock() - c0
    taken = reference.samples[first:]
    assert taken and not reference.bad
    assert wall - clocked >= sum(taken)
