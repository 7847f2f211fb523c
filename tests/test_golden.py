"""Exact-match locks: cycles, counters, final memory images and the CSV
report across the whole workload x topology x latency x seed matrix, and the
``--trace`` bytes of small runs; ``--regen`` of either lock only appends."""

import json

import pytest

from golden import make_traces
from golden.make_golden import GOLDEN, check_or_regen, compute, locked, render


def test_matrix_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert len(got["rows"]) == len(want["rows"]) == 120
    for g, w in zip(got["rows"], want["rows"]):
        assert g == w
    assert got["csv"] == want["csv"]
    assert render(got) == GOLDEN.read_text()


def test_trace_bytes_match_golden():
    want = json.loads(make_traces.TRACES.read_text())
    got = make_traces.compute()
    assert len(got) == len(want) == 36
    for key in want:
        assert got[key] == want[key], key
    assert make_traces.render(got) == make_traces.TRACES.read_text()


def row(seed, cycles=100, image="ab", **counters):
    return {"workload": "array", "topology": "baseline", "latency": 1,
            "seed": seed, "cycles": cycles, "counters": counters,
            "image_sha256": image}


MATRIX = {"csv": "old", "rows": [row(1, hits=3), row(2, hits=4)]}
TRACES = {"array/baseline/1": "ab"}
TOOLS = {"matrix": (MATRIX, render, locked),
         "traces": (TRACES, make_traces.render, dict)}


def regen(tmp_path, tool, new):
    """Run ``--regen`` on a file that holds the tool's old document; return
    the exit code and which document, "old" or "new", the file then holds."""
    old, render_, locked_ = TOOLS[tool]
    path = tmp_path / "golden.json"
    path.write_text(render_(old))
    rc = check_or_regen(path, "golden", lambda: new, render_, locked_, ["--regen"])
    return rc, {render_(old): "old", render_(new): "new"}.get(path.read_text())


@pytest.mark.parametrize("tool, new, key", [
    ("matrix", {"csv": "new", "rows": [row(1, hits=3)]}, "array/baseline/1/2 cycles"),
    ("matrix", {"csv": "new", "rows": [row(1, 101, hits=3), row(2, hits=4)]},
     "array/baseline/1/1 cycles"),
    ("matrix", {"csv": "new", "rows": [row(1, image="cd", hits=3), row(2, hits=4)]},
     "array/baseline/1/1 image_sha256"),
    ("matrix", {"csv": "new", "rows": [row(1, hits=3), row(2, hits=5)]},
     "array/baseline/1/2 hits"),
    ("traces", {"array/baseline/1": "cd"}, "array/baseline/1"),
])
def test_regen_refuses_to_rewrite_an_existing_entry(tmp_path, capsys, tool, new, key):
    assert regen(tmp_path, tool, new) == (1, "old")
    assert capsys.readouterr().out == f"golden.json: refusing to drop or change {key}\n"


@pytest.mark.parametrize("tool, new", [
    ("matrix", {"csv": "new", "rows": [row(1, hits=3, drops=0),
                                       row(2, hits=4, drops=1), row(3, hits=0)]}),
    ("traces", {**TRACES, "array/baseline/5": "cd"}),
])
def test_regen_appends_rows_counters_and_trace_keys(tmp_path, tool, new):
    assert regen(tmp_path, tool, new) == (0, "new")
