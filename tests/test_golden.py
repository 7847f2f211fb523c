"""Exact-match locks: cycles, counters, final memory images and the CSV
report across the whole workload x topology x latency x seed matrix, and the
``--trace`` bytes of small runs."""

import json

from golden import make_traces
from golden.make_golden import GOLDEN, compute, render


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
