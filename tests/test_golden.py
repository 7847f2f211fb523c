"""Exact-match lock on cycles, counters, final memory images and the CSV
report across the whole workload x topology x latency x seed matrix."""

import json

from golden.make_golden import GOLDEN, compute, render


def test_matrix_matches_golden():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert len(got["rows"]) == len(want["rows"]) == 120
    for g, w in zip(got["rows"], want["rows"]):
        assert g == w
    assert got["csv"] == want["csv"]
    assert render(got) == GOLDEN.read_text()
