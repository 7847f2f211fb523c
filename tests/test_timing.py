"""Cycle counts against the closed form of ``timing_model``: a drawn
property over every workload and the random and pointer streams, and every
golden row the form covers without the prefetcher's wait cycles (W)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasesim import WORKLOADS, make_workload
from conftest import mixes, per_call_random, pointer_stream, run_program
from golden.make_golden import GOLDEN, PARAMS
from timing_model import timing

KINDS = ("read", "write", "readcp")


def cache_terms(counts: dict, prefix: str = "") -> tuple[int, int, int]:
    """(H, Mc, Md) from the cache's counters, named ``<prefix>read_hits``
    and so on; every dirty-victim miss counts one eviction."""
    hits = sum(counts[f"{prefix}{k}_hits"] for k in KINDS)
    misses = sum(counts[f"{prefix}{k}_misses"] for k in KINDS)
    evictions = counts[f"{prefix}evictions"]
    return hits, misses - evictions, evictions


# small sizes, so that an example simulates at most a few thousand cycles;
# random's stream is per_call_random's, over a drawn region and mix
SIZES = {
    "traversal": {"nodes": st.integers(1, 24), "nodes_per_line": st.sampled_from((1, 2)),
                  "gap": st.integers(0, 4)},
    "insertion": {"nodes": st.integers(8, 20), "nodes_per_line": st.sampled_from((1, 2)),
                  "inserts": st.integers(0, 8)},
    "hashtable": {"buckets": st.integers(1, 8), "keys": st.integers(0, 16)},
    "hanoi": {"disks": st.integers(1, 4)},
    "array": {"elements": st.integers(0, 40), "gap": st.integers(0, 3)},
    "random": {"n": st.integers(0, 60), "lines": st.integers(4, 64), "mix": mixes()},
}


@st.composite
def programs(draw):
    """(program, segments) of a workload or a pointer stream at a drawn seed."""
    seed = draw(st.integers(-2**40, 2**40))
    kind = draw(st.sampled_from(sorted(WORKLOADS) + ["pointer stream"]))
    if kind == "pointer stream":
        return pointer_stream(draw(st.integers(0, 60)), seed, draw(st.integers(17, 32)),
                              draw(st.floats(0, 1)), draw(st.floats(0, 1)))
    build = per_call_random if kind == "random" else WORKLOADS[kind][0]
    w = build(seed, **draw(st.fixed_dictionaries(SIZES[kind])))
    return w.program, w.segments


def buffer_hits(counts: dict, prefix: str = "") -> int:
    """B: demands the prefetch buffer answered."""
    return counts[f"{prefix}read_hits"] + counts[f"{prefix}readcp_hits"]


@settings(max_examples=100, deadline=None)
@given(program=programs(), latency=st.integers(1, 64))
def test_cycles_equal_the_closed_form(program, latency):
    # the alternate sum only without buffer hits: W, the cycles spent
    # waiting on a pending fill, is no counter yet, and with B = 0 it is 0
    t = timing(*program)
    terms = (t.hits, t.clean_misses, t.dirty_misses)
    system, _ = run_program("baseline", *program, latency=latency)
    assert cache_terms(vars(system.components[1].stats)) == terms
    assert system.cycle == t.baseline(latency)
    system, _ = run_program("alternate", *program, latency=latency)
    _, cache, pf, _ = system.components
    assert cache_terms(vars(cache.stats)) == terms
    if buffer_hits(vars(pf.stats)) == 0:
        assert system.cycle == t.alternate(latency, 0, 0)


def golden_rows():
    """The golden matrix's rows, grouped by (workload, seed): one build each."""
    groups = {}
    for r in json.loads(GOLDEN.read_text())["rows"]:
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    return groups


GOLDEN_ROWS = golden_rows()


@pytest.mark.parametrize("workload, seed", sorted(GOLDEN_ROWS),
                         ids=[f"{w}-{s}" for w, s in sorted(GOLDEN_ROWS)])
def test_golden_rows_equal_the_closed_form(workload, seed):
    # test_golden.py holds each row to a fresh run, so this holds the runs
    # to the closed form: every baseline row, and the alternate rows with B = 0
    w = make_workload(workload, seed, **PARAMS.get(workload, {}))
    t = timing(w.program, w.segments)
    for r in GOLDEN_ROWS[workload, seed]:
        c = r["counters"]
        assert cache_terms(c, "cache_") == (t.hits, t.clean_misses, t.dirty_misses)
        if r["topology"] == "baseline":
            assert r["cycles"] == t.baseline(r["latency"]), r
        elif buffer_hits(c, "pf_") == 0:
            assert r["cycles"] == t.alternate(r["latency"], 0, 0), r
