"""Shared helpers for directed tests.

Directed tests wire a device under test between a scripted source/sink pair
and a memory with ``chasesim.build_testbench`` and compare acceptance /
response cycles from their logs.
"""

from __future__ import annotations


def run_to_responses(sys_, sink, count, max_cycles=100_000):
    ok = sys_.run_until(lambda: len(sink.received) >= count, max_cycles)
    assert ok, f"expected {count} responses, got {len(sink.received)}"
    return sink.responses()


def count_steps(system):
    """Make system.step count its calls in the returned one-item list."""
    steps = [0]
    step = system.step

    def counted():
        steps[0] += 1
        step()

    system.step = counted
    return steps
