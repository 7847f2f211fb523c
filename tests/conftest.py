"""Shared helpers for directed tests.

Directed tests wire a device under test between a scripted source/sink pair
and a memory with ``chasesim.build_testbench`` and compare acceptance /
response cycles from their logs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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


def raised_optimized(snippet: str) -> str:
    """Run snippet in a fresh ``python -O``, where assert statements are
    stripped; return ``"<ExceptionType>: <message>"`` of what it raised, or
    ``""`` if it raised nothing."""
    code = ("if __debug__:\n    raise SystemExit('asserts are not stripped')\n"
            "try:\n" + textwrap.indent(textwrap.dedent(snippet), "    ") +
            "\nexcept Exception as e:\n    print(f'{type(e).__name__}: {e}')\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()
