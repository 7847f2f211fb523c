"""Closed-form timing oracle: a run's cycle count from its access stream.

The core blocks on each access, and in the full system no channel ever
stalls, so a run's cycles are a sum of per-access costs. Replaying a program
through a direct-mapped, write-back, write-allocate tag store (values come
from ``FlatMemory``) counts:

- C: Compute cycles;
- H: cache hits;
- Mc: misses whose victim line is invalid or clean;
- Md: misses that evict a dirty line first.

With memory latency L, B prefetch-buffer hits and W cycles the prefetcher
spends waiting on a pending fill:

- baseline cycles  = C + 3H + (5+L)·Mc + (6+2L)·Md
- alternate cycles = C + 3H + (6+L)·Mc + (8+2L)·Md − L·B + W

A hit is the core's request, the tag check and the read or write response.
A miss adds the refill request, L cycles in memory, the refill update and,
with a dirty victim, the eviction's request and its L cycles. The prefetcher
adds its own tag check to each request it forwards to memory, and a buffer
hit answers in place of memory's L cycles. This module is written from those
descriptions and imports no component, so it checks the simulator instead of
repeating it.
"""

from __future__ import annotations

from dataclasses import dataclass

from chasesim import LINE_BYTES, Compute, FlatMemory, Write
from chasesim.core import as_generator


@dataclass(frozen=True)
class Timing:
    compute: int       # C
    hits: int          # H
    clean_misses: int  # Mc
    dirty_misses: int  # Md

    def baseline(self, latency: int) -> int:
        return (self.compute + 3 * self.hits + (5 + latency) * self.clean_misses
                + (6 + 2 * latency) * self.dirty_misses)

    def alternate(self, latency: int, buffer_hits: int, wait_cycles: int) -> int:
        return (self.compute + 3 * self.hits + (6 + latency) * self.clean_misses
                + (8 + 2 * latency) * self.dirty_misses
                - latency * buffer_hits + wait_cycles)


def timing(program, segments, lines: int = 16) -> Timing:
    """Replay program against flat memory through a cache of ``lines``
    direct-mapped lines of LINE_BYTES each; count C, H, Mc and Md."""
    flat = FlatMemory(segments)
    tags: list[int | None] = [None] * lines  # None: the line is invalid
    dirty = [False] * lines
    compute = hits = clean = evicting = 0
    gen = as_generator(program)
    value = None
    while True:
        try:
            tok = gen.send(value)
        except StopIteration:
            return Timing(compute, hits, clean, evicting)
        value = None
        if isinstance(tok, Compute):
            compute += max(tok.cycles, 0)
            continue
        line = tok.addr // LINE_BYTES
        idx, tag = line % lines, line // lines
        if tags[idx] == tag:
            hits += 1
        else:
            if dirty[idx]:
                evicting += 1
            else:
                clean += 1
            tags[idx], dirty[idx] = tag, False
        if isinstance(tok, Write):
            dirty[idx] = True
            flat.write_word(tok.addr, tok.value)
        else:
            value = flat.read_word(tok.addr)
