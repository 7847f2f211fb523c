"""Benchmark synthesis: the registry of named workloads (traversal,
insertion, hashtable, hanoi, array and random token programs with their
memory images) and a flat-memory replay oracle.

Every workload is a pure function of its seed: the same parameters always
produce the same memory image and token program.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from .kernel import ConfigurationError
from .messages import CACHE_GEOMETRY, LINE_BYTES, WORD_BYTES, ZERO_LINE, line_base, word_bytes
from .core import Compute, Read, ReadCP, Token, Write, as_generator

# Classical C-library LCG; any full-period generator works here, this one is
# fixed for reproducibility.
LCG_MULT = 1103515245
LCG_INC = 12345
LCG_MOD = 2**31


class Lcg:
    """Tiny seeded PRNG: one LCG step per draw."""

    def __init__(self, seed: int):
        self.state = seed % LCG_MOD

    def next(self) -> int:
        self.state = (LCG_MULT * self.state + LCG_INC) % LCG_MOD
        return self.state

    def randrange(self, n: int) -> int:
        self.state = (LCG_MULT * self.state + LCG_INC) % LCG_MOD
        return self.state % n

    def draws(self, k: int) -> list[int]:
        """The next k states, as k ``next`` calls return them, in one loop
        over locals (the modulus is a power of two, so ``%`` is a mask)."""
        s, mult, inc, mask = self.state, LCG_MULT, LCG_INC, LCG_MOD - 1
        out = [s := (mult * s + inc) & mask for _ in range(k)]
        self.state = s
        return out


Program = Callable[[], object] | list[Token]  # Token list or generator function


@dataclass
class Workload:
    """A memory image plus a token program, ready to run. No simulation
    changes either, so ``sweep`` may run one build many times."""

    segments: list[tuple[int, bytes]]
    program: Program


# ---------------------------------------------------------------------------
# named workloads: each builder takes the seed and the parameters of its
# WORKLOADS entry, and trusts them; the registry's checks run first.


HEAD_CELL = 0x1000  # a free list's head-pointer word; its nodes follow the line
REGION_BYTES = 1 << 20  # address budget of one generated structure
LINE_WORDS = LINE_BYTES // WORD_BYTES
RANDOM_LINES = 256  # the lines of _random's region
RANDOM_MIX = (0.5, 0.2, 0.3)  # _random's read, write and read-cp shares


def _pack(words: list[int]) -> bytes:
    """An image region: 32-bit words, little-endian, packed at once."""
    return struct.pack(f"<{len(words)}I", *words)


def _free_list(seed: int, nodes: int, nodes_per_line: int,
               linked: int) -> tuple[list[int], list[tuple[int, bytes]]]:
    """Array of nodes with seeded pseudo-random linkage (a free list): the
    node addresses in list order, then the image.

    Word 0 of each node holds its successor's address (0 terminates); the
    line at HEAD_CELL is a head-pointer cell. Only the first ``linked`` nodes
    in list order are chained; the rest are an unlinked pool for insertions.
    With nodes_per_line=2, 8-byte nodes pack two per cache line (the
    spatial-locality knob).
    """
    node_words = LINE_WORDS // nodes_per_line
    rng = Lcg(seed)
    perm = list(range(nodes))
    for i, d in zip(range(nodes - 1, 0, -1), rng.draws(nodes - 1)):  # Fisher-Yates
        j = d % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    order = [HEAD_CELL + LINE_BYTES + i * node_words * WORD_BYTES for i in perm]

    # the head cell's line, then each node's successor and payload words
    words = [order[0] if linked > 0 else 0] + [0] * (LINE_WORDS - 1 + nodes * node_words)
    for k in range(linked - 1):
        words[LINE_WORDS + perm[k] * node_words] = order[k + 1]
    payload = rng.draws(nodes * (node_words - 1))
    for w in range(1, node_words):
        words[LINE_WORDS + w::node_words] = payload[w - 1::node_words - 1]
    return order, [(HEAD_CELL, _pack(words))]


def _traversal(seed: int, nodes: int, nodes_per_line: int, gap: int) -> Workload:
    """Chase a free list from head to null; each ReadCP's loaded value names
    the next node, with ``gap`` Compute cycles between nodes."""
    order, segments = _free_list(seed, nodes, nodes_per_line, nodes)

    def program():
        addr = order[0]
        while addr:
            nxt = yield ReadCP(addr)
            if gap:
                yield Compute(gap)
            addr = nxt

    return Workload(segments, program)


def _insertion(seed: int, nodes: int, nodes_per_line: int, inserts: int) -> Workload:
    """Traverse to random positions and splice the ``inserts`` pool nodes
    into a list of the other nodes, then walk the final list once; with 0
    inserts this is a pure traversal."""
    linked = nodes - inserts
    order, segments = _free_list(seed, nodes, nodes_per_line, linked)

    def program():
        rng = Lcg(seed)
        for length, new in enumerate(order[linked:], linked):
            pos = rng.randrange(length + 1)
            head = yield Read(HEAD_CELL)
            if pos == 0:
                yield Write(new, head)
                yield Write(HEAD_CELL, new)
            else:
                cur = head
                for _ in range(pos - 1):
                    cur = yield ReadCP(cur)
                succ = yield ReadCP(cur)
                yield Write(new, succ)
                yield Write(cur, new)
        cur = yield Read(HEAD_CELL)
        while cur:
            cur = yield ReadCP(cur)

    return Workload(segments, program)


def _hashtable(seed: int, buckets: int, keys: int) -> Workload:
    """Bucket array of chain heads plus lookups walking each chain."""
    base = 0x3000
    rng = Lcg(seed)
    key_vals = []
    seen = set()
    while len(key_vals) < keys:
        k = rng.next() & 0xFFFFFF
        if k and k not in seen:
            seen.add(k)
            key_vals.append(k)

    nodes_base = base + ((buckets * WORD_BYTES + LINE_BYTES - 1) & ~(LINE_BYTES - 1))
    # the bucket array of chain heads in whole lines, then one line per
    # node holding (next, key); with no keys, one empty line
    nodes_at = (nodes_base - base) // WORD_BYTES
    words = [0] * (nodes_at + max(keys, 1) * LINE_WORDS)
    for i, k in enumerate(key_vals):
        b = k % buckets
        words[nodes_at + i * LINE_WORDS] = words[b]
        words[nodes_at + i * LINE_WORDS + 1] = k
        words[b] = nodes_base + i * LINE_BYTES

    # with no inserted keys, lookups still probe (empty) bucket heads
    probe_vals = key_vals or [Lcg(seed + i).next() & 0xFFFFFF or 1
                              for i in range(buckets)]

    def program():
        for k in probe_vals:
            b = k % buckets
            ptr = yield Read(base + b * WORD_BYTES)
            while ptr:
                nxt = yield ReadCP(ptr)
                kv = yield Read(ptr + WORD_BYTES)
                yield Compute(1)  # key comparison
                if kv == k:
                    break
                ptr = nxt

    return Workload([(base, _pack(words))], program)


def _hanoi_moves(n: int, src: int, dst: int, via: int, out: list):
    if n == 0:
        return
    _hanoi_moves(n - 1, src, via, dst, out)
    out.append((src, dst))
    _hanoi_moves(n - 1, via, dst, src, out)


def _hanoi(seed: int, disks: int) -> Workload:
    """Tiny linked stacks with many revisits: the small-structure pathology.

    One initial pointer chase touches every node once; the 2^disks - 1 moves
    then relink nodes (cache hits) while streaming a move log through cache
    indices disjoint from the node lines, so the prefetcher gets no further
    pointer work but every log miss pays the extra hop. The seed is unused:
    the structure is the same for every seed.
    """
    base = 0x1000  # the nodes, then the head cell; the move log is at 0x2000

    def node_addr(i):
        return base + i * LINE_BYTES

    hp_addr = base + disks * LINE_BYTES
    words = [0] * ((disks + 1) * LINE_WORDS)  # node lines (next, disk size)
    words[0:disks * LINE_WORDS:LINE_WORDS] = [node_addr(i) for i in range(1, disks)] + [0]
    words[1:disks * LINE_WORDS:LINE_WORDS] = range(1, disks + 1)
    words[disks * LINE_WORDS] = node_addr(0)  # the head cell

    moves: list[tuple[int, int]] = []
    _hanoi_moves(disks, 0, 2, 1, moves)
    log_slots = list(range(disks + 1, CACHE_GEOMETRY.num_indices))  # indices no node uses

    def log_addr(m):  # a page is one pass over the cache's indices
        page, slot = divmod(m, len(log_slots))
        return 0x2000 + (page * CACHE_GEOMETRY.num_indices + log_slots[slot]) * LINE_BYTES

    def program():
        addr = yield ReadCP(hp_addr)  # the head cell itself holds a pointer
        while addr:
            addr = yield ReadCP(addr)
        pegs = [list(range(disks - 1, -1, -1)), [], []]  # top of stack is last
        for m, (src, dst) in enumerate(moves):
            n = pegs[src].pop()
            yield Read(node_addr(n))  # read the popped node's next pointer
            top = pegs[dst][-1] if pegs[dst] else None
            yield Write(node_addr(n), node_addr(top) if top is not None else 0)
            pegs[dst].append(n)
            yield Write(log_addr(m), m + 1)
            yield Compute(1)

    return Workload([(base, _pack(words))], program)


def _array(seed: int, elements: int, gap: int) -> Workload:
    """Dense-array read and write passes with compute gaps; zero ReadCP."""
    base = 0x4000
    region = _pack(Lcg(seed).draws(elements))

    def program():
        acc = 0
        for i in range(elements):
            v = yield Read(base + i * WORD_BYTES)
            acc = (acc + v) & 0xFFFFFFFF
            if gap:
                yield Compute(gap)
        for i in range(elements):
            yield Write(base + i * WORD_BYTES, (acc + i) & 0xFFFFFFFF)
            if gap:
                yield Compute(gap)

    return Workload([(base, region)], program)


def _random(seed: int, n: int) -> Workload:
    """Randomized read/write/read_cp token stream over a bounded region, for
    oracle-equivalence checking. ReadCP values are arbitrary words, so the
    prefetcher chases garbage pointers; coherence must still hold."""
    rng = Lcg(seed)
    region = _pack(rng.draws(RANDOM_LINES * LINE_WORDS))
    r_cut, w_cut = RANDOM_MIX[0], RANDOM_MIX[0] + RANDOM_MIX[1]
    # the region's word addresses, built once: tokens share one int an address
    addrs = [WORD_BYTES * i for i in range(RANDOM_LINES * LINE_WORDS)]
    tokens: list[Token] = []
    for _ in range(n):
        addr = addrs[rng.randrange(RANDOM_LINES * LINE_WORDS)]
        p = rng.next() / LCG_MOD
        if p < r_cut:
            tokens.append(Read(addr))
        elif p < w_cut:
            tokens.append(Write(addr, rng.next()))
        else:
            tokens.append(ReadCP(addr))
    return Workload([(0, region)], tokens)


# ---------------------------------------------------------------------------
# registry


def check_ranges(params: dict, ranges: dict):
    """Raise ConfigurationError for the first parameter outside its
    inclusive (low, high) range in ``ranges``; a high of None is unbounded."""
    for name, (_, low, high) in ranges.items():
        value = params[name]
        if value < low or (high is not None and value > high):
            bound = (f">= {low}" if high is None else f"{low} or {high}"
                     if high == low + 1 else f"in {low}..{high}")
            raise ConfigurationError(f"{name} must be {bound}")


def _free_list_fits(params: dict):
    if LINE_BYTES + params["nodes"] * (LINE_BYTES // params["nodes_per_line"]) > REGION_BYTES:
        raise ConfigurationError("nodes exceed the address budget")


def _insertion_fits(params: dict):
    _free_list_fits(params)
    if params["inserts"] > params["nodes"]:
        raise ConfigurationError("not enough pool nodes for the requested inserts")


def _hashtable_fits(params: dict):
    # _hashtable's region: the bucket array in whole lines, one line per key
    bucket_lines = -(-params["buckets"] * WORD_BYTES // LINE_BYTES)
    if (bucket_lines + max(params["keys"], 1)) * LINE_BYTES > REGION_BYTES:
        raise ConfigurationError("buckets and keys exceed the address budget")


def _array_fits(params: dict):
    if params["elements"] * WORD_BYTES > REGION_BYTES:
        raise ConfigurationError("elements exceed the address budget")


def _always_fits(params: dict):
    pass


# name -> (builder(seed, **params), {param: (default, low, high)}, fits(params)).
# This is the only declaration of a workload parameter: configs and
# make_workload fill unset parameters with its default, the command line
# makes it a flag, and check_ranges then fits (the checks that involve more
# than one parameter) run on the filled-in parameters, so a bad size fails
# before anything is built.
WORKLOADS: dict[str, tuple[Callable[..., Workload], dict, Callable[[dict], None]]] = {
    "traversal": (_traversal, {"nodes": (64, 1, None), "nodes_per_line": (1, 1, 2),
                               "gap": (0, 0, None)}, _free_list_fits),
    "insertion": (_insertion, {"nodes": (64, 1, None), "nodes_per_line": (1, 1, 2),
                               "inserts": (8, 0, None)}, _insertion_fits),
    # distinct nonzero 24-bit keys
    "hashtable": (_hashtable, {"buckets": (16, 1, None), "keys": (64, 0, 0xFFFFFF)},
                  _hashtable_fits),
    "hanoi": (_hanoi, {"disks": (6, 1, 10)}, _always_fits),
    "array": (_array, {"elements": (256, 0, None), "gap": (2, 0, None)}, _array_fits),
    "random": (_random, {"n": (10000, 0, None)}, _always_fits),
}
# every parameter name of the registry, in first-declared order
PARAMS = dict.fromkeys(k for _, ranges, _ in WORKLOADS.values() for k in ranges)


# ---------------------------------------------------------------------------
# flat-memory replay oracle


class FlatMemory:
    """Zero-latency word-addressed reference memory."""

    def __init__(self, segments=()):
        self.words: dict[int, int] = {}
        for addr, data in segments:
            for i in range(0, len(data), WORD_BYTES):
                self.words[addr + i] = int.from_bytes(data[i:i + 4], "little")

    def read_word(self, addr: int) -> int:
        return self.words.get(addr & ~3, 0)

    def write_word(self, addr: int, value: int):
        self.words[addr & ~3] = value & 0xFFFFFFFF

    def lines(self) -> dict[int, bytes]:
        """Non-zero 16-byte lines, for image comparison."""
        out: dict[int, bytearray] = {}
        for addr, val in self.words.items():
            if val == 0:
                continue
            b = out.setdefault(line_base(addr), bytearray(ZERO_LINE))
            b[addr % LINE_BYTES:addr % LINE_BYTES + 4] = word_bytes(val)
        return {a: bytes(d) for a, d in out.items() if d != ZERO_LINE}


def replay_program(program, segments) -> tuple[list[tuple[int, int]], FlatMemory]:
    """Run a token program against flat memory: the independent oracle for
    load values and the final image."""
    flat = FlatMemory(segments)
    gen = as_generator(program)
    loads = []
    value = None
    while True:
        try:
            tok = gen.send(value)
        except StopIteration:
            return loads, flat
        if isinstance(tok, (Read, ReadCP)):
            value = flat.read_word(tok.addr)
            loads.append((tok.addr, value))
        elif isinstance(tok, Write):
            flat.write_word(tok.addr, tok.value)
            value = None
        else:
            value = None

