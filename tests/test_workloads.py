"""Workloads, built through make_workload, and the flat-replay oracle."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasesim import (WORKLOADS, Compute, ConfigurationError, FlatMemory, Lcg,
                      Read, ReadCP, Write, replay_program)
from chasesim.harness import make_config, make_workload
from chasesim.messages import LINE_BYTES, WORD_BYTES, line_base
from chasesim.workloads import (HEAD_CELL, LCG_MOD, LINE_WORDS, RANDOM_LINES,
                                RANDOM_MIX, REGION_BYTES, _array, _free_list, _random,
                                check_ranges)
from conftest import per_call_random, tokens_of


# -- LCG --


def test_lcg_known_values():
    rng = Lcg(1)
    assert rng.next() == 1103527590
    assert rng.next() == (1103515245 * 1103527590 + 12345) % 2**31
    assert Lcg(0).next() == 12345
    # the seed is reduced mod 2**31 first: the same step as on the raw seed
    for seed in (-7, 2**31 + 3, 2**40 - 1):
        assert Lcg(seed).next() == (1103515245 * seed + 12345) % 2**31


def test_lcg_wrapper_deterministic():
    a, b = Lcg(42), Lcg(42)
    assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]
    assert all(0 <= Lcg(7).randrange(13) < 13 for _ in range(5))


# seeds below 0 and at or above 2**31 are reduced mod 2**31 first
SEEDS = st.one_of(st.integers(-2**40, -1), st.integers(0, LCG_MOD - 1),
                  st.integers(LCG_MOD, 2**64))


@given(seed=SEEDS, k=st.integers(0, 200))
def test_draws_equal_as_many_next_calls(seed, k):
    a, b = Lcg(seed), Lcg(seed)
    assert a.draws(k) == [b.next() for _ in range(k)]
    assert a.state == b.state


# -- free list --


def node_addr(i, node_size=LINE_BYTES):
    """Address of free-list node i: the nodes follow the head cell's line."""
    return HEAD_CELL + LINE_BYTES + i * node_size


def test_free_list_chain_visits_every_node():
    w = make_workload("traversal", seed=3, nodes=16)
    flat = FlatMemory(w.segments)
    seen = []
    addr = flat.read_word(HEAD_CELL)
    while addr:
        seen.append(addr)
        addr = flat.read_word(addr)
    assert len(seen) == 16
    assert set(seen) == {node_addr(i) for i in range(16)}


def test_free_list_single_node_terminates():
    w = make_workload("traversal", seed=1, nodes=1)
    flat = FlatMemory(w.segments)
    head = flat.read_word(HEAD_CELL)
    assert head == node_addr(0)
    assert flat.read_word(head) == 0


def test_free_list_partial_linkage_and_pool():
    # insertion chains nodes - inserts nodes and leaves the rest unlinked
    w = make_workload("insertion", seed=2, nodes=10, inserts=4)
    flat = FlatMemory(w.segments)
    chain, addr = [], flat.read_word(HEAD_CELL)
    while addr:
        chain.append(addr)
        addr = flat.read_word(addr)
    assert len(chain) == 6
    pool = {node_addr(i) for i in range(10)} - set(chain)
    assert len(pool) == 4
    assert all(flat.read_word(a) == 0 for a in pool)


def test_free_list_two_nodes_per_line_coresidency():
    w = make_workload("traversal", seed=1, nodes=64, nodes_per_line=2)
    flat = FlatMemory(w.segments)
    chain = []
    addr = flat.read_word(HEAD_CELL)
    while addr:
        chain.append(addr)
        addr = flat.read_word(addr)
    assert len(chain) == 64
    assert set(chain) == {node_addr(i, node_size=8) for i in range(64)}
    # two nodes pack into each 16-byte line, halving the footprint
    distinct_lines = {line_base(a) for a in chain}
    assert len(distinct_lines) == 32


def pack(words):
    return struct.pack(f"<{len(words)}I", *words)


def per_call_free_list(seed, nodes, nodes_per_line, linked):
    """``_free_list`` with one Lcg call per draw, node by node: the
    reference its single-pass draws must equal."""
    node_words = LINE_WORDS // nodes_per_line
    rng = Lcg(seed)
    perm = list(range(nodes))
    for i in range(nodes - 1, 0, -1):  # Fisher-Yates
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    order = [node_addr(i, node_words * WORD_BYTES) for i in perm]
    successor = {perm[k]: order[k + 1] for k in range(linked - 1)}
    words = [order[0] if linked > 0 else 0] + [0] * (LINE_WORDS - 1)
    for i in range(nodes):  # the nodes in address order
        words.append(successor.get(i, 0))
        words.extend(rng.next() for _ in range(node_words - 1))
    return order, [(HEAD_CELL, pack(words))]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, nodes=st.integers(1, 80), nodes_per_line=st.sampled_from((1, 2)),
       data=st.data())
def test_free_list_equals_its_per_call_reference(seed, nodes, nodes_per_line, data):
    linked = data.draw(st.integers(0, nodes))
    assert (_free_list(seed, nodes, nodes_per_line, linked)
            == per_call_free_list(seed, nodes, nodes_per_line, linked))


def test_free_list_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        make_workload("traversal", nodes=0)
    with pytest.raises(ConfigurationError):
        make_workload("traversal", nodes=4, nodes_per_line=3)
    with pytest.raises(ConfigurationError):
        make_workload("traversal", nodes=70_000)


# -- traversal --


def test_traversal_token_shape():
    w = make_workload("traversal", seed=1, nodes=8, gap=3)
    prog, toks = tokens_of(w.program)
    replay_program(prog, w.segments)
    reads = [t for t in toks if isinstance(t, ReadCP)]
    comps = [t for t in toks if isinstance(t, Compute)]
    assert len(reads) == 8
    assert len(comps) == 8 and all(c.cycles == 3 for c in comps)
    assert reads[0].addr == FlatMemory(w.segments).read_word(HEAD_CELL)


def test_traversal_loads_follow_linkage():
    w = make_workload("traversal", seed=5, nodes=12)
    loads, _ = replay_program(w.program, w.segments)
    # each loaded value is the next load's address; the last value is null
    for (a0, v0), (a1, _) in zip(loads, loads[1:]):
        assert v0 == a1
    assert loads[-1][1] == 0


# -- insertion --


def test_insertion_zero_inserts_is_pure_traversal():
    w = make_workload("insertion", seed=1, nodes=8, inserts=0)
    prog, toks = tokens_of(w.program)
    replay_program(prog, w.segments)
    assert isinstance(toks[0], Read)
    assert all(isinstance(t, ReadCP) for t in toks[1:])
    assert len(toks) == 1 + 8
    assert not any(isinstance(t, Write) for t in toks)


def test_insertion_extends_chain():
    w = make_workload("insertion", seed=4, nodes=16, inserts=4)
    prog, toks = tokens_of(w.program)
    _, flat = replay_program(prog, w.segments)
    addr, n = flat.read_word(HEAD_CELL), 0
    seen = set()
    while addr:
        assert addr not in seen  # no cycles introduced by splicing
        seen.add(addr)
        n += 1
        addr = flat.read_word(addr)
    assert n == 16
    writes = [t for t in toks if isinstance(t, Write)]
    assert len(writes) == 2 * 4  # two pointer updates per splice


def test_insertion_rejects_oversubscription():
    with pytest.raises(ConfigurationError):
        make_workload("insertion", nodes=4, inserts=5)


# -- hashtable --


def bucket_chains(w, buckets):
    """The keys of each bucket's chain, walked in the image: the bucket array
    of head pointers starts the segment; a node holds (next, key)."""
    flat = FlatMemory(w.segments)
    chains = []
    for b in range(buckets):
        keys, ptr = [], flat.read_word(w.segments[0][0] + b * WORD_BYTES)
        while ptr:
            keys.append(flat.read_word(ptr + WORD_BYTES))
            ptr = flat.read_word(ptr)
        chains.append(keys)
    return chains


def test_hashtable_chain_lengths():
    chains = bucket_chains(make_workload("hashtable", seed=1, buckets=16, keys=64), 16)
    lens = [len(c) for c in chains]
    assert sum(lens) == 64
    assert sum(lens) / len(lens) == 64 / 16
    assert max(lens) < 4 * (64 / 16)  # seeded spread is roughly uniform
    assert all(k % 16 == b for b, c in enumerate(chains) for k in c)


def test_hashtable_single_bucket_chains_everything():
    w = make_workload("hashtable", seed=1, buckets=1, keys=8)
    assert [len(c) for c in bucket_chains(w, 1)] == [8]
    loads, _ = replay_program(w.program, w.segments)
    assert len(loads) > 8  # every lookup walks part of one long chain


def test_hashtable_lookup_finds_every_key():
    w = make_workload("hashtable", seed=2, buckets=8, keys=32)
    keys = {k for c in bucket_chains(w, 8) for k in c}
    assert len(keys) == 32 and 0 not in keys
    loads, _ = replay_program(w.program, w.segments)
    # each key's walk ends by loading the key value itself
    found = {v for a, v in loads}
    assert keys <= found


@pytest.mark.parametrize("buckets, keys, message", [
    (0, 8, "buckets must be >= 1"),
    # more keys than there are nonzero 24-bit values: the key draw never ends
    (1, 2**24, "keys must be in 0..16777215"),
])
def test_hashtable_rejects_bad_sizes_before_building(buckets, keys, message):
    with pytest.raises(ConfigurationError) as e:
        make_workload("hashtable", seed=1, buckets=buckets, keys=keys)
    assert str(e.value) == message


@pytest.mark.parametrize("buckets, keys", [
    (1, 2**16),   # one bucket line plus 65536 key lines: 16 bytes over 1 MiB
    (2**18, 0),   # a 1 MiB bucket array plus the probe line
])
def test_hashtable_rejects_a_region_over_the_budget(buckets, keys):
    # checked before the keys are drawn, so the build never holds the region
    with pytest.raises(ConfigurationError) as e:
        make_workload("hashtable", seed=1, buckets=buckets, keys=keys)
    assert str(e.value) == "buckets and keys exceed the address budget"


def test_hashtable_largest_region_fits_the_budget():
    w = make_workload("hashtable", seed=1, buckets=1, keys=2**16 - 1)
    assert len(w.segments[0][1]) == 1 << 20


def test_hashtable_zero_keys_probes_empty_heads():
    w = make_workload("hashtable", seed=1, buckets=4, keys=0)
    loads, _ = replay_program(w.program, w.segments)
    assert len(loads) == 4
    assert all(v == 0 for _, v in loads)  # all heads empty


# -- hanoi --


def hanoi_trace(disks):
    """(ReadCP addresses, node lines, log writes) of a replayed hanoi run.
    The program's only ReadCPs are its initial chase from the head cell, so
    the chased addresses after the first are the node lines; every Write off
    those lines is a move-log entry."""
    w = make_workload("hanoi", disks=disks)
    prog, toks = tokens_of(w.program)
    replay_program(prog, w.segments)
    chase = [t.addr for t in toks if isinstance(t, ReadCP)]
    node_lines = {line_base(a) for a in chase[1:]}
    log_writes = [t for t in toks if isinstance(t, Write)
                  and line_base(t.addr) not in node_lines]
    return chase, node_lines, log_writes


def test_hanoi_move_count_and_node_lines():
    chase, node_lines, log_writes = hanoi_trace(6)
    assert len(log_writes) == 2**6 - 1  # one log entry per move
    assert len(chase) == 1 + 6 and len(node_lines) == 6
    # the initial chase touches the head cell, after the six node lines
    assert chase[0] == min(node_lines) + 6 * LINE_BYTES


def test_hanoi_single_disk():
    _, _, log_writes = hanoi_trace(1)  # runs to completion
    assert len(log_writes) == 1


def test_hanoi_rejects_bad_disks():
    with pytest.raises(ConfigurationError):
        make_workload("hanoi", disks=0)
    with pytest.raises(ConfigurationError):
        make_workload("hanoi", disks=11)


def test_hanoi_log_disjoint_from_node_indices():
    _, node_lines, log_writes = hanoi_trace(6)
    node_idx = {(a >> 4) & 0xF for a in node_lines}
    assert len(log_writes) == 2**6 - 1
    assert all(((t.addr >> 4) & 0xF) not in node_idx for t in log_writes)


# -- array --


def test_array_kernel_has_no_pointer_chasing():
    w = make_workload("array", seed=1, elements=64, gap=2)
    prog, toks = tokens_of(w.program)
    replay_program(prog, w.segments)
    assert not any(isinstance(t, ReadCP) for t in toks)
    assert sum(isinstance(t, Read) for t in toks) == 64
    assert sum(isinstance(t, Write) for t in toks) == 64


@given(seed=SEEDS, elements=st.integers(0, 200))
def test_array_image_equals_its_per_call_reference(seed, elements):
    # the program reads the image and writes sums of what it read, so an
    # equal image gives an equal token stream
    rng = Lcg(seed)
    assert (_array(seed, elements, 0).segments
            == [(0x4000, pack([rng.next() for _ in range(elements)]))])


@pytest.mark.parametrize("elements, message", [
    (-1, "elements must be >= 0"),
    # one word over the 1 MiB region: small enough to build if unchecked
    (REGION_BYTES // WORD_BYTES + 1, "elements exceed the address budget"),
])
def test_array_rejects_bad_sizes_before_building(elements, message):
    with pytest.raises(ConfigurationError) as e:
        make_workload("array", seed=1, elements=elements, gap=0)
    assert str(e.value) == message


def test_array_largest_region_fits_the_budget():
    w = make_workload("array", seed=1, elements=REGION_BYTES // WORD_BYTES, gap=0)
    assert len(w.segments[0][1]) == REGION_BYTES


# -- random stream --


def test_random_stream_mix_and_determinism():
    w1 = make_workload("random", seed=3, n=1000)
    w2 = make_workload("random", seed=3, n=1000)
    assert w1.program == w2.program
    assert w1.segments == w2.segments
    kinds = [type(t).__name__ for t in w1.program]
    assert {"Read", "Write", "ReadCP"} <= set(kinds)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.integers(0, 200))
def test_random_stream_equals_its_per_call_reference(seed, n):
    assert _random(seed, n) == per_call_random(seed, n, RANDOM_LINES, RANDOM_MIX)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_registered_workload_builds_with_defaults(name):
    w = make_workload(name)
    assert w.segments
    loads, _ = replay_program(w.program, w.segments)
    assert loads


def test_make_workload_ignores_parameters_it_does_not_take():
    a = make_workload("hanoi", disks=3, nodes=8)
    b = make_workload("hanoi", disks=3)
    assert a.segments == b.segments
    assert replay_program(a.program, a.segments)[0] == \
        replay_program(b.program, b.segments)[0]


def test_make_workload_unknown_name():
    with pytest.raises(ConfigurationError):
        make_workload("bogus")


@pytest.mark.parametrize("seed", ["x", 1.5, True])
def test_make_workload_refuses_a_non_integer_seed(seed):
    # the message make_config gives, not a TypeError from inside the LCG
    with pytest.raises(ConfigurationError, match="^seed must be an integer$"):
        make_workload("traversal", seed=seed)


RANGES = [(name, param, low, high) for name, (_, ranges, _) in WORKLOADS.items()
          for param, (_, low, high) in ranges.items()]


@pytest.mark.parametrize("name,param,low,high", RANGES,
                         ids=[f"{name}-{param}" for name, param, _, _ in RANGES])
def test_range_table_bounds_are_inclusive(name, param, low, high):
    # one step outside a bound is refused by its range, so a typo in the
    # table shows; the bounds themselves pass the range check
    ranges = WORKLOADS[name][1]
    defaults = {k: default for k, (default, _, _) in ranges.items()}
    for outside in [low - 1] + ([] if high is None else [high + 1]):
        with pytest.raises(ConfigurationError, match=f"^{param} must be "):
            make_config("baseline", 5, name, **{param: outside})
    for bound in [low] + ([] if high is None else [high]):
        check_ranges({**defaults, param: bound}, ranges)


def test_workload_generators_deterministic():
    for name in sorted(WORKLOADS):
        a = make_workload(name, seed=5)
        b = make_workload(name, seed=5)
        assert a.segments == b.segments
        ta = tokens_of(a.program)
        tb = tokens_of(b.program)
        replay_program(ta[0], a.segments)
        replay_program(tb[0], b.segments)
        assert ta[1] == tb[1]
        # sweep runs one build many times, so running it must change
        # neither its program nor its image
        image = [(addr, bytes(data)) for addr, data in b.segments]
        (loads, flat), (again, flat_again) = (
            replay_program(b.program, b.segments) for _ in range(2))
        assert again == loads
        assert flat_again.lines() == flat.lines()
        assert b.segments == image


# -- flat replay oracle --


def test_flat_memory_read_write_lines():
    flat = FlatMemory([(0x1000, bytes(range(1, 17)))])
    assert flat.read_word(0x1000) == 0x04030201
    flat.write_word(0x2008, 0xAABBCCDD)
    lines = flat.lines()
    assert 0x2000 in lines
    assert lines[0x2000][8:12] == (0xAABBCCDD).to_bytes(4, "little")
    assert flat.read_word(0x9999 & ~3) == 0  # untouched reads zero


def test_replay_program_records_loads_in_order():
    prog = [Write(0x100, 7), Read(0x100), Compute(5), Read(0x104)]
    loads, flat = replay_program(prog, [])
    assert loads == [(0x100, 7), (0x104, 0)]


# -- byte identity: every builder's image and token stream, pinned --


def build_digests(name, seed, **params):
    """sha256 of a workload's segments and of its token stream, the tokens
    recorded while replay_program runs the program."""
    w = make_workload(name, seed=seed, **params)
    image = hashlib.sha256()
    for addr, data in w.segments:
        image.update(f"{addr:x}:{len(data)}:".encode())
        image.update(data)
    prog, toks = tokens_of(w.program)
    replay_program(prog, w.segments)
    stream = hashlib.sha256("\n".join(map(repr, toks)).encode())
    return image.hexdigest()[:16], stream.hexdigest()[:16]


BUILDS = [
    # the benchmark's chase and dense sizes
    ("traversal", {"nodes": 1000, "gap": 12}),
    ("array", {"elements": 2048}),
    # every registry default; random's is the benchmark's n=10000
    *((name, {}) for name in sorted(WORKLOADS)),
    # two nodes per line with a partial pool; an odd count ends mid-line
    ("insertion", {"nodes": 33, "nodes_per_line": 2, "inserts": 5}),
    ("traversal", {"nodes": 7, "nodes_per_line": 2, "gap": 1}),
    ("hashtable", {"buckets": 1, "keys": 20}),
    ("hashtable", {"buckets": 3, "keys": 0}),
    ("hanoi", {"disks": 10}),
    ("array", {"elements": 7, "gap": 0}),  # ends mid-line
]

# Recorded from the per-word builders these replaced; hanoi ignores its
# seed, so its rows at seeds 1 and 2027 are equal.
DIGESTS = {
    "traversal [('gap', 12), ('nodes', 1000)] seed 1": ('fc4a800979f22713', '89876c936315adb9'),
    "array [('elements', 2048)] seed 1": ('1a0deebb65b5e49e', '54556924f358a997'),
    'array [] seed 1': ('41a6a3ecd6459633', '961fdc8c0b09bdb2'),
    'hanoi [] seed 1': ('64f9ba53dcb02bb8', 'cc9c1bb52b9ff822'),
    'hashtable [] seed 1': ('cf79397f62f016c8', 'c4b37e4f33e5bb06'),
    'insertion [] seed 1': ('5bef6defb40d4ef6', '52c53ba54e331c3b'),
    'random [] seed 1': ('dbb2ea5c5f658e16', '3aa650bceb6b4593'),
    'traversal [] seed 1': ('1d4696af459d7a85', 'ea27aec85c78fd94'),
    "insertion [('inserts', 5), ('nodes', 33), ('nodes_per_line', 2)] seed 1": ('b24e96d3ce98d6b2', 'd0fa0f0c0e72aba0'),
    "traversal [('gap', 1), ('nodes', 7), ('nodes_per_line', 2)] seed 1": ('e6e010ba22388cc7', 'b5dd1799e2c7aaac'),
    "hashtable [('buckets', 1), ('keys', 20)] seed 1": ('b143c7dc3088e10f', 'd66f6405d83f6a40'),
    "hashtable [('buckets', 3), ('keys', 0)] seed 1": ('32b53d5547586848', '4327accd4181eba1'),
    "hanoi [('disks', 10)] seed 1": ('d83d68bdb221c1d6', '744894cab5f5e3a4'),
    "array [('elements', 7), ('gap', 0)] seed 1": ('80ad0c98a64263e5', '6d359d26a127c4d1'),
    "traversal [('gap', 12), ('nodes', 1000)] seed 2027": ('bcfa66de817d8676', 'fe4332ddfacc5283'),
    "array [('elements', 2048)] seed 2027": ('f975ce2f7f1a0064', '4a81caa512e27bd9'),
    'array [] seed 2027': ('f59221cf195b1ca0', '57c0f15b60ac48e6'),
    'hanoi [] seed 2027': ('64f9ba53dcb02bb8', 'cc9c1bb52b9ff822'),
    'hashtable [] seed 2027': ('b9e91c71e7ad6a36', 'ad9e47ccb1c377ca'),
    'insertion [] seed 2027': ('5dbcad19ece3d9e4', '95fe1172f229ed56'),
    'random [] seed 2027': ('7a058083b65b12c3', 'e7aed6c83890aed4'),
    'traversal [] seed 2027': ('3e6b1c694ed50df2', '159ec0b7f5513a3f'),
    "insertion [('inserts', 5), ('nodes', 33), ('nodes_per_line', 2)] seed 2027": ('f1a8ecaf0876e3e9', '50111dffc0176fec'),
    "traversal [('gap', 1), ('nodes', 7), ('nodes_per_line', 2)] seed 2027": ('aaa07372a01c6af2', '39440abc4c801645'),
    "hashtable [('buckets', 1), ('keys', 20)] seed 2027": ('9cc83ba45f0a6751', 'd66f6405d83f6a40'),
    "hashtable [('buckets', 3), ('keys', 0)] seed 2027": ('32b53d5547586848', '17f8b1d011cac3a9'),
    "hanoi [('disks', 10)] seed 2027": ('d83d68bdb221c1d6', '744894cab5f5e3a4'),
    "array [('elements', 7), ('gap', 0)] seed 2027": ('463f4d08c74ae134', '927a283cfe9f17f7'),
}


@pytest.mark.parametrize("seed", [1, 2027])
@pytest.mark.parametrize("name, params", BUILDS,
                         ids=[f"{n}-{'-'.join(f'{k}{v}' for k, v in p.items()) or 'defaults'}"
                              for n, p in BUILDS])
def test_builder_output_is_byte_identical(name, params, seed):
    key = f"{name} {sorted(params.items())} seed {seed}"
    assert build_digests(name, seed, **params) == DIGESTS[key]


def test_hanoi_ignores_its_seed():
    # so seed-2 hanoi rows of the golden matrix repeat the seed-1 rows
    assert build_digests("hanoi", 1) == build_digests("hanoi", 2027)
    assert build_digests("hanoi", 1, disks=10) == build_digests("hanoi", 2027, disks=10)
