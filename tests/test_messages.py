"""Address arithmetic and message validation."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from chasesim import (CACHE_GEOMETRY, PREFETCH_GEOMETRY, MemRequest,
                      MemResponse, MsgKind, join_address, line_base,
                      split_address)
from chasesim.messages import set_word_in_line, word_bytes

from conftest import raised_optimized


def test_split_prefetch_geometry_example():
    assert split_address(0x00001008, PREFETCH_GEOMETRY) == (0x40, 0, 8)


def test_split_cache_geometry_example():
    assert split_address(0x000010F4, CACHE_GEOMETRY) == (0x10, 0xF, 4)


def test_split_zero():
    assert split_address(0, CACHE_GEOMETRY) == (0, 0, 0)
    assert split_address(0, PREFETCH_GEOMETRY) == (0, 0, 0)


def test_geometry_is_frozen():
    # split_address reads the fields computed at construction: an assigned
    # offset_bits would leave them stale
    with pytest.raises(dataclasses.FrozenInstanceError):
        CACHE_GEOMETRY.offset_bits = 5
    assert split_address(0x000010F4, CACHE_GEOMETRY) == (0x10, 0xF, 4)


def test_geometry_bit_budgets():
    assert CACHE_GEOMETRY.tag_bits == 24
    assert CACHE_GEOMETRY.num_indices == 16
    assert PREFETCH_GEOMETRY.tag_bits == 26
    assert PREFETCH_GEOMETRY.num_indices == 4


def test_line_base_examples():
    assert line_base(0x100C) == 0x1000
    assert line_base(0xFFFFFFFC) == 0xFFFFFFF0
    assert line_base(0x1000) == 0x1000


def test_set_word_in_line_roundtrip():
    line = bytes(16)
    out = set_word_in_line(line, 8, 0x12345678)
    assert out[8:12] == word_bytes(0x12345678) == bytes.fromhex("78563412")
    assert out[:8] == bytes(8) and out[12:] == bytes(4)


@pytest.mark.parametrize("offset", [2, -4, 16])
def test_word_helpers_reject_bad_offsets(offset):
    with pytest.raises(ValueError, match="misaligned or outside the line"):
        set_word_in_line(bytes(16), offset, 1)


@pytest.mark.parametrize("call,offset", [("set_word_in_line(bytes(16), 16, 1)", 16)])
def test_word_helpers_reject_bad_offsets_under_optimize(call, offset):
    assert raised_optimized(
        "from chasesim.messages import set_word_in_line\n" + call
    ) == f"ValueError: word offset {offset} is misaligned or outside the line"


def test_split_join_identity_random_sample():
    rng = random.Random(1234)
    for geo in (CACHE_GEOMETRY, PREFETCH_GEOMETRY):
        for _ in range(100_000):
            addr = rng.getrandbits(32)
            tag, idx, off = split_address(addr, geo)
            assert join_address(tag, idx, off, geo) == addr


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_split_join_identity_property(addr):
    for geo in (CACHE_GEOMETRY, PREFETCH_GEOMETRY):
        tag, idx, off = split_address(addr, geo)
        assert join_address(tag, idx, off, geo) == addr
        assert 0 <= off < 16
        assert 0 <= idx < geo.num_indices
        assert 0 <= tag < (1 << geo.tag_bits)


@pytest.mark.parametrize("addr", [2**32, -4, 0x1002, 0x1001])
def test_request_rejects_bad_addresses(addr):
    with pytest.raises(ValueError):
        MemRequest(MsgKind.READ, addr)


@pytest.mark.parametrize("opaque", [256, -1])
def test_request_rejects_bad_opaque(opaque):
    with pytest.raises(ValueError):
        MemRequest(MsgKind.READ, 0x1000, opaque=opaque)


def _checks_in_order(addr, opaque):
    """The message of the first of MemRequest's three checks that fails, in
    their order, or None: the oracle of its fused fast-path test."""
    if not 0 <= addr < 2**32:
        return f"address out of 32-bit range: {addr:#x}"
    if addr % 4 != 0:
        return f"misaligned request address: {addr:#x}"
    if not 0 <= opaque < 256:
        return f"opaque field out of 8-bit range: {opaque}"
    return None


def _check_request(addr, opaque):
    want = _checks_in_order(addr, opaque)
    if want is None:
        r = MemRequest(MsgKind.READ, addr, opaque, b"x")
        assert (r.kind, r.addr, r.opaque, r.data) == (MsgKind.READ, addr, opaque, b"x")
    else:
        with pytest.raises(ValueError) as e:
            MemRequest(MsgKind.READ, addr, opaque)
        assert str(e.value) == want, (addr, opaque)


EDGE_ADDRESSES = [-4, -1, 0, 1, 2, 3, 2**32 - 4, 2**32 - 1, 2**32]
EDGE_OPAQUES = [-1, 0, 255, 256]


def test_request_raises_exactly_when_its_checks_fail_at_the_edges():
    for addr in EDGE_ADDRESSES:
        for opaque in EDGE_OPAQUES:
            _check_request(addr, opaque)


# addresses within 5 of each end of the 32-bit range: -5..3 and 2**32-5..2**32+3
NEAR_EDGES = st.sampled_from([0, 2**32]).flatmap(lambda edge: st.integers(edge - 5, edge + 3))


@given(addr=st.one_of(NEAR_EDGES, st.integers()),
       opaque=st.one_of(st.sampled_from(EDGE_OPAQUES), st.integers()))
def test_request_raises_exactly_when_its_checks_fail(addr, opaque):
    _check_request(addr, opaque)


def test_message_render():
    req = MemRequest(MsgKind.READCP, 0x1008, opaque=1)
    assert str(req) == "cp 00001008 op=01"
    resp = MemResponse(MsgKind.READ, 0, data=b"\x01\x00\x00\x00", hit=True)
    assert str(resp) == "rd op=00 data=01000000 hit=1"
