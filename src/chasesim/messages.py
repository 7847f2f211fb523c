"""Message formats and address arithmetic shared by cache, prefetcher and memory.

All channels carry ``MemRequest`` / ``MemResponse`` records, which are
unhashable and never changed after construction: ``BlockingCache.req`` and
``PointerChasePrefetcher.req`` keep the requests they receive. Lines are 16
bytes; words within a line are stored in little-endian word order (word 0
occupies byte offsets 0-3); a node's next pointer sits in its first word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

LINE_BYTES = 16
WORD_BYTES = 4

ZERO_LINE = bytes(LINE_BYTES)


# request/response kinds: each is its trace mnemonic
INIT, READ, WRITE, READCP = "in", "rd", "wr", "cp"


class MsgKind:
    """The four kinds by name: ``MsgKind.READ`` is ``READ``."""

    INIT, READ, WRITE, READCP = INIT, READ, WRITE, READCP


@dataclass(slots=True)
class MemRequest:
    kind: str
    addr: int
    opaque: int = 0
    data: bytes = b""

    def __post_init__(self):
        if not 0 <= self.addr < 2**32:
            raise ValueError(f"address out of 32-bit range: {self.addr:#x}")
        if self.addr % WORD_BYTES != 0:
            raise ValueError(f"misaligned request address: {self.addr:#x}")
        if not 0 <= self.opaque < 256:
            raise ValueError(f"opaque field out of 8-bit range: {self.opaque}")

    def __str__(self):
        s = f"{self.kind} {self.addr:08x} op={self.opaque:02x}"
        if self.data:
            s += f" data={self.data.hex()}"
        return s


@dataclass(slots=True)
class MemResponse:
    kind: str
    opaque: int
    data: bytes = b""
    hit: bool = False

    def __str__(self):
        s = f"{self.kind} op={self.opaque:02x}"
        if self.data:
            s += f" data={self.data.hex()}"
        s += f" hit={int(self.hit)}"
        return s


@dataclass(frozen=True)
class AddrGeometry:
    offset_bits: int
    index_bits: int

    @property
    def tag_bits(self) -> int:
        return 32 - self.offset_bits - self.index_bits

    @property
    def num_indices(self) -> int:
        return 1 << self.index_bits

    @cached_property
    def masks(self) -> tuple[int, int, int]:
        """(offset mask, index mask, tag shift), computed once."""
        return (1 << self.offset_bits) - 1, self.num_indices - 1, 32 - self.tag_bits


# 256 B direct-mapped cache with 16 B lines: 4 offset, 4 index, 24 tag bits.
CACHE_GEOMETRY = AddrGeometry(offset_bits=4, index_bits=4)
# 4-entry prefetch buffer with 16 B lines: 4 offset, 2 index, 26 tag bits.
PREFETCH_GEOMETRY = AddrGeometry(offset_bits=4, index_bits=2)


def split_address(addr: int, geo: AddrGeometry) -> tuple[int, int, int]:
    """Split a 32-bit byte address into (tag, index, offset) fields."""
    offset_mask, index_mask, tag_shift = geo.masks
    return addr >> tag_shift, (addr >> geo.offset_bits) & index_mask, addr & offset_mask


def join_address(tag: int, index: int, offset: int, geo: AddrGeometry) -> int:
    """Inverse of split_address."""
    return (tag << (geo.offset_bits + geo.index_bits)) | (index << geo.offset_bits) | offset


def line_base(addr: int) -> int:
    """16-byte-aligned base of the line containing addr."""
    return addr & ~(LINE_BYTES - 1)


def set_word_in_line(line: bytes, offset: int, value: int) -> bytes:
    """Copy of line with the word at the given byte offset replaced."""
    if offset % WORD_BYTES or not 0 <= offset < LINE_BYTES:
        raise ValueError(f"word offset {offset} is misaligned or outside the line")
    buf = bytearray(line)
    buf[offset:offset + WORD_BYTES] = value.to_bytes(WORD_BYTES, "little")
    return bytes(buf)


def word_bytes(value: int) -> bytes:
    return (value & 0xFFFFFFFF).to_bytes(WORD_BYTES, "little")
