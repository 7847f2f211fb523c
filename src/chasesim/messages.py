"""Message formats and address arithmetic shared by cache, prefetcher and memory.

All channels carry ``MemRequest`` / ``MemResponse`` records, which are
unhashable and never changed after construction: ``BlockingCache.req`` and
``PointerChasePrefetcher.req`` keep the requests they receive. Lines are 16
bytes; words within a line are stored in little-endian word order (word 0
occupies byte offsets 0-3); a node's next pointer sits in its first word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

LINE_BYTES = 16
WORD_BYTES = 4

ZERO_LINE = bytes(LINE_BYTES)


# request/response kinds: each is its trace mnemonic
INIT, READ, WRITE, READCP = "in", "rd", "wr", "cp"


class MsgKind:
    """The four kinds by name: ``MsgKind.READ`` is ``READ``."""

    INIT, READ, WRITE, READCP = INIT, READ, WRITE, READCP


@dataclass(slots=True, init=False)
class MemRequest:
    """A request to a word-aligned 32-bit address with an 8-bit opaque tag.
    One fused test passes a good one; only a failing one runs the checks."""

    kind: str
    addr: int
    opaque: int = 0
    data: bytes = b""

    def __init__(self, kind: str, addr: int, opaque: int = 0, data: bytes = b""):
        if addr & 0xFFFFFFFC != addr or opaque & 0xFF != opaque:
            if not 0 <= addr < 2**32:
                raise ValueError(f"address out of 32-bit range: {addr:#x}")
            if addr % WORD_BYTES != 0:
                raise ValueError(f"misaligned request address: {addr:#x}")
            if not 0 <= opaque < 256:
                raise ValueError(f"opaque field out of 8-bit range: {opaque}")
        self.kind = kind
        self.addr = addr
        self.opaque = opaque
        self.data = data

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


@dataclass(frozen=True, slots=True)
class AddrGeometry:
    offset_bits: int
    index_bits: int
    # (offset bits, offset mask, index mask, tag shift) for split_address,
    # computed once into a slot: CPython specializes a slot load, but not a
    # load through a cached_property or from the dict one fills in
    fields: tuple[int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fields", (
            self.offset_bits, (1 << self.offset_bits) - 1, (1 << self.index_bits) - 1,
            self.offset_bits + self.index_bits))

    @property
    def tag_bits(self) -> int:
        return 32 - self.offset_bits - self.index_bits

    @property
    def num_indices(self) -> int:
        return 1 << self.index_bits


# 256 B direct-mapped cache with 16 B lines: 4 offset, 4 index, 24 tag bits.
CACHE_GEOMETRY = AddrGeometry(offset_bits=4, index_bits=4)
# 4-entry prefetch buffer with 16 B lines: 4 offset, 2 index, 26 tag bits.
PREFETCH_GEOMETRY = AddrGeometry(offset_bits=4, index_bits=2)


def split_address(addr: int, geo: AddrGeometry) -> tuple[int, int, int]:
    """Split a 32-bit byte address into (tag, index, offset) fields."""
    offset_bits, offset_mask, index_mask, tag_shift = geo.fields
    return addr >> tag_shift, (addr >> offset_bits) & index_mask, addr & offset_mask


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
