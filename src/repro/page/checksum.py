"""Page checksums.

A CRC32 over the page body (everything except the 4-byte checksum slot
itself) plays the role of the in-page "parity" the paper refers to
(Section 4, citing Mohan's disk read-write optimizations).  CRC32 is
cheap, detects all single- and double-bit errors, and is what several
real engines (e.g. PostgreSQL's optional data checksums) use.
"""

from __future__ import annotations

import zlib

#: Byte offset of the 4-byte checksum field within the page header.
CHECKSUM_OFFSET = 4
CHECKSUM_SIZE = 4

#: The four bytes every page starts with; they precede the checksum
#: field, so a page that carries them has a known CRC state there.
PAGE_MAGIC = b"SPF1"

#: The zeroed stand-in for the checksum field, hoisted so the per-call
#: path allocates nothing.
_ZERO_CHECKSUM = b"\x00" * CHECKSUM_SIZE

#: First byte after the checksum field, and the CRC state on reaching
#: it in a page whose magic is intact.
BODY_OFFSET = CHECKSUM_OFFSET + CHECKSUM_SIZE
MAGIC_SEED = zlib.crc32(PAGE_MAGIC + _ZERO_CHECKSUM)


def compute_checksum(buf: bytes | bytearray | memoryview) -> int:
    """CRC32 over the whole page, with the checksum field zeroed.

    The checksum field itself is excluded by treating it as zero, so
    the stored checksum does not feed back into its own computation.
    The computation runs over zero-copy views of the caller's buffer —
    checksums sit on every device write and verify, so a full-page
    copy here was measurable.  A page whose magic is intact (every
    page the engine seals) costs one ``crc32`` call over the body,
    continued from :data:`MAGIC_SEED`; the values are the same.
    """
    view = buf if type(buf) is memoryview else memoryview(buf)
    if view[:CHECKSUM_OFFSET] == PAGE_MAGIC:
        return zlib.crc32(view[BODY_OFFSET:], MAGIC_SEED)
    crc = zlib.crc32(view[:CHECKSUM_OFFSET])
    crc = zlib.crc32(_ZERO_CHECKSUM, crc)
    return zlib.crc32(view[BODY_OFFSET:], crc)


def read_stored_checksum(buf: bytes | bytearray | memoryview) -> int:
    """The checksum currently stored in the page header."""
    return int.from_bytes(buf[CHECKSUM_OFFSET:CHECKSUM_OFFSET + CHECKSUM_SIZE],
                          "little")


def store_checksum(buf: bytearray) -> int:
    """Compute and store the checksum in place; returns the value."""
    crc = compute_checksum(buf)
    buf[CHECKSUM_OFFSET:CHECKSUM_OFFSET + CHECKSUM_SIZE] = crc.to_bytes(4, "little")
    return crc


def verify_checksum(buf: bytes | bytearray | memoryview) -> bool:
    """True if the stored checksum matches the page contents."""
    return read_stored_checksum(buf) == compute_checksum(buf)
