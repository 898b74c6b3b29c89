"""The base page: fixed-size buffer with a self-describing header.

Header layout (little-endian, 32 bytes)::

    offset  size  field
    0       4     magic        b"SPF1"
    4       4     checksum     CRC32 over page with this field zeroed
    8       8     page_id      the page's own identifier
    16      8     page_lsn     LSN of the most recent log record for
                               this page (anchor of the per-page chain)
    24      1     page_type    PageType tag
    25      1     flags        reserved
    26      2     update_count updates since the last page backup
                               (Section 6: "the number of updates can be
                               counted within the page, incremented
                               whenever the PageLSN changes")
    28      4     reserved

The ``update_count`` field implements the paper's backup-freshness
policy hook: a page backup can be triggered "after a number of updates"
counted within the page itself.

:func:`check_header` is the header half of the single in-page
inspection every device read runs
(:func:`repro.page.slotted.inspect_page` adds the indirection-vector
half): one unpack of the fields it tests, one CRC call, and a fixed
precedence — magic, checksum, page type, PageLSN, page id.
"""

from __future__ import annotations

import enum
import struct
import zlib

from repro.errors import PageFailureKind, RecoveryError, SinglePageFailure
from repro.page import checksum as _checksum
from repro.page.checksum import BODY_OFFSET, MAGIC_SEED, PAGE_MAGIC

HEADER_SIZE = 32
#: Byte offset of the page-type tag within the header.
TYPE_OFFSET = 24

_HEADER_STRUCT = struct.Struct("<4sIqqBBHI")
assert _HEADER_STRUCT.size == HEADER_SIZE  # final "I" is 4 reserved bytes

# Precompiled header-field structs: the lsn/update-count accessors run
# on every logged operation, where struct's format-string cache lookup
# is measurable.
_I64 = struct.Struct("<q")
_U16 = struct.Struct("<H")
#: The PageLSN's i64 and its byte offset within the header, for a
#: reader of it in place (a logged update's ``page_prev_lsn``:
#: :meth:`repro.txn.manager.TransactionManager.log_update`).
PAGE_LSN, LSN_OFFSET = _I64, 16

#: LSN value meaning "no log record has ever touched this page".
NULL_LSN = 0


class PageType(enum.IntEnum):
    """Type tag stored in every page header."""

    FREE = 0
    METADATA = 1
    BTREE_BRANCH = 2
    BTREE_LEAF = 3
    HEAP = 4
    RECOVERY_INDEX = 5
    ALLOCATION = 6


#: The fields the inspection tests — magic, checksum, page id, PageLSN,
#: type byte — in one unpack.
_INSPECTED = struct.Struct("<4sIqqB")
_KNOWN_TYPES = frozenset(int(page_type) for page_type in PageType)


def check_header(data: bytes | bytearray,
                 expected_page_id: int | None = None) -> tuple[int, int, int]:
    """The header tests of Section 4.2; raise on the first failure.

    Precedence: magic, checksum, page type, PageLSN, then the page-id
    cross-check against where the page was read from.  Returns
    ``(page id, PageLSN, type byte)`` as found in the header.  Once the
    magic is known to match, the CRC is one call over the body continued
    from :data:`~repro.page.checksum.MAGIC_SEED` — the same value as
    :func:`~repro.page.checksum.compute_checksum`.
    """
    magic, crc, page_id, page_lsn, page_type = _INSPECTED.unpack_from(data)
    pid_for_error = page_id if expected_page_id is None else expected_page_id
    if magic != PAGE_MAGIC:
        raise SinglePageFailure(pid_for_error, PageFailureKind.BAD_MAGIC,
                                f"magic={magic!r}")
    if zlib.crc32(memoryview(data)[BODY_OFFSET:], MAGIC_SEED) != crc:
        raise SinglePageFailure(pid_for_error, PageFailureKind.CHECKSUM_MISMATCH)
    if page_type not in _KNOWN_TYPES:
        raise SinglePageFailure(
            pid_for_error, PageFailureKind.HEADER_IMPLAUSIBLE,
            f"unknown page type {page_type}")
    if page_lsn < 0:
        raise SinglePageFailure(pid_for_error, PageFailureKind.HEADER_IMPLAUSIBLE,
                                f"negative PageLSN {page_lsn}")
    if expected_page_id is not None and page_id != expected_page_id:
        raise SinglePageFailure(
            expected_page_id, PageFailureKind.WRONG_PAGE_ID,
            f"page claims to be {page_id}")
    return page_id, page_lsn, page_type


class PageHeader:
    """Decoded view of a page header."""

    __slots__ = ("magic", "checksum", "page_id", "page_lsn", "page_type",
                 "flags", "update_count")

    def __init__(self, magic: bytes, crc: int, page_id: int, page_lsn: int,
                 page_type: int, flags: int, update_count: int) -> None:
        self.magic = magic
        self.checksum = crc
        self.page_id = page_id
        self.page_lsn = page_lsn
        self.page_type = page_type
        self.flags = flags
        self.update_count = update_count

    @classmethod
    def unpack(cls, buf: bytes | bytearray | memoryview) -> "PageHeader":
        magic, crc, page_id, page_lsn, ptype, flags, ucount, _reserved = (
            _HEADER_STRUCT.unpack_from(bytes(buf[:HEADER_SIZE])))
        return cls(magic, crc, page_id, page_lsn, ptype, flags, ucount)


class Page:
    """A fixed-size page with header maintenance and self-checks.

    The page does not know about the buffer pool or the log; it only
    maintains its own header fields and checksum.  ``page_lsn`` updates
    also increment ``update_count``, the in-page counter the paper uses
    to drive the page-backup policy.
    """

    __slots__ = ("data", "size", "view")

    def __init__(self, size: int, data: bytes | bytearray | None = None) -> None:
        if size < HEADER_SIZE + 64:
            raise ValueError(f"page size {size} too small")
        self.size = size
        if data is None:
            self.data = bytearray(size)
        else:
            if len(data) != size:
                raise ValueError(f"buffer length {len(data)} != page size {size}")
            self.data = bytearray(data)
        #: Decoded view of the record area, owned by the view layer
        #: (``repro.btree.node.NodeView``).  The page guarantees only
        #: that a fresh object starts without one and that every byte
        #: mutator reports itself through :meth:`invalidate_view`.
        self.view = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def format(cls, size: int, page_id: int,
               page_type: PageType = PageType.FREE) -> "Page":
        """Create a freshly formatted page with a valid header."""
        page = cls(size)
        _HEADER_STRUCT.pack_into(page.data, 0, PAGE_MAGIC, 0, page_id,
                                 NULL_LSN, int(page_type), 0, 0, 0)
        page.seal()
        return page

    @classmethod
    def adopt(cls, data: bytearray) -> "Page":
        """Wrap a buffer the caller owns and gives up — no copy.

        For the fetch path: :meth:`StorageDevice.read` returns a private
        ``bytearray``, so copying it again buys nothing.  Anything that
        is not the caller's own (stored images, backups) goes through
        the copying constructor.
        """
        if type(data) is not bytearray or len(data) < HEADER_SIZE + 64:
            raise ValueError("only a private page-sized bytearray can be adopted")
        page = cls.__new__(cls)
        page.size = len(data)
        page.data = data
        page.view = None
        return page

    def copy(self) -> "Page":
        """A deep copy (used for backups and buffer-pool frames)."""
        return Page(self.size, bytes(self.data))

    def load_image(self, image: bytes | bytearray) -> None:
        """Overwrite the whole page in place (full-image redo); an image
        that is not page-sized is a :class:`RecoveryError`, never a
        page of another size."""
        if len(image) != self.size:
            raise RecoveryError(f"a {len(image)}-byte image cannot be loaded "
                                f"into a {self.size}-byte page")
        self.data[:] = image
        self.view = None

    def invalidate_view(self, lowest_slot: int = 0, removed: int | None = None,
                        records: tuple | list = (), value: bytes | None = None) -> None:
        """The one channel from byte mutators to decoded views.

        Every mutator of the record area reports here once it can no
        longer refuse and before it moves a byte: ``removed`` slots from
        ``lowest_slot`` up gave way to ``records``, or the record in
        ``lowest_slot`` now holds ``value``; neither (``removed`` 0)
        means no key or value moved.  An unqualified report (raw byte
        writes, formatting) says only that bytes changed.  The view
        decides what of its decode survives, and brings that up to date.
        """
        view = self.view
        if view is not None:
            self.view = view.after_mutation(lowest_slot, removed, records,
                                            value)

    # ------------------------------------------------------------------
    # Header accessors
    # ------------------------------------------------------------------
    @property
    def page_id(self) -> int:
        return _I64.unpack_from(self.data, 8)[0]

    @page_id.setter
    def page_id(self, value: int) -> None:
        _I64.pack_into(self.data, 8, value)

    @property
    def page_lsn(self) -> int:
        return _I64.unpack_from(self.data, LSN_OFFSET)[0]

    @page_lsn.setter
    def page_lsn(self, value: int) -> None:
        """Set the PageLSN and bump the in-page update counter."""
        _I64.pack_into(self.data, LSN_OFFSET, value)
        count = _U16.unpack_from(self.data, 26)[0]
        if count < 0xFFFF:
            _U16.pack_into(self.data, 26, count + 1)

    @property
    def page_type(self) -> PageType:
        return PageType(self.data[TYPE_OFFSET])

    @page_type.setter
    def page_type(self, value: PageType) -> None:
        self.data[TYPE_OFFSET] = int(value)

    @property
    def update_count(self) -> int:
        """Updates applied since the counter was last reset.

        Reset whenever a page backup is taken; drives the
        backup-every-N-updates policy of Section 6.
        """
        return struct.unpack_from("<H", self.data, 26)[0]

    def reset_update_count(self) -> None:
        struct.pack_into("<H", self.data, 26, 0)

    def count_updates(self, n: int) -> None:
        """Count ``n`` updates more than setting the PageLSN counts: the
        rows of a leaf run past its first, which one record writes
        (:mod:`repro.wal.records`)."""
        count = _U16.unpack_from(self.data, 26)[0] + n
        _U16.pack_into(self.data, 26, count if count < 0xFFFF else 0xFFFF)

    @property
    def header(self) -> PageHeader:
        return PageHeader.unpack(self.data)

    # ------------------------------------------------------------------
    # Checksum and verification
    # ------------------------------------------------------------------
    def seal(self) -> int:
        """Recompute and store the checksum (done before every write)."""
        return _checksum.store_checksum(self.data)

    def verify(self, expected_page_id: int | None = None) -> None:
        """Run all in-page plausibility tests; raise on the first failure.

        This is the first two layers of the detection stack of
        Section 4.2: magic + checksum, then header plausibility, then
        the page-id cross-check against where the page was read from —
        :func:`check_header`, the same code a device read runs.
        """
        check_header(self.data, expected_page_id)

    # ------------------------------------------------------------------
    # Payload access
    # ------------------------------------------------------------------
    @property
    def payload(self) -> memoryview:
        """Writable view of the page body after the header."""
        return memoryview(self.data)[HEADER_SIZE:]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Page) and self.data == other.data

    def __hash__(self) -> int:  # pages are mutable; identity hash
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Page(id={self.page_id}, type={self.page_type.name}, "
                f"lsn={self.page_lsn}, updates={self.update_count})")
