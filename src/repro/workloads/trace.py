"""Disk-access trace records and the UMass SPC trace format.

The paper's reliability and miss-rate studies are trace driven: synthetic
micro-benchmark traces plus the UMass Trace Repository's WebSearch and
Financial traces (Table 4, reference [8]).  The repository distributes
traces in the SPC format — CSV lines of

    ASU, LBA, Size, Opcode, Timestamp [, extra fields ignored]

with LBA/Size in 512-byte sectors and Opcode ``r``/``R`` or ``w``/``W``.
This module defines the in-memory record type used throughout the
simulator (page-granular, matching the 2KB Flash page the disk cache
manages) and a reader/writer pair for SPC files, so the real traces can be
dropped in when available while the bundled generators provide
statistically matched substitutes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Any, Iterable, Iterator, List, NamedTuple

__all__ = [
    "OP_READ",
    "OP_WRITE",
    "PAGE_BYTES",
    "SECTOR_BYTES",
    "TraceRecord",
    "TraceStats",
    "read_spc",
    "write_spc",
    "records_from_spc_file",
    "summarize",
]

OP_READ = "r"
OP_WRITE = "w"

#: The disk-cache management granularity: one Flash page payload.
PAGE_BYTES = 2048
#: SPC traces address 512-byte sectors.
SECTOR_BYTES = 512
_SECTORS_PER_PAGE = PAGE_BYTES // SECTOR_BYTES


class _TraceRecordFields(NamedTuple):
    page: int
    op: str
    pages: int = 1
    timestamp: float = 0.0


class TraceRecord(_TraceRecordFields):
    """One page-granular disk access.

    ``page`` is the logical block address divided down to 2KB pages —
    the unit the FlashCache hash table maps.  ``pages`` is the run length
    of the request (>= 1).  ``timestamp`` is seconds from trace start and
    may be 0 for generated traces replayed closed-loop.

    A validated tuple: generators build hundreds of thousands of these
    per trace, and a tuple costs less than half of a frozen dataclass to
    construct and holds no ``__dict__``.  The hash is
    ``hash((page, op, pages, timestamp))`` and the repr is
    ``TraceRecord(page=..., op=..., pages=..., timestamp=...)``, what a
    frozen dataclass with these fields produces.
    """

    __slots__ = ()

    def __new__(cls, page: int, op: str, pages: int = 1,
                timestamp: float = 0.0) -> "TraceRecord":
        if op not in (OP_READ, OP_WRITE):
            raise ValueError(f"op must be '{OP_READ}' or '{OP_WRITE}'")
        if page < 0 or pages < 1:
            raise ValueError(f"invalid extent page={page} pages={pages}")
        return tuple.__new__(cls, (page, op, pages, timestamp))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "TraceRecord":
        # namedtuple's _make (and _replace, which calls it) bypasses
        # __new__; route both through the validating constructor.
        return cls(*iterable)

    @property
    def is_read(self) -> bool:
        return self.op == OP_READ

    def expand(self) -> Iterator[int]:
        """Yield each page the request touches."""
        return iter(range(self.page, self.page + self.pages))


@dataclass
class TraceStats:
    """Summary statistics of a trace (used by Table 4 reporting)."""

    records: int = 0
    reads: int = 0
    writes: int = 0
    pages_read: int = 0
    pages_written: int = 0
    footprint_pages: int = 0

    @property
    def read_fraction(self) -> float:
        return self.reads / self.records if self.records else 0.0

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_pages * PAGE_BYTES


def summarize(records: Iterable[TraceRecord]) -> TraceStats:
    """Single-pass trace summary."""
    stats = TraceStats()
    seen: set[int] = set()
    for record in records:
        stats.records += 1
        if record.is_read:
            stats.reads += 1
            stats.pages_read += record.pages
        else:
            stats.writes += 1
            stats.pages_written += record.pages
        seen.update(record.expand())
    stats.footprint_pages = len(seen)
    return stats


def read_spc(stream: IO[str], limit: int | None = None) -> Iterator[TraceRecord]:
    """Parse SPC-format lines into page-granular records.

    Sector extents are converted to the covering 2KB-page extent.  Malformed
    lines raise ``ValueError`` with the offending line number — silent
    truncation of a trace would invisibly change an experiment.
    """
    count = 0
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) < 5:
            raise ValueError(
                f"SPC line {line_number}: expected >=5 fields, got {len(fields)}"
            )
        try:
            lba_sector = int(fields[1])
            size_bytes_or_sectors = int(fields[2])
            opcode = fields[3].strip().lower()
            timestamp = float(fields[4])
        except ValueError as exc:
            raise ValueError(f"SPC line {line_number}: {exc}") from exc
        if opcode not in ("r", "w"):
            raise ValueError(f"SPC line {line_number}: bad opcode {fields[3]!r}")
        # UMass traces record size in bytes; some SPC dialects use sectors.
        # Heuristic: multiples of 512 >= 512 are bytes.
        if size_bytes_or_sectors >= SECTOR_BYTES and \
                size_bytes_or_sectors % SECTOR_BYTES == 0:
            sectors = size_bytes_or_sectors // SECTOR_BYTES
        else:
            sectors = max(size_bytes_or_sectors, 1)
        first_page = lba_sector // _SECTORS_PER_PAGE
        last_page = (lba_sector + sectors - 1) // _SECTORS_PER_PAGE
        yield TraceRecord(
            page=first_page,
            op=OP_READ if opcode == "r" else OP_WRITE,
            pages=last_page - first_page + 1,
            timestamp=timestamp,
        )
        count += 1
        if limit is not None and count >= limit:
            return


def records_from_spc_file(path: str, limit: int | None = None) -> List[TraceRecord]:
    """Read a whole SPC trace file into memory."""
    with open(path, "r", encoding="ascii") as stream:
        return list(read_spc(stream, limit=limit))


def write_spc(records: Iterable[TraceRecord], stream: IO[str],
              asu: int = 0) -> int:
    """Serialise records back to SPC (byte-size dialect); returns count."""
    count = 0
    for record in records:
        stream.write(
            f"{asu},{record.page * _SECTORS_PER_PAGE},"
            f"{record.pages * PAGE_BYTES},{record.op},"
            f"{record.timestamp:.6f}\n"
        )
        count += 1
    return count


def spc_roundtrip(records: List[TraceRecord]) -> List[TraceRecord]:
    """Serialise + reparse (test helper proving format fidelity)."""
    buffer = io.StringIO()
    write_spc(records, buffer)
    buffer.seek(0)
    return list(read_spc(buffer))
