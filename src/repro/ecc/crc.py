"""CRC-32 error detection (IEEE 802.3 polynomial).

Section 4.1.2 of the paper pairs the BCH corrector with a CRC32 checker
because BCH codes cannot always *detect* error patterns heavier than their
design strength ``t`` — the error locator can have a full set of bogus
roots (a false positive).  The controller therefore stores a CRC32 of each
page's payload in the spare area (4 of the 64 bytes) and validates it after
BCH correction.

Both a bitwise reference implementation and the table-driven form used by
hardware/performance code are provided; tests cross-check them against each
other and against known vectors.
"""

from __future__ import annotations

from typing import List

__all__ = [
    "CRC32_POLYNOMIAL",
    "CRC32_POLYNOMIAL_REFLECTED",
    "crc32",
    "crc32_bitwise",
    "Crc32",
]

# IEEE 802.3 generator polynomial:
# x^32+x^26+x^23+x^22+x^16+x^12+x^11+x^10+x^8+x^7+x^5+x^4+x^2+x+1
CRC32_POLYNOMIAL = 0x04C11DB7
# Bit-reflected form used by the common LSB-first implementation.
CRC32_POLYNOMIAL_REFLECTED = 0xEDB88320


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ CRC32_POLYNOMIAL_REFLECTED
            else:
                crc >>= 1
        table.append(crc)
    return table


_CRC_TABLE = _build_table()


def crc32(data: bytes, initial: int = 0) -> int:
    """Table-driven CRC-32 (same convention as ``zlib.crc32``).

    ``initial`` allows incremental computation over chunked payloads:
    ``crc32(b"ab") == crc32(b"b", crc32(b"a"))``.
    """
    crc = initial ^ 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def crc32_bitwise(data: bytes, initial: int = 0) -> int:
    """Bit-at-a-time reference CRC-32; slow but obviously correct."""
    crc = initial ^ 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ CRC32_POLYNOMIAL_REFLECTED
            else:
                crc >>= 1
    return crc ^ 0xFFFFFFFF


class Crc32:
    """Incremental CRC-32 accumulator with the spare-area byte layout.

    The Flash controller computes the CRC while streaming a page through
    the DMA engine; this class mirrors that incremental usage.
    """

    #: Spare-area bytes consumed by the checksum (section 4.1: "The CRC32
    #: code needs 4 bytes, leaving 60 bytes for BCH").
    SPARE_BYTES = 4

    def __init__(self) -> None:
        self._crc = 0xFFFFFFFF

    def update(self, data: bytes) -> "Crc32":
        crc = self._crc
        for byte in data:
            crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ byte) & 0xFF]
        self._crc = crc
        return self

    @property
    def value(self) -> int:
        return self._crc ^ 0xFFFFFFFF

    def digest(self) -> bytes:
        """Checksum as the 4 little-endian spare-area bytes."""
        return self.value.to_bytes(self.SPARE_BYTES, "little")

    @classmethod
    def check(cls, data: bytes, digest: bytes) -> bool:
        """Validate a payload against its stored spare-area digest."""
        return cls().update(data).digest() == digest
