"""Shared low-level helpers: bit manipulation and CRC."""

from repro.utils.bits import (
    MASK32,
    MASK64,
    bit,
    bits,
    extract,
    insert,
    sext,
    to_signed32,
    to_signed64,
    to_unsigned32,
    to_unsigned64,
)
from repro.utils.crc import crc32_xilinx, crc32_update

__all__ = [
    "MASK32",
    "MASK64",
    "bit",
    "bits",
    "extract",
    "insert",
    "sext",
    "to_signed32",
    "to_signed64",
    "to_unsigned32",
    "to_unsigned64",
    "crc32_xilinx",
    "crc32_update",
]
