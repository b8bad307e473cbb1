"""Framed binary log format (dnstap-style), ``.rbsc``.

Layout: a 6-byte header (``>4sH``: magic, format version) followed by
length-prefixed frames — a big-endian ``>H`` byte count, then the frame
body ``>dII`` (float64 timestamp, uint32 querier, uint32 originator).
Exact timestamp roundtrips and roughly half the size of the text format,
at the cost of not being greppable.

The grammar is defined once, here, in three pieces that the file reader
(:func:`read_frames_block`) and the live feed decoder
(:class:`repro.service.FeedReader`) both call: :func:`header_error`,
:func:`decode_frames` (the complete frames before the first bad one) and
:func:`tail_error` (an incomplete final record).  Each returns the text
of the first corruption in stream order — bad magic, unsupported
version, a truncated header, a frame whose declared length does not
match the record size, or a truncated frame — which the readers prefix
with ``path:`` or ``feed:``.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "RECORD_SIZE",
    "write_frames",
    "read_frames_block",
    "header_error",
    "decode_frames",
    "tail_error",
]

MAGIC = b"RBSC"
VERSION = 1

_HEADER = struct.Struct(">4sH")
_LENGTH = struct.Struct(">H")
_FRAME = struct.Struct(">dII")
HEADER_SIZE = _HEADER.size
RECORD_SIZE = _LENGTH.size + _FRAME.size

# Every frame is fixed-size (length prefix + body), so a run of frames
# decodes as one strided structured-array view — no per-frame unpacking.
_RECORD = np.dtype(
    [("length", ">u2"), ("timestamp", ">f8"), ("querier", ">u4"), ("originator", ">u4")]
)


def write_frames(path: str | Path, entries: Iterable[QueryLogEntry]) -> int:
    """Write *entries* as a framed binary log; returns the number written."""
    count = 0
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION))
        length = _LENGTH.pack(_FRAME.size)
        for entry in entries:
            handle.write(length)
            handle.write(_FRAME.pack(entry.timestamp, entry.querier, entry.originator))
            count += 1
    return count


def header_error(head: bytes | bytearray | memoryview) -> str | None:
    """Why the stream opening *head* has no valid header, or ``None``."""
    if len(head) < HEADER_SIZE:
        return f"truncated header ({len(head)} bytes)"
    magic, version = _HEADER.unpack_from(head)
    if magic != MAGIC:
        return f"bad magic {magic!r} (expected {MAGIC!r})"
    if version != VERSION:
        return f"unsupported version {version} (expected {VERSION})"
    return None


def _length_error(length: int) -> str:
    return f"invalid frame length {length} (expected {_FRAME.size})"


def decode_frames(body: bytes | memoryview) -> tuple[EntryBlock, int, str | None]:
    """The complete frames of *body*, up to the first bad one.

    Returns ``(block, consumed, error)``: the decoded frames, the bytes
    they span, and the bad frame's error text (``None`` if every
    complete record is a frame).  A partial record after the last
    complete one is left unconsumed for the caller (see
    :func:`tail_error`).  One ``np.frombuffer`` view per call.
    """
    records = np.frombuffer(body, dtype=_RECORD, count=len(body) // RECORD_SIZE)
    bad = np.flatnonzero(records["length"] != _FRAME.size)
    error = None
    if bad.size:
        error = _length_error(int(records["length"][bad[0]]))
        records = records[: bad[0]]
    block = EntryBlock.from_arrays(
        records["timestamp"], records["querier"], records["originator"]
    )
    return block, len(records) * RECORD_SIZE, error


def tail_error(tail: bytes | bytearray | memoryview) -> str:
    """Why an incomplete final record (``0 < len < RECORD_SIZE``) is no frame."""
    if len(tail) < _LENGTH.size:
        return "truncated frame length prefix"
    (length,) = _LENGTH.unpack_from(tail)
    if length != _FRAME.size:
        return _length_error(length)
    return f"truncated frame body ({len(tail) - _LENGTH.size}/{_FRAME.size} bytes)"


def read_frames_block(path: str | Path) -> EntryBlock:
    """Decode a framed binary log into a columnar block.

    Raises ``ValueError`` (``path: …``) naming the first corruption.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    error = header_error(raw)
    if error is None:
        body = memoryview(raw)[HEADER_SIZE:]
        block, consumed, error = decode_frames(body)
        if error is None and consumed < len(body):
            error = tail_error(body[consumed:])
    if error is not None:
        raise ValueError(f"{path}: {error}")
    return block
