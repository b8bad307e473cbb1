"""Incremental feed decoding: bytes in, :class:`EntryBlock` out.

A live feed arrives in arbitrary chunks — a socket read can end mid
text line or mid ``.rbsc`` frame.  :class:`FeedReader` buffers the
partial tail and decodes everything complete, so callers can push
whatever the transport hands them and submit the returned blocks
straight into the engine.  Both wire formats the offline readers
understand are supported, plus auto-sniffing on the ``RBSC`` magic:

* **text** — ``timestamp querier-ip reverse-qname`` lines, ``#``
  comments and blank lines ignored, decoded a whole read at a time by
  :func:`repro.datasets.io.decode_text_lines` (the one text grammar);
* **rbsc** — the framed binary format of :mod:`repro.datasets.dnstap`:
  6-byte header, then fixed 18-byte length-prefixed frames, decoded a
  read's complete records at a time by that module's grammar (the one
  ``.rbsc`` grammar), so the feed reports the same first fault, in the
  same words, as :func:`~repro.datasets.dnstap.read_frames_block`.
"""

from __future__ import annotations

from repro.datasets.dnstap import (
    HEADER_SIZE,
    MAGIC,
    RECORD_SIZE,
    decode_frames,
    header_error,
    tail_error,
)
from repro.datasets.io import decode_text_lines
from repro.logstore import EntryBlock

__all__ = ["FEED_ERROR_REASONS", "FeedError", "FeedReader"]

#: Why a feed lost its framing (:attr:`FeedError.reason`).
FEED_ERROR_REASONS = ("frame", "truncated")


class FeedError(ValueError):
    """An ``.rbsc`` feed lost its framing; the reader is closed.

    ``reason`` is ``"frame"`` (bad header or frame length) or
    ``"truncated"`` (a partial header or frame at ``close()``); ``block``
    holds the frames of the failing read that decoded before the bad one.
    """

    def __init__(self, message: str, reason: str, block: EntryBlock) -> None:
        super().__init__(message)
        self.reason = reason
        self.block = block


class FeedReader:
    """Stateful chunk decoder for one feed connection.

    ``feed(data)`` consumes a chunk and returns the entries completed by
    it (possibly empty); ``close()`` flushes the final unterminated text
    line.  A text line that does not parse is skipped and counted in
    ``bad_lines``.  A bad ``.rbsc`` header or frame, or a partial header
    or frame at ``close()``, raises :class:`FeedError` and closes the reader,
    since framing is lost.  A reader constructed with ``format="auto"``
    resolves to ``rbsc`` iff the stream opens with the ``RBSC`` magic
    (decided once at least 4 bytes arrive).
    """

    def __init__(self, format: str = "auto") -> None:
        if format not in ("auto", "text", "rbsc"):
            raise ValueError(f"unknown feed format {format!r}")
        self._format = format
        self._buffer = bytearray()
        self._header_seen = False
        self._closed = False
        self.entries_decoded = 0
        self.bad_lines = 0  # text lines skipped: not 'timestamp querier qname'

    @property
    def format(self) -> str:
        """Resolved wire format; ``auto`` until enough bytes to sniff."""
        return self._format

    def feed(self, data: bytes) -> EntryBlock:
        """Consume one chunk; returns the entries it completed."""
        if self._closed:
            raise ValueError("feed() on a closed reader")
        self._buffer.extend(data)
        if self._format == "auto":
            if len(self._buffer) < len(MAGIC):
                return EntryBlock.empty()
            self._format = (
                "rbsc" if bytes(self._buffer[: len(MAGIC)]) == MAGIC else "text"
            )
        if self._format == "rbsc":
            return self._decode_rbsc()
        return self._decode_text(final=False)

    def close(self) -> EntryBlock:
        """Flush the tail; raises :class:`FeedError` on binary truncation."""
        if self._closed:
            return EntryBlock.empty()
        self._closed = True
        if self._format == "rbsc":
            if self._buffer:
                describe = tail_error if self._header_seen else header_error
                raise self._lost_framing(describe(self._buffer), "truncated", EntryBlock.empty())
            return EntryBlock.empty()
        # Auto that never saw 4 bytes is a (possibly empty) text tail.
        self._format = "text"
        return self._decode_text(final=True)

    # -- text -----------------------------------------------------------

    def _decode_text(self, final: bool) -> EntryBlock:
        raw = self._buffer
        cut = len(raw) if final else raw.rfind(b"\n") + 1
        if cut <= 0:
            return EntryBlock.empty()
        block, errors = decode_text_lines(bytes(raw[:cut]))
        del raw[:cut]
        # One bad line must not cost the good lines around it.
        self.bad_lines += len(errors)
        self.entries_decoded += len(block)
        return block

    # -- rbsc -----------------------------------------------------------

    def _lost_framing(self, error: str, reason: str, block: EntryBlock) -> FeedError:
        self._closed = True
        self._buffer.clear()
        return FeedError(f"feed: {error}", reason, block)

    def _decode_rbsc(self) -> EntryBlock:
        buffer = self._buffer
        if not self._header_seen:
            if len(buffer) < HEADER_SIZE:
                return EntryBlock.empty()
            error = header_error(buffer)
            if error is not None:
                raise self._lost_framing(error, "frame", EntryBlock.empty())
            del buffer[:HEADER_SIZE]
            self._header_seen = True
        cut = len(buffer) - len(buffer) % RECORD_SIZE
        if cut == 0:
            return EntryBlock.empty()
        block, _, error = decode_frames(bytes(buffer[:cut]))
        del buffer[:cut]
        self.entries_decoded += len(block)
        if error is not None:
            raise self._lost_framing(error, "frame", block)
        return block
