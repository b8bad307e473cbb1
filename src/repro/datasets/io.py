"""Text serialization for sensor logs and querier directories.

The text log format is one reverse query per line, the way an authority
operator would export it::

    # timestamp querier qname
    1.500 1.2.3.4 8.7.6.5.in-addr.arpa

i.e. the arrival time (seconds into the collection, millisecond
precision), the querier's address, and the PTR QNAME — which encodes the
originator in reversed-octet form.  Comment (``#``) and blank lines are
skipped on read.  :func:`decode_text_lines` is the one parser of this
grammar: :func:`read_log_block` and the live feed decoder
(:class:`repro.service.FeedReader`) both call it.  The framed binary
twin (exact timestamps, half the size) lives in
:mod:`repro.datasets.dnstap`.

Querier directories are JSON lines of
:class:`~repro.sensor.directory.QuerierInfo` rows; ``read_directory``
validates every row and returns a
:class:`~repro.sensor.directory.FrozenDirectory` — columns enriched once,
at load — whose lookup of an unlisted address answers NXDOMAIN, the
right default for addresses the collection never enriched.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.dnssim.message import QueryLogEntry
from repro.logstore import ENTRY_DTYPE, EntryBlock
from repro.netmodel.addressing import ip_to_reverse_name, ip_to_str, reverse_name_to_ip, str_to_ip
from repro.netmodel.world import NameStatus
from repro.sensor.directory import FrozenDirectory, QuerierInfo

__all__ = [
    "write_log",
    "read_log_block",
    "decode_text_lines",
    "write_directory",
    "read_directory",
]

_NEWLINE, _SPACE, _DOT, _ZERO = b"\n .0"
_SUFFIX = np.frombuffer(b".in-addr.arpa", dtype=np.uint8)
_SUFFIX_LETTERS = 11
"""Bytes of the suffix that are neither digit, dot nor space."""
_MAX_DIGITS = 15
"""Timestamp digits the fast path takes: the mantissa stays below 2**53."""
_POW10 = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.int64)
_POW10_FLOAT = _POW10.astype(np.float64)  # exact: every one is below 2**53
_OCTET_WEIGHTS = np.array([1 << 24, 1 << 16, 1 << 8, 1], dtype=np.int64)
_READ_BYTES = 1 << 20


def write_log(path: str | Path, entries: Iterable[QueryLogEntry]) -> int:
    """Write *entries* as a text log; returns the number written.

    Timestamps are rounded to the millisecond — callers needing exact
    float64 roundtrips use the framed binary format instead.
    """
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# repro backscatter log: timestamp querier qname\n")
        for entry in entries:
            handle.write(
                f"{entry.timestamp:.3f} {ip_to_str(entry.querier)} "
                f"{ip_to_reverse_name(entry.originator)}\n"
            )
            count += 1
    return count


def read_log_block(path: str | Path) -> EntryBlock:
    """Parse a text log into a columnar :class:`~repro.logstore.EntryBlock`.

    Reads a megabyte of whole lines at a time through
    :func:`decode_text_lines`.  Raises ``ValueError`` (``path:lineno: …``)
    on the first line that does not parse, non-ASCII bytes included.
    """
    blocks: list[np.ndarray] = []
    lines_before = 0
    tail = b""
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_READ_BYTES)
            data = tail + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            data, tail = data[:cut], data[cut:]
            block, errors = decode_text_lines(data)
            if errors:
                index, message = errors[0]
                raise ValueError(f"{path}:{lines_before + index + 1}: {message}")
            blocks.append(block.data)
            lines_before += data.count(b"\n")
            if not chunk:
                return EntryBlock(np.concatenate(blocks))


def decode_text_lines(data: bytes) -> tuple[EntryBlock, list[tuple[int, str]]]:
    """Decode whole text-log lines, the read at once.

    *data* holds complete lines; a last line without ``\\n`` counts as
    one.  A canonical line, ``<digits>[.<digits>] <a.b.c.d>
    <d.c.b.a>.in-addr.arpa`` with single spaces, at most 15 timestamp
    digits and 1–3-digit octets ≤ 255, is decoded by array arithmetic.
    Its timestamp is its digits as one integer over a power of ten: both
    are exact doubles, so the quotient rounds to what ``float`` returns.
    Any other line goes alone to the scalar parser, and its rows merge
    back in line order.  Returns the rows and one ``(line index,
    message)`` per line that does not parse; comments and blank lines
    parse to no row.
    """
    if not data:
        return EntryBlock.empty(), []
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == _NEWLINE)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lines, columns = _canonical_lines(buf, starts, ends)
    fast = np.empty(lines.size, dtype=ENTRY_DTYPE)
    fast["timestamp"], fast["querier"], fast["originator"] = columns
    slow = np.ones(ends.size, dtype=bool)
    slow[lines] = False
    rows: list[tuple[float, int, int]] = []
    row_lines: list[int] = []
    errors: list[tuple[int, str]] = []
    for index in np.flatnonzero(slow).tolist():
        parsed, bad = _parse_line(data[starts[index] : ends[index] + 1])
        rows += parsed
        row_lines += [index] * len(parsed)
        errors += [(index, message) for message in bad]
    if not rows:
        return EntryBlock(fast), errors
    merged = np.concatenate([fast, np.array(rows, dtype=ENTRY_DTYPE)])
    order = np.argsort(np.concatenate([lines, row_lines]), kind="stable")
    return EntryBlock(merged[order]), errors


def _parse_line(line: bytes) -> tuple[list[tuple[float, int, int]], list[str]]:
    """The scalar parser: any one line, as rows and error messages."""
    rows: list[tuple[float, int, int]] = []
    errors: list[str] = []
    # ``splitlines`` also breaks at \r, \v, \f and \x1c-\x1e, so one
    # ``\n``-terminated line can hold several.
    for text in line.decode("ascii", errors="replace").splitlines():
        text = text.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) != 3:
            errors.append(f"expected 'timestamp querier qname', got {text!r}")
            continue
        timestamp, querier, qname = fields
        try:
            rows.append((float(timestamp), str_to_ip(querier), reverse_name_to_ip(qname)))
        except ValueError as error:
            errors.append(str(error))
    return rows, errors


def _canonical_lines(
    buf: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Indices of the canonical lines in *buf*, and their three columns.

    First by counts per line: two spaces; 8 or 9 dots (two in the
    suffix, one in a fractional timestamp); 11 letters; and one digit
    run more than the 8 or 9 separators before the suffix, which holds
    only if no two separators touch and digits open and close the
    fields.  Then the suffix bytes, which separators are the spaces, and
    the run widths.
    """
    digit = (buf - _ZERO) < 10  # uint8 wraps every byte below "0" high
    run_first = digit.copy()
    run_first[1:] &= ~digit[:-1]
    run_last = digit.copy()
    run_last[:-1] &= ~digit[1:]

    def per_line(mask: np.ndarray) -> np.ndarray:
        return np.add.reduceat(mask, starts, dtype=np.intp)

    spaces = per_line(buf == _SPACE)
    dots = per_line(buf == _DOT)
    runs = per_line(run_first)
    letters = ends - starts - spaces - dots - per_line(digit)
    frac = dots - 8  # 1 when the timestamp has a fractional part
    line = np.flatnonzero(
        (spaces == 2) & ((frac == 0) | (frac == 1)) & (runs == 9 + frac)
        & (letters == _SUFFIX_LETTERS)
    )
    # Runs of line i: first[i], then first[i] + 1, ... in byte order.
    first = (np.cumsum(runs) - runs)[line]
    frac = frac[line]
    run_lo = np.flatnonzero(run_first)
    run_hi = np.flatnonzero(run_last) + 1
    octet_runs = (first + frac)[:, None] + np.arange(1, 9)
    octet_hi = run_hi[octet_runs]
    octet_width = octet_hi - run_lo[octet_runs]
    int_width = run_hi[first] - run_lo[first]
    frac_width = np.where(frac == 1, run_hi[first + 1] - run_lo[first + 1], 0)
    suffix_at = ends[line, None] - _SUFFIX.size + np.arange(_SUFFIX.size)
    ok = (
        (buf[suffix_at] == _SUFFIX).all(axis=1)
        & (buf[run_hi[first + frac]] == _SPACE)  # after the timestamp
        & (buf[run_hi[first + frac + 4]] == _SPACE)  # after the querier
        & (octet_width <= 3).all(axis=1)
        & (int_width + frac_width <= _MAX_DIGITS)
    )
    line, first, octet_hi, octet_width, int_width, frac_width = (
        column[ok] for column in (line, first, octet_hi, octet_width, int_width, frac_width)
    )
    octets = _run_values(buf, octet_hi, octet_width, 3)
    ok = (octets <= 255).all(axis=1)
    whole = _run_values(buf, run_hi[first], int_width, _MAX_DIGITS)
    fraction = _run_values(buf, run_hi[first + 1], frac_width, _MAX_DIGITS)
    timestamps = (whole * _POW10[frac_width] + fraction) / _POW10_FLOAT[frac_width]
    queriers = octets[:, :4] @ _OCTET_WEIGHTS
    originators = octets[:, :3:-1] @ _OCTET_WEIGHTS  # d.c.b.a names a.b.c.d
    return line[ok], (timestamps[ok], queriers[ok], originators[ok])


def _run_values(
    buf: np.ndarray, hi: np.ndarray, width: np.ndarray, columns: int
) -> np.ndarray:
    """Integer value of each digit run ``buf[hi - width : hi]``, ``width <= columns``.

    The runs are read right-aligned, ``columns`` bytes each, so every
    column has a fixed power of ten; bytes left of a run count as 0 (an
    index before the buffer's start wraps to its end, and is masked too).
    """
    back = np.arange(columns, 0, -1)
    digits = buf[hi[..., None] - back].astype(np.int64) - _ZERO
    return np.where(back <= width[..., None], digits, 0) @ _POW10[columns - 1 :: -1]


def write_directory(path: str | Path, infos: Iterable[QuerierInfo]) -> int:
    """Write querier metadata as JSON lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        for info in infos:
            handle.write(
                json.dumps(
                    {
                        "addr": info.addr,
                        "name": info.name,
                        "status": info.status.name,
                        "asn": info.asn,
                        "country": info.country,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
            count += 1
    return count


def read_directory(path: str | Path) -> FrozenDirectory:
    """Load a JSONL querier directory into a :class:`FrozenDirectory`.

    Every row must be an object with ``addr`` an int in [0, 2**32),
    ``name`` and ``country`` strings or null, ``status`` a
    :class:`NameStatus` name, and ``asn`` an int >= 0 or null.  Raises
    ``ValueError`` (``path:lineno: invalid directory row: …``) on the
    first row that is not, non-ASCII bytes included.  Blank lines are
    skipped, and a repeated address keeps its last row.
    """
    rows = []
    # Non-ASCII bytes decode to U+FFFD, which _directory_row refuses.
    with open(path, encoding="ascii", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                rows.append(_directory_row(text))
            except ValueError as error:
                raise ValueError(f"{path}:{lineno}: invalid directory row: {error}") from None
    return FrozenDirectory(rows)


_DIRECTORY_FIELDS = ("addr", "name", "status", "asn", "country")
_NAME_STATUS = dict(NameStatus.__members__)
_decode_json = json.JSONDecoder().raw_decode


def _directory_row(text: str) -> QuerierInfo:
    """One stripped directory line as a :class:`QuerierInfo`.

    Raises ``ValueError`` saying what is wrong with it.
    """
    if "\ufffd" in text:
        raise ValueError("non-ASCII bytes")
    row, end = _decode_json(text)  # JSONDecodeError is a ValueError
    if end != len(text):
        raise ValueError(f"extra data after the row at column {end + 1}")
    if type(row) is not dict:
        raise ValueError(f"expected an object, got {text!r}")
    try:
        addr, name, asn, country = row["addr"], row["name"], row["asn"], row["country"]
        status = row["status"]
    except KeyError:
        missing = [field for field in _DIRECTORY_FIELDS if field not in row]
        raise ValueError(f"missing {', '.join(missing)}") from None
    # ``type(...) is int`` also refuses bools, which are ints to Python.
    if type(addr) is not int or not 0 <= addr < 1 << 32:
        raise ValueError(f"addr {addr!r} is not an IPv4 address as an int")
    if asn is not None and (type(asn) is not int or asn < 0):
        raise ValueError(f"asn {asn!r} is neither an int >= 0 nor null")
    for field, value in (("name", name), ("country", country)):
        if value is not None and type(value) is not str:
            raise ValueError(f"{field} {value!r} is neither a string nor null")
    if type(status) is not str or status not in _NAME_STATUS:
        raise ValueError(f"status {status!r} is not one of {', '.join(_NAME_STATUS)}")
    return QuerierInfo(addr, name, _NAME_STATUS[status], asn, country)
