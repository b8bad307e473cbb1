"""Text serialization for sensor logs and querier directories.

The text log format is one reverse query per line, the way an authority
operator would export it::

    # timestamp querier qname
    1.500 1.2.3.4 8.7.6.5.in-addr.arpa

i.e. the arrival time (seconds into the collection, millisecond
precision), the querier's address, and the PTR QNAME — which encodes the
originator in reversed-octet form.  Comment (``#``) and blank lines are
skipped on read.  The framed binary twin (exact timestamps, half the
size) lives in :mod:`repro.datasets.dnstap`.

Querier directories are JSON lines of
:class:`~repro.sensor.directory.QuerierInfo` rows; ``read_directory``
returns a :class:`~repro.sensor.directory.StaticDirectory`, whose lookup
of an unlisted address answers NXDOMAIN — the right default for
addresses the collection never enriched.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from repro.dnssim.message import QueryLogEntry
from repro.netmodel.addressing import ip_to_reverse_name, ip_to_str, reverse_name_to_ip, str_to_ip
from repro.netmodel.world import NameStatus
from repro.sensor.directory import QuerierInfo, StaticDirectory

__all__ = ["write_log", "read_log", "read_log_block", "write_directory", "read_directory"]


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


def read_log(path: str | Path) -> list[QueryLogEntry]:
    """Parse a text log into entry objects (:func:`read_log_block`, converted)."""
    return read_log_block(path).to_entries()


def read_log_block(path: str | Path):
    """Parse a text log into a columnar :class:`~repro.logstore.EntryBlock`.

    Raises ``ValueError`` (``path:lineno: …``) on the first malformed line.
    """
    import numpy as np

    from repro.logstore import ENTRY_DTYPE, EntryBlock

    rows: list[tuple[float, int, int]] = []
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(
                    f"{path}:{lineno}: expected 'timestamp querier qname', got {line!r}"
                )
            timestamp, querier, qname = fields
            try:
                rows.append(
                    (float(timestamp), str_to_ip(querier), reverse_name_to_ip(qname))
                )
            except ValueError as error:
                raise ValueError(f"{path}:{lineno}: {error}") from error
    return EntryBlock(np.array(rows, dtype=ENTRY_DTYPE))


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


def read_directory(path: str | Path) -> StaticDirectory:
    """Load a JSONL querier directory into a :class:`StaticDirectory`."""
    directory = StaticDirectory()
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                info = QuerierInfo(
                    addr=int(row["addr"]),
                    name=row["name"],
                    status=NameStatus[row["status"]],
                    asn=row["asn"],
                    country=row["country"],
                )
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                raise ValueError(f"{path}:{lineno}: invalid directory row: {error}") from error
            directory.add(info)
    return directory
