"""Tests for the framed binary (dnstap-style) log format."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets.dnstap import MAGIC, VERSION, read_frames_block, write_frames
from repro.dnssim.message import QueryLogEntry


def entries_of(raw):
    return [QueryLogEntry(timestamp=t, querier=q, originator=o) for t, q, o in raw]


def read_entries(path):
    return read_frames_block(path).to_entries()


class TestRoundtrip:
    def test_simple(self, tmp_path):
        entries = entries_of([(1.5, 10, 20), (2.25, 11, 21)])
        path = tmp_path / "log.rbsc"
        assert write_frames(path, entries) == 2
        assert read_entries(path) == entries

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.rbsc"
        assert write_frames(path, []) == 0
        assert read_entries(path) == []

    def test_block_iterates_entries(self, tmp_path):
        entries = entries_of([(float(i), i, i) for i in range(100)])
        path = tmp_path / "many.rbsc"
        write_frames(path, entries)
        iterator = iter(read_frames_block(path))
        assert next(iterator).querier == 0
        assert sum(1 for _ in iterator) == 99

    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e9, allow_nan=False),
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**32 - 1),
            ),
            max_size=60,
        )
    )
    def test_roundtrip_property(self, raw):
        import tempfile
        from pathlib import Path

        entries = entries_of(raw)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.rbsc"
            write_frames(path, entries)
            assert read_entries(path) == entries

    def test_smaller_than_text(self, tmp_path):
        from repro.datasets.io import write_log

        entries = entries_of([(float(i), i, i + 1) for i in range(500)])
        binary = tmp_path / "log.rbsc"
        text = tmp_path / "log.txt"
        write_frames(binary, entries)
        write_log(text, entries)
        assert binary.stat().st_size < text.stat().st_size / 2


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rbsc"
        path.write_bytes(b"XXXX\x00\x01")
        with pytest.raises(ValueError, match="magic"):
            read_entries(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.rbsc"
        path.write_bytes(struct.pack(">4sH", MAGIC, VERSION + 1))
        with pytest.raises(ValueError, match="version"):
            read_entries(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.rbsc"
        path.write_bytes(b"RB")
        with pytest.raises(ValueError, match="truncated"):
            read_entries(path)
        path.write_bytes(b"RBSC\x00")
        with pytest.raises(ValueError, match=r"truncated header \(5 bytes\)"):
            read_entries(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "bad.rbsc"
        good = tmp_path / "good.rbsc"
        write_frames(good, entries_of([(1.0, 2, 3)]))
        data = good.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="truncated frame body"):
            read_entries(path)

    def test_bad_frame_length(self, tmp_path):
        path = tmp_path / "bad.rbsc"
        path.write_bytes(struct.pack(">4sH", MAGIC, VERSION) + struct.pack(">H", 7) + b"\x00" * 7)
        with pytest.raises(ValueError, match="frame length"):
            read_entries(path)

    def test_first_fault_is_named_not_the_tail(self, tmp_path):
        # A bad frame length ahead of a truncated tail: the frame comes
        # first in the stream, so it is the fault reported.
        good = struct.pack(">HdII", 16, 1.0, 2, 3)
        path = tmp_path / "bad.rbsc"
        path.write_bytes(
            struct.pack(">4sH", MAGIC, VERSION)
            + good
            + struct.pack(">HdII", 17, 1.0, 2, 3)
            + good
            + good[:3]
        )
        with pytest.raises(ValueError, match=r"invalid frame length 17 \(expected 16\)"):
            read_entries(path)
