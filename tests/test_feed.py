"""The feed decoders against scalar oracles, and a feed that loses its framing.

* Text: :func:`repro.datasets.io.decode_text_lines` is the one parser of
  the text grammar.  It decodes canonical lines by array arithmetic and
  sends every other line, alone, to the scalar parser.  Whatever the mix
  of lines and however the bytes are cut into reads, its rows (timestamps
  bit for bit, in line order) and its skipped-line count must equal the
  per-line loop below; ``read_log_block`` must stop at the same first
  bad line.
* rbsc: :mod:`repro.datasets.dnstap` holds the one frame grammar.  For
  any frame stream and any cut into reads, the feed decoder keeps the
  same frames before the first fault, and names the same fault, as
  ``read_frames_block`` on the whole file.  A bad frame ends that one
  feed with a counted error, and a bad frame in a tailed file leaves
  ``stop()`` able to finish.
"""

from __future__ import annotations

import asyncio
import re
import socket
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import io, read_log_block
from repro.datasets.dnstap import MAGIC, VERSION, read_frames_block
from repro.logstore import ENTRY_DTYPE
from repro.netmodel.addressing import reverse_name_to_ip, str_to_ip
from repro.sensor.engine import SensorConfig
from repro.service import BackscatterService, FeedReader, ServiceConfig
from repro.service.feed import FeedError

# -- text ---------------------------------------------------------------


def oracle(payload: bytes) -> tuple[np.ndarray, int]:
    """Rows and skipped lines of the per-line loop, for a whole payload."""
    rows: list[tuple[float, int, int]] = []
    bad = 0
    for line in payload.decode("ascii", errors="replace").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            timestamp, querier, qname = line.split()
            rows.append((float(timestamp), str_to_ip(querier), reverse_name_to_ip(qname)))
        except ValueError:
            bad += 1
    return np.array(rows, dtype=ENTRY_DTYPE), bad


DIGITS = "0123456789"
SUFFIX = ".in-addr.arpa"

# Every shape the fast path must leave to the scalar parser, plus shapes it
# takes (leading-zero octets) whose values must still match.
FORMS = (
    "canonical", "canonical", "canonical", "canonical", "comment", "blank", "cr",
    "crlf", "tab", "double_space", "padded", "upper", "trailing_dot", "exponent",
    "nan", "inf", "underscore", "signed", "bare_dot", "dot_first", "long_mantissa",
    "non_ascii", "two_fields", "four_fields", "leading_zero", "octet_256",
    "wide_octet", "empty_octet", "vertical_tab", "separator_byte", "short_name",
    "wrong_suffix", "shifted_space", "split_timestamp", "trailing_separator",
    "dotted_timestamp", "stray_byte", "stray_byte",
)


@st.composite
def text_lines(draw) -> bytes:
    whole = draw(st.text(DIGITS, min_size=1, max_size=9))
    frac = draw(st.text(DIGITS, max_size=6))
    ts = f"{whole}.{frac}" if frac else whole
    long = draw(st.text(DIGITS, min_size=16, max_size=18))
    cut = draw(st.integers(1, len(long) - 1))
    q = ".".join(str(draw(st.integers(0, 255))) for _ in range(4))
    octets = [str(draw(st.integers(0, 255))) for _ in range(4)]
    o = ".".join(octets) + SUFFIX
    rest = ".".join(octets[1:]) + SUFFIX
    core = f"{ts} {q} {'.'.join(octets)}"
    at = draw(st.integers(0, len(core)))
    stray = draw(st.sampled_from(" .x-+/:\x00"))
    form = draw(st.sampled_from(FORMS))
    line = {
        "canonical": f"{ts} {q} {o}",
        "comment": f"# {ts} {q} {o}",
        "blank": "",
        "cr": f"{ts} {q}\r{o}",
        "crlf": f"{ts} {q} {o}\r",
        "tab": f"{ts}\t{q}\t{o}",
        "double_space": f"{ts}  {q} {o}",
        "padded": f" {ts} {q} {o} ",
        "upper": f"{ts} {q} {o.upper()}",
        "trailing_dot": f"{ts} {q} {o}.",
        "exponent": f"{whole}e3 {q} {o}",
        "nan": f"nan {q} {o}",
        "inf": f"inf {q} {o}",
        "underscore": f"1_{whole} {q} {o}",
        "signed": f"+{ts} {q} {o}",
        "bare_dot": f"{whole}. {q} {o}",
        "dot_first": f".{whole} {q} {o}",
        "long_mantissa": f"{long[:cut]}.{long[cut:]} {q} {o}",
        "non_ascii": f"{ts} {q} {o}é",
        "two_fields": f"{ts} {q}",
        "four_fields": f"{ts} {q} {o} extra",
        "leading_zero": f"{ts} 0{q} 00{o}",
        "octet_256": f"{ts} {q} {draw(st.sampled_from(['256', '300', '999']))}.{rest}",
        "wide_octet": f"{ts} {q} {draw(st.sampled_from(['0001', '1000', '2550']))}.{rest}",
        "empty_octet": f"{ts} {q} .{rest}",
        "vertical_tab": f"{ts} {q}\x0b{o}",
        "separator_byte": f"{ts} {q} {o}\x1c{ts} {q} {o}",
        "short_name": f"{ts} {q} {'.'.join(octets[:3])}{SUFFIX}",
        "wrong_suffix": f"{ts} {q} {o[:-1]}z",
        "shifted_space": f"{ts} {q}.{octets[0]} {rest}",
        "split_timestamp": f"{whole} {frac or '0'}.{q} {o}",
        "dotted_timestamp": f"{ts}.{whole} {q} {o}",
        "stray_byte": f"{core[:at]}{stray}{core[at:]}{SUFFIX}",
        "trailing_separator": f"{ts} {q} {'.'.join(octets)}.{SUFFIX}",
    }[form]
    return line.encode("utf-8")


payloads = st.tuples(
    st.lists(st.one_of(text_lines(), st.binary(max_size=24)), max_size=40),
    st.booleans(),
).map(lambda p: b"\n".join(line.replace(b"\n", b"") for line in p[0]) + b"\n" * p[1])


def decode_in_reads(payload: bytes, read: int | None):
    reader = FeedReader("text")
    step = read or max(len(payload), 1)
    blocks = [reader.feed(payload[lo : lo + step]) for lo in range(0, len(payload), step)]
    blocks.append(reader.close())
    return np.concatenate([block.data for block in blocks]), reader


class TestTextGrammar:
    @settings(max_examples=250, deadline=None)
    @given(payload=payloads, read=st.sampled_from([1, 7, 18, 100, None]))
    def test_any_mix_any_cut_equals_the_scalar_oracle(self, payload, read):
        got, reader = decode_in_reads(payload, read)
        want, bad = oracle(payload)
        # Bytes, so timestamps compare bit for bit (NaN included) and in order.
        assert got.tobytes() == want.tobytes()
        assert reader.bad_lines == bad
        assert reader.entries_decoded == len(want)

    @settings(max_examples=100, deadline=None)
    @given(payload=payloads, read=st.sampled_from([7, 100, 1 << 20]))
    def test_read_log_block_stops_at_the_first_bad_line(self, payload, read):
        first_bad = next(
            (number for number, line in enumerate(payload.split(b"\n"), start=1)
             if oracle(line)[1]),
            None,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.txt"
            path.write_bytes(payload)
            with mock.patch.object(io, "_READ_BYTES", read):
                if first_bad is None:
                    got = read_log_block(path).data
                    assert got.tobytes() == oracle(payload)[0].tobytes()
                else:
                    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{first_bad}: "):
                        read_log_block(path)

    def test_one_garbage_line_costs_one_scalar_call(self, monkeypatch):
        calls = []
        scalar = io._parse_line
        monkeypatch.setattr(io, "_parse_line", lambda line: calls.append(line) or scalar(line))
        lines = [
            f"{1_400_000_000 + i / 1000:.3f} 192.0.2.{i % 256} {i % 256}.2.0.198.in-addr.arpa\n"
            for i in range(999)
        ]
        lines.insert(500, "GARBAGE\n")
        payload = "".join(lines).encode()
        reader = FeedReader("text")
        block = reader.feed(payload)
        assert calls == [b"GARBAGE\n"]
        assert len(block) == 999 and reader.bad_lines == 1
        assert block.data.tobytes() == oracle(payload)[0].tobytes()

    @pytest.mark.parametrize(
        "line",
        [
            b"1.5 192.0.2.1 256.3.2.1.in-addr.arpa",
            b"1.5 192.0.2.255 255.3.2.1.in-addr.arpa",
            b"1 1.2.3 4.3.2.1.in-addr.arpa",  # one dot short: a run too few
            b"1.2.3 1.2.3.4 4.3.2.1.in-addr.arpa",
            b"1.5 1.2.3.4 4.3.2.1 .in-addr.arpa",
            b"007.50 01.002.3.4 000.3.2.1.in-addr.arpa",
        ],
    )
    def test_near_misses_match_the_oracle(self, line):
        # The garbage line before ends in a digit run and a space, which a
        # run index off by one would read as this line's first separator.
        payload = b"x 5 \n" + line + b"\n2.5 192.0.2.1 4.3.2.1.in-addr.arpa\n"
        got, reader = decode_in_reads(payload, None)
        want, bad = oracle(payload)
        assert got.tobytes() == want.tobytes() and reader.bad_lines == bad

    @pytest.mark.parametrize("ts", ["821.72843949926903", "955430966832521.1"])
    def test_long_mantissa_is_left_to_float(self, ts):
        # Digits over a power of ten would round these twice, and wrongly.
        block = FeedReader("text").feed(f"{ts} 192.0.2.1 4.3.2.1.in-addr.arpa\n".encode())
        assert block.timestamps.tolist() == [float(ts)]

    def test_non_ascii_line_names_its_line(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_bytes(
            b"# header\n1.5 192.0.2.1 4.3.2.1.in-addr.arpa\n"
            b"2.5 192.0.2.1 4.3.2.1.in-addr.arpa\xff\n"
        )
        with pytest.raises(ValueError, match=r":3: "):
            read_log_block(path)


# -- rbsc ---------------------------------------------------------------


def frames(count: int, bad_length: int | None = None) -> bytes:
    """Header, *count* good frames, then one frame claiming *bad_length*."""
    out = struct.pack(">4sH", MAGIC, VERSION)
    for i in range(count):
        out += struct.pack(">HdII", 16, 10.0 + i, 100 + i, 200)
    if bad_length is not None:
        out += struct.pack(">HdII", bad_length, 99.0, 1, 2)
    return out


def frame(i: int, length: int = 16) -> bytes:
    return struct.pack(">HdII", length, 10.0 + i, 100 + i, 200)


@st.composite
def frame_streams(draw) -> tuple[bytes, int]:
    """Good frames, maybe one bad length, maybe a partial tail.

    Returns the stream and how many good frames precede its first fault.
    """
    count = draw(st.integers(0, 40))
    bad = draw(st.none() | st.integers(0, count))
    records = [frame(i) for i in range(count)]
    if bad is not None:
        length = draw(st.integers(0, 0xFFFF).filter(lambda n: n != 16))
        records.insert(bad, frame(99, length))
    tail = draw(st.integers(0, 17).map(lambda k: frame(count)[:k]) | st.binary(max_size=17))
    before = count if bad is None else bad
    return struct.pack(">4sH", MAGIC, VERSION) + b"".join(records) + tail, before


class TestRbscFraming:
    @settings(max_examples=200, deadline=None)
    @given(drawn=frame_streams(), read=st.sampled_from([1, 7, 18, 1 << 16, None]))
    def test_feed_and_file_name_the_same_first_fault(self, drawn, read):
        payload, before = drawn
        reader = FeedReader("auto")
        step = read or len(payload)
        blocks, got_error = [], None
        try:
            for lo in range(0, len(payload), step):
                blocks.append(reader.feed(payload[lo : lo + step]))
            blocks.append(reader.close())
        except FeedError as error:
            blocks.append(error.block)
            got_error = str(error).removeprefix("feed: ")
        got = np.concatenate([block.data for block in blocks])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.rbsc"
            path.write_bytes(payload)
            try:
                read_frames_block(path)
                want_error = None
            except ValueError as error:
                want_error = str(error).removeprefix(f"{path}: ")
            path.write_bytes(payload[: 6 + 18 * before])
            want = read_frames_block(path).data
        assert got_error == want_error
        assert got.tobytes() == want.tobytes()
        assert reader.entries_decoded == len(want)

    def test_bad_frame_keeps_the_frames_before_it(self):
        reader = FeedReader("auto")
        with pytest.raises(FeedError, match="frame length 99") as caught:
            reader.feed(frames(10, bad_length=99))
        assert caught.value.reason == "frame"
        assert caught.value.block.timestamps.tolist() == [10.0 + i for i in range(10)]
        assert reader.entries_decoded == 10
        with pytest.raises(ValueError, match="closed"):
            reader.feed(frames(1)[6:])
        assert len(reader.close()) == 0

    def test_partial_frame_at_close_is_truncated(self):
        reader = FeedReader("rbsc")
        assert len(reader.feed(frames(3)[:-5])) == 2
        with pytest.raises(FeedError, match="truncated") as caught:
            reader.close()
        assert caught.value.reason == "truncated" and len(caught.value.block) == 0

    def test_partial_header_at_close_is_a_truncated_header(self):
        reader = FeedReader("auto")
        assert len(reader.feed(b"RBSC\x00")) == 0
        with pytest.raises(FeedError, match=r"^feed: truncated header \(5 bytes\)$") as caught:
            reader.close()
        assert caught.value.reason == "truncated" and len(caught.value.block) == 0


def _service(**overrides) -> BackscatterService:
    config = ServiceConfig(port=0, sensor=SensorConfig(window_seconds=100.0), **overrides)
    return BackscatterService(None, config)


async def _until(predicate, timeout: float = 10.0) -> None:
    async def poll():
        while not predicate():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), timeout)


def _errors(service: BackscatterService, reason: str) -> float:
    instrument = service.registry.get("repro_service_feed_errors_total")
    return 0.0 if instrument is None else instrument.value(reason=reason)


class TestFeedErrorsInTheService:
    @pytest.mark.parametrize(
        "payload,reason,events",
        [
            (frames(10, bad_length=99), "frame", 10),
            (frames(3)[:-5], "truncated", 2),
            (b"RBSC\x00", "truncated", 0),
        ],
        ids=["frame", "truncated", "header"],
    )
    def test_socket_keeps_good_frames_and_counts_the_error(self, payload, reason, events):
        async def run():
            service = _service(feed_port=0)
            await service.start()
            _, writer = await asyncio.open_connection(*service.feed_address)
            writer.write(payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await _until(lambda: service.health()["feed_errors"] == 1)
            await service.drain()
            health = service.health()
            await service.stop()
            return service, health

        service, health = asyncio.run(run())
        assert health["events"] == events
        assert health["feed_errors"] == 1 and health["status"] == "ok"
        assert _errors(service, reason) == 1

    def test_bad_frame_in_a_tailed_file_lets_stop_finish(self, tmp_path):
        feed = tmp_path / "feed.rbsc"
        feed.write_bytes(frames(1, bad_length=7))

        async def run():
            service = _service(feed_path=str(feed), feed_poll_seconds=0.01)
            await service.start()
            address = service.http_address
            await _until(lambda: service.health()["feed_errors"] == 1)
            await service.stop()
            return service, address

        service, (host, port) = asyncio.run(run())
        assert service.health()["events"] == 1
        assert _errors(service, "frame") == 1
        with socket.socket() as rebind:
            rebind.bind((host, port))
