"""Tests for dataset specs, generation, and serialization."""

from __future__ import annotations

import re

import pytest

from repro.datasets import (
    DATASET_SPECS,
    generate_dataset,
    read_directory,
    read_log_block,
    spec_for,
    write_directory,
    write_log,
)
from repro.dnssim.message import QueryLogEntry
from repro.netmodel.world import NameStatus
from repro.sensor.directory import QuerierInfo


class TestSpecs:
    def test_paper_datasets_present(self):
        expected = {
            "JP-ditl", "B-post-ditl", "M-ditl", "M-ditl-2015",
            "M-sampled", "B-long", "B-multi-year",
        }
        assert set(DATASET_SPECS) == expected

    def test_durations_match_paper(self):
        assert DATASET_SPECS["JP-ditl"].duration_days == pytest.approx(50 / 24)
        assert DATASET_SPECS["B-post-ditl"].duration_days == pytest.approx(36 / 24)
        assert DATASET_SPECS["M-sampled"].duration_days == 270.0

    def test_sampling_only_on_m_sampled(self):
        for name, spec in DATASET_SPECS.items():
            if name == "M-sampled":
                assert spec.vantage.sampling == 10
            else:
                assert spec.vantage.sampling == 1

    def test_jp_scenario_forced_home(self):
        assert DATASET_SPECS["JP-ditl"].scenario.force_home_country == "jp"
        assert DATASET_SPECS["M-ditl"].scenario.force_home_country is None

    def test_heartbleed_only_in_m_sampled(self):
        assert DATASET_SPECS["M-sampled"].scenario.heartbleed_day is not None
        assert DATASET_SPECS["JP-ditl"].scenario.heartbleed_day is None

    def test_tiny_preset_shrinks(self):
        full = spec_for("M-sampled")
        tiny = spec_for("M-sampled", "tiny")
        assert tiny.duration_days < full.duration_days
        assert tiny.world_scale <= full.world_scale
        assert sum(tiny.scenario.initial_actors.values()) < sum(
            full.scenario.initial_actors.values()
        )

    def test_unknown_lookup_rejected(self):
        with pytest.raises(ValueError):
            spec_for("nope")
        with pytest.raises(ValueError):
            spec_for("JP-ditl", preset="huge")


class TestGeneration:
    @pytest.fixture(scope="class")
    def tiny_jp(self):
        return generate_dataset(spec_for("JP-ditl", "tiny"))

    def test_sensor_sees_traffic(self, tiny_jp):
        assert len(tiny_jp.sensor.log) > 100

    def test_sensor_scope_respected(self, tiny_jp):
        jp_blocks = set(tiny_jp.world.geo.blocks_of("jp"))
        for entry in tiny_jp.sensor.log:
            assert (entry.originator >> 24) in jp_blocks

    def test_true_classes_cover_campaigns(self, tiny_jp):
        truth = tiny_jp.true_classes()
        for campaign in tiny_jp.scenario.campaigns:
            assert campaign.originator in truth

    def test_sources_bundle(self, tiny_jp):
        sources = tiny_jp.sources()
        assert sources.actors_by_ip
        some = next(iter(sources.actors_by_ip))
        assert sources.true_class(some) is not None

    def test_log_chronological(self, tiny_jp):
        times = [e.timestamp for e in tiny_jp.sensor.log]
        assert times == sorted(times)

    def test_regeneration_identical(self):
        one = generate_dataset(spec_for("B-post-ditl", "tiny"))
        two = generate_dataset(spec_for("B-post-ditl", "tiny"))
        assert len(one.sensor.log) == len(two.sensor.log)
        first = [(e.timestamp, e.querier, e.originator) for e in one.sensor.log]
        second = [(e.timestamp, e.querier, e.originator) for e in two.sensor.log]
        assert first == second


class TestIo:
    def test_log_roundtrip(self, tmp_path):
        entries = [
            QueryLogEntry(timestamp=1.5, querier=0x01020304, originator=0x05060708),
            QueryLogEntry(timestamp=2.25, querier=0xDEADBEEF, originator=0x0A0B0C0D),
        ]
        path = tmp_path / "log.txt"
        assert write_log(path, entries) == 2
        loaded = read_log_block(path).to_entries()
        assert loaded == entries

    def test_log_skips_comments(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("# header\n\n1.0 1.2.3.4 8.7.6.5.in-addr.arpa\n")
        loaded = read_log_block(path).to_entries()
        assert len(loaded) == 1
        assert loaded[0].originator == 0x05060708

    def test_log_rejects_malformed(self, tmp_path):
        path = tmp_path / "log.txt"
        path.write_text("1.0 1.2.3.4\n")
        with pytest.raises(ValueError):
            read_log_block(path)

    def test_directory_roundtrip(self, tmp_path):
        infos = [
            QuerierInfo(addr=1, name="mail.x.com", status=NameStatus.OK, asn=5, country="us"),
            QuerierInfo(addr=2, name=None, status=NameStatus.NXDOMAIN, asn=None, country=None),
        ]
        path = tmp_path / "dir.jsonl"
        assert write_directory(path, infos) == 2
        directory = read_directory(path)
        assert directory.lookup(1) == infos[0]
        assert directory.lookup(2) == infos[1]

    def test_directory_unknown_addr_defaults(self, tmp_path):
        path = tmp_path / "dir.jsonl"
        write_directory(path, [])
        directory = read_directory(path)
        info = directory.lookup(42)
        assert info.status is NameStatus.NXDOMAIN and info.name is None

    def test_directory_rejects_bad_json(self, tmp_path):
        path = tmp_path / "dir.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError):
            read_directory(path)

    def test_directory_repeated_address_keeps_last_row(self, tmp_path):
        infos = [
            QuerierInfo(addr=7, name="mail.x.com", status=NameStatus.OK, asn=5, country="us"),
            QuerierInfo(addr=3, name=None, status=NameStatus.UNREACH, asn=None, country="jp"),
            QuerierInfo(addr=7, name="ns.x.com", status=NameStatus.OK, asn=6, country=None),
        ]
        path = tmp_path / "dir.jsonl"
        write_directory(path, infos)
        directory = read_directory(path)
        assert len(directory) == 2
        assert directory.lookup(7) == infos[2]
        assert directory.lookup(3) == infos[1]

    @pytest.mark.parametrize(
        ("row", "complaint"),
        [
            ('{"addr":1,"name":null,"status":"OK","asn":"12x","country":null}', "asn '12x'"),
            ('{"addr":1,"name":null,"status":"OK","asn":1.7,"country":null}', "asn 1.7"),
            ('{"addr":1,"name":null,"status":"OK","asn":true,"country":null}', "asn True"),
            ('{"addr":1,"name":null,"status":"OK","asn":-1,"country":null}', "asn -1"),
            ('{"addr":"abc","name":null,"status":"OK","asn":null,"country":null}', "addr 'abc'"),
            ('{"addr":true,"name":null,"status":"OK","asn":null,"country":null}', "addr True"),
            ('{"addr":1.0,"name":null,"status":"OK","asn":null,"country":null}', "addr 1.0"),
            ('{"addr":4294967296,"name":null,"status":"OK","asn":null,"country":null}', "addr 4294967296"),
            ('{"addr":-1,"name":null,"status":"OK","asn":null,"country":null}', "addr -1"),
            ('{"addr":1,"name":5,"status":"OK","asn":null,"country":null}', "name 5"),
            ('{"addr":1,"name":null,"status":"OK","asn":null,"country":["jp"]}', "country ['jp']"),
            ('{"addr":1,"name":null,"status":"ok","asn":null,"country":null}', "status 'ok'"),
            ('{"addr":1,"name":null,"status":null,"asn":null,"country":null}', "status None"),
            ('{"addr":1,"name":null,"asn":null,"country":null}', "missing status"),
            ('[1, 2]', "expected an object"),
            ('{"addr":1,"name":"m\u00e9l","status":"OK","asn":null,"country":null} \u00e9', "non-ASCII"),
        ],
    )
    def test_directory_rejects_invalid_row_with_path_and_line(self, tmp_path, row, complaint):
        good = '{"addr":2,"name":"mail.x.com","status":"OK","asn":3,"country":"us"}'
        path = tmp_path / "dir.jsonl"
        path.write_text(f"{good}\n\n{row}\n{good}\n", encoding="utf-8")
        with pytest.raises(ValueError) as raised:
            read_directory(path)
        message = str(raised.value)
        assert message.startswith(f"{path}:3: invalid directory row: ")
        assert complaint in message

    def test_directory_escaped_non_ascii_name_loads(self, tmp_path):
        info = QuerierInfo(addr=9, name="m\u00e9l.x.com", status=NameStatus.OK, asn=0, country=None)
        path = tmp_path / "dir.jsonl"
        write_directory(path, [info])
        assert read_directory(path).lookup(9) == info

    @pytest.mark.parametrize(
        "text",
        [
            # Extra fields are ignored, nested or not.
            '{"addr":1,"name":null,"status":"OK","asn":null,"country":null,"x":[{}]}\n'
            '{"addr":2,"name":"mx.a.com","status":"OK","asn":4,"country":"de","y":1}\n',
            # CRLF lines, padding, and a blank line of spaces.
            '  {"addr":1,"name":null,"status":"UNREACH","asn":null,"country":null}\r\n'
            '   \r\n{"addr": 2, "name": "mx.a.com", "status": "OK", "asn": 4, "country": "de"}\r\n',
        ],
    )
    def test_directory_any_layout_reads_as_line_by_line(self, tmp_path, text):
        path = tmp_path / "dir.jsonl"
        path.write_bytes(text.encode())
        directory = read_directory(path)
        assert len(directory) == 2
        assert directory.lookup(2) == QuerierInfo(
            addr=2, name="mx.a.com", status=NameStatus.OK, asn=4, country="de"
        )

    @pytest.mark.parametrize(
        ("lines", "bad_line"),
        [
            # Two rows on one line.
            (['{"addr":1,"name":null,"status":"OK","asn":null,"country":null},'
              '{"addr":2,"name":null,"status":"OK","asn":null,"country":null}'], 1),
            # One row split over two lines, each ``{…}``-shaped.
            (['{"addr":3,"name":null,"status":"OK","asn":null,"country":null,"x":[{}',
              '{}]}'], 1),
            # Both at once: the split row's second half repeats ``name`` and
            # the shared line holds two rows, so the three lines hold three
            # rows between them, yet the first line alone is no row.
            (['{"name":[{}',
              '{}],"name":null,"addr":1,"status":"OK","asn":null,"country":null}',
              '{"addr":2,"name":null,"status":"OK","asn":null,"country":null},'
              '{"addr":3,"name":null,"status":"OK","asn":null,"country":null}'], 1),
            (['{"addr":3,"name":null,"status":"OK","asn":null,"country":null}',
              '{"addr":4,"name":null,"status":"OK","asn":null,"country":null} 5'], 2),
        ],
    )
    def test_directory_rows_never_span_or_share_lines(self, tmp_path, lines, bad_line):
        path = tmp_path / "dir.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{bad_line}: "):
            read_directory(path)

    def test_full_dataset_roundtrip(self, tmp_path):
        dataset = generate_dataset(spec_for("B-post-ditl", "tiny"))
        log_path = tmp_path / "b.log"
        write_log(log_path, dataset.sensor.log)
        loaded = read_log_block(log_path)
        assert len(loaded) == len(dataset.sensor.log)
        directory_path = tmp_path / "b.dir"
        world_directory = dataset.directory()
        infos = [world_directory.lookup(q.addr) for q in dataset.world.queriers[:200]]
        write_directory(directory_path, infos)
        loaded_directory = read_directory(directory_path)
        for info in infos:
            assert loaded_directory.lookup(info.addr) == info
