"""Tests for the command-line interface: generate / classify round trip,
the uniform metrics flags and snapshots, and ``--shards``."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "JP-ditl"])
        assert args.dataset == "JP-ditl"
        assert args.preset == "default"

    def test_classify_requires_inputs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify"])


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    output = tmp_path_factory.mktemp("cli")
    code = main(["generate", "B-post-ditl", "--preset", "tiny", "-o", str(output)])
    assert code == 0
    return output


class TestGenerate:
    def test_files_written(self, generated):
        names = {path.name for path in generated.iterdir()}
        assert names == {
            "B-post-ditl.log",
            "B-post-ditl.rbsc",
            "B-post-ditl.npz",
            "B-post-ditl.queriers.jsonl",
            "B-post-ditl.labels.json",
        }

    def test_text_and_binary_logs_agree(self, generated):
        from repro.datasets import read_frames_block, read_log_block

        text = read_log_block(generated / "B-post-ditl.log")
        binary = read_frames_block(generated / "B-post-ditl.rbsc")
        assert len(text) == len(binary)
        assert np.all(np.abs(text.timestamps - binary.timestamps) < 1e-2)
        assert np.array_equal(text.queriers, binary.queriers)
        assert np.array_equal(text.originators, binary.originators)

    def test_block_matches_binary_log(self, generated):
        from repro.datasets.dnstap import read_frames_block
        from repro.logstore import load_block

        block = load_block(generated / "B-post-ditl.npz")
        frames = read_frames_block(generated / "B-post-ditl.rbsc")
        assert len(block) == len(frames)
        # The .rbsc frames narrow addresses to u32; values are identical.
        assert block == frames

    def test_labels_valid_classes(self, generated):
        from repro.activity import APPLICATION_CLASSES

        labels = json.loads((generated / "B-post-ditl.labels.json").read_text())
        assert labels
        assert set(labels.values()) <= set(APPLICATION_CLASSES)


class TestClassify:
    def test_roundtrip(self, generated, capsys):
        code = main([
            "classify",
            "-l", str(generated / "B-post-ditl.log"),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "analyzable" in out
        assert "originator" in out

    def test_block_log_matches_binary(self, generated, capsys):
        """classify accepts .npz / .rbsc inputs and prints the same verdicts."""
        argv = [
            "classify",
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "5",
        ]
        code = main(argv + ["-l", str(generated / "B-post-ditl.rbsc")])
        assert code == 0
        binary_out = capsys.readouterr().out
        code = main(argv + ["-l", str(generated / "B-post-ditl.npz")])
        assert code == 0
        assert capsys.readouterr().out == binary_out

    def test_empty_log_fails_cleanly(self, tmp_path, generated):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        code = main([
            "classify",
            "-l", str(empty),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
        ])
        assert code == 1


class TestConvert:
    def test_roundtrip_through_every_format(self, generated, tmp_path, capsys):
        from repro.datasets.dnstap import read_frames_block
        from repro.logstore import load_block

        source = generated / "B-post-ditl.rbsc"
        npy = tmp_path / "log.npy"
        rbsc = tmp_path / "log.rbsc"
        assert main(["convert", str(source), "-o", str(npy)]) == 0
        assert main(["convert", str(npy), "-o", str(rbsc)]) == 0
        out = capsys.readouterr().out
        assert f"entries to {npy}" in out and f"entries to {rbsc}" in out
        original = read_frames_block(source)
        assert load_block(npy) == original
        assert read_frames_block(rbsc) == original

    def test_text_output_rounds_milliseconds(self, generated, tmp_path):
        from repro.datasets import read_log_block
        from repro.datasets.dnstap import read_frames_block

        text = tmp_path / "log.log"
        assert main(["convert", str(generated / "B-post-ditl.rbsc"), "-o", str(text)]) == 0
        original = read_frames_block(generated / "B-post-ditl.rbsc")
        converted = read_log_block(text)
        assert len(converted) == len(original)
        assert abs(converted.timestamps - original.timestamps).max() < 1e-2

    def test_unknown_output_suffix_is_an_error(self, generated, tmp_path, capsys):
        # Regression: ``out.np`` (a typo for .npy) used to fall through
        # to the text-format branch and silently write a .log.
        source = generated / "B-post-ditl.rbsc"
        bad = tmp_path / "out.np"
        assert main(["convert", str(source), "-o", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "unsupported output suffix" in err and "'.np'" in err
        assert not bad.exists()

    def test_output_equal_to_input_is_refused(self, generated, tmp_path, capsys):
        source = tmp_path / "log.npy"
        assert main(["convert", str(generated / "B-post-ditl.rbsc"), "-o", str(source)]) == 0
        capsys.readouterr()
        assert main(["convert", str(source), "-o", str(source)]) == 1
        assert "must not be the input" in capsys.readouterr().err


class TestFigures:
    def test_experiments_passthrough_list(self, capsys):
        code = main(["experiments", "--list"])
        assert code == 0
        assert "table3" in capsys.readouterr().out


class TestSharedFlags:
    """--metrics-out / --metrics-format are uniform across the
    work-running subcommands."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "-l", "x", "-d", "y", "-t", "z"],
            ["figures"],
            ["experiments", "--list"],
        ],
        ids=["classify", "figures", "experiments"],
    )
    def test_uniform_flags_accepted(self, argv):
        args = build_parser().parse_args(
            argv + ["--metrics-out", "m.prom", "--metrics-format", "prom"]
        )
        assert args.metrics_out == "m.prom"
        assert args.metrics_format == "prom"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["figures"])
        assert args.metrics_out is None
        assert args.metrics_format is None

    def test_metrics_format_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["figures", "--metrics-out", "m", "--metrics-format", "xml"]
            )

    def test_metrics_every_only_on_classify(self):
        args = build_parser().parse_args(
            ["classify", "-l", "x", "-d", "y", "-t", "z", "--metrics-every", "3"]
        )
        assert args.metrics_every == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--metrics-every", "3"])


class TestMetricsSnapshots:
    def _classify_argv(self, generated, *extra):
        return [
            "classify",
            "-l", str(generated / "B-post-ditl.log"),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "2",
            *extra,
        ]

    def test_batch_prom_snapshot(self, generated, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        code = main(self._classify_argv(
            generated, "--metrics-out", str(out), "--metrics-format", "prom"
        ))
        assert code == 0
        assert f"wrote prom metrics to {out}" in capsys.readouterr().out
        text = out.read_text()
        for family in (
            "repro_stage_items_total",
            "repro_span_seconds",
            "repro_enrichment_cache_hits_total",
        ):
            assert f"# TYPE {family}" in text, family
        # Every non-comment line is `name{labels} value` or `name value`.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part.startswith("repro_")
            float(value)  # parses

    def test_streaming_jsonl_snapshots(self, generated, tmp_path, capsys):
        out = tmp_path / "metrics.jsonl"
        code = main(self._classify_argv(
            generated,
            "--stream", "--window", "21600",
            "--metrics-out", str(out), "--metrics-every", "1",
        ))
        assert code == 0
        # Periodic snapshots plus the final one append to the same file.
        assert capsys.readouterr().out.count(f"wrote jsonl metrics to {out}") >= 2
        lines = out.read_text().splitlines()
        assert len(lines) > 0
        names = set()
        spans = set()
        for line in lines:
            obj = json.loads(line)
            names.add(obj["name"])
            if obj["name"] == "repro_span_total":
                spans.add(obj["labels"]["span"])
        assert "repro_stream_windows_total" in names
        assert "window.sense" in spans

    def test_counters_that_never_moved_are_exported_at_zero(self, tmp_path, capsys):
        # Tiny JP-ditl has no duplicate within a sketch window, every
        # originator passes the gate, and its directory lists every
        # querier: each of those series must still exist, at 0.
        assert main(["generate", "JP-ditl", "--preset", "tiny", "-o", str(tmp_path)]) == 0
        out = tmp_path / "metrics.prom"
        code = main([
            "classify",
            "-l", str(tmp_path / "JP-ditl.npz"),
            "-d", str(tmp_path / "JP-ditl.queriers.jsonl"),
            "-t", str(tmp_path / "JP-ditl.labels.json"),
            "--stream", "--window", "43200", "--sketch",
            "--metrics-out", str(out), "--metrics-format", "prom",
        ])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        for series in (
            'repro_sketch_events_total{result="duplicate"} 0',
            'repro_sketch_gate_originators_total{result="dropped"} 0',
            "repro_enrichment_cache_misses_total 0",
        ):
            assert series in lines, series

    def test_no_metrics_flag_writes_nothing(self, generated, tmp_path):
        code = main(self._classify_argv(generated))
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_experiments_metrics_out_hands_the_runner_a_registry(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import __main__ as harness
        from repro.telemetry import MetricsRegistry, count, get_registry

        seen = []

        def runner():
            seen.append(get_registry())
            count("stub_runs_total", 1)
            return "stub table"

        monkeypatch.setitem(harness._RUNNERS, "stub", (runner, True))
        environ = dict(os.environ)
        out = tmp_path / "m.jsonl"
        code = main([
            "experiments", "stub",
            "--metrics-out", str(out),
            "--metrics-format", "jsonl",
        ])
        assert code == 0
        assert dict(os.environ) == environ
        assert len(seen) == 1 and isinstance(seen[0], MetricsRegistry)
        assert get_registry() is None
        assert f"wrote jsonl metrics to {out}" in capsys.readouterr().out
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert (record["name"], record["value"]) == ("stub_runs_total", 1)


class TestSketchFlags:
    def _classify_argv(self, generated, *extra):
        return [
            "classify",
            "-l", str(generated / "B-post-ditl.log"),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "2",
            *extra,
        ]

    def test_defaults_off(self):
        args = build_parser().parse_args(
            ["classify", "-l", "x", "-d", "y", "-t", "z"]
        )
        assert args.sketch is False
        assert not hasattr(args, "sketch_width")
        assert not hasattr(args, "hll_precision")

    def test_batch_output_matches_exact(self, generated, capsys):
        code = main(self._classify_argv(generated))
        assert code == 0
        exact_out = capsys.readouterr().out
        code = main(self._classify_argv(generated, "--sketch"))
        assert code == 0
        sketch_out = capsys.readouterr().out
        # Batch sketch mode is two-pass with exact survivor features, so
        # the printed classifications are identical.
        assert sketch_out == exact_out

    def test_stream_accepts_sketch(self, generated, capsys):
        code = main(self._classify_argv(generated, "--sketch", "--stream"))
        assert code == 0
        assert "originators" in capsys.readouterr().out


class TestShardsFlag:
    """``--shards N`` forks real workers and prints what one engine prints."""

    def _argv(self, generated, *extra):
        return [
            "classify",
            "-l", str(generated / "B-post-ditl.npz"),
            "-d", str(generated / "B-post-ditl.queriers.jsonl"),
            "-t", str(generated / "B-post-ditl.labels.json"),
            "--min-queriers", "5",
            "--top", "5",
            *extra,
        ]

    def _classify(self, generated, capsys, *extra):
        assert main(self._argv(generated, *extra)) == 0
        # The accounting table's last column is wall time.
        return re.sub(r"\d+\.\d{3}$", "S.SSS", capsys.readouterr().out, flags=re.M)

    @pytest.mark.parametrize("sketch", [(), ("--sketch",)], ids=["exact", "sketch"])
    def test_batch_stats_match_single_engine(self, generated, capsys, sketch):
        single = self._classify(generated, capsys, "--stats", "--shards", "1", *sketch)
        assert "featurize" in single and "S.SSS" in single
        sharded = self._classify(generated, capsys, "--stats", "--shards", "2", *sketch)
        assert sharded == single

    def test_stream_matches_single_engine(self, generated, capsys):
        stream = ("--stream", "--window", "21600")
        single = self._classify(generated, capsys, *stream, "--shards", "1")
        assert single.count("window [") > 1 and "S.SSS" in single
        assert self._classify(generated, capsys, *stream, "--shards", "2") == single

    def test_zero_shards_is_an_error(self, generated, capsys):
        assert main(self._argv(generated, "--shards", "0")) == 1
        assert "--shards must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "serve"])
    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (("--shards", "0"), "--shards must be positive"),
            (("--window", "0"), "--window must be positive"),
        ],
        ids=["shards", "window"],
    )
    def test_bad_shape_flags_exit_1_before_any_io(
        self, tmp_path, capsys, command, flags, message
    ):
        # None of the files exist: a run that got as far as loading the
        # log (let alone training on it) would raise, not return.
        argv = [
            command,
            "-l", str(tmp_path / "missing.npz"),
            "-d", str(tmp_path / "missing.jsonl"),
            "-t", str(tmp_path / "missing.json"),
            *(("--stream",) if command == "classify" else ("--port", "0", "--once")),
            *flags,
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert captured.out == ""

    def test_serve_rejects_a_bad_port_in_one_line(self, tmp_path, capsys):
        argv = [
            "serve",
            "-l", str(tmp_path / "missing.npz"),
            "-d", str(tmp_path / "missing.jsonl"),
            "-t", str(tmp_path / "missing.json"),
            "--port", "70000",
        ]
        assert main(argv) == 1
        assert capsys.readouterr().err.strip() == "port must be in [0, 65535], got 70000"


class TestMalformedInputs:
    """A bad log or directory row is one stderr line and exit 1, no traceback."""

    @pytest.mark.parametrize("command", ["classify", "serve"])
    @pytest.mark.parametrize("bad", ["log", "directory"])
    def test_exits_1_in_one_line(self, generated, tmp_path, capsys, command, bad):
        log = generated / "B-post-ditl.log"
        directory = generated / "B-post-ditl.queriers.jsonl"
        if bad == "log":
            lines = log.read_text().splitlines(keepends=True)
            log = tmp_path / "bad.log"
            log.write_text("".join(lines[:3]) + "1.0 1.2.3.4\n" + "".join(lines[3:]))
            where = f"{log}:4: "
        else:
            lines = directory.read_text().splitlines(keepends=True)
            row = json.loads(lines[1])
            row["asn"] = "12x"
            directory = tmp_path / "bad.jsonl"
            directory.write_text(lines[0] + json.dumps(row) + "\n" + "".join(lines[2:]))
            where = f"{directory}:2: invalid directory row: asn '12x'"
        argv = [
            command,
            "-l", str(log),
            "-d", str(directory),
            "-t", str(generated / "B-post-ditl.labels.json"),
            *(("--port", "0", "--once") if command == "serve" else ()),
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(where), lines


class TestOneWayToGoParallel:
    """Shards are the parallelism and ``SensorConfig`` is the config:
    no process pool, no process made outside the shard transport, no
    work-shaping environment, no ``--workers``."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

    SUBCOMMANDS = {
        "generate": ["generate", "JP-ditl"],
        "classify": ["classify", "-l", "x", "-d", "y", "-t", "z"],
        "convert": ["convert", "x", "-o", "y.npz"],
        "figures": ["figures"],
        "serve": ["serve", "-l", "x", "-d", "y", "-t", "z"],
        "experiments": ["experiments", "--list"],
    }

    def test_inventory(self):
        env_names: set[str] = set()
        pool_sites: set[str] = set()
        process_sites: set[str] = set()
        for path in self.SRC.rglob("*.py"):
            text = path.read_text()
            site = path.relative_to(self.SRC).as_posix()
            env_names.update(re.findall(r"REPRO_[A-Z_]+", text))
            if "ProcessPoolExecutor" in text:
                pool_sites.add(site)
            if re.search(r"multiprocessing|subprocess|os\.fork|os\.spawn|Popen", text):
                process_sites.add(site)
        assert env_names == set()
        assert pool_sites == set()
        assert process_sites == {"federation/shard.py"}
        for argv in self.SUBCOMMANDS.values():
            build_parser().parse_args(argv)
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv + ["--workers", "2"])
            assert exit_info.value.code == 2
