"""Command-line interface: generate datasets, classify logs, render figures.

Subcommands:

* ``repro generate <dataset> -o DIR`` — generate a Table I dataset and
  write its query log (text + framed binary + columnar ``.npz`` block),
  querier directory, and ground-truth labels to files;
* ``repro classify -l LOG -d DIR -t LABELS`` — run the sensor pipeline
  on a serialized log: collect, featurize, train on the labels, print
  classifications;
* ``repro convert <LOG> -o OUT`` — re-serialize a query log between the
  text/framed formats and the columnar block layouts;
* ``repro figures -o DIR`` — render the implemented paper figures as SVG;
* ``repro experiments ...`` — forwarded to :mod:`repro.experiments`;
* ``repro serve -l LOG -d DIR -t LABELS`` — run the long-running
  detection service (:mod:`repro.service`): train on the labels, replay
  the log as a chunked live feed, then keep serving ``/verdicts`` /
  ``/alerts`` / ``/healthz`` / ``/metrics`` (and an optional raw feed
  socket, ``--feed-port``) until SIGTERM; ``--retrain daily`` turns on
  the online § V retraining loop with atomic model hot-swaps.

``classify`` and ``convert`` accept any log format by suffix — ``.npz``
/ ``.npy`` columnar blocks (:mod:`repro.logstore`), ``.rbsc`` framed
binary, anything else as the text format — and replay it through the
array-native ingest plane as one :class:`~repro.logstore.EntryBlock`.

The telemetry flags are uniform across subcommands: ``--metrics-out
PATH`` (with ``--metrics-format``) installs a
:class:`repro.telemetry.MetricsRegistry` over the run and writes a
snapshot when it finishes — Prometheus text or JSON lines.
``repro classify --stream --metrics-every N`` additionally snapshots
every N sensed windows, the live-deployment cadence.  ``repro classify
--sketch`` runs the constant-memory probabilistic pre-select stage in
both batch and ``--stream`` modes.  ``--shards N`` (``classify`` and ``serve``) is the
one way to use more than one core: it federates the run across N
originator-partitioned shard engines (:mod:`repro.federation`; output is
bit-identical to a single engine).  ``--vantage NAME=LOG`` (repeatable,
batch-only) classifies extra vantage logs with the same trained stage
and prints verdicts fused across vantages.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.netmodel.addressing import ip_to_str, str_to_ip
from repro.telemetry import (
    METRICS_FORMATS,
    MetricsRegistry,
    format_for_path,
    use_registry,
    write_metrics,
)

__all__ = ["main"]


# -- shared option groups -------------------------------------------------


def add_sketch_options(parser: argparse.ArgumentParser) -> None:
    """The probabilistic pre-select switch (``repro classify`` / ``serve``)."""
    parser.add_argument(
        "--sketch",
        action="store_true",
        help="run the constant-memory sketch pre-select stage: gate "
        "originators on an approximate unique-querier estimate and "
        "materialize exact state for survivors only",
    )


def _sensor_config(args: argparse.Namespace, origin: float, window_seconds: float):
    """The :class:`SensorConfig` the ``classify`` / ``serve`` flags spell."""
    from repro.sensor import SensorConfig

    return SensorConfig(
        window_seconds=window_seconds,
        origin=origin,
        min_queriers=args.min_queriers,
        sketch_enabled=args.sketch,
    )


def add_metrics_options(
    parser: argparse.ArgumentParser, streaming: bool = False
) -> None:
    """The telemetry-export knobs, identical on every subcommand."""
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="collect pipeline metrics and write a snapshot here",
    )
    parser.add_argument(
        "--metrics-format",
        choices=METRICS_FORMATS,
        default=None,
        help="snapshot format (default: inferred from the path suffix; "
        ".jsonl/.json/.ndjson mean jsonl, anything else prom)",
    )
    if streaming:
        parser.add_argument(
            "--metrics-every",
            type=int,
            default=0,
            metavar="N",
            help="with --stream: also write a snapshot every N sensed "
            "windows (0 = only at the end)",
        )


def _registry_for(args: argparse.Namespace) -> MetricsRegistry | None:
    return MetricsRegistry() if args.metrics_out else None


def _load_log(path: str | Path):
    """Load any supported log format as a columnar EntryBlock (by suffix)."""
    from repro.datasets import read_frames_block, read_log_block
    from repro.logstore import load_block

    suffix = Path(path).suffix.lower()
    if suffix in (".npz", ".npy"):
        return load_block(path)
    if suffix == ".rbsc":
        return read_frames_block(path)
    return read_log_block(path)


def _write_snapshot(args: argparse.Namespace, registry: MetricsRegistry | None) -> None:
    if registry is None or not args.metrics_out:
        return
    fmt = format_for_path(args.metrics_out, args.metrics_format)
    write_metrics(registry, args.metrics_out, fmt)
    print(f"wrote {fmt} metrics to {args.metrics_out}")


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import spec_for, generate_dataset, write_directory, write_log
    from repro.datasets.dnstap import write_frames
    from repro.logstore import save_block

    spec = spec_for(args.dataset, args.preset)
    print(f"generating {spec.name} (preset={args.preset}) …", flush=True)
    dataset = generate_dataset(spec)
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    log_path = output / f"{spec.name}.log"
    frames_path = output / f"{spec.name}.rbsc"
    block_path = output / f"{spec.name}.npz"
    directory_path = output / f"{spec.name}.queriers.jsonl"
    labels_path = output / f"{spec.name}.labels.json"
    entries = list(dataset.sensor.log)
    write_log(log_path, entries)
    write_frames(frames_path, entries)
    save_block(block_path, dataset.sensor.log.block())
    world_directory = dataset.directory()
    write_directory(
        directory_path,
        (world_directory.lookup(q.addr) for q in dataset.world.queriers),
    )
    labels_path.write_text(
        json.dumps(
            {ip_to_str(o): c for o, c in sorted(dataset.true_classes().items())},
            indent=0,
        )
    )
    print(
        f"wrote {len(entries):,} entries to {log_path} "
        f"(+ {frames_path.name}, {block_path.name})"
    )
    print(f"wrote querier directory to {directory_path}")
    print(f"wrote ground-truth labels to {labels_path}")
    return 0


def _parse_vantages(args: argparse.Namespace) -> list[tuple[str, str]] | None:
    """``--vantage NAME=LOG`` pairs, validated; None on error."""
    vantages: list[tuple[str, str]] = []
    for item in args.vantage or []:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            print(
                f"--vantage expects NAME=LOG, got {item!r}", file=sys.stderr
            )
            return None
        vantages.append((name, path))
    return vantages


def _shape_ok(args: argparse.Namespace, windowed: bool) -> bool:
    """Check ``--shards`` / ``--window`` before any I/O; complain if bad."""
    if args.shards < 1:
        complaint = "--shards must be positive"
    elif windowed and args.window <= 0:
        complaint = "--window must be positive"
    else:
        return True
    print(complaint, file=sys.stderr)
    return False


def _train_on_span(
    args: argparse.Namespace,
    start: float | None = None,
    end: float | None = None,
    announce: bool = False,
):
    """The prelude ``classify`` and ``serve`` share: load, sense, train.

    Loads the log, directory and labels, senses the whole span as one
    batch window and fits the classify stage on the labeled originators
    in it.  Returns ``(entries, start, trainer, features, present)`` —
    the trainer's registry is the run's — or None after printing the
    one-line reason (the caller exits 1).
    """
    from repro.datasets import read_directory
    from repro.federation import sensor_for
    from repro.sensor import LabeledSet

    try:
        entries = _load_log(args.log)
        directory = read_directory(args.directory)
    except ValueError as error:  # a malformed log or directory: ``path:lineno: …``
        print(error, file=sys.stderr)
        return None
    if not entries:
        print("log is empty", file=sys.stderr)
        return None
    start = entries[0].timestamp if start is None else start
    end = entries[-1].timestamp + 1.0 if end is None else end
    raw_labels = json.loads(Path(args.labels).read_text())
    labeled = LabeledSet.from_pairs(
        (str_to_ip(addr), app_class) for addr, app_class in raw_labels.items()
    )
    # Only the sensing needs the shard workers; the trained stage
    # outlives them.
    with sensor_for(
        directory,
        _sensor_config(args, start, end - start),
        shards=args.shards,
        registry=_registry_for(args),
    ) as trainer:
        features = trainer.featurize(trainer.collect(entries, start, end))
    if announce:
        # Every originator the select stage saw — in sketch mode the
        # pre-stage's count, not just the gate survivors a window materializes.
        observed = trainer.stats["select"].items_in
        print(f"{observed} originators observed, {len(features)} analyzable")
    present = labeled.restrict_to({int(o) for o in features.originators})
    if len(present) < 4:
        print("too few labeled originators appear in the log", file=sys.stderr)
        return None
    trainer.fit(features, present)
    return entries, start, trainer, features, present


def _cmd_classify(args: argparse.Namespace) -> int:
    if not _shape_ok(args, windowed=args.stream):
        return 1
    vantages = _parse_vantages(args)
    if vantages is None:
        return 1
    if vantages and args.stream:
        print("--vantage fusion is batch-only (drop --stream)", file=sys.stderr)
        return 1
    trained = _train_on_span(args, args.start, args.end, announce=True)
    if trained is None:
        return 1
    entries, start, trainer, features, _ = trained
    registry = trainer.registry

    if args.stream:
        return _classify_stream(args, trainer, entries, start)

    verdicts = sorted(trainer.classify(features), key=lambda v: -v.footprint)
    print(f"{'originator':<16} {'queriers':>8}  class")
    for verdict in verdicts[: args.top]:
        print(f"{ip_to_str(verdict.originator):<16} {verdict.footprint:>8}  {verdict.app_class}")
    if vantages:
        code = _classify_vantages(args, trainer, verdicts, vantages)
        if code != 0:
            return code
    if args.stats:
        print()
        print(trainer.format_accounting())
    _write_snapshot(args, registry)
    return 0


def _classify_vantages(
    args: argparse.Namespace,
    trainer,
    primary_verdicts,
    vantages: list[tuple[str, str]],
) -> int:
    """Classify each extra vantage log and print the fused judgements.

    Each ``--vantage NAME=LOG`` is the same deployment's trained
    classifier applied to *that* vantage's (attenuated) view; fusion
    keys on ``(originator, vantage)`` per
    :func:`repro.federation.fusion.fuse_verdicts`.
    """
    from repro.federation import fuse_verdicts
    from repro.sensor import SensorEngine

    primary_name = Path(args.log).stem
    per_vantage = {primary_name: primary_verdicts}
    for name, path in vantages:
        if name in per_vantage:
            print(f"duplicate vantage name {name!r}", file=sys.stderr)
            return 1
        vantage_entries = _load_log(path)
        if not vantage_entries:
            print(f"vantage log {path} is empty", file=sys.stderr)
            return 1
        engine = SensorEngine(trainer.directory, trainer.config)
        engine.fit_from(trainer)
        start = trainer.config.origin
        end = start + trainer.config.window_seconds
        sensed = engine.process(vantage_entries, start, end)
        per_vantage[name] = [v for window in sensed for v in window.verdicts]
    fused = fuse_verdicts(per_vantage)
    print()
    print(f"fused across {len(per_vantage)} vantages:")
    print(f"{'originator':<16} {'queriers':>8}  class     vantages")
    for item in fused[: args.top]:
        detail = ", ".join(
            f"{name}={item.verdicts[name]}" for name in item.vantages
        )
        print(
            f"{ip_to_str(item.originator):<16} {item.footprint:>8}  "
            f"{item.app_class:<8}  {detail}"
        )
    return 0


def _classify_stream(
    args: argparse.Namespace,
    trainer,
    entries,
    start: float,
) -> int:
    """Replay the log through the streaming path, window by window."""
    from repro.federation import sensor_for

    registry = trainer.registry
    every = max(0, args.metrics_every)
    since_snapshot = 0

    def report(sensed) -> None:
        # Window-close hook (engine.on_window), one SensedWindow each.
        nonlocal since_snapshot
        window = sensed.window
        verdicts = sorted(sensed.verdicts, key=lambda v: -v.footprint)
        print(
            f"window [{window.start:.0f}, {window.end:.0f}): "
            f"{len(window)} originators, {len(sensed.features)} analyzable"
        )
        for verdict in verdicts[: args.top]:
            print(
                f"  {ip_to_str(verdict.originator):<16} "
                f"{verdict.footprint:>8}  {verdict.app_class}"
            )
        since_snapshot += 1
        if registry is not None and every and since_snapshot >= every:
            _write_snapshot(args, registry)
            since_snapshot = 0

    chunk = max(1, args.chunk)
    with sensor_for(
        trainer.directory,
        _sensor_config(args, start, args.window),
        shards=args.shards,
        registry=registry,
    ) as engine:
        # Reuse the span-trained classify stage.
        engine.fit_from(trainer)
        engine.on_window(report)
        for offset in range(0, len(entries), chunk):
            engine.ingest_block(entries[offset : offset + chunk])
            engine.poll()
        engine.finish()
    print()
    print(engine.format_accounting())
    _write_snapshot(args, registry)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on detection service over a replayed feed."""
    import asyncio
    import signal

    from repro.service import BackscatterService, ServiceConfig

    if not _shape_ok(args, windowed=True):
        return 1
    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            feed_port=args.feed_port,
            shards=args.shards,
            retrain=None if args.retrain == "off" else args.retrain,
        )
    except ValueError as exc:  # e.g. a port out of range
        print(exc, file=sys.stderr)
        return 1
    trained = _train_on_span(args)
    if trained is None:
        return 1
    entries, start, trainer, _, present = trained
    registry = trainer.registry
    config = config.replaced(sensor=_sensor_config(args, start, args.window))
    service = BackscatterService(trainer.directory, config, registry=registry)
    service.fit_from(trainer, labeled=present)

    async def run() -> bool:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, service.request_shutdown)
        try:
            await service.start()
        except OSError as exc:  # e.g. a busy --port / --feed-port
            print(f"cannot serve on {config.host}: {exc}", file=sys.stderr)
            return False
        host, port = service.http_address
        print(f"serving http on {host}:{port}", flush=True)
        if service.feed_address is not None:
            feed_host, feed_port = service.feed_address
            print(f"accepting {config.feed_format} feed on "
                  f"{feed_host}:{feed_port}", flush=True)
        chunk = max(1, args.chunk)
        for offset in range(0, len(entries), chunk):
            service.submit_block(entries[offset : offset + chunk])
            # The pump batches whatever is queued; draining per block
            # keeps --chunk meaning "events per replay step".
            await service.drain()
        print(f"replayed {len(entries):,} events "
              f"({service.health()['windows']} windows closed)", flush=True)
        if args.once:
            service.request_shutdown()
        await service.wait_shutdown()
        await service.stop()
        return True

    if not asyncio.run(run()):
        service.engine.close()  # reaps --shards workers
        return 1
    health = service.health()
    print(
        f"served {health['windows']} windows, {health['verdicts']} verdicts, "
        f"{health['alerts']} alerts, model v{health['model_version']}"
    )
    _write_snapshot(args, registry)
    return 0


#: Output formats ``repro convert`` can write, by suffix.
CONVERT_SUFFIXES: tuple[str, ...] = (".npz", ".npy", ".rbsc", ".log", ".txt")


def _cmd_convert(args: argparse.Namespace) -> int:
    """Re-serialize a query log into the format implied by the output suffix."""
    from repro.datasets import write_log
    from repro.datasets.dnstap import write_frames
    from repro.logstore import save_block

    out = Path(args.output)
    suffix = out.suffix.lower()
    if suffix not in CONVERT_SUFFIXES:
        # A typo like ``out.np`` must not silently fall through to the
        # text format.
        print(
            f"unsupported output suffix {out.suffix or out.name!r}; "
            f"supported: {', '.join(CONVERT_SUFFIXES)}",
            file=sys.stderr,
        )
        return 1
    if out.resolve() == Path(args.log).resolve():
        # ``.npy`` replay is a lazy mmap — writing over the input while
        # it is still being read would corrupt the source.
        print("output must not be the input file", file=sys.stderr)
        return 1
    block = _load_log(args.log)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    if suffix in (".npz", ".npy"):
        save_block(out, block)
    elif suffix == ".rbsc":
        write_frames(out, block)
    else:
        write_log(out, block)
    print(f"wrote {len(block):,} entries to {out}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz import render_all

    registry = _registry_for(args)
    with use_registry(registry):
        written = render_all(args.output, preset=args.preset)
    for path in written:
        print(f"wrote {path}")
    _write_snapshot(args, registry)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as experiments_main

    forwarded = list(args.names)
    if args.list:
        forwarded.append("--list")
    if args.all_cheap:
        forwarded.append("--all-cheap")
    registry = _registry_for(args)
    code = experiments_main(forwarded, registry=registry)
    if code == 0:
        _write_snapshot(args, registry)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DNS backscatter sensor (paper reproduction)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("dataset", help="dataset name, e.g. JP-ditl")
    generate.add_argument("-o", "--output", default="datasets", help="output directory")
    generate.add_argument("--preset", default="default", choices=("default", "tiny"))
    generate.set_defaults(func=_cmd_generate)

    classify = commands.add_parser("classify", help="classify a serialized log")
    classify.add_argument("-l", "--log", required=True, help="query log file")
    classify.add_argument("-d", "--directory", required=True, help="querier directory (jsonl)")
    classify.add_argument("-t", "--labels", required=True, help="labels json (ip -> class)")
    classify.add_argument("--start", type=float, default=None)
    classify.add_argument("--end", type=float, default=None)
    classify.add_argument("--min-queriers", type=int, default=20)
    classify.add_argument("--top", type=int, default=30, help="rows to print")
    classify.add_argument(
        "--stream",
        action="store_true",
        help="replay the log through the streaming engine and print "
        "per-window verdicts plus stage accounting",
    )
    classify.add_argument(
        "--window",
        type=float,
        default=86400.0,
        help="streaming window interval in seconds (with --stream)",
    )
    classify.add_argument(
        "--chunk",
        type=int,
        default=5000,
        help="entries fed to the engine per chunk (with --stream)",
    )
    classify.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage engine accounting after classifying",
    )
    classify.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="federate the run across N originator-partitioned shard "
        "engines (results are bit-identical to a single engine)",
    )
    classify.add_argument(
        "--vantage",
        action="append",
        metavar="NAME=LOG",
        default=None,
        help="additional vantage log to classify with the same trained "
        "stage; repeatable; prints verdicts fused across vantages "
        "(batch only)",
    )
    add_sketch_options(classify)
    add_metrics_options(classify, streaming=True)
    classify.set_defaults(func=_cmd_classify)

    convert = commands.add_parser(
        "convert", help="re-serialize a query log (format by output suffix)"
    )
    convert.add_argument("log", help="input log (.log / .rbsc / .npz / .npy)")
    convert.add_argument(
        "-o",
        "--output",
        required=True,
        help="output path; .npz/.npy write columnar blocks, .rbsc framed "
        "binary, .log/.txt the text format (other suffixes are an error)",
    )
    convert.set_defaults(func=_cmd_convert)

    figures = commands.add_parser("figures", help="render paper figures as SVG")
    figures.add_argument("-o", "--output", default="figures")
    figures.add_argument("--preset", default="default", choices=("default", "tiny"))
    add_metrics_options(figures)
    figures.set_defaults(func=_cmd_figures)

    serve = commands.add_parser(
        "serve", help="run the long-running detection service"
    )
    serve.add_argument("-l", "--log", required=True, help="query log to replay as the feed")
    serve.add_argument("-d", "--directory", required=True, help="querier directory (jsonl)")
    serve.add_argument("-t", "--labels", required=True, help="labels json (ip -> class)")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8053, help="HTTP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--feed-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also accept a raw text/.rbsc feed on this port (0 = ephemeral)",
    )
    serve.add_argument(
        "--retrain",
        choices=("off", "once", "daily", "grow"),
        default="off",
        help="online retraining strategy applied between windows "
        "(daily = refit the curated labels on fresh features; grow = "
        "auto-grow from the engine's own verdicts, the paper's "
        "cautionary §V strategy)",
    )
    serve.add_argument("--min-queriers", type=int, default=20)
    serve.add_argument(
        "--window",
        type=float,
        default=86400.0,
        help="streaming window interval in seconds",
    )
    serve.add_argument(
        "--chunk",
        type=int,
        default=5000,
        help="events per start-up replay step (one pump step each)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="federate the engine across N shard workers",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="exit after the replayed feed drains instead of serving "
        "until SIGTERM (smoke tests)",
    )
    add_sketch_options(serve)
    add_metrics_options(serve)
    serve.set_defaults(func=_cmd_serve)

    experiments = commands.add_parser("experiments", help="run experiment modules")
    experiments.add_argument("names", nargs="*", help="experiment names")
    experiments.add_argument("--list", action="store_true")
    experiments.add_argument("--all-cheap", action="store_true")
    add_metrics_options(experiments)
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
