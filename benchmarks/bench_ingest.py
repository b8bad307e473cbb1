"""Ingest benchmark: the block path's window + select throughput.

Builds a synthetic heavy-tailed backscatter log spanning several
observation windows as one :class:`repro.logstore.EntryBlock` and
replays it through the window + select stages of
:class:`repro.sensor.engine.SensorEngine` four ways — {batch, stream} x
{exact, sketch} — and writes ``BENCH_ingest.json``.  (There is one
ingest path; ``QueryLogEntry`` input is converted to blocks in front of
it, so there is nothing to compare the block path against.)

Each mode reports events/s (best of ``--rounds`` timed runs); the
batch modes also report peak incremental memory from a separate
``tracemalloc`` run.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_ingest.py --quick

``--quick`` shrinks the workload so CI can smoke-test the harness in
seconds; ``--assert-stream-sketch`` gates the vectorized
streaming-sketch path (>= 0.5x the plain stream throughput and >= 4x
the pre-vectorization scalar baseline).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import tracemalloc
from pathlib import Path

from repro.logstore import EntryBlock
from repro.sensor.engine import SensorConfig, SensorEngine

WINDOW_SECONDS = 21_600.0
N_WINDOWS = 4
SPAN = WINDOW_SECONDS * N_WINDOWS

#: Committed stream_sketch throughput (events/s) from the last
#: BENCH_ingest.json produced *before* the pre-stage grew its
#: array-native verdict path — the scalar per-event fallback on the
#: single-CPU CI host.  ``--assert-stream-sketch`` gates against 4x this.
SCALAR_STREAM_SKETCH_BASELINE = 23_327.8


def synthetic_log(events_target: int, min_queriers: int, seed: int) -> EntryBlock:
    """A time-ordered, tail-dominated backscatter day spanning 4 windows.

    The same regime as ``bench_sketch``: a small head of loud
    originators over a long sub-gate tail, each querier issuing one or
    two queries (the second inside the 30 s dedup horizon so the dedup
    stage has real work).  Events are spread uniformly over ``SPAN`` so
    every mode exercises window turnover, not just one interval.
    """
    rng = random.Random(seed)
    n_tail = max(1, int(0.7 * events_target / (1.4 * 2.0)))
    n_head = max(10, int(0.3 * events_target / (1.4 * 175)))
    events: list[tuple[float, int, int]] = []
    for rank in range(n_head + n_tail):
        originator = 0x0A000000 + rank
        if rank < n_head:
            footprint = rng.randint(100, 250)
        else:
            footprint = min(1 + int(rng.expovariate(1.0)), max(1, min_queriers - 1))
        for q in range(footprint):
            querier = 0xC0000000 + (rank * 131_071 + q * 8_191) % 2_000_003
            timestamp = rng.random() * SPAN
            events.append((timestamp, querier, originator))
            if rng.random() < 0.4:  # in-horizon duplicate for the dedup stage
                events.append(
                    (
                        min(timestamp + rng.random() * 25.0, SPAN - 1e-6),
                        querier,
                        originator,
                    )
                )
    events.sort()
    timestamps, queriers, originators = zip(*events)
    return EntryBlock.from_arrays(timestamps, queriers, originators)


def config_for(min_queriers: int, sketch: bool, capacity: int) -> SensorConfig:
    return SensorConfig(
        window_seconds=WINDOW_SECONDS,
        min_queriers=min_queriers,
        sketch_enabled=sketch,
        sketch_capacity=max(4096, capacity),
    )


def run_batch(config: SensorConfig, block: EntryBlock) -> list:
    engine = SensorEngine(config=config)
    return engine.windows(block, 0.0, SPAN)


def run_stream(config: SensorConfig, block: EntryBlock, chunk: int) -> list:
    engine = SensorEngine(config=config)
    windows = []
    for offset in range(0, len(block), chunk):
        engine.ingest_block(block[offset : offset + chunk])
        windows.extend(s.window for s in engine.poll(classify=False))
    windows.extend(s.window for s in engine.finish(classify=False))
    return windows


def timed(rounds: int, runner, *args):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = runner(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def peak_memory(runner, *args) -> int:
    """Peak incremental bytes of one pass (inputs pre-allocated)."""
    tracemalloc.start()
    try:
        runner(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=300_000, help="target event count")
    parser.add_argument("--min-queriers", type=int, default=10, help="analyzability bar")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=3, help="best-of rounds per mode")
    parser.add_argument(
        "--chunk", type=int, default=5000, help="streaming chunk size (entries)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (small log, 2 rounds)"
    )
    parser.add_argument(
        "--assert-stream-sketch",
        action="store_true",
        help="fail unless stream_sketch reaches >=0.5x the plain stream "
        "throughput and >=4x the pre-vectorization scalar baseline",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_ingest.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.events = min(args.events, 60_000)
        args.rounds = min(args.rounds, 2)

    print(f"generating ~{args.events:,} events …", flush=True)
    block = synthetic_log(args.events, args.min_queriers, args.seed)
    print(f"log: {len(block):,} events, block {block.nbytes / 1e6:.1f} MB", flush=True)

    report: dict = {
        "benchmark": "ingest",
        "events": len(block),
        "windows": N_WINDOWS,
        "min_queriers": args.min_queriers,
        "rounds": args.rounds,
        "chunk": args.chunk,
        "cpu_count": os.cpu_count(),
        "block_nbytes": block.nbytes,
    }
    failures: list[str] = []

    for mode in ("batch", "batch_sketch", "stream", "stream_sketch"):
        config = config_for(args.min_queriers, mode.endswith("sketch"), len(block))
        if mode.startswith("stream"):
            seconds, windows = timed(args.rounds, run_stream, config, block, args.chunk)
            peak = None
        else:
            seconds, windows = timed(args.rounds, run_batch, config, block)
            peak = peak_memory(run_batch, config, block)
        report[mode] = {
            "seconds": round(seconds, 6),
            "events_per_s": round(len(block) / seconds, 1),
            "windows_emitted": len(windows),
        }
        if peak is not None:
            report[mode]["peak_memory_mb"] = round(peak / 1e6, 3)
        print(
            f"  {mode:>13}: {len(block) / seconds:>11,.0f} ev/s"
            + (f"   peak {peak / 1e6:6.1f} MB" if peak is not None else ""),
            flush=True,
        )
        if len(windows) != N_WINDOWS:
            failures.append(f"{mode}: emitted {len(windows)} windows, not {N_WINDOWS}")

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.assert_stream_sketch:
        sketched = report["stream_sketch"]["events_per_s"]
        plain = report["stream"]["events_per_s"]
        if sketched < 0.5 * plain:
            failures.append(
                "stream_sketch: below half the plain stream "
                f"throughput ({sketched:,.0f} vs {plain:,.0f} events/s)"
            )
        if sketched < 4.0 * SCALAR_STREAM_SKETCH_BASELINE:
            failures.append(
                "stream_sketch: below 4x the pre-vectorization "
                f"scalar baseline ({sketched:,.0f} vs "
                f"{SCALAR_STREAM_SKETCH_BASELINE:,.0f} events/s)"
            )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
