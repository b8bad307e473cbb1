"""Sketch pre-stage benchmark: exact vs. probabilistic windowing memory.

Builds a synthetic heavy-tailed backscatter log (a few very loud
originators, a long tail of quiet ones — the regime § III-B's
analyzability gate exists for), runs the window + select stages of
:class:`repro.sensor.engine.SensorEngine` both ways, and writes
``BENCH_sketch.json``:

* **exact** — the default path: every originator materializes exact
  per-querier state, then the gate drops the tail;
* **sketch** — ``sketch_enabled=True``: the pre-stage summarizes every
  event in constant memory, only approximate-gate survivors materialize
  exact state (two-pass batch mode, survivor features bit-identical).

Each mode reports events/s (best of ``--rounds`` timed runs) and peak
incremental memory from a separate ``tracemalloc`` run, plus the gate
agreement between the two paths (selected sets, false drops).  A
streaming section times the same log through the single-pass chunked
block path (exact vs sketch — the pre-stage's array-native
``observe_arrays`` verdict core) with the promotion resolver's
wholesale/replayed split.  Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_sketch.py --quick

``--quick`` shrinks the workload so CI can smoke-test the harness in
seconds; ``--assert-memory`` fails the run unless the sketch mode's
peak memory stays below the exact baseline.
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

from repro.dnssim.message import QueryLogEntry
from repro.logstore import EntryBlock
from repro.sensor.engine import SensorConfig, SensorEngine
from repro.sensor.selection import analyzable

WINDOW_SECONDS = 86400.0


def synthetic_log(
    events_target: int, min_queriers: int, seed: int
) -> list[QueryLogEntry]:
    """A time-ordered, tail-dominated backscatter day.

    A small head of loud originators (hundreds of queriers each —
    scanners and spammers) over a large tail of sub-gate originators
    that collectively holds ~70% of the events.  Tail footprints are
    exponentially skewed — mostly one or two queriers, vanishingly few
    near the analyzability bar — matching the heavy-tailed originator
    distribution backscatter actually shows.  This is the regime the
    § III-B gate exists for: the exact path materializes per-querier
    state for the whole tail only to drop it at select, while the sketch
    pre-stage summarizes it in constant memory.  Each querier issues one
    or two queries (the second inside the 30 s dedup horizon) at uniform
    times.
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
            timestamp = rng.random() * WINDOW_SECONDS
            events.append((timestamp, querier, originator))
            if rng.random() < 0.4:  # in-horizon duplicate for the dedup stage
                events.append(
                    (
                        min(timestamp + rng.random() * 25.0, WINDOW_SECONDS - 1e-6),
                        querier,
                        originator,
                    )
                )
    events.sort()
    return [QueryLogEntry(timestamp=t, querier=q, originator=o) for t, q, o in events]


def run_mode(config: SensorConfig, entries: list[QueryLogEntry]):
    """One window + select pass; returns (window, selected)."""
    engine = SensorEngine(config=config)
    window = engine.windows(entries, 0.0, WINDOW_SECONDS)[0]
    return window, analyzable(window, config.min_queriers)


def run_streaming(config: SensorConfig, block: EntryBlock, chunk: int):
    """Single-pass chunked block ingest; returns the sensed windows."""
    engine = SensorEngine(config=config)
    windows = []
    for offset in range(0, len(block), chunk):
        engine.ingest_block(block[offset : offset + chunk])
        windows.extend(engine.poll(classify=False))
    windows.extend(engine.finish(classify=False))
    return windows


def timed(rounds: int, config: SensorConfig, entries: list[QueryLogEntry]):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run_mode(config, entries)
        best = min(best, time.perf_counter() - t0)
    return best, result


def timed_streaming(rounds: int, config: SensorConfig, block: EntryBlock, chunk: int):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run_streaming(config, block, chunk)
        best = min(best, time.perf_counter() - t0)
    return best, result


def peak_memory(config: SensorConfig, entries: list[QueryLogEntry]) -> int:
    """Peak incremental bytes of one window + select pass.

    The input log is allocated before tracing starts, so the peak
    measures pipeline state (observations, dedup state, sketches), which
    is what the two modes differ on.
    """
    tracemalloc.start()
    try:
        run_mode(config, entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=200_000, help="target event count")
    parser.add_argument("--min-queriers", type=int, default=10, help="analyzability bar")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=3, help="best-of rounds per mode")
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (small log, 2 rounds)"
    )
    parser.add_argument(
        "--assert-memory",
        action="store_true",
        help="fail unless sketch peak memory < exact peak memory",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_sketch.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.events = min(args.events, 60_000)
        args.rounds = min(args.rounds, 2)

    print(f"generating ~{args.events:,} events …", flush=True)
    entries = synthetic_log(args.events, args.min_queriers, args.seed)
    print(f"log: {len(entries):,} events", flush=True)

    def config_for(sketch: bool) -> SensorConfig:
        return SensorConfig(
            window_seconds=WINDOW_SECONDS,
            min_queriers=args.min_queriers,
            sketch_enabled=sketch,
            # Size the dedup filter to the workload so its FP budget holds.
            sketch_capacity=max(4096, len(entries)),
        )

    exact_config = config_for(False)
    sketch_config = config_for(True)

    exact_seconds, (exact_window, exact_selected) = timed(
        args.rounds, exact_config, entries
    )
    sketch_seconds, (sketch_window, sketch_selected) = timed(
        args.rounds, sketch_config, entries
    )
    exact_peak = peak_memory(exact_config, entries)
    sketch_peak = peak_memory(sketch_config, entries)

    exact_set = {o.originator for o in exact_selected}
    sketch_set = {o.originator for o in sketch_selected}
    footprints = {o: ob.footprint for o, ob in exact_window.observations.items()}
    false_drops = sketch_window.prestage.false_drops(footprints, args.min_queriers)

    def mode_report(seconds: float, peak: int, selected_count: int) -> dict:
        return {
            "seconds": round(seconds, 6),
            "events_per_s": round(len(entries) / seconds, 1),
            "peak_memory_mb": round(peak / 1e6, 3),
            "selected": selected_count,
        }

    report = {
        "benchmark": "sketch",
        "events": len(entries),
        "originators": len(exact_window),
        "min_queriers": args.min_queriers,
        "rounds": args.rounds,
        "cpu_count": os.cpu_count(),
        "exact": mode_report(exact_seconds, exact_peak, len(exact_selected)),
        "sketch": {
            **mode_report(sketch_seconds, sketch_peak, len(sketch_selected)),
            "materialized": len(sketch_window),
            "false_drops": false_drops,
            "selected_matches_exact": sketch_set == exact_set,
            "sketch_memory_bytes": sketch_window.prestage.memory_bytes(),
        },
        "memory_ratio": round(sketch_peak / exact_peak, 3),
        "speed_ratio": round(exact_seconds / sketch_seconds, 3),
    }

    print(
        f"   exact: {exact_seconds:.3f}s  "
        f"{len(entries) / exact_seconds:,.0f} ev/s  "
        f"peak {exact_peak / 1e6:.1f} MB  {len(exact_selected)} selected",
        flush=True,
    )
    print(
        f"  sketch: {sketch_seconds:.3f}s  "
        f"{len(entries) / sketch_seconds:,.0f} ev/s  "
        f"peak {sketch_peak / 1e6:.1f} MB  {len(sketch_selected)} selected  "
        f"({false_drops} false drops)",
        flush=True,
    )

    # Streaming single-pass comparison: the same log chunk-fed through
    # the block ingest path, exact dedup vs the pre-stage's vectorized
    # verdict core (observe_arrays + two-tier promotion resolver).
    block = EntryBlock.from_entries(entries)
    chunk = 5000
    stream_exact_seconds, _ = timed_streaming(args.rounds, exact_config, block, chunk)
    stream_sketch_seconds, stream_windows = timed_streaming(
        args.rounds, sketch_config, block, chunk
    )
    wholesale = sum(
        s.window.prestage.resolver_wholesale
        for s in stream_windows
        if s.window.prestage is not None
    )
    replayed = sum(
        s.window.prestage.resolver_replayed
        for s in stream_windows
        if s.window.prestage is not None
    )
    report["streaming"] = {
        "chunk": chunk,
        "exact": {
            "seconds": round(stream_exact_seconds, 6),
            "events_per_s": round(len(entries) / stream_exact_seconds, 1),
        },
        "sketch": {
            "seconds": round(stream_sketch_seconds, 6),
            "events_per_s": round(len(entries) / stream_sketch_seconds, 1),
            "resolver_wholesale": wholesale,
            "resolver_replayed": replayed,
        },
        "sketch_vs_exact": round(stream_exact_seconds / stream_sketch_seconds, 3),
    }
    print(
        f"  stream exact {len(entries) / stream_exact_seconds:>11,.0f} ev/s   "
        f"sketch {len(entries) / stream_sketch_seconds:>11,.0f} ev/s   "
        f"(resolver: {wholesale:,} wholesale / {replayed:,} replayed)",
        flush=True,
    )

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if sketch_set != exact_set and false_drops == 0:
        # Survivor overshoot is impossible (the exact gate reruns), so a
        # mismatch with zero false drops means something is wrong.
        print("selected sets diverge without false drops!", file=sys.stderr)
        return 1
    if args.assert_memory and sketch_peak >= exact_peak:
        print(
            f"sketch peak memory {sketch_peak / 1e6:.1f} MB is not below the "
            f"exact baseline {exact_peak / 1e6:.1f} MB",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
