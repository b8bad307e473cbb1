"""Federation scaling benchmark: one engine vs. an N-shard federation.

Builds a synthetic head-dominated backscatter log (most events belong to
analyzable originators, so the featurize stage — the part that shards
parallelize — has real work), replays it through a single
:class:`repro.sensor.engine.SensorEngine` and through a
:class:`repro.federation.FederatedSensor` at each requested shard count,
batch and streaming, and writes ``BENCH_federation.json``:

* per mode: wall seconds (best of ``--rounds``), events/s, and speedup
  over the single engine;
* a merged-row identity check per shard count — the federation must be
  bit-identical to the single engine, and any divergence fails the run
  unconditionally;
* an Amdahl projection from the single engine's stage accounting
  (featurize is the parallel fraction), so single-core hosts still
  report what a multi-core deployment would see.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_federation.py --quick

``--quick`` shrinks the workload so CI can smoke-test the harness in
seconds; ``--assert-scaling`` fails the run unless the federated batch
path at the highest shard count reaches ``--scaling-target`` (default
1.3x) over the single engine.  The scaling assertion needs a core per
shard: with fewer cores than the highest shard count it is reported as
skipped (N lanes cannot scale on fewer CPUs), while the identity checks
always apply.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

from repro.federation import FederatedSensor
from repro.logstore import EntryBlock
from repro.netmodel.world import NameStatus
from repro.sensor.directory import FrozenDirectory, QuerierInfo
from repro.sensor.engine import SensorConfig, SensorEngine

WINDOW_SECONDS = 21_600.0
N_WINDOWS = 2
SPAN = WINDOW_SECONDS * N_WINDOWS

QUERIER_POOL = 50_000
COUNTRIES = ("jp", "us", "de", "br", "cn", "ru", "fr", "in")


def synthetic_workload(
    events_target: int, min_queriers: int, seed: int
) -> tuple[EntryBlock, FrozenDirectory]:
    """A time-ordered log whose cost sits in the featurize stage.

    Unlike ``bench_ingest`` (tail-dominated, exercising dedup/select),
    this workload is head-dominated: most originators clear the
    analyzability gate, so per-row feature extraction — the work the
    shards parallelize — dominates end-to-end time.
    """
    rng = random.Random(seed)
    n_analyzable = max(8, events_target // 260)
    events: list[tuple[float, int, int]] = []
    used: set[int] = set()
    for rank in range(n_analyzable):
        originator = 0x0A000000 + rank
        footprint = rng.randint(60, 200)
        for q in range(footprint):
            querier = 0xC0000000 + (rank * 131_071 + q * 8_191) % QUERIER_POOL
            used.add(querier)
            timestamp = rng.random() * SPAN
            events.append((timestamp, querier, originator))
            if rng.random() < 0.3:  # in-horizon duplicate for dedup work
                events.append(
                    (
                        min(timestamp + rng.random() * 25.0, SPAN - 1e-6),
                        querier,
                        originator,
                    )
                )
    # A sub-gate tail so the select stage has something to drop.
    for rank in range(n_analyzable * 4):
        originator = 0x0B000000 + rank
        querier = 0xC0000000 + (rank * 8_191) % QUERIER_POOL
        used.add(querier)
        events.append((rng.random() * SPAN, querier, originator))
    events.sort()
    directory = FrozenDirectory(
        QuerierInfo(
            addr=q,
            name=f"host{q & 0xFFFFF}.pool.example.net",
            status=NameStatus.OK,
            asn=q % 4096 + 1,
            country=COUNTRIES[q % len(COUNTRIES)],
        )
        for q in used
    )
    block = EntryBlock.from_arrays(
        *map(list, zip(*events))  # timestamps, queriers, originators
    )
    return block, directory


def run_single(directory: FrozenDirectory, config: SensorConfig, block: EntryBlock):
    engine = SensorEngine(directory, config)
    windows = engine.process(block, 0.0, SPAN, classify=False)
    return windows, engine.accounting()


def run_federated(
    directory: FrozenDirectory,
    config: SensorConfig,
    block: EntryBlock,
    shards: int,
    stream_chunk: int | None = None,
):
    with FederatedSensor(directory, config, n_shards=shards) as federated:
        if stream_chunk is None:
            return federated.process(block, 0.0, SPAN, classify=False)
        windows = []
        for offset in range(0, len(block), stream_chunk):
            federated.ingest_block(block[offset : offset + stream_chunk])
            windows.extend(federated.poll(classify=False))
        windows.extend(federated.finish(classify=False))
        return windows


def rows_signature(windows) -> list:
    """Everything a downstream consumer sees, in emission order."""
    out = []
    for sensed in windows:
        features = sensed.features
        out.append(
            (
                round(sensed.window.start, 6),
                features.originators.tolist(),
                features.matrix.tobytes(),
                features.footprints.tolist(),
            )
        )
    return out


def timed(rounds: int, runner, *args, **kwargs):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = runner(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=150_000, help="target event count")
    parser.add_argument("--min-queriers", type=int, default=10, help="analyzability bar")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=3, help="best-of rounds per mode")
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[2, 4],
        help="shard counts to benchmark (single engine always runs)",
    )
    parser.add_argument(
        "--chunk", type=int, default=5000, help="streaming chunk size (entries)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke scale (small log, 2 rounds)"
    )
    parser.add_argument(
        "--assert-scaling",
        action="store_true",
        help="fail unless the highest shard count's batch path reaches "
        "--scaling-target over the single engine (needs a core per shard)",
    )
    parser.add_argument(
        "--scaling-target", type=float, default=1.3, help="required batch speedup"
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_federation.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.events = min(args.events, 40_000)
        args.rounds = min(args.rounds, 2)

    print(f"generating ~{args.events:,} events …", flush=True)
    block, directory = synthetic_workload(args.events, args.min_queriers, args.seed)
    print(
        f"log: {len(block):,} events, block {block.nbytes / 1e6:.1f} MB, "
        f"{QUERIER_POOL:,}-querier pool",
        flush=True,
    )
    config = SensorConfig(window_seconds=WINDOW_SECONDS, min_queriers=args.min_queriers)

    single_seconds, (single_windows, accounting) = timed(
        args.rounds, run_single, directory, config, block
    )
    reference = rows_signature(single_windows)
    stage_seconds = {s.name: s.seconds for s in accounting}
    total_stage = sum(stage_seconds.values()) or 1.0
    parallel_fraction = stage_seconds.get("featurize", 0.0) / total_stage
    print(
        f"  single engine: {len(block) / single_seconds:>11,.0f} ev/s   "
        f"featurize fraction {parallel_fraction:.2f}",
        flush=True,
    )

    report: dict = {
        "benchmark": "federation",
        "events": len(block),
        "windows": N_WINDOWS,
        "min_queriers": args.min_queriers,
        "rounds": args.rounds,
        "chunk": args.chunk,
        "cpu_count": os.cpu_count(),
        "single": {
            "seconds": round(single_seconds, 6),
            "events_per_s": round(len(block) / single_seconds, 1),
            "stage_seconds": {k: round(v, 6) for k, v in stage_seconds.items()},
            "featurize_fraction": round(parallel_fraction, 4),
        },
        "federated": {},
    }
    failures: list[str] = []
    best_batch_speedup = 0.0
    top_shards = max(args.shards)

    for shards in sorted(set(args.shards)):
        batch_seconds, batch_windows = timed(
            args.rounds, run_federated, directory, config, block, shards
        )
        identical = rows_signature(batch_windows) == reference
        stream_seconds, stream_windows = timed(
            args.rounds,
            run_federated,
            directory,
            config,
            block,
            shards,
            stream_chunk=args.chunk,
        )
        stream_identical = rows_signature(stream_windows) == reference
        batch_speedup = round(single_seconds / batch_seconds, 3)
        # Amdahl bound for this host: featurize parallelizes across
        # min(shards, cores); everything else stays serial.
        lanes = max(1, min(shards, os.cpu_count() or 1))
        projected = round(
            1.0 / ((1.0 - parallel_fraction) + parallel_fraction / lanes), 3
        )
        report["federated"][str(shards)] = {
            "batch": {
                "seconds": round(batch_seconds, 6),
                "events_per_s": round(len(block) / batch_seconds, 1),
                "speedup": batch_speedup,
                "identical": identical,
            },
            "stream": {
                "seconds": round(stream_seconds, 6),
                "events_per_s": round(len(block) / stream_seconds, 1),
                "speedup": round(single_seconds / stream_seconds, 3),
                "identical": stream_identical,
            },
            "projected_speedup": projected,
        }
        if shards == top_shards:
            best_batch_speedup = batch_speedup
        print(
            f"  {shards} shards: batch {len(block) / batch_seconds:>11,.0f} ev/s "
            f"({batch_speedup:>5.2f}x, projected {projected:.2f}x)   "
            f"stream {len(block) / stream_seconds:>11,.0f} ev/s   "
            f"{'identical' if identical and stream_identical else 'DIVERGED'}",
            flush=True,
        )
        if not identical:
            failures.append(f"{shards}-shard batch rows diverge from the single engine")
        if not stream_identical:
            failures.append(f"{shards}-shard stream rows diverge from the single engine")

    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.assert_scaling:
        cores = os.cpu_count() or 1
        if cores < top_shards:
            # Process fan-out cannot scale past the cores it runs on; the
            # identity checks above still gate correctness.
            report["scaling_gate"] = f"skipped: {cores} cores < {top_shards} shards"
            Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
            print(f"scaling gate {report['scaling_gate']}", flush=True)
        elif best_batch_speedup < args.scaling_target:
            failures.append(
                f"{top_shards}-shard batch speedup {best_batch_speedup:.3f}x "
                f"is below the {args.scaling_target:.2f}x target"
            )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
