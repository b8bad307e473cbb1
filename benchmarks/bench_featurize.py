"""Featurization benchmark: serial vs. cached rows/s.

Generates a B-long window (the paper's week-long BINY vantage), runs the
featurize stage two ways, and writes ``BENCH_featurize.json``:

* **serial** — the scalar reference path: every call looks its queriers
  up in the directory and classifies their names, equivalent to the
  pre-vectorization per-originator loop;
* **cached** — :func:`features_from_selected`: one searchsorted into the
  directory's columns (enriched when the directory was built) plus
  vectorized array math.

Each mode reports rows/s from the best of ``--rounds`` runs.  A third
measurement re-runs the cached mode with a live
:class:`repro.telemetry.MetricsRegistry` installed and reports the
overhead of active telemetry (``--assert-overhead PCT`` turns it into
a pass/fail gate; ``--metrics-out`` writes the collected snapshot).
The overhead is the median over many off-on-on-off rounds of each
round's on/off time ratio, so host drift cancels within a round instead
of landing on one side.
Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_featurize.py --quick

``--quick`` uses the tiny dataset preset so CI can smoke-test the
harness in seconds; real trend numbers come from the default preset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.datasets.generate import get_dataset
from repro.experiments.common import sensor_config
from repro.sensor.dynamic import WindowContext
from repro.sensor.engine import SensorEngine
from repro.sensor.features import feature_vector, features_from_selected
from repro.sensor.selection import analyzable
from repro.telemetry import MetricsRegistry, use_registry, write_metrics


def _best_of(rounds: int, run) -> tuple[float, object]:
    """Minimum wall time over *rounds* calls (and the last result)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _overhead_ratios(rounds: int, off, on) -> list[float]:
    """Per-round on/off wall-time ratios, each round timed off, on, on, off.

    The mirrored order runs each side first and last equally often, so
    neither pays for going first, and a slow patch of the host that
    spans a round lands on both sides.
    """
    ratios = []
    for _ in range(rounds):
        seconds = {off: 0.0, on: 0.0}
        for run in (off, on, on, off):
            t0 = time.perf_counter()
            run()
            seconds[run] += time.perf_counter() - t0
        ratios.append(seconds[on] / seconds[off])
    return ratios


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="B-long", help="dataset name")
    parser.add_argument(
        "--preset",
        default="default",
        choices=("default", "tiny"),
        help="dataset preset (tiny = CI smoke scale)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="shorthand for --preset tiny --rounds 2"
    )
    parser.add_argument("--rounds", type=int, default=3, help="best-of rounds per mode")
    parser.add_argument(
        "-o", "--output", default="BENCH_featurize.json", help="output JSON path"
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the telemetry snapshot collected during the "
        "instrumented runs here (format inferred from the suffix)",
    )
    parser.add_argument(
        "--assert-overhead",
        type=float,
        default=None,
        metavar="PCT",
        help="fail if live telemetry slows the cached mode by more "
        "than PCT percent",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.preset = "tiny"
        args.rounds = min(args.rounds, 2)

    print(f"generating {args.dataset} (preset={args.preset}) …", flush=True)
    dataset = get_dataset(args.dataset, args.preset)
    directory = dataset.directory()
    config = sensor_config(args.dataset, args.preset)
    engine = SensorEngine(directory, config)
    window = engine.collect(dataset.sensor.log, 0.0, config.window_seconds)
    selected = analyzable(window, config.min_queriers)
    distinct_queriers = len(window.querier_addrs())
    print(
        f"window: {len(window)} originators, {len(selected)} analyzable, "
        f"{distinct_queriers} distinct queriers",
        flush=True,
    )
    if not selected:
        print("no analyzable originators; nothing to benchmark", file=sys.stderr)
        return 1

    def run_serial() -> np.ndarray:
        # Pre-vectorization equivalent: a scalar per-row loop of lookups.
        context = WindowContext.from_window(window, directory)
        return np.vstack(
            [feature_vector(o, directory, context) for o in selected]
        )

    def run_cached() -> np.ndarray:
        return features_from_selected(window, selected, directory).matrix

    rows = len(selected)
    modes: dict[str, dict[str, float]] = {}
    matrices: dict[str, np.ndarray] = {}
    for name, run in (("serial", run_serial), ("cached", run_cached)):
        seconds, matrix = _best_of(args.rounds, run)
        matrices[name] = matrix
        modes[name] = {
            "seconds": round(seconds, 6),
            "rows_per_s": round(rows / seconds, 2),
        }
        print(f"{name:>8}: {seconds:.3f}s  {rows / seconds:,.0f} rows/s", flush=True)

    # Telemetry overhead: the cached mode again, now with a registry
    # installed so every span/observe hook does real work.  One call
    # takes a few ms, so best-of-N of each side apart moved with the
    # host by more than the budget; the median of paired ratios does not.
    registry = MetricsRegistry()

    def run_cached_live() -> np.ndarray:
        with use_registry(registry):
            return features_from_selected(window, selected, directory).matrix

    ratios = _overhead_ratios(301, run_cached, run_cached_live)
    overhead_pct = (float(np.median(ratios)) - 1.0) * 100.0
    live_seconds, live_matrix = _best_of(args.rounds, run_cached_live)
    modes["cached_telemetry"] = {
        "seconds": round(live_seconds, 6),
        "rows_per_s": round(rows / live_seconds, 2),
    }
    print(
        f"telemetry: {overhead_pct:+.2f}% (median on/off ratio of "
        f"{len(ratios)} off-on-on-off rounds)",
        flush=True,
    )
    if not np.array_equal(matrices["cached"], live_matrix):
        print("telemetry changed the feature matrix!", file=sys.stderr)
        return 1
    if args.metrics_out:
        write_metrics(registry, args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")

    report = {
        "benchmark": "featurize",
        "dataset": args.dataset,
        "preset": args.preset,
        "rows": rows,
        "distinct_queriers": distinct_queriers,
        "window_seconds": config.window_seconds,
        "rounds": args.rounds,
        "cpu_count": os.cpu_count(),
        "modes": modes,
        "speedup_cached_vs_serial": round(
            modes["serial"]["seconds"] / modes["cached"]["seconds"], 2
        ),
        "telemetry_overhead_pct": round(overhead_pct, 2),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.assert_overhead is not None and overhead_pct > args.assert_overhead:
        print(
            f"telemetry overhead {overhead_pct:.2f}% exceeds the "
            f"{args.assert_overhead:.2f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
