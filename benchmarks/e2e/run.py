"""bench-e2e: ``repro serve`` feed socket → ``/verdicts``, end to end.

    python3 benchmarks/e2e/run.py --workload firehose-rbsc --seed 1 \\
        --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics against real service
processes for ``--seconds``: a discarded warm-up spawn, then feed cycles
(each one service process, each also a ``setup_s`` sample) while they
fit, then spawn-only cycles until ``setup_s`` has its samples; each
metric is the median over the run's cycles.  ``--trace 1`` replays the
same bytes in-process layer by layer under spans (:mod:`layers`), runs
live cycles for the ``service.*`` / ``gen.*`` reads, checks that the
workload loads the layer it exists for, and writes spans + waterfall to
``out/``.

Metric names and units are ``BENCHMARK.json``'s; a run that computes a
different set than the file names fails.  Every metric is printed by
name, unit and sample count; the last line of stdout is the result
object the driver reads.  Exit code is 1 when a window or verdict is
wrong or missing, a cycle hung or crashed, or (in a traced run) a
discrimination check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
"""Spawn-only cycles top the run's set-up samples up to this many."""
SPAWN_ESTIMATE_S = 0.9
"""One spawn-only cycle (spawn, ready line, kill, pool refill), for
sizing the paced feed before anything has been measured."""
MIN_FEED_CYCLES = 2
"""Full-speed workloads feed at least this often, however slow the host."""
POOL_MB = 384
"""Above the largest service (175 MB peak RSS on the exact firehoses)."""
VERDICT_GETS = 40
VERDICT_GETS_BUDGET_S = 3.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def paced_feed_seconds(seconds: float) -> float:
    """What a paced run's one feed cycle gets of ``--seconds``: the rest
    goes to the warm-up spawn, the spawn-only cycles and the drain."""
    return seconds - (SETUP_SAMPLES + 1) * SPAWN_ESTIMATE_S


def _host_speed() -> float:
    """Runs per second of a fixed numpy + Python kernel (diagnostic only)."""
    import numpy as np

    data = np.arange(200_000, dtype=np.int64)
    started = time.perf_counter()
    total = 0
    for _ in range(5):
        order = np.argsort((data * 2654435761) % 1000003, kind="stable")
        total += sum(order[:20_000].tolist())
    return 5 / (time.perf_counter() - started)


def _check(expected, cycle, spec) -> tuple[int, int, list[str]]:
    from reference import check_records

    retrain = spec.retrain != "off"
    attempted, failed, problems = check_records(
        expected, cycle.records, classes=not retrain, versions=retrain
    )
    if cycle.error is not None:
        # A cycle that hung or crashed owes everything it had not shown.
        problems.insert(0, cycle.error)
        failed = max(failed, 1)
    return attempted, failed, problems


def run_untraced(spec, world, feed, trained, seconds: float):
    from harness import PagePool, run_cycle
    from reference import coarse_blocks, expected_records

    expected = expected_records(
        trained, coarse_blocks(feed), classify=spec.retrain == "off"
    ).records
    pool = PagePool(POOL_MB)
    started = time.perf_counter()
    attempted = failed = 0
    problems: list[str] = []
    setups: list[float] = []

    def spawn_only() -> float:
        nonlocal attempted, failed
        began = time.perf_counter()
        cycle = run_cycle(world, None, spec, SRC, pool=pool)
        attempted += 1
        if cycle.error is not None:
            failed += 1
            problems.append(cycle.error)
        setups.append(cycle.setup_s)
        return time.perf_counter() - began

    # Warm-up: reported, excluded.  Every cycle is a fresh process, so what
    # a warm-up can warm is the host (page cache, .pyc files) and a spawn
    # does that; a full feed cycle here would cost a measured one.
    spawn_s = spawn_only()
    warm_setup = setups.pop()
    cycles = []
    while not failed:
        began = time.perf_counter()
        cycle = run_cycle(world, feed, spec, SRC, pool=pool)
        cycles.append(cycle)
        a, f, p = _check(expected, cycle, spec)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        if cycle.error is not None:
            break
        setups.append(cycle.setup_s)
        if spec.pace_seconds is not None:
            break
        now = time.perf_counter()
        # Another feed cycle only if it and the spawn-only cycles still
        # owed after it fit in what is left of --seconds.
        owed = max(0, SETUP_SAMPLES - len(setups) - 1) * spawn_s
        fits = (now - started) + (now - began) + owed <= seconds
        if len(cycles) >= MIN_FEED_CYCLES and not fits:
            break
    while not failed and len(setups) < SETUP_SAMPLES:
        spawn_only()
    pool.release()

    good = [c for c in cycles if c.error is None]
    samples = {
        "setup_s": setups,
        "events_per_s": [feed.events / c.wall_s for c in good],
        "peak_rss_mb": [c.peak_rss_mb for c in good],
        "verdict_latency_p50_s": [_median(c.latencies_s) for c in good],
    }
    print(f"warm-up spawn (excluded): setup {warm_setup:.3f} s")
    for cycle in cycles:
        print(f"cycle: setup {cycle.setup_s:.3f} s, wall {cycle.wall_s:.3f} s, "
              f"cpu {cycle.cpu_s:.2f} s, rss {cycle.peak_rss_mb:.1f} MB, "
              f"latency p50 {_median(cycle.latencies_s):.3f} s over "
              f"{len(cycle.latencies_s)} windows, gen lag {cycle.lag_max_s * 1e3:.1f} ms"
              + (f", ERROR {cycle.error}" if cycle.error else ""))
    print(f"measured for {time.perf_counter() - started:.1f} s of --seconds {seconds:g}")
    values = {name: _median(values) for name, values in samples.items()}
    counts = {name: len(values) for name, values in samples.items()}
    return attempted, failed, problems, values, counts


def _live_probe(world, live: dict):
    """Reads taken from the running service after the feed, before SIGTERM."""
    from reference import REPLAY_CHUNK

    def probe(service, cycle) -> None:
        text = service.get("/metrics").decode()
        blocks = 0.0
        for line in text.splitlines():
            if line.startswith('repro_ingest_blocks_total{path="stream"}'):
                blocks = float(line.rsplit(" ", 1)[1])
        live["blocks"] = blocks - math.ceil(world.train_events / REPLAY_CHUNK)
        timings = []
        budget = time.perf_counter() + VERDICT_GETS_BUDGET_S
        while len(timings) < VERDICT_GETS and (
            len(timings) < 10 or time.perf_counter() < budget
        ):
            started = time.perf_counter()
            service.get("/verdicts", timeout=30.0)
            timings.append((time.perf_counter() - started) * 1e3)
        live["get_verdicts_ms"] = timings

    return probe


def run_traced(spec, world, feed, trained, seed: int):
    from harness import PagePool, hi_percentile, run_cycle
    from layers import discrimination, layer_metrics, traced_pass, waterfall, write_trace
    from reference import check_records, decode_blocks, expected_records

    retrain = spec.retrain != "off"
    speed_before = _host_speed()
    engine = expected_records(
        trained, decode_blocks(feed), classify=True, retrain=retrain
    )
    layers = traced_pass(trained, feed, spec)
    # Both passes swap models after every window, so even under
    # retraining the layer-by-layer pass must reproduce the engine's classes.
    attempted, failed, problems = check_records(
        engine.records, layers.records, classes=True, versions=False
    )
    problems = [f"traced pass vs engine pass: {p}" for p in problems]

    pool = PagePool(POOL_MB)
    live: dict = {}
    cycles = []
    for _ in range(1 if spec.pace_seconds is not None else 2):
        cycle = run_cycle(
            world, feed, spec, SRC, probe=_live_probe(world, live), pool=pool
        )
        cycles.append(cycle)
        a, f, p = _check(engine.records, cycle, spec)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        if cycle.error is not None:
            break
    pool.release()
    good = [c for c in cycles if c.error is None]
    wall = _median([c.wall_s for c in good])
    latencies = [x for c in good for x in c.latencies_s]
    hi_pct, hi_value = hi_percentile(latencies)

    values = layer_metrics(layers, engine.ingest_s, engine.poll_s)
    residual = wall - values["feed.decode_s"] - values["engine.total_s"]
    health = good[-1].health if good else {}
    blocks = live.get("blocks", 0.0)
    values.update({
        "manager.swaps": health.get("swaps", {}).get("swapped", 0),
        "manager.model_version_end": health.get("model_version", 0),
        "http.get_verdicts_p50_ms": _median(live.get("get_verdicts_ms", [])),
        "service.blocks_pumped": blocks,
        "service.events_per_block": feed.events / blocks if blocks else 0.0,
        "service.backlog_peak_events": _median([c.backlog_peak_events for c in good]),
        "service.backlog_end_events": max((c.backlog_end_events for c in good), default=0),
        "service.cpu_utilisation": _median([c.cpu_s / c.wall_s for c in good]),
        "service.cpu_s_per_mevent": _median([c.cpu_s / feed.events * 1e6 for c in good]),
        "service.verdict_latency_hi_s": hi_value,
        "service.verdict_latency_hi_percentile": hi_pct,
        "service.residual_s": residual,
        "service.residual_share": residual / wall if good else float("nan"),
        "gen.lag_max_s": max((c.lag_max_s for c in good), default=0.0),
        "gen.send_s": _median([c.send_s for c in good]),
        "host.speed_before": speed_before,
        "host.speed_after": _host_speed(),
        "failed_share": failed / attempted,
    })
    text = waterfall(spec, values, wall, layers)
    checks = discrimination(spec, values, wall, layers) if good else []
    print(f"live: {len(good)} cycle(s), {len(latencies)} window latencies, "
          f"{len(live.get('get_verdicts_ms', []))} GET /verdicts")
    print(text)
    lines = ["discrimination:"]
    for what, measured, requirement, ok in checks:
        lines.append(f"  {'ok  ' if ok else 'FAIL'} {what}: {measured:.4f} (need {requirement})")
        attempted += 1
        if not ok:
            failed += 1
            problems.append(f"discrimination: {what} = {measured:.4f}, need {requirement}")
    print("\n".join(lines))
    write_trace(OUT, spec, seed, layers, text + "\n" + "\n".join(lines))
    return attempted, failed, problems, values, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"bench-e2e: no service to run: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import VERDICT_HISTORY
    from reference import train
    from workloads import generate, workload

    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in catalog["per_layer" if args.trace else "end_to_end"]
    }
    spec = workload(args.workload)
    feed_windows = spec.feed_windows(paced_feed_seconds(args.seconds))
    if feed_windows + 1 > VERDICT_HISTORY:
        # /verdicts keeps the newest VERDICT_HISTORY windows; older ones
        # would read as missing.
        parser.error(
            f"--seconds {args.seconds:g} makes {feed_windows + 1} windows; "
            f"/verdicts retains {VERDICT_HISTORY}"
        )
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=OUT))
    try:
        world, feed = generate(spec, args.seed, workdir, feed_windows)
        print(f"{spec.name} seed {args.seed}: {feed.events} feed events, "
              f"{len(feed.payload)} bytes, sha256 {feed.sha256[:16]}, "
              f"{len(feed.window_bounds)} windows expected")
        trained = train(world, spec)
        if args.trace:
            attempted, failed, problems, values, counts = run_traced(
                spec, world, feed, trained, args.seed
            )
        else:
            attempted, failed, problems, values, counts = run_untraced(
                spec, world, feed, trained, args.seconds
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if values.keys() != units.keys():
        raise SystemExit(
            "bench-e2e: BENCHMARK.json and the code name different metrics: "
            f"{sorted(values.keys() ^ units.keys())}"
        )
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        print(f"{name:<46}{value:>16.4f} {unit:<10}"
              + (f" median of {counts[name]}" if name in counts else ""))
        # Only a failed cycle leaves a metric without a value.
        metrics[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
    for problem in problems[:20]:
        print(f"PROBLEM: {problem}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
