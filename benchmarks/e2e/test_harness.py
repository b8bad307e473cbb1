"""Self-tests of the bench-e2e harness (not part of tier-1).

    python3 -m pytest -q benchmarks/e2e/test_harness.py

They pin what the benchmark's numbers rest on: seeds reproduce bytes,
both wire formats carry the same events, the reference check notices
every kind of wrong answer, a service that hangs is reaped and counted
rather than hanging the run, and the comparison judges pairs, so host
drift between two collections does not read as a regression.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = dict(
    queriers=2_000, heavy=8, labeled=8, heavy_queriers=(22, 30), tail_events=60,
    tail_pool=100, train_tail_events=60, window_seconds=60.0,
)
FEED_WINDOWS = 2


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.workload(name), **TINY)


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    spec = dataclasses.replace(tiny("firehose-rbsc"), name="tiny")
    world, feed = workloads.generate(
        spec, 7, tmp_path_factory.mktemp("world"), FEED_WINDOWS
    )
    trained = reference.train(world, spec)
    expected = reference.expected_records(trained, reference.decode_blocks(feed))
    return spec, world, feed, trained, expected


def test_same_seed_same_bytes(tmp_path):
    spec = tiny("firehose-text")
    shas = [
        workloads.generate(spec, seed, tmp_path, FEED_WINDOWS)[1].sha256
        for seed in (3, 3, 4)
    ]
    assert shas[0] == shas[1]
    assert shas[0] != shas[2]


def test_text_and_rbsc_decode_to_equal_blocks(tmp_path):
    feeds = [
        workloads.generate(tiny(name), 11, tmp_path, FEED_WINDOWS)[1]
        for name in ("firehose-rbsc", "firehose-text", "firehose-sketch")
    ]
    assert feeds[0].payload == feeds[2].payload
    decoded = [
        np.concatenate([block.data for block in reference.decode_blocks(feed)])
        for feed in feeds[:2]
    ]
    assert np.array_equal(decoded[0], decoded[1])
    assert np.array_equal(decoded[0]["timestamp"], feeds[0].timestamps)
    assert np.array_equal(decoded[0]["querier"], feeds[0].queriers)
    assert np.array_equal(decoded[0]["originator"], feeds[0].originators)


def test_feed_carries_duplicates_and_reordering(tiny_world):
    _, _, feed, trained, expected = tiny_world
    late = np.count_nonzero(feed.timestamps < np.maximum.accumulate(feed.timestamps))
    assert late > 0
    layer_pass = layers.traced_pass(trained, feed, tiny_world[0])
    assert layer_pass.deduplicated >= 0.08 * layer_pass.ingested
    assert layer_pass.reordered > 0 and layer_pass.late_dropped == 0
    # The layer-by-layer composition is the engine, record for record.
    assert reference.check_records(
        expected.records, layer_pass.records, classes=True, versions=False
    )[1] == 0


def test_reference_check_notices_wrong_answers(tiny_world):
    expected = tiny_world[4].records
    assert len(expected) == 3 and all(r["verdicts"] for r in expected)
    good = copy.deepcopy(expected)
    for record in good:
        record["model_version"] = 0
    attempted, failed, _ = reference.check_records(expected, good, True, False)
    assert attempted == 3 + sum(len(r["verdicts"]) for r in expected) and failed == 0

    dropped = good[:1] + good[2:]
    assert reference.check_records(expected, dropped, True, False)[1] == 1 + len(
        expected[1]["verdicts"]
    )
    flipped = copy.deepcopy(good)
    verdict = flipped[1]["verdicts"][0]
    verdict["app_class"] = "scan" if verdict["app_class"] != "scan" else "spam"
    assert reference.check_records(expected, flipped, True, False)[1] == 1
    removed = copy.deepcopy(good)
    del removed[2]["verdicts"][0]
    assert reference.check_records(expected, removed, True, False)[1] == 1
    # One failure stays one failure share: failed / attempted > 0.
    assert reference.check_records(expected, [], True, False)[1] == attempted


def test_retrain_check_is_versions_not_classes(tiny_world):
    expected = tiny_world[4].records
    seen = copy.deepcopy(expected)
    for version, record in enumerate(seen):
        record["model_version"] = version
        for verdict in record["verdicts"]:
            verdict["app_class"] = "whatever the newest model says"
    assert reference.check_records(expected, seen, classes=False, versions=True)[1] == 0
    assert reference.check_records(expected, seen, classes=True, versions=True)[1] > 0
    backwards = copy.deepcopy(seen)
    backwards[2]["model_version"] = 0
    assert reference.check_records(expected, backwards, classes=False, versions=True)[1] == 1
    del seen[1]["model_version"]  # a window without its version
    assert reference.check_records(expected, seen, classes=False, versions=True)[1] == 1


def test_live_cycle_matches_reference(tiny_world):
    spec, world, feed, _, expected = tiny_world
    cycle = harness.run_cycle(world, feed, spec, ROOT / "src")
    assert cycle.error is None
    attempted, failed, problems = run._check(expected.records, cycle, spec)
    assert failed == 0, problems
    assert attempted > 3 and len(cycle.latencies_s) == 3
    assert cycle.wall_s > 0 and cycle.cpu_s > 0 and cycle.peak_rss_mb > 10
    assert cycle.backlog_end_events == 0


def test_service_that_never_gets_ready_is_reaped(tiny_world):
    spec, world, feed, _, expected = tiny_world
    argv = [sys.executable, "-c", "import time; print('booting', flush=True); time.sleep(60)"]
    cycle = harness.run_cycle(world, feed, spec, ROOT / "src", argv=argv, ready_timeout=1.0)
    assert cycle.error is not None and "no ready line" in cycle.error
    attempted, failed, _ = run._check(expected.records, cycle, spec)
    assert failed == attempted  # everything it owed


_HANGS_MID_FEED = r"""
import json, socket, threading
http = socket.create_server(("127.0.0.1", 0))
feed = socket.create_server(("127.0.0.1", 0))
print(f"serving http on 127.0.0.1:{http.getsockname()[1]}", flush=True)
print(f"accepting auto feed on 127.0.0.1:{feed.getsockname()[1]}", flush=True)
print("replayed 0 events (0 windows closed)", flush=True)
def swallow():
    conn, _ = feed.accept()
    while conn.recv(1 << 16):
        pass
threading.Thread(target=swallow, daemon=True).start()
body = json.dumps({"events": 0, "windows": 0}).encode()
while True:
    conn, _ = http.accept()
    conn.recv(4096)
    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
    conn.close()
"""


def test_service_that_hangs_mid_feed_is_reaped(tiny_world):
    spec, world, feed, _, expected = tiny_world
    cycle = harness.run_cycle(
        world, feed, spec, ROOT / "src",
        argv=[sys.executable, "-c", _HANGS_MID_FEED], feed_timeout=1.0,
    )
    assert cycle.error is not None and "not absorbed" in cycle.error
    attempted, failed, _ = run._check(expected.records, cycle, spec)
    assert failed == attempted


def test_hi_percentile_rule():
    assert harness.hi_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert harness.hi_percentile(list(range(1, 20))) == (50.0, 10)
    # Ten samples must lie beyond the reported percentile.
    assert harness.hi_percentile(list(range(1, 21))) == (50.0, 10)
    assert harness.hi_percentile(list(range(1, 101))) == (90.0, 90)
    assert harness.hi_percentile(list(range(1, 1001))) == (99.0, 990)


def test_traced_metrics_are_the_per_layer_catalog(tiny_world):
    spec, _, feed, trained, expected = tiny_world
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in benchmark["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    from_pass = layers.layer_metrics(
        layers.traced_pass(trained, feed, spec), expected.ingest_s, expected.poll_s
    )
    # run.py adds the live reads and refuses to print a set that differs
    # from the file's; here only that the pass's names are all catalogued.
    assert from_pass.keys() <= {m["name"] for m in benchmark["per_layer"]}


def test_page_pool_is_released_for_the_service_and_refilled(tiny_world):
    spec, world, _, _, _ = tiny_world
    pool = harness.PagePool(8)
    cycle = harness.run_cycle(world, None, spec, ROOT / "src", pool=pool)
    assert cycle.error is None and cycle.setup_s > 0
    assert pool._map is not None and not pool._map.closed
    pool.release()
    assert pool._map is None


def test_more_windows_than_verdicts_retains_is_refused(capsys):
    seconds = (harness.VERDICT_HISTORY + 1) * 2.0 + 60.0
    with pytest.raises(SystemExit) as refusal:
        run.main(["--workload", "paced-wide", "--seed", "1", "--seconds", str(seconds)])
    assert refusal.value.code == 2
    assert "/verdicts retains" in capsys.readouterr().err


def test_judge_reads_pairs_so_drift_between_collections_cancels():
    # The host slows by 30 % half way: both checkouts see it, pair by pair.
    drift = [1.0, 1.02, 0.98, 1.01, 0.99, 1.3, 1.32, 1.28, 1.31, 1.29]
    same = [(100.0 * d, 101.0 * d) for d in drift]
    assert compare.judge(same, "lower", 0.1) == "unchanged"
    slower = [(100.0 * d, 125.0 * d) for d in drift]
    assert compare.judge(slower, "lower", 0.1) == "regression"
    faster = [(100.0 * d, 70.0 * d) for d in drift]
    assert compare.judge(faster, "lower", 0.1) == "improved"
    assert compare.judge([(a, b) for b, a in faster], "higher", 0.1) == "improved"
    assert compare.judge(faster[:9], "lower", 0.1) == "unchanged"  # too few pairs for a gain
    # Pairs that disagree by more than the bound decide nothing.
    noisy = [(100.0, 100.0 + swing) for swing in (-30, 25, -20, 30, -25, 20, 0, 5, -5, 10)]
    assert compare.judge(noisy, "lower", 0.1) == "unresolved"


def test_a_run_without_a_result_object_is_a_failed_run(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "-c", "print('Traceback ...')"], "run_seconds": 1,
    }))
    run_ = compare.run_once(tmp_path, "any", 1, 0)
    assert run_["result"] == compare.FAILED_RUN
    good = {"workload": "w", "seed": 1, "trace": 0, "result": {
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}}
    benchmark = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    lines, bad = compare.compare([good], [{**good, "result": run_["result"]}], benchmark)
    assert bad and "larger share" in lines[-1]
