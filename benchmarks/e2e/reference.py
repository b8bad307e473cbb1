"""In-process reference: what ``/verdicts`` must show for a generated feed.

Mirrors ``repro serve`` start-up (train on the whole training log,
adopt the model into a windowed engine, replay the log in 5 000-event
chunks) and then pushes the feed's decoded blocks through
``SensorEngine.ingest_block`` / ``poll`` — the same calls the service's
pump makes — with no registry and no tracing.  The pass doubles as the
``engine.*`` layer timing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.datasets import read_directory
from repro.logstore import EntryBlock, load_block
from repro.ml.validation import LabelEncoder
from repro.netmodel.addressing import ip_to_str, str_to_ip
from repro.sensor import LabeledSet, SensorConfig, SensorEngine
from repro.sensor.training import Strategy
from repro.service import ServiceConfig
from repro.service.feed import FeedReader
from repro.service.manager import ModelManager

from workloads import MIN_QUERIERS, Feed, Workload, World

__all__ = [
    "FEED_CHUNK",
    "EngineTiming",
    "check_records",
    "coarse_blocks",
    "decode_blocks",
    "expected_records",
    "payload_slices",
    "record_of",
    "replay_chunks",
    "train",
]

FEED_CHUNK = ServiceConfig().feed_chunk
"""Bytes per socket read, hence per block (``repro serve`` has no flag)."""
REPLAY_CHUNK = 5000
"""``repro serve --chunk`` default: training-log events per submitted block."""
COARSE_EVENTS = 100_000


def payload_slices(feed: Feed) -> list[tuple[int, int]]:
    """Byte ranges the service reads the feed in, at most.

    A full-speed feed arrives as full ``FEED_CHUNK`` reads.  A paced
    feed arrives one flush at a time; the service sees each flush as its
    own read unless it falls behind, so this is the finest cut it can see.
    """
    cuts = [0]
    if feed.due_s is None:
        cuts += range(FEED_CHUNK, len(feed.payload), FEED_CHUNK)
    else:
        last_of_flush = np.flatnonzero(np.diff(feed.due_s) > 0)
        for end in feed.byte_ends[last_of_flush].tolist():
            cuts += range(cuts[-1] + FEED_CHUNK, end, FEED_CHUNK)
            cuts.append(end)
    cuts.append(len(feed.payload))
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def decode_blocks(feed: Feed) -> list[EntryBlock]:
    """The feed as the blocks a service connection would submit."""
    reader = FeedReader("auto")
    blocks = [reader.feed(feed.payload[lo:hi]) for lo, hi in payload_slices(feed)]
    blocks.append(reader.close())
    return [block for block in blocks if len(block)]


@dataclass(frozen=True, slots=True)
class Trained:
    """What ``repro serve`` holds once it is ready for the feed."""

    directory: object
    entries: EntryBlock
    config: SensorConfig
    """The windowed (serving) engine's configuration."""
    X: np.ndarray
    y: np.ndarray
    encoder: LabelEncoder
    labeled: LabeledSet


def train(world: World, spec: Workload) -> Trained:
    """Load the world files and train on the whole log, as ``serve`` does."""
    directory = read_directory(world.directory_path)
    entries = load_block(world.log_path)
    start = entries[0].timestamp
    end = entries[-1].timestamp + 1.0
    labeled = LabeledSet.from_pairs(
        (str_to_ip(addr), app_class)
        for addr, app_class in json.loads(world.labels_path.read_text()).items()
    )
    config = SensorConfig(
        window_seconds=spec.window_seconds, origin=start,
        min_queriers=MIN_QUERIERS, sketch_enabled=spec.sketch,
    )
    trainer = SensorEngine(directory, config.replaced(window_seconds=end - start))
    features = trainer.featurize(trainer.collect(entries, start, end))
    present = labeled.restrict_to({int(o) for o in features.originators})
    X, y, _ = trainer.training_data(features, present)
    return Trained(directory, entries, config, X, y, trainer.encoder, present)


def replay_chunks(entries: EntryBlock):
    """The training log in the blocks ``serve`` submits before it is ready."""
    for offset in range(0, len(entries), REPLAY_CHUNK):
        yield entries[offset : offset + REPLAY_CHUNK]


def record_of(start: float, end: float, verdicts) -> dict:
    """One ``/verdicts`` window record, minus ``model_version``."""
    return {
        "start": float(start),
        "end": float(end),
        "verdicts": [
            {
                "originator": ip_to_str(int(v.originator)),
                "app_class": v.app_class,
                "footprint": int(v.footprint),
            }
            for v in verdicts
        ],
    }


@dataclass(slots=True)
class EngineTiming:
    """Wall seconds of the reference pass over the feed blocks only."""

    ingest_s: float = 0.0
    poll_s: float = 0.0
    blocks: int = 0
    records: list[dict] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.ingest_s + self.poll_s


def coarse_blocks(feed: Feed) -> list[EntryBlock]:
    """The feed straight from the generator's arrays, in large blocks.

    Windows do not depend on how a feed is cut into blocks (pinned by
    the tier-1 streaming tests), so the untraced runs' reference skips
    the decoder and the per-block overhead the traced run measures.
    """
    return [
        EntryBlock.from_arrays(
            feed.timestamps[lo : lo + COARSE_EVENTS],
            feed.queriers[lo : lo + COARSE_EVENTS],
            feed.originators[lo : lo + COARSE_EVENTS],
        )
        for lo in range(0, feed.events, COARSE_EVENTS)
    ]


def expected_records(
    trained: Trained,
    blocks: list[EntryBlock],
    classify: bool = True,
    retrain: bool = False,
) -> EngineTiming:
    """Run the reference pass; returns the records a full cycle must show.

    With ``classify=False`` (retraining workloads, whose classes depend
    on swap timing) the verdicts carry ``app_class=None`` and only
    originators and footprints are comparable.  With ``retrain=True``
    the model is refitted and swapped after every window, untimed, as
    ``--retrain daily`` does when its fit always lands before the next
    close — so ``engine.*`` is timed on the models the live service uses.
    """
    manager = (
        ModelManager(trained.labeled, Strategy.TRAIN_DAILY, seed=trained.config.seed)
        if retrain else None
    )
    engine = SensorEngine(trained.directory, trained.config)
    engine.adopt_training(trained.X, trained.y, trained.encoder)
    out = EngineTiming()

    def collect(sensed_windows) -> None:
        for sensed in sensed_windows:
            if classify:
                verdicts = sensed.verdicts
            else:
                features = sensed.features
                verdicts = [
                    _Unclassified(int(o), int(f))
                    for o, f in zip(features.originators, features.footprints)
                ]
            out.records.append(
                record_of(sensed.window.start, sensed.window.end, verdicts)
            )
            if manager is not None:
                manager.observe_window(sensed)
                manager.wait_pending()
                manager.apply_pending(engine)

    for block in replay_chunks(trained.entries):
        engine.ingest_block(block)
        collect(engine.poll(classify))
    for block in blocks:
        t0 = time.perf_counter()
        engine.ingest_block(block)
        t1 = time.perf_counter()
        sensed = engine.poll(classify)
        t2 = time.perf_counter()
        out.ingest_s += t1 - t0
        out.poll_s += t2 - t1
        out.blocks += 1
        collect(sensed)
    if manager is not None:
        manager.close()
    return out


@dataclass(frozen=True, slots=True)
class _Unclassified:
    originator: int
    footprint: int
    app_class: None = None


def check_records(
    expected: list[dict], seen: list[dict], classes: bool, versions: bool
) -> tuple[int, int, list[str]]:
    """Compare ``/verdicts`` records with the reference.

    Returns ``(attempted, failed, problems)``: one attempt per expected
    window plus one per expected verdict.  A missing window fails itself
    and all its verdicts; a verdict fails when its originator is absent,
    its footprint differs, or — with *classes* — its class differs; an
    originator the reference does not have fails its window.  Under
    ``--retrain daily`` classes depend on when the background fit lands,
    so callers pass ``classes=False, versions=True``: every window must
    then carry one integer ``model_version`` and versions never decrease.
    """
    attempted = len(expected) + sum(len(r["verdicts"]) for r in expected)
    failed = 0
    problems: list[str] = []
    by_bounds = {(r.get("start"), r.get("end")): r for r in seen}
    last_version = 0
    for want in expected:
        got = by_bounds.get((want["start"], want["end"]))
        if got is None:
            failed += 1 + len(want["verdicts"])
            problems.append(f"window [{want['start']}, {want['end']}) missing")
            continue
        window_ok = True
        if versions:
            version = got.get("model_version")
            if not isinstance(version, int) or version < last_version:
                window_ok = False
                problems.append(
                    f"window [{want['start']}, {want['end']}): model_version "
                    f"{version!r} after {last_version}"
                )
            else:
                last_version = version
        have = {v["originator"]: v for v in got.get("verdicts", [])}
        for verdict in want["verdicts"]:
            mine = have.pop(verdict["originator"], None)
            if mine is None:
                failed += 1
                problems.append(f"{verdict['originator']} missing")
            elif mine["footprint"] != verdict["footprint"] or (
                classes and mine["app_class"] != verdict["app_class"]
            ):
                failed += 1
                problems.append(f"{verdict['originator']}: {mine} != {verdict}")
        if have:
            window_ok = False
            problems.append(f"unexpected originators {sorted(have)[:3]}")
        if not window_ok:
            failed += 1
    return attempted, failed, problems
