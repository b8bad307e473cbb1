"""Seeded workloads for bench-e2e: world files + the feed bytes.

Everything the service sees is generated here from ``(workload, seed)``:
the training log / querier directory / labels it is started with, and
the byte stream offered on its feed socket.  The same pair always yields
the same bytes (pinned by ``test_harness.py``), and the service never
sees the seed.

Event-time layout (``W`` = ``window_seconds``, origin ``T0``):

* window 0 ``[T0, T0+W)`` is the training log the service replays at
  start-up — it stays open until the feed moves the watermark past it;
* windows 1..F are the feed; every one holds the same *heavy*
  (analyzable, ≥ 20 queriers) originators plus a tail of small ones;
* three sentinel events at ``T0+(F+1)W + slack + 1`` close window F.

So a complete cycle shows F+1 records on ``/verdicts``.  Feed events
carry ``DUPLICATE_SHARE`` repeats of a (querier, originator) pair inside
the 30 s dedup horizon (§ III-A) and ``REORDER_SHARE`` arrivals delayed
by less than the collector's reorder slack, so the reference check
covers dedup and reordering.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets import write_directory
from repro.datasets.dnstap import MAGIC, VERSION
from repro.logstore import EntryBlock, save_block
from repro.netmodel.addressing import ip_to_str
from repro.netmodel.world import NameStatus
from repro.sensor.directory import QuerierInfo

__all__ = [
    "WORKLOADS",
    "Workload",
    "World",
    "Feed",
    "generate",
    "workload",
]

T0_MS = 1_400_000_000_000
"""Event-time origin in integer milliseconds: timestamps are ``ms / 1000``,
the nearest double to a 3-decimal string, so text and rbsc feeds decode
to bit-equal float64 timestamps."""

REORDER_SLACK = 2.0
"""The collector's default ``reorder_slack`` (``repro serve`` has no flag)."""
DEDUP_SECONDS = 30.0
MIN_QUERIERS = 20
DUPLICATE_SHARE = 0.11
FLUSH_SECONDS = 0.2
"""Paced feeds are offered in batches this far apart, like a log
forwarder's flush interval; the service's per-block cost does not
shrink with the block, so a finer trickle measures only that."""
REORDER_SHARE = 0.02

APP_CLASSES = ("scan", "spam", "mail", "cdn")

# Querier reverse-name templates, one per static keyword category
# (repro.sensor.keywords), and each application class's mix over them.
# The mixes share no category: any static feature separates the classes,
# so every seed grows equally shallow trees and a vote costs the same
# (overlapping mixes made the fit cost swing +-20 % with the seed).
_CATEGORY_NAMES = (
    "dsl-{i}.pool.isp{a}.example.net",      # home
    "mail{i}.corp{a}.example.com",          # mail
    "ns{i}.isp{a}.example.net",             # ns
    "fw{i}.corp{a}.example.com",            # fw
    "spam{i}.filter{a}.example.com",        # antispam
    "www{i}.corp{a}.example.org",           # www
    "a{i}.deploy.akamaitechnologies.com",   # cdn
    "srv{i}.corp{a}.example.org",           # other
    None,                                   # nxdomain
)
_CLASS_MIX = np.array(
    [
        # home  mail   ns    fw   spam   www   cdn  other  nx
        [0.00, 0.00, 0.40, 0.60, 0.00, 0.00, 0.00, 0.00, 0.00],  # scan
        [0.00, 0.60, 0.00, 0.00, 0.40, 0.00, 0.00, 0.00, 0.00],  # spam
        [0.60, 0.00, 0.00, 0.00, 0.00, 0.40, 0.00, 0.00, 0.00],  # mail
        [0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.50, 0.20, 0.30],  # cdn
    ]
)
_COUNTRIES = (
    "jp", "us", "de", "br", "cn", "in", "fr", "gb", "kr", "ru", "nl", "it",
    "es", "ca", "au", "mx", "se", "pl", "tr", "id", "ar", "za", "ch", "tw",
)


@dataclass(frozen=True, slots=True)
class Workload:
    """One benchmark workload: what is generated and how it is served."""

    name: str
    feed_format: str
    """Wire format of the feed: ``rbsc`` frames or ``text`` lines."""
    sketch: bool
    """Serve with ``--sketch`` (approximate gate, exact survivors only)."""
    retrain: str
    """``repro serve --retrain`` value (``off`` or ``daily``)."""
    queriers: int
    """Distinct querier addresses in the directory."""
    heavy: int
    """Analyzable originators active in every window."""
    labeled: int
    """How many of the heavy originators carry a curated label."""
    heavy_queriers: tuple[int, int]
    """Queriers drawn per heavy originator per window: a log-spaced
    ladder from lo to hi, shuffled by the seed."""
    tail_events: int
    """Events per feed window from the long tail of small originators."""
    tail_pool: int
    """Addresses the tail draws its originators from."""
    train_tail_events: int
    """Tail events in the training log (window 0)."""
    window_seconds: float
    pace_seconds: float | None
    """Wall seconds per event-time window (open loop); ``None`` offers
    every byte at once (full speed)."""

    def feed_windows(self, seconds: float) -> int:
        """Feed windows in a run that measures for *seconds*: one large one
        at full speed, as many as fit the run's one cycle when paced."""
        if self.pace_seconds is None:
            return 1
        return max(2, int(seconds / self.pace_seconds))


_FIREHOSE = dict(
    retrain="off", queriers=20_000, heavy=100, labeled=60,
    heavy_queriers=(60, 2000), tail_events=233_000, tail_pool=215_000,
    train_tail_events=10_000, window_seconds=3600.0, pace_seconds=None,
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="firehose-rbsc",
        feed_format="rbsc", sketch=False, **_FIREHOSE,
    ),
    Workload(
        name="firehose-text",
        feed_format="text", sketch=False, **_FIREHOSE,
    ),
    Workload(
        name="firehose-sketch",
        feed_format="rbsc", sketch=True, **_FIREHOSE,
    ),
    Workload(
        name="paced-wide",
        feed_format="rbsc", sketch=False, retrain="daily", queriers=20_000,
        heavy=300, labeled=64, heavy_queriers=(22, 30), tail_events=300,
        tail_pool=3_000, train_tail_events=300, window_seconds=60.0,
        pace_seconds=2.0,
    ),
)


def workload(name: str) -> Workload:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r} (have {[w.name for w in WORKLOADS]})")


@dataclass(frozen=True, slots=True)
class World:
    """The files ``repro serve`` is started with."""

    log_path: Path
    directory_path: Path
    labels_path: Path
    train_events: int


@dataclass(frozen=True, slots=True)
class Feed:
    """The generated feed, in arrival order, plus what a full cycle must show."""

    payload: bytes
    sha256: str
    timestamps: np.ndarray
    queriers: np.ndarray
    originators: np.ndarray
    due_s: np.ndarray | None
    """Wall offset from the start of the feed at which each event is due
    (paced workloads); ``None`` = everything is due at once."""
    byte_ends: np.ndarray | None
    """Payload offset just past each event (paced workloads)."""
    window_bounds: tuple[tuple[float, float], ...]
    """(start, end) of every window a complete cycle closes, oldest first."""
    closing_event: np.ndarray
    """Arrival index of the event whose arrival closes each of those windows."""
    distinct_originators: int
    """Distinct originators in the first feed window (pre-gate)."""

    @property
    def events(self) -> int:
        return int(self.timestamps.size)


def _querier_addresses(n: int) -> np.ndarray:
    """*n* distinct addresses spread over 97 /8s and many /24s."""
    i = np.arange(n, dtype=np.int64)
    return ((11 + i % 97) << 24) + (i // 97) * 263 + 1


def _directory_rows(spec: Workload):
    """One QuerierInfo per querier; category k owns an equal index range."""
    addrs = _querier_addresses(spec.queriers).tolist()
    per_category = spec.queriers // len(_CATEGORY_NAMES)
    for i, addr in enumerate(addrs):
        template = _CATEGORY_NAMES[min(i // per_category, len(_CATEGORY_NAMES) - 1)]
        yield QuerierInfo(
            addr=addr,
            name=None if template is None else template.format(i=i, a=i % 311),
            status=NameStatus.NXDOMAIN if template is None else NameStatus.OK,
            asn=1000 + (i * 7919) % 2500,
            country=_COUNTRIES[(i * 31) % len(_COUNTRIES)],
        )


def _window_events(
    rng: np.random.Generator,
    spec: Workload,
    heavy_addrs: np.ndarray,
    heavy_class: np.ndarray,
    start_ms: int,
    tail_events: int,
    duplicates: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ts_ms, querier index, originator) of one window, unordered."""
    width_ms = int(spec.window_seconds * 1000)
    # A fixed log-spaced ladder of footprints, dealt out by the seed, so
    # every seed offers the same amount of work.
    per_heavy = rng.permutation(
        np.geomspace(*spec.heavy_queriers, num=heavy_addrs.size).astype(np.int64)
    )
    originators = np.repeat(heavy_addrs, per_heavy)
    mix = np.cumsum(_CLASS_MIX, axis=1)[np.repeat(heavy_class, per_heavy)]
    category = (rng.random(originators.size)[:, None] >= mix).sum(axis=1)
    category = np.minimum(category, len(_CATEGORY_NAMES) - 1)
    per_category = spec.queriers // len(_CATEGORY_NAMES)
    queriers = category * per_category + rng.integers(
        0, per_category, size=originators.size
    )
    tail_originators = (80 << 24) + rng.integers(0, spec.tail_pool, size=tail_events)
    tail_queriers = rng.integers(0, spec.queriers, size=tail_events)
    originators = np.concatenate([originators, tail_originators])
    queriers = np.concatenate([queriers, tail_queriers])
    ts_ms = start_ms + rng.integers(0, width_ms - 1, size=originators.size)
    if duplicates:
        # Repeats of the same pair inside the dedup horizon, kept inside
        # the window so the share the collector drops is the share drawn.
        again = rng.random(originators.size) < DUPLICATE_SHARE
        repeat_ms = ts_ms[again] + rng.integers(
            50, int(DEDUP_SECONDS * 1000) - 5000, size=int(again.sum())
        )
        repeat_ms = np.minimum(repeat_ms, start_ms + width_ms - 1)
        ts_ms = np.concatenate([ts_ms, repeat_ms])
        queriers = np.concatenate([queriers, queriers[again]])
        originators = np.concatenate([originators, originators[again]])
    return ts_ms, queriers, originators


def _encode_rbsc(ts: np.ndarray, qs: np.ndarray, os_: np.ndarray) -> bytes:
    records = np.empty(
        ts.size,
        dtype=[("length", ">u2"), ("timestamp", ">f8"),
               ("querier", ">u4"), ("originator", ">u4")],
    )
    records["length"] = 16
    records["timestamp"] = ts
    records["querier"] = qs
    records["originator"] = os_
    return struct.pack(">4sH", MAGIC, VERSION) + records.tobytes()


def _encode_text(ts_ms: np.ndarray, qs: np.ndarray, os_: np.ndarray) -> bytes:
    seconds, millis = np.divmod(ts_ms, 1000)
    distinct, inverse = np.unique(qs, return_inverse=True)
    names = [ip_to_str(a) for a in distinct.tolist()]
    lines = [
        f"{s}.{m:03d} {names[q]} {o & 255}.{o >> 8 & 255}.{o >> 16 & 255}.{o >> 24}"
        ".in-addr.arpa\n"
        for s, m, q, o in zip(
            seconds.tolist(), millis.tolist(), inverse.tolist(), os_.tolist()
        )
    ]
    return "".join(lines).encode("ascii")


def generate(
    spec: Workload, seed: int, workdir: Path, feed_windows: int
) -> tuple[World, Feed]:
    """Write the world files under *workdir* and build a feed of
    *feed_windows* windows (``spec.feed_windows(seconds)`` in a run)."""
    # Seeded by the seed alone: the three firehoses must carry the same events.
    rng = np.random.default_rng(seed)
    addr_of = _querier_addresses(spec.queriers)
    heavy_addrs = (198 << 24) + np.arange(spec.heavy, dtype=np.int64) * 7 + 1
    heavy_class = np.arange(spec.heavy) % len(APP_CLASSES)
    width_ms = int(spec.window_seconds * 1000)

    # -- world: training log (window 0), directory, labels ---------------
    ts_ms, qs, os_ = _window_events(
        rng, spec, heavy_addrs, heavy_class, T0_MS, spec.train_tail_events,
        duplicates=False,
    )
    order = np.argsort(ts_ms, kind="stable")
    ts_ms, qs, os_ = ts_ms[order], qs[order], os_[order]
    # `repro serve` takes its window origin from the first log entry.
    ts_ms[0] = T0_MS
    log_path = workdir / "train.npz"
    save_block(
        log_path, EntryBlock.from_arrays(ts_ms / 1000.0, addr_of[qs], os_)
    )
    directory_path = workdir / "queriers.jsonl"
    write_directory(directory_path, _directory_rows(spec))
    labels_path = workdir / "labels.json"
    labels_path.write_text(
        json.dumps(
            {
                ip_to_str(int(heavy_addrs[i])): APP_CLASSES[int(heavy_class[i])]
                for i in range(spec.labeled)
            }
        )
    )
    world = World(log_path, directory_path, labels_path, train_events=int(ts_ms.size))

    # -- feed: windows 1..F, then the closing sentinel ----------------------
    parts = [
        _window_events(
            rng, spec, heavy_addrs, heavy_class, T0_MS + k * width_ms,
            spec.tail_events, duplicates=True,
        )
        for k in range(1, feed_windows + 1)
    ]
    end_ms = T0_MS + (feed_windows + 1) * width_ms
    sentinel_ms = end_ms + int(REORDER_SLACK * 1000) + 1000
    parts.append(
        (
            np.full(3, sentinel_ms, dtype=np.int64),
            np.arange(3, dtype=np.int64),
            np.full(3, (203 << 24) + 1, dtype=np.int64),
        )
    )
    ts_ms = np.concatenate([p[0] for p in parts])
    qs = np.concatenate([p[1] for p in parts])
    os_ = np.concatenate([p[2] for p in parts])
    # Arrival order: event time plus, for a few, a delay inside the slack.
    delay_ms = np.where(
        rng.random(ts_ms.size) < REORDER_SHARE,
        rng.integers(100, int(REORDER_SLACK * 1000) - 200, size=ts_ms.size),
        0,
    )
    delay_ms[-3:] = 0
    arrival_ms = ts_ms + delay_ms
    order = np.argsort(arrival_ms, kind="stable")
    ts_ms, qs, os_, arrival_ms = ts_ms[order], qs[order], os_[order], arrival_ms[order]
    ts = ts_ms / 1000.0
    q_addr = addr_of[qs]

    if spec.feed_format == "rbsc":
        payload = _encode_rbsc(ts, q_addr, os_)
        byte_ends = 6 + 18 * np.arange(1, ts.size + 1, dtype=np.int64)
    else:
        payload = _encode_text(ts_ms, q_addr, os_)
        byte_ends = None
    due_s = None
    if spec.pace_seconds is not None:
        if byte_ends is None:
            raise ValueError("paced workloads need the fixed-size rbsc framing")
        # The forwarder flushes every FLUSH_SECONDS: an event is due at
        # the first flush after its arrival time on the wall clock.
        scale = spec.pace_seconds / spec.window_seconds
        raw_s = (arrival_ms - arrival_ms[0]) / 1000.0 * scale
        due_s = np.ceil(raw_s / FLUSH_SECONDS) * FLUSH_SECONDS

    bounds = tuple(
        ((T0_MS + k * width_ms) / 1000.0, (T0_MS + (k + 1) * width_ms) / 1000.0)
        for k in range(feed_windows + 1)
    )
    # A window closes on the first arrival that lifts the watermark
    # (newest timestamp seen minus the slack) to its end.
    high_water = np.maximum.accumulate(ts)
    closing = np.searchsorted(
        high_water, np.array([end for _, end in bounds]) + REORDER_SLACK, side="left"
    )
    first = (ts >= bounds[1][0]) & (ts < bounds[1][1])
    feed = Feed(
        payload=payload,
        sha256=hashlib.sha256(payload).hexdigest(),
        timestamps=ts,
        queriers=q_addr,
        originators=os_,
        due_s=due_s,
        byte_ends=byte_ends if due_s is not None else None,
        window_bounds=bounds,
        closing_event=closing,
        distinct_originators=int(np.unique(os_[first]).size),
    )
    return world, feed
