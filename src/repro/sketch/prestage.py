"""The window-scoped probabilistic pre-select stage.

One :class:`SketchPreStage` summarizes one observation window in
constant memory so the §III-B analyzability gate (≥ ``min_queriers``
unique queriers) can run *before* any exact per-originator state
exists:

* a :class:`~repro.sketch.bloom.BloomFilter` dedups repeated
  ``(originator, querier, qtype, 30 s bucket)`` events — the sensor
  retains only PTR queries, so qtype folds in as a constant;
* an :class:`~repro.sketch.hll.HllBank` estimates unique queriers per
  originator — the quantity the gate thresholds;
* an exact *querier roster* (unique querier addresses, O(queriers) not
  O(originators × queriers)) is kept on the side because downstream
  dynamic features normalize by the window's whole querier universe.

Two operating modes share the class:

* **batch** (two-pass): the engine streams every in-window event
  through :meth:`observe_batch`, reads :meth:`survivors`, then
  materializes exact observations for survivors only.  Because the
  second pass is the unchanged exact collector, survivor observations
  and feature rows are bit-identical to the exact path; the only error
  is one-sided — an analyzable originator is dropped only if its HLL
  estimate lands below ``gate_queriers``, which the margin built into
  the gate (see ``SensorConfig.sketch_gate_queriers``) makes vanishingly
  rare.
* **streaming** (single-pass): the collector passes each window segment
  to :meth:`observe_arrays` and an originator is *promoted* to exact
  state once its estimate reaches ``promote_queriers``; events before
  promotion are summarized but not materialized, so promoted footprints
  can trail exact ones by at most the handful of pre-promotion queriers.
  Per-event :meth:`observe` states the same rule one event at a time; it
  is the oracle the tests hold :meth:`observe_arrays` to, and nothing in
  the sensing path calls it.

Dedup note: the Bloom key uses fixed ``⌊t/30 s⌋`` buckets, not the
exact path's sliding 30 s horizon.  Unique-querier counts (the gate
input) are unaffected — duplicates never add to an HLL — only the
``events_unique`` / ``events_duplicate`` counters see the coarser dedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.sketch.bloom import BloomFilter
from repro.sketch.hashing import MASK64, derive_seed, mix64, mix64_array
from repro.sketch.hll import HllBank

__all__ = [
    "SketchParams",
    "SketchPreStage",
    "KEEP",
    "DEFER",
    "DUPLICATE",
    "KEEP_CODE",
    "DEFER_CODE",
    "DUPLICATE_CODE",
    "VERDICT_NAMES",
]

#: :meth:`SketchPreStage.observe` verdicts.
KEEP = "keep"          #: materialize this event exactly (originator promoted)
DEFER = "defer"        #: summarized only; originator not yet promoted
DUPLICATE = "duplicate"  #: suppressed by the 30 s dedup filter

#: Integer verdicts used by the array-native :meth:`SketchPreStage.observe_arrays`
#: (one ``uint8`` per event); ``VERDICT_NAMES[code]`` maps a code back to
#: the string verdict :meth:`~SketchPreStage.observe` would have returned.
KEEP_CODE = 0
DEFER_CODE = 1
DUPLICATE_CODE = 2
VERDICT_NAMES = (KEEP, DEFER, DUPLICATE)

#: PTR RR type — the only qtype the sensor retains — folded into the
#: dedup key as a constant so the key shape matches the paper's
#: (originator, querier, qtype) triple.
_QTYPE_PTR = 12

#: Events per vectorized chunk in :meth:`observe_batch`; bounds the
#: temporaries (dedup-key sort copies, HLL point arrays, Bloom probe
#: matrices) to well under 1 MiB each so the pre-stage's peak memory
#: stays flat in the log size.
_CHUNK_EVENTS = 32_768


@dataclass(frozen=True, slots=True)
class SketchParams:
    """Geometry and error budget of one pre-stage instance.

    ``gate_queriers`` is the *approximate* analyzability threshold the
    HLL estimate is compared against — the engine derives it from
    ``min_queriers`` scaled down by its one-sided error margin.
    ``promote_queriers`` only matters in streaming mode: the estimate at
    which an originator starts materializing exact state.  It must not
    exceed ``gate_queriers``, otherwise the gate could select
    originators that never materialized.
    """

    hll_precision: int = 6
    fp_rate: float = 0.01
    capacity: int = 1 << 20
    gate_queriers: int = 10
    promote_queriers: int = 4
    dedup_seconds: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 4 <= self.hll_precision <= 16:
            raise ValueError(f"hll_precision must be in [4, 16], got {self.hll_precision}")
        if not 0.0 < self.fp_rate < 1.0:
            raise ValueError(f"fp_rate must be in (0, 1), got {self.fp_rate}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.gate_queriers < 1:
            raise ValueError(f"gate_queriers must be >= 1, got {self.gate_queriers}")
        if self.promote_queriers < 1:
            raise ValueError(f"promote_queriers must be >= 1, got {self.promote_queriers}")
        if self.promote_queriers > self.gate_queriers:
            raise ValueError(
                "inconsistent error budget: promote_queriers "
                f"({self.promote_queriers}) exceeds gate_queriers ({self.gate_queriers}) — "
                "the gate would select originators that never materialized"
            )
        if self.dedup_seconds < 0:
            raise ValueError(f"dedup_seconds must be >= 0, got {self.dedup_seconds}")


class _UniqueInts:
    """Exact set of int64 values kept as merged-unique numpy chunks.

    A plain ``set`` of Python ints costs ~60 bytes/element; this keeps
    8 bytes/element (plus transient buffers) and hands back a sorted
    array, which is what the window context wants anyway.
    """

    __slots__ = ("_chunks", "_buffer", "_merged")
    _BUFFER_LIMIT = 65_536
    _CHUNK_LIMIT = 64

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._buffer: list[int] = []
        self._merged: np.ndarray | None = None

    def add(self, value: int) -> None:
        self._buffer.append(value)
        self._merged = None
        if len(self._buffer) >= self._BUFFER_LIMIT:
            self._flush()

    def add_array(self, values: np.ndarray) -> None:
        if values.size == 0:
            return
        self._chunks.append(np.unique(np.asarray(values, dtype=np.int64)))
        self._merged = None
        if len(self._chunks) >= self._CHUNK_LIMIT:
            self._compact()

    def _flush(self) -> None:
        if self._buffer:
            self._chunks.append(np.unique(np.array(self._buffer, dtype=np.int64)))
            self._buffer.clear()

    def _compact(self) -> None:
        self._flush()
        if self._chunks:
            self._chunks = [np.unique(np.concatenate(self._chunks))]

    def array(self) -> np.ndarray:
        """Sorted unique values (cached until the next add)."""
        if self._merged is None:
            self._compact()
            self._merged = self._chunks[0] if self._chunks else np.zeros(0, dtype=np.int64)
        return self._merged

    @property
    def nbytes(self) -> int:
        return 8 * (sum(chunk.size for chunk in self._chunks) + len(self._buffer))


def _event_key(originator: int, querier: int, bucket: int, seed: int) -> int:
    """64-bit dedup key of one (originator, querier, qtype, bucket) event."""
    k = mix64(originator, seed)
    k = mix64(k ^ (querier & MASK64), seed ^ _QTYPE_PTR)
    return mix64(k ^ (bucket & MASK64), seed)


def _event_key_array(
    originators: np.ndarray, queriers: np.ndarray, buckets: np.ndarray, seed: int
) -> np.ndarray:
    """Vectorized :func:`_event_key`; bit-identical to the scalar path."""
    k = mix64_array(originators, seed)
    k = mix64_array(k ^ queriers.astype(np.uint64), seed ^ _QTYPE_PTR)
    return mix64_array(k ^ buckets.astype(np.uint64), seed)


class SketchPreStage:
    """Constant-memory summary of one window, driving the approximate gate."""

    __slots__ = (
        "params",
        "bloom",
        "uniques",
        "exact_observations",
        "events_unique",
        "events_duplicate",
        "events_deferred",
        "events_gated",
        "resolver_wholesale",
        "resolver_replayed",
        "_key_seed",
        "_promoted",
        "_promoted_arr",
        "_roster",
        "_gate_cache",
    )

    def __init__(self, params: SketchParams) -> None:
        self.params = params
        self.bloom = BloomFilter(
            params.capacity, params.fp_rate, seed=derive_seed(params.seed, 0x707265_01)
        )
        self.uniques = HllBank(
            params.hll_precision, seed=derive_seed(params.seed, 0x707265_03)
        )
        self._key_seed = derive_seed(params.seed, 0x707265_04)
        #: True when every surviving originator has *exact* observations
        #: (batch two-pass mode); False in single-pass streaming mode.
        self.exact_observations = False
        self.events_unique = 0
        self.events_duplicate = 0
        self.events_deferred = 0
        #: Events of the originators the batch gate dropped (set by the
        #: engine's batch sketch pass).
        self.events_gated = 0
        #: Promotion-resolver accounting (:meth:`observe_arrays` only):
        #: per chunk, originators settled wholesale with array math vs
        #: originators replayed event-by-event to find a bar crossing.
        self.resolver_wholesale = 0
        self.resolver_replayed = 0
        self._promoted: set[int] = set()
        #: Sorted-array mirror of ``_promoted`` for vectorized membership
        #: tests in :meth:`observe_arrays`; rebuilt lazily on promotion.
        self._promoted_arr: np.ndarray | None = None
        self._roster = _UniqueInts()
        self._gate_cache: tuple[np.ndarray, np.ndarray] | None = None

    # -- ingest ----------------------------------------------------------

    def _bucket(self, timestamp: float) -> int:
        dedup = self.params.dedup_seconds
        return int(timestamp // dedup) if dedup > 0 else 0

    def observe(self, timestamp: float, querier: int, originator: int) -> str:
        """Summarize one event; returns a verdict (:data:`KEEP`,
        :data:`DEFER`, or :data:`DUPLICATE`) saying what becomes of the
        exact event.  The scalar oracle for :meth:`observe_arrays`."""
        self._roster.add(querier)
        if self.params.dedup_seconds > 0:
            key = _event_key(originator, querier, self._bucket(timestamp), self._key_seed)
            if not self.bloom.add(key):
                # A duplicate touches only the roster and the Bloom
                # filter — the HLL estimates the gate is built from are
                # unchanged, so the cache stays valid.
                self.events_duplicate += 1
                return DUPLICATE
        self._gate_cache = None
        self.events_unique += 1
        changed = self.uniques.add(originator, querier)
        if originator in self._promoted:
            return KEEP
        if changed and self.uniques.estimate(originator) >= self.params.promote_queriers:
            self._promoted.add(originator)
            self._promoted_arr = None
            return KEEP
        self.events_deferred += 1
        return DEFER

    def observe_batch(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
    ) -> None:
        """Vectorized ingest of aligned event arrays (batch mode).

        Processes in chunks: exact within-chunk dedup via ``np.unique``
        on the event key, cross-chunk dedup via the Bloom filter — the
        same final sketch state and counters as the scalar path.
        """
        self._gate_cache = None
        timestamps = np.asarray(timestamps, dtype=np.float64)
        queriers = np.asarray(queriers, dtype=np.int64)
        originators = np.asarray(originators, dtype=np.int64)
        dedup = self.params.dedup_seconds
        for start in range(0, timestamps.size, _CHUNK_EVENTS):
            stop = min(start + _CHUNK_EVENTS, timestamps.size)
            q = queriers[start:stop]
            o = originators[start:stop]
            self._roster.add_array(q)
            if dedup > 0:
                buckets = np.floor_divide(timestamps[start:stop], dedup).astype(np.int64)
                keys = _event_key_array(o, q, buckets, self._key_seed)
                _, first = np.unique(keys, return_index=True)
                # Chronological first occurrences, so bank insertion
                # order (and thus survivor order) matches the scalar path.
                first.sort()
                novel = self.bloom.add_batch(keys[first])
                kept = first[novel]
                self.events_unique += int(kept.size)
                self.events_duplicate += int((stop - start) - kept.size)
            else:
                kept = slice(None)
                self.events_unique += int(stop - start)
            self.uniques.add_batch(o[kept], q[kept])

    def observe_arrays(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ingest of aligned event arrays (streaming mode).

        The array-native twin of per-event :meth:`observe`: returns
        ``(codes, kept)`` where ``codes[i]`` is the uint8 verdict of
        event *i* (:data:`KEEP_CODE` / :data:`DEFER_CODE` /
        :data:`DUPLICATE_CODE` — the exact verdict sequence the scalar
        path would produce, for any chunk split) and ``kept`` holds the
        indices of KEEP events in input order, i.e. the events the
        streaming collector materializes exactly.

        Dedup is vectorized like :meth:`observe_batch` (``np.unique``
        within the chunk, Bloom across chunks).  Promotion uses a
        two-tier resolver per chunk: originators that entered the chunk
        promoted (all KEEP) or whose HLL estimate provably stays below
        ``promote_queriers`` throughout the chunk (all DEFER) are
        settled wholesale with array math; only originators that may
        *cross* the bar inside the chunk are rewound to their pre-chunk
        registers and replayed event-by-event to land on the exact
        crossing event.  See DESIGN.md § 3c for the bound that makes
        the wholesale DEFER tier safe.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        queriers = np.asarray(queriers, dtype=np.int64)
        originators = np.asarray(originators, dtype=np.int64)
        codes = np.empty(timestamps.size, dtype=np.uint8)
        for start in range(0, timestamps.size, _CHUNK_EVENTS):
            stop = min(start + _CHUNK_EVENTS, timestamps.size)
            self._observe_chunk(
                timestamps[start:stop],
                queriers[start:stop],
                originators[start:stop],
                codes[start:stop],
            )
        return codes, np.flatnonzero(codes == KEEP_CODE)

    def _observe_chunk(
        self,
        timestamps: np.ndarray,
        queriers: np.ndarray,
        originators: np.ndarray,
        codes: np.ndarray,
    ) -> None:
        """One bounded chunk of :meth:`observe_arrays`; writes *codes* in place."""
        n = int(timestamps.size)
        codes[:] = DUPLICATE_CODE
        self._roster.add_array(queriers)
        dedup = self.params.dedup_seconds
        if dedup > 0:
            buckets = np.floor_divide(timestamps, dedup).astype(np.int64)
            keys = _event_key_array(originators, queriers, buckets, self._key_seed)
            _, first = np.unique(keys, return_index=True)
            first.sort()
            novel = self.bloom.add_batch(keys[first])
            kept = first[novel]
            self.events_unique += int(kept.size)
            self.events_duplicate += int(n - kept.size)
        else:
            kept = np.arange(n, dtype=np.intp)
            self.events_unique += n
        if kept.size == 0:
            return
        self._gate_cache = None
        o = originators[kept]
        q = queriers[kept]
        uniq, ufirst, inverse = np.unique(o, return_index=True, return_inverse=True)
        # One dict sweep resolves every originator's bank row; missing
        # rows are created in chronological first-occurrence order so the
        # per-group register updates below cannot scramble bank insertion
        # order relative to the scalar path.
        slots = self.uniques.resolve_slots(uniq, create_order=np.argsort(ufirst))
        if self._promoted_arr is None:
            self._promoted_arr = np.fromiter(
                self._promoted, dtype=np.int64, count=len(self._promoted)
            )
            self._promoted_arr.sort()
        promoted = np.isin(uniq, self._promoted_arr, assume_unique=True)
        event_slots = slots[inverse]
        keep_events = promoted[inverse]
        if keep_events.any():
            # Tier 1a: already-promoted originators — every event KEEPs.
            codes[kept[keep_events]] = KEEP_CODE
            self.uniques.add_at_slots(event_slots[keep_events], q[keep_events])
        pending_sel = np.flatnonzero(~promoted)
        if pending_sel.size == 0:
            self.resolver_wholesale += int(uniq.size)
            return
        pending = uniq[pending_sel]
        pending_slots = slots[pending_sel]
        pending_events = ~keep_events
        snapshot = self.uniques.rows_at(pending_slots)
        self.uniques.add_at_slots(event_slots[pending_events], q[pending_events])
        estimates, zeros = self.uniques.estimate_slots(pending_slots, with_zeros=True)
        # Tier 1b: an unpromoted originator enters the chunk with an
        # estimate < promote_queriers (the scalar check re-runs at every
        # register change, which is the only time the estimate moves),
        # and no intermediate estimate inside the chunk can exceed
        # ``max(final estimate, m·ln(m / max(final zeros, 1)))``: the
        # raw harmonic estimate is monotone in the registers, the
        # linear-counting branch is monotone in the zero count, and when
        # the final estimate takes the linear branch every prefix does
        # too.  Originators whose bound stays below the bar never
        # promote inside the chunk — settled wholesale as DEFER.
        m = float(1 << self.params.hll_precision)
        bound = np.maximum(
            estimates, m * np.log(m / np.maximum(zeros, 1).astype(np.float64))
        )
        below = bound < float(self.params.promote_queriers)
        crossers = pending[~below]
        self.resolver_wholesale += int(uniq.size - crossers.size)
        if crossers.size == 0:
            codes[kept[pending_events]] = DEFER_CODE
            self.events_deferred += int(np.count_nonzero(pending_events))
            return
        # Tier 2: rewind the (few) possible crossers to their pre-chunk
        # registers and re-run their events through the scalar promote
        # check to land on the exact crossing event.
        self.resolver_replayed += int(crossers.size)
        self.uniques.write_rows_at(pending_slots[~below], snapshot[~below])
        crosser_flag = np.zeros(uniq.size, dtype=bool)
        crosser_flag[pending_sel[~below]] = True
        replay_events = crosser_flag[inverse]
        settled = pending_events & ~replay_events
        codes[kept[settled]] = DEFER_CODE
        self.events_deferred += int(np.count_nonzero(settled))
        bar = self.params.promote_queriers
        bank = self.uniques
        for i in np.flatnonzero(replay_events).tolist():
            origin = int(o[i])
            changed = bank.add(origin, int(q[i]))
            if origin in self._promoted:
                codes[kept[i]] = KEEP_CODE
                continue
            if changed and bank.estimate(origin) >= bar:
                self._promoted.add(origin)
                self._promoted_arr = None
                codes[kept[i]] = KEEP_CODE
                continue
            codes[kept[i]] = DEFER_CODE
            self.events_deferred += 1

    # -- the gate --------------------------------------------------------

    def _gate(self) -> tuple[np.ndarray, np.ndarray]:
        if self._gate_cache is None:
            self._gate_cache = self.uniques.estimate_all()
        return self._gate_cache

    def survivors(self) -> np.ndarray:
        """Originators whose estimated unique queriers pass the gate.

        One HLL sweep over every originator summarized (cached until the
        next unique event).  Only batch mode selects with it; a streaming
        window selects on its promoted exact observations, so the engine
        never reads the gate there.
        """
        keys, estimates = self._gate()
        return keys[estimates >= self.params.gate_queriers]

    @property
    def originators_seen(self) -> int:
        """Distinct originators summarized (exact — one bank slot each)."""
        return len(self.uniques)

    @property
    def gate_kept(self) -> int:
        return int(self.survivors().size)

    @property
    def gate_dropped(self) -> int:
        return self.originators_seen - self.gate_kept

    def is_promoted(self, originator: int) -> bool:
        return originator in self._promoted

    def roster_array(self) -> np.ndarray:
        """Sorted exact array of every querier address in the window."""
        return self._roster.array()

    # -- accounting ------------------------------------------------------

    def memory_bytes(self) -> dict[str, int]:
        """Bytes held per structure (``bloom``, ``hll``, ``roster``) — the
        telemetry gauge payload."""
        return {
            "bloom": self.bloom.memory_bytes,
            "hll": self.uniques.memory_bytes,
            "roster": self._roster.nbytes,
        }

    def counters(self) -> dict[str, int]:
        """This window's telemetry counters, by name (small enough to ship
        from a shard process).

        The ``gate_*`` and ``events_gated`` counts are present only with
        exact observations (batch): there the gate drops events, while a
        streaming window selects on its promoted exact observations and
        reading the gate would cost an HLL sweep over every originator for
        telemetry alone.
        """
        counters = {
            "events_unique": self.events_unique,
            "events_duplicate": self.events_duplicate,
            "events_deferred": self.events_deferred,
            "resolver_wholesale": self.resolver_wholesale,
            "resolver_replayed": self.resolver_replayed,
        }
        for structure, nbytes in self.memory_bytes().items():
            counters[f"memory_{structure}"] = nbytes
        if self.exact_observations:
            counters["gate_kept"] = self.gate_kept
            counters["gate_dropped"] = self.gate_dropped
            counters["events_gated"] = self.events_gated
        return counters

    def false_drops(self, exact_footprints: Mapping[int, int], min_queriers: int) -> int:
        """How many truly-analyzable originators the gate dropped.

        Needs ground truth (*exact_footprints* over **all** originators),
        so only verification harnesses and the benchmark can call it —
        in sketch mode proper the dropped tail's exact footprints are
        never known.
        """
        kept = set(int(origin) for origin in self.survivors())
        return sum(
            1
            for originator, footprint in exact_footprints.items()
            if footprint >= min_queriers and originator not in kept
        )

    def __repr__(self) -> str:
        return (
            f"SketchPreStage(originators={self.originators_seen}, "
            f"unique={self.events_unique}, duplicate={self.events_duplicate}, "
            f"deferred={self.events_deferred})"
        )
