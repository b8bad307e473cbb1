"""The always-on detection service: live feed in, verdicts + alerts out.

:class:`BackscatterService` is the operational deployment of the
paper's sensor (§ I frames it as an early-warning system): a
long-running asyncio process that

* accepts a live query-log feed — a line/``.rbsc`` socket listener, a
  tailed file, or the in-process :meth:`~BackscatterService.submit_block`
  API — decoded incrementally by :class:`~repro.service.FeedReader`;
* drives one :class:`~repro.sensor.engine.SensorEngine` — whichever
  :func:`repro.federation.sensor_for` builds for the configured shard
  count — streaming ingest behind the global watermark, one block at a
  time, on a single pump task;
* at each window close emits verdicts, updates
  :class:`~repro.analysis.alerts.SurgeDetector` baselines, and feeds
  the :class:`~repro.service.ModelManager` retraining loop;
* serves ``GET /verdicts`` / ``/alerts`` / ``/healthz`` / ``/metrics``
  (the existing Prometheus text export) over a dependency-free
  HTTP layer.

The hot-swap guarantee: models are fitted off the pump task (thread
executor) and installed by :meth:`ModelManager.apply_pending` only
*between* steps; since a window is classified exactly once, at close,
inside ``poll()``, every window's verdicts come from one complete model
and no event is dropped while models change.  The initial model's vote
is fitted in a worker process forked by :meth:`~BackscatterService.fit_from`
(while the process is still single-threaded) and collected by the first
window that needs it, so the pump never trains and a feed's decode never
competes with that fit; a worker that fails leaves the engine's own
in-process fit.

A step that raises (a bad ``engine.on_window`` hook, say) is logged and
counted, ``/healthz`` turns ``"degraded"``, and the pump carries on with
the next step: one failure must not wedge ``drain()``/``stop()``.
``/healthz`` reads the engine's stage ledger and the ``repro_service_*``
instruments, so it cannot disagree with ``/metrics``.
"""

from __future__ import annotations

import asyncio
import logging
import math
import threading
import time
from collections import Counter as TallyCounter
from collections import deque
from typing import TYPE_CHECKING

from repro.analysis.alerts import SurgeDetector
from repro.federation import sensor_for
from repro.federation.shard import ShardPool
from repro.logstore.block import DEFAULT_CHUNK_EVENTS, concat_blocks
from repro.ml.validation import MajorityVoter, fit_majority_vote
from repro.netmodel.addressing import ip_to_str
from repro.sensor.engine import SECONDS_PER_DAY, SensedWindow, SensorEngine
from repro.sensor.training import Strategy
from repro.service.config import ServiceConfig
from repro.service.feed import FEED_ERROR_REASONS, FeedError, FeedReader
from repro.service.http import HttpServer, json_response
from repro.service.manager import SWAP_OUTCOMES, ModelManager
from repro.telemetry import MetricsRegistry

if TYPE_CHECKING:
    from repro.logstore import EntryBlock
    from repro.sensor.curation import LabeledSet
    from repro.sensor.directory import QuerierDirectory
    from repro.sensor.features import FeatureSet

__all__ = ["BackscatterService"]

_LOG = logging.getLogger(__name__)

#: What became of the initial vote's worker fit, counted when a window
#: first needs the vote: ``failed`` (it raised or died) leaves the fit to
#: the engine, in process.
INITIAL_FIT_OUTCOMES = ("worker", "failed")


class _InitialFit:
    """The initial vote's worker process, behind ``shard.py``'s pipe.

    Forked at construction, inheriting this object, whose :meth:`fit` it
    runs once :meth:`start` sends the request; :meth:`result` receives
    the fitted models, then reaps the worker.
    """

    def __init__(self, vote_args: tuple) -> None:
        self.vote_args = vote_args
        self._sent = False
        self._lock = threading.Lock()  # start() runs on the loop, result() on the pump
        self._pool: ShardPool | None = ShardPool([self], name="repro-fit")

    def fit(self) -> tuple[list, float]:
        """In the worker: one § III-D vote's fitted models, and its seconds."""
        started = time.perf_counter()
        models = fit_majority_vote(*self.vote_args).models
        return models, time.perf_counter() - started

    def start(self) -> None:
        """Send the fit request, unless it is sent or the worker is gone."""
        with self._lock:
            if self._pool is not None and not self._sent:
                self._pool.send([(0, "fit", ())])
                self._sent = True

    def result(self) -> tuple[list, float]:
        """The worker's fitted models and fit seconds; raises if it failed."""
        self.start()
        try:
            [reply] = self._pool.receive([0])
            return reply
        finally:
            self.close()

    def close(self) -> None:
        """Reap the worker now (idempotent): it has nothing left to send."""
        with self._lock:
            if self._pool is not None:
                self._pool.close(timeout=0.0)
                self._pool = None


class BackscatterService:
    """One running sensor deployment; see the module docstring.

    Lifecycle: construct → :meth:`fit` / :meth:`fit_from` (optional but
    required for verdicts; before any thread starts) → ``await start()``
    → optionally :meth:`start_fit` → feed it (socket, tail, or
    :meth:`submit_block`) → ``await stop()``.  All feed ingestion
    funnels through one internal queue consumed by a single pump task,
    so engine state never sees concurrent mutation.  Unless noted,
    methods must be called on the service's event loop.
    """

    def __init__(
        self,
        directory: "QuerierDirectory | None",
        config: ServiceConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.engine = sensor_for(
            directory,
            self.config.sensor,
            shards=self.config.shards,
            registry=self.registry,
        )
        self.manager: ModelManager | None = None
        self.engine.on_window(self._handle_window)
        self._detectors = {
            app_class: SurgeDetector(
                app_class,
                window=self.config.alert_window,
                threshold=self.config.alert_threshold,
                min_relative=self.config.alert_min_relative,
            )
            for app_class in self.config.alert_classes
        }
        # The pump runs engine steps on an executor thread while HTTP
        # handlers read on the loop; this lock covers the shared records.
        self._state_lock = threading.Lock()
        self._windows: deque[dict] = deque(maxlen=self.config.verdict_history)
        self._alerts: deque[dict] = deque(maxlen=self.config.verdict_history)
        # (the newest window record it encodes, the /verdicts response)
        self._verdicts_cache: tuple[dict | None, tuple[int, str, bytes]] | None = None
        self.queued_events = 0
        self.last_step_error: str | None = None
        counter, gauge = self.registry.counter, self.registry.gauge
        self._pump_steps = counter("repro_service_pump_steps_total",
                                   "Engine steps taken by the pump.")
        self._pump_blocks = counter("repro_service_pump_blocks_total",
                                    "Feed blocks taken by the pump (÷ steps = batching).")
        self._step_errors = counter("repro_service_step_errors_total",
                                    "Engine steps that raised.")
        self._swaps = counter("repro_service_swap_total",
                              "Model hot-swap attempts by outcome.", labels=("outcome",))
        self._alert_count = counter("repro_service_alerts_total",
                                    "Surge alerts raised.", labels=("app_class",))
        self._feed_connections = counter("repro_service_feed_connections_total",
                                         "Feed socket connections accepted.")
        self._feed_bad_lines = counter("repro_service_feed_bad_lines_total",
                                       "Feed text lines skipped because they did not parse.")
        self._feed_errors = counter("repro_service_feed_errors_total",
                                    "Feeds ended because their framing was lost.",
                                    labels=("reason",))
        self._http_requests = counter("repro_service_http_requests_total",
                                      "HTTP requests served.", labels=("endpoint", "status"))
        self._queue_gauge = gauge("repro_service_queue_events",
                                  "Events still queued when the last step began.")
        self._lag_gauge = gauge("repro_service_feed_lag_seconds",
                                "Newest feed timestamp minus last closed window end.")
        self._initial_fit_seconds = gauge(
            "repro_service_initial_fit_seconds",
            "Seconds the worker process took to fit the initial model's vote.")
        self._initial_vote_wait = gauge(
            "repro_service_initial_vote_wait_seconds",
            "Seconds the first window that needed the initial vote waited for it.")
        self._initial_fit_outcomes = counter(
            "repro_service_initial_fit_total",
            "Initial vote fits collected from the worker, by outcome.", labels=("outcome",))
        # Each labelled series a fact can land in exports 0 from the start.
        for outcome in SWAP_OUTCOMES:
            self._swaps.inc(0, outcome=outcome)
        for app_class in self._detectors:
            self._alert_count.inc(0, app_class=app_class)
        for reason in FEED_ERROR_REASONS:
            self._feed_errors.inc(0, reason=reason)
        for outcome in INITIAL_FIT_OUTCOMES:
            self._initial_fit_outcomes.inc(0, outcome=outcome)
        self._initial_fit: _InitialFit | None = None
        self._newest_ts: float | None = None
        self._last_window_end: float | None = None
        self._queue: asyncio.Queue["EntryBlock"] | None = None
        self._pump_task: asyncio.Task | None = None
        self._tail_task: asyncio.Task | None = None
        self._http = HttpServer(
            {
                "/healthz": lambda: json_response(self.health()),
                "/verdicts": self._verdicts_response,
                "/alerts": lambda: json_response({"alerts": self.alerts()}),
                "/metrics": lambda: (
                    200,
                    "text/plain; version=0.0.4",
                    self.registry.to_prometheus().encode(),
                ),
            },
            observe=self._observe_http,
        )
        self._feed_server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()
        self._started = False

    # -- training -------------------------------------------------------

    def fit(
        self, features: "FeatureSet", labeled: "LabeledSet"
    ) -> "BackscatterService":
        """Train the initial model and arm the retraining loop (see
        :meth:`fit_from`)."""
        self.engine.fit(features, labeled)
        self._arm_retraining(labeled)
        self._fork_initial_fit()
        return self

    def fit_from(
        self, trainer: SensorEngine, labeled: "LabeledSet | None" = None
    ) -> "BackscatterService":
        """Adopt a model trained elsewhere (the CLI's batch trainer).

        *labeled* is required when the configured strategy retrains —
        retrain-daily refits from the curated set on fresh features, and
        auto-grow seeds from it.  The initial vote is fitted in a worker
        process forked here, if the process has no other thread yet (a
        fork must not copy a lock another thread holds); it starts at
        :meth:`start_fit` or when a window first needs it, whichever is
        first.
        """
        self.engine.fit_from(trainer)
        self._arm_retraining(labeled)
        self._fork_initial_fit()
        return self

    def _fork_initial_fit(self) -> None:
        self._close_initial_fit()
        if threading.active_count() == 1:
            self._initial_fit = _InitialFit(self.engine.vote_args)
            self.engine.adopt_voter(self._collect_initial_vote)

    def start_fit(self) -> None:
        """Start fitting the initial vote in its worker now.

        ``repro serve`` calls it once its replay is done, so the fit
        runs beside the live feed on an otherwise idle core.  A no-op
        when the fit is already out, collected, or was never forked.
        """
        if self._initial_fit is not None:
            self._initial_fit.start()

    def _collect_initial_vote(self) -> MajorityVoter | None:
        """The engine's hand-over callable: the worker's vote, rebuilt
        around this engine's own ``X``/``y``; None leaves the fit to the
        engine, in process."""
        fit, self._initial_fit = self._initial_fit, None
        if fit is None:  # closed before any window needed it
            return None
        waited = time.perf_counter()
        try:
            models, fit_seconds = fit.result()
        except Exception as exc:  # it raised or died in the worker
            _LOG.warning("initial vote fit failed in its worker, fitting in process: %r", exc)
            self._initial_fit_outcomes.inc(outcome="failed")
            return None
        finally:
            self._initial_vote_wait.set(time.perf_counter() - waited)
        self._initial_fit_seconds.set(fit_seconds)
        self._initial_fit_outcomes.inc(outcome="worker")
        return MajorityVoter(models, fit.vote_args)

    def _close_initial_fit(self) -> None:
        fit, self._initial_fit = self._initial_fit, None
        if fit is not None:
            fit.close()

    def _arm_retraining(self, labeled: "LabeledSet | None") -> None:
        strategy = self.config.retrain
        if strategy not in (Strategy.TRAIN_DAILY, Strategy.AUTO_GROW):
            return
        if labeled is None:
            raise ValueError(
                f"retrain strategy {strategy.value!r} needs the labeled set"
            )
        self.manager = ModelManager(
            labeled,
            strategy,
            factory=self.config.sensor.classifier_factory,
            min_per_class=self.config.retrain_min_per_class,
            min_total=self.config.retrain_min_total,
            seed=self.config.sensor.seed,
            majority_runs=self.config.sensor.majority_runs,
        )

    @property
    def model_version(self) -> int:
        """0 = the initially-fitted model; bumped per hot-swap."""
        return self.manager.version if self.manager is not None else 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "BackscatterService":
        """Bind HTTP (and the optional feed listener/tail), start the pump.

        Listeners bind first: a bind failure (``OSError``, e.g. a busy
        port) closes whichever listener did bind and re-raises before the
        pump exists, so the service can be started again once the
        address is free.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        try:
            await self._http.start(self.config.host, self.config.port)
            if self.config.feed_port is not None:
                self._feed_server = await asyncio.start_server(
                    self._handle_feed, self.config.host, self.config.feed_port
                )
        except BaseException:
            await self._http.stop()
            self._started = False
            raise
        self._queue = asyncio.Queue()
        self._pump_task = asyncio.create_task(self._pump(), name="service-pump")
        if self.config.feed_path is not None:
            self._tail_task = asyncio.create_task(
                self._tail(), name="service-tail"
            )
        return self

    @property
    def http_address(self) -> tuple[str, int] | None:
        """Actual (host, port) of the HTTP listener once started."""
        return self._http.address

    @property
    def feed_address(self) -> tuple[str, int] | None:
        """Actual (host, port) of the feed listener, if configured."""
        if self._feed_server is None or not self._feed_server.sockets:
            return None
        bound = self._feed_server.sockets[0].getsockname()
        return bound[0], bound[1]

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger; ``wait_shutdown`` wakes up."""
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        """Park until :meth:`request_shutdown` (SIGTERM handler) fires."""
        await self._shutdown.wait()

    async def drain(self) -> None:
        """Wait until every submitted block has been pumped through."""
        if self._queue is not None:
            await self._queue.join()

    async def stop(self) -> "BackscatterService":
        """Graceful shutdown: drain, final swap, flush windows, unbind."""
        if not self._started:
            return self
        if self._feed_server is not None:
            self._feed_server.close()
            await self._feed_server.wait_closed()
            self._feed_server = None
        if self._tail_task is not None:
            self._tail_task.cancel()
            try:
                await self._tail_task
            except asyncio.CancelledError:
                pass
            except Exception:
                # A tail that died (say, the file vanished) must not
                # skip the drain, the final flush and the unbinding.
                _LOG.exception("feed tail failed")
            self._tail_task = None
        await self.drain()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        if self.manager is not None:
            self.manager.wait_pending()
            self._record_swap(self.manager.apply_pending(self.engine))
        await self._run_step(self.engine.finish)
        self._update_lag()
        await self._http.stop()
        self.close()
        self._started = False
        return self

    def close(self) -> None:
        """Reap every worker the service holds (idempotent): the retrain
        thread, an initial-fit worker no window collected, and shards.
        :meth:`stop` ends with it; call it alone on a service that never
        started."""
        if self.manager is not None:
            self.manager.close()
        self._close_initial_fit()
        self.engine.close()

    # -- feed ingestion -------------------------------------------------

    def submit_block(self, block: "EntryBlock") -> None:
        """Queue one decoded block for the pump (in-process feed API)."""
        if self._queue is None:
            raise RuntimeError("service not started")
        self.queued_events += len(block)
        self._queue.put_nowait(block)

    async def _pump(self) -> None:
        queue = self._queue
        assert queue is not None
        while True:
            # One step takes everything already queued (the collector is
            # chunk-invariant), so per-step cost is paid per backlog, not
            # per block the transport happened to deliver.
            blocks = [await queue.get()]
            held = len(blocks[0])
            while held < DEFAULT_CHUNK_EVENTS and not queue.empty():
                blocks.append(queue.get_nowait())
                held += len(blocks[-1])
            self.queued_events -= held
            self._pump_steps.inc()
            self._pump_blocks.inc(len(blocks))
            self._queue_gauge.set(self.queued_events)
            try:
                await self._run_step(self._step, concat_blocks(blocks))
            finally:
                for _ in blocks:
                    queue.task_done()

    async def _run_step(self, step, *args) -> None:
        """Run one engine step off the loop; a raising step is counted, not fatal."""
        try:
            # Engine work is CPU-bound numpy; run it off the loop so
            # HTTP stays responsive under large blocks.
            await asyncio.get_running_loop().run_in_executor(None, step, *args)
        except Exception as exc:
            _LOG.exception("engine step failed; the pump continues")
            self._step_errors.inc()
            self.last_step_error = repr(exc)

    def _step(self, block: "EntryBlock") -> None:
        if self.manager is not None:
            self._record_swap(self.manager.apply_pending(self.engine))
        if len(block):
            self.engine.ingest_block(block)
            newest = float(block.timestamps.max())
            # The engine drops a non-finite timestamp as late; it must
            # not become the feed clock either (an ``inf`` lag is not
            # JSON, so ``/healthz`` would break for good).
            if math.isfinite(newest) and (
                self._newest_ts is None or newest > self._newest_ts
            ):
                self._newest_ts = newest
        self.engine.poll()
        self._update_lag()

    def _record_swap(self, outcome: str) -> None:
        if outcome in SWAP_OUTCOMES:  # not "none" or "scheduled"
            self._swaps.inc(outcome=outcome)

    def _update_lag(self) -> None:
        """Refresh the feed-lag gauge (``/healthz`` reads it too)."""
        if self._newest_ts is None:
            return
        closed = self._last_window_end
        origin = self.config.sensor.origin
        lag = self._newest_ts - (closed if closed is not None else origin or 0.0)
        self._lag_gauge.set(max(0.0, lag))

    # -- window close ---------------------------------------------------

    def _handle_window(self, sensed: SensedWindow) -> None:
        start, end = float(sensed.window.start), float(sensed.window.end)
        verdicts = sensed.verdicts
        self._last_window_end = end
        record = {
            "start": start,
            "end": end,
            "model_version": self.model_version,
            "verdicts": [
                {
                    "originator": ip_to_str(int(v.originator)),
                    "app_class": v.app_class,
                    "footprint": int(v.footprint),
                }
                for v in verdicts
            ],
        }
        with self._state_lock:
            self._windows.append(record)
        if verdicts:
            # Untrained/empty windows carry no class signal; feeding
            # zeros would poison the surge baselines (same rule as
            # analysis.alerts.detect_surges).
            mid_day = (start + end) / 2.0 / SECONDS_PER_DAY
            tallies = TallyCounter(v.app_class for v in verdicts)
            for app_class, detector in self._detectors.items():
                alert = detector.update(mid_day, tallies.get(app_class, 0))
                if alert is not None:
                    with self._state_lock:
                        self._alerts.append(
                            {
                                "day": alert.day,
                                "app_class": alert.app_class,
                                "observed": alert.observed,
                                "baseline": alert.baseline,
                                "score": alert.score,
                            }
                        )
                    self._alert_count.inc(app_class=app_class)
        if self.manager is not None:
            self._record_swap(self.manager.observe_window(sensed))

    # -- feed transports ------------------------------------------------

    async def _handle_feed(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._feed_connections.inc()
        decoder = FeedReader(self.config.feed_format)
        source = f"feed connection {writer.get_extra_info('peername')}"
        try:
            while data := await reader.read(self.config.feed_chunk):
                if not self._accept(decoder, data, source):
                    break
            else:  # end of stream: flush the decoder's tail
                self._accept(decoder, None, source)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _tail(self) -> None:
        decoder = FeedReader(self.config.feed_format)
        source = f"feed file {self.config.feed_path}"
        with open(self.config.feed_path, "rb") as handle:
            while True:
                data = handle.read(self.config.feed_chunk)
                if not data:
                    await asyncio.sleep(self.config.feed_poll_seconds)
                elif not self._accept(decoder, data, source):
                    return

    def _accept(self, decoder: FeedReader, data: bytes | None, source: str) -> bool:
        """Decode one read (``None`` = end of stream), queue it, count skips.

        Returns False once the feed's framing is lost: what decoded before
        the bad frame is still queued, and the caller ends that feed.
        """
        bad_before = decoder.bad_lines
        try:
            block = decoder.close() if data is None else decoder.feed(data)
            lost = None
        except FeedError as error:
            block, lost = error.block, error
        skipped = decoder.bad_lines - bad_before
        if skipped:
            self._feed_bad_lines.inc(skipped)
        if len(block):
            self.submit_block(block)
        if lost is not None:
            self._feed_errors.inc(reason=lost.reason)
            _LOG.warning("%s ended: %s", source, lost)
        return lost is None

    # -- observability --------------------------------------------------

    def windows(self) -> list[dict]:
        """Retained window records, oldest first (the ``/verdicts`` body)."""
        with self._state_lock:
            return list(self._windows)

    def _verdicts_response(self) -> tuple[int, str, bytes]:
        """The ``/verdicts`` response, encoded once per closed window."""
        with self._state_lock:
            newest = self._windows[-1] if self._windows else None
            cached = self._verdicts_cache
            if cached is not None and cached[0] is newest:
                return cached[1]
            records = list(self._windows)
        self._verdicts_cache = (newest, json_response({"windows": records}))
        return self._verdicts_cache[1]

    def alerts(self) -> list[dict]:
        """The newest ``verdict_history`` surge alerts (the ``/alerts`` body)."""
        with self._state_lock:
            return list(self._alerts)

    def health(self) -> dict:
        """The ``/healthz`` document.

        A window counts (window stage out) when the collector closes it,
        just before its record reaches ``/verdicts``.
        """
        stats = self.engine.stats
        step_errors = int(self._step_errors.value())
        return {
            "status": "degraded" if step_errors else "ok",
            "step_errors": step_errors,
            "last_step_error": self.last_step_error,
            "queued_events": self.queued_events,
            "windows": stats["window"].items_out,
            "events": stats["ingest"].items_in,
            "verdicts": stats["classify"].items_out,
            "alerts": int(self._alert_count.total()),
            "model_version": self.model_version,
            "retrain": self.config.retrain.value if self.config.retrain else None,
            "swaps": {o: int(n) for o in SWAP_OUTCOMES if (n := self._swaps.value(outcome=o))},
            "feed_lag_seconds": self._lag_gauge.value(),
            "feed_bad_lines": int(self._feed_bad_lines.value()),
            "feed_errors": int(self._feed_errors.total()),
            "shards": self.config.shards,
        }

    def _observe_http(self, path: str, status: int) -> None:
        self._http_requests.inc(endpoint=path, status=status)

