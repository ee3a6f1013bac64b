"""The asyncio experiment job server (``python -m repro serve``).

One process, one shared artifact store, a JSON-lines protocol over a
localhost TCP socket.  Robustness is the architecture, not a wrapper:

* **bounded admission** — the queue never grows past ``queue_depth``;
  an overflowing submission is *shed* with the typed
  :class:`ServiceOverloadedError` and a Retry-After hint instead of
  growing memory without bound;
* **per-tenant quotas** — token-bucket submission rate plus a
  concurrent-job cap (:mod:`repro.service.quota`);
* **single-flight dedup** — submissions coalesce on the CAS request
  digest (:mod:`repro.service.singleflight`): N identical submissions
  cost one execution, every observer reads the same bytes;
* **circuit breaker** — crash-evidence storms from the worker pool
  trip the breaker and jobs degrade to serial in-process execution
  (:mod:`repro.service.breaker`) rather than the server dying;
* **graceful drain** — SIGTERM stops admission, finishes what it can
  inside ``drain_grace`` seconds and leaves everything else journaled
  and persisted, so a restarted server re-admits and *resumes* it with
  zero recompute.

Protocol (one JSON object per line; every response carries ``ok``)::

    {"op": "submit", "tenant": "t", "spec": {...}}
    {"op": "status", "job_id": "J..."}
    {"op": "watch",  "job_id": "J...", "from_index": 0}  # streams events
    {"op": "stats"} | {"op": "ping"} | {"op": "drain"}

Campaign workers (``repro worker --endpoint``) speak four more ops —
``register``, ``claim``, ``heartbeat``, ``complete`` (plus ``release``
for typed shard failures) — thin wrappers over
:class:`repro.service.cluster.ClusterOps`: the authoritative lease
state lives on the shared store, so a worker talking through the
socket and a worker mutating the store directly are interchangeable.

Errors come back typed: ``{"ok": false, "error": "<taxonomy class>",
"message": ..., "exit_code": N, "retry_after": seconds}``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.engine.metrics import PipelineMetrics
from repro.engine.recovery.journal import journal_path, tail_records
from repro.experiments.runner import PROGRESS_PREFIXES
from repro.robustness.errors import (ReproError, ServiceOverloadedError,
                                     classify_exception)
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.cluster import ClusterOps, live_worker_ids
from repro.service.executor import ExecutionOutcome, execute_job
from repro.service.quota import QuotaConfig, QuotaManager
from repro.service.singleflight import (DONE, FAILED, QUEUED, RUNNING,
                                        JobRecord, SingleFlight,
                                        job_id_for, load_records,
                                        run_id_for, save_record)
from repro.service.spec import ServiceJobSpec

logger = logging.getLogger("repro.service.server")

#: journal record types forwarded to watch streams
_WATCH_TYPES = ("run-start", "run-resume", "task-start", "task-finish",
                "task-fail", "run-finish")


def _is_progress(task: str) -> bool:
    """Tasks that advance the watch progress counter: one per
    simulated triple (bench/figures) or per sweep point."""
    return task.startswith(PROGRESS_PREFIXES)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` configures."""

    cache_dir: str
    host: str = "127.0.0.1"
    port: int = 0
    #: process-pool width per job execution (breaker-closed mode)
    jobs: int = 1
    #: concurrent job executions (server-side worker coroutines)
    workers: int = 2
    #: admission queue bound; submissions beyond it are shed
    queue_depth: int = 16
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: seconds a drain waits for in-flight jobs before giving up
    drain_grace: float = 30.0
    #: completed-job records kept for dedup/status lookups
    done_limit: int = 256
    #: merge + write pipeline metrics here on drain
    bench_json: str | None = None


def endpoint_path(cache_dir: str | os.PathLike) -> Path:
    return Path(cache_dir) / "service" / "service.json"


def read_endpoint(cache_dir: str | os.PathLike) -> tuple[str, int]:
    """Resolve the served host/port from the cache dir's state file."""
    path = endpoint_path(cache_dir)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return str(data["host"]), int(data["port"])
    except (OSError, ValueError, KeyError):
        raise ReproError(
            f"no experiment service endpoint at {path} — is "
            f"`repro serve --cache-dir {cache_dir}` running?") from None


class ExperimentService:
    """The server: admission, quotas, dedup, breaker, drain."""

    def __init__(self, config: ServiceConfig,
                 executor: Callable[..., ExecutionOutcome] = execute_job,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self.metrics = PipelineMetrics()
        self.registry = SingleFlight(done_limit=config.done_limit)
        self.quotas = QuotaManager(config=config.quota, clock=clock)
        self.breaker = CircuitBreaker(config=config.breaker, clock=clock)
        self.cluster = ClusterOps(config.cache_dir)
        self._executor = executor
        self._queue: asyncio.Queue[JobRecord | None] = asyncio.Queue()
        self._inflight: set[str] = set()
        self._draining = False
        self._drain_event = asyncio.Event()
        self._workers: list[asyncio.Task] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    # ----- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Recover persisted jobs, start workers and the listener."""
        self._recover()
        for _ in range(max(1, self.config.workers)):
            self._workers.append(asyncio.create_task(self._worker()))
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        path = endpoint_path(self.config.cache_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"host": self.config.host, "port": self.port,
             "pid": os.getpid()}, sort_keys=True) + "\n",
            encoding="utf-8")
        logger.info("experiment service listening on %s:%d",
                    self.config.host, self.port)

    def _recover(self) -> None:
        """Re-admit jobs a previous server left queued or running.

        Their run journals (keyed by request digest) already hold every
        completed task, so re-execution resumes instead of restarting.
        """
        recovered = 0
        for record in load_records(self.config.cache_dir):
            if record.terminal:
                record.done_event.set()
                self.registry.finish(record)
                continue
            record.state = QUEUED
            self.registry.admit(record)
            self.quotas.restore(record.tenant)
            self.metrics.add("jobs_admitted")
            self._queue.put_nowait(record)
            recovered += 1
        if recovered:
            logger.warning("re-admitted %d interrupted job(s) for "
                           "journal resume", recovered)

    def begin_drain(self) -> None:
        """Stop admitting; wake the drain loop.  Signal-handler safe."""
        if not self._draining:
            logger.warning("drain requested: admission closed")
        self._draining = True
        self._drain_event.set()

    async def run_until_drained(self) -> bool:
        """Serve until drain is requested, then wind down.

        Returns True when every admitted job reached a terminal state
        inside the grace period; False when jobs were left behind —
        journaled and persisted, ready for the next server to resume.
        """
        await self._drain_event.wait()
        deadline = time.monotonic() + self.config.drain_grace
        while (self._queue.qsize() or self._inflight) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        clean = not self._queue.qsize() and not self._inflight
        if not clean:
            logger.warning(
                "drain grace expired with %d queued and %d running "
                "job(s); they are journaled and will resume on the "
                "next start", self._queue.qsize(), len(self._inflight))
        for task in self._workers:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge lingering connections to EOF so their handlers exit
        # cleanly instead of being cancelled at loop teardown.
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=2.0)
        if self.config.bench_json:
            self.metrics.accumulate_json(self.config.bench_json)
        try:
            endpoint_path(self.config.cache_dir).unlink()
        except OSError:
            pass
        return clean

    # ----- admission ----------------------------------------------------

    def _retry_after_hint(self) -> float:
        """Rough time for one queue slot to free up."""
        done = self.metrics.counts["service_jobs_done"]
        avg = self.metrics.counts["service_seconds"] / done if done else 2.0
        return max(0.5, round(
            avg * (self._queue.qsize() + 1)
            / max(1, self.config.workers), 2))

    def submit(self, tenant: str, spec_data: object
               ) -> tuple[JobRecord, bool]:
        """Admit (or coalesce) one submission; raises typed on reject.

        Runs synchronously on the event loop — admission is pure
        bookkeeping, the heavy work happens in the worker coroutines.
        """
        if self._draining:
            raise ServiceOverloadedError(
                "service is draining and admits no new jobs — retry "
                "against the restarted instance",
                retry_after=self.config.drain_grace,
                queue_depth=self.config.queue_depth)
        spec = spec_data if isinstance(spec_data, ServiceJobSpec) \
            else ServiceJobSpec.from_dict(spec_data)
        digest = spec.request_digest()
        existing = self.registry.coalesce(digest)
        if existing is not None:
            existing.observers += 1
            self.metrics.add("jobs_deduped")
            return existing, True
        # A genuinely new execution: quota first (so a rate-limited
        # tenant cannot consume queue slots), then the bounded queue.
        self.quotas.admit(tenant)
        if self._queue.qsize() >= self.config.queue_depth:
            self.quotas.release(tenant)
            self.metrics.add("jobs_shed")
            raise ServiceOverloadedError(
                f"admission queue is full ({self.config.queue_depth} "
                f"jobs) — load shed",
                retry_after=self._retry_after_hint(),
                queue_depth=self.config.queue_depth)
        record = JobRecord(job_id=job_id_for(digest), digest=digest,
                           tenant=tenant, spec=spec,
                           run_id=run_id_for(digest),
                           submitted_at=time.time())
        save_record(self.config.cache_dir, record)
        self.registry.admit(record)
        self.metrics.add("jobs_admitted")
        self._queue.put_nowait(record)
        return record, False

    # ----- execution ----------------------------------------------------

    async def _worker(self) -> None:
        while True:
            record = await self._queue.get()
            if record is None:
                return
            self._inflight.add(record.job_id)
            try:
                await self._run_record(record)
            finally:
                self._inflight.discard(record.job_id)
                self._queue.task_done()

    async def _run_record(self, record: JobRecord) -> None:
        remaining = record.remaining_deadline()
        mode = self.breaker.acquire_mode()
        jobs = self.config.jobs if mode == "pool" else 1
        record.state = RUNNING
        record.started_at = time.time()
        record.mode = mode
        save_record(self.config.cache_dir, record)
        start = time.monotonic()
        crash_evidence = False
        try:
            outcome: ExecutionOutcome = await asyncio.to_thread(
                self._executor, record.spec, self.config.cache_dir,
                record.run_id, jobs, remaining)
        except Exception as raw:
            exc = classify_exception(raw)
            crash_evidence = "BrokenProcessPool" in type(raw).__name__
            record.state = FAILED
            record.error = {
                "type": type(exc).__name__, "message": str(exc)[:500],
                "exit_code": getattr(exc, "exit_code",
                                     ReproError.exit_code)}
            logger.warning("job %s failed: %s: %s", record.job_id,
                           type(exc).__name__, exc)
        else:
            record.state = DONE
            record.result_json = outcome.result_json
            self.metrics.merge_dict(outcome.counters)
            crash_evidence = outcome.crash_evidence
        finally:
            self.breaker.record(mode, crash_evidence)
            self.metrics.counts["breaker_trips"] = self.breaker.trips
            record.finished_at = time.time()
            self.metrics.add("service_jobs_done")
            self.metrics.add("service_seconds", time.monotonic() - start)
            save_record(self.config.cache_dir, record)
            self.registry.finish(record)
            self.quotas.release(record.tenant)
            record.done_event.set()

    # ----- protocol -----------------------------------------------------

    @staticmethod
    def _error_payload(exc: BaseException) -> dict:
        exc = classify_exception(exc)
        payload = {"ok": False, "error": type(exc).__name__,
                   "message": str(exc),
                   "exit_code": getattr(exc, "exit_code",
                                        ReproError.exit_code)}
        for attr in ("retry_after", "kind", "tenant"):
            value = getattr(exc, attr, None)
            if value is not None:
                payload[attr] = value
        return payload

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        async def send(payload: dict) -> None:
            writer.write(json.dumps(payload, sort_keys=True).encode()
                         + b"\n")
            await writer.drain()

        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be an object")
                except ValueError as exc:
                    await send(self._error_payload(
                        ReproError(f"malformed request: {exc}")))
                    continue
                try:
                    await self._dispatch(request, send)
                except Exception as exc:  # noqa: BLE001 — classified
                    await send(self._error_payload(exc))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: dict, send) -> None:
        op = request.get("op")
        if op == "ping":
            await send({"ok": True, "draining": self._draining,
                        "pid": os.getpid()})
        elif op == "submit":
            tenant = str(request.get("tenant") or "default")
            record, deduped = self.submit(tenant, request.get("spec"))
            await send({"ok": True, "deduped": deduped,
                        "job": record.to_dict()})
        elif op == "status":
            record = self._record_for(request)
            await send({"ok": True, "job": record.to_dict()})
        elif op == "watch":
            try:
                from_index = max(0, int(request.get("from_index") or 0))
            except (TypeError, ValueError):
                from_index = 0
            await self._watch(self._record_for(request), send,
                              from_index)
        elif op == "stats":
            await send({"ok": True, "metrics": self.metrics.to_dict(),
                        "service": {
                            "queued": self._queue.qsize(),
                            "queue_depth": self.config.queue_depth,
                            "running": len(self._inflight),
                            "active": self.registry.active_count,
                            "draining": self._draining,
                            "breaker": self.breaker.state,
                            "breaker_trips": self.breaker.trips,
                            "cluster_workers": await asyncio.to_thread(
                                live_worker_ids,
                                self.config.cache_dir)}})
        elif op == "drain":
            self.begin_drain()
            await send({"ok": True, "draining": True})
        elif op == "register":
            worker_id = await asyncio.to_thread(
                self.cluster.register, request.get("worker_id"),
                request.get("pid"))
            await send({"ok": True, "worker_id": worker_id})
        elif op == "claim":
            worker_id = str(request.get("worker_id") or "")
            work = await asyncio.to_thread(self.cluster.claim, worker_id)
            await send({"ok": True, "work": work})
        elif op == "heartbeat":
            if request.get("worker_id"):
                await asyncio.to_thread(self.cluster.beat_worker,
                                        str(request["worker_id"]))
            lease = request.get("lease")
            if lease is not None:
                lease = await asyncio.to_thread(
                    self.cluster.heartbeat,
                    str(request.get("campaign") or ""), lease)
            await send({"ok": True, "lease": lease})
        elif op == "complete":
            won = await asyncio.to_thread(
                self.cluster.complete,
                str(request.get("campaign") or ""),
                request.get("lease") or {}, request.get("payload") or {})
            await send({"ok": True, "won": won})
        elif op == "release":
            if request.get("unregister"):
                await asyncio.to_thread(
                    self.cluster.unregister,
                    str(request.get("worker_id") or ""))
            elif request.get("lease") is not None:
                await asyncio.to_thread(
                    self.cluster.fail,
                    str(request.get("campaign") or ""),
                    request.get("lease"),
                    str(request.get("error") or "ReproError"),
                    str(request.get("message") or ""),
                    bool(request.get("transient", True)))
            await send({"ok": True})
        else:
            await send(self._error_payload(
                ReproError(f"unknown op {op!r}")))

    def _record_for(self, request: dict) -> JobRecord:
        job_id = str(request.get("job_id") or "")
        record = self.registry.by_job_id(job_id)
        if record is None:
            raise ReproError(f"unknown job id {job_id!r}")
        return record

    async def _watch(self, record: JobRecord, send,
                     from_index: int = 0) -> None:
        """Stream a job's progress by tailing its run journal.

        Beyond the raw journal records, the stream carries progress
        events at *task granularity*: the run-start meta declares
        ``tasks_total`` (sweep points, simulate tasks) and every
        progress-bearing task-finish bumps ``tasks_done``.  The tail
        starts at offset 0, so a resumed job's earlier completions
        replay through the same counter and the bar never restarts
        from zero.

        Every journal event carries a 1-based stream ``index``; a
        reconnecting watcher passes the last index it saw as
        ``from_index`` and the replay is suppressed up to there (the
        progress counters still advance silently, so the first visible
        progress event is numerically correct).
        """
        jpath = journal_path(
            Path(self.config.cache_dir) / "runs", record.run_id)
        offset = 0
        sent = 0
        tasks_done = 0
        tasks_total: int | None = None
        await send({"ok": True, "event": "job", "job": record.to_dict(),
                    "from_index": from_index})
        while True:
            records, offset = tail_records(jpath, offset)
            for entry in records:
                if entry.get("type") not in _WATCH_TYPES:
                    continue
                sent += 1
                visible = sent > from_index
                if visible:
                    await send({"ok": True, "event": "journal",
                                "record": entry, "index": sent})
                if entry["type"] == "run-start":
                    total = entry.get("meta", {}).get("tasks_total")
                    if isinstance(total, int) and total > 0:
                        tasks_total = total
                elif entry["type"] == "task-finish" and _is_progress(
                        entry.get("task", "")):
                    tasks_done += 1
                    if visible:
                        await send({"ok": True, "event": "progress",
                                    "tasks_done": tasks_done,
                                    "tasks_total": tasks_total,
                                    "task": entry.get("task", "")})
            if record.terminal:
                await send({"ok": True, "event": "end",
                            "job": record.to_dict()})
                return
            try:
                await asyncio.wait_for(record.done_event.wait(),
                                       timeout=0.1)
            except asyncio.TimeoutError:
                pass


# ----- entry points ---------------------------------------------------------

def serve_forever(config: ServiceConfig) -> int:
    """Blocking server entry for the CLI: run until SIGTERM/SIGINT."""
    service = ExperimentService(config)

    async def _main() -> bool:
        await service.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, service.begin_drain)
            except (NotImplementedError, RuntimeError):
                pass
        print(f"experiment service on {service.config.host}:"
              f"{service.port} (cache {config.cache_dir}) — "
              f"SIGTERM drains gracefully", file=sys.stderr, flush=True)
        return await service.run_until_drained()

    clean = asyncio.run(_main())
    if not clean:
        # Interrupted jobs are journaled + persisted; the executor
        # threads cannot be cancelled, so leave hard rather than hang
        # on a stuck non-daemon thread.  The next `repro serve`
        # re-admits and resumes them.
        sys.stderr.flush()
        os._exit(0)
    return 0


class ServiceRunner:
    """Run an :class:`ExperimentService` on a background thread.

    The harness tests and the chaos campaign drive a real server
    (listener, workers, drain) without owning the main thread.
    """

    def __init__(self, config: ServiceConfig,
                 executor: Callable[..., ExecutionOutcome] = execute_job,
                 clock: Callable[[], float] = time.monotonic):
        self.service = ExperimentService(config, executor=executor,
                                         clock=clock)
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.service.start()
        self._started.set()
        await self.service.run_until_drained()

    def start(self, timeout: float = 10.0) -> "ServiceRunner":
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service failed to start in time")
        return self

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.begin_drain)
        self._thread.join(timeout)

    def __enter__(self) -> "ServiceRunner":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
