"""The verification daemon: an asyncio front over supervised workers.

Architecture
------------

::

    TCP clients ──> asyncio loop (one thread) ──> ThreadPoolExecutor
       │              │  parse / admit / coalesce     │  one supervised engine
       │              │  (Coalescer, AdmissionControl │  run per request, on
       │              │   — loop-confined, lock-free) │  a borrowed worker
       │              │                               │  slot's process
       └── responses <─┘ ── futures resolve ──────────┘
                              │
                       shared Session / PrecisionStore
                       (warm-start seeds out, precisions banked back)

The front accepts newline-delimited JSON (see :mod:`repro.serve.protocol`);
each request line becomes its own asyncio task, so slow verifies never block
``stats``/``health`` probes — not even on the same connection.

Every verify runs through a **single-task**
:class:`~repro.core.supervision.Supervisor` inside a worker thread: the
supervision machinery (per-task timeout, retry with backoff, structured
failure docs) applies per request, and the ``task`` fault site fires inside
the request — an injected worker crash mid-request becomes a retry or a
structured ``failure`` doc, never a dropped connection.

No engine ever runs in the daemon's own process.  There is one **worker
slot** (:class:`~repro.core.supervision.WorkerSlot`) per executor thread: a
long-lived worker process on a ``forkserver``/``spawn`` context — never
``fork``: this parent is multi-threaded — that the executor thread feeds
over a pipe itself.  A request borrows an idle slot for its supervisor; the
slot's worker starts on its first request, serves request after request,
and is rebuilt only after a timeout kill or a crash (or when found dead
between requests).  A hard worker death — ``kill -9``, OOM, a segfault —
takes only that worker and is charged to that request alone; the
supervisor retries on a fresh worker or settles a structured ``failure``
doc, never falls back to running the engine in the daemon, and the daemon
keeps serving every other connection.

Each slot worker keeps one bounded :class:`~repro.core.engine.WarmChecker`
across the requests it serves, so obligations that recur across requests
served by the same worker (a resubmitted program, programs sharing edges
and predicates) are answered from its memo tables instead of re-proved.
Worker state stays under a fixed cap (``WarmChecker.CAP`` memo entries;
past it the worker starts over with a fresh checker that keeps only the
verdicts its latest requests asked for, so recurring obligations stay
warm), and the daemon side keeps no per-request state.  Each run's
``solver`` block counts from the run's own start, and its solver budget
charges what a fresh checker would: a memo hit on an entry an earlier
request left counts like the check it saves (``carried_hits``).  So a warm
checker changes how fast a verdict comes, not which one (barring a
request's own ``max_cache_entries`` LRU cap, which can evict differently on
a warm checker).

Between the transport and the workers sit three loop-confined robustness
layers: the **durable request journal** (:mod:`repro.serve.journal` — an
admitted request is WAL-logged *before* execution and marked answered
after its response reaches the transport, so a daemon crash cannot
silently forget accepted work; ``--recover`` re-executes the backlog on
restart), **per-client token-bucket quotas** and the **``(fingerprint,
options)`` circuit breaker** (:mod:`repro.serve.quota` — repeated worker
crashes on one submission short-circuit to a structured 503 instead of
burning a worker rebuild per retry).

What every worker shares — and what makes the daemon more than a loop
around the CLI — is the session's :class:`~repro.core.api.PrecisionStore`:
decided precisions are banked under the program fingerprint and seed later
requests, so a repeat fingerprint does strictly fewer abstract posts
(cross-request warm-starting, across workers).  Dict/set merges under the
GIL plus one banking lock keep the store coherent across executor threads.

Budget isolation: every request gets its own
:class:`~repro.core.engine.Budget` from its own options; the service-level
``request_timeout`` clamps each request's ``max_seconds``, which the engine
enforces in every layer, and arms the supervisor's ``task_timeout`` at the
clamp plus :data:`REQUEST_TIMEOUT_GRACE_S`, so one pathological program
burns only its own budget while concurrent small requests proceed on the
other workers.
"""

from __future__ import annotations

import asyncio
import os
import queue
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..core import faults
from ..core.api import Session, VerifierOptions
from ..core.engine import (
    _run_batch_task,
    error_doc,
    install_warm_checker,
    task_payload,
)
from ..core.supervision import RetryPolicy, Supervisor, WorkerSlot
from . import protocol
from .coalesce import AdmissionControl, Coalescer, options_key
from .journal import RequestJournal
from .quota import CircuitBreaker, ClientQuota

__all__ = ["ServiceConfig", "VerificationService"]

#: Seconds past ``request_timeout`` before a request's worker is killed.  A
#: request's engine stops at its clamped ``max_seconds``, but the kill's
#: clock starts first: the grace must cover the engine's overshoot plus the
#: worker's parse and the round trip through the pipe, or it kills
#: requests that are merely using their budget.  Only a wedged worker
#: should ever reach it.
REQUEST_TIMEOUT_GRACE_S = 2.0

#: Live services in this process; the last one to stop also stops the
#: shared forkserver (see ``_main``).
_forkserver_users = 0
_forkserver_lock = threading.Lock()


def _stop_forkserver() -> None:
    """Stop multiprocessing's shared fork server, if it is running.

    ``ForkServer._stop`` is private but stable since 3.8; a later service
    simply starts a new fork server.
    """
    from multiprocessing import forkserver

    stop = getattr(forkserver._forkserver, "_stop", None)
    if stop is not None:
        stop()


@dataclass
class ServiceConfig:
    """Daemon configuration.

    ``options`` are the server-side defaults; a request's ``options`` dict
    (full :meth:`VerifierOptions.to_dict` form or any subset of its keys)
    replaces them wholesale for that request.  ``request_timeout`` is the
    per-request isolation wall: it clamps the request's ``max_seconds``
    budget, so the engine ends the request with an UNKNOWN verdict and a
    wall-clock reason, and it arms the supervisor's ``task_timeout`` at the
    clamp plus :data:`REQUEST_TIMEOUT_GRACE_S`, which kills only a worker
    that stopped answering.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; read it from service.port
    workers: int = 2
    max_queue: int = 16
    request_timeout: Optional[float] = None
    store_path: Optional[Union[str, Path]] = None
    options: VerifierOptions = field(default_factory=VerifierOptions)
    #: Durable request journal (WAL) path; ``None`` disables journaling.
    journal_path: Optional[Union[str, Path]] = None
    #: Re-execute journal-recovered unanswered requests on startup.
    recover: bool = False
    #: Per-client token-bucket rate (tokens/second); ``None`` disables quotas.
    quota_rate: Optional[float] = None
    #: Per-client bucket capacity (only meaningful with ``quota_rate``).
    quota_burst: int = 20
    #: Consecutive crashes on one (fingerprint, options) key before the
    #: circuit trips; ``0`` disables the breaker.
    breaker_threshold: int = 3
    #: Seconds an open circuit rejects before allowing a half-open probe.
    breaker_cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be > 0 or None, got {self.request_timeout}"
            )
        if self.quota_rate is not None and self.quota_rate <= 0:
            raise ValueError(
                f"quota_rate must be > 0 or None, got {self.quota_rate}"
            )
        if self.quota_burst < 1:
            raise ValueError(f"quota_burst must be >= 1, got {self.quota_burst}")
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}"
            )
        if self.recover and self.journal_path is None:
            raise ValueError("recover=True needs a journal_path")


class VerificationService:
    """A long-lived verification service (see module docstring).

    Two ways to run it:

    * :meth:`serve_forever` — the CLI path: owns the calling thread, installs
      SIGTERM/SIGINT handlers that trigger a graceful drain, returns once
      drained.
    * :meth:`start` / :meth:`stop` — the embedded path (tests, the fuzz
      oracle, benchmarks): the loop runs on a daemon thread; ``stop()``
      drains and joins.

    Graceful drain: stop accepting connections, reject new verifies with a
    503-style ``shutting-down`` error, finish every in-flight engine run and
    write its response, flush the precision store to disk, then exit.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.session = Session(
            self.config.options, store_path=self.config.store_path
        )
        self.coalescer = Coalescer()
        self.admission = AdmissionControl(self.config.workers, self.config.max_queue)
        #: The durable request WAL (opening it replays + compacts the file).
        self.journal: Optional[RequestJournal] = (
            RequestJournal(self.config.journal_path)
            if self.config.journal_path is not None
            else None
        )
        self.quota: Optional[ClientQuota] = (
            ClientQuota(self.config.quota_rate, self.config.quota_burst)
            if self.config.quota_rate is not None
            else None
        )
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(
                self.config.breaker_threshold, self.config.breaker_cooldown
            )
            if self.config.breaker_threshold > 0
            else None
        )
        #: One worker slot per executor thread, borrowed by each request's
        #: supervisor (LIFO, so a lone client keeps hitting the warmest
        #: worker).  Workers start on first use.
        context = self._pick_mp_context()
        self._slots = [
            WorkerSlot(context, initializer=install_warm_checker)
            for _ in range(self.config.workers)
        ]
        self._idle_slots: "queue.LifoQueue[WorkerSlot]" = queue.LifoQueue()
        for slot in self._slots:
            self._idle_slots.put(slot)
        self._bank_lock = threading.Lock()
        # Counters (loop thread or under _bank_lock; reads are GIL-atomic).
        self.requests_total = 0
        self.verify_requests = 0
        self.engine_runs = 0
        self.warm_hits = 0
        self.posts_executed = 0
        self.connections_total = 0
        self.connections_dropped = 0
        self.recovery_runs = 0
        self.supervision_totals = {
            "retries": 0,
            "crashes": 0,
            "timeouts": 0,
            "worker_errors": 0,
            "tasks_failed": 0,
            "tasks_recovered": 0,
            "pool_rebuilds": 0,
        }
        # Runtime state.
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._thread: Optional[threading.Thread] = None
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        self._jobs: set = set()  # in-flight engine futures
        self._request_tasks: set = set()  # in-flight request-handler tasks
        self._connections: set = set()  # open StreamWriters
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._started_at: Optional[float] = None

    @staticmethod
    def _pick_mp_context() -> Any:
        """The start method for the worker slots.

        The daemon is multi-threaded (loop + executor threads), so ``fork``
        is off the table — a child forked while another thread holds an
        intern-table or banking lock inherits the lock in a locked state
        with nobody to release it.  ``forkserver`` gives clean single-thread
        forks with module preloading; ``spawn`` is the portable fallback.
        """
        import multiprocessing

        try:
            context = multiprocessing.get_context("forkserver")
            # Pay the `import repro` cost once in the fork server, not once
            # per worker (workers are long-lived, but each slot restarts its
            # worker after a timeout kill or a crash).
            context.set_forkserver_preload(["repro.core.engine"])
            return context
        except ValueError:  # pragma: no cover - platform without forkserver
            return multiprocessing.get_context("spawn")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _main(
        self, on_ready: Optional[Callable[["VerificationService"], None]] = None
    ) -> None:
        global _forkserver_users
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if threading.current_thread() is threading.main_thread():
            # CLI path: SIGTERM/SIGINT begin a graceful drain.  Signal
            # handlers only attach from the main thread; the embedded path
            # drains through stop() instead.
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self._begin_drain)
                except (NotImplementedError, ValueError, RuntimeError):
                    break
        if on_ready is not None:
            on_ready(self)
        self._started.set()
        if (
            self.config.recover
            and self.journal is not None
            and self.journal.recovered
        ):
            task = asyncio.ensure_future(self._recover_outstanding())
            self._request_tasks.add(task)
            task.add_done_callback(self._request_tasks.discard)
        with _forkserver_lock:
            _forkserver_users += 1
        try:
            await self._drained.wait()
        finally:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
            for slot in self._slots:
                slot.discard()
            with _forkserver_lock:
                _forkserver_users -= 1
                if _forkserver_users == 0:
                    _stop_forkserver()

    def _begin_drain(self) -> None:
        """Schedule the drain coroutine (idempotent; loop thread only)."""
        if not self._draining:
            asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        """Stop accepting, finish in-flight work, flush the store, exit."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Finish in-flight engine runs *and* the request tasks writing their
        # responses (a job finishing is not enough — its waiters still have
        # to put the result docs on the wire).
        while self._jobs or self._request_tasks:
            pending = list(self._jobs) + list(self._request_tasks)
            await asyncio.wait(pending)
        if self.session.store.path is not None:
            await self._loop.run_in_executor(None, self.session.store.save)
        if self.journal is not None:
            self.journal.close()
        for writer in list(self._connections):
            writer.close()
        self._drained.set()

    def serve_forever(
        self, on_ready: Optional[Callable[["VerificationService"], None]] = None
    ) -> None:
        """Run the daemon on the calling thread until drained (CLI path)."""
        try:
            asyncio.run(self._main(on_ready=on_ready))
        finally:
            self._stopped.set()

    def start(self, timeout: float = 15.0) -> "VerificationService":
        """Run the daemon on a background thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("service already started")

        def _runner() -> None:
            try:
                asyncio.run(self._main())
            except BaseException as error:  # pragma: no cover - startup bugs
                self._startup_error = error
            finally:
                self._started.set()
                self._stopped.set()

        self._thread = threading.Thread(
            target=_runner, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError(f"service did not start within {timeout}s")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def stop(self, timeout: float = 120.0) -> None:
        """Drain gracefully and wait for the loop thread to exit."""
        loop = self._loop
        if loop is not None and not loop.is_closed() and not self._stopped.is_set():
            try:
                loop.call_soon_threadsafe(self._begin_drain)
            except RuntimeError:
                pass  # loop already closed between the checks
        self._stopped.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        self.connections_total += 1
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit: answer and hang up —
                    # the stream cannot be re-synchronised mid-line.
                    await self._send(
                        writer,
                        write_lock,
                        protocol.error_response(
                            None,
                            "bad-request",
                            f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                        ),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break  # client EOF
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                pending.add(task)
                self._request_tasks.add(task)
                task.add_done_callback(pending.discard)
                task.add_done_callback(self._request_tasks.discard)
        finally:
            if pending:
                # The client stopped sending but responses may still be in
                # flight; finish them before closing (harmless if the peer
                # is already gone — the writes just fail quietly).
                await asyncio.wait(pending)
            self._connections.discard(writer)
            writer.close()

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        doc: dict[str, Any],
    ) -> None:
        data = protocol.encode(doc)
        async with write_lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                # The client went away; server-side effects (banked
                # precision, counters) already happened and stand.
                pass

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self.requests_total += 1
        try:
            request = protocol.parse_request(line)
        except protocol.ProtocolError as error:
            await self._send(
                writer,
                write_lock,
                protocol.error_response(error.request_id, error.code, str(error)),
            )
            return
        request_id = request.get("id")
        op = request["op"]
        try:
            if op == "verify":
                await self._handle_verify(request, writer, write_lock)
            elif op == "stats":
                await self._send(
                    writer,
                    write_lock,
                    protocol.ok_response(request_id, "stats", stats=self.statistics()),
                )
            elif op == "cache":
                await self._send(
                    writer,
                    write_lock,
                    protocol.ok_response(request_id, "cache", cache=self._cache_doc()),
                )
            elif op == "health":
                await self._send(
                    writer,
                    write_lock,
                    protocol.ok_response(request_id, "health", health=self._health_doc()),
                )
            elif op == "shutdown":
                await self._send(
                    writer,
                    write_lock,
                    protocol.ok_response(request_id, "shutdown", draining=True),
                )
                self._begin_drain()
        except Exception as error:  # pragma: no cover - bug backstop
            await self._send(
                writer,
                write_lock,
                protocol.error_response(request_id, "internal", repr(error)),
            )

    # ------------------------------------------------------------------
    # Verify
    # ------------------------------------------------------------------
    async def _handle_verify(
        self,
        request: dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self.verify_requests += 1
        request_id = request.get("id")
        if self._draining:
            await self._send(
                writer,
                write_lock,
                protocol.error_response(
                    request_id, "shutting-down", "daemon is draining; resubmit elsewhere"
                ),
            )
            return
        client_id = request.get("client_id")
        if self.quota is not None:
            retry_after = self.quota.try_admit(client_id)
            if retry_after is not None:
                await self._send(
                    writer,
                    write_lock,
                    protocol.error_response(
                        request_id,
                        "quota-exceeded",
                        f"client {client_id or 'anonymous'!s} is over its "
                        f"{self.quota.rate}/s rate; retry after "
                        f"{retry_after:.3f}s",
                        retry_after=retry_after,
                    ),
                )
                return
        try:
            opts = (
                VerifierOptions.from_dict(request["options"])
                if request.get("options")
                else self.config.options
            )
        except (ValueError, TypeError, KeyError) as error:
            await self._send(
                writer,
                write_lock,
                protocol.error_response(request_id, "bad-request", f"options: {error}"),
            )
            return
        name = request.get("name")
        try:
            task = self.session.task(request["source"], name=name, options=opts)
            program = task.resolved()
            fingerprint = task.fingerprint
            name = task.name or program.name
        except Exception as error:
            # A source that does not parse is an engine-level failure, not a
            # protocol error: same isolation the batch path gives it.
            await self._send_result(
                writer, write_lock, request_id, error_doc(name or "request", error),
                coalesced=False, name=name,
            )
            return
        key = (fingerprint, options_key(opts))
        if self.breaker is not None:
            retry_after = self.breaker.check(key)
            if retry_after is not None:
                await self._send(
                    writer,
                    write_lock,
                    protocol.error_response(
                        request_id,
                        "circuit-open",
                        f"submissions for fingerprint {fingerprint[:12]}… keep "
                        f"crashing workers; circuit open for another "
                        f"{retry_after:.3f}s",
                        retry_after=retry_after,
                    ),
                )
                return
        job, created = self.coalescer.attach(key)
        if created:
            if not self.admission.try_admit():
                self.coalescer.abandon(key)
                await self._send(
                    writer,
                    write_lock,
                    protocol.error_response(
                        request_id,
                        "overloaded",
                        f"{self.admission.pending} jobs pending "
                        f"(capacity {self.admission.capacity}); retry later",
                    ),
                )
                return
            # Accepted: journal it *before* execution starts (WAL), so a
            # daemon crash from here on cannot silently forget the request.
            seq = self._journal_accept(
                name, task.source, request.get("options"), fingerprint, client_id
            )
            # No await between attach() and setting job.future: attachers on
            # this single-threaded loop always observe a populated future.
            future = self._loop.run_in_executor(
                self._executor, self._execute, task.source, name, fingerprint, opts
            )
            job.future = future
            self._jobs.add(future)
            future.add_done_callback(
                lambda fut, key=key, seq=seq: self._job_done(fut, key, seq)
            )
        try:
            doc, rendered_precision = await job.future
        except Exception as error:  # pragma: no cover - bug backstop
            await self._send(
                writer,
                write_lock,
                protocol.error_response(request_id, "internal", repr(error)),
            )
            return
        doc = dict(doc)
        if request.get("include_precision"):
            doc["precision"] = rendered_precision
        await self._send_result(
            writer, write_lock, request_id, doc, coalesced=not created, name=name
        )

    def _journal_accept(
        self,
        name: str,
        source: str,
        options: Optional[dict[str, Any]],
        fingerprint: str,
        client_id: Optional[str],
    ) -> Optional[int]:
        """WAL-log one admitted request (loop thread; fsync is microseconds).

        Journal trouble (disk full, torn write) must never take down
        serving: the request still runs, it just loses durability.
        """
        if self.journal is None:
            return None
        try:
            return self.journal.accept(
                name, source, options, fingerprint, client_id=client_id
            )
        except Exception:  # pragma: no cover - disk-level defensive
            return None

    def _job_done(
        self, future: Any, key: tuple[str, str], seq: Optional[int] = None
    ) -> None:
        """Loop-thread callback when an engine run resolves.

        Beyond releasing coalescing/admission state, this is where the
        run's outcome feeds the circuit breaker (a *crash-kind* failure —
        hard death, timeout — is a strike; an engine-level ``error``
        verdict is a perfectly good answer and closes the circuit) and where
        the journal marks the request answered.
        """
        self._jobs.discard(future)
        self.coalescer.finish(key)
        self.admission.release()
        verdict: Optional[str] = None
        crashed = False
        try:
            doc, _ = future.result()
            verdict = doc.get("verdict")
            failure = doc.get("failure") or {}
            crashed = verdict == "unknown" and failure.get("kind") in (
                "crash", "timeout", "pool-lost"
            )
        except Exception:  # pragma: no cover - bug backstop
            crashed = True
        if self.breaker is not None:
            if crashed:
                self.breaker.record_failure(key)
            else:
                self.breaker.record_success(key)
        if self.journal is not None and seq is not None:
            try:
                self.journal.answer(seq, verdict)
            except Exception:  # pragma: no cover - disk-level defensive
                pass

    async def _recover_outstanding(self) -> None:
        """Re-execute journal-recovered accepted-but-unanswered requests.

        Runs on the loop after startup (``--recover``).  Each recovered
        record goes through the normal coalesce/admit path, so a client
        resubmitting the same work coalesces onto the recovery run instead
        of doubling it; when admission is saturated the backlog politely
        waits for a slot rather than stampeding the fresh daemon.
        """
        for record in list(self.journal.recovered):
            if self._draining:
                return
            seq = record.get("seq")
            try:
                raw_options = record.get("options")
                opts = (
                    VerifierOptions.from_dict(raw_options)
                    if raw_options
                    else self.config.options
                )
                task = self.session.task(
                    record["source"], name=record.get("name"), options=opts
                )
                fingerprint = task.fingerprint
                name = task.name or task.resolved().name
            except Exception:
                # Unparseable record (or source): answer it 'error' so the
                # journal does not carry it forever.
                if seq is not None:
                    self.journal.answer(seq, "error")
                continue
            key = (fingerprint, options_key(opts))
            while True:
                job, created = self.coalescer.attach(key)
                if not created:
                    # An identical run is already in flight (e.g. the client
                    # already resubmitted): ride it, just mark this record.
                    job.future.add_done_callback(
                        lambda fut, seq=seq: self._recovery_done(fut, seq)
                    )
                    break
                if self.admission.try_admit():
                    self.recovery_runs += 1
                    future = self._loop.run_in_executor(
                        self._executor,
                        self._execute,
                        task.source,
                        name,
                        fingerprint,
                        opts,
                    )
                    job.future = future
                    self._jobs.add(future)
                    future.add_done_callback(
                        lambda fut, key=key, seq=seq: self._job_done(fut, key, seq)
                    )
                    break
                self.coalescer.abandon(key)
                await asyncio.sleep(0.05)
                if self._draining:
                    return

    def _recovery_done(self, future: Any, seq: Optional[int]) -> None:
        """Mark a recovered record answered off someone else's run."""
        if self.journal is None or seq is None:
            return
        try:
            doc, _ = future.result()
            verdict = doc.get("verdict")
        except Exception:  # pragma: no cover - bug backstop
            verdict = None
        try:
            self.journal.answer(seq, verdict)
        except Exception:  # pragma: no cover - disk-level defensive
            pass

    async def _send_result(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        request_id: Any,
        doc: dict[str, Any],
        coalesced: bool,
        name: Optional[str],
    ) -> None:
        spec = faults.fire("serve-response", (name or "*", str(request_id)))
        if spec is not None and spec.kind == "drop-connection":
            # Injected network drop mid-response: the bytes never go out.
            # Server-side state (banked precision, counters) stands; the
            # client library turns the EOF into a structured failure doc.
            self.connections_dropped += 1
            self._connections.discard(writer)
            writer.close()
            return
        await self._send(
            writer,
            write_lock,
            protocol.result_response(request_id, doc, coalesced=coalesced),
        )

    # ------------------------------------------------------------------
    # The engine run (worker thread)
    # ------------------------------------------------------------------
    def _execute(
        self,
        source: str,
        name: str,
        fingerprint: str,
        opts: VerifierOptions,
    ) -> tuple[dict[str, Any], dict[str, list[str]]]:
        """One supervised engine run; returns (result doc, rendered bank).

        Runs on an executor thread.  Must never raise: every failure mode is
        the supervisor's to structure, and anything past it is a bug caught
        by the outer ``except`` below.
        """
        try:
            timeout = self.config.request_timeout
            if timeout is not None and (
                opts.max_seconds is None or opts.max_seconds > timeout
            ):
                opts = opts.replace(max_seconds=timeout)
            seed = (
                self.session.store.payload(fingerprint) if opts.warm_start else None
            )
            payload = task_payload(name, source, opts, seed)
            # The request borrows an idle slot's worker *process* — a hard
            # death takes only that worker (the slot rebuilds it), never the
            # daemon.  There are as many slots as executor threads, so one
            # is always idle here.
            slot = self._idle_slots.get()
            try:
                supervisor = Supervisor(
                    worker=_run_batch_task,
                    task_timeout=(
                        None if timeout is None else timeout + REQUEST_TIMEOUT_GRACE_S
                    ),
                    retry=RetryPolicy(
                        max_retries=opts.task_retries, degrade=opts.degrade_on_retry
                    ),
                    slot=slot,
                )
                doc = supervisor.run_batch([payload], keys=[(fingerprint, name)])[0]
            finally:
                self._idle_slots.put(slot)
            precision_payload = doc.pop("_precision", None)
            rendered = {
                location: sorted(str(predicate) for predicate in predicates)
                for location, predicates in sorted((precision_payload or {}).items())
            }
            failed = doc.get("verdict") == "error" or doc.get("failure")
            with self._bank_lock:
                self.engine_runs += 1
                self.session.tasks_run += 1
                self.posts_executed += doc.get("post_decisions") or 0
                stats = supervisor.statistics()
                for counter in self.supervision_totals:
                    self.supervision_totals[counter] += stats.get(counter, 0)
                if not failed:
                    if seed:
                        self.warm_hits += 1
                        self.session.warm_starts += 1
                    self.session._bank_decided(
                        fingerprint, doc.get("verdict"), precision_payload
                    )
            if not failed:
                doc.setdefault("engine", {})
                if isinstance(doc["engine"], dict):
                    doc["engine"]["session"] = Session._provenance(
                        fingerprint,
                        bool(seed),
                        sum(len(preds) for preds in (seed or {}).values()),
                    )
            return doc, rendered
        except Exception as error:  # pragma: no cover - bug backstop
            return error_doc(name, error), {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, Any]:
        """Service + session counters (the ``stats`` endpoint body)."""
        session_stats = self.session.statistics()
        # No request runs on the daemon session's own checker (workers keep
        # theirs), so its counters would only ever read 0.
        session_stats.pop("checker", None)
        session_stats.pop("checker_caches", None)
        return {
            "service": {
                "draining": self._draining,
                "workers": self.config.workers,
                "max_queue": self.config.max_queue,
                "request_timeout": self.config.request_timeout,
                "requests_total": self.requests_total,
                "verify_requests": self.verify_requests,
                "engine_runs": self.engine_runs,
                "coalesce_hits": self.coalescer.coalesce_hits,
                "warm_hits": self.warm_hits,
                "rejections": self.admission.rejections,
                "posts_executed": self.posts_executed,
                "pending": self.admission.pending,
                "queue_depth": self.admission.queue_depth,
                "peak_pending": self.admission.peak_pending,
                "in_flight": self.coalescer.in_flight,
                "connections_total": self.connections_total,
                "connections_dropped": self.connections_dropped,
                "recovery_runs": self.recovery_runs,
                "supervision": dict(self.supervision_totals),
                "worker_slots": [slot.statistics() for slot in self._slots],
                "journal": (
                    self.journal.statistics() if self.journal is not None else None
                ),
                "quota": (
                    self.quota.statistics() if self.quota is not None else None
                ),
                "breaker": (
                    self.breaker.statistics() if self.breaker is not None else None
                ),
            },
            "session": session_stats,
            "store": self._store_doc(),
        }

    def _store_doc(self) -> dict[str, Any]:
        store = self.session.store
        return {
            "programs": len(store),
            "predicates": sum(
                store.total_predicates(fingerprint)
                for fingerprint in store.fingerprints()
            ),
            "path": str(store.path) if store.path is not None else None,
        }

    def _cache_doc(self) -> dict[str, Any]:
        store = self.session.store
        return {
            "store": {
                **self._store_doc(),
                "fingerprints": sorted(store.fingerprints()),
            },
        }

    def _health_doc(self) -> dict[str, Any]:
        from .. import __version__  # late: repro/__init__ imports this package

        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return {
            "status": "draining" if self._draining else "ready",
            "protocol": protocol.PROTOCOL_VERSION,
            "version": __version__,
            "pid": os.getpid(),
            "uptime_seconds": round(uptime, 3),
            "workers": self.config.workers,
            "queue_depth": self.admission.queue_depth,
            "pending": self.admission.pending,
            "journal_lag": self.journal.lag if self.journal is not None else None,
            "open_circuits": (
                self.breaker.open_circuits if self.breaker is not None else 0
            ),
        }
