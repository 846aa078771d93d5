"""The supervised execution layer: pools that survive crashes, hangs and worse.

Historically a batch ran through ``pool.map``: one worker segfault (or
OOM-kill, or injected ``os._exit``) raised ``BrokenProcessPool`` in the
parent and lost *every* task's result, and one hung worker blocked the batch
forever.  The :class:`Supervisor` replaces that with per-task futures and an
explicit failure policy:

* **individual submission** — each task is its own future; completed results
  are collected as they finish and are never discarded because an unrelated
  task failed;
* **per-task wall-clock timeouts** — a worker that exceeds ``task_timeout``
  is declared hung, its process is killed, and the pool is rebuilt;
* **crash detection** — a dead worker breaks the pool; the supervisor
  records a structured failure for every in-flight task, rebuilds the pool,
  and resubmits;
* **capped exponential backoff retries** — failures attributable to a task
  (unambiguous crash / timeout / worker exception) consume its retry budget
  (:class:`RetryPolicy`); collateral losses (the pool died underneath an
  innocent task, or broke with several tasks in flight — the guilty one is
  indistinguishable) are retried without charge.  Retries run on a fresh
  worker, optionally with degraded options (halved budgets);
* **graceful degradation** — when the pool breaks more than
  ``max_pool_rebuilds`` times (or cannot be created at all), the remaining
  tasks run in-process sequentially.  Slower, but the batch completes;
* **borrowed workers** — a supervisor either owns a pool for the length of
  its batch, or borrows a long-lived :class:`WorkerSlot` (the daemon's
  process backend): every policy above still applies per batch, and the
  slot's worker is only replaced when a timeout kill or a crash took it;
* **no escaping exceptions** — every task always yields a result document.
  A task that exhausts its retries yields verdict ``unknown`` with a
  structured ``failure`` record and its ``attempts`` count (result schema
  version 2) instead of raising.

Fault injection (:mod:`repro.core.faults`) hooks the worker entry point:
an installed :class:`~repro.core.faults.FaultPlan` travels into each worker
inside the task payload, so injected crashes genuinely kill worker processes
and every policy above is exercised by deterministic tier-1 tests.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from . import faults
from .faults import FaultPlan

__all__ = [
    "RetryPolicy",
    "Supervisor",
    "WorkerSlot",
    "failure_record",
    "failure_doc",
    "supervised_call",
]

#: Failure kinds a supervised task can accumulate.
FAILURE_KINDS = ("crash", "timeout", "worker-error", "pool-broken", "pool-lost")


@dataclass(frozen=True)
class RetryPolicy:
    """How failed tasks are retried.

    ``max_retries`` bounds *charged* failures per task (crash / timeout /
    worker exception); collateral pool losses are free.  The backoff before
    retry ``n`` is ``backoff_base * backoff_factor**n`` capped at
    ``backoff_max`` seconds.  With ``degrade`` set, each retry halves the
    task's resource budgets (``max_nodes`` / ``max_seconds`` /
    ``max_solver_calls`` and ``max_predicates_per_location`` where set) —
    off by default because a degraded retry may legitimately return a
    different (weaker) verdict than the original budget would have.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    degrade: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def delay(self, charged_failures: int) -> float:
        """Backoff before the retry following the ``n``-th charged failure."""
        if charged_failures <= 0:
            return 0.0
        return min(
            self.backoff_base * self.backoff_factor ** (charged_failures - 1),
            self.backoff_max,
        )


def failure_record(
    kind: str, message: str, attempt: int, elapsed: Optional[float] = None
) -> dict[str, Any]:
    """One structured failure: what went wrong on which attempt."""
    record: dict[str, Any] = {"kind": kind, "message": message, "attempt": attempt}
    if elapsed is not None:
        record["elapsed_seconds"] = round(elapsed, 3)
    return record


def failure_doc(
    name: str, failures: list[dict[str, Any]], attempts: int
) -> dict[str, Any]:
    """The schema-v2 document of a task that exhausted its retries.

    Verdict ``unknown`` — the task was never decided — with the terminal
    failure under ``failure``, the full per-attempt history under
    ``failures`` and the attempt count under ``attempts``.  Never raises
    into the caller: this document *is* the exception, structured.
    """
    from .engine import RESULT_SCHEMA_VERSION

    last = failures[-1] if failures else failure_record("pool-lost", "unknown", 0)
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "name": name,
        "verdict": "unknown",
        "reason": (
            f"task execution failed after {attempts} attempt(s): "
            f"{last['kind']}: {last['message']}"
        ),
        "failure": last,
        "failures": failures,
        "attempts": attempts,
    }


# ----------------------------------------------------------------------
# The worker entry point (module-level: must pickle into pool workers)
# ----------------------------------------------------------------------
def supervised_call(worker: Callable[[dict], dict], payload: dict[str, Any]) -> dict:
    """Run one task under the (optional) shipped fault plan.

    Strips the supervisor's control keys (``_attempt`` / ``_task_keys`` /
    ``_faults`` / ``_in_worker``) before delegating, installs the fault plan
    for the duration of the call, and fires the ``task`` site — which is
    where an injected crash ``os._exit``\\ s the worker process.
    """
    payload = dict(payload)
    attempt = payload.pop("_attempt", 0)
    keys = payload.pop("_task_keys", (payload.get("name", "*"),))
    plan_payload = payload.pop("_faults", None)
    in_worker = payload.pop("_in_worker", True)
    plan = FaultPlan.from_payload(plan_payload) if plan_payload else None
    previous = faults.active_plan()
    if plan is not None:
        faults.install(plan)
    try:
        faults.fire("task", keys, attempt, in_worker=in_worker)
        return worker(payload)
    finally:
        if plan is not None:
            if previous is not None:
                faults.install(previous)
            else:
                faults.uninstall()


@dataclass
class _Supervised:
    """Per-task supervision state."""

    index: int
    payload: dict[str, Any]
    keys: tuple[str, ...]
    name: str
    attempts: int = 0
    charged: int = 0
    failures: list[dict[str, Any]] = field(default_factory=list)
    doc: Optional[dict[str, Any]] = None
    not_before: float = 0.0
    started: float = 0.0


def _shutdown(executor: Any, kill: bool) -> None:
    """Retire a pool, killing its workers first when they may be wedged.

    ``ProcessPoolExecutor`` has no public kill; its ``_processes`` map has
    been stable since 3.7 and killing via it is the only way to reclaim a
    truly wedged worker.  Defensive: missing attributes mean we fall back to
    abandoning the processes.
    """
    if kill:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already dead
                pass
    try:
        executor.shutdown(wait=not kill, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass


def _slot_main(conn: Any, initializer: Optional[Callable[[], None]]) -> None:
    """A slot's worker process: run the ``(fn, args)`` tasks read from
    ``conn`` one at a time and answer each with ``(ok, value)``, until the
    slot sends ``None`` or closes its end."""
    if initializer is not None:
        initializer()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        fn, args = task
        try:
            reply = (True, fn(*args))
        except BaseException as error:  # the borrower's to judge, as in a pool
            reply = (False, error)
        try:
            conn.send(reply)
        except Exception as error:  # the outcome does not pickle
            conn.send((False, RuntimeError(f"unpicklable task outcome: {error!r}")))


class WorkerSlot:
    """One long-lived worker process that supervisors borrow.

    The daemon's process backend keeps one slot per executor thread.  The
    slot's worker process starts lazily on its first task, runs
    ``initializer`` once (the daemon's keeps a bounded checker warm there,
    :func:`repro.core.engine.install_warm_checker`) and then serves task
    after task over a pipe that the borrowing thread writes and reads
    itself: a task costs one round trip, with no pool manager or queue
    feeder thread in between.  The worker is replaced only when a borrowing
    :class:`Supervisor` discards it after a timeout kill or a crash, or when
    :meth:`acquire` finds it dead between tasks (an idle ``kill -9`` is
    nobody's request, so it is replaced free of charge).  ``mp_context`` is
    the multiprocessing context of the worker (``None``: the platform
    default); a multi-threaded parent must not ``fork`` mid-lock — give it a
    forkserver or spawn context.
    """

    #: Seconds a graceful :meth:`discard` waits for the worker to exit.
    EXIT_GRACE_S = 5.0

    def __init__(
        self,
        mp_context: Optional[Any] = None,
        initializer: Optional[Callable[[], None]] = None,
    ) -> None:
        self.mp_context = mp_context
        self.initializer = initializer
        self._process: Optional[Any] = None
        self._conn: Optional[Any] = None
        self._close_conn: Optional[Callable[[], None]] = None
        #: The worker's process id (``None`` while it has none); kept apart
        #: from the process object so ``stats`` can read it mid-discard.
        self.pid: Optional[int] = None
        #: The future of the task in flight.
        self._future: Optional[Any] = None
        #: Workers started (the first, plus one per replacement).
        self.starts = 0
        #: Workers found dead between tasks and replaced.
        self.idle_deaths = 0

    def acquire(self) -> "WorkerSlot":
        """The slot, as a one-worker executor with a live worker: started
        when it has none, replaced when it died idle."""
        if self._process is not None and not self._process.is_alive():
            self.idle_deaths += 1
            self.discard(kill=True)
        if self._process is None:
            import multiprocessing
            from multiprocessing import util

            context = self.mp_context or multiprocessing.get_context()
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_slot_main, args=(theirs, self.initializer), name="repro-slot"
            )
            process.start()
            theirs.close()
            self._process, self._conn, self.pid = process, ours, process.pid
            # At interpreter exit multiprocessing joins its children; close
            # our end first so the worker reads EOF and exits.
            self._close_conn = util.Finalize(self, ours.close, exitpriority=10)
            self.starts += 1
        return self

    def submit(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Hand one task to the worker; :meth:`wait` settles its future."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        if self._future is not None:
            raise RuntimeError("a worker slot runs one task at a time")
        try:
            self._conn.send((fn, args))
        except OSError as error:
            raise BrokenProcessPool(f"worker slot is gone: {error!r}") from error
        future = Future()
        future.set_running_or_notify_cancel()
        self._future = future
        return future

    def wait(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for the task in flight and settle
        its future; returns whether it finished.  A worker that dies first
        settles it with ``BrokenProcessPool``, as a pool would."""
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing.connection import wait

        if not wait([self._conn, self._process.sentinel], timeout):
            return False
        future, self._future = self._future, None
        try:
            if not self._conn.poll():
                raise EOFError("the worker died without answering")
            ok, value = self._conn.recv()
        except (EOFError, OSError):
            future.set_exception(BrokenProcessPool("worker process died"))
        else:
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        return True

    def discard(self, kill: bool = False) -> None:
        """Retire the worker (gracefully unless ``kill``); the next
        :meth:`acquire` starts a fresh one."""
        process, self._process, self.pid = self._process, None, None
        if process is None:
            return
        self._future = None
        if not kill:
            try:
                self._conn.send(None)
            except OSError:
                pass  # already gone
            process.join(self.EXIT_GRACE_S)
        if process.is_alive():
            process.kill()
        process.join()
        process.close()
        self._close_conn()

    def statistics(self) -> dict[str, Any]:
        return {"pid": self.pid, "starts": self.starts, "idle_deaths": self.idle_deaths}


class Supervisor:
    """Run a batch of task payloads to completion, whatever the workers do.

    ``worker`` is the module-level task function (defaults to the engine's
    batch worker); it must be picklable and must return a result document.
    ``jobs`` is the pool width (``<= 1`` runs everything in-process).  With
    ``slot`` the supervisor borrows that :class:`WorkerSlot`'s long-lived
    single worker instead of building a pool of its own: tasks run one at a
    time in the slot's process, and the supervisor leaves the worker running
    for the next borrower unless a timeout kill or a crash took it (then the
    slot rebuilds it lazily).  Timeouts, retries, crash attribution and the
    rebuild cap stay per batch either way.  ``task_timeout`` is the per-task
    wall-clock bound, enforced by killing the worker's process — it is
    therefore only enforceable in pool mode; the in-process fallback notes a
    hang but cannot preempt it (injected hangs raise there instead, see
    :mod:`repro.core.faults`).

    :meth:`run_batch` returns one document per payload, in input order, and
    never raises for a task-level failure.
    """

    #: Scheduler poll interval while futures are in flight.
    poll_seconds = 0.02
    #: How many times a broken pool is rebuilt before degrading to
    #: in-process sequential execution.
    max_pool_rebuilds = 3

    def __init__(
        self,
        worker: Optional[Callable[[dict], dict]] = None,
        jobs: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_pool_rebuilds: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
        slot: Optional[WorkerSlot] = None,
    ) -> None:
        if worker is None:
            from .engine import _run_batch_task

            worker = _run_batch_task
        self.worker = worker
        self.jobs = max(1, jobs or 1)
        if slot is not None and self.jobs > 1:
            raise ValueError("a borrowed worker slot runs one task at a time")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0 or None, got {task_timeout}")
        self.task_timeout = task_timeout
        self.retry = retry or RetryPolicy()
        #: The plan shipped into every worker (defaults to the plan installed
        #: in this process, so ``with installed(plan):`` covers pools too).
        self.fault_plan = fault_plan if fault_plan is not None else faults.active_plan()
        if max_pool_rebuilds is not None:
            self.max_pool_rebuilds = max_pool_rebuilds
        self.slot = slot
        self._sleep = sleep
        # Counters (see statistics()).
        self.tasks_supervised = 0
        self.retries = 0
        self.crashes = 0
        self.timeouts = 0
        self.worker_errors = 0
        self.pool_rebuilds = 0
        self.collateral_requeues = 0
        self.tasks_recovered = 0
        self.tasks_failed = 0
        self.degraded_to_sequential = False

    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, Any]:
        """Supervision counters for session stats and batch provenance."""
        return {
            "task_timeout": self.task_timeout,
            "max_retries": self.retry.max_retries,
            "tasks_supervised": self.tasks_supervised,
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "worker_errors": self.worker_errors,
            "pool_rebuilds": self.pool_rebuilds,
            "collateral_requeues": self.collateral_requeues,
            "tasks_recovered": self.tasks_recovered,
            "tasks_failed": self.tasks_failed,
            "degraded_to_sequential": self.degraded_to_sequential,
        }

    # ------------------------------------------------------------------
    def run_batch(
        self,
        payloads: Sequence[dict[str, Any]],
        keys: Optional[Sequence[Sequence[str]]] = None,
    ) -> list[dict[str, Any]]:
        """Run every payload to a result document (input order preserved).

        ``keys`` optionally gives each task extra fault/reporting keys
        (e.g. its program fingerprint) beyond its payload ``name``.
        """
        tasks = []
        for index, payload in enumerate(payloads):
            name = str(payload.get("name", f"task{index}"))
            extra = tuple(str(k) for k in (keys[index] if keys else ()))
            task_keys = (name,) + tuple(k for k in extra if k != name)
            tasks.append(_Supervised(index, payload, task_keys, name))
        self.tasks_supervised += len(tasks)
        if len(tasks) == 0:
            return []
        if self.jobs > 1 or self.slot is not None:
            self._run_pool(tasks)
        else:
            self._run_sequential(tasks)
        docs = []
        for task in tasks:
            if task.doc is None:  # exhausted retries (or pool lost it for good)
                self.tasks_failed += 1
                task.doc = failure_doc(task.name, task.failures, task.attempts)
            elif task.failures:
                self.tasks_recovered += 1
                task.doc.setdefault("failures", task.failures)
            task.doc.setdefault("attempts", max(task.attempts, 1))
            docs.append(task.doc)
        return docs

    # ------------------------------------------------------------------
    # Pool scheduling
    # ------------------------------------------------------------------
    def _run_pool(self, tasks: list[_Supervised]) -> None:
        try:
            from concurrent.futures import FIRST_COMPLETED, wait
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
        except ImportError:  # pragma: no cover - no concurrent.futures
            self._degrade(tasks)
            return

        queue = deque(tasks)
        inflight: dict[Any, _Supervised] = {}
        executor: Optional[ProcessPoolExecutor] = None

        def teardown(kill: bool) -> None:
            nonlocal executor
            if executor is None:
                return
            if self.slot is not None:
                self.slot.discard(kill)
            else:
                _shutdown(executor, kill)
            executor = None

        def fail_inflight(kind: str, message: str, charged: bool) -> None:
            """Record a failure for every in-flight task and requeue/settle."""
            for future, task in list(inflight.items()):
                future.cancel()
                self._record_failure(
                    task,
                    kind,
                    message,
                    charged=charged,
                    elapsed=time.monotonic() - task.started,
                )
                if not charged:
                    self.collateral_requeues += 1
                self._requeue_or_fail(task, queue)
            inflight.clear()

        try:
            while queue or inflight:
                if executor is None:
                    if self.pool_rebuilds > self.max_pool_rebuilds:
                        break  # degrade below
                    try:
                        executor = (
                            self.slot.acquire()
                            if self.slot is not None
                            else ProcessPoolExecutor(max_workers=self.jobs)
                        )
                    except (OSError, PermissionError, ImportError):
                        break  # platform refuses pools: degrade below
                # Fill free slots with ready tasks (backoff-respecting).
                now = time.monotonic()
                deferred = []
                while queue and len(inflight) < self.jobs:
                    task = queue.popleft()
                    if task.not_before > now:
                        deferred.append(task)
                        continue
                    task.attempts += 1
                    task.started = now
                    try:
                        future = executor.submit(
                            supervised_call, self.worker, self._decorate(task)
                        )
                    except Exception as error:
                        # Submitting to a broken/shutting-down pool.
                        queue.appendleft(task)
                        task.attempts -= 1
                        fail_inflight("pool-broken", repr(error), charged=False)
                        teardown(kill=False)
                        self.pool_rebuilds += 1
                        break
                    inflight[future] = task
                queue.extend(deferred)
                if executor is None:
                    continue
                if not inflight:
                    if queue:
                        # Everything is backing off; sleep to the nearest slot.
                        pause = max(
                            min(task.not_before for task in queue) - time.monotonic(),
                            0.0,
                        )
                        self._sleep(min(pause, self.retry.backoff_max) or self.poll_seconds)
                        continue
                    break
                if self.slot is not None:
                    finished = self.slot.wait(self.poll_seconds)
                    done = set(inflight) if finished else ()
                else:
                    done, _ = wait(
                        list(inflight), timeout=self.poll_seconds,
                        return_when=FIRST_COMPLETED,
                    )
                broken_tasks: list[tuple[_Supervised, float]] = []
                for future in done:
                    task = inflight.pop(future)
                    elapsed = time.monotonic() - task.started
                    try:
                        task.doc = future.result()
                    except BrokenProcessPool:
                        broken_tasks.append((task, elapsed))
                    except Exception as error:
                        self.worker_errors += 1
                        self._record_failure(
                            task, "worker-error", repr(error),
                            charged=True, elapsed=elapsed,
                        )
                        self._requeue_or_fail(task, queue)
                if broken_tasks:
                    # A dead worker breaks the whole pool, so *every* task in
                    # flight surfaces BrokenProcessPool and the guilty one is
                    # indistinguishable from its innocent siblings.  Charge
                    # the retry budget only when exactly one task was in
                    # flight (unambiguous guilt); otherwise retry everyone
                    # for free — a serial crasher is still bounded by the
                    # pool-rebuild cap and is convicted in degraded
                    # sequential mode, where attribution is exact.
                    charged = len(broken_tasks) == 1 and not inflight
                    for task, elapsed in broken_tasks:
                        self.crashes += 1
                        self._record_failure(
                            task, "crash",
                            "worker process died (BrokenProcessPool)",
                            charged=charged, elapsed=elapsed,
                        )
                        if not charged:
                            self.collateral_requeues += 1
                        self._requeue_or_fail(task, queue)
                    # Anything still in flight is collateral too.
                    fail_inflight(
                        "pool-broken", "pool broke under a concurrent task",
                        charged=False,
                    )
                    teardown(kill=False)
                    self.pool_rebuilds += 1
                    continue
                # Hang detection: kill the pool when any in-flight task
                # exceeds its wall-clock budget.
                if self.task_timeout is not None and inflight:
                    now = time.monotonic()
                    hung = [
                        (future, task)
                        for future, task in inflight.items()
                        if now - task.started > self.task_timeout
                        and not future.done()
                    ]
                    if hung:
                        for future, task in hung:
                            del inflight[future]
                            self.timeouts += 1
                            self._record_failure(
                                task, "timeout",
                                f"task exceeded the {self.task_timeout}s timeout; "
                                "worker killed",
                                charged=True, elapsed=now - task.started,
                            )
                            self._requeue_or_fail(task, queue)
                        fail_inflight(
                            "pool-broken",
                            "pool killed to recover a hung sibling task",
                            charged=False,
                        )
                        teardown(kill=True)
                        self.pool_rebuilds += 1
        finally:
            # On a normal exit nothing is in flight: an owned pool shuts down
            # gracefully for free, a borrowed slot keeps its worker for the
            # next batch.  On an exceptional exit (KeyboardInterrupt, a test
            # timeout) tasks may still be running — possibly wedged — and
            # shutdown(wait=True) would block on them forever: kill instead.
            if inflight or self.slot is None:
                teardown(kill=bool(inflight))
        if queue:
            # The pool broke repeatedly (or never existed): finish in-process.
            self._degrade(list(queue))

    def _decorate(self, task: _Supervised) -> dict[str, Any]:
        """The per-attempt payload: control keys plus optional degradation."""
        payload = dict(task.payload)
        payload["_attempt"] = task.attempts - 1  # 0-based attempt number
        payload["_task_keys"] = task.keys
        payload["_in_worker"] = True
        if self.fault_plan is not None:
            payload["_faults"] = self.fault_plan.to_payload()
        if self.retry.degrade and task.charged > 0:
            payload = self._degraded_payload(payload, task.charged)
        return payload

    @staticmethod
    def _degraded_payload(payload: dict[str, Any], retries: int) -> dict[str, Any]:
        """Halve resource budgets once per charged retry (floor 1)."""
        payload = dict(payload)
        factor = 2 ** retries
        budget = dict(payload.get("budget") or {})
        for knob in ("max_nodes", "max_seconds", "max_solver_calls"):
            if budget.get(knob) is not None:
                budget[knob] = max(budget[knob] / factor, 1)
                if knob != "max_seconds":
                    budget[knob] = max(int(budget[knob]), 1)
        payload["budget"] = budget
        cap = payload.get("max_predicates_per_location")
        if cap is not None:
            payload["max_predicates_per_location"] = max(cap // factor, 1)
        return payload

    def _record_failure(
        self,
        task: _Supervised,
        kind: str,
        message: str,
        charged: bool,
        elapsed: Optional[float] = None,
    ) -> None:
        task.failures.append(
            failure_record(kind, message, task.attempts - 1, elapsed)
        )
        if charged:
            task.charged += 1

    def _requeue_or_fail(self, task: _Supervised, queue: deque) -> None:
        """Queue a retry with backoff, unless the retry budget is exhausted."""
        if task.charged > self.retry.max_retries:
            return  # run_batch turns the missing doc into a failure doc
        self.retries += 1
        task.not_before = time.monotonic() + self.retry.delay(task.charged)
        queue.append(task)

    # ------------------------------------------------------------------
    # In-process sequential execution (degraded mode and jobs=1)
    # ------------------------------------------------------------------
    def _run_sequential(self, tasks: list[_Supervised]) -> None:
        queue = deque(tasks)
        while queue:
            task = queue.popleft()
            pause = task.not_before - time.monotonic()
            if pause > 0:
                self._sleep(pause)
            task.attempts += 1
            task.started = time.monotonic()
            payload = self._decorate(task)
            payload["_in_worker"] = False
            try:
                task.doc = supervised_call(self.worker, payload)
            except Exception as error:
                # In-process, an injected crash/hang surfaces as an exception
                # (there is no worker process to kill); classify it the way
                # the pool path would have.
                from .faults import InjectedCrash, InjectedHang

                if isinstance(error, InjectedCrash):
                    kind = "crash"
                    self.crashes += 1
                elif isinstance(error, InjectedHang):
                    kind = "timeout"
                    self.timeouts += 1
                else:
                    kind = "worker-error"
                    self.worker_errors += 1
                self._record_failure(
                    task, kind, repr(error), charged=True,
                    elapsed=time.monotonic() - task.started,
                )
                self._requeue_or_fail(task, queue)

    def _degrade(self, tasks: list[_Supervised]) -> None:
        self.degraded_to_sequential = True
        self._run_sequential(tasks)
