"""The supervised execution layer: batches that survive crashes and hangs.

Every task that runs out of process runs on a :class:`WorkerSlot`: one
long-lived worker process fed one task at a time over a pipe.  The
:class:`Supervisor` owns ``jobs`` slots for the length of a batch, or
borrows one long-lived slot (the daemon keeps one per executor thread), and
applies an explicit failure policy:

* **one task per worker** — a worker death or a timeout kill is charged to
  exactly the task that worker was running; completed results are never
  discarded because a sibling failed;
* **per-task wall-clock timeouts** — a task that exceeds ``task_timeout``
  is declared hung and its worker is killed and replaced;
* **crash detection** — a dead worker settles its one task with a
  structured ``crash`` failure, and the slot starts a fresh worker;
* **capped exponential backoff retries** — every crash, timeout and worker
  exception consumes the task's retry budget (:class:`RetryPolicy`), which
  therefore also bounds how often a task's workers are replaced.  Retries
  run on a fresh worker after a death, optionally with degraded options
  (halved budgets);
* **graceful degradation** — when an owned worker cannot be started at all
  (the platform refuses processes), the remaining tasks run in-process
  sequentially.  A borrowed slot never falls back in-process: a task it
  cannot run settles as a failure document;
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
from typing import Any, Callable, Iterable, Optional, Sequence

from . import faults
from .faults import FaultPlan

__all__ = [
    "RetryPolicy",
    "Supervisor",
    "WorkerLost",
    "WorkerSlot",
    "failure_record",
    "failure_doc",
    "finished_slots",
    "supervised_call",
]

#: Failure kinds a supervised task can accumulate.
FAILURE_KINDS = ("crash", "timeout", "worker-error", "pool-lost")


@dataclass(frozen=True)
class RetryPolicy:
    """How failed tasks are retried.

    ``max_retries`` bounds the failures per task (crash / timeout / worker
    exception).  The backoff before retry ``n`` is
    ``backoff_base * backoff_factor**n`` capped at ``backoff_max`` seconds.
    With ``degrade`` set, each retry halves the task's resource budgets
    (``max_nodes`` / ``max_seconds`` / ``max_solver_calls`` and
    ``max_predicates_per_location`` where set) — off by default because a
    degraded retry may legitimately return a different (weaker) verdict
    than the original budget would have.
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

    def delay(self, failures: int) -> float:
        """Backoff before the retry following the ``n``-th failure."""
        if failures <= 0:
            return 0.0
        return min(
            self.backoff_base * self.backoff_factor ** (failures - 1),
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
# The worker entry point (module-level: must pickle into slot workers)
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
    failures: list[dict[str, Any]] = field(default_factory=list)
    doc: Optional[dict[str, Any]] = None
    not_before: float = 0.0
    started: float = 0.0


def _pop_ready(queue: deque, now: float) -> Optional[_Supervised]:
    """Take the first queued task whose backoff has run out, if any."""
    for index, task in enumerate(queue):
        if task.not_before <= now:
            del queue[index]
            return task
    return None


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
        except BaseException as error:  # the caller's to judge
            reply = (False, error)
        try:
            conn.send(reply)
        except Exception as error:  # the outcome does not pickle
            conn.send((False, RuntimeError(f"unpicklable task outcome: {error!r}")))


class WorkerLost(Exception):
    """A :class:`WorkerSlot`'s worker process died without answering."""


class WorkerSlot:
    """One long-lived worker process, fed one task at a time over a pipe.

    The only way this package runs a task out of process: a
    :class:`Supervisor` owns ``jobs`` slots for the length of a batch or
    borrows one long-lived slot (the daemon keeps one per executor thread).
    The worker process starts on the first :meth:`acquire`, runs
    ``initializer`` once (the daemon's keeps a bounded checker warm there,
    :func:`repro.core.engine.install_warm_checker`) and then answers task
    after task over a pipe that the caller writes and reads itself: a task
    costs one round trip, with no pool manager or queue feeder thread in
    between.  A slot runs one task at a time, so its worker's death is that
    one task's.  The worker is replaced only when its caller
    :meth:`discard`\\ s it after a timeout kill or a crash, or when
    :meth:`acquire` finds it dead between tasks (an idle ``kill -9`` is
    nobody's task, so it is replaced free of charge).  ``mp_context`` is
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
        #: Workers started (the first, plus one per replacement).
        self.starts = 0
        #: Workers found dead between tasks and replaced.
        self.idle_deaths = 0

    def acquire(self) -> "WorkerSlot":
        """The slot, with a live worker: started when it has none, replaced
        when it died idle.  Raises ``OSError`` when no process can start."""
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

    def submit(self, fn: Callable[..., Any], *args: Any) -> None:
        """Hand one task to the worker; :func:`finished_slots` tells when
        its :meth:`result` is in."""
        try:
            self._conn.send((fn, args))
        except OSError:
            pass  # the worker is gone: result() reports it

    def result(self) -> Any:
        """The finished task's value, or its exception re-raised;
        :class:`WorkerLost` when the worker died without answering."""
        try:
            if not self._conn.poll():
                raise EOFError("the worker died without answering")
            ok, value = self._conn.recv()
        except (EOFError, OSError):
            raise WorkerLost("worker process died") from None
        if not ok:
            raise value
        return value

    def discard(self, kill: bool = False) -> None:
        """Retire the worker (gracefully unless ``kill``); the next
        :meth:`acquire` starts a fresh one."""
        process, self._process, self.pid = self._process, None, None
        if process is None:
            return
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


def finished_slots(slots: Iterable[WorkerSlot], timeout: float) -> list[WorkerSlot]:
    """Those of the busy ``slots`` whose task finished (answered, or its
    worker died), waiting up to ``timeout`` seconds for the first."""
    from multiprocessing.connection import wait

    owners: dict[Any, WorkerSlot] = {}
    for slot in slots:
        owners[slot._conn] = owners[slot._process.sentinel] = slot
    return list(dict.fromkeys(owners[handle] for handle in wait(list(owners), timeout)))


class Supervisor:
    """Run a batch of task payloads to completion, whatever the workers do.

    ``worker`` is the module-level task function (defaults to the engine's
    batch worker); it must be picklable and must return a result document.
    ``jobs`` is how many :class:`WorkerSlot`\\ s the supervisor owns for the
    batch (``<= 1`` runs everything in-process).  With ``slot`` it borrows
    that slot instead: tasks run one at a time in the slot's process, and
    the supervisor leaves the worker running for the next borrower unless a
    timeout kill or a crash took it (then the slot starts a fresh one
    lazily).  Timeouts, retries and crash attribution stay per batch either
    way.  ``task_timeout`` is the per-task wall-clock bound, enforced by
    killing the worker's process — it is therefore only enforceable on
    slots; the in-process path notes a hang but cannot preempt it (injected
    hangs raise there instead, see :mod:`repro.core.faults`).

    :meth:`run_batch` returns one document per payload, in input order, and
    never raises for a task-level failure.
    """

    #: How long one wait on the busy workers lasts before the scheduler
    #: checks timeouts and backoffs again.
    poll_seconds = 0.02

    def __init__(
        self,
        worker: Optional[Callable[[dict], dict]] = None,
        jobs: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
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
        #: in this process, so ``with installed(plan):`` covers workers too).
        self.fault_plan = fault_plan if fault_plan is not None else faults.active_plan()
        self.slot = slot
        self._sleep = sleep
        # Counters (see statistics()).
        self.tasks_supervised = 0
        self.retries = 0
        self.crashes = 0
        self.timeouts = 0
        self.worker_errors = 0
        #: Workers replaced after a crash or a timeout kill.
        self.pool_rebuilds = 0
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
            self._run_slots(tasks)
        else:
            self._run_sequential(tasks)
        docs = []
        for task in tasks:
            if task.doc is None:  # exhausted its retries
                self.tasks_failed += 1
                task.doc = failure_doc(task.name, task.failures, task.attempts)
            elif task.failures:
                self.tasks_recovered += 1
                task.doc.setdefault("failures", task.failures)
            task.doc.setdefault("attempts", max(task.attempts, 1))
            docs.append(task.doc)
        return docs

    # ------------------------------------------------------------------
    # Worker-slot scheduling
    # ------------------------------------------------------------------
    def _run_slots(self, tasks: list[_Supervised]) -> None:
        """Run ``tasks`` on the borrowed slot, or on ``jobs`` owned ones."""
        owned = self.slot is None
        slots = (
            [WorkerSlot() for _ in range(min(self.jobs, len(tasks)))]
            if owned
            else [self.slot]
        )
        queue = deque(tasks)
        busy: dict[WorkerSlot, _Supervised] = {}
        degraded = False
        try:
            while busy or (queue and not degraded):
                for slot in slots:
                    if degraded:
                        break
                    if slot in busy:
                        continue
                    task = _pop_ready(queue, time.monotonic())
                    if task is None:
                        break
                    try:
                        slot.acquire()
                    except (OSError, ImportError) as error:
                        if owned:
                            # The platform refuses worker processes: finish
                            # in-process once the busy workers are done.
                            queue.appendleft(task)
                            degraded = True
                            break
                        task.attempts += 1
                        self.crashes += 1
                        self._fail(task, "crash", f"worker could not start: {error!r}",
                                   None, queue)
                        continue
                    task.attempts += 1
                    task.started = time.monotonic()
                    try:
                        slot.submit(supervised_call, self.worker, self._decorate(task))
                    except Exception as error:  # the task does not pickle
                        self.worker_errors += 1
                        self._fail(task, "worker-error", repr(error), 0.0, queue)
                        continue
                    busy[slot] = task
                if not busy:
                    if queue and not degraded:
                        # Everything is backing off: sleep to the nearest retry.
                        nearest = min(task.not_before for task in queue)
                        self._sleep(max(nearest - time.monotonic(), 0.0))
                    continue
                for slot in finished_slots(busy, self.poll_seconds):
                    task = busy.pop(slot)
                    elapsed = time.monotonic() - task.started
                    try:
                        task.doc = slot.result()
                    except WorkerLost:
                        self.crashes += 1
                        self.pool_rebuilds += 1
                        slot.discard(kill=True)
                        self._fail(task, "crash", "worker process died", elapsed, queue)
                    except Exception as error:
                        self.worker_errors += 1
                        self._fail(task, "worker-error", repr(error), elapsed, queue)
                if self.task_timeout is not None:
                    now = time.monotonic()
                    for slot, task in list(busy.items()):
                        if now - task.started > self.task_timeout:
                            del busy[slot]
                            self.timeouts += 1
                            self.pool_rebuilds += 1
                            slot.discard(kill=True)
                            self._fail(
                                task, "timeout",
                                f"task exceeded the {self.task_timeout}s timeout; "
                                "worker killed",
                                now - task.started, queue,
                            )
        finally:
            # Owned workers retire with the batch; a borrowed one stays for
            # the next borrower.  A task still running here is an exceptional
            # exit (KeyboardInterrupt, a test timeout) and may be wedged:
            # kill its worker rather than wait for it.
            for slot in slots:
                if owned or slot in busy:
                    slot.discard(kill=slot in busy)
        if queue:
            self._degrade(list(queue))

    def _decorate(self, task: _Supervised) -> dict[str, Any]:
        """The per-attempt payload: control keys plus optional degradation."""
        payload = dict(task.payload)
        payload["_attempt"] = task.attempts - 1  # 0-based attempt number
        payload["_task_keys"] = task.keys
        payload["_in_worker"] = True
        if self.fault_plan is not None:
            payload["_faults"] = self.fault_plan.to_payload()
        if self.retry.degrade and task.failures:
            payload = self._degraded_payload(payload, len(task.failures))
        return payload

    @staticmethod
    def _degraded_payload(payload: dict[str, Any], retries: int) -> dict[str, Any]:
        """Halve the resource budgets in the task's ``options`` once per
        failed attempt (floor 1)."""
        factor = 2 ** retries
        options = dict(payload.get("options") or {})
        for knob in (
            "max_nodes", "max_seconds", "max_solver_calls", "max_predicates_per_location"
        ):
            value = options.get(knob)
            if value is not None:
                halved = value / factor if knob == "max_seconds" else value // factor
                options[knob] = max(halved, 1)
        return {**payload, "options": options}

    def _fail(
        self,
        task: _Supervised,
        kind: str,
        message: str,
        elapsed: Optional[float],
        queue: deque,
    ) -> None:
        """Record a failure of the task's latest attempt and queue its retry
        with backoff, unless that spent its retry budget (``run_batch`` then
        turns the missing doc into a failure doc)."""
        task.failures.append(failure_record(kind, message, task.attempts - 1, elapsed))
        if len(task.failures) > self.retry.max_retries:
            return
        self.retries += 1
        task.not_before = time.monotonic() + self.retry.delay(len(task.failures))
        queue.append(task)

    # ------------------------------------------------------------------
    # In-process sequential execution (jobs=1, and owned workers that
    # cannot start)
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
                # a worker slot would have.
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
                elapsed = time.monotonic() - task.started
                self._fail(task, kind, repr(error), elapsed, queue)

    def _degrade(self, tasks: list[_Supervised]) -> None:
        self.degraded_to_sequential = True
        self._run_sequential(tasks)
