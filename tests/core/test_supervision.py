"""The supervised execution layer (:mod:`repro.core.supervision`).

The acceptance matrix from the fault-tolerance issue lives here: under
injected faults — worker crashes on the first attempt for three suite
programs, one hang, one corrupted store load — ``Session.run_many`` must
complete with verdicts identical to a fault-free run, retried tasks must
converge, and no exception may escape to the caller.

The direct :class:`Supervisor` tests below use a trivial echo worker so the
scheduling policies (retry budgets, backoff, hang killing, worker
replacement, per-task attribution, degradation to in-process execution) are
exercised in milliseconds, not engine-run seconds.
"""

import os
import signal
import time

import pytest

from repro import Session, VerifierOptions
from repro.core.faults import FaultPlan, FaultSpec, installed
from repro.core.supervision import KILL_GRACE_S, RetryPolicy, Supervisor, WorkerSlot

#: The 12-program benchmark suite with its per-program refinement budgets
#: (mirrors benchmarks/run_all.py — initcheck_buggy diverges past 5).
SUITE = [
    ("forward", 8), ("initcheck", 8), ("double_counter", 8), ("up_down", 8),
    ("lock_step", 8), ("diamond_safe", 8), ("simple_safe", 8),
    ("simple_unsafe", 8), ("array_init_const", 8), ("array_copy", 8),
    ("array_init_buggy", 8), ("initcheck_buggy", 5),
]

OPTIONS = VerifierOptions(max_refinements=8)

#: A wall-clock budget every fault-free suite task finishes well inside: on
#: four workers sharing two vCPUs the slowest (forward, initcheck_buggy)
#: took 0.6-0.8 s.  A hung worker is killed this plus KILL_GRACE_S in.
SUITE_MAX_SECONDS = 10.0


def _suite_tasks(session, **extra):
    """The suite as VerificationTasks carrying their per-program budgets."""
    return [
        session.task(name, options=OPTIONS.replace(max_refinements=budget, **extra))
        for name, budget in SUITE
    ]


def _echo_worker(payload):
    """A fast stand-in task: succeeds instantly, echoes its name."""
    return {"schema_version": 2, "name": payload["name"], "verdict": "safe",
            "reason": ""}


def _pid_worker(payload):
    """An echo task that also reports which process ran it."""
    return {**_echo_worker(payload), "pid": os.getpid()}


def _raising_worker(payload):
    """A task whose worker function raises every time."""
    raise ValueError(f"no answer for {payload['name']}")


# ----------------------------------------------------------------------
# Policy units
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(10) == pytest.approx(0.3)

    def test_options_validation(self):
        with pytest.raises(ValueError, match="task_retries"):
            VerifierOptions(task_retries=-1)


# ----------------------------------------------------------------------
# Direct Supervisor scheduling (echo worker: fast)
# ----------------------------------------------------------------------
class TestSupervisorScheduling:
    RETRY = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_max=0.05)

    def test_fault_free_batch_passes_through(self):
        supervisor = Supervisor(worker=_echo_worker, jobs=2, retry=self.RETRY)
        docs = supervisor.run_batch([{"name": f"t{n}"} for n in range(4)])
        assert [d["name"] for d in docs] == ["t0", "t1", "t2", "t3"]
        assert all(d["verdict"] == "safe" and d["attempts"] == 1 for d in docs)
        assert supervisor.statistics()["pool_rebuilds"] == 0

    def test_crash_is_retried_on_a_fresh_worker(self):
        plan = FaultPlan([FaultSpec(kind="crash", key="t1", attempts=(0,))])
        supervisor = Supervisor(
            worker=_echo_worker, jobs=2, retry=self.RETRY, fault_plan=plan
        )
        docs = supervisor.run_batch([{"name": "t0"}, {"name": "t1"}])
        by_name = {d["name"]: d for d in docs}
        assert by_name["t1"]["verdict"] == "safe"
        assert by_name["t1"]["attempts"] >= 2
        assert by_name["t1"]["failures"][0]["kind"] == "crash"
        assert by_name["t0"]["verdict"] == "safe"
        stats = supervisor.statistics()
        assert stats["crashes"] >= 1
        assert stats["pool_rebuilds"] >= 1
        assert stats["tasks_recovered"] >= 1
        assert stats["tasks_failed"] == 0

    @pytest.mark.timeout(60)
    def test_hang_is_killed_and_retried(self):
        plan = FaultPlan([FaultSpec(kind="hang", key="t0", attempts=(0,),
                                    seconds=30.0)])
        supervisor = Supervisor(
            worker=_echo_worker, jobs=2, task_timeout=1.0,
            retry=self.RETRY, fault_plan=plan,
        )
        start = time.monotonic()
        docs = supervisor.run_batch([{"name": "t0"}, {"name": "t1"}])
        assert time.monotonic() - start < 20  # did not wait out the 30s hang
        by_name = {d["name"]: d for d in docs}
        assert by_name["t0"]["verdict"] == "safe"
        assert by_name["t0"]["failures"][0]["kind"] == "timeout"
        assert supervisor.statistics()["timeouts"] == 1

    def test_exhausted_retries_become_a_failure_doc(self):
        plan = FaultPlan([FaultSpec(kind="error", key="t0", attempts=())])
        supervisor = Supervisor(
            worker=_echo_worker, jobs=2,
            retry=RetryPolicy(max_retries=1, backoff_base=0.01),
            fault_plan=plan,
        )
        docs = supervisor.run_batch([{"name": "t0"}, {"name": "t1"}])
        by_name = {d["name"]: d for d in docs}
        failed = by_name["t0"]
        assert failed["verdict"] == "unknown"
        assert failed["attempts"] == 2  # first try + one retry
        assert failed["failure"]["kind"] == "worker-error"
        assert len(failed["failures"]) == 2
        assert "failed after 2 attempt" in failed["reason"]
        # The sibling task's completed result was not discarded.
        assert by_name["t1"]["verdict"] == "safe"
        assert supervisor.statistics()["tasks_failed"] == 1

    def test_a_crash_is_charged_to_its_own_task_only(self):
        """t1's worker dies while t0 is running on the other worker: t0
        finishes on its own worker, untouched."""
        plan = FaultPlan([
            FaultSpec(kind="slow", key="t0", attempts=(), seconds=1.0),
            FaultSpec(kind="crash", key="t1", attempts=(0,)),
        ])
        supervisor = Supervisor(
            worker=_echo_worker, jobs=2, retry=self.RETRY, fault_plan=plan
        )
        docs = supervisor.run_batch([{"name": "t0"}, {"name": "t1"}])
        by_name = {d["name"]: d for d in docs}
        assert by_name["t0"]["verdict"] == "safe"
        assert by_name["t0"]["attempts"] == 1
        assert "failures" not in by_name["t0"]
        assert by_name["t1"]["verdict"] == "safe"
        assert by_name["t1"]["attempts"] == 2
        assert [f["kind"] for f in by_name["t1"]["failures"]] == ["crash"]

    @pytest.mark.timeout(60)
    def test_a_timeout_kill_is_charged_to_the_hung_task_only(self):
        """t0 hangs; t2 starts on t1's worker at 0.5 s and is still running
        when t0's worker is killed at 1 s.  t2 must finish on its first
        attempt."""
        plan = FaultPlan([
            FaultSpec(kind="hang", key="t0", attempts=(0,), seconds=30.0),
            FaultSpec(kind="slow", key="t1", attempts=(), seconds=0.5),
            FaultSpec(kind="slow", key="t2", attempts=(), seconds=0.8),
        ])
        supervisor = Supervisor(
            worker=_echo_worker, jobs=2, task_timeout=1.0,
            retry=self.RETRY, fault_plan=plan,
        )
        docs = supervisor.run_batch([{"name": f"t{n}"} for n in range(3)])
        by_name = {d["name"]: d for d in docs}
        assert all(d["verdict"] == "safe" for d in docs)
        assert [f["kind"] for f in by_name["t0"]["failures"]] == ["timeout"]
        assert by_name["t1"]["attempts"] == 1
        assert by_name["t2"]["attempts"] == 1
        assert "failures" not in by_name["t2"]
        assert supervisor.statistics()["timeouts"] == 1

    def test_degrades_to_sequential_when_workers_cannot_start(self, monkeypatch):
        def refuse(slot):
            raise OSError("no processes here")

        monkeypatch.setattr(WorkerSlot, "acquire", refuse)
        supervisor = Supervisor(worker=_pid_worker, jobs=2, retry=self.RETRY)
        docs = supervisor.run_batch([{"name": "t0"}, {"name": "t1"}])
        assert all(d["verdict"] == "safe" and d["attempts"] == 1 for d in docs)
        assert {d["pid"] for d in docs} == {os.getpid()}  # ran in-process
        assert supervisor.degraded_to_sequential is True

    def test_sequential_mode_classifies_injected_faults(self):
        plan = FaultPlan([
            FaultSpec(kind="crash", key="t0", attempts=(0,)),
            FaultSpec(kind="hang", key="t1", attempts=(0,)),
        ])
        supervisor = Supervisor(
            worker=_echo_worker, jobs=1, retry=self.RETRY, fault_plan=plan
        )
        docs = supervisor.run_batch([{"name": "t0"}, {"name": "t1"}])
        by_name = {d["name"]: d for d in docs}
        assert by_name["t0"]["failures"][0]["kind"] == "crash"
        assert by_name["t1"]["failures"][0]["kind"] == "timeout"
        assert all(d["verdict"] == "safe" for d in docs)


# ----------------------------------------------------------------------
# Borrowed worker slots (the daemon's)
# ----------------------------------------------------------------------
class TestWorkerSlot:
    RETRY = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_max=0.05)

    def _run(self, slot, name, **kwargs):
        supervisor = Supervisor(
            worker=_pid_worker, retry=self.RETRY, slot=slot, **kwargs
        )
        return supervisor.run_batch([{"name": name}])[0], supervisor

    def test_worker_outlives_the_batches_that_borrow_it(self):
        slot = WorkerSlot()
        try:
            assert slot.pid is None  # started lazily
            first, _ = self._run(slot, "t0")
            second, supervisor = self._run(slot, "t1")
            assert first["pid"] == second["pid"] == slot.pid
            assert second["attempts"] == 1
            assert slot.starts == 1
            assert supervisor.statistics()["pool_rebuilds"] == 0
        finally:
            slot.discard()
        assert slot.pid is None

    def test_crash_rebuilds_the_slot_worker(self):
        slot = WorkerSlot()
        try:
            before, _ = self._run(slot, "t0")
            plan = FaultPlan([FaultSpec(kind="crash", key="t1", attempts=(0,))])
            doc, supervisor = self._run(slot, "t1", fault_plan=plan)
            assert doc["verdict"] == "safe" and doc["attempts"] == 2
            assert doc["failures"][0]["kind"] == "crash"
            assert doc["pid"] != before["pid"]
            assert supervisor.statistics()["pool_rebuilds"] == 1
            assert slot.starts == 2
        finally:
            slot.discard()

    def test_idle_worker_death_is_replaced_free_of_charge(self):
        slot = WorkerSlot()
        try:
            before, _ = self._run(slot, "t0")
            os.kill(before["pid"], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while slot._process.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            after, supervisor = self._run(slot, "t1")
            assert after["attempts"] == 1 and "failures" not in after
            assert after["pid"] != before["pid"]
            assert slot.idle_deaths == 1
            assert supervisor.statistics()["crashes"] == 0
        finally:
            slot.discard()

    def test_a_raising_task_keeps_the_worker(self):
        slot = WorkerSlot()
        try:
            before, _ = self._run(slot, "t0")
            supervisor = Supervisor(worker=_raising_worker, retry=self.RETRY, slot=slot)
            doc = supervisor.run_batch([{"name": "t1"}])[0]
            assert doc["verdict"] == "unknown" and doc["attempts"] == 3
            assert {f["kind"] for f in doc["failures"]} == {"worker-error"}
            assert "no answer for t1" in doc["failures"][0]["message"]
            after, _ = self._run(slot, "t2")
            assert after["pid"] == before["pid"] and slot.starts == 1
        finally:
            slot.discard()

    @pytest.mark.timeout(60)
    def test_hang_kills_and_replaces_the_worker(self):
        slot = WorkerSlot()
        try:
            before, _ = self._run(slot, "t0")
            plan = FaultPlan([FaultSpec(kind="hang", key="t1", attempts=(0,),
                                        seconds=30.0)])
            start = time.monotonic()
            doc, supervisor = self._run(slot, "t1", fault_plan=plan, task_timeout=1.0)
            assert time.monotonic() - start < 20  # did not wait out the hang
            assert doc["verdict"] == "safe" and doc["attempts"] == 2
            assert doc["failures"][0]["kind"] == "timeout"
            assert doc["pid"] != before["pid"] and slot.starts == 2
            assert supervisor.statistics()["timeouts"] == 1
        finally:
            slot.discard()
        assert slot.pid is None

    def test_a_slot_runs_one_task_at_a_time(self):
        with pytest.raises(ValueError, match="one task at a time"):
            Supervisor(worker=_echo_worker, jobs=2, slot=WorkerSlot())


# ----------------------------------------------------------------------
# The acceptance matrix: real engine tasks through Session.run_many
# ----------------------------------------------------------------------
class TestAcceptance:
    @pytest.mark.timeout(480)
    def test_faulted_suite_matches_fault_free_run(self, tmp_path):
        """Crash on 3 suite programs' first attempts, one hang, one corrupt
        store load: the batch completes, non-faulted verdicts are identical
        to a fault-free run, retried tasks converge, nothing raises."""
        baseline_session = Session(OPTIONS)
        baseline = {
            doc["name"]: doc["verdict"]
            for doc in baseline_session.run_many(
                _suite_tasks(baseline_session, max_seconds=SUITE_MAX_SECONDS),
                jobs=4,
            )
        }
        # initcheck_buggy legitimately exhausts its 5-refinement budget.
        assert set(baseline.values()) <= {"safe", "unsafe", "unknown"}
        assert sum(v == "unknown" for v in baseline.values()) <= 1

        # A valid store on disk, so the corrupt-store fault has a real
        # snapshot to tear mid-load.
        store_path = tmp_path / "bank.pkl"
        Session(OPTIONS, store_path=store_path).run("forward")
        assert store_path.exists()

        crash_targets = ("forward", "lock_step", "simple_unsafe")
        plan = FaultPlan(
            [FaultSpec(kind="crash", key=name, attempts=(0,))
             for name in crash_targets]
            + [FaultSpec(kind="hang", key="diamond_safe", attempts=(0,),
                         seconds=120.0),
               FaultSpec(kind="corrupt-store", key="bank.pkl", attempts=(0,))],
        )
        with installed(plan):
            with pytest.warns(RuntimeWarning, match="quarantined"):
                session = Session(
                    OPTIONS.replace(task_retries=2), store_path=store_path
                )
            # The corrupted load was quarantined: the session started cold.
            assert session.store.quarantined
            assert len(session.store) == 0
            docs = session.run_many(
                _suite_tasks(session, max_seconds=SUITE_MAX_SECONDS), jobs=4
            )

        verdicts = {doc["name"]: doc["verdict"] for doc in docs}
        assert verdicts == baseline  # faulted tasks converged, rest identical
        by_name = {doc["name"]: doc for doc in docs}
        for name in crash_targets:
            assert by_name[name]["attempts"] >= 2
            assert any(f["kind"] == "crash" for f in by_name[name]["failures"])
        # The hung task ran on its own worker, so only the supervisor's
        # timeout kill recovered it; no sibling's crash was charged to it.
        assert by_name["diamond_safe"]["attempts"] >= 2
        assert by_name["diamond_safe"]["failures"][0]["kind"] == "timeout"
        stats = session.last_supervisor.statistics()
        assert stats["task_timeout"] == SUITE_MAX_SECONDS + KILL_GRACE_S
        assert stats["crashes"] >= 3
        assert stats["tasks_failed"] == 0
        assert stats["tasks_recovered"] >= 4

    @pytest.mark.timeout(120)
    def test_hang_is_killed_grace_past_the_largest_max_seconds(self):
        """The kill follows the run budget: a hung worker is killed
        KILL_GRACE_S past the batch's largest ``max_seconds`` with a
        ``timeout`` failure, and the retry decides the task."""
        plan = FaultPlan([FaultSpec(kind="hang", key="simple_safe", attempts=(0,),
                                    seconds=60.0)])
        session = Session(VerifierOptions(max_seconds=0.5))
        with installed(plan):
            docs = session.run_many(
                ["simple_safe",
                 session.task("lock_step", options=VerifierOptions(max_seconds=1.0))],
                jobs=2,
            )
        by_name = {doc["name"]: doc for doc in docs}
        assert by_name["lock_step"]["verdict"] == "safe"
        assert by_name["lock_step"]["attempts"] == 1
        hung = by_name["simple_safe"]
        assert hung["verdict"] == "safe" and hung["attempts"] == 2
        (failure,) = hung["failures"]
        assert failure["kind"] == "timeout"
        assert 1.0 + KILL_GRACE_S <= failure["elapsed_seconds"] < 1.0 + KILL_GRACE_S + 5
        stats = session.last_supervisor.statistics()
        assert stats["task_timeout"] == 1.0 + KILL_GRACE_S
        assert stats["timeouts"] == 1

    def test_no_kill_without_a_wall_clock_budget(self):
        """One task without ``max_seconds`` leaves the whole batch unkilled:
        the engine, not the supervisor, bounds its runs."""
        session = Session(VerifierOptions(max_seconds=1.0))
        session.run_many(
            ["simple_safe", session.task("lock_step", options=VerifierOptions())],
            jobs=2,
        )
        assert session.last_supervisor.statistics()["task_timeout"] is None

    @pytest.mark.timeout(240)
    def test_persistently_crashing_task_settles_as_failure_record(self):
        """A task that crashes on *every* attempt must exhaust its retries
        and yield a structured failure doc — its siblings stay decided.

        Each task runs on its own worker, so every death is charged to the
        crasher alone: it settles after exactly its first attempt plus one
        retry, in worker processes, while the sibling completes normally."""
        plan = FaultPlan([FaultSpec(kind="crash", key="up_down", attempts=())])
        session = Session(OPTIONS.replace(task_retries=1))
        with installed(plan):
            docs = session.run_many(["up_down", "simple_safe"], jobs=2)
        by_name = {doc["name"]: doc for doc in docs}
        failed = by_name["up_down"]
        assert failed["verdict"] == "unknown"
        assert failed["failure"]["kind"] == "crash"
        assert failed["attempts"] == 2
        assert by_name["simple_safe"]["verdict"] == "safe"
        assert by_name["simple_safe"]["attempts"] == 1
        stats = session.last_supervisor.statistics()
        assert stats["tasks_failed"] == 1
        assert stats["degraded_to_sequential"] is False

    @pytest.mark.timeout(240)
    def test_one_worker_error_does_not_discard_the_batch(self):
        """The historical pool.map failure mode: one worker exception lost
        every task's result.  Supervised futures keep the siblings."""
        plan = FaultPlan([FaultSpec(kind="error", key="initcheck", attempts=())])
        session = Session(OPTIONS.replace(task_retries=0))
        with installed(plan):
            docs = session.run_many(["initcheck", "forward", "simple_unsafe"],
                                    jobs=3)
        by_name = {doc["name"]: doc for doc in docs}
        assert by_name["initcheck"]["verdict"] == "unknown"
        assert by_name["initcheck"]["failure"]["kind"] == "worker-error"
        assert by_name["forward"]["verdict"] == "safe"
        assert by_name["simple_unsafe"]["verdict"] == "unsafe"
