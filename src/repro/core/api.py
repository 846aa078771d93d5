"""The typed task/session API — the stable public surface of the verifier.

Three first-class objects replace the historical kwarg funnel:

* :class:`VerifierOptions` — every knob of a verification run as one frozen,
  validated dataclass, with ``to_dict``/``from_dict`` round-tripping and
  TOML/JSON file loading (``repro verify --options opts.toml``).
* :class:`VerificationTask` — *what* to verify: program source/AST/transition
  system, a task name, per-task option overrides, and an optional seed
  :class:`~repro.core.predabs.Precision`.
* :class:`Session` — *how* to run many tasks: owns the shared hash-consed
  :class:`~repro.smt.vcgen.VcChecker` (abstract-post verdicts are
  precision-independent, so tasks reuse each other's solver work), a
  :class:`PrecisionStore` keyed by program fingerprint, and a scheduler that
  runs tasks sequentially or on a process pool — **warm-starting** each task
  from precisions discovered earlier.  Predicates are picklable (they
  re-intern on load), so warm-start seeds travel *into* pool workers and
  discovered precisions travel *back*.

Every budget in :class:`VerifierOptions` holds for every entry point: the
checker enforces ``max_seconds`` and ``max_solver_calls`` in every layer
of a run, so a run ends within a fraction of a second of its wall-clock
budget, is never charged past its solver-call budget, and a tripped budget
always ends in verdict ``unknown`` with a reason.

Results come back as the unified :class:`~repro.core.engine.Result`
hierarchy, whose :meth:`~repro.core.engine.Result.to_json` document
(versioned by :data:`~repro.core.engine.RESULT_SCHEMA_VERSION`) is shared by
the CLI, :meth:`Session.run_many`, the daemon and the benchmark harness.
:func:`repro.verify` is a one-call convenience over an ephemeral session.

Quickstart::

    from repro import Session, VerifierOptions

    session = Session(VerifierOptions(refiner="path-invariant"))
    first = session.run("forward")            # cold: discovers the invariant
    again = session.run("forward")            # warm: strictly less work
    assert first.is_safe and again.is_safe
    assert again.post_decisions() < first.post_decisions()
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

try:  # advisory file locking for the disk-backed store (POSIX only)
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]

from ..lang.ast import FunctionDef
from ..lang.cfg import Program, build_program, program_from_source
from ..logic.formulas import Formula
from ..smt.vcgen import VcChecker
from . import faults as _faults
from .supervision import KILL_GRACE_S, RetryPolicy, Supervisor, WorkerSlot
from .engine import (
    RESULT_SCHEMA_VERSION,
    Budget,
    Result,
    Verdict,
    _run_batch_task,
    error_doc,
    run_engine,
    task_payload,
)
from .predabs import FRONTIER_NAMES, Precision
from .refiners import Refiner

__all__ = [
    "VerifierOptions",
    "VerificationTask",
    "PrecisionStore",
    "Session",
    "program_fingerprint",
    "RESULT_SCHEMA_VERSION",
]


def program_fingerprint(program: Program) -> str:
    """A stable identity of a transition system, portable across processes.

    Two parses of the same source yield the same fingerprint, which is what
    lets a :class:`PrecisionStore` recognise a program it has seen before —
    in another task, another session epoch, or another process.  The
    transitions are hashed in *sorted rendering order*.  The CFG builder's
    own order does not vary with the hash seed (``compact`` visits
    locations in name order), but it is an artefact of how compaction
    merges edges, while the fingerprint names the transition system, a set
    of transitions: sorting keeps a change to the builder's emission order
    from re-keying every precision a disk-backed store has banked.  Location
    names and the rendering itself are deterministic.
    """
    digest = hashlib.sha256()
    digest.update(program.name.encode())
    digest.update(b"|v:" + ",".join(program.variables).encode())
    digest.update(b"|a:" + ",".join(program.arrays).encode())
    digest.update(b"|i:" + program.initial.name.encode())
    digest.update(b"|e:" + program.error.name.encode())
    for rendered in sorted(str(transition) for transition in program.transitions):
        digest.update(b"|t:" + rendered.encode())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VerifierOptions:
    """Every product knob of a verification run, validated at construction.

    The references that tests and benchmarks compare against (restart
    mode, the scalar abstract post) and the portfolio's tuning are engine
    and checker constructor arguments, not options.

    Instances are frozen (safe to share across tasks and sessions) and
    round-trip losslessly through :meth:`to_dict`/:meth:`from_dict`; the CLI
    loads them from TOML or JSON files via :meth:`from_file`.  A removed
    knob is not kept as a disabled field: its key is rejected like any
    unknown key.
    """

    #: Refinement strategy: ``path-invariant`` (the paper), ``path-formula``
    #: (the BLAST-style baseline) or ``portfolio`` (both, round-robin under
    #: one shared budget).
    refiner: str = "path-invariant"
    #: ART exploration order: ``bfs``, ``dfs`` or ``error-distance``.
    strategy: str = "bfs"
    #: CEGAR iteration budget.
    max_refinements: int = 25
    #: Cumulative ART node budget (``None`` = unbounded).
    max_nodes: Optional[int] = 4000
    #: Wall-clock budget in seconds (``None`` = unbounded), enforced in
    #: every layer of the run: it ends within a fraction of a second of it.
    max_seconds: Optional[float] = None
    #: Checker triple-check budget (``None`` = unbounded); a run is never
    #: charged more.
    max_solver_calls: Optional[int] = None
    #: Let a :class:`Session` seed tasks from previously discovered
    #: precisions.  Seeding never changes a decided verdict (predicates only
    #: refine the abstraction); it removes refinement rounds already paid
    #: for.
    warm_start: bool = True
    #: How many times a supervised task is retried after a failure (worker
    #: crash / hang / worker exception) before it settles as verdict
    #: ``unknown`` with a structured ``failure`` record.  A worker is killed
    #: as hung :data:`~repro.core.supervision.KILL_GRACE_S` past its
    #: batch's largest ``max_seconds`` (see :meth:`Session.supervise`).
    task_retries: int = 2

    def __post_init__(self) -> None:
        from .verifier import ENGINE_REFINER_NAMES

        if self.refiner not in ENGINE_REFINER_NAMES:
            raise ValueError(
                f"unknown refiner {self.refiner!r}; expected one of {ENGINE_REFINER_NAMES}"
            )
        if self.strategy not in FRONTIER_NAMES:
            raise ValueError(
                f"unknown exploration strategy {self.strategy!r}; "
                f"expected one of {FRONTIER_NAMES}"
            )
        if self.max_refinements < 0:
            raise ValueError(f"max_refinements must be >= 0, got {self.max_refinements}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1 or None, got {self.max_nodes}")
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError(f"max_seconds must be >= 0 or None, got {self.max_seconds}")
        if self.max_solver_calls is not None and self.max_solver_calls < 1:
            raise ValueError(
                f"max_solver_calls must be >= 1 or None, got {self.max_solver_calls}"
            )
        if self.task_retries < 0:
            raise ValueError(f"task_retries must be >= 0, got {self.task_retries}")

    # ------------------------------------------------------------------
    def budget(self) -> Budget:
        """The engine-level :class:`Budget` these options describe."""
        return Budget(
            max_refinements=self.max_refinements,
            max_nodes=self.max_nodes,
            max_seconds=self.max_seconds,
            max_solver_calls=self.max_solver_calls,
        )

    def replace(self, **changes: Any) -> "VerifierOptions":
        """A copy with ``changes`` applied (validated like a fresh instance)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """A JSON/TOML-safe dict; ``from_dict`` inverts it exactly."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VerifierOptions":
        """Build options from a mapping; unknown keys are an error."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown option keys {unknown}; expected a subset of {sorted(known)}"
            )
        return cls(**dict(data))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "VerifierOptions":
        """Load options from a ``.toml`` or ``.json`` file.

        TOML has no null, so optional knobs (``max_seconds``,
        ``max_solver_calls``, ...) are simply omitted there.
        """
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError as error:  # pragma: no cover - Python 3.10
                raise ValueError(
                    f"{path}: TOML options files need Python 3.11+ "
                    "(tomllib); use a .json file instead"
                ) from error

            data = tomllib.loads(text)
        else:
            data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a table/object of options")
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass
class VerificationTask:
    """One unit of verification work: a program plus how to verify it.

    ``program`` may be mini-C source text, a parsed
    :class:`~repro.lang.ast.FunctionDef`, or a built
    :class:`~repro.lang.cfg.Program`.  ``options`` overrides the session's
    defaults for this task only.  ``initial_precision`` seeds the abstraction
    explicitly (a session otherwise seeds from its own store when
    ``warm_start`` is on).  ``refiner`` optionally pins a concrete
    :class:`~repro.core.refiners.Refiner` *instance* — an in-process escape
    hatch that never crosses a pool (named refiners in ``options`` do).
    """

    program: Union[str, FunctionDef, Program]
    name: Optional[str] = None
    options: Optional[VerifierOptions] = None
    initial_precision: Optional[Precision] = None
    refiner: Optional[Refiner] = None
    _resolved: Optional[Program] = field(
        default=None, init=False, repr=False, compare=False
    )
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def source(self) -> Optional[str]:
        """The raw source text, when the task was built from one."""
        return self.program if isinstance(self.program, str) else None

    def resolved(self) -> Program:
        """The transition system (parsed/built once, then cached)."""
        if self._resolved is None:
            program = self.program
            if isinstance(program, str):
                program = program_from_source(program)
            elif isinstance(program, FunctionDef):
                program = build_program(program)
            self._resolved = program
            if self.name is None:
                self.name = program.name
        return self._resolved

    @property
    def fingerprint(self) -> str:
        """The resolved program's :func:`program_fingerprint` (cached)."""
        if self._fingerprint is None:
            self._fingerprint = program_fingerprint(self.resolved())
        return self._fingerprint


# ----------------------------------------------------------------------
# The precision store
# ----------------------------------------------------------------------
#: Framing of one journal record: magic, 4-byte big-endian payload length,
#: then the pickled ``(fingerprint, payload)`` pair.  A torn tail (partial
#: record from a crashed writer) is detected by the framing and dropped.
_JOURNAL_MAGIC = b"RJN1"

#: Fold the journal into a fresh snapshot once it grows past this.
JOURNAL_COMPACT_BYTES = 256 * 1024


class PrecisionStore:
    """Discovered predicates, keyed by program fingerprint.

    Internally location-*name* indexed (names are stable across parses and
    processes, unlike :class:`~repro.lang.cfg.Location` identities), merging
    monotonically: re-verifying a program only ever adds predicates.
    Payloads are picklable, so a session can ship them into pool workers and
    merge what comes back — and, with ``path`` set, the whole map survives
    *process lifetimes*: the store loads (merges) the file's contents at
    construction and writes them back so a service restart or a later CI
    shard warm-starts from everything earlier runs discovered.  Formulas
    pickle via ``__reduce__`` and re-intern on load.

    The disk form is **crash-safe and multi-session-safe**:

    * every write happens under an advisory ``flock`` on a *stable* sibling
      ``<name>.lock`` file (never deleted or replaced — locking the snapshot
      itself would race its own atomic-replace inode swap);
    * :meth:`bank` appends one fsynced record to an append-only sibling
      ``<name>.journal`` instead of rewriting the snapshot, so concurrent
      sessions interleave records rather than overwrite each other;
    * :meth:`save` *merges on write*: under the lock it re-reads whatever is
      on disk (snapshot plus journal — including other sessions' records),
      folds it into memory, then atomically replaces the snapshot and
      truncates the journal.  Two sessions banking concurrently both land
      their predicates; last-writer-wins is gone;
    * a corrupted or truncated snapshot (torn write, bad disk) is
      **quarantined** — renamed to ``<name>.corrupt``, a ``RuntimeWarning``
      issued — and the store starts cold instead of crashing the session;
      a torn journal tail is silently dropped (the framing detects it).
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._store: dict[str, dict[str, set[Formula]]] = {}
        #: Each fingerprint's sorted payload, kept until a merge adds to it.
        self._payloads: dict[str, dict[str, tuple[Formula, ...]]] = {}
        self.path = Path(path) if path is not None else None
        #: Snapshot files quarantined (renamed ``*.corrupt``) by this store.
        self.quarantined: list[Path] = []
        if self.path is not None:
            self._load_own()

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        """The append-only merge journal next to the snapshot."""
        assert self.path is not None
        return self.path.with_name(self.path.name + ".journal")

    @staticmethod
    @contextlib.contextmanager
    def _locked_path(target: Path) -> Iterator[None]:
        """Hold the advisory lock guarding ``target`` and its journal.

        The lock lives on a separate, stable file: ``flock`` is per-inode,
        and :meth:`save` replaces the snapshot's inode, so locking the
        snapshot itself would let two processes each hold "the" lock.
        No-op where ``fcntl`` is unavailable (Windows): single-process
        correctness is unaffected, only cross-process exclusion is lost.
        """
        if fcntl is None:  # pragma: no cover - Windows
            yield
            return
        lock = target.with_name(target.name + ".lock")
        lock.parent.mkdir(parents=True, exist_ok=True)
        with open(lock, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _load_own(self) -> int:
        """Load this store's own snapshot + journal (quarantining, not raising)."""
        path = self.path
        assert path is not None
        if not (path.exists() or self.journal_path.exists()):
            return 0  # nothing on disk: create no files at construction
        with self._locked_path(path):
            added = self._read_snapshot_with_quarantine(path)
            added += self._replay_journal(self.journal_path)
        return added

    def _read_snapshot_with_quarantine(self, path: Path) -> int:
        """Read the own snapshot; quarantine it if it will not parse.

        The fault-injection ``store-load`` site fires here (keyed by the
        path and its basename): ``corrupt-store`` truncates the file before
        the read, ``flaky-pickle`` makes one read raise transiently.  One
        retry distinguishes the two — a transient error recovers, a
        corrupted file fails twice and is quarantined.
        """
        if not path.exists():
            return 0
        last_error: Optional[Exception] = None
        for attempt in range(2):
            spec = _faults.fire("store-load", (str(path), path.name), attempt)
            try:
                if spec is not None:
                    if spec.kind == "corrupt-store":
                        _faults.corrupt_file(path)
                    elif spec.kind == "flaky-pickle":
                        raise pickle.UnpicklingError("injected flaky pickle read")
                return self.load(path)
            except (ValueError, OSError, EOFError, pickle.UnpicklingError) as error:
                last_error = error
        self._quarantine(path, last_error)
        return 0

    def _quarantine(self, path: Path, error: Optional[Exception]) -> Path:
        """Rename a corrupt snapshot aside and warn; the store starts cold."""
        target = path.with_name(path.name + ".corrupt")
        counter = 0
        while target.exists():
            counter += 1
            target = path.with_name(f"{path.name}.corrupt.{counter}")
        os.replace(path, target)
        self.quarantined.append(target)
        warnings.warn(
            f"{path}: corrupt precision store quarantined to {target.name}; "
            f"starting cold ({error!r})",
            RuntimeWarning,
            stacklevel=4,
        )
        return target

    def _replay_journal(self, journal: Path) -> int:
        """Merge every intact journal record; a torn tail is dropped."""
        if not journal.exists():
            return 0
        try:
            data = journal.read_bytes()
        except OSError:
            return 0
        added, offset = 0, 0
        while offset + 8 <= len(data):
            if data[offset : offset + 4] != _JOURNAL_MAGIC:
                break  # garbage: stop replaying, keep what we have
            length = int.from_bytes(data[offset + 4 : offset + 8], "big")
            end = offset + 8 + length
            if end > len(data):
                break  # torn tail: a crashed writer's partial record
            try:
                fingerprint, payload = pickle.loads(data[offset + 8 : end])
                added += self.merge(fingerprint, payload or {})
            except Exception:
                break
            offset = end
        return added

    def load(self, path: Union[str, Path]) -> int:
        """Merge a saved store file into this one; returns predicates added.

        Loading *merges* (monotonically, like everything else here) rather
        than replacing, so a store can aggregate several files.  A file that
        is not a precision store raises ``ValueError`` — quarantine-and-
        continue applies only to the store's *own* snapshot at construction.
        """
        with open(path, "rb") as handle:
            try:
                payload = pickle.load(handle)
            except Exception as error:
                raise ValueError(
                    f"{path}: not a precision-store file ({error!r})"
                ) from error
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: not a precision-store file")
        added = 0
        for fingerprint, by_name in payload.items():
            added += self.merge(fingerprint, by_name)
        return added

    def bank(self, fingerprint: str) -> Path:
        """Durably land one fingerprint's predicates without a full rewrite.

        Appends a single fsynced record to the journal under the lock —
        concurrent sessions interleave instead of overwriting — then
        compacts (:meth:`save`) when the snapshot does not exist yet or the
        journal has outgrown :data:`JOURNAL_COMPACT_BYTES`.
        """
        if self.path is None:
            raise ValueError("no path: bank() needs a disk-backed store")
        record = pickle.dumps((fingerprint, self.payload(fingerprint) or {}))
        journal = self.journal_path
        with self._locked_path(self.path):
            journal.parent.mkdir(parents=True, exist_ok=True)
            with open(journal, "ab") as handle:
                handle.write(_JOURNAL_MAGIC)
                handle.write(len(record).to_bytes(4, "big"))
                handle.write(record)
                handle.flush()
                os.fsync(handle.fileno())
            journal_size = journal.stat().st_size
            compact = not self.path.exists() or journal_size > JOURNAL_COMPACT_BYTES
        if compact:  # save() takes the lock itself: do not hold it here
            self.save()
        return self.path

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Merge-on-write the store to ``path`` (default: its own ``path``).

        Under the advisory lock: re-read whatever is on disk (another
        session may have written since we loaded; a corrupt snapshot is
        quarantined), replay the journal, fold both into memory, then
        atomically replace the snapshot (temp file + ``os.replace``) and
        truncate the journal.  The result is the *union* of both sessions'
        predicates — the concurrent-write semantics the monotone store
        always promised.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path: pass save(path) or construct with path=")
        target.parent.mkdir(parents=True, exist_ok=True)
        own = self.path is not None and target == self.path
        with self._locked_path(target):
            if target.exists():
                try:
                    self.load(target)  # merge-on-write: fold in others' work
                except (ValueError, OSError) as error:
                    self._quarantine(target, error)
            if own:
                self._replay_journal(self.journal_path)
            payload = {}
            for fingerprint in self.fingerprints():
                predicates = self.payload(fingerprint)
                if predicates:
                    payload[fingerprint] = predicates
            temp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
            try:
                with open(temp, "wb") as handle:
                    pickle.dump(payload, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(temp, target)
            finally:
                if temp.exists():  # only on a failed dump; os.replace consumed it
                    temp.unlink()
            if own and self.journal_path.exists():
                self.journal_path.unlink()
        return target

    # ------------------------------------------------------------------
    def merge(
        self, fingerprint: str, by_name: Mapping[str, Iterable[Formula]]
    ) -> int:
        """Merge a location-name payload; returns how many predicates are new."""
        entry = self._store.setdefault(fingerprint, {})
        added = 0
        for location, predicates in by_name.items():
            bucket = entry.setdefault(location, set())
            for predicate in predicates:
                if predicate not in bucket:
                    bucket.add(predicate)
                    added += 1
        if added:
            self._payloads.pop(fingerprint, None)
        return added

    def update(self, fingerprint: str, precision: Precision) -> int:
        """Merge a run's discovered :class:`Precision` into the store."""
        return self.merge(fingerprint, precision.by_location_name())

    def payload(self, fingerprint: str) -> Optional[dict[str, tuple[Formula, ...]]]:
        """The stored predicates as a picklable location-name payload.

        The predicates are sorted once per change: the payload is kept until
        a merge adds to the fingerprint.  Each call returns a new dict of
        immutable tuples, so no caller can change what later callers get.
        """
        payload = self._payloads.get(fingerprint)
        if payload is None:
            entry = self._store.get(fingerprint)
            if not entry:
                return None
            payload = self._payloads[fingerprint] = {
                location: tuple(sorted(predicates, key=str))
                for location, predicates in entry.items()
                if predicates
            }
        return dict(payload)

    def seed_for(self, fingerprint: str, program: Program) -> Optional[Precision]:
        """A :class:`Precision` bound to ``program``'s locations, or ``None``."""
        payload = self.payload(fingerprint)
        if payload is None:
            return None
        return Precision.from_location_names(program, payload)

    # ------------------------------------------------------------------
    def fingerprints(self) -> list[str]:
        return sorted(self._store)

    def total_predicates(self, fingerprint: str) -> int:
        return sum(len(p) for p in self._store.get(fingerprint, {}).values())

    def __contains__(self, fingerprint: str) -> bool:
        return bool(self._store.get(fingerprint))

    def __len__(self) -> int:
        return len(self._store)


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class Session:
    """A reusable verification context: shared checker, precisions, scheduler.

    One session amortises everything that outlives a single task:

    * the hash-consed :class:`~repro.smt.vcgen.VcChecker` (memoised Hoare
      triples and abstract-post verdicts, shared by every in-process task);
    * the :class:`PrecisionStore` — each decided task's discovered predicates
      are banked under the program's fingerprint, and later tasks on the
      same program **warm-start** from them (strictly fewer abstract-post
      decisions on reruns; a seed can never flip a decided verdict);
    * the scheduler — :meth:`run` executes one task in-process,
      :meth:`supervise` runs tasks on worker processes (the pool of
      :meth:`run_many` and the daemon's borrowed workers alike).  Workers
      receive warm-start seeds and ship their discovered precisions back
      (predicates pickle and re-intern), so the bank grows even when the
      work happened in another process.

    Every run is settled the same way (:meth:`_settle`), under one session
    lock that also guards every read of the store, so threads supervising
    runs at once (the daemon's executor threads) see a coherent bank.

    A long-lived session also remembers which fingerprint each recently
    seen source text has (:meth:`identify`), so the daemon fingerprints a
    resubmitted source without parsing it again.
    """

    #: Source texts whose fingerprint and program name :meth:`identify`
    #: remembers, least recently used dropped first; an entry is a 32-byte
    #: digest plus two short strings (~300 bytes).
    PARSED_SOURCES = 1024

    def __init__(
        self,
        options: Optional[VerifierOptions] = None,
        checker: Optional[VcChecker] = None,
        store: Optional[PrecisionStore] = None,
        store_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.options = options or VerifierOptions()
        self.checker = checker if checker is not None else VcChecker()
        if store is not None and store_path is not None:
            raise ValueError("pass either store= or store_path=, not both")
        #: With ``store_path`` the precision bank is disk-backed: existing
        #: contents are merged in at construction and every newly banked
        #: predicate triggers an atomic re-save, so warm starts survive a
        #: process restart (see :class:`PrecisionStore`).
        self.store = store if store is not None else PrecisionStore(path=store_path)
        #: Held while a run is settled and while the store is read.
        self._lock = threading.Lock()
        #: Scheduler counters: tasks run, warm starts granted, precisions
        #: banked (see :meth:`statistics`).
        self.tasks_run = 0
        self.warm_starts = 0
        self.predicates_banked = 0
        #: :meth:`identify`'s memo, source digest -> (fingerprint, program
        #: name), least recently used first, and the lookups it answered.
        #: Its own lock: the session lock is held across store writes.
        self._parsed: dict[bytes, tuple[str, str]] = {}
        self._parsed_lock = threading.Lock()
        self.parse_hits = 0
        #: The :class:`~repro.core.supervision.Supervisor` of the most
        #: recent :meth:`run_many` pool batch (``None`` before the first) —
        #: its counters surface in :meth:`statistics` as ``supervision``.
        self.last_supervisor: Optional[Supervisor] = None

    # ------------------------------------------------------------------
    def task(
        self,
        program: Union[str, FunctionDef, Program, VerificationTask],
        name: Optional[str] = None,
        options: Optional[VerifierOptions] = None,
        initial_precision: Optional[Precision] = None,
        refiner: Optional[Refiner] = None,
    ) -> VerificationTask:
        """Normalise anything task-like into a :class:`VerificationTask`.

        A plain string is looked up among the built-in benchmark programs
        first (``session.run("forward")``), then treated as source text.
        Nothing is parsed here: the task parses its program when first
        resolved, and :meth:`identify` fingerprints a source text this
        session has parsed before without parsing it again.
        """
        if isinstance(program, VerificationTask):
            return program
        if isinstance(program, str):
            from ..lang.programs import PROGRAMS

            if program in PROGRAMS:
                name = name or program
                program = PROGRAMS[program].source
        return VerificationTask(
            program,
            name=name,
            options=options,
            initial_precision=initial_precision,
            refiner=refiner,
        )

    def identify(self, task: VerificationTask) -> str:
        """``task.fingerprint``, parsing each source text once per session.

        The daemon fingerprints every request's source here.  The first
        time a source text comes by, the task resolves (parses) it and the
        session remembers its fingerprint and program name under a digest
        of the text; a later task on the same text takes both from that
        memo with no front-end work and counts a ``parse_hits``.  A source
        that does not parse raises and is never remembered.  The memo keeps
        the :attr:`PARSED_SOURCES` most recently identified texts.  A task
        built from a program or AST is fingerprinted as usual.
        """
        source = task.source
        if source is None:
            return task.fingerprint
        key = hashlib.sha256(source.encode()).digest()
        with self._parsed_lock:
            known = self._parsed.pop(key, None)
            if known is not None:
                self.parse_hits += 1
        if known is None:
            known = (task.fingerprint, task.resolved().name)
        else:
            task._fingerprint = known[0]
            if task.name is None:
                task.name = known[1]
        with self._parsed_lock:
            self._parsed[key] = known
            while len(self._parsed) > self.PARSED_SOURCES:
                del self._parsed[next(iter(self._parsed))]
        return known[0]

    # ------------------------------------------------------------------
    def run(
        self,
        task: Union[str, FunctionDef, Program, VerificationTask],
        **task_kwargs: Any,
    ) -> Result:
        """Run one task in-process and bank its discovered precision."""
        task = self.task(task, **task_kwargs)
        opts = task.options or self.options
        program = task.resolved()
        seed = task.initial_precision
        warm = False
        if seed is None and opts.warm_start:
            with self._lock:
                seed = self.store.seed_for(task.fingerprint, program)
            warm = seed is not None
        result = run_engine(program, opts, self.checker, seed, refiner=task.refiner)
        with self._lock:
            self._settle(
                task.fingerprint,
                warm,
                seed.total_predicates() if seed else 0,
                result.verdict,
                result.precision.by_location_name() if result.precision else None,
                result.engine_stats,
            )
        return result

    def supervise(
        self,
        tasks: Sequence[VerificationTask],
        jobs: int = 1,
        slot: Optional[WorkerSlot] = None,
    ) -> tuple[list[dict[str, Any]], list[Optional[dict]], Supervisor]:
        """Run resolved source ``tasks`` on worker processes and settle them.

        The one out-of-process task path: :meth:`run_many`'s pool and the
        daemon both run their tasks here.  Each task is seeded from the
        store when its options allow warm start, shipped as an
        :func:`~repro.core.engine.task_payload` and run by one
        :class:`~repro.core.supervision.Supervisor`, on ``jobs`` worker
        slots of its own or on the borrowed ``slot``.  The supervisor kills
        a worker as hung :data:`~repro.core.supervision.KILL_GRACE_S` past
        the batch's largest ``max_seconds`` (never, when a task has none:
        the engine already ends every run at its own budget) and grants the
        batch's largest ``task_retries``.  Each document is then settled
        like :meth:`run` settles a result.

        Returns the documents (input order), each decided run's discovered
        precision as a location-name payload (``None`` for the others), and
        the supervisor, whose counters describe the batch.
        """
        options = [task.options or self.options for task in tasks]
        with self._lock:
            seeds = [
                self.store.payload(task.fingerprint) if opts.warm_start else None
                for task, opts in zip(tasks, options)
            ]
        budgets = [opts.max_seconds for opts in options]
        supervisor = Supervisor(
            worker=_run_batch_task,
            jobs=jobs,
            task_timeout=(
                None if None in budgets or not budgets else max(budgets) + KILL_GRACE_S
            ),
            retry=RetryPolicy(
                max_retries=max((opts.task_retries for opts in options), default=0)
            ),
            slot=slot,
        )
        docs = supervisor.run_batch(
            [
                task_payload(task.name, task.source, opts, seed)
                for task, opts, seed in zip(tasks, options, seeds)
            ],
            keys=[(task.fingerprint,) for task in tasks],
        )
        precisions = [doc.pop("_precision", None) for doc in docs]
        with self._lock:
            for task, seed, doc, precision in zip(tasks, seeds, docs, precisions):
                # A worker that crashed or errored never ran warm: the run is
                # only counted.
                failed = doc.get("verdict") == "error" or doc.get("failure")
                self._settle(
                    task.fingerprint,
                    bool(seed),
                    sum(len(preds) for preds in (seed or {}).values()),
                    doc.get("verdict"),
                    precision,
                    None if failed else doc.setdefault("engine", {}),
                )
        return docs, precisions, supervisor

    def _settle(
        self,
        fingerprint: str,
        warm: bool,
        seeded: int,
        verdict: Optional[str],
        precision: Optional[Mapping[str, Iterable[Formula]]],
        engine: Optional[dict[str, Any]],
    ) -> None:
        """Settle one finished run; the caller holds the session lock.

        Counts the run and its warm start, banks its precision and stamps
        ``engine["session"]``; a run without ``engine`` (it failed before
        deciding anything) is only counted.  Only decided runs bank: an
        undecided run's precision is dominated by whatever made it diverge
        (e.g. the path-formula flood), and seeding from it would make later
        runs *slower*.  A disk-backed store is re-saved whenever banking
        actually added predicates.
        """
        self.tasks_run += 1
        if engine is None:
            return
        if warm:
            self.warm_starts += 1
        if precision and verdict in (Verdict.SAFE, Verdict.UNSAFE):
            added = self.store.merge(fingerprint, precision)
            self.predicates_banked += added
            if added and self.store.path is not None:
                self.store.bank(fingerprint)
        engine["session"] = {
            "fingerprint": fingerprint,
            "warm_started": warm,
            "seeded_predicates": seeded,
        }

    # ------------------------------------------------------------------
    def run_many(
        self,
        tasks: Sequence[Union[str, tuple[str, str], dict, VerificationTask]],
        jobs: Optional[int] = None,
    ) -> list[dict[str, Any]]:
        """Verify a corpus; returns one versioned JSON document per task.

        ``jobs=None`` picks ``min(len(tasks), cpu_count)``; ``1`` runs
        sequentially in-process (tasks later in the list then warm-start
        from earlier ones on the same program).  With ``jobs > 1`` the
        tasks run on ``jobs`` worker processes through :meth:`supervise`;
        seeds reflect the store at submit time and every worker ships its
        discovered precision back, so the bank still grows.  Worker
        processes require every task to be shippable — if *any* task lacks
        source text (pre-built program) or pins an in-process refiner
        instance or seed precision, the **whole batch** runs sequentially.

        The worker path is **supervised** (see
        :class:`~repro.core.supervision.Supervisor`): each worker runs one
        task at a time, so a crash or hang is charged to exactly that task
        and retried with backoff on a fresh worker (``task_retries``; a
        worker still running past its batch's largest ``max_seconds`` plus
        a grace is killed as hung); when worker processes cannot start at
        all the batch runs in-process; and a task that exhausts its retries
        yields verdict ``unknown`` with a structured ``failure`` record — no
        exception ever escapes to the caller, and one bad task never
        discards its siblings' results.
        """
        normalised = [self._coerce(entry) for entry in tasks]
        if jobs is None:
            jobs = min(len(normalised), os.cpu_count() or 1)
        poolable = jobs > 1 and len(normalised) > 1 and all(
            task.source is not None and task.refiner is None
            and task.initial_precision is None
            for task in normalised
        )
        if poolable:
            # A task whose source does not even parse becomes an error doc
            # here instead of aborting the batch (the same isolation the
            # workers give runtime errors).
            docs: list[Optional[dict[str, Any]]] = []
            resolved = []
            for index, task in enumerate(normalised):
                try:
                    task.resolved()
                except Exception as error:
                    with self._lock:
                        self.tasks_run += 1
                    docs.append(error_doc(task.name or f"task{index}", error))
                else:
                    docs.append(None)
                    resolved.append(task)
            settled, _, self.last_supervisor = self.supervise(resolved, jobs=jobs)
            results = iter(settled)
            return [doc if doc is not None else next(results) for doc in docs]
        docs = []
        for index, task in enumerate(normalised):
            # Per-task isolation, matching the pool workers: one malformed
            # source must yield an error doc, not abort the whole batch.
            before = self.tasks_run
            try:
                docs.append(self.run(task).to_json(name=task.name))
            except Exception as error:
                if self.tasks_run == before:
                    # run() raised before its own accounting (parse failure):
                    # the task still happened, keep the counters path-agnostic.
                    self.tasks_run += 1
                docs.append(error_doc(task.name or f"task{index}", error))
        return docs

    def _coerce(self, entry: Any) -> VerificationTask:
        if isinstance(entry, VerificationTask):
            return entry
        if isinstance(entry, tuple):
            name, source = entry
            return VerificationTask(source, name=name)
        if isinstance(entry, dict):
            options = entry.get("options")
            if isinstance(options, Mapping):
                options = VerifierOptions.from_dict(options)
            return VerificationTask(
                entry["source"], name=entry.get("name"), options=options
            )
        return self.task(entry)

    # ------------------------------------------------------------------
    def store_summary(self) -> dict[str, Any]:
        """The store's programs, predicates, sorted fingerprints and path,
        read under the session lock."""
        with self._lock:
            fingerprints = self.store.fingerprints()
            predicates = sum(self.store.total_predicates(fp) for fp in fingerprints)
        return {
            "programs": len(fingerprints),
            "predicates": predicates,
            "path": str(self.store.path) if self.store.path is not None else None,
            "fingerprints": fingerprints,
        }

    def save_store(self) -> Path:
        """:meth:`PrecisionStore.save` under the session lock: merge-on-write
        folds other sessions' predicates into the bank, so it must not
        overlap a settle or a store read."""
        with self._lock:
            return self.store.save()

    def statistics(self) -> dict[str, Any]:
        """Session-level counters: scheduler, store, checker and its caches."""
        stats = {
            "tasks_run": self.tasks_run,
            "warm_starts": self.warm_starts,
            "predicates_banked": self.predicates_banked,
            "programs_known": len(self.store),
            "parse_hits": self.parse_hits,
            "parsed_sources": len(self._parsed),
            "checker": self.checker.statistics(),
            "checker_caches": self.checker.cache_sizes(),
        }
        if self.last_supervisor is not None:
            stats["supervision"] = self.last_supervisor.statistics()
        return stats
