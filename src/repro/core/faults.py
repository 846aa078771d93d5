"""Deterministic, seedable fault injection for the supervised execution layer.

Every failure path the :class:`~repro.core.supervision.Supervisor` and the
crash-safe :class:`~repro.core.api.PrecisionStore` claim to survive is
exercised through this module rather than through ad-hoc monkeypatching:
a :class:`FaultPlan` names *exactly* which fault fires where (keyed by task
name / program fingerprint / store path **and attempt number**), so a test
can say "the worker running ``forward`` crashes on its first attempt and
only then" and get the same execution every time.

The harness is inert unless a plan is explicitly installed::

    from repro.core.faults import FaultPlan, FaultSpec, installed

    plan = FaultPlan([FaultSpec(kind="crash", key="forward", attempts=(0,))])
    with installed(plan):
        docs = session.run_many(["forward", "lock_step"], jobs=2)

Plans serialise to a JSON-safe payload (:meth:`FaultPlan.to_payload`) so the
supervisor can ship them into pool workers — the worker re-installs the plan
before running its task, which is how an injected ``crash`` actually kills a
*worker process* (``os._exit``) rather than raising a tidy exception in the
parent.

Fault kinds
-----------

==================  =====================  ==================================
kind                site                   effect when fired
==================  =====================  ==================================
``crash``           ``task``               worker: ``os._exit`` (hard death,
                                           no exception, no cleanup);
                                           in-process: raises
                                           :class:`InjectedCrash`
``hang``            ``task``               worker: sleeps ``seconds``
                                           (default far past any timeout);
                                           in-process: raises
                                           :class:`InjectedHang` (a real
                                           in-process sleep would block the
                                           caller forever)
``slow``            ``task``               sleeps ``seconds`` then proceeds
                                           normally (exercises near-timeout
                                           behaviour)
``error``           ``task``               raises :class:`InjectedError`
                                           (an infrastructure-level worker
                                           exception, retryable)
``corrupt-store``   ``store-load``         truncates the store snapshot on
                                           disk before it is read (a torn
                                           write; the load path must
                                           quarantine and start cold)
``flaky-pickle``    ``store-load``         the snapshot read raises a
                                           transient unpickling error (the
                                           load path retries, then
                                           quarantines)
``drop-connection`` ``serve-response``     the daemon closes the client's
                                           TCP connection instead of writing
                                           the response (a network drop
                                           mid-response; the client must
                                           turn the EOF into a structured
                                           failure doc, and the server-side
                                           result must still be banked)
``slow-client``     ``client-send``        the client splits its request
                                           bytes and sleeps ``seconds``
                                           between the halves (a slow/
                                           trickling sender; the daemon's
                                           per-connection reader must not
                                           stall other connections)
``kill-worker``     ``task``               worker: ``SIGKILL`` of the worker
                                           process itself — a genuine
                                           ``kill -9`` mid-request, not a
                                           tidy exit (exercises the
                                           process-backend daemon's crash
                                           isolation); in-process: raises
                                           :class:`InjectedCrash`
``journal-torn-write``  ``journal-append``  the request journal writes only a
                                           partial record (a torn write from
                                           a crash mid-``write``); recovery
                                           must detect the framing violation
                                           and drop the tail
==================  =====================  ==================================

Determinism: a spec with ``probability < 1`` gates on a SHA-256 of
``(seed, site, key, attempt)`` — the same plan, seed and schedule always
fire the same faults, with no global random state involved.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "CRASH_EXIT_CODE",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "InjectedCrash",
    "InjectedHang",
    "InjectedError",
    "install",
    "uninstall",
    "installed",
    "active_plan",
    "fire",
]

#: Every fault kind a spec may name.
FAULT_KINDS = (
    "crash", "hang", "slow", "error", "corrupt-store", "flaky-pickle",
    "drop-connection", "slow-client", "kill-worker", "journal-torn-write",
)

#: Instrumented sites and the kinds that fire there.
FAULT_SITES = {
    "task": ("crash", "hang", "slow", "error", "kill-worker"),
    "store-load": ("corrupt-store", "flaky-pickle"),
    "serve-response": ("drop-connection",),
    "client-send": ("slow-client",),
    "journal-append": ("journal-torn-write",),
}

#: Exit status of an injected worker crash — distinctive enough that a test
#: reading a dead worker's status can tell an injected death from a real one.
CRASH_EXIT_CODE = 73


class InjectedFault(RuntimeError):
    """Base class of every exception the harness raises."""


class InjectedCrash(InjectedFault):
    """An injected worker death, surfaced as an exception when there is no
    worker process to kill (the supervisor's in-process sequential path)."""


class InjectedHang(InjectedFault):
    """An injected hang, surfaced as an exception in-process (actually
    sleeping would block the caller forever with nobody left to kill it)."""


class InjectedError(InjectedFault):
    """An injected infrastructure-level worker exception (retryable)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what fires, where, and on which attempts.

    ``key`` matches a task name, a program fingerprint or a store path
    (``"*"`` matches anything).  ``attempts`` is the set of attempt numbers
    (0-based) the fault fires on — the empty tuple means *every* attempt,
    which is how a test builds a task that never succeeds.  ``max_fires``
    bounds total firings of this spec within one installed plan (in-process
    only: a plan shipped to a pool worker is re-installed per task, so
    cross-process firing counts are deliberately not shared — key on
    ``attempts`` instead for cross-process determinism).
    """

    kind: str
    key: str = "*"
    attempts: tuple[int, ...] = (0,)
    seconds: float = 3600.0
    probability: float = 1.0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not isinstance(self.attempts, tuple):
            object.__setattr__(self, "attempts", tuple(self.attempts))
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1 or None, got {self.max_fires}")

    @property
    def site(self) -> str:
        """The instrumented site this fault kind belongs to."""
        for site, kinds in FAULT_SITES.items():
            if self.kind in kinds:
                return site
        raise AssertionError(f"kind {self.kind!r} has no site")  # pragma: no cover

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "attempts": list(self.attempts),
            "seconds": self.seconds,
            "probability": self.probability,
            "max_fires": self.max_fires,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            key=data.get("key", "*"),
            attempts=tuple(data.get("attempts", (0,))),
            seconds=data.get("seconds", 3600.0),
            probability=data.get("probability", 1.0),
            max_fires=data.get("max_fires"),
        )


@dataclass
class FaultPlan:
    """An ordered set of :class:`FaultSpec` plus the determinism seed.

    The first spec matching ``(site, key, attempt)`` wins.  ``fired`` records
    every firing (spec index, site, key, attempt) for test assertions.
    """

    specs: Sequence[FaultSpec] = ()
    seed: int = 0
    fired: list[tuple[int, str, str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.specs = tuple(
            spec if isinstance(spec, FaultSpec) else FaultSpec.from_dict(spec)
            for spec in self.specs
        )

    # ------------------------------------------------------------------
    def match(
        self, site: str, keys: Sequence[str], attempt: int
    ) -> Optional[FaultSpec]:
        """The first spec that fires at ``site`` for any of ``keys``."""
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.key != "*" and spec.key not in keys:
                continue
            if spec.attempts and attempt not in spec.attempts:
                continue
            if spec.max_fires is not None:
                fires = sum(1 for record in self.fired if record[0] == index)
                if fires >= spec.max_fires:
                    continue
            matched_key = spec.key if spec.key != "*" else (keys[0] if keys else "*")
            if spec.probability < 1.0 and not self._gate(
                site, matched_key, attempt, spec.probability
            ):
                continue
            self.fired.append((index, site, matched_key, attempt))
            return spec
        return None

    def _gate(self, site: str, key: str, attempt: int, probability: float) -> bool:
        """Deterministic pseudo-random gate keyed by the plan seed."""
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{key}|{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return fraction < probability

    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """A JSON-safe form that crosses process pools losslessly."""
        return {"seed": self.seed, "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            specs=tuple(
                FaultSpec.from_dict(spec) for spec in payload.get("specs", ())
            ),
            seed=payload.get("seed", 0),
        )


# ----------------------------------------------------------------------
# The process-global installed plan (None = harness inert)
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` process-wide; returns it for chaining."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def uninstall() -> None:
    """Deactivate fault injection (the default state)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None`` when the harness is inert."""
    return _ACTIVE


@contextlib.contextmanager
def installed(plan: FaultPlan):
    """Install ``plan`` for the duration of the block (exception-safe)."""
    previous = active_plan()
    install(plan)
    try:
        yield plan
    finally:
        if previous is None:
            uninstall()
        else:
            install(previous)


# ----------------------------------------------------------------------
# Firing
# ----------------------------------------------------------------------
def fire(
    site: str,
    keys: Union[str, Sequence[str]],
    attempt: int = 0,
    in_worker: bool = False,
) -> Optional[FaultSpec]:
    """Fire the installed plan's matching fault at ``site``, if any.

    ``task``-site faults act here: ``crash`` kills the worker process
    outright (or raises :class:`InjectedCrash` in-process), ``hang`` sleeps
    past any reasonable timeout (or raises :class:`InjectedHang` in-process),
    ``slow`` sleeps and returns, ``error`` raises :class:`InjectedError`.

    ``store-load``-site faults are *returned* instead — the store owns the
    file being corrupted, so it applies the effect itself.  The server-path
    faults (``drop-connection``, ``slow-client``) are likewise returned: the
    daemon owns the transport it is about to drop, and the client owns the
    socket it is about to trickle bytes into.  So is the ``journal-append``
    site's ``journal-torn-write``: the request journal owns the file whose
    write it is about to tear.

    With no plan installed this is a no-op returning ``None`` (the production
    fast path: one global read).
    """
    plan = _ACTIVE
    if plan is None:
        return None
    if isinstance(keys, str):
        keys = (keys,)
    spec = plan.match(site, tuple(keys), attempt)
    if spec is None:
        return None
    if spec.kind == "crash":
        if in_worker:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedCrash(
            f"injected crash (key={spec.key!r}, attempt {attempt})"
        )
    if spec.kind == "kill-worker":
        if in_worker:
            # A genuine `kill -9` of the worker process: uncatchable, no
            # exit handlers, no status byte of our choosing — exactly what
            # an OOM killer or an operator's kill does to a pool worker.
            import signal as _signal

            os.kill(os.getpid(), _signal.SIGKILL)
        raise InjectedCrash(
            f"injected worker kill (key={spec.key!r}, attempt {attempt})"
        )
    if spec.kind == "hang":
        if in_worker:
            time.sleep(spec.seconds)
            os._exit(CRASH_EXIT_CODE)  # a "hang" never returns a result
        raise InjectedHang(f"injected hang (key={spec.key!r}, attempt {attempt})")
    if spec.kind == "slow":
        time.sleep(spec.seconds)
        return spec
    if spec.kind == "error":
        raise InjectedError(
            f"injected worker error (key={spec.key!r}, attempt {attempt})"
        )
    return spec  # corrupt-store / flaky-pickle: the caller applies the effect


def corrupt_file(path: Union[str, os.PathLike], keep_fraction: float = 0.5) -> int:
    """Truncate ``path`` to a fraction of its size (a simulated torn write).

    Returns the new size.  Used by the ``corrupt-store`` fault and directly
    by tests that build deliberately truncated pickles.
    """
    size = os.path.getsize(path)
    new_size = max(1, int(size * keep_fraction)) if size else 0
    with open(path, "rb+") as handle:
        handle.truncate(new_size)
    return new_size
