"""Request coalescing and bounded admission for the verification daemon.

Both classes are **event-loop confined**: every method is called from the
daemon's single asyncio thread, between awaits, so neither needs a lock.
(The engine work itself runs in worker threads; only the bookkeeping that
decides *whether* to start that work lives here.)

Coalescing key
--------------

Two verify requests are the same unit of work iff they agree on
``program_fingerprint`` *and* on every option that can change the engine's
answer or its cost — which is all of :class:`~repro.core.api.VerifierOptions`.
:func:`options_key` renders the options dict canonically (sorted keys,
compact separators) so dict ordering and equivalent spellings cannot split a
coalescible pair.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..core.api import VerifierOptions

__all__ = ["options_key", "InFlight", "Coalescer", "AdmissionControl"]


def options_key(options: VerifierOptions) -> str:
    """A canonical string for the options half of the coalescing key."""
    return json.dumps(options.to_dict(), sort_keys=True, separators=(",", ":"))


class InFlight:
    """One running engine job and the requests attached to it."""

    __slots__ = ("key", "future")

    def __init__(self, key: tuple[str, str]):
        self.key = key
        #: Set by the creator in the same loop step as :meth:`Coalescer.attach`
        #: (no await between), so attachers always observe it.
        self.future: Optional[Any] = None


class Coalescer:
    """In-flight jobs keyed by ``(fingerprint, options_key)``.

    The first request for a key creates the job; concurrent requests with
    the same key *attach* to it and await the same future.  A job leaves the
    map the moment its future resolves, so coalescing is strictly about
    in-flight work — completed results are never replayed from here (the
    warm-start path through the :class:`~repro.core.api.PrecisionStore`
    covers repeats over time).
    """

    def __init__(self) -> None:
        self._jobs: dict[tuple[str, str], InFlight] = {}
        self.jobs_started = 0
        self.coalesce_hits = 0

    def attach(self, key: tuple[str, str]) -> tuple[InFlight, bool]:
        """Join the in-flight job for ``key``, creating it if absent.

        Returns ``(job, created)``; ``created`` tells the caller it owns
        starting the engine run (and admitting it past admission control).
        """
        job = self._jobs.get(key)
        if job is not None:
            self.coalesce_hits += 1
            return job, False
        job = InFlight(key)
        self._jobs[key] = job
        self.jobs_started += 1
        return job, True

    def abandon(self, key: tuple[str, str]) -> None:
        """Remove a job that never started (its creator was rejected)."""
        job = self._jobs.pop(key, None)
        if job is not None:
            self.jobs_started -= 1

    def finish(self, key: tuple[str, str]) -> None:
        """Remove a completed job; later identical requests start fresh."""
        self._jobs.pop(key, None)

    @property
    def in_flight(self) -> int:
        return len(self._jobs)


class AdmissionControl:
    """A hard cap on uncoalesced engine jobs in the system.

    ``capacity = workers + max_queue``: with every worker busy and the queue
    full, a request that would start a *new* engine run is rejected with a
    429-style ``overloaded`` error doc instead of being buffered without
    bound.  Requests that coalesce onto an in-flight job bypass admission
    entirely — they add no work.
    """

    def __init__(self, workers: int, max_queue: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.workers = workers
        self.capacity = workers + max_queue
        self.pending = 0
        self.rejections = 0
        self.peak_pending = 0

    def try_admit(self) -> bool:
        """Reserve a slot for one new engine job; False when saturated."""
        if self.pending >= self.capacity:
            self.rejections += 1
            return False
        self.pending += 1
        self.peak_pending = max(self.peak_pending, self.pending)
        return True

    def release(self) -> None:
        """Free the slot of a finished (or failed) engine job."""
        self.pending = max(0, self.pending - 1)

    @property
    def queue_depth(self) -> int:
        """Jobs admitted but (at best) still waiting for a worker thread."""
        return max(0, self.pending - self.workers)
