"""Per-client quotas and the fingerprint circuit breaker.

Two throttles stand between the transport and the pool, both answering with
*structured* rejections (the client never sees a dropped connection):

* :class:`ClientQuota` — token-bucket rate limiting keyed by the
  client-supplied ``client_id``.  Each client holds a bucket of ``burst``
  tokens refilled at ``rate`` per second; a verify request spends one.
  An empty bucket answers a 429 ``quota-exceeded`` carrying ``retry_after``
  (the seconds until the next token), so a well-behaved client backs off
  precisely instead of hammering.  Requests without a ``client_id`` share
  the anonymous bucket — a quota'd daemon throttles *everyone*, not just
  clients polite enough to identify themselves.

* :class:`CircuitBreaker` — keyed by the coalescer's
  ``(fingerprint, options)`` key.  A submission whose worker *crashes*
  (hard death / timeout — not an engine-level ``error`` verdict, which is
  a perfectly good answer) is a strike; ``threshold``
  consecutive strikes trip the circuit and further identical submissions
  short-circuit with a 503 ``circuit-open`` rejection instead of burning a
  worker rebuild each.  After ``cooldown`` seconds the circuit goes
  *half-open*: exactly one probe request is allowed through — success
  closes the circuit, another crash re-trips it for a fresh cooldown.

Both are loop-confined (mutated only from the daemon's event loop), so
neither needs locking, and both take an injectable ``clock`` so tests are
instant and deterministic.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

__all__ = ["TokenBucket", "ClientQuota", "CircuitBreaker"]

#: Bucket key for requests that do not identify themselves.
ANONYMOUS = "<anonymous>"


class TokenBucket:
    """A standard token bucket: ``burst`` capacity, ``rate`` tokens/second."""

    __slots__ = ("rate", "burst", "tokens", "updated", "clock")

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self.tokens = float(burst)
        self.clock = clock
        self.updated = clock()

    def _refill(self) -> None:
        now = self.clock()
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now

    def try_take(self) -> Optional[float]:
        """Spend one token.  ``None`` on success, else seconds until one."""
        self._refill()
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        return (1.0 - self.tokens) / self.rate


class ClientQuota:
    """Per-``client_id`` token buckets with shared rate/burst settings."""

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self.throttled = 0

    def try_admit(self, client_id: Optional[str]) -> Optional[float]:
        """``None`` if the client may proceed, else its ``retry_after``."""
        key = client_id if client_id else ANONYMOUS
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = TokenBucket(
                self.rate, self.burst, self._clock
            )
        retry_after = bucket.try_take()
        if retry_after is not None:
            self.throttled += 1
        return retry_after

    def statistics(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            "burst": self.burst,
            "clients": len(self._buckets),
            "throttled": self.throttled,
        }


class _Circuit:
    __slots__ = ("strikes", "opened_at", "probing")

    def __init__(self) -> None:
        self.strikes = 0
        self.opened_at: Optional[float] = None
        self.probing = False


class CircuitBreaker:
    """Trip after ``threshold`` consecutive crashes of one submission key."""

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self._circuits: dict[Any, _Circuit] = {}
        self.tripped = 0
        self.rejections = 0

    def check(self, key: Any) -> Optional[float]:
        """``None`` if ``key`` may run, else its ``retry_after``.

        An open circuit past its cooldown admits exactly one half-open
        probe; concurrent submissions during the probe stay rejected until
        the probe settles (:meth:`record_success` / :meth:`record_failure`).
        """
        circuit = self._circuits.get(key)
        if circuit is None or circuit.opened_at is None:
            return None
        elapsed = self._clock() - circuit.opened_at
        if elapsed >= self.cooldown and not circuit.probing:
            circuit.probing = True  # half-open: let one probe through
            return None
        self.rejections += 1
        return max(self.cooldown - elapsed, 0.0)

    def record_success(self, key: Any) -> None:
        """A completed (non-crash) run: the circuit closes and resets."""
        self._circuits.pop(key, None)

    def record_failure(self, key: Any) -> None:
        """A crash-kind failure: one strike; ``threshold`` strikes trip."""
        circuit = self._circuits.setdefault(key, _Circuit())
        circuit.strikes += 1
        circuit.probing = False
        if circuit.strikes >= self.threshold and circuit.opened_at is None:
            self.tripped += 1
        if circuit.strikes >= self.threshold:
            circuit.opened_at = self._clock()

    @property
    def open_circuits(self) -> int:
        return sum(1 for c in self._circuits.values() if c.opened_at is not None)

    def statistics(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "cooldown": self.cooldown,
            "tripped": self.tripped,
            "rejections": self.rejections,
            "open_circuits": self.open_circuits,
        }
