"""Verification-as-a-service: a long-lived daemon over the engine stack.

The pieces (see ``serve/README.md`` for the protocol and lifecycle):

* :mod:`repro.serve.protocol` — newline-delimited JSON over TCP; requests,
  responses, error codes, and the structured transport-failure doc.
* :mod:`repro.serve.coalesce` — request coalescing by
  ``(program_fingerprint, options)`` and bounded 429-style admission.
* :mod:`repro.serve.journal` — the durable request journal: a framed,
  fsync'd write-ahead log of accepted work, replayed on restart.
* :mod:`repro.serve.quota` — per-client token-bucket quotas and the
  ``(fingerprint, options)`` circuit breaker.
* :mod:`repro.serve.server` — :class:`VerificationService`: asyncio front,
  supervised runs on crash-isolated worker *processes* (one persistent
  worker slot per executor thread), shared warm-start
  :class:`~repro.core.api.PrecisionStore`, graceful drain.  A script that
  starts one needs an ``if __name__ == "__main__":`` guard: forkserver
  workers re-import the main file.
* :mod:`repro.serve.client` — :class:`ServiceClient`: a pipelining client
  whose verifies never raise (failures come back as schema-v2 docs) and
  which can reconnect-and-resubmit across daemon restarts.

CLI: ``python -m repro serve`` runs the daemon, ``python -m repro submit``
sends work to it.
"""

from .client import DEFAULT_PORT, ServiceClient, ServiceError, wait_until_ready
from .journal import RequestJournal
from .protocol import MAX_LINE_BYTES, OPS, PROTOCOL_VERSION, ProtocolError
from .quota import CircuitBreaker, ClientQuota, TokenBucket
from .server import ServiceConfig, VerificationService

__all__ = [
    "DEFAULT_PORT",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "CircuitBreaker",
    "ClientQuota",
    "ProtocolError",
    "RequestJournal",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "TokenBucket",
    "VerificationService",
    "wait_until_ready",
]
