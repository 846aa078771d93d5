"""Wire protocol of the verification daemon: newline-delimited JSON over TCP.

Every message — request and response alike — is a single JSON object on one
``\\n``-terminated line, UTF-8 encoded.  A connection carries any number of
requests; responses may interleave (the daemon answers each request as soon
as its work finishes, not in arrival order), so every request carries a
client-chosen ``id`` that the matching response echoes back.

Requests
--------

::

    {"op": "verify", "id": 1, "source": "<program text>",
     "name": "forward",                 # optional display name
     "options": {"refiner": "interpolation", ...},   # optional VerifierOptions dict
     "client_id": "ci-shard-3",         # optional; quota accounting key
     "include_precision": true}         # optional; ship the final predicate bank
    {"op": "stats",    "id": 2}
    {"op": "cache",    "id": 3}
    {"op": "health",   "id": 4}
    {"op": "shutdown", "id": 5}         # begin graceful drain, then exit

Responses
---------

Success::

    {"id": 1, "ok": true, "op": "verify", "coalesced": false,
     "result": { ...schema-v2 Result JSON... }}
    {"id": 2, "ok": true, "op": "stats", "stats": {...}}

Protocol-level failure (the request never reached the engine)::

    {"id": 1, "ok": false,
     "error": {"code": "overloaded", "status": 429, "message": "..."}}

Engine-level failures are *not* protocol errors: a request that parsed but
whose engine run crashed, timed out, or exhausted its budget still gets
``ok: true`` with a structured schema-v2 result doc (``verdict`` of
``unknown``/``error`` plus ``failure``/``failures`` records) — the PR 6
total contract extends over the wire.

Error codes
-----------

===================  ======  ===============================================
code                 status  meaning
===================  ======  ===============================================
``bad-request``      400     malformed JSON, missing/ill-typed fields, or a
                             request line longer than :data:`MAX_LINE_BYTES`
``unsupported-op``   400     ``op`` is not one of :data:`OPS`
``overloaded``       429     admission control rejected the request: the
                             daemon already holds ``workers + max_queue``
                             uncoalesced verify jobs
``quota-exceeded``   429     the client's token bucket is empty; the error
                             body carries ``retry_after`` (seconds until the
                             next token)
``circuit-open``     503     the ``(fingerprint, options)`` circuit breaker
                             is open after repeated worker crashes; the
                             error body carries ``retry_after`` (seconds
                             until a half-open probe is allowed)
``shutting-down``    503     the daemon is draining and accepts no new work
``internal``         500     an unexpected server-side error (bug)
===================  ======  ===============================================
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional, Union

from ..core.engine import RESULT_SCHEMA_VERSION
from ..core.supervision import failure_record

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "ERROR_STATUS",
    "ProtocolError",
    "encode",
    "decode",
    "parse_request",
    "result_response",
    "ok_response",
    "error_response",
    "transport_failure_doc",
]

#: Bumped on incompatible wire changes; served by the ``health`` op.
PROTOCOL_VERSION = 1

#: Upper bound on one request/response line (8 MiB leaves room for large
#: program sources and full precision dumps while bounding a hostile client).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Every operation a request may name.
OPS = ("verify", "stats", "cache", "health", "shutdown")

#: HTTP-flavoured status for each protocol error code (the wire is not HTTP,
#: but the numbers make rejection semantics instantly recognisable).
ERROR_STATUS = {
    "bad-request": 400,
    "unsupported-op": 400,
    "overloaded": 429,
    "quota-exceeded": 429,
    "circuit-open": 503,
    "shutting-down": 503,
    "internal": 500,
}


class ProtocolError(ValueError):
    """A request that violates the wire protocol (never reaches the engine)."""

    def __init__(self, code: str, message: str, request_id: Any = None):
        if code not in ERROR_STATUS:
            raise AssertionError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.request_id = request_id


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode(doc: Mapping[str, Any]) -> bytes:
    """One message as a ``\\n``-terminated UTF-8 JSON line."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=False).encode() + b"\n"


def decode(line: Union[bytes, str]) -> dict[str, Any]:
    """Parse one wire line into a JSON object.

    Raises :class:`ProtocolError` (code ``bad-request``) on anything that is
    not a single JSON object.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(
                "bad-request",
                f"request line exceeds {MAX_LINE_BYTES} bytes",
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError("bad-request", f"request is not UTF-8: {error}")
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError("bad-request", f"request is not valid JSON: {error}")
    if not isinstance(doc, dict):
        raise ProtocolError(
            "bad-request", f"request must be a JSON object, got {type(doc).__name__}"
        )
    return doc


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------
def parse_request(line: Union[bytes, str, Mapping[str, Any]]) -> dict[str, Any]:
    """Decode and validate one request line.

    Returns the request dict with ``op`` guaranteed valid and ``verify``
    requests guaranteed to carry a non-empty ``source`` string and (when
    present) a dict ``options``.  Raises :class:`ProtocolError` carrying the
    request ``id`` when it could be recovered, so the error response can
    still be matched by the client.
    """
    doc = dict(line) if isinstance(line, Mapping) else decode(line)
    request_id = doc.get("id")
    if request_id is not None and not isinstance(request_id, (int, str)):
        raise ProtocolError("bad-request", "'id' must be an integer or string")
    op = doc.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "request needs a string 'op'", request_id)
    if op not in OPS:
        raise ProtocolError(
            "unsupported-op", f"unknown op {op!r}; expected one of {OPS}", request_id
        )
    if op == "verify":
        source = doc.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError(
                "bad-request", "verify needs a non-empty string 'source'", request_id
            )
        name = doc.get("name")
        if name is not None and not isinstance(name, str):
            raise ProtocolError("bad-request", "'name' must be a string", request_id)
        options = doc.get("options")
        if options is not None and not isinstance(options, dict):
            raise ProtocolError(
                "bad-request", "'options' must be a VerifierOptions dict", request_id
            )
        client_id = doc.get("client_id")
        if client_id is not None and not isinstance(client_id, str):
            raise ProtocolError(
                "bad-request", "'client_id' must be a string", request_id
            )
    return doc


# ----------------------------------------------------------------------
# Response builders
# ----------------------------------------------------------------------
def result_response(
    request_id: Any,
    result: Mapping[str, Any],
    coalesced: bool = False,
) -> dict[str, Any]:
    """A successful ``verify`` response wrapping a schema-v2 result doc."""
    return {
        "id": request_id,
        "ok": True,
        "op": "verify",
        "coalesced": bool(coalesced),
        "result": dict(result),
    }


def ok_response(request_id: Any, op: str, **body: Any) -> dict[str, Any]:
    """A successful non-``verify`` response (``stats``/``cache``/...)."""
    return {"id": request_id, "ok": True, "op": op, **body}


def error_response(
    request_id: Any,
    code: str,
    message: str,
    retry_after: Optional[float] = None,
) -> dict[str, Any]:
    """A protocol-level rejection (the request never reached the engine).

    ``retry_after`` (seconds) rides inside the error body for throttling
    rejections (``quota-exceeded`` / ``circuit-open``) so clients can back
    off precisely.
    """
    error: dict[str, Any] = {
        "code": code,
        "status": ERROR_STATUS.get(code, 500),
        "message": message,
    }
    if retry_after is not None:
        error["retry_after"] = round(float(retry_after), 3)
    return {"id": request_id, "ok": False, "error": error}


def transport_failure_doc(
    name: Optional[str],
    kind: str,
    message: str,
    error: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """A result doc for a request that died in transit.

    The client library returns these instead of raising, extending the
    supervisor's total contract (every task yields exactly one structured
    doc) across the network: a dropped connection, a timeout, or a
    protocol-level rejection all land here.
    """
    record = failure_record(kind, message, 0)
    doc: dict[str, Any] = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "name": name or "request",
        "verdict": "unknown",
        "reason": f"service failure: {kind}: {message}",
        "iterations": 0,
        "refinements": 0,
        "predicates": 0,
        "seconds": 0.0,
        "post_decisions": 0,
        "attempts": 1,
        "failure": record,
        "failures": [record],
    }
    if error is not None:
        doc["error"] = dict(error)
    return doc
