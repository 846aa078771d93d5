"""Client library for the verification daemon.

:class:`ServiceClient` speaks the newline-delimited JSON protocol over a
plain blocking socket.  Its defining property mirrors the supervisor's
total contract, extended across the network: :meth:`verify` and
:meth:`submit_many` **never raise** for a failed request — a dropped
connection, a timeout, a protocol-level rejection (429 ``overloaded``,
503 ``shutting-down``) all come back as structured schema-v2 result docs
(``verdict: unknown`` with a ``failure`` record), so a caller iterating a
suite always gets exactly one doc per submission.

Control-plane calls (:meth:`stats` / :meth:`cache` / :meth:`health` /
:meth:`shutdown`) raise :class:`ServiceError` on transport failure instead:
their callers want a hard signal that the daemon is unreachable, not a
doc-shaped placeholder.

A client holds one connection, lazily opened and transparently reopened
after a transport failure.  :meth:`submit_many` pipelines: all requests go
out before any response is read, which is what makes server-side coalescing
observable from a single client.

Reconnect-and-retry: with ``retries > 0`` a ``connection-lost`` mid-batch
(the daemon restarted, a proxy dropped the socket, an injected
``drop-connection``) is not final — the client backs off (capped
exponential), reconnects, and resubmits only the still-unanswered
requests.  This is safe *because the daemon makes it idempotent*:
an identical resubmission coalesces onto a still-running engine run, and
a finished one warm-starts from the banked precision — verdicts never
flip across retries.  Retried docs carry a ``transport`` trail
(``{"attempts": n, "failures": [...]}``) so callers can see the bumps.
Timeouts are *not* retried (the work may still be running server-side;
resubmitting would double it), and ``retries=0`` (the default) keeps the
original single-shot behaviour.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Mapping, Optional, Sequence, Union

from ..core import faults
from ..core.api import VerifierOptions
from ..core.supervision import RetryPolicy, failure_record
from . import protocol

__all__ = ["DEFAULT_PORT", "ServiceClient", "ServiceError", "wait_until_ready"]

#: Default daemon port for `repro serve` / `repro submit`.
DEFAULT_PORT = 8077

#: Pause before reconnect attempt ``n``: 0.05 s, doubling, capped at 2 s.
RECONNECT_BACKOFF = RetryPolicy(backoff_max=2.0)


class ServiceError(RuntimeError):
    """The daemon is unreachable or answered gibberish (control plane only)."""


class ServiceClient:
    """One connection to a verification daemon (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 600.0,
        connect_timeout: float = 10.0,
        retries: int = 0,
        client_id: Optional[str] = None,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        #: Reconnect-and-resubmit budget for ``connection-lost`` mid-verify.
        self.retries = retries
        #: Quota accounting identity sent with every verify request.
        self.client_id = client_id
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 1

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
            sock.settimeout(self.timeout)
            self._sock = sock
            self._file = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire primitives
    # ------------------------------------------------------------------
    def _send_line(self, doc: Mapping[str, Any], fault_keys: Sequence[str]) -> None:
        self.connect()
        data = protocol.encode(doc)
        spec = faults.fire("client-send", tuple(fault_keys))
        if spec is not None and spec.kind == "slow-client" and len(data) > 1:
            # A trickling sender: half the bytes, a pause, then the rest.
            half = len(data) // 2
            self._sock.sendall(data[:half])
            time.sleep(spec.seconds)
            self._sock.sendall(data[half:])
        else:
            self._sock.sendall(data)

    def _read_response(self) -> dict[str, Any]:
        line = self._file.readline(protocol.MAX_LINE_BYTES + 2)
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as error:
            raise ServiceError(f"malformed response from daemon: {error}")
        if not isinstance(doc, dict):
            raise ServiceError(f"malformed response from daemon: {doc!r}")
        return doc

    def _read_matching(self, request_id: int) -> dict[str, Any]:
        # With pipelining the daemon may interleave responses; skip any that
        # are not ours (single-request callers never hit this, and
        # submit_many collects every response by id instead).
        while True:
            response = self._read_response()
            if response.get("id") == request_id:
                return response

    def request(self, doc: Mapping[str, Any]) -> dict[str, Any]:
        """One control-plane round trip; raises :class:`ServiceError` on
        transport failure."""
        doc = dict(doc)
        doc.setdefault("id", self._take_id())
        try:
            self._send_line(doc, (str(doc.get("op")),))
            return self._read_matching(doc["id"])
        except (ConnectionError, socket.timeout, OSError) as error:
            self.close()
            raise ServiceError(f"daemon unreachable: {error}") from error

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id

    @staticmethod
    def _options_dict(
        options: Optional[Union[VerifierOptions, Mapping[str, Any]]]
    ) -> Optional[dict[str, Any]]:
        if options is None:
            return None
        if isinstance(options, VerifierOptions):
            return options.to_dict()
        return dict(options)

    # ------------------------------------------------------------------
    # Verification (never raises; every failure is a structured doc)
    # ------------------------------------------------------------------
    def verify(
        self,
        source: str,
        name: Optional[str] = None,
        options: Optional[Union[VerifierOptions, Mapping[str, Any]]] = None,
        include_precision: bool = False,
    ) -> dict[str, Any]:
        """Verify one program; returns a schema-v2 result doc, always.

        The doc carries two transport-level extras: ``coalesced`` (this
        response came from an engine run another request started) and, when
        requested, ``precision`` (the final predicate bank as rendered
        strings by location).
        """
        return self.submit_many(
            [{"source": source, "name": name}],
            options=options,
            include_precision=include_precision,
        )[0]

    def submit_many(
        self,
        tasks: Sequence[Union[str, tuple[str, str], Mapping[str, Any]]],
        options: Optional[Union[VerifierOptions, Mapping[str, Any]]] = None,
        include_precision: bool = False,
    ) -> list[dict[str, Any]]:
        """Pipeline a batch of verifies; one result doc per task, in order.

        Each task is a source string, a ``(name, source)`` pair, or a dict
        with ``source`` / ``name`` / ``options`` keys (per-task options win
        over the batch-level ``options``).  All requests are written before
        any response is read, so identical concurrent work coalesces
        server-side even from one client.
        """
        default_options = self._options_dict(options)
        prepared: list[dict[str, Any]] = []
        for task in tasks:
            if isinstance(task, str):
                task = {"source": task}
            elif isinstance(task, tuple):
                task = {"name": task[0], "source": task[1]}
            else:
                task = dict(task)
            request: dict[str, Any] = {
                "op": "verify",
                "id": self._take_id(),
                "source": task["source"],
            }
            if task.get("name"):
                request["name"] = task["name"]
            task_options = self._options_dict(task.get("options")) or default_options
            if task_options is not None:
                request["options"] = task_options
            if self.client_id is not None:
                request["client_id"] = self.client_id
            if include_precision:
                request["include_precision"] = True
            prepared.append(request)

        docs: dict[int, dict[str, Any]] = {}

        def _fail_outstanding(kind: str, message: str) -> None:
            for request in prepared:
                if request["id"] not in docs:
                    docs[request["id"]] = protocol.transport_failure_doc(
                        request.get("name"), kind, message
                    )

        by_id = {request["id"]: request for request in prepared}
        trail: list[dict[str, Any]] = []
        retried_ids: set[int] = set()
        attempt = 0
        while True:
            attempt += 1
            try:
                for request in prepared:
                    if request["id"] in docs:
                        continue  # answered on an earlier attempt
                    self._send_line(
                        request, (request.get("name") or "*", str(request["id"]))
                    )
                while len(docs) < len(prepared):
                    response = self._read_response()
                    request = by_id.get(response.get("id"))
                    if request is None:
                        continue  # stale response from an earlier abandoned call
                    docs[request["id"]] = self._doc_from_response(request, response)
                break
            except (ConnectionError, socket.timeout, OSError) as error:
                self.close()
                is_timeout = isinstance(error, socket.timeout)
                kind = "timeout" if is_timeout else "connection-lost"
                if is_timeout or attempt > self.retries:
                    _fail_outstanding(kind, str(error) or kind)
                    break
                # Reconnect-and-resubmit the unanswered remainder: safe
                # because coalescing + banked precisions make an identical
                # resubmission idempotent (see module docstring).
                trail.append(failure_record(kind, str(error) or kind, attempt - 1))
                retried_ids.update(
                    request["id"]
                    for request in prepared
                    if request["id"] not in docs
                )
                time.sleep(RECONNECT_BACKOFF.delay(attempt))
            except ServiceError as error:
                self.close()
                _fail_outstanding("bad-response", str(error))
                break
        if trail:
            for request_id in retried_ids:
                doc = docs.get(request_id)
                if doc is not None:
                    doc["transport"] = {"attempts": attempt, "failures": list(trail)}
        return [docs[request["id"]] for request in prepared]

    @staticmethod
    def _doc_from_response(
        request: Mapping[str, Any], response: Mapping[str, Any]
    ) -> dict[str, Any]:
        if response.get("ok") and isinstance(response.get("result"), dict):
            doc = dict(response["result"])
            doc["coalesced"] = bool(response.get("coalesced"))
            return doc
        error = response.get("error") or {}
        return protocol.transport_failure_doc(
            request.get("name"),
            error.get("code", "bad-response"),
            error.get("message", "daemon rejected the request"),
            error=error or None,
        )

    # ------------------------------------------------------------------
    # Control plane (raises ServiceError when the daemon is unreachable)
    # ------------------------------------------------------------------
    def _control(self, op: str) -> dict[str, Any]:
        response = self.request({"op": op})
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(
                f"{op} failed: {error.get('code')}: {error.get('message')}"
            )
        return response

    def stats(self) -> dict[str, Any]:
        return self._control("stats")["stats"]

    def cache(self) -> dict[str, Any]:
        return self._control("cache")["cache"]

    def health(self) -> dict[str, Any]:
        return self._control("health")["health"]

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain gracefully; returns its acknowledgement."""
        response = self._control("shutdown")
        self.close()
        return response


def wait_until_ready(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    timeout: float = 15.0,
) -> dict[str, Any]:
    """Poll the daemon's ``health`` op every 50 ms until it answers; returns
    the health doc.  Raises :class:`ServiceError` when ``timeout`` elapses
    first."""
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(host, port, timeout=5.0, connect_timeout=1.0) as client:
                return client.health()
        except (ServiceError, ConnectionError, OSError) as error:
            last_error = error
            time.sleep(0.05)
    raise ServiceError(
        f"daemon at {host}:{port} not ready after {timeout}s: {last_error}"
    )
