"""The durable request journal: a write-ahead log for accepted work.

The daemon's promise is *at-least-once visibility*: once a verify request
has been admitted, a crash of the daemon must not silently forget it.  The
journal makes admission durable — every admitted engine run appends one
``accepted`` record (name, source, options, fingerprint, client id)
*before* the run starts, and one ``answered`` record after its response is
handed to the transport.  A daemon restarted on the same ``--request-journal``
path replays the log, drops any torn tail a crashed writer left behind,
and reports (and with ``--recover`` re-executes) the accepted-but-unanswered
remainder.

The on-disk format deliberately mirrors the precision store's ``RJN1``
journal (:mod:`repro.core.api`): a framed, append-only, fsync-per-record
log —

    ``b"RQJ1"`` · 4-byte big-endian record length · UTF-8 JSON record

— with the same recovery discipline: replay intact frames in order, stop
at the first frame whose declared length runs past end-of-file (a torn
tail: the writer died mid-``write``) or whose bytes fail to decode.  JSON
rather than pickle because records carry client-supplied source text and
options — human-greppable and safe to load from a file an operator may
have hand-edited.

Single-writer: the journal belongs to one daemon process and every call
happens on its event loop, so there is no internal locking (unlike the
multi-session precision store).  Recovery compacts the file down to the
unanswered records, and a busy daemon re-compacts whenever the log
outgrows :data:`JOURNAL_COMPACT_BYTES`, so the file stays proportional to
the *outstanding* work, not the lifetime request count.

Fault injection: appends fire the ``journal-append`` site.  The
``journal-torn-write`` kind makes the writer emit a frame whose header
declares the full record length but whose payload stops half way — byte
for byte what a crash between ``write`` and ``fsync`` leaves behind — and
recovery must shrug it off.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional, Union

from ..core import faults

__all__ = ["RequestJournal", "JOURNAL_MAGIC", "JOURNAL_COMPACT_BYTES"]

#: Frame magic for the request journal (the store's journal is ``RJN1``).
JOURNAL_MAGIC = b"RQJ1"

#: Re-compact (rewrite unanswered-only) once the log outgrows this.
JOURNAL_COMPACT_BYTES = 256 * 1024


class RequestJournal:
    """Append-only WAL of accepted verify requests and their answers.

    Opening the journal replays the existing file: intact ``accepted``
    records without a matching ``answered`` record become the
    :attr:`recovered` list (the work a previous daemon accepted but never
    answered), torn or undecodable tails are dropped (counted in
    :attr:`torn_dropped`), and the file is compacted down to exactly the
    unanswered records — with their original sequence numbers, so an
    operator can correlate across restarts.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: Unanswered accepted records, by sequence number (insertion order).
        self._outstanding: dict[int, dict[str, Any]] = {}
        #: Records a previous incarnation accepted but never answered.
        self.recovered: list[dict[str, Any]] = []
        #: Torn/undecodable trailing frames dropped during replay.
        self.torn_dropped = 0
        #: Lifetime counters for stats (this incarnation only).
        self.accepted = 0
        self.answered = 0
        self._next_seq = 1
        self._handle = None
        self._recover_existing()
        self._open_for_append()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover_existing(self) -> None:
        if not self.path.exists():
            return
        try:
            data = self.path.read_bytes()
        except OSError:
            return
        answered_seqs: set[int] = set()
        accepted: dict[int, dict[str, Any]] = {}
        offset = 0
        while offset < len(data):
            if offset + 8 > len(data) or data[offset : offset + 4] != JOURNAL_MAGIC:
                self.torn_dropped += 1
                break
            length = int.from_bytes(data[offset + 4 : offset + 8], "big")
            end = offset + 8 + length
            if end > len(data):
                self.torn_dropped += 1  # torn tail: writer died mid-record
                break
            try:
                record = json.loads(data[offset + 8 : end].decode("utf-8"))
                kind = record["type"]
                seq = int(record["seq"])
            except Exception:
                self.torn_dropped += 1
                break
            if kind == "accepted":
                accepted[seq] = record
            elif kind == "answered":
                answered_seqs.add(seq)
                accepted.pop(seq, None)
            offset = end
        self.recovered = [accepted[seq] for seq in sorted(accepted)]
        self._outstanding = dict(sorted(accepted.items()))
        all_seqs = set(accepted) | answered_seqs
        self._next_seq = (max(all_seqs) + 1) if all_seqs else 1
        self._rewrite_compacted()

    def _rewrite_compacted(self) -> None:
        """Rewrite the file to exactly the outstanding records (atomic)."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._handle = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            for record in self._outstanding.values():
                handle.write(self._frame(record))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @staticmethod
    def _frame(record: dict[str, Any]) -> bytes:
        body = json.dumps(record, sort_keys=True).encode("utf-8")
        return JOURNAL_MAGIC + len(body).to_bytes(4, "big") + body

    def _open_for_append(self) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")

    def _append(self, record: dict[str, Any], fault_keys: tuple) -> None:
        self._open_for_append()
        frame = self._frame(record)
        spec = faults.fire("journal-append", fault_keys)
        if spec is not None and spec.kind == "journal-torn-write":
            # Simulate a crash between write() and fsync(): the frame header
            # promises the full record but the payload stops half way.
            frame = frame[: 8 + max(1, (len(frame) - 8) // 2)]
        self._handle.write(frame)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def accept(
        self,
        name: str,
        source: str,
        options: dict[str, Any],
        fingerprint: str,
        client_id: Optional[str] = None,
    ) -> int:
        """Durably record an admitted request; returns its sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        record: dict[str, Any] = {
            "type": "accepted",
            "seq": seq,
            "name": name,
            "source": source,
            "options": options,
            "fingerprint": fingerprint,
        }
        if client_id is not None:
            record["client_id"] = client_id
        self._outstanding[seq] = record
        self.accepted += 1
        self._append(record, (name or "*", fingerprint))
        return seq

    def answer(self, seq: int, verdict: Optional[str]) -> None:
        """Mark an accepted request answered (its response reached the wire)."""
        record = self._outstanding.pop(seq, None)
        if record is None:
            return  # unknown / doubly-answered: idempotent
        self.answered += 1
        self._append(
            {"type": "answered", "seq": seq, "verdict": verdict},
            (record.get("name") or "*", record.get("fingerprint") or "*"),
        )
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        try:
            size = self.path.stat().st_size
        except OSError:  # pragma: no cover - defensive
            return
        if size > JOURNAL_COMPACT_BYTES:
            self._rewrite_compacted()
            self._open_for_append()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lag(self) -> int:
        """Accepted-but-unanswered count (including recovered records)."""
        return len(self._outstanding)

    def statistics(self) -> dict[str, Any]:
        return {
            "path": str(self.path),
            "accepted": self.accepted,
            "answered": self.answered,
            "lag": self.lag,
            "recovered": len(self.recovered),
            "torn_dropped": self.torn_dropped,
        }

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._handle = None
