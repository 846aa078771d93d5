"""Unit tests of the daemon's wire protocol (framing, validation, docs)."""

import json

import pytest

from repro.core.api import VerifierOptions
from repro.serve import protocol
from repro.serve.coalesce import AdmissionControl, Coalescer, options_key


class TestFraming:
    def test_encode_decode_round_trip(self):
        doc = {"op": "verify", "id": 3, "source": "x", "options": {"max_refinements": 2}}
        line = protocol.encode(doc)
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1  # one message, one line
        assert protocol.decode(line) == doc

    def test_decode_rejects_non_json(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode(b"not json\n")
        assert info.value.code == "bad-request"

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")

    def test_decode_rejects_oversized_line(self):
        line = b'{"op": "' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(line)

    def test_decode_rejects_bad_utf8(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'{"op": "\xff\xfe"}\n')


class TestParseRequest:
    def test_valid_verify(self):
        request = protocol.parse_request(
            {"op": "verify", "id": 1, "source": "int main() {}"}
        )
        assert request["op"] == "verify"

    def test_unknown_op_keeps_request_id(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.parse_request({"op": "frobnicate", "id": 9})
        assert info.value.code == "unsupported-op"
        assert info.value.request_id == 9

    def test_verify_requires_source(self):
        for bad in ({"op": "verify", "id": 1}, {"op": "verify", "id": 1, "source": "  "}):
            with pytest.raises(protocol.ProtocolError) as info:
                protocol.parse_request(bad)
            assert info.value.code == "bad-request"

    def test_verify_rejects_non_dict_options(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request(
                {"op": "verify", "id": 1, "source": "x", "options": "fast"}
            )

    def test_rejects_ill_typed_id(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request({"op": "health", "id": [1]})

    def test_every_op_accepted(self):
        for op in protocol.OPS:
            doc = {"op": op, "id": 1}
            if op == "verify":
                doc["source"] = "x"
            assert protocol.parse_request(doc)["op"] == op


class TestResponses:
    def test_error_response_carries_status(self):
        doc = protocol.error_response(4, "overloaded", "queue full")
        assert doc["ok"] is False
        assert doc["error"]["status"] == 429
        assert doc["id"] == 4

    def test_every_error_code_has_a_status(self):
        for code, status in protocol.ERROR_STATUS.items():
            assert protocol.error_response(None, code, "x")["error"]["status"] == status

    def test_result_response_shape(self):
        doc = protocol.result_response(7, {"verdict": "safe"}, coalesced=True)
        assert doc == {
            "id": 7,
            "ok": True,
            "op": "verify",
            "coalesced": True,
            "result": {"verdict": "safe"},
        }

    def test_transport_failure_doc_is_schema_v2(self):
        doc = protocol.transport_failure_doc("forward", "connection-lost", "EOF")
        assert doc["schema_version"] == 2
        assert doc["verdict"] == "unknown"
        assert doc["failure"]["kind"] == "connection-lost"
        assert doc["failures"] == [doc["failure"]]
        json.dumps(doc)  # JSON-safe


class TestCoalesceKeys:
    def test_options_key_is_canonical(self):
        a = VerifierOptions(max_refinements=5, max_nodes=200)
        b = VerifierOptions(max_nodes=200, max_refinements=5)
        assert options_key(a) == options_key(b)

    def test_options_key_distinguishes_engine_knobs(self):
        assert options_key(VerifierOptions()) != options_key(
            VerifierOptions(refiner="path-formula")
        )

    def test_coalescer_attach_and_finish(self):
        coalescer = Coalescer()
        key = ("fp", "opts")
        job, created = coalescer.attach(key)
        assert created and coalescer.in_flight == 1
        same, created_again = coalescer.attach(key)
        assert same is job and not created_again
        assert coalescer.coalesce_hits == 1
        coalescer.finish(key)
        _, fresh = coalescer.attach(key)
        assert fresh  # finished jobs never replay

    def test_abandon_rolls_back_a_rejected_creation(self):
        coalescer = Coalescer()
        coalescer.attach(("fp", "o"))
        coalescer.abandon(("fp", "o"))
        assert coalescer.in_flight == 0
        assert coalescer.jobs_started == 0


class TestAdmission:
    def test_capacity_is_workers_plus_queue(self):
        admission = AdmissionControl(workers=2, max_queue=3)
        assert admission.capacity == 5
        assert all(admission.try_admit() for _ in range(5))
        assert not admission.try_admit()
        assert admission.rejections == 1
        admission.release()
        assert admission.try_admit()

    def test_queue_depth_excludes_running_jobs(self):
        admission = AdmissionControl(workers=2, max_queue=4)
        for _ in range(3):
            admission.try_admit()
        assert admission.queue_depth == 1  # 3 pending, 2 on workers

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AdmissionControl(workers=0, max_queue=1)
        with pytest.raises(ValueError):
            AdmissionControl(workers=1, max_queue=-1)
