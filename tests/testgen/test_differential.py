"""Differential-harness tests: oracle contracts, corpus plumbing, and the
two-process hash-seed differential that pins the PR 7 CI workaround removal."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lang import parse_function
from repro.lang.programs import get_source
from repro.testgen import ORACLES, Mismatch, fuzz_options, run_fuzz, run_oracle
from repro.testgen.differential import (
    _compare_bit_identical,
    load_corpus,
    verify_corpus_entry,
    write_reproducer,
)

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


class TestFuzzOptions:
    def test_defaults_are_small_and_deterministic(self):
        options = fuzz_options()
        assert options.max_refinements == 6
        assert options.max_nodes == 300
        assert options.max_solver_calls == 3000
        assert options.max_seconds is None

    def test_rejects_wall_clock_budgets(self):
        with pytest.raises(ValueError, match="max_seconds"):
            fuzz_options(max_seconds=1.0)


class TestCompareBitIdentical:
    RECORD = {
        "verdict": "safe",
        "post_decisions": 10,
        "precision": {"L1": ["(x < 1)"]},
        "nodes_created": 5,
    }

    def test_identical_records_are_clean(self):
        assert _compare_bit_identical("batched", self.RECORD, dict(self.RECORD), ("a", "b")) == []

    def test_safe_vs_unsafe_is_a_conflict(self):
        variant = dict(self.RECORD, verdict="unsafe")
        (mismatch,) = _compare_bit_identical("batched", self.RECORD, variant, ("a", "b"))
        assert mismatch.kind == "verdict-conflict"

    def test_decided_vs_unknown_is_still_a_mismatch(self):
        variant = dict(self.RECORD, verdict="unknown")
        (mismatch,) = _compare_bit_identical("serve", self.RECORD, variant, ("a", "b"))
        assert mismatch.kind == "verdict"

    def test_counter_drift_is_reported_per_counter(self):
        variant = dict(self.RECORD, post_decisions=11, nodes_created=6)
        kinds = {
            m.kind
            for m in _compare_bit_identical("batched", self.RECORD, variant, ("a", "b"))
        }
        assert kinds == {"post-decisions", "nodes"}


class TestOracles:
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("name", ["forward", "simple_unsafe"])
    def test_builtins_are_clean(self, oracle, name):
        function = parse_function(get_source(name))
        record, mismatches = run_oracle(function, oracle, fuzz_options(max_refinements=8))
        assert mismatches == [], record

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_oracle(parse_function(get_source("forward")), "nope")


class TestRunFuzz:
    def test_small_fixed_seed_batch_is_clean(self):
        report = run_fuzz(seed=2, count=8)
        assert report.clean, [m.to_dict() for m in report.mismatches]
        assert len(report.programs) == 8
        # The plant schedule guarantees both verdict classes appear.
        assert report.verdicts.get("unsafe", 0) >= 1
        assert set(report.oracle_totals) == set(ORACLES)
        payload = json.dumps(report.to_dict())  # JSON-serialisable end to end
        assert "programs_generated" in payload

    def test_rejects_unknown_oracle_name(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_fuzz(seed=1, count=1, oracles=("batched", "nope"))


class TestCorpusPlumbing:
    def test_write_load_verify_roundtrip(self, tmp_path):
        # A clean program standing in as a "fixed bug": the committed
        # reproducer must re-run its oracle and come back clean.
        mismatch = Mismatch(
            oracle="batched",
            kind="post-decisions",
            detail="batched=9 scalar=10",
            seed=77,
            source=get_source("forward"),
        )
        path = write_reproducer(tmp_path, mismatch)
        assert path.name == "batched-seed77.c"
        assert mismatch.corpus_path == str(path)
        (entry,) = load_corpus(tmp_path)
        assert (entry.oracle, entry.seed) == ("batched", 77)
        assert verify_corpus_entry(entry) == []

    def test_collision_appends_counter(self, tmp_path):
        for _ in range(2):
            mismatch = Mismatch(
                oracle="serve", kind="nodes", detail="d", seed=1,
                source=get_source("forward"),
            )
            write_reproducer(tmp_path, mismatch)
        assert sorted(p.name for p in tmp_path.glob("*.c")) == [
            "serve-seed1-1.c",
            "serve-seed1.c",
        ]

    def test_missing_oracle_header_rejected(self, tmp_path):
        (tmp_path / "bad.c").write_text("void f() { int x = 1; }\n")
        with pytest.raises(ValueError, match="oracle"):
            load_corpus(tmp_path)


class TestHashSeedIndependence:
    """Two processes, two hash seeds, bit-identical engine accounting.

    This pins the fix for the PR 7 CI workaround: ``compact()`` used to
    iterate a set of locations, so ``post_decisions`` jittered with
    ``PYTHONHASHSEED`` and CI had to pin the hash seed.  Locations are now
    visited in sorted order, so the pin is gone — and this test is what
    keeps it gone.
    """

    def _verify_json(self, hashseed: str, program: str = "initcheck") -> dict:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "verify", program, "--json"],
            capture_output=True, text=True, check=True,
            env={
                "PYTHONPATH": SRC_ROOT,
                "PYTHONHASHSEED": hashseed,
                "PATH": "/usr/bin:/bin",
            },
        )
        return json.loads(completed.stdout)

    def test_post_decisions_and_predicates_match_across_hash_seeds(self):
        first, second = self._verify_json("1"), self._verify_json("2")
        assert first["verdict"] == second["verdict"] == "safe"
        assert first["post_decisions"] == second["post_decisions"]
        assert first["predicates"] == second["predicates"]
        assert first["iterations"] == second["iterations"]

    def test_checker_counters_repeat_across_processes_under_one_hash_seed(self):
        """Under a fixed hash seed every solver counter repeats exactly.

        Interned terms and formulas hash a name tag, never a class object
        (which hashes by its address), so set orders — and with them which
        simplex checks the solver makes — do not vary between processes.
        """
        counters = []
        for _ in range(3):
            solver = self._verify_json("1", "forward")["solver"]
            counters.append(
                {key: value for key, value in solver.items() if isinstance(value, int)}
            )
        assert counters[0]["simplex_checks"] > 0
        assert counters[1] == counters[0]
        assert counters[2] == counters[0]
