"""Disk-persistent precision store and bounded checker caches.

The :class:`PrecisionStore` gained a disk form this PR: with ``path`` set it
loads (merges) the file at construction and re-saves atomically whenever a
session banks new predicates, so warm starts survive *process lifetimes* —
the acceptance property is the kill-and-restart round trip below.  The
fingerprint a store is keyed by must therefore be stable across processes,
each with its own hash seed; a subprocess test pins that.  (The fingerprint
also sorts the transitions' renderings, so it does not depend on the order
the CFG builder emits them in.)

The checker's prepared-edge table is LRU-bounded at
``VcChecker.PREPARED_EDGE_CAP`` (each entry pins a live solver context);
runs under a tiny cap must stay correct, just less memoised.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import PrecisionStore, Session, VerifierOptions, program_fingerprint
from repro.core import Verdict
from repro.lang import get_program
from repro.smt.vcgen import VcChecker

OPTIONS = VerifierOptions(max_refinements=8)


# ----------------------------------------------------------------------
# PrecisionStore on disk
# ----------------------------------------------------------------------
class TestStoreRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        store = PrecisionStore()
        session = Session(OPTIONS, store=store)
        session.run("forward")
        fingerprint = store.fingerprints()[0]
        path = store.save(tmp_path / "bank.pkl")
        assert path.exists()

        loaded = PrecisionStore(path=path)
        assert loaded.fingerprints() == store.fingerprints()
        assert loaded.payload(fingerprint) == store.payload(fingerprint)

    def test_load_merges_instead_of_replacing(self, tmp_path):
        first = PrecisionStore()
        Session(OPTIONS, store=first).run("forward")
        second = PrecisionStore()
        Session(OPTIONS, store=second).run("lock_step")
        first.save(tmp_path / "a.pkl")
        second.save(tmp_path / "b.pkl")

        merged = PrecisionStore(path=tmp_path / "a.pkl")
        merged.load(tmp_path / "b.pkl")
        assert set(merged.fingerprints()) == set(
            first.fingerprints() + second.fingerprints()
        )

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError, match="no path"):
            PrecisionStore().save()

    def test_corrupt_own_file_quarantined_not_raised(self, tmp_path):
        """A corrupt snapshot must not crash session start: quarantine + cold."""
        path = tmp_path / "bank.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            store = PrecisionStore(path=path)
        assert len(store) == 0
        assert not path.exists()
        assert (tmp_path / "bank.pkl.corrupt").exists()
        assert store.quarantined == [tmp_path / "bank.pkl.corrupt"]

    def test_non_dict_own_payload_quarantined(self, tmp_path):
        path = tmp_path / "bank.pkl"
        path.write_bytes(pickle.dumps(["wrong", "shape"]))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            store = PrecisionStore(path=path)
        assert len(store) == 0

    def test_explicit_load_of_foreign_corrupt_file_still_raises(self, tmp_path):
        """Quarantine applies to the store's *own* snapshot only; an explicit
        load of some other file keeps its loud failure mode."""
        path = tmp_path / "foreign.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.raises(ValueError, match="not a precision-store file"):
            PrecisionStore().load(path)

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        store = PrecisionStore()
        Session(OPTIONS, store=store).run("lock_step")
        store.save(tmp_path / "bank.pkl")
        # The stable advisory-lock file is deliberately left behind (it must
        # never be deleted: flock is per-inode); no *temp* files survive.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bank.pkl", "bank.pkl.lock",
        ]


class TestSessionRestart:
    def test_killed_and_restarted_session_warm_starts(self, tmp_path):
        """The acceptance round trip: a new Session resumes the old one's bank."""
        path = tmp_path / "bank.pkl"
        first = Session(OPTIONS, store_path=path)
        cold = first.run("forward")
        assert cold.verdict == Verdict.SAFE
        assert first.predicates_banked > 0
        assert path.exists()
        del first  # "kill" the session: only the file survives

        second = Session(OPTIONS, store_path=path)
        warm = second.run("forward")
        assert warm.verdict == Verdict.SAFE
        assert warm.engine_stats["session"]["warm_started"] is True
        assert warm.post_decisions() < cold.post_decisions()

    def test_restarted_session_extends_the_bank(self, tmp_path):
        path = tmp_path / "bank.pkl"
        Session(OPTIONS, store_path=path).run("forward")
        second = Session(OPTIONS, store_path=path)
        second.run("lock_step")
        assert len(PrecisionStore(path=path)) == 2

    def test_store_and_store_path_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            Session(store=PrecisionStore(), store_path=tmp_path / "bank.pkl")

    def test_undecided_runs_do_not_touch_the_file(self, tmp_path):
        path = tmp_path / "bank.pkl"
        session = Session(OPTIONS.replace(max_refinements=0), store_path=path)
        result = session.run("forward")
        assert result.verdict == Verdict.UNKNOWN
        assert not path.exists()


class TestFingerprintStability:
    def test_fingerprint_is_stable_across_processes(self):
        """Processes with different hash seeds compute the same key."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro import program_fingerprint\n"
            "from repro.lang import get_program\n"
            "print(program_fingerprint(get_program('forward')))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        prints = {
            subprocess.run(
                [sys.executable, "-c", script, src],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for _ in range(3)
        }
        assert len(prints) == 1
        assert prints == {program_fingerprint(get_program("forward"))}


# ----------------------------------------------------------------------
# Bounded memo tables
# ----------------------------------------------------------------------
class TestBoundedCaches:
    @staticmethod
    def _capped_checker(cap):
        checker = VcChecker()
        checker.PREPARED_EDGE_CAP = cap
        return checker

    def test_eviction_counter_reported_by_session(self):
        session = Session(OPTIONS, checker=self._capped_checker(2))
        session.run("lock_step")
        stats = session.statistics()
        assert stats["checker_caches"]["evictions"] > 0
        assert stats["checker"]["cache_evictions"] > 0

    def test_unbounded_by_default(self):
        session = Session(OPTIONS)
        session.run("lock_step")
        assert session.checker.cache_sizes()["evictions"] == 0

    def test_prepared_edges_are_always_bounded(self):
        """Each prepared edge pins a live solver context, so the table has
        its own LRU cap although the verdict caches are unbounded."""
        cap = 3
        checker = self._capped_checker(cap)
        transitions = sorted(get_program("forward").transitions, key=str)
        for transition in transitions:
            checker.post_all_predicates(frozenset(), transition, [])
            checker.edge_feasible(frozenset(), transition)
        assert len(transitions) > cap
        assert checker.cache_sizes()["prepared_edges"] <= cap
        assert checker.cache_evictions > 0
        # The verdict caches stayed unbounded.
        assert checker.cache_sizes()["edge_cache"] == len(transitions)

    def test_lru_keeps_recently_used_entries(self):
        checker = self._capped_checker(2)
        a, b, c = sorted(get_program("forward").transitions, key=str)[:3]
        first = checker._prepare_edge(frozenset(), a)
        checker._prepare_edge(frozenset(), b)
        assert checker._prepare_edge(frozenset(), a) is first  # refresh a
        checker._prepare_edge(frozenset(), c)  # evicts b
        assert set(checker._prepared_edges) == {(frozenset(), a), (frozenset(), c)}
        assert checker.cache_evictions == 1

    def test_churn_far_past_capacity_stays_correct(self):
        """Drive the prepared-edge table through well over 10x its
        capacity: a multi-program session under a tiny cap must evict
        constantly yet reproduce the uncapped verdicts, and the eviction
        counter must be monotone across runs."""
        programs = ["forward", "lock_step", "double_counter", "up_down",
                    "diamond_safe", "simple_safe", "simple_unsafe"]
        uncapped = Session(OPTIONS)
        expected = [uncapped.run(name).verdict for name in programs]
        assert uncapped.checker.cache_sizes()["evictions"] == 0

        cap = 4
        session = Session(OPTIONS, checker=self._capped_checker(cap))
        evictions_after = []
        verdicts = []
        for name in programs:
            verdicts.append(session.run(name).verdict)
            evictions_after.append(session.checker.cache_sizes()["evictions"])
        assert verdicts == expected
        # Monotone, and the churn really exceeded 10x the capacity.
        assert evictions_after == sorted(evictions_after)
        assert evictions_after[-1] > 10 * cap
        assert session.checker.cache_sizes()["prepared_edges"] <= cap
