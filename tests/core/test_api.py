"""Tests for the typed task/session API (repro.core.api).

Four load-bearing properties:

* **Options fidelity** — ``VerifierOptions`` validates at construction and
  round-trips losslessly through dicts and TOML/JSON files.
* **Schema stability** — ``Result.to_json`` is versioned and its key set is
  pinned by a golden test (the CLI, ``Session.run_many``, the daemon and the
  benchmark harness all consume it).
* **Entry-point equivalence** — ``verify(program, options=...)`` produces
  the same verdicts and precisions as the explicit
  ``Session``/``VerifierOptions`` path over the equivalence corpus.
* **Warm-start soundness** — seeding a run from previously discovered
  predicates never changes a decided verdict, and a warm rerun does
  strictly less abstract-post work whenever the cold run refined.
"""

import dataclasses
import json
import pickle

import pytest

from repro import (
    PrecisionStore,
    Session,
    VerificationTask,
    VerifierOptions,
    program_fingerprint,
    verify,
)
from repro.core import (
    Budget,
    Precision,
    RESULT_SCHEMA_VERSION,
    Verdict,
)
from repro.core import api
from repro.core.engine import _run_batch_task, task_payload
from repro.lang import get_program, get_source
from repro.logic.formulas import eq, le
from repro.logic.terms import LinExpr


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------
class TestVerifierOptions:
    def test_defaults_are_valid_and_frozen(self):
        options = VerifierOptions()
        assert options.refiner == "path-invariant"
        assert options.warm_start is True
        with pytest.raises(AttributeError):
            options.refiner = "path-formula"

    @pytest.mark.parametrize(
        "changes",
        [
            {"refiner": "alchemy"},
            {"strategy": "a-star"},
            {"max_refinements": -1},
            {"max_nodes": 0},
            {"max_seconds": -0.5},
            {"max_solver_calls": 0},
        ],
    )
    def test_validation_rejects_bad_values(self, changes):
        with pytest.raises(ValueError):
            VerifierOptions(**changes)

    def test_round_trip_through_dict(self):
        options = VerifierOptions(
            refiner="portfolio",
            strategy="dfs",
            max_refinements=7,
            max_nodes=None,
            max_seconds=1.5,
            max_solver_calls=900,
            warm_start=False,
        )
        payload = options.to_dict()
        json.dumps(payload)  # the dict form must be JSON-safe
        assert VerifierOptions.from_dict(payload) == options

    @pytest.mark.parametrize(
        "data",
        [
            {"refiner": "path-formula", "mood": "hopeful"},
            # Removed fields: restart mode and the portfolio's tuning are
            # engine constructor arguments; degraded retries are gone.
            {"incremental": False},
            {"portfolio_refiners": ["path-formula"]},
            {"slice_refinements": 1},
            {"monitor_window": 2},
            {"degrade_on_retry": True},
            # The kill follows max_seconds; checkers recycle whole.
            {"task_timeout": 20.0},
            {"max_cache_entries": 16},
            # The predicate cap decided no program the uncapped run leaves
            # undecided.
            {"max_predicates_per_location": 4},
        ],
        ids=lambda data: ",".join(data),
    )
    def test_from_dict_rejects_unknown_keys(self, data):
        with pytest.raises(ValueError, match="unknown option keys"):
            VerifierOptions.from_dict(data)

    def test_field_names_are_pinned(self):
        assert [field.name for field in dataclasses.fields(VerifierOptions)] == [
            "refiner", "strategy", "max_refinements", "max_nodes", "max_seconds",
            "max_solver_calls", "warm_start", "task_retries",
        ]

    def test_replace_validates(self):
        options = VerifierOptions()
        assert options.replace(strategy="dfs").strategy == "dfs"
        with pytest.raises(ValueError):
            options.replace(strategy="a-star")

    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "opts.toml"
        path.write_text(
            'refiner = "path-formula"\nmax_refinements = 3\nstrategy = "dfs"\n'
            "max_solver_calls = 5\nwarm_start = false\n"
        )
        options = VerifierOptions.from_file(path)
        assert options == VerifierOptions(
            refiner="path-formula",
            max_refinements=3,
            strategy="dfs",
            max_solver_calls=5,
            warm_start=False,
        )

    def test_from_json_file(self, tmp_path):
        options = VerifierOptions(refiner="portfolio", max_seconds=2.0)
        path = tmp_path / "opts.json"
        path.write_text(json.dumps(options.to_dict()))
        assert VerifierOptions.from_file(path) == options

    def test_budget_mapping(self):
        options = VerifierOptions(
            max_refinements=3, max_nodes=None, max_seconds=9.0, max_solver_calls=100
        )
        budget = options.budget()
        assert budget == Budget(
            max_refinements=3, max_nodes=None, max_seconds=9.0, max_solver_calls=100
        )


# ----------------------------------------------------------------------
# Tasks and fingerprints
# ----------------------------------------------------------------------
class TestTaskAndFingerprint:
    def test_fingerprint_stable_across_parses(self):
        assert program_fingerprint(get_program("forward")) == program_fingerprint(
            get_program("forward")
        )

    def test_fingerprint_distinguishes_programs(self):
        fingerprints = {
            program_fingerprint(get_program(name))
            for name in ("forward", "initcheck", "lock_step", "forward_buggy")
        }
        assert len(fingerprints) == 4

    def test_task_resolution_and_naming(self):
        task = VerificationTask(get_source("forward"))
        program = task.resolved()
        assert program.name == "forward" and task.name == "forward"
        named = VerificationTask(get_source("forward"), name="custom")
        named.resolved()
        assert named.name == "custom"
        assert task.fingerprint == named.fingerprint

    def test_session_task_coercions(self):
        session = Session()
        assert session.task("forward").name == "forward"  # built-in lookup
        raw = session.task("void f(int x) { assert(x == x); }")
        assert raw.source is not None and raw.resolved().name == "f"
        task = VerificationTask(get_program("lock_step"))
        assert session.task(task) is task


class TestIdentify:
    """``Session.identify``: each source text is parsed once per session."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        real = api.program_from_source

        def counting(source, *args, **kwargs):
            calls.append(source)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(api, "program_from_source", counting)
        return calls

    def test_a_repeat_takes_fingerprint_and_name_from_the_memo(self, parses):
        session = Session()
        first = session.task("forward")
        assert session.identify(first) == first.fingerprint
        again = session.task(get_source("forward"))
        assert session.identify(again) == first.fingerprint
        assert again.fingerprint == first.fingerprint
        assert again.name == "forward"  # the program's name, as resolved() sets it
        named = session.task(get_source("forward"), name="custom")
        session.identify(named)
        assert named.name == "custom"
        assert len(parses) == 1
        stats = session.statistics()
        assert stats["parse_hits"] == 2 and stats["parsed_sources"] == 1

    def test_the_least_recently_identified_source_goes_first(self, monkeypatch, parses):
        monkeypatch.setattr(Session, "PARSED_SOURCES", 2)
        session = Session()
        sources = {
            k: f"void {k}(int x) {{ assume(x >= {n}); assert(x >= {n}); }}"
            for n, k in enumerate("abc")
        }
        for k in "abac":  # c drops b, the least recently identified
            session.identify(session.task(sources[k]))
        assert parses == [sources["a"], sources["b"], sources["c"]]
        session.identify(session.task(sources["a"]))
        assert len(parses) == 3
        session.identify(session.task(sources["b"]))
        assert len(parses) == 4
        assert session.statistics()["parsed_sources"] == 2

    def test_built_programs_and_bad_sources_are_not_remembered(self, parses):
        session = Session()
        task = VerificationTask(get_program("lock_step"))
        assert session.identify(task) == program_fingerprint(get_program("lock_step"))
        for _ in range(2):
            with pytest.raises(Exception):
                session.identify(session.task("int main() { this is not mini-C }"))
        assert len(parses) == 2
        stats = session.statistics()
        assert stats["parse_hits"] == 0 and stats["parsed_sources"] == 0


# ----------------------------------------------------------------------
# The versioned result schema
# ----------------------------------------------------------------------
REQUIRED_KEYS = {
    "schema_version", "name", "verdict", "reason", "iterations", "refinements",
    "predicates", "seconds", "post_decisions", "nodes_reused", "engine",
    "per_iteration",
}
OPTIONAL_KEYS = {
    "witness", "solver", "portfolio", "refiner",
    # schema v2: supervised-execution keys
    "attempts", "failure", "failures",
}
ITERATION_KEYS = {
    "iteration", "nodes_created", "post_decisions", "counterexample_length",
    "counterexample_feasible", "new_predicates", "repair", "seconds",
}
#: The ``engine`` block: the frontier strategy, the mode, the ART's counters
#: and the session stamp.  No option adds a key to it.
ENGINE_KEYS = {
    "strategy", "incremental", "nodes_created", "nodes_live", "nodes_invalidated",
    "nodes_reused", "nodes_strengthened", "edges_expanded", "post_decisions",
    "frontier", "session",
}


class TestResultSchema:
    """Golden test: the to_json key set is a documented, versioned contract."""

    def _check(self, doc, verdict):
        assert doc["schema_version"] == RESULT_SCHEMA_VERSION == 2
        assert doc["verdict"] == verdict
        assert REQUIRED_KEYS <= set(doc)
        assert set(doc) <= REQUIRED_KEYS | OPTIONAL_KEYS, sorted(doc)
        for record in doc["per_iteration"]:
            assert set(record) == ITERATION_KEYS
        json.dumps(doc)

    def test_safe_result_document(self):
        doc = Session().run("lock_step").to_json()
        self._check(doc, "safe")
        assert "witness" not in doc
        assert doc["engine"]["session"]["warm_started"] is False

    def test_unsafe_result_document_carries_witness(self):
        doc = Session().run("simple_unsafe").to_json(name="renamed")
        self._check(doc, "unsafe")
        assert doc["name"] == "renamed"
        assert doc["witness"]

    @pytest.mark.parametrize(
        "source",
        ["void f() { assert(1 < 0); }", "void g(int x) { assert(x < x); }"],
    )
    def test_unsafe_needing_no_inputs_carries_an_empty_witness(self, source):
        """A failing path whose model is empty still reports ``witness``."""
        doc = Session().run(source).to_json()
        self._check(doc, "unsafe")
        assert doc["per_iteration"][-1]["counterexample_feasible"] is True
        assert doc["witness"] == {}

    @pytest.mark.parametrize(
        "source,witness",
        [
            (
                "forward_buggy",
                {"a@1": "0", "a@2": "1", "b@1": "0", "b@2": "2", "i@1": "0",
                 "i@2": "1", "n@0": "1"},
            ),
            ("simple_unsafe", {"x@0": "0", "y@1": "-1"}),
            ("array_init_buggy", {"i@1": "0", "i@2": "1", "i@3": "0", "n@0": "1"}),
            ("void f(int a[], int x) { assert(a[x] != 3); }", {}),
        ],
    )
    def test_witness_names_program_variables_only(self, source, witness):
        """Read values and flattened reads are solver-made ``#`` names."""
        doc = Session(VerifierOptions(max_refinements=8)).run(source).to_json()
        self._check(doc, "unsafe")
        assert doc["witness"] == witness

    @pytest.mark.parametrize(
        "name,options",
        [
            ("lock_step", VerifierOptions()),
            # A run its refinement budget stops, with dozens of predicates
            # at one location, reports the same keys as a decided run.
            ("forward", VerifierOptions(refiner="path-formula", max_refinements=6)),
        ],
        ids=["safe", "refinement-budget"],
    )
    def test_engine_block_key_set(self, name, options):
        doc = Session(options).run(name).to_json()
        assert set(doc["engine"]) == ENGINE_KEYS, sorted(doc["engine"])

    def test_portfolio_result_document(self):
        options = VerifierOptions(refiner="portfolio")
        doc = Session(options).run("lock_step").to_json()
        self._check(doc, "safe")
        assert doc["portfolio"]["winner"] in ("path-invariant", "path-formula")
        assert set(doc["engine"]) == ENGINE_KEYS | {"winner"}


# ----------------------------------------------------------------------
# The one-call entry point
# ----------------------------------------------------------------------
#: Same corpus as tests/core/test_engine.py — verify() must agree with the
#: explicit Session path pair for pair.
SHIM_CORPUS = [
    ("forward", "path-invariant"),
    ("forward", "path-formula"),
    ("initcheck", "path-invariant"),
    ("double_counter", "path-invariant"),
    ("double_counter", "path-formula"),
    ("up_down", "path-formula"),
    ("lock_step", "path-invariant"),
    ("lock_step", "path-formula"),
    ("simple_safe", "path-invariant"),
    ("simple_unsafe", "path-invariant"),
    ("simple_unsafe", "path-formula"),
    ("diamond_safe", "path-invariant"),
    ("forward_buggy", "path-invariant"),
    ("array_init_buggy", "path-invariant"),
    ("array_init_const", "path-invariant"),
    ("array_copy", "path-invariant"),
]


class TestVerifyEntryPoint:
    @pytest.mark.parametrize("name,refiner", SHIM_CORPUS)
    def test_verify_matches_session(self, name, refiner):
        options = VerifierOptions(refiner=refiner, max_refinements=4)
        direct = verify(get_program(name), options=options)
        modern = Session(options).run(get_program(name))
        assert direct.verdict == modern.verdict
        assert direct.precision.snapshot() == modern.precision.snapshot()

    def test_verify_has_no_tuning_kwargs(self):
        """Every tuning knob travels in options=; there is no second path."""
        with pytest.raises(TypeError):
            verify(get_program("lock_step"), max_refinements=3)

    def test_verify_refiner_name_stays_first_class(self):
        """refiner is the documented second positional."""
        result = verify(get_program("lock_step"), "path-formula")
        assert result.verdict == Verdict.SAFE
        # ...but it conflicts with options=, which carries its own.
        with pytest.raises(ValueError, match="not both"):
            verify(
                get_program("lock_step"),
                refiner="path-formula",
                options=VerifierOptions(),
            )

    def test_verify_options_path(self):
        result = verify(
            get_program("lock_step"), options=VerifierOptions(max_refinements=6)
        )
        assert result.verdict == Verdict.SAFE

    def test_run_many_batch_document(self):
        docs = Session(VerifierOptions(max_refinements=4)).run_many(
            ["lock_step"], jobs=1
        )
        assert docs[0]["verdict"] == "safe"
        assert docs[0]["schema_version"] == RESULT_SCHEMA_VERSION


# ----------------------------------------------------------------------
# Warm starts
# ----------------------------------------------------------------------
class TestWarmStart:
    @pytest.mark.parametrize("name,refiner", SHIM_CORPUS)
    def test_seeded_precision_never_changes_the_verdict(self, name, refiner):
        """Warm-start soundness over the whole corpus, both refiners."""
        options = VerifierOptions(refiner=refiner, max_refinements=4)
        session = Session(options)
        cold = session.run(name)
        warm = session.run(name)
        assert warm.verdict == cold.verdict
        # Only decided runs bank predicates (an undecided run's precision is
        # dominated by whatever made it diverge), so only they warm-start.
        decided = cold.verdict in (Verdict.SAFE, Verdict.UNSAFE)
        banked = decided and cold.precision.total_predicates() > 0
        assert warm.engine_stats["session"]["warm_started"] is banked

    def test_warm_rerun_strictly_fewer_posts(self):
        session = Session()
        cold = session.run("initcheck")
        warm = session.run("initcheck")
        assert cold.verdict == warm.verdict == Verdict.SAFE
        assert warm.post_decisions() < cold.post_decisions()
        assert warm.num_refinements == 0  # the seed already proves it

    def test_explicit_seed_wins_over_store(self):
        program = get_program("simple_safe")
        seed = Precision()
        location = program.locations[0]
        seed.add(location, le(LinExpr.variable("x"), LinExpr.constant(100)))
        result = Session().run(
            VerificationTask(program, initial_precision=seed)
        )
        assert result.verdict == Verdict.SAFE
        assert result.engine_stats["session"]["seeded_predicates"] == 1
        assert result.engine_stats["session"]["warm_started"] is False

    def test_undecided_runs_are_not_banked(self):
        """An unknown verdict's precision must not poison the store."""
        options = VerifierOptions(refiner="path-formula", max_refinements=2)
        session = Session(options)
        cold = session.run("forward")  # the baseline diverges here
        assert cold.verdict == Verdict.UNKNOWN
        assert cold.precision.total_predicates() > 0
        assert len(session.store) == 0
        warm = session.run("forward")
        assert warm.engine_stats["session"]["warm_started"] is False

    def test_warm_start_disabled_by_options(self):
        session = Session(VerifierOptions(warm_start=False))
        session.run("lock_step")
        again = session.run("lock_step")
        assert again.engine_stats["session"]["warm_started"] is False

    def test_store_rebinds_predicates_across_parses(self):
        store = PrecisionStore()
        first = get_program("forward")
        precision = Precision()
        predicate = eq(LinExpr.variable("i"), LinExpr.constant(0))
        precision.add(first.locations[1], predicate)
        fingerprint = program_fingerprint(first)
        assert store.update(fingerprint, precision) == 1
        assert store.update(fingerprint, precision) == 0  # merging is idempotent
        second = get_program("forward")  # an independent parse
        seed = store.seed_for(fingerprint, second)
        assert seed is not None and seed.total_predicates() == 1
        rebound_location = next(iter(seed.snapshot()))
        assert rebound_location in second.locations
        assert predicate in seed.snapshot()[rebound_location]

    def test_store_payload_is_kept_until_a_merge_adds_to_it(self):
        store = PrecisionStore()
        zero = eq(LinExpr.variable("x"), LinExpr.constant(0))
        one = eq(LinExpr.variable("y"), LinExpr.constant(1))
        store.merge("f", {"L1": [zero]})
        first = store.payload("f")
        assert store.merge("f", {"L1": [zero], "L2": []}) == 0
        kept = store.payload("f")
        assert kept == first == {"L1": (zero,)}
        assert kept["L1"] is first["L1"]  # not sorted again
        kept["L3"] = (one,)  # a caller's dict is its own
        assert store.payload("f") == {"L1": (zero,)}
        assert store.merge("f", {"L1": [one]}) == 1
        assert store.payload("f") == {"L1": tuple(sorted((zero, one), key=str))}

    def test_portfolio_warm_start_through_session(self):
        options = VerifierOptions(refiner="portfolio", max_refinements=8)
        session = Session(options)
        cold = session.run("double_counter")
        warm = session.run("double_counter")
        assert cold.verdict == warm.verdict == Verdict.SAFE
        assert warm.engine_stats["session"]["warm_started"] is True


# ----------------------------------------------------------------------
# Pickling (the transport layer of precision transfer)
# ----------------------------------------------------------------------
class TestPickling:
    def test_formulas_reintern_after_round_trip(self):
        result = Session().run("initcheck")  # includes quantified predicates
        total = 0
        for predicates in result.precision.snapshot().values():
            for predicate in predicates:
                loaded = pickle.loads(pickle.dumps(predicate))
                assert loaded == predicate
                assert loaded is predicate  # hash-consing survives transport
                total += 1
        assert total > 0

    def test_precision_payload_round_trips(self):
        result = Session().run("forward")
        payload = result.precision.by_location_name()
        loaded = pickle.loads(pickle.dumps(payload))
        assert loaded == payload
        rebound = Precision.from_location_names(get_program("forward"), loaded)
        assert rebound.snapshot() == result.precision.snapshot()


# ----------------------------------------------------------------------
# Session scheduling
# ----------------------------------------------------------------------
class TestSessionScheduling:
    def test_run_many_sequential_warm_starts_duplicates(self):
        session = Session()
        docs = session.run_many(["lock_step", "lock_step"], jobs=1)
        assert [doc["verdict"] for doc in docs] == ["safe", "safe"]
        assert docs[1]["engine"]["session"]["warm_started"] is True
        assert docs[1]["post_decisions"] < docs[0]["post_decisions"]
        json.dumps(docs)

    def test_run_many_pool_ships_precisions_home(self):
        session = Session()
        docs = session.run_many(
            ["lock_step", "double_counter", "simple_unsafe"], jobs=2
        )
        assert [doc["verdict"] for doc in docs] == ["safe", "safe", "unsafe"]
        json.dumps(docs)  # pickled precisions must never leak into the docs
        # The workers' discovered predicates were merged into the store.
        assert session.predicates_banked > 0
        assert len(session.store) == 2  # simple_unsafe discovers none
        warm = session.run("lock_step")
        assert warm.engine_stats["session"]["warm_started"] is True

    def test_run_many_sequential_isolates_bad_tasks(self):
        """A malformed source yields an error doc, not a batch abort."""
        session = Session()
        docs = session.run_many([("bad", "void broken( {"), "lock_step"], jobs=1)
        assert docs[0]["name"] == "bad" and docs[0]["verdict"] == "error"
        assert docs[0]["reason"]
        assert docs[0]["schema_version"] == RESULT_SCHEMA_VERSION
        assert docs[1]["verdict"] == "safe"
        assert session.tasks_run == 2  # error tasks count like the pool path
        json.dumps(docs)

    def test_run_many_pool_isolates_bad_tasks(self):
        """Parent-side parse failures must not abort a pooled batch."""
        session = Session()
        docs = session.run_many(
            [("bad", "void broken( {"), "lock_step", "double_counter"], jobs=2
        )
        assert docs[0]["name"] == "bad" and docs[0]["verdict"] == "error"
        assert docs[0]["schema_version"] == RESULT_SCHEMA_VERSION
        assert [doc["verdict"] for doc in docs[1:]] == ["safe", "safe"]
        assert session.tasks_run == 3
        json.dumps(docs)

    def test_run_many_without_warm_start_is_cold(self):
        source = get_source("lock_step")
        session = Session(VerifierOptions(max_refinements=8, warm_start=False))
        docs = session.run_many([("a", source), ("b", source)], jobs=1)
        assert [doc["verdict"] for doc in docs] == ["safe", "safe"]
        assert docs[0]["post_decisions"] == docs[1]["post_decisions"]
        assert docs[1]["engine"]["session"]["warm_started"] is False

    def test_run_many_mixed_task_forms(self):
        session = Session()
        docs = session.run_many(
            [
                "lock_step",
                ("inline", "void f(int x) { assert(x == x); }"),
                {"name": "strict", "source": get_source("simple_safe"),
                 "options": {"max_refinements": 2}},
            ],
            jobs=1,
        )
        assert [doc["name"] for doc in docs] == ["lock_step", "inline", "strict"]
        assert all(doc["verdict"] == "safe" for doc in docs)

    def test_session_statistics(self):
        session = Session()
        session.run("lock_step")
        session.run("lock_step")
        stats = session.statistics()
        assert stats["tasks_run"] == 2
        assert stats["warm_starts"] == 1
        assert stats["programs_known"] == 1
        assert stats["checker"]["triple_checks"] > 0
        assert stats["checker_caches"]["triple_cache"] > 0


class TestWorkerPayload:
    """A worker rebuilds its run from the one task payload: every option that
    reaches the engine must act there exactly as it does in-process."""

    _BASE = {"max_refinements": 8}
    _KEYS = (
        "verdict", "reason", "iterations", "refinements", "predicates",
        "post_decisions", "nodes_reused",
    )

    @classmethod
    def _outcome(cls, doc):
        outcome = {key: doc[key] for key in cls._KEYS}
        if "portfolio" in doc:
            outcome["portfolio"] = {
                **doc["portfolio"],
                "arms": [
                    {k: v for k, v in arm.items() if k != "seconds"}
                    for arm in doc["portfolio"]["arms"]
                ],
            }
        return outcome

    @classmethod
    def _in_worker(cls, options):
        payload = task_payload("lock_step", get_source("lock_step"), options)
        return cls._outcome(_run_batch_task(payload))

    @pytest.mark.parametrize(
        "base,changes",
        [
            pytest.param(base, changes, id=",".join(f"{k}={v}" for k, v in changes.items()))
            for base, changes in [
                (_BASE, {"refiner": "path-formula"}),
                (_BASE, {"strategy": "dfs"}),
                (_BASE, {"strategy": "error-distance"}),
                (_BASE, {"max_refinements": 1}),
                (_BASE, {"max_nodes": 5}),
                (_BASE, {"max_seconds": 0}),
                (_BASE, {"max_solver_calls": 20}),
                (_BASE, {"refiner": "portfolio"}),
            ]
        ],
    )
    def test_worker_run_matches_in_process_run(self, base, changes):
        options = VerifierOptions(**{**base, **changes})
        in_worker = self._in_worker(options)
        in_process = self._outcome(Session(options).run("lock_step").to_json())
        assert in_worker == in_process
        # The option changes the run, so a worker that dropped it would differ.
        assert in_worker != self._in_worker(VerifierOptions(**base))


class TestPerRunAccounting:
    """A checker shared by several runs (a session, a warm daemon worker)
    must not charge one run's solver budget or statistics to another."""

    def test_solver_budget_counts_from_the_run_start(self):
        options = VerifierOptions(max_solver_calls=400, warm_start=False)
        assert Session(options).run("lock_step").verdict == Verdict.SAFE
        session = Session(options)
        session.run("forward")
        later = session.run("lock_step")
        assert later.verdict == Verdict.SAFE, later.reason

    def test_portfolio_budget_counts_from_the_portfolio_start(self):
        options = VerifierOptions(
            refiner="portfolio", max_solver_calls=400, warm_start=False
        )
        assert Session(options).run("lock_step").verdict == Verdict.SAFE
        session = Session(options)
        session.run("forward")
        later = session.run("lock_step")
        assert later.verdict == Verdict.SAFE, later.reason

    def test_solver_block_reports_the_run_alone(self):
        session = Session(VerifierOptions(warm_start=False))
        first = session.run("forward").to_json()["solver"]
        # A fresh checker's run reports exactly the checker's statistics.
        assert first == session.checker.statistics()
        second = session.run("forward").to_json()["solver"]
        lifetime = session.checker.statistics()
        for key in ("sat_queries", "triple_checks", "post_queries", "edge_queries"):
            assert first[key] + second[key] == lifetime[key], key
        # The rerun is answered from the shared memo tables.
        assert second["sat_queries"] < first["sat_queries"]
