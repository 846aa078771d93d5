"""Smoke tests for the ``python -m repro`` command-line interface."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def run_cli(args):
    """Run the CLI in-process, capturing stdout via capsys at the call site."""
    return main(args)


class TestVerifyCommand:
    def test_builtin_safe_program(self, capsys):
        assert run_cli(["verify", "lock_step"]) == 0
        out = capsys.readouterr().out
        assert "verdict:      safe" in out
        assert "incremental" in out

    def test_unsafe_exit_code_and_witness(self, capsys):
        assert run_cli(["verify", "simple_unsafe"]) == 1
        assert "verdict:      unsafe" in capsys.readouterr().out

    def test_unknown_exit_code(self, capsys):
        assert run_cli(["verify", "forward", "--refiner", "path-formula",
                        "--max-refinements", "2"]) == 2

    def test_json_output(self, capsys):
        assert run_cli(["verify", "lock_step", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "lock_step"
        assert payload["verdict"] == "safe"
        assert payload["engine"]["incremental"] is True
        assert payload["schema_version"] == 2

    def test_options_file_toml(self, tmp_path, capsys):
        opts = tmp_path / "opts.toml"
        opts.write_text('refiner = "path-formula"\nmax_refinements = 2\n')
        assert run_cli(["verify", "forward", "--options", str(opts)]) == 2
        capsys.readouterr()  # drain the summary output
        assert run_cli(["verify", "forward", "--options", str(opts), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["refinements"] <= 2

    def test_options_file_json_with_flag_override(self, tmp_path, capsys):
        opts = tmp_path / "opts.json"
        opts.write_text(json.dumps({"refiner": "path-formula", "max_refinements": 2}))
        # The explicit flag overrides the file's refiner; path-invariant
        # proves FORWARD within two refinements.
        assert run_cli([
            "verify", "forward", "--options", str(opts),
            "--refiner", "path-invariant", "--max-refinements", "8",
        ]) == 0

    def test_options_file_errors_are_usage_errors(self, tmp_path, capsys):
        missing = tmp_path / "nope.toml"
        assert run_cli(["verify", "forward", "--options", str(missing)]) == 3
        bad = tmp_path / "bad.toml"
        bad.write_text('refiner = "alchemy"\n')
        assert run_cli(["verify", "forward", "--options", str(bad)]) == 3
        assert "unknown refiner" in capsys.readouterr().err
        # Wrong-typed values are a usage error too, never a verdict code.
        typed = tmp_path / "typed.toml"
        typed.write_text('max_refinements = "five"\n')
        assert run_cli(["verify", "forward", "--options", str(typed)]) == 3

    @pytest.mark.parametrize(
        "args,rejected",
        [
            # One verification runs sequentially; only ``batch --jobs`` sizes
            # a pool.
            (["--jobs", "2"], "--jobs 2"),
            # The portfolio always runs its arms round-robin in-process.
            (["--refiner", "portfolio", "--portfolio-mode", "round-robin"],
             "--portfolio-mode round-robin"),
            # Restart mode is an engine-level test reference
            # (``VerificationEngine(incremental=False)``), not a product knob.
            (["--restart"], "--restart"),
            (["--degrade-on-retry"], "--degrade-on-retry"),
            # A hung worker is killed a fixed grace past --max-seconds.
            (["--task-timeout", "60"], "--task-timeout 60"),
        ],
        ids=["jobs", "portfolio-mode", "restart", "degrade-on-retry", "task-timeout"],
    )
    def test_removed_flags_are_rejected(self, args, rejected, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["verify", "forward", *args])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {rejected}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["batch", "serve", "submit"])
    def test_task_timeout_is_rejected_on_every_subcommand(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([command, "--task-timeout", "60"])
        assert excinfo.value.code == 2
        # batch and submit take the 60 for a target.
        assert "unrecognized arguments: --task-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,text",
        [
            ("jobs", "jobs = 2\n"),
            ("portfolio_mode", 'refiner = "portfolio"\nportfolio_mode = "process"\n'),
            ("incremental", "incremental = false\n"),
            ("task_timeout", "task_timeout = 60.0\n"),
            ("max_cache_entries", "max_cache_entries = 64\n"),
        ],
        ids=["jobs", "portfolio_mode", "incremental", "task_timeout",
             "max_cache_entries"],
    )
    def test_options_file_removed_key_is_a_usage_error(self, tmp_path, capsys, key, text):
        opts = tmp_path / "opts.toml"
        opts.write_text(text)
        assert run_cli(["verify", "forward", "--options", str(opts)]) == 3
        assert f"unknown option keys ['{key}']" in capsys.readouterr().err

    def test_max_seconds_ends_in_unknown_with_a_wall_clock_reason(self, capsys):
        """A run stuck in refinement still stops at its wall-clock budget."""
        started = time.perf_counter()
        code = run_cli(["verify", "partition", "--max-seconds", "1", "--json"])
        assert time.perf_counter() - started < 2.0
        assert code == 2
        assert "wall-clock budget exhausted" in json.loads(capsys.readouterr().out)["reason"]

    def test_max_predicates_per_location_flag(self, capsys):
        assert run_cli([
            "verify", "forward", "--refiner", "path-formula",
            "--max-refinements", "4", "--max-predicates-per-location", "3",
            "--json",
        ]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"]["max_predicates_per_location"] == 3

    def test_source_file(self, tmp_path, capsys):
        source = tmp_path / "abs.c"
        source.write_text(
            "void abs_ok(int x) { int y; if (x >= 0) { y = x; } else { y = 0 - x; } assert(y >= 0); }"
        )
        assert run_cli(["verify", str(source)]) == 0
        assert "abs_ok" in capsys.readouterr().out

    def test_missing_target(self, capsys):
        assert run_cli(["verify", "no_such_program"]) == 3
        assert "neither a built-in" in capsys.readouterr().err

    def test_malformed_source_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("void broken( {")
        assert run_cli(["verify", str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_portfolio_refiner(self, capsys):
        """--refiner portfolio proves FORWARD, on which path-formula alone
        diverges, and reports the per-refiner breakdown."""
        assert run_cli(["verify", "forward", "--refiner", "portfolio"]) == 0
        out = capsys.readouterr().out
        assert "verdict:      safe" in out
        assert "winner=path-invariant" in out

    def test_portfolio_json_breakdown(self, capsys):
        assert run_cli([
            "verify", "double_counter", "--refiner", "portfolio", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "safe"
        portfolio = payload["portfolio"]
        assert portfolio["mode"] == "round-robin"
        assert portfolio["winner"] == "path-invariant"
        assert {arm["refiner"] for arm in portfolio["arms"]} == {
            "path-invariant", "path-formula",
        }

    def test_help_epilog_mentions_portfolio(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["verify", "--help"])
        assert excinfo.value.code == 0
        assert "--refiner portfolio" in capsys.readouterr().out

    def test_precision_store_warm_starts_second_invocation(self, tmp_path, capsys):
        store = tmp_path / "bank.pkl"
        assert run_cli(["verify", "forward", "--precision-store", str(store),
                        "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert store.exists()
        assert run_cli(["verify", "forward", "--precision-store", str(store),
                        "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["engine"]["session"]["warm_started"] is True
        assert warm["post_decisions"] < cold["post_decisions"]

    def test_corrupt_precision_store_quarantined_and_run_succeeds(
        self, tmp_path, capsys
    ):
        """A corrupt store no longer aborts the run: it is quarantined
        (renamed ``*.corrupt``) and the session starts cold."""
        store = tmp_path / "bank.pkl"
        store.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert run_cli(
                ["verify", "lock_step", "--precision-store", str(store)]
            ) == 0
        assert "verdict:      safe" in capsys.readouterr().out
        assert (tmp_path / "bank.pkl.corrupt").exists()
        assert store.exists()  # the decided run re-banked a fresh snapshot


class TestBatchCommand:
    def test_batch_json_document(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        code = run_cli([
            "batch", "lock_step", "simple_unsafe",
            "--jobs", "1", "--output", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["tasks"] == 2
        assert payload["verdicts"] == {"safe": 1, "unsafe": 1}
        assert payload["schema_version"] == 2
        assert payload["session"]["tasks_run"] == 2

    def test_batch_session_warm_starts_repeated_targets(self, tmp_path):
        out_file = tmp_path / "warm.json"
        code = run_cli([
            "batch", "lock_step", "lock_step",
            "--jobs", "1", "--output", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        first, again = payload["results"]
        assert payload["session"]["warm_starts"] == 1
        assert again["engine"]["session"]["warm_started"] is True
        assert again["post_decisions"] < first["post_decisions"]

    def test_batch_precision_store_spans_invocations(self, tmp_path):
        store = tmp_path / "bank.pkl"
        first_out = tmp_path / "first.json"
        second_out = tmp_path / "second.json"
        assert run_cli(["batch", "lock_step", "--jobs", "1",
                        "--precision-store", str(store),
                        "--output", str(first_out)]) == 0
        assert run_cli(["batch", "lock_step", "--jobs", "1",
                        "--precision-store", str(store),
                        "--output", str(second_out)]) == 0
        cold = json.loads(first_out.read_text())["results"][0]
        warm = json.loads(second_out.read_text())["results"][0]
        assert warm["engine"]["session"]["warm_started"] is True
        assert warm["post_decisions"] < cold["post_decisions"]

    def test_batch_no_warm_start_flag(self, tmp_path):
        out_file = tmp_path / "cold.json"
        code = run_cli([
            "batch", "lock_step", "lock_step", "--no-warm-start",
            "--jobs", "1", "--output", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["session"]["warm_starts"] == 0
        first, again = payload["results"]
        assert again["post_decisions"] == first["post_decisions"]

    def test_batch_supervision_flags_plumb_through(self, tmp_path):
        """``--max-seconds``/``--retries`` reach the supervisor (its kill sits
        KILL_GRACE_S past the budget), whose statistics land in the batch
        document's session block."""
        out_file = tmp_path / "supervised.json"
        code = run_cli([
            "batch", "lock_step", "simple_safe", "--jobs", "2",
            "--max-seconds", "58", "--retries", "1",
            "--output", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["verdicts"] == {"safe": 2}
        supervision = payload["session"]["supervision"]
        assert supervision["task_timeout"] == 60.0
        assert supervision["max_retries"] == 1
        assert supervision["tasks_failed"] == 0
        for result in payload["results"]:
            assert result["attempts"] == 1
            assert "failure" not in result

    def test_batch_unknown_exit_code(self, capsys):
        code = run_cli(["batch", "forward", "--jobs", "1", "--max-refinements", "0"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"][0]["verdict"] == "unknown"

    def test_batch_requires_targets(self, capsys):
        assert run_cli(["batch"]) == 3

    def test_batch_jobs_is_pool_width_not_an_option(self):
        from repro.__main__ import _resolve_options, build_parser
        from repro.core.api import VerifierOptions

        args = build_parser().parse_args(["batch", "forward", "--jobs", "2"])
        # batch --jobs sizes the task pool (Session.run_many's jobs=); it
        # never reaches the per-task options.
        assert args.jobs == 2
        assert _resolve_options(args) == VerifierOptions()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_isolates_malformed_sources(self, tmp_path, capsys, jobs):
        bad = tmp_path / "bad.c"
        bad.write_text("void broken( {")
        code = run_cli(["batch", str(bad), "lock_step", "--jobs", jobs])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert [r["verdict"] for r in payload["results"]] == ["error", "safe"]


class TestListCommand:
    def test_lists_builtins(self, capsys):
        assert run_cli(["list"]) == 0
        out = capsys.readouterr().out
        assert "forward" in out and "initcheck" in out


class TestServeCommand:
    """perfbench's daemon workload starts ``repro serve --worker-backend
    process``, so the flag keeps parsing, with that one accepted value."""

    def test_worker_backend_process_parses(self):
        args = build_parser().parse_args(["serve", "--worker-backend", "process"])
        assert args.worker_backend == "process"

    def test_worker_backend_thread_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--worker-backend", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err


class TestFuzzCommand:
    def test_clean_batch_exits_zero(self, capsys):
        assert run_cli(["fuzz", "--seed", "1", "--count", "3", "--oracle", "batched"]) == 0
        out = capsys.readouterr().out
        assert "3 programs" in out and "clean" in out

    def test_json_document(self, capsys):
        assert run_cli(["fuzz", "--seed", "4", "--count", "2", "--oracle",
                        "incremental", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["programs_generated"] == 2
        assert payload["mismatches"] == []
        assert payload["oracles"] == ["incremental"]

    def test_rejects_wall_clock_free_budget_misuse(self, capsys):
        # Degenerate generator shapes are usage errors, not crashes.
        assert run_cli(["fuzz", "--count", "1", "--statements", "0"]) == 3
        assert "error:" in capsys.readouterr().err


@pytest.mark.slow
def test_module_entry_point_subprocess():
    """``python -m repro`` works end to end in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "verify", "lock_step", "--json"],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": SRC_ROOT, "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout)["verdict"] == "safe"
