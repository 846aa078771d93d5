"""Command-line interface: ``python -m repro`` / the ``repro`` console script.

Three subcommands drive the verification session API:

``repro verify FILE|NAME``
    Verify one program — a mini-C source file or the name of a built-in
    benchmark — and print a human-readable summary (or ``--json``, the
    versioned result schema).
    Exit code: 0 safe, 1 unsafe, 2 unknown, 3 usage/input error.

``repro batch FILE|NAME ... [--suite]``
    Verify a corpus through **one reusable session**.  With ``--jobs 1``
    tasks run sequentially and repeated programs warm-start from precisions
    discovered earlier in the batch; on a process pool, seeds are fixed at
    submission time (concurrent repeats run cold), but every worker still
    ships its discovered precision back into the session's store.  Prints
    one machine-readable JSON document for the whole batch.
    Exit code: 0 when every task verified (safe or unsafe — a *verdict* is a
    success), 2 when any task came back unknown or errored.

``repro fuzz``
    Differential fuzzing: generate a seeded corpus of well-typed programs
    and run each through paired engine configurations (batched vs scalar
    posts, incremental vs restart, portfolio vs winning arm, daemon vs
    in-process), asserting the equivalence contracts the engine
    guarantees.  Any violation is shrunk to a 1-minimal reproducer.
    Exit code: 0 clean, 1 mismatches found, 3 usage error.

``repro serve``
    Run the verification daemon (see :mod:`repro.serve`): an asyncio
    JSON-over-TCP front over a supervised worker pool with request
    coalescing, bounded admission, and cross-request warm-starting through
    a shared precision store.  Drains gracefully on SIGTERM/SIGINT.

``repro submit FILE|NAME ... [--suite]``
    Send a corpus to a running daemon and print the batch JSON document
    (same shape as ``repro batch``).  Transport failures come back as
    structured result docs, never tracebacks.
    Exit code: 0 when every task verified, 2 when any came back unknown or
    errored, 3 when the daemon is unreachable.

``repro list``
    List the built-in benchmark programs.

Every tuning knob can come from an options file (``--options opts.toml`` or
``.json``, the :meth:`~repro.core.api.VerifierOptions.to_dict` key set);
explicit command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Optional

from .core.api import Session, VerifierOptions
from .core.engine import RESULT_SCHEMA_VERSION, Verdict
from .core.predabs import FRONTIER_NAMES
from .core.verifier import ENGINE_REFINER_NAMES
from .lang.programs import PROGRAMS
from .serve.client import DEFAULT_PORT as _DEFAULT_SERVE_PORT
from .testgen.differential import ORACLES as _ORACLE_NAMES

EXIT_SAFE = 0
EXIT_UNSAFE = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--options", metavar="FILE", default=None,
        help="load a VerifierOptions table from a .toml or .json file "
        "(explicit flags below override file values)",
    )
    parser.add_argument(
        "--refiner", choices=ENGINE_REFINER_NAMES, default=None,
        help="refinement strategy (default: the paper's path-invariant refiner; "
        "'portfolio' runs all refiners round-robin under one budget, with "
        "divergence detection)",
    )
    parser.add_argument(
        "--strategy", choices=FRONTIER_NAMES, default=None,
        help="ART exploration order (default: bfs)",
    )
    parser.add_argument(
        "--max-refinements", type=int, default=None, metavar="N",
        help="CEGAR iteration budget (default: 25)",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="cumulative ART node budget (default: 4000)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None, metavar="S",
        help="wall-clock budget per task, enforced in every layer of the "
        "run; a worker process still running a fixed grace past its batch's "
        "largest budget is killed and the task retried (default: none)",
    )
    parser.add_argument(
        "--no-warm-start", action="store_true",
        help="do not seed repeated programs from previously discovered "
        "precisions (batch mode runs every task cold)",
    )
    parser.add_argument(
        "--precision-store", metavar="PATH", default=None,
        help="disk-backed precision bank: load discovered predicates from "
        "PATH at startup and save new ones back (locked, journalled, "
        "crash-safe), so warm starts survive across invocations — even "
        "concurrent ones",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="supervised batch pools: retries granted per task after a "
        "worker crash/hang/error before it settles as a structured "
        "failure record (default: 2)",
    )


#: CLI flag attribute -> VerifierOptions field, for value-bearing flags.
_FLAG_FIELDS = {
    "refiner": "refiner",
    "strategy": "strategy",
    "max_refinements": "max_refinements",
    "max_nodes": "max_nodes",
    "max_seconds": "max_seconds",
    "retries": "task_retries",
}


def _resolve_options(args: argparse.Namespace) -> VerifierOptions:
    """Options file (if any) -> defaults, then explicit flags override."""
    if args.options:
        options = VerifierOptions.from_file(args.options)
    else:
        options = VerifierOptions()
    overrides: dict[str, Any] = {
        field: getattr(args, flag)
        for flag, field in _FLAG_FIELDS.items()
        if getattr(args, flag) is not None
    }
    if args.no_warm_start:
        overrides["warm_start"] = False
    return options.replace(**overrides) if overrides else options


def _load_source(target: str) -> tuple[str, str]:
    """Resolve a CLI target to ``(name, source)``: builtin name or file path."""
    if target in PROGRAMS:
        return target, PROGRAMS[target].source
    path = Path(target)
    if path.exists():
        return path.stem, path.read_text()
    raise FileNotFoundError(
        f"{target!r} is neither a built-in program nor an existing file; "
        f"see 'repro list' for the built-ins"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        name, source = _load_source(args.target)
        options = _resolve_options(args)
        session = Session(options, store_path=args.precision_store)
        task = session.task(source, name=name)
        # Parse eagerly inside the handler: a malformed file (ParseError is
        # a ValueError) and a wrong-typed --options value (TypeError) are
        # usage errors — exit 3, never code 1 ("verified unsafe").  The run
        # itself stays outside, so a genuine engine crash keeps its
        # traceback instead of masquerading as bad input.
        task.resolved()
    except (FileNotFoundError, OSError, ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    result = session.run(task)
    if args.json:
        json.dump(result.to_json(name=name), sys.stdout, indent=2)
        print()
    else:
        print(result.summary())
        if result.is_unsafe and result.counterexample is not None:
            witness = result.counterexample.witness_inputs(result.program.variables)
            if witness:
                rendered = ", ".join(f"{k} = {v}" for k, v in sorted(witness.items()))
                print(f"witness:      {rendered}")
        if result.precision is not None and args.show_precision:
            print("precision:")
            print(str(result.precision))
    return {
        Verdict.SAFE: EXIT_SAFE,
        Verdict.UNSAFE: EXIT_UNSAFE,
    }.get(result.verdict, EXIT_UNKNOWN)


def _cmd_batch(args: argparse.Namespace) -> int:
    targets = list(args.targets)
    if args.suite:
        targets.extend(sorted(PROGRAMS))
    if not targets:
        print("error: no targets (pass files/names or --suite)", file=sys.stderr)
        return EXIT_ERROR
    tasks = []
    try:
        options = _resolve_options(args)
        for target in targets:
            name, source = _load_source(target)
            tasks.append({"name": name, "source": source})
    except (FileNotFoundError, OSError, ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    # One session for the whole batch: shared checker memo, and repeated
    # targets warm-start from the precisions earlier tasks discovered (and,
    # with --precision-store, from what previous invocations discovered).
    try:
        session = Session(options, store_path=args.precision_store)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    results = session.run_many(tasks, jobs=args.jobs)
    payload = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "tasks": len(results),
        "verdicts": {
            verdict: sum(1 for r in results if r["verdict"] == verdict)
            for verdict in sorted({r["verdict"] for r in results})
        },
        "session": {
            key: value
            for key, value in session.statistics().items()
            if key != "checker"
        },
        "results": results,
    }
    output = json.dumps(payload, indent=2)
    if args.output:
        Path(args.output).write_text(output + "\n")
        print(f"wrote {args.output} ({len(results)} results)")
    else:
        print(output)
    decided = all(r["verdict"] in (Verdict.SAFE, Verdict.UNSAFE) for r in results)
    return EXIT_SAFE if decided else EXIT_UNKNOWN


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .testgen import run_fuzz, shutdown_serve_oracle
    from .testgen.differential import fuzz_options
    from .testgen.generator import GenConfig

    oracles = _ORACLE_NAMES if args.oracle == "all" else (args.oracle,)
    try:
        options = fuzz_options(
            max_refinements=args.max_refinements,
            max_nodes=args.max_nodes,
            max_solver_calls=args.max_solver_calls,
        )
        config = GenConfig(statements=args.statements, max_depth=args.max_depth)
        report = run_fuzz(
            seed=args.seed,
            count=args.count,
            oracles=oracles,
            options=options,
            config=config,
            plant_every=args.plant_every,
            shrink=not args.no_shrink,
            corpus_dir=args.corpus_dir,
            log=None if args.json else lambda line: print(line, file=sys.stderr),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        shutdown_serve_oracle()
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print(report.summary())
        for mismatch in report.mismatches:
            print(
                f"  seed {mismatch.seed}: {mismatch.oracle}/{mismatch.kind} "
                f"- {mismatch.detail}"
                + (f" -> {mismatch.corpus_path}" if mismatch.corpus_path else "")
            )
    return EXIT_SAFE if report.clean else EXIT_UNSAFE


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServiceConfig, VerificationService

    try:
        options = _resolve_options(args)
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue=args.max_queue,
            request_timeout=args.request_timeout,
            store_path=args.precision_store,
            options=options,
            journal_path=args.request_journal,
            recover=args.recover,
            quota_rate=args.quota_rate,
            quota_burst=args.quota_burst,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
        )
        service = VerificationService(config)
    except (OSError, ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR

    def _announce(ready: VerificationService) -> None:
        # The ready line stays first on stdout (scripts parse it for the
        # port); the journal recovery report follows it.
        print(
            f"repro-serve listening on {config.host}:{ready.port} "
            f"(pid {os.getpid()}, {config.workers} workers, "
            f"queue {config.max_queue}); SIGTERM drains gracefully",
            flush=True,
        )
        journal = ready.journal
        if journal is not None and journal.recovered:
            names = ", ".join(
                str(record.get("name") or f"seq{record.get('seq')}")
                for record in journal.recovered[:8]
            )
            if len(journal.recovered) > 8:
                names += ", ..."
            action = "re-executing" if config.recover else "not re-executed (pass --recover)"
            print(
                f"repro-serve journal: {len(journal.recovered)} accepted-but-"
                f"unanswered request(s) recovered from {journal.path} "
                f"({names}); {action}",
                flush=True,
            )

    try:
        service.serve_forever(on_ready=_announce)
    except OSError as error:  # e.g. port already in use
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    print("repro-serve drained; store flushed", flush=True)
    return EXIT_SAFE


def _cmd_submit(args: argparse.Namespace) -> int:
    from .serve import ServiceClient, ServiceError

    targets = list(args.targets)
    if args.suite:
        targets.extend(sorted(PROGRAMS))
    if not targets and not args.shutdown:
        print("error: no targets (pass files/names or --suite)", file=sys.stderr)
        return EXIT_ERROR
    tasks = []
    try:
        # Ship options only when the caller configured any: the daemon's own
        # defaults apply otherwise (and coalesce with other clients' work).
        options = _resolve_options(args)
        options_doc = options.to_dict() if options != VerifierOptions() else None
        for target in targets:
            name, source = _load_source(target)
            tasks.append({"name": name, "source": source})
    except (FileNotFoundError, OSError, ValueError, TypeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    client = ServiceClient(
        args.host,
        args.port,
        timeout=args.timeout,
        retries=args.transport_retries,
        client_id=args.client_id,
    )
    try:
        try:
            client.connect()
        except (ConnectionError, OSError) as error:
            print(
                f"error: cannot reach daemon at {args.host}:{args.port}: {error}",
                file=sys.stderr,
            )
            return EXIT_ERROR
        results = client.submit_many(
            tasks, options=options_doc, include_precision=args.include_precision
        )
        payload: dict[str, Any] = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "tasks": len(results),
            "verdicts": {
                verdict: sum(1 for r in results if r["verdict"] == verdict)
                for verdict in sorted({r["verdict"] for r in results})
            },
            "results": results,
        }
        if args.show_stats:
            try:
                payload["daemon"] = client.stats()
            except ServiceError as error:
                payload["daemon"] = {"error": str(error)}
        if args.shutdown:
            try:
                client.shutdown()
                payload["shutdown"] = "draining"
            except ServiceError as error:
                payload["shutdown"] = f"failed: {error}"
        output = json.dumps(payload, indent=2)
        if args.output:
            Path(args.output).write_text(output + "\n")
            print(f"wrote {args.output} ({len(results)} results)")
        else:
            print(output)
    finally:
        client.close()
    if not results and args.shutdown:
        return EXIT_SAFE
    decided = all(r["verdict"] in (Verdict.SAFE, Verdict.UNSAFE) for r in results)
    return EXIT_SAFE if decided else EXIT_UNKNOWN


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(PROGRAMS):
        program = PROGRAMS[name]
        expected = "safe" if program.expected_safe else "unsafe"
        print(f"{name:20s} {expected:7s} {program.description}")
    return EXIT_SAFE


_EPILOG = """\
examples:
  repro verify forward                          the paper's FORWARD example
  repro verify forward --refiner portfolio      path-invariant and
                                                path-formula round-robin under
                                                one budget; a diverging
                                                refiner is demoted and its
                                                budget handed to the others
  repro verify forward --options opts.toml      load every knob from a TOML
                                                (or JSON) options file;
                                                explicit flags still win
  repro verify forward --refiner portfolio --json
                                                the portfolio with a
                                                per-refiner JSON breakdown
  repro batch --suite --jobs 4 -o results.json  the whole built-in corpus
                                                through one warm-starting
                                                session

options file (TOML):
  refiner = "portfolio"
  max_refinements = 12
  strategy = "bfs"
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path-invariant CEGAR verifier (PLDI 2007 reproduction)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify_parser = subparsers.add_parser(
        "verify", help="verify one mini-C file or built-in program",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    verify_parser.add_argument("target", help="source file path or built-in program name")
    _add_engine_options(verify_parser)
    verify_parser.add_argument("--json", action="store_true", help="machine-readable output")
    verify_parser.add_argument(
        "--show-precision", action="store_true",
        help="print the discovered predicates per location",
    )
    verify_parser.set_defaults(func=_cmd_verify)

    batch_parser = subparsers.add_parser(
        "batch", help="verify a corpus through one session (JSON results)"
    )
    batch_parser.add_argument("targets", nargs="*", help="source files and/or built-in names")
    batch_parser.add_argument("--suite", action="store_true", help="include every built-in program")
    _add_engine_options(batch_parser)
    batch_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="process-pool width (default: min(tasks, cpus); 1 = sequential)",
    )
    batch_parser.add_argument(
        "--output", "-o", metavar="FILE", help="write the JSON document to FILE"
    )
    batch_parser.set_defaults(func=_cmd_batch)

    fuzz_parser = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing of paired engine configurations",
        description="Generate a seeded corpus of well-typed programs and "
        "check engine equivalence contracts (batched vs scalar posts, "
        "incremental vs restart, portfolio vs winning arm, daemon vs "
        "in-process).  Mismatches are shrunk to 1-minimal reproducers.",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="corpus seed; the same seed reproduces the same programs "
        "bit-for-bit, across processes and hash seeds (default: 0)",
    )
    fuzz_parser.add_argument(
        "--count", type=int, default=25, metavar="N",
        help="number of programs to generate (default: 25)",
    )
    fuzz_parser.add_argument(
        "--oracle", choices=("all",) + tuple(_ORACLE_NAMES), default="all",
        help="which paired-configuration oracle to run (default: all)",
    )
    fuzz_parser.add_argument(
        "--plant-every", type=int, default=3, metavar="K",
        help="plant a reachable bug in every K-th program so unsafe "
        "verdicts are exercised (default: 3)",
    )
    fuzz_parser.add_argument(
        "--statements", type=int, default=5, metavar="N",
        help="top-level statement slots per generated program (default: 5)",
    )
    fuzz_parser.add_argument(
        "--max-depth", type=int, default=2, metavar="D",
        help="maximum loop/branch nesting depth (default: 2)",
    )
    fuzz_parser.add_argument(
        "--max-refinements", type=int, default=6, metavar="N",
        help="per-configuration CEGAR budget; deterministic, so both sides "
        "of every comparison see the same cutoff (default: 6)",
    )
    fuzz_parser.add_argument(
        "--max-nodes", type=int, default=300, metavar="N",
        help="per-configuration ART node budget (default: 300)",
    )
    fuzz_parser.add_argument(
        "--max-solver-calls", type=int, default=3000, metavar="N",
        help="per-configuration Hoare-triple budget; charged identically on "
        "both sides of a strict oracle, so pathological programs stay "
        "comparable instead of running for minutes (default: 3000)",
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true",
        help="report mismatches without minimising them (faster triage)",
    )
    fuzz_parser.add_argument(
        "--corpus-dir", metavar="DIR", default=None,
        help="write shrunk reproducers into DIR (the committed regression "
        "corpus lives in tests/corpus/)",
    )
    fuzz_parser.add_argument("--json", action="store_true", help="machine-readable output")
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the verification daemon (JSON over TCP)",
        description="A long-lived verification service: asyncio front, "
        "bounded request queue over a supervised worker pool, request "
        "coalescing by program fingerprint + options, and cross-request "
        "warm-starting through a shared precision store.  SIGTERM/SIGINT "
        "drain gracefully: stop accepting, finish in-flight work, flush "
        "the store.",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=_DEFAULT_SERVE_PORT, metavar="N",
        help=f"TCP port; 0 picks a free one (default: {_DEFAULT_SERVE_PORT})",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent engine runs (default: 2)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=16, metavar="N",
        help="admitted-but-waiting verify jobs beyond the workers; further "
        "new work is rejected with a 429-style 'overloaded' doc "
        "(default: 16)",
    )
    serve_parser.add_argument(
        "--request-timeout", type=float, default=None, metavar="S",
        help="per-request isolation wall: clamps each request's max_seconds "
        "budget to S and kills a worker still running S plus a fixed grace "
        "later (default: none)",
    )
    # perfbench's daemon workload still passes `--worker-backend process`.
    serve_parser.add_argument(
        "--worker-backend", choices=("process",), default="process",
        help="accepted for compatibility; engine runs always execute in "
        "isolated worker processes, so a segfault/OOM/kill -9 of a worker "
        "becomes a structured failure doc instead of daemon death",
    )
    serve_parser.add_argument(
        "--request-journal", metavar="PATH", default=None,
        help="durable request journal (write-ahead log): accepted requests "
        "are fsync'd to PATH before execution and marked on response; on "
        "restart, accepted-but-unanswered work is reported (default: off)",
    )
    serve_parser.add_argument(
        "--recover", action="store_true",
        help="re-execute journal-recovered unanswered requests on startup "
        "(needs --request-journal); resubmitting clients coalesce onto the "
        "recovery runs",
    )
    serve_parser.add_argument(
        "--quota-rate", type=float, default=None, metavar="R",
        help="per-client token-bucket rate (verify requests/second, keyed "
        "by the request's client_id); over-rate requests get a 429 "
        "'quota-exceeded' doc with retry_after (default: no quotas)",
    )
    serve_parser.add_argument(
        "--quota-burst", type=int, default=20, metavar="N",
        help="per-client bucket capacity (default: 20; only with --quota-rate)",
    )
    serve_parser.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive worker crashes on one (fingerprint, options) key "
        "before its circuit trips and submissions short-circuit with a "
        "503 'circuit-open' doc; 0 disables (default: 3)",
    )
    serve_parser.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="S",
        help="seconds an open circuit rejects before allowing one "
        "half-open probe (default: 30)",
    )
    _add_engine_options(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit",
        help="send programs to a running daemon (JSON results)",
        description="Verify a corpus through a running `repro serve` daemon. "
        "Requests pipeline over one connection, so identical programs "
        "coalesce server-side; transport failures come back as structured "
        "result docs.",
    )
    submit_parser.add_argument(
        "targets", nargs="*", help="source files and/or built-in names"
    )
    submit_parser.add_argument(
        "--suite", action="store_true", help="include every built-in program"
    )
    submit_parser.add_argument(
        "--host", default="127.0.0.1", help="daemon address (default: 127.0.0.1)"
    )
    submit_parser.add_argument(
        "--port", type=int, default=_DEFAULT_SERVE_PORT, metavar="N",
        help=f"daemon port (default: {_DEFAULT_SERVE_PORT})",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="S",
        help="socket timeout per response (default: 600)",
    )
    submit_parser.add_argument(
        "--client-id", default=None, metavar="ID",
        help="identify this client for the daemon's per-client quotas",
    )
    submit_parser.add_argument(
        "--transport-retries", type=int, default=0, metavar="N",
        help="reconnect-and-resubmit a lost connection up to N times with "
        "capped exponential backoff (safe: identical resubmissions "
        "coalesce / warm-start server-side; default: 0)",
    )
    _add_engine_options(submit_parser)
    submit_parser.add_argument(
        "--include-precision", action="store_true",
        help="ship each task's final predicate bank back in the result doc",
    )
    submit_parser.add_argument(
        "--show-stats", action="store_true",
        help="append the daemon's stats document to the output",
    )
    submit_parser.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to drain gracefully after the batch",
    )
    submit_parser.add_argument(
        "--output", "-o", metavar="FILE", help="write the JSON document to FILE"
    )
    submit_parser.set_defaults(func=_cmd_submit)

    list_parser = subparsers.add_parser("list", help="list built-in benchmark programs")
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
