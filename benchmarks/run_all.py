#!/usr/bin/env python3
"""Run the ``bench_e*`` experiment suite and emit ``BENCH_pr10.json``.

Nine data sections feed the perf trajectory (``benchmarks/trend_diff.py``
diffs the engine, fuzz, service and chaos sections of consecutive
snapshots in CI):

* ``pytest``      — every ``bench_e*.py`` benchmark run through
  pytest-benchmark (wall time per benchmark plus the experiment facts each
  test records in ``extra_info``: verdicts, refinement counts, reductions).
* ``engine``      — direct incremental-vs-restart engine runs over the suite
  programs, recording per program: wall time, ART nodes created/reused,
  abstract-post decisions, solver calls (cold ``check_sat`` queries plus
  context checks of the batched post oracle) and the oracle's
  prepare/context-reuse counters for both modes.
* ``post_oracle`` — the batched abstract-post oracle vs the scalar baseline
  over the suite: per program wall time and ``ssa_translate`` counts (the
  bench_s2 story in raw numbers).
* ``portfolio``   — the refiner portfolio on the divergent corpus: per
  program the single-refiner baselines and the round-robin portfolio's
  verdict, winner, per-arm statuses and total cost (the bench_e9
  complementarity story in raw numbers).
* ``session``     — warm-started vs cold suite batches through the session
  API: total and per-program abstract-post reductions bought by precision
  transfer (the bench_e10 story in raw numbers).
* ``supervision`` — the supervised pool batch under a deterministic
  fault plan (worker crashes on first attempts): per-program verdicts and
  attempt counts plus the supervisor's recovery counters.  Its rows carry
  ``"fault_injected": true`` and are exempt from the trend check — the
  injected retries are deliberate wall-clock noise, not a regression.
* ``fuzz``        — a fixed-seed differential-fuzz batch through every
  paired-configuration oracle (``repro.testgen``): per oracle the program
  count, mismatch count and both sides' total abstract-post decisions,
  plus a summary row (programs generated, total mismatches, mean posts).
  Any mismatch fails the run, like a verdict disagreement.
* ``service``     — the verification daemon (``repro.serve``): the suite
  submitted twice over a real TCP socket (``cold``/``warm`` modes per
  program — the warm pass must warm-start from the precision the daemon
  banked for the cold one), plus a summary row with the daemon's
  coalesce/warm-hit counters and the 8-identical-concurrent-requests
  coalesce ratio (must stay ≤ 1.25× one request's posts).
* ``chaos``       — the daemon under a seeded schedule that
  SIGKILLs the worker process of ~20% of the suite's programs on their
  first attempt: per program the clean/faulted verdicts and post counters
  (victim rows carry ``"fault_injected": true`` and are exempt from the
  trend check), plus a summary row with the recovery counters, the journal
  lag after the batch (must be 0) and the crash-overhead wall-clock ratio
  (must stay ≤ 1.5× the fault-free run).

Usage::

    python benchmarks/run_all.py                  # full run, writes BENCH_pr10.json
    python benchmarks/run_all.py --skip-pytest    # direct sections only (fast)
    python benchmarks/run_all.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Session, VerifierOptions  # noqa: E402  (path set up above)
from repro.core import PortfolioEngine  # noqa: E402
from repro.lang import get_source  # noqa: E402

#: Programs of the engine section, with per-program refinement budgets (the
#: divergent ones are capped where rounds get solver-expensive).
ENGINE_PROGRAMS = [
    ("forward", 8),
    ("initcheck", 8),
    ("double_counter", 8),
    ("up_down", 8),
    ("lock_step", 8),
    ("diamond_safe", 8),
    ("simple_safe", 8),
    ("simple_unsafe", 8),
    ("array_init_const", 8),
    ("array_copy", 8),
    ("array_init_buggy", 8),
    ("initcheck_buggy", 5),
]


def run_pytest_section() -> list[dict]:
    """Run bench_e*.py under pytest-benchmark; return one record per test."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "pytest_bench.json"
        bench_files = sorted(str(p) for p in BENCH_DIR.glob("bench_e*.py"))
        completed = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q",
                *bench_files,
                f"--benchmark-json={json_path}",
            ],
            cwd=REPO_ROOT,
            env={
                **dict(PYTHONPATH=str(REPO_ROOT / "src"), PATH="/usr/bin:/bin"),
            },
            capture_output=True,
            text=True,
        )
        print(completed.stdout.splitlines()[-1] if completed.stdout else "(no output)")
        if completed.returncode != 0:
            print(completed.stdout, file=sys.stderr)
            print(completed.stderr, file=sys.stderr)
            raise SystemExit(f"pytest benchmark run failed ({completed.returncode})")
        data = json.loads(json_path.read_text())
    records = []
    for bench in data.get("benchmarks", []):
        records.append(
            {
                "name": bench["name"],
                "file": bench.get("fullname", "").split("::")[0],
                "seconds": bench["stats"]["mean"],
                "extra_info": bench.get("extra_info", {}),
            }
        )
    return records


def run_engine_section() -> list[dict]:
    """Direct incremental-vs-restart runs with reuse and solver counters.

    Every run uses a fresh cold session: the two modes must not share memo
    caches or warm-start seeds, or the comparison (and the per-run solver
    counters) would be polluted.
    """
    records = []
    for name, max_refinements in ENGINE_PROGRAMS:
        row: dict = {"program": name, "max_refinements": max_refinements}
        for mode, label in ((True, "incremental"), (False, "restart")):
            options = VerifierOptions(
                max_refinements=max_refinements, incremental=mode, warm_start=False
            )
            started = time.perf_counter()
            result = Session(options).run(name)
            solver = result.iterations[-1].solver_stats or {}
            row[label] = {
                "verdict": result.verdict,
                "seconds": round(time.perf_counter() - started, 4),
                "refinements": result.num_refinements,
                "post_decisions": result.post_decisions(),
                "nodes_created": result.engine_stats.get("nodes_created", 0),
                "nodes_reused": result.engine_stats.get("nodes_reused", 0),
                # Solver-level decisions: cold check_sat queries plus
                # assumption checks inside the batched oracle's contexts
                # (pre-batching snapshots only have the first term, so the
                # sum is the comparable trajectory number).
                "solver_calls": (
                    solver.get("sat_queries", 0) + solver.get("context_checks", 0)
                ),
                "triple_checks": solver.get("triple_checks", 0),
                "prepare_calls": solver.get("prepare_calls", 0),
                "context_reuses": solver.get("context_reuses", 0),
                "ssa_translations": solver.get("ssa_translations", 0),
            }
        restart_posts = row["restart"]["post_decisions"]
        if restart_posts:
            row["post_decision_reduction"] = round(
                1 - row["incremental"]["post_decisions"] / restart_posts, 4
            )
        row["verdicts_agree"] = (
            row["incremental"]["verdict"] == row["restart"]["verdict"]
        )
        records.append(row)
        print(
            f"  {name:18s} inc={row['incremental']['verdict']}/"
            f"{row['incremental']['post_decisions']:5d} "
            f"restart={row['restart']['verdict']}/{restart_posts:5d} "
            f"reduction={row.get('post_decision_reduction', 0):7.2%}"
        )
    return records


def run_post_oracle_section() -> dict:
    """Batched vs scalar abstract-post oracle over the engine suite.

    The scalar oracle re-runs the whole pipeline (``ssa_translate`` through a
    cold ``check_sat``) per predicate; the batched one prepares each edge
    once and reuses its solver context.  Wall seconds and translation counts
    per program, plus suite totals — the bench_s2 regression bar (>= 2x
    fewer translations) in trajectory form.
    """
    from repro.core.engine import Budget, VerificationEngine
    from repro.lang import get_program
    from repro.smt.vcgen import VcChecker

    per_program = []
    totals = {"batched": [0.0, 0], "scalar": [0.0, 0]}  # seconds, translations
    for name, max_refinements in ENGINE_PROGRAMS:
        row = {"program": name}
        for batched, label in ((True, "batched"), (False, "scalar")):
            checker = VcChecker(batched_posts=batched)
            engine = VerificationEngine(
                get_program(name), checker=checker,
                budget=Budget(max_refinements=max_refinements),
            )
            started = time.perf_counter()
            result = engine.run()
            seconds = time.perf_counter() - started
            stats = checker.statistics()
            row[label] = {
                "verdict": result.verdict,
                "seconds": round(seconds, 4),
                "ssa_translations": stats["ssa_translations"],
                "prepare_calls": stats["prepare_calls"],
                "context_reuses": stats["context_reuses"],
                "scalar_fallbacks": stats["scalar_fallbacks"],
            }
            totals[label][0] += seconds
            totals[label][1] += stats["ssa_translations"]
        row["verdicts_agree"] = row["batched"]["verdict"] == row["scalar"]["verdict"]
        row["translation_reduction"] = round(
            row["scalar"]["ssa_translations"]
            / max(row["batched"]["ssa_translations"], 1), 2
        )
        per_program.append(row)
        print(
            f"  {name:18s} batched={row['batched']['seconds']:7.3f}s/"
            f"{row['batched']['ssa_translations']:4d}tr "
            f"scalar={row['scalar']['seconds']:7.3f}s/"
            f"{row['scalar']['ssa_translations']:4d}tr "
            f"({row['translation_reduction']}x fewer translations)"
        )
    section = {
        "programs": per_program,
        "batched_seconds": round(totals["batched"][0], 4),
        "scalar_seconds": round(totals["scalar"][0], 4),
        "batched_translations": totals["batched"][1],
        "scalar_translations": totals["scalar"][1],
        "translation_reduction": round(
            totals["scalar"][1] / max(totals["batched"][1], 1), 2
        ),
    }
    print(
        f"  total: batched={section['batched_seconds']}s "
        f"scalar={section['scalar_seconds']}s, "
        f"{section['translation_reduction']}x fewer ssa translations"
    )
    return section


#: The portfolio section's corpus: the divergent programs (path-formula
#: unrolls forever) plus one where the cheap baseline is perfectly adequate.
PORTFOLIO_PROGRAMS = ["forward", "double_counter", "lock_step"]


def run_portfolio_section() -> list[dict]:
    """Single-refiner baselines vs the round-robin portfolio.

    Both sides run under the same refinement budget, so the recorded
    seconds/post-decision comparison is the "same total budget" claim in
    raw numbers.
    """
    from repro.core import Budget

    max_refinements = 12
    records = []
    for name in PORTFOLIO_PROGRAMS:
        row: dict = {"program": name, "max_refinements": max_refinements}
        for refiner in ("path-invariant", "path-formula"):
            options = VerifierOptions(
                refiner=refiner, max_refinements=max_refinements, warm_start=False
            )
            started = time.perf_counter()
            result = Session(options).run(name)
            row[refiner] = {
                "verdict": result.verdict,
                "seconds": round(time.perf_counter() - started, 4),
                "refinements": result.num_refinements,
                "post_decisions": result.post_decisions(),
            }
        started = time.perf_counter()
        portfolio = PortfolioEngine(
            get_source(name),
            budget=Budget(max_refinements=max_refinements),
        ).run()
        row["portfolio"] = {
            "verdict": portfolio.verdict,
            "winner": portfolio.winner,
            "seconds": round(time.perf_counter() - started, 4),
            "post_decisions": sum(arm["post_decisions"] for arm in portfolio.arms),
            "arms": {
                arm["refiner"]: {
                    "status": arm["status"],
                    "refinements": arm["refinements"],
                    "budget_class": arm["budget_class"],
                }
                for arm in portfolio.arms
            },
        }
        records.append(row)
        print(
            f"  {name:18s} portfolio={portfolio.verdict}/{portfolio.winner} "
            f"pi={row['path-invariant']['verdict']} pf={row['path-formula']['verdict']} "
            f"({row['portfolio']['seconds']}s)"
        )
    return records


def run_session_section() -> dict:
    """Warm-started vs cold two-epoch suite batches through one session."""
    from common import SESSION_MAX_REFINEMENTS, SESSION_SUITE

    options = VerifierOptions(max_refinements=SESSION_MAX_REFINEMENTS)
    tasks = SESSION_SUITE * 2
    results = {}
    for warm, label in ((True, "warm"), (False, "cold")):
        session = Session(options.replace(warm_start=warm))
        started = time.perf_counter()
        docs = session.run_many(tasks, jobs=1)
        results[label] = {
            "seconds": round(time.perf_counter() - started, 4),
            "post_decisions": sum(doc["post_decisions"] for doc in docs),
            "verdicts": [doc["verdict"] for doc in docs],
            "warm_starts": session.warm_starts,
            "predicates_banked": session.predicates_banked,
        }
    warm_posts = results["warm"]["post_decisions"]
    cold_posts = results["cold"]["post_decisions"]
    section = {
        "programs": SESSION_SUITE,
        "epochs": 2,
        **results,
        "post_decision_reduction": round(1 - warm_posts / cold_posts, 4),
        "verdicts_agree": results["warm"]["verdicts"] == results["cold"]["verdicts"],
    }
    print(
        f"  warm={warm_posts} cold={cold_posts} posts "
        f"(reduction={section['post_decision_reduction']:.2%}, "
        f"{results['warm']['warm_starts']} warm starts)"
    )
    return section


def run_supervision_section() -> dict:
    """The supervised pool batch, fault-free vs under an injected fault plan.

    Three suite programs crash their worker on the first attempt; the
    supervisor must retry them on fresh workers and reproduce the
    fault-free verdicts.  Every per-program row carries
    ``"fault_injected": True`` so the trend check skips them.
    """
    from repro.core.faults import FaultPlan, FaultSpec, installed

    budgets = dict(ENGINE_PROGRAMS)
    base = VerifierOptions(task_timeout=120.0, task_retries=2)

    def suite_tasks(session: Session) -> list:
        return [
            session.task(name, options=base.replace(max_refinements=budget))
            for name, budget in ENGINE_PROGRAMS
        ]

    started = time.perf_counter()
    clean_session = Session(base)
    clean_docs = clean_session.run_many(suite_tasks(clean_session), jobs=4)
    clean_seconds = round(time.perf_counter() - started, 4)

    plan = FaultPlan(
        [
            FaultSpec(kind="crash", key="forward", attempts=(0,)),
            FaultSpec(kind="crash", key="lock_step", attempts=(0,)),
            FaultSpec(kind="crash", key="simple_unsafe", attempts=(0,)),
        ],
        seed=7,
    )
    with installed(plan):
        started = time.perf_counter()
        faulted_session = Session(base)
        faulted_docs = faulted_session.run_many(
            suite_tasks(faulted_session), jobs=4
        )
        faulted_seconds = round(time.perf_counter() - started, 4)

    rows = []
    for clean, faulted in zip(clean_docs, faulted_docs):
        rows.append(
            {
                "program": faulted["name"],
                "fault_injected": True,
                "verdict": faulted["verdict"],
                "attempts": faulted["attempts"],
                "recovered": bool(faulted.get("failures")),
                "verdict_agrees": faulted["verdict"] == clean["verdict"],
            }
        )
    section = {
        "fault_plan": plan.to_payload(),
        "programs": rows,
        "clean_seconds": clean_seconds,
        "faulted_seconds": faulted_seconds,
        "supervision": faulted_session.statistics()["supervision"],
        "verdicts_agree": all(row["verdict_agrees"] for row in rows),
    }
    stats = section["supervision"]
    print(
        f"  clean={clean_seconds}s faulted={faulted_seconds}s "
        f"crashes={stats['crashes']} recovered={stats['tasks_recovered']} "
        f"failed={stats['tasks_failed']} "
        f"verdicts_agree={section['verdicts_agree']}"
    )
    return section


#: The fuzz section's fixed recipe: same seed every snapshot, so the
#: per-oracle post-decision totals are comparable across PRs.
FUZZ_SEED = 1
FUZZ_COUNT = 40


def run_fuzz_section() -> list[dict]:
    """A fixed-seed differential-fuzz batch through every oracle.

    One row per oracle in the trend layout (``baseline``/``variant`` sides
    with ``post_decisions``), plus a ``summary`` row with batch-level
    facts.  Any mismatch fails the benchmark run, like a verdict
    disagreement in the engine section.
    """
    from repro.testgen import run_fuzz

    report = run_fuzz(seed=FUZZ_SEED, count=FUZZ_COUNT)
    rows = []
    for oracle in report.oracles:
        totals = report.oracle_totals[oracle]
        mismatches = sum(1 for m in report.mismatches if m.oracle == oracle)
        rows.append(
            {
                "program": f"fuzz:{oracle}",
                "count": totals["programs"],
                "mismatches": mismatches,
                "baseline": {
                    "post_decisions": totals["reference_posts"],
                    "seconds": totals["seconds"],
                },
                "variant": {"post_decisions": totals["variant_posts"]},
            }
        )
        print(
            f"  {oracle:12s} {totals['programs']:3d} programs "
            f"posts={totals['reference_posts']}/{totals['variant_posts']} "
            f"mismatches={mismatches} ({totals['seconds']}s)"
        )
    rows.append(
        {
            "program": "summary",
            "programs_generated": len(report.programs),
            "total_mismatches": len(report.mismatches),
            "divergences": report.divergences,
            "verdicts": report.verdicts,
            "mean_posts": report.mean_posts(),
            "seconds": round(report.seconds, 3),
        }
    )
    print(
        f"  total: {len(report.programs)} programs, "
        f"{len(report.mismatches)} mismatches, "
        f"{report.divergences} explained divergences, "
        f"mean posts {report.mean_posts()}"
    )
    return rows


def run_service_section() -> list[dict]:
    """The daemon over a real socket: cold/warm passes plus the coalesce bar.

    One row per suite program in the trend layout (``cold``/``warm`` modes
    with ``post_decisions``/``seconds``), plus a ``summary`` row carrying
    the daemon's request counters and the 8-identical-concurrent-requests
    coalesce ratio.
    """
    from repro.serve import ServiceClient, ServiceConfig, VerificationService

    service = VerificationService(ServiceConfig(workers=4, max_queue=64)).start()
    try:
        rows = []
        with ServiceClient(port=service.port, timeout=600.0) as client:
            for name, max_refinements in ENGINE_PROGRAMS:
                row: dict = {"program": name, "max_refinements": max_refinements}
                options = {"max_refinements": max_refinements}
                for label in ("cold", "warm"):
                    started = time.perf_counter()
                    doc = client.verify(name, options=options)
                    row[label] = {
                        "verdict": doc["verdict"],
                        "seconds": round(time.perf_counter() - started, 4),
                        "post_decisions": doc["post_decisions"],
                        "warm_started": doc["engine"]["session"]["warm_started"],
                    }
                row["verdicts_agree"] = row["cold"]["verdict"] == row["warm"]["verdict"]
                cold_posts = row["cold"]["post_decisions"]
                if cold_posts:
                    row["post_decision_reduction"] = round(
                        1 - row["warm"]["post_decisions"] / cold_posts, 4
                    )
                rows.append(row)
                print(
                    f"  {name:18s} cold={row['cold']['verdict']}/"
                    f"{cold_posts:5d} warm={row['warm']['verdict']}/"
                    f"{row['warm']['post_decisions']:5d} "
                    f"reduction={row.get('post_decision_reduction', 0):7.2%}"
                )

        # The coalesce bar: 8 identical concurrent requests of a program the
        # daemon has not seen must cost ≤ 1.25x one request's posts.
        coalesce_options = {"max_refinements": 2, "max_nodes": 40}
        probe = VerificationService(ServiceConfig(workers=1)).start()
        try:
            with ServiceClient(port=probe.port, timeout=600.0) as client:
                one = client.verify("partition", options=coalesce_options)
        finally:
            probe.stop()
        posts_before = service.posts_executed
        with ServiceClient(port=service.port, timeout=600.0) as client:
            batch = client.submit_many(
                [("partition", "partition")] * 8, options=coalesce_options
            )
        batch_posts = service.posts_executed - posts_before
        stats = service.statistics()["service"]
        summary = {
            "program": "summary",
            "verify_requests": stats["verify_requests"],
            "engine_runs": stats["engine_runs"],
            "coalesce_hits": stats["coalesce_hits"],
            "warm_hits": stats["warm_hits"],
            "rejections": stats["rejections"],
            "coalesce_single_posts": one["post_decisions"],
            "coalesce_batch_posts": batch_posts,
            "coalesce_ratio": round(
                batch_posts / max(one["post_decisions"], 1), 4
            ),
            "coalesce_verdicts": sorted({doc["verdict"] for doc in batch}),
        }
        rows.append(summary)
        print(
            f"  coalesce: 8 identical requests cost {batch_posts} posts vs "
            f"{one['post_decisions']} for one ({summary['coalesce_ratio']}x); "
            f"{stats['coalesce_hits']} hits, {stats['warm_hits']} warm starts"
        )
        return rows
    finally:
        service.stop()


#: The chaos section's seeded schedule: the fraction of suite programs whose
#: first attempt SIGKILLs its worker process (mirrors bench_e13_chaos.py).
CHAOS_SEED = 2027
CHAOS_CRASH_RATE = 0.2


def run_chaos_section() -> list[dict]:
    """The daemon under a seeded worker-crash schedule.

    One row per suite program in the trend layout (``clean``/``faulted``
    modes with ``post_decisions``); victim rows carry
    ``"fault_injected": True`` so the trend check skips them.  The summary
    row holds the crash-overhead ratio (the bench_e13 bar: ≤ 1.5× the
    fault-free wall) and the request-journal lag after the batch (must be
    0: every accepted request was answered despite the kills).
    """
    import random
    import tempfile

    from repro.core.faults import FaultPlan, FaultSpec, installed
    from repro.serve import ServiceClient, ServiceConfig, VerificationService

    rng = random.Random(CHAOS_SEED)
    count = max(1, round(CHAOS_CRASH_RATE * len(ENGINE_PROGRAMS)))
    victims = set(rng.sample([name for name, _ in ENGINE_PROGRAMS], count))
    plan = FaultPlan(
        [
            FaultSpec(kind="kill-worker", key=name, attempts=(0,))
            for name in sorted(victims)
        ]
    )

    def run_pass(journal_path: Path):
        service = VerificationService(
            ServiceConfig(
                workers=4,
                max_queue=32,
                journal_path=journal_path,
            )
        ).start()
        try:
            started = time.perf_counter()
            with ServiceClient(port=service.port, timeout=600.0) as client:
                docs = client.submit_many(
                    [
                        {
                            "source": name,
                            "name": name,
                            "options": {"max_refinements": budget},
                        }
                        for name, budget in ENGINE_PROGRAMS
                    ]
                )
            seconds = round(time.perf_counter() - started, 4)
            stats = service.statistics()["service"]
        finally:
            service.stop()
        return docs, seconds, stats

    with tempfile.TemporaryDirectory() as tmp:
        clean_docs, clean_seconds, _ = run_pass(Path(tmp) / "clean.wal")
        with installed(plan):
            faulted_docs, faulted_seconds, stats = run_pass(
                Path(tmp) / "faulted.wal"
            )

    rows: list[dict] = []
    for clean, faulted in zip(clean_docs, faulted_docs):
        row: dict = {
            "program": faulted["name"],
            "clean": {
                "verdict": clean["verdict"],
                "post_decisions": clean["post_decisions"],
            },
            "faulted": {
                "verdict": faulted["verdict"],
                "post_decisions": faulted["post_decisions"],
                "attempts": faulted["attempts"],
            },
            "verdicts_agree": clean["verdict"] == faulted["verdict"],
        }
        if faulted["name"] in victims:
            row["fault_injected"] = True
            row["recovered"] = bool(faulted.get("failures"))
        rows.append(row)
        marker = " [killed]" if faulted["name"] in victims else ""
        print(
            f"  {faulted['name']:18s} clean={clean['verdict']:7s} "
            f"faulted={faulted['verdict']:7s} "
            f"attempts={faulted['attempts']}{marker}"
        )
    supervision = stats["supervision"]
    summary = {
        "program": "summary",
        "fault_plan": plan.to_payload(),
        "clean_seconds": clean_seconds,
        "faulted_seconds": faulted_seconds,
        "overhead_ratio": round(faulted_seconds / clean_seconds, 4),
        "crashes": supervision["crashes"],
        "tasks_recovered": supervision["tasks_recovered"],
        "tasks_failed": supervision["tasks_failed"],
        "journal_lag": stats["journal"]["lag"],
        "verdicts_agree": all(row["verdicts_agree"] for row in rows),
    }
    rows.append(summary)
    print(
        f"  clean={clean_seconds}s faulted={faulted_seconds}s "
        f"({summary['overhead_ratio']}x), crashes={summary['crashes']} "
        f"recovered={summary['tasks_recovered']} "
        f"journal_lag={summary['journal_lag']}"
    )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", "-o", default=str(REPO_ROOT / "BENCH_pr10.json"),
        help="where to write the JSON report (default: repo root BENCH_pr10.json)",
    )
    parser.add_argument(
        "--skip-pytest", action="store_true",
        help="skip the pytest-benchmark section (engine section only)",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report: dict = {"suite": "bench_e*", "sections": {}}
    print("engine section (incremental vs restart):")
    report["sections"]["engine"] = run_engine_section()
    print("post-oracle section (batched vs scalar abstract posts):")
    report["sections"]["post_oracle"] = run_post_oracle_section()
    print("portfolio section (refiner complementarity):")
    report["sections"]["portfolio"] = run_portfolio_section()
    print("session section (warm-start precision transfer):")
    report["sections"]["session"] = run_session_section()
    print("supervision section (fault-injected supervised batch):")
    report["sections"]["supervision"] = run_supervision_section()
    print(f"fuzz section (seed={FUZZ_SEED}, {FUZZ_COUNT} programs, all oracles):")
    report["sections"]["fuzz"] = run_fuzz_section()
    print("service section (the daemon over a real socket, cold vs warm):")
    report["sections"]["service"] = run_service_section()
    print("chaos section (daemon under injected worker kills):")
    report["sections"]["chaos"] = run_chaos_section()
    if not args.skip_pytest:
        print("pytest section (bench_e*.py):")
        report["sections"]["pytest"] = run_pytest_section()
    report["total_seconds"] = round(time.perf_counter() - started, 2)

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output} in {report['total_seconds']}s")
    disagreements = [
        row["program"]
        for row in report["sections"]["engine"]
        if not row["verdicts_agree"]
    ]
    disagreements += [
        f"{row['program']} ({row['mismatches']} fuzz mismatches)"
        for row in report["sections"]["fuzz"]
        if row.get("mismatches")
    ]
    disagreements += [
        f"{row['program']} (service)"
        for row in report["sections"]["service"]
        if not row.get("verdicts_agree", True)
    ]
    service_summary = report["sections"]["service"][-1]
    if service_summary["coalesce_ratio"] > 1.25:
        disagreements.append(
            f"service coalesce ratio {service_summary['coalesce_ratio']} > 1.25"
        )
    disagreements += [
        f"{row['program']} (chaos)"
        for row in report["sections"]["chaos"]
        if not row.get("verdicts_agree", True)
    ]
    chaos_summary = report["sections"]["chaos"][-1]
    if chaos_summary["overhead_ratio"] > 1.5:
        disagreements.append(
            f"chaos crash-overhead ratio {chaos_summary['overhead_ratio']} > 1.5"
        )
    if chaos_summary["journal_lag"]:
        disagreements.append(
            f"chaos journal lag {chaos_summary['journal_lag']} != 0"
        )
    if disagreements:
        print(f"VERDICT DISAGREEMENTS: {disagreements}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
