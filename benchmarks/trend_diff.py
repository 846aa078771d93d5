#!/usr/bin/env python3
"""Diff the two newest ``BENCH_*.json`` snapshots and fail on perf drift.

Each PR's benchmark run (``benchmarks/run_all.py``) leaves a ``BENCH_prN.json``
snapshot in the repository root.  This script compares the *engine* section
(incremental/restart modes), the *fuzz* section (per-oracle fixed-seed
differential batches),
the *service* section (cold/warm daemon submissions over a socket) and the
*chaos* section (clean/faulted process-backend suite runs)
of the two newest snapshots program by program and exits non-zero
when any shared program regressed beyond a metric's threshold in either
mode — the automated bench-trend check the ROADMAP asks for.

Three metrics are diffed:

* ``post_decisions`` (default bar 25%, **failing**) — deterministic (no
  wall-clock noise on shared CI runners) and the work the incremental
  engine exists to avoid;
* ``solver_calls`` (default bar 25%, **failing**) — solver-level decisions
  (cold ``check_sat`` queries plus batched-oracle context checks), the work
  the solver-layer caching and batching exist to avoid;
* ``seconds`` (default bar 60%, **advisory**) — wall clock is noisy on CI
  runners, so a regression prints a loud warning but does not fail; it
  exists to catch order-of-magnitude slowdowns the deterministic counters
  cannot see (e.g. constant-factor blowups per decision).

Usage::

    python benchmarks/trend_diff.py                # repo-root BENCH_pr*.json
    python benchmarks/trend_diff.py --threshold 0.10
    python benchmarks/trend_diff.py --dir some/dir
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Trend-checked sections and the per-row modes each one carries.
SECTIONS = {
    "engine": ("incremental", "restart"),
    # Differential-fuzz rows (one per oracle, fixed seed, so the counters
    # are comparable across snapshots); older snapshots without the
    # section just print a "share no programs" note.
    "fuzz": ("baseline", "variant"),
    # Verification-daemon rows: each suite program submitted over a real
    # socket cold then warm — the warm mode's post counters track the
    # cross-request warm-start payoff across snapshots.
    "service": ("cold", "warm"),
    # Chaos rows: the suite through the process-backend daemon, fault-free
    # vs under the seeded worker-kill schedule.  Victim rows carry
    # ``fault_injected`` and are dropped by ``section_rows``; the survivors'
    # counters must stay flat across snapshots.
    "chaos": ("clean", "faulted"),
}

#: (metric key, threshold argparse attr, failing?) — the diffed metrics.
METRICS = (
    ("post_decisions", "threshold", True),
    ("solver_calls", "solver_threshold", True),
    ("seconds", "seconds_threshold", False),
)


def bench_files(directory: Path) -> list[Path]:
    """``BENCH_*.json`` files, oldest first.

    Ordered by the numeric PR suffix (``BENCH_pr3.json`` < ``BENCH_pr10.json``
    — plain lexicographic order would get this wrong); files without a
    numeric suffix sort first by modification time.
    """
    entries = []
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_pr(\d+)\.json", path.name)
        order = int(match.group(1)) if match else -1
        entries.append((order, path.stat().st_mtime, path.name, path))
    entries.sort()
    return [entry[3] for entry in entries]


def section_rows(path: Path, section: str) -> dict[str, dict]:
    """One snapshot section's rows, keyed by program name.

    Rows flagged ``"fault_injected": true`` are exempt: their wall clock
    and retry counts measure the fault-injection harness (deliberate
    crashes, backoff sleeps), not engine performance.
    """
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise SystemExit(f"{path}: not valid JSON ({error})")
    rows = doc.get("sections", {}).get(section, [])
    return {
        row["program"]: row
        for row in rows
        if "program" in row and not row.get("fault_injected")
    }


def diff(
    old: Path, new: Path, thresholds: dict[str, float]
) -> tuple[list[str], list[str]]:
    """``(regressions, warnings)`` lines (both empty when the trend is clean)."""
    regressions: list[str] = []
    warnings: list[str] = []
    header_printed = False
    for section, modes in SECTIONS.items():
        old_rows = section_rows(old, section)
        new_rows = section_rows(new, section)
        shared = sorted(set(old_rows) & set(new_rows))
        if not shared:
            print(
                f"note: {old.name} and {new.name} share no {section} programs"
            )
            continue
        if not header_printed:
            print(
                f"{'program':20s} {'mode':12s} {'metric':15s} "
                f"{old.name:>14s} {new.name:>14s}  change"
            )
            header_printed = True
        for program in shared:
            for mode in modes:
                for metric, attr, failing in METRICS:
                    before = old_rows[program].get(mode, {}).get(metric)
                    after = new_rows[program].get(mode, {}).get(metric)
                    if not before or after is None:
                        continue
                    threshold = thresholds[attr]
                    change = after / before - 1
                    marker = ""
                    if change > threshold:
                        line = (
                            f"{program} [{mode}] {metric}: {before} -> {after} "
                            f"({change:+.1%} > {threshold:.0%} threshold)"
                        )
                        if failing:
                            marker = "  REGRESSION"
                            regressions.append(line)
                        else:
                            marker = "  WARNING (advisory)"
                            warnings.append(line)
                    rendered = (
                        (f"{before:14.3f}", f"{after:14.3f}")
                        if isinstance(before, float) or isinstance(after, float)
                        else (f"{before:14d}", f"{after:14d}")
                    )
                    print(
                        f"{program:20s} {mode:12s} {metric:15s} "
                        f"{rendered[0]} {rendered[1]}  {change:+7.1%}{marker}"
                    )
    return regressions, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", default=str(REPO_ROOT), metavar="DIR",
        help="directory holding the BENCH_*.json snapshots (default: repo root)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRACTION",
        help="maximum tolerated post-decision growth per program (default: 0.25)",
    )
    parser.add_argument(
        "--solver-threshold", type=float, default=0.25, metavar="FRACTION",
        help="maximum tolerated solver-call growth per program (default: 0.25)",
    )
    parser.add_argument(
        "--seconds-threshold", type=float, default=0.60, metavar="FRACTION",
        help="advisory wall-clock growth bar per program — prints a warning, "
        "never fails (default: 0.60)",
    )
    args = parser.parse_args(argv)

    files = bench_files(Path(args.dir))
    if len(files) < 2:
        print(
            f"trend-diff: found {len(files)} BENCH_*.json snapshot(s) in "
            f"{args.dir}; need two to diff — nothing to check"
        )
        return 0
    old, new = files[-2], files[-1]
    thresholds = {
        "threshold": args.threshold,
        "solver_threshold": args.solver_threshold,
        "seconds_threshold": args.seconds_threshold,
    }
    regressions, warnings = diff(old, new, thresholds)
    if warnings:
        print(f"\n{len(warnings)} advisory wall-clock warning(s):", file=sys.stderr)
        for line in warnings:
            print(f"  {line}", file=sys.stderr)
    if regressions:
        print(f"\n{len(regressions)} regression(s):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\ntrend clean: {old.name} -> {new.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
