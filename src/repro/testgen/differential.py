"""Differential fuzzing harness: paired engine configurations as oracles.

Each oracle runs one program through two configurations whose equivalence
an earlier PR established, and compares exactly what that PR guarantees:

``batched``
    Batched oracle vs the scalar per-post baseline: verdicts,
    precisions and post-decision counts must be **bit-identical** — the
    batching is a pure caching layer.  ``VcChecker(batched_posts=False)``
    sends abstract posts through ``post_predicate_holds`` and Houdini's
    ``check_triples`` batches through ``check_triple``, so the oracle
    compares both the abstract post and the synthesizer's candidate
    checks.
``incremental``
    Persistent-ART engine vs the restart-the-world baseline (PR 2): the
    *verdicts* must agree whenever both runs decide.  One side exhausting
    its budget while the other decides is an **explained divergence**
    (restart re-pays abstract posts every round), recorded but not a
    mismatch; a safe-vs-unsafe conflict is always a mismatch.
``portfolio``
    Round-robin portfolio vs its winning arm run standalone under the
    same total budget (PR 3): verdicts must agree whenever both decide
    (the standalone arm may exhaust the budget the portfolio's shared
    checker saved it — explained divergence).
``serve``
    A live verification daemon vs an in-process engine on a fresh checker:
    verdicts, precisions, post decisions and nodes created must be
    **bit-identical**.  The daemon runs one persistent worker process, so
    every program after the first runs on a checker warmed by the programs
    before it — the oracle doubles as warm-vs-cold equivalence coverage.
    The fuzz options pin ``warm_start=False`` (no store seeding), so the
    wire and the warm memo tables are the only differences.  The daemon is
    started once (in-process, on a background thread) and shared by every
    program in the run.

A program generated with a planted bug additionally checks the engine's
*soundness* directly: a ``safe`` verdict on a planted-bug program is
reported as a ``planted`` mismatch.

On any mismatch or crash, :func:`run_fuzz` re-runs the failing oracle
through the greedy shrinker and (optionally) writes a reproducer — the
seed plus the minimised source — into the regression corpus
``tests/corpus/``, which CI re-verifies on every push.

Budgets are **deterministic by construction**: :func:`fuzz_options`
refuses wall-clock budgets (``max_seconds``), because a comparison
against a nondeterministic cutoff would report phantom mismatches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..core.api import VerifierOptions
from ..core.engine import PortfolioEngine, Verdict, VerificationEngine
from ..core.verifier import make_refiner
from ..lang.ast import FunctionDef
from ..lang.cfg import build_program
from ..lang.parser import parse_function
from ..lang.source import format_function
from ..smt.vcgen import VcChecker
from .generator import GenConfig, generate_corpus
from .shrink import shrink_function

__all__ = [
    "ORACLES",
    "Mismatch",
    "FuzzReport",
    "fuzz_options",
    "run_oracle",
    "run_fuzz",
    "shutdown_serve_oracle",
    "oracle_failure_predicate",
    "write_reproducer",
    "load_corpus",
    "CorpusEntry",
]

#: The paired-configuration oracles, in the order they run.
ORACLES = ("batched", "incremental", "portfolio", "serve")

_DECIDED = (Verdict.SAFE, Verdict.UNSAFE)


def fuzz_options(
    max_refinements: int = 6,
    max_nodes: int = 300,
    max_solver_calls: int = 3000,
    **overrides,
) -> VerifierOptions:
    """Per-program options for differential runs: small and deterministic.

    Wall-clock budgets are rejected — the differential contracts compare
    deterministic counters, and a nondeterministic cutoff would fabricate
    mismatches that no engine bug caused.  ``max_solver_calls`` bounds the
    run's Hoare-triple count instead: it is charged identically on both
    sides of every strict oracle (the batched oracle pays one check per
    decided obligation, and a warm checker charges a carried memo hit like
    the check it saves), so a pathological generated program
    exhausts the budget at the same triple on each side and stays
    comparable.
    """
    options = VerifierOptions(
        max_refinements=max_refinements,
        max_nodes=max_nodes,
        max_solver_calls=max_solver_calls,
        warm_start=False,
        **overrides,
    )
    if options.max_seconds is not None:
        raise ValueError(
            "differential oracles need deterministic budgets; "
            "max_seconds would make comparisons racy"
        )
    return options


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclass
class Mismatch:
    """One oracle contract violation (or engine crash) on one program."""

    oracle: str
    #: ``verdict-conflict`` (safe vs unsafe), ``verdict`` (decided vs
    #: unknown where bit-identity is guaranteed), ``post-decisions``,
    #: ``precision``, ``nodes``, ``planted`` or ``crash``.
    kind: str
    detail: str
    seed: Optional[int] = None
    source: str = ""
    minimized_source: Optional[str] = None
    corpus_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "kind": self.kind,
            "detail": self.detail,
            "seed": self.seed,
            "source": self.source,
            "minimized_source": self.minimized_source,
            "corpus_path": self.corpus_path,
        }


# ----------------------------------------------------------------------
# Single-configuration engine runs
# ----------------------------------------------------------------------
def _render_precision(precision) -> dict[str, list[str]]:
    """A canonical, comparison-stable rendering of a precision."""
    if precision is None:
        return {}
    return {
        name: sorted(str(predicate) for predicate in predicates)
        for name, predicates in sorted(precision.by_location_name().items())
    }


def _engine_record(
    function: FunctionDef,
    options: VerifierOptions,
    batched: bool = True,
    incremental: bool = True,
    refiner: Optional[str] = None,
) -> dict:
    """Run one engine configuration; a dict of everything the oracles compare."""
    checker = VcChecker(batched_posts=batched)
    engine = VerificationEngine(
        build_program(function),
        refiner=make_refiner(refiner or options.refiner, checker),
        checker=checker,
        strategy=options.strategy,
        budget=options.budget(),
        incremental=incremental,
        max_predicates_per_location=options.max_predicates_per_location,
    )
    result = engine.run()
    return {
        "verdict": result.verdict,
        "post_decisions": result.post_decisions(),
        "precision": _render_precision(result.precision),
        "nodes_created": (result.engine_stats or {}).get("nodes_created", 0),
        "refinements": result.num_refinements,
    }


def _compare_bit_identical(
    oracle: str, reference: dict, variant: dict, labels: tuple[str, str]
) -> list[Mismatch]:
    """The strict contract: *everything* must match, including budget
    accounting — a decided-vs-unknown asymmetry is itself a mismatch."""
    ref_label, var_label = labels
    mismatches = []
    if reference["verdict"] != variant["verdict"]:
        conflict = (
            reference["verdict"] in _DECIDED and variant["verdict"] in _DECIDED
        )
        mismatches.append(
            Mismatch(
                oracle,
                "verdict-conflict" if conflict else "verdict",
                f"{ref_label}={reference['verdict']} "
                f"{var_label}={variant['verdict']}",
            )
        )
        return mismatches  # downstream counters are meaningless now
    if reference["post_decisions"] != variant["post_decisions"]:
        mismatches.append(
            Mismatch(
                oracle,
                "post-decisions",
                f"{ref_label}={reference['post_decisions']} "
                f"{var_label}={variant['post_decisions']}",
            )
        )
    if reference["precision"] != variant["precision"]:
        mismatches.append(
            Mismatch(oracle, "precision", "discovered precisions differ")
        )
    if reference["nodes_created"] != variant["nodes_created"]:
        mismatches.append(
            Mismatch(
                oracle,
                "nodes",
                f"{ref_label}={reference['nodes_created']} "
                f"{var_label}={variant['nodes_created']}",
            )
        )
    return mismatches


# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------
def _oracle_batched(function, options):
    reference = _engine_record(function, options, batched=True)
    variant = _engine_record(function, options, batched=False)
    record = {"batched": reference, "scalar": variant}
    return record, _compare_bit_identical(
        "batched", reference, variant, ("batched", "scalar")
    )


def _oracle_incremental(function, options):
    reference = _engine_record(function, options, incremental=True)
    variant = _engine_record(function, options, incremental=False)
    record = {"incremental": reference, "restart": variant}
    mismatches: list[Mismatch] = []
    ref_v, var_v = reference["verdict"], variant["verdict"]
    if ref_v in _DECIDED and var_v in _DECIDED and ref_v != var_v:
        mismatches.append(
            Mismatch(
                "incremental",
                "verdict-conflict",
                f"incremental={ref_v} restart={var_v}",
            )
        )
    elif ref_v != var_v:
        # One side exhausted its budget: restart re-pays abstract posts
        # every round, so asymmetric exhaustion is the expected shape.
        record["divergence"] = f"budget: incremental={ref_v} restart={var_v}"
    elif ref_v in _DECIDED and reference["precision"] != variant["precision"]:
        # Observed identical on the hand-written corpus, but not a
        # guaranteed contract — record, never fail.
        record["divergence"] = "precision-drift on decided verdicts"
    return record, mismatches


def _oracle_portfolio(function, options):
    checker = VcChecker()
    portfolio = PortfolioEngine(
        build_program(function),
        strategy=options.strategy,
        budget=options.budget(),
        checker=checker,
        max_predicates_per_location=options.max_predicates_per_location,
    ).run()
    record: dict = {
        "portfolio": {"verdict": portfolio.verdict, "winner": portfolio.winner}
    }
    mismatches: list[Mismatch] = []
    if portfolio.verdict in _DECIDED and portfolio.winner is not None:
        arm = _engine_record(function, options, refiner=portfolio.winner)
        record["winner_alone"] = arm
        if arm["verdict"] in _DECIDED and arm["verdict"] != portfolio.verdict:
            mismatches.append(
                Mismatch(
                    "portfolio",
                    "verdict-conflict",
                    f"portfolio={portfolio.verdict} "
                    f"winner {portfolio.winner} alone={arm['verdict']}",
                )
            )
        elif arm["verdict"] not in _DECIDED:
            # The portfolio's arms share one memoised checker; the lone arm
            # re-pays that work and may exhaust the same budget.
            record["divergence"] = (
                f"budget: winner {portfolio.winner} alone={arm['verdict']}"
            )
    return record, mismatches


# One lazily started in-process daemon shared by every serve-oracle run
# (per-program daemons would dominate fuzz wall-clock); reset by
# shutdown_serve_oracle().
_SERVE_ENDPOINT = None


def _serve_endpoint():
    global _SERVE_ENDPOINT
    if _SERVE_ENDPOINT is None:
        from ..serve.client import ServiceClient
        from ..serve.server import ServiceConfig, VerificationService

        service = VerificationService(
            ServiceConfig(port=0, workers=1)
        ).start()
        client = ServiceClient("127.0.0.1", service.port)
        _SERVE_ENDPOINT = (service, client)
    return _SERVE_ENDPOINT


def shutdown_serve_oracle() -> None:
    """Stop the serve oracle's shared daemon (tests; otherwise it lives on a
    daemon thread until process exit)."""
    global _SERVE_ENDPOINT
    if _SERVE_ENDPOINT is not None:
        service, client = _SERVE_ENDPOINT
        _SERVE_ENDPOINT = None
        client.close()
        service.stop()


def _oracle_serve(function, options):
    """Daemon vs in-process: a live service must answer like a local engine.

    Valid as a *bit-identical* comparison although the daemon's one worker
    keeps its checker warm across programs: the checker's memo tables only
    cache verdicts that depend on the query alone (hash-consed inputs, no
    precision), so a memo hit returns what a fresh solver would decide; and
    each run's solver budget counts from the run's own start, charging a
    hit on an earlier program's entry like the check a fresh checker would
    make (``VcChecker.begin_run``), so the budget trips at the same point on
    both sides.  :func:`fuzz_options` pins ``warm_start=False`` (no store
    seeding) and rejects wall-clock budgets — both sides
    run the same deterministic engine, one of them behind the wire on a
    warm checker.
    """
    reference = _engine_record(function, options)
    _, client = _serve_endpoint()
    doc = client.verify(
        format_function(function), options=options, include_precision=True
    )
    variant = {
        "verdict": doc.get("verdict"),
        "post_decisions": doc.get("post_decisions", -1),
        "precision": doc.get("precision") or {},
        "nodes_created": (doc.get("engine") or {}).get("nodes_created", 0),
        "refinements": doc.get("refinements", -1),
    }
    if doc.get("verdict") not in _DECIDED and not variant["precision"]:
        # The daemon only ships banked precision, and only decided runs
        # bank (an undecided precision is dominated by whatever made the
        # run diverge) — so on matching undecided verdicts the precision
        # leg of the comparison is vacuous, not a mismatch.
        variant["precision"] = reference["precision"]
    record = {"in_process": reference, "daemon": variant}
    if doc.get("failure"):
        record["daemon_failure"] = doc["failure"]
    return record, _compare_bit_identical(
        "serve", reference, variant, ("in-process", "daemon")
    )


_ORACLE_FUNCS: dict[str, Callable] = {
    "batched": _oracle_batched,
    "incremental": _oracle_incremental,
    "portfolio": _oracle_portfolio,
    "serve": _oracle_serve,
}


def run_oracle(
    function: FunctionDef,
    oracle: str,
    options: Optional[VerifierOptions] = None,
) -> tuple[dict, list[Mismatch]]:
    """Run one differential oracle; ``(record, mismatches)``.

    An engine exception becomes a ``crash`` mismatch rather than
    propagating — a crash on a well-typed generated program is a finding,
    and the shrinker needs the predicate form, not the traceback.
    """
    if oracle not in _ORACLE_FUNCS:
        raise ValueError(f"unknown oracle {oracle!r}; expected one of {ORACLES}")
    options = options or fuzz_options()
    try:
        return _ORACLE_FUNCS[oracle](function, options)
    except Exception as error:  # noqa: BLE001 - crashes are findings
        return (
            {"crash": f"{type(error).__name__}: {error}"},
            [Mismatch(oracle, "crash", f"{type(error).__name__}: {error}")],
        )


def oracle_failure_predicate(
    oracle: str, options: VerifierOptions, reference: Mismatch
) -> Callable[[FunctionDef], bool]:
    """The shrinker predicate: does the candidate still fail this oracle?

    A crash reproduces when the same exception *type* is raised; a contract
    violation reproduces when the oracle reports any non-crash mismatch.
    """

    def predicate(candidate: FunctionDef) -> bool:
        _, mismatches = run_oracle(candidate, oracle, options)
        if reference.kind == "crash":
            wanted = reference.detail.split(":", 1)[0]
            return any(
                m.kind == "crash" and m.detail.split(":", 1)[0] == wanted
                for m in mismatches
            )
        return any(m.kind != "crash" for m in mismatches)

    return predicate


# ----------------------------------------------------------------------
# The regression corpus
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorpusEntry:
    """One committed reproducer: minimised source plus its fuzz recipe."""

    path: Path
    oracle: str
    seed: Optional[int]
    source: str


def write_reproducer(corpus_dir: Union[str, Path], mismatch: Mismatch) -> Path:
    """Write a mismatch's minimised program into the regression corpus."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{mismatch.oracle}-seed{mismatch.seed}"
    path = corpus_dir / f"{stem}.c"
    counter = 0
    while path.exists():
        counter += 1
        path = corpus_dir / f"{stem}-{counter}.c"
    detail = " ".join(mismatch.detail.split())[:200]
    body = mismatch.minimized_source or mismatch.source
    path.write_text(
        "// repro-fuzz reproducer (auto-minimised)\n"
        f"// oracle: {mismatch.oracle}\n"
        f"// seed: {mismatch.seed}\n"
        f"// kind: {mismatch.kind}\n"
        f"// detail: {detail}\n"
        + body
    )
    mismatch.corpus_path = str(path)
    return path


def load_corpus(corpus_dir: Union[str, Path]) -> list[CorpusEntry]:
    """Parse every committed reproducer's header and source."""
    entries = []
    for path in sorted(Path(corpus_dir).glob("*.c")):
        oracle, seed = None, None
        for line in path.read_text().splitlines():
            if line.startswith("// oracle:"):
                oracle = line.split(":", 1)[1].strip()
            elif line.startswith("// seed:"):
                text = line.split(":", 1)[1].strip()
                seed = int(text) if text.lstrip("-").isdigit() else None
        if oracle is None:
            raise ValueError(f"{path}: missing '// oracle:' header")
        entries.append(
            CorpusEntry(path=path, oracle=oracle, seed=seed, source=path.read_text())
        )
    return entries


def verify_corpus_entry(entry: CorpusEntry) -> list[Mismatch]:
    """Re-run a committed reproducer's oracle; empty = the bug stays fixed."""
    function = parse_function(entry.source)
    _, mismatches = run_oracle(function, entry.oracle)
    return mismatches


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Everything one fuzz batch produced, JSON-ready via :meth:`to_dict`."""

    seed: int
    count: int
    oracles: tuple[str, ...]
    programs: list[dict] = field(default_factory=list)
    mismatches: list[Mismatch] = field(default_factory=list)
    divergences: int = 0
    #: Reference-run verdict histogram (the batched/incremental baseline).
    verdicts: dict = field(default_factory=dict)
    #: Per-oracle aggregates: programs, total posts per side, wall seconds.
    oracle_totals: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def mean_posts(self) -> float:
        posts = [p["post_decisions"] for p in self.programs if "post_decisions" in p]
        return round(sum(posts) / len(posts), 2) if posts else 0.0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "oracles": list(self.oracles),
            "programs_generated": len(self.programs),
            "mismatches": [m.to_dict() for m in self.mismatches],
            "divergences": self.divergences,
            "verdicts": dict(self.verdicts),
            "mean_posts": self.mean_posts(),
            "oracle_totals": self.oracle_totals,
            "seconds": round(self.seconds, 3),
            "programs": self.programs,
        }

    def summary(self) -> str:
        status = "clean" if self.clean else f"{len(self.mismatches)} MISMATCH(ES)"
        verdicts = ", ".join(
            f"{count} {verdict}" for verdict, count in sorted(self.verdicts.items())
        )
        return (
            f"fuzz: {len(self.programs)} programs x {len(self.oracles)} oracle(s) "
            f"-> {status} ({self.divergences} explained divergence(s); "
            f"{verdicts}; mean posts {self.mean_posts()}; "
            f"{self.seconds:.1f}s)"
        )


def run_fuzz(
    seed: int = 0,
    count: int = 25,
    oracles: Sequence[str] = ORACLES,
    options: Optional[VerifierOptions] = None,
    config: Optional[GenConfig] = None,
    plant_every: int = 3,
    shrink: bool = True,
    corpus_dir: Optional[Union[str, Path]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Generate ``count`` programs and run each through the paired oracles.

    Any mismatch is shrunk to a 1-minimal reproducer (``shrink=False``
    skips that, e.g. for quick triage) and, with ``corpus_dir`` set,
    written out as a committed regression corpus entry.
    """
    options = options or fuzz_options()
    for name in oracles:
        if name not in ORACLES:
            raise ValueError(f"unknown oracle {name!r}; expected one of {ORACLES}")
    started = time.perf_counter()
    report = FuzzReport(seed=seed, count=count, oracles=tuple(oracles))
    totals = {
        name: {"programs": 0, "reference_posts": 0, "variant_posts": 0, "seconds": 0.0}
        for name in oracles
    }
    for generated in generate_corpus(seed, count, config, plant_every):
        program_record: dict = {
            "seed": generated.seed,
            "planted": generated.expect_unsafe,
            "oracles": {},
        }
        reference_verdict: Optional[str] = None
        for oracle in oracles:
            oracle_started = time.perf_counter()
            record, mismatches = run_oracle(generated.function, oracle, options)
            elapsed = time.perf_counter() - oracle_started
            program_record["oracles"][oracle] = record
            sides = [v for v in record.values() if isinstance(v, dict) and "verdict" in v]
            if sides:
                totals[oracle]["programs"] += 1
                totals[oracle]["reference_posts"] += sides[0].get("post_decisions", 0)
                if len(sides) > 1:
                    totals[oracle]["variant_posts"] += sides[-1].get(
                        "post_decisions", 0
                    )
                if reference_verdict is None:
                    reference_verdict = sides[0]["verdict"]
                    program_record["post_decisions"] = sides[0].get(
                        "post_decisions", 0
                    )
            totals[oracle]["seconds"] += elapsed
            if "divergence" in record:
                report.divergences += 1
            for mismatch in mismatches:
                mismatch.seed = generated.seed
                mismatch.source = generated.source
                if log:
                    log(
                        f"MISMATCH seed={generated.seed} oracle={oracle} "
                        f"kind={mismatch.kind}: {mismatch.detail}"
                    )
                if shrink:
                    predicate = oracle_failure_predicate(oracle, options, mismatch)
                    try:
                        minimized = shrink_function(generated.function, predicate)
                        mismatch.minimized_source = format_function(minimized)
                    except ValueError:
                        # Flaky failure: it did not reproduce on the rerun.
                        mismatch.detail += " [did not reproduce under shrinking]"
                if corpus_dir is not None:
                    write_reproducer(corpus_dir, mismatch)
                report.mismatches.append(mismatch)
        # A planted bug the engine *proves safe* is an unsoundness finding
        # in its own right — no budget excuse applies to a SAFE verdict.
        if generated.expect_unsafe and reference_verdict == Verdict.SAFE:
            mismatch = Mismatch(
                "planted",
                "planted",
                "engine proved a planted-bug program safe",
                seed=generated.seed,
                source=generated.source,
            )
            if corpus_dir is not None:
                write_reproducer(corpus_dir, mismatch)
            report.mismatches.append(mismatch)
            if log:
                log(f"MISMATCH seed={generated.seed} planted bug proved safe")
        if reference_verdict is not None:
            report.verdicts[reference_verdict] = (
                report.verdicts.get(reference_verdict, 0) + 1
            )
        program_record["verdict"] = reference_verdict
        report.programs.append(program_record)
        if log and len(report.programs) % 25 == 0:
            log(
                f"{len(report.programs)}/{count} programs, "
                f"{len(report.mismatches)} mismatch(es)"
            )
    for name in oracles:
        totals[name]["seconds"] = round(totals[name]["seconds"], 3)
    report.oracle_totals = totals
    report.seconds = time.perf_counter() - started
    return report
