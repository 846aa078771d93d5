#!/usr/bin/env python3
"""Quickstart: verify programs with the incremental lazy-abstraction engine.

Run with:  python examples/quickstart.py
"""

from repro import Session, VerifierOptions, verify
from repro.core import Budget, VerificationEngine

SOURCE = """
void double_counter(int n) {
  int i, a;
  assume(n >= 0);
  i = 0;
  a = 0;
  while (i < n) {
    a = a + 2;
    i = i + 1;
  }
  assert(a == 2 * n);
}
"""


def main() -> None:
    print("One-call API: verify() with path-invariant refinement ...")
    result = verify(SOURCE, options=VerifierOptions(max_refinements=5))
    print(result.summary())
    print()
    print("Predicates discovered per location:")
    print(result.precision)

    print()
    print("The engine behind it: persistent ART, budgets, pluggable strategy ...")
    engine = VerificationEngine(
        SOURCE,
        strategy="error-distance",
        budget=Budget(max_refinements=5, max_nodes=2000, max_seconds=60.0),
    )
    result = engine.run()
    for record in result.iterations:
        repaired = (
            f", repair {record.repair}" if record.repair is not None else ""
        )
        print(
            f"  iteration {record.iteration}: "
            f"{record.nodes_created} nodes created, "
            f"{record.post_decisions} abstract-post decisions"
            f"{repaired}"
        )
    stats = result.engine_stats
    print(
        f"  -> {result.verdict} with {stats['nodes_reused']} node-reuses; "
        f"a restart engine would have re-derived each of those from scratch"
    )

    print()
    print("Sessions: one shared checker + precision store, warm-started batches ...")
    session = Session(VerifierOptions(max_refinements=5))
    batch = session.run_many(
        ["forward", "lock_step", "simple_unsafe", ("inline", SOURCE)], jobs=2
    )
    for row in batch:
        print(
            f"  {row['name']:12s} {row['verdict']:7s} "
            f"{row['seconds']:6.2f}s  {row['refinements']} refinements, "
            f"{row['post_decisions']} post decisions"
        )
    cold = next(row for row in batch if row["name"] == "forward")
    warm = session.run("forward")  # seeded from the batch's banked precision
    print(
        f"  warm rerun of forward: {warm.post_decisions()} post decisions "
        f"(cold run paid {cold['post_decisions']}), "
        f"{warm.num_refinements} refinements needed"
    )
    print()
    print("Same corpus from the shell:  python -m repro batch forward lock_step --jobs 2")

    print()
    print("For comparison, the classic path-formula refinement on the same program:")
    baseline = verify(SOURCE, options=VerifierOptions(refiner="path-formula", max_refinements=3))
    print(baseline.summary())
    lengths = [r.counterexample_length for r in baseline.iterations if r.counterexample_length]
    print(f"counterexample lengths per iteration: {lengths} (the loop is being unrolled)")

    print()
    print("The portfolio picks the refiner for you (and demotes a diverging one):")
    portfolio = verify(SOURCE, options=VerifierOptions(refiner="portfolio"))
    print(portfolio.summary())
    print(
        f"  -> winner: {portfolio.winner}; per-arm divergence verdicts: "
        + ", ".join(
            f"{arm['refiner']}={arm['budget_class']}" for arm in portfolio.arms
        )
    )
    print("Same from the shell:  python -m repro verify forward --refiner portfolio")


if __name__ == "__main__":
    main()
