"""The quantifier-free satisfiability solver.

:class:`SmtSolver` decides quantifier-free formulas of linear integer/rational
arithmetic with array reads (treated as uninterpreted function applications).

The core is a **lazy case-splitting engine**: top-level conjuncts and unit
literals are asserted into one persistent incremental constraint store
(:class:`~repro.smt.simplex.IncrementalSimplex`), and boolean structure is
explored on demand — a disjunction is only split when every other conjunct
has already been propagated, and a branch whose partial constraint store is
already infeasible is pruned without ever enumerating its sub-cases
(UNSAT-core-style early exit).  Sibling branches share the tableau prefix of
the store through ``push``/``pop``, so a case split costs a few bound flips
instead of a from-scratch solve.  Disequalities and the functionality axiom
for array reads are themselves handled as lazy splits.  The eager
disjunctive-normal-form expansion of earlier versions
(:func:`~repro.logic.transform.dnf_cubes`) survives only as
:meth:`SmtSolver.check_sat_eager`, kept as a differential-testing oracle.

Solved queries are memoised in a normalised-query cache keyed on the interned
(hash-consed) formula, so repeated obligations — the CEGAR loop re-checks the
same verification conditions across abstract-reachability rounds — are
answered without touching the theory solver.

For query *families* that share a common core — the abstract-post oracle asks
"does predicate p hold after this edge?" for every precision predicate
against one ``(state, transition)`` pair, and Houdini asks it for every
candidate after one basic path — :meth:`SmtSolver.context` opens a
:class:`SolverContext`: the core is asserted **once** into a persistent
constraint store, and each family member is decided by scoping only its own
(usually single-literal) assumption with ``push``/``pop``.  The simplex
tableau, the asserted-literal set used for syntactic propagation, and the
read-flattening tables all survive across the family's checks.

The solver answers three kinds of queries used throughout the library:
satisfiability (with a witness model), entailment between formulas, and
equivalence.  Quantified formulas must be pre-processed by
:mod:`repro.smt.quant`; the convenience entry points of
:mod:`repro.smt.vcgen` do this automatically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..logic.formulas import (
    And,
    Atom,
    BoolConst,
    Formula,
    Not,
    Or,
    Relation,
    TRUE,
    conjoin,
    eq,
    negate,
)
from ..logic.terms import ArrayRead, LinExpr, Var
from ..logic.transform import FreshNames, dnf_cubes, quantifier_free, to_nnf
from ..logic.simplify import simplify
from .arrays import CubeSolver, find_functionality_violation, flatten_reads
from .budget import BudgetExhausted
from .lra import LraSolver, assert_atoms, integer_feasible
from .simplex import IncrementalSimplex

__all__ = ["SmtSolver", "SatResult", "SolverStats", "SolverContext"]


@dataclass
class SatResult:
    """Outcome of a satisfiability query."""

    satisfiable: bool
    model: Optional[dict[Var, Fraction]] = None
    approximate: bool = False


@dataclass
class SolverStats:
    """Counters of the lazy engine (reset per :class:`SmtSolver`)."""

    #: disjuncts explored by the lazy splitter
    splits: int = 0
    #: feasibility checks of a partial constraint store before branching
    prune_checks: int = 0
    #: branches discarded because the partial store was already infeasible
    pruned_branches: int = 0
    #: full leaf checks (integer branch-and-bound + functionality loop)
    leaf_checks: int = 0
    #: case splits forced by the array functionality axiom
    functionality_splits: int = 0
    #: memoised query answers served without solving
    cache_hits: int = 0
    #: conjunction-level feasibility decisions by the incremental simplex:
    #: pivot-loop checks plus assert-time bound conflicts, across pruning,
    #: lookaheads, branch-and-bound and functionality loops — the honest
    #: "theory solver call" count.
    simplex_checks: int = 0
    #: assumption checks answered inside a :class:`SolverContext` (each is
    #: one solver-level decision, like a ``check_sat`` call, but over a
    #: shared asserted core instead of a from-scratch store).
    context_checks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "splits": self.splits,
            "prune_checks": self.prune_checks,
            "pruned_branches": self.pruned_branches,
            "leaf_checks": self.leaf_checks,
            "functionality_splits": self.functionality_splits,
            "cache_hits": self.cache_hits,
            "simplex_checks": self.simplex_checks,
            "context_checks": self.context_checks,
        }


class _LazySearch:
    """One lazy case-splitting search over a persistent constraint store."""

    def __init__(self, solver: "SmtSolver") -> None:
        #: The owning solver, read for its current ``deadline``.
        self.solver = solver
        self.integer_mode = solver.integer_mode
        self.bb_limit = solver.bb_limit
        self.stats = solver.stats
        self.simplex = IncrementalSimplex()
        self._fresh = FreshNames("rd")
        #: canonical (read-flattened) ArrayRead -> its value variable.
        self._read_vars: dict[ArrayRead, Var] = {}
        #: atom -> (flattened atom, read triples it mentions); atoms are
        #: interned, so this avoids re-walking shared expressions per branch.
        self._flatten_cache: dict[Atom, tuple[Atom, tuple[tuple[Var, str, LinExpr], ...]]] = {}
        #: (value var, array, flattened index) triples asserted somewhere on
        #: the current branch; length marks give push/pop scoping.
        self._active_reads: list[tuple[Var, str, LinExpr]] = []
        self._active_vars: set[Var] = set()
        self._read_marks: list[int] = []
        #: flattened atoms asserted on the current branch, for syntactic
        #: boolean constraint propagation (scoped like the active reads).
        self._asserted: list[Atom] = []
        self._asserted_set: set[Atom] = set()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def solve(self, formula: Formula) -> SatResult:
        units, disjunctions = [], []
        if not _decompose(formula, units, disjunctions):
            return SatResult(False)
        return self._solve(units, disjunctions)

    # ------------------------------------------------------------------
    # The splitter
    # ------------------------------------------------------------------
    def _solve(self, units: list[Atom], disjunctions: list[Or]) -> SatResult:
        deadline = self.solver.deadline
        self.simplex.push()
        mark = len(self._active_reads)
        self._read_marks.append(mark)
        asserted_mark = len(self._asserted)
        try:
            pending: list[Or] = []
            seen: set[Or] = set()
            for disjunction in disjunctions:
                if disjunction not in seen:
                    seen.add(disjunction)
                    pending.append(disjunction)
            if not self._assert_units(units, pending, seen):
                return SatResult(False)

            while True:
                # The split tree can be exponential: every round checks the
                # run's deadline (the finally below unwinds the store).
                if deadline is not None and time.perf_counter() > deadline:
                    raise BudgetExhausted()
                if not pending:
                    self.stats.leaf_checks += 1
                    return self._leaf_check(decided=frozenset())

                # Conflict-driven pruning: if the units asserted so far
                # already contradict the store, the whole subtree below is
                # infeasible and no disjunction needs to be expanded.
                self.stats.prune_checks += 1
                if not self.simplex.check():
                    self.stats.pruned_branches += 1
                    return SatResult(False)

                # Filter every pending disjunction: syntactic boolean
                # constraint propagation against the asserted literals, then
                # a theory lookahead against the current store.  Disjuncts
                # that cannot survive are dropped; an empty disjunction
                # refutes the branch, a single survivor is propagated as a
                # unit, and otherwise we branch on the most constrained
                # disjunction (fail-first).
                propagated = False
                best: Optional[list[tuple[list[Atom], list[Or]]]] = None
                best_index = -1
                for index in range(len(pending)):
                    branches = self._filter_disjunction(pending[index])
                    if not branches:
                        return SatResult(False)
                    if len(branches) == 1:
                        pending.pop(index)
                        sub_units, sub_disjunctions = branches[0]
                        for disjunction in sub_disjunctions:
                            if disjunction not in seen:
                                seen.add(disjunction)
                                pending.append(disjunction)
                        if not self._assert_units(sub_units, pending, seen):
                            return SatResult(False)
                        propagated = True
                        break
                    if best is None or len(branches) < len(best):
                        best = branches
                        best_index = index
                if propagated:
                    continue

                assert best is not None
                pending.pop(best_index)
                best_approx: Optional[SatResult] = None
                for sub_units, sub_disjunctions in best:
                    self.stats.splits += 1
                    result = self._solve(sub_units, pending + sub_disjunctions)
                    if result.satisfiable:
                        if not result.approximate:
                            return result
                        best_approx = result
                return best_approx if best_approx is not None else SatResult(False)
        finally:
            self._pop_reads(self._read_marks.pop())
            self._asserted_set.difference_update(self._asserted[asserted_mark:])
            del self._asserted[asserted_mark:]
            self.simplex.pop()

    def _filter_disjunction(self, chosen: Or) -> list[tuple[list[Atom], list[Or]]]:
        """Surviving branches of a disjunction under the current store."""
        asserted = self._asserted_set
        branches: list[tuple[list[Atom], list[Or]]] = []
        for disjunct in chosen.args:
            if isinstance(disjunct, Atom):
                # Syntactic propagation on interned literals: an asserted
                # disjunct satisfies the whole disjunction; an asserted
                # negation eliminates the disjunct without a theory call.
                # The asserted set holds *flattened* atoms, so compare the
                # flattened form (no read activation happens here).
                flat = self._flatten_only(disjunct)
                if flat in asserted:
                    return [([], [])]
                if flat.negated() in asserted:
                    continue
            sub_units: list[Atom] = []
            sub_disjunctions: list[Or] = []
            if not _decompose(disjunct, sub_units, sub_disjunctions):
                continue
            if sub_units:
                self.simplex.push()
                look_mark = len(self._active_reads)
                feasible = (
                    self._assert_units(sub_units, sub_disjunctions, None)
                    and self.simplex.check()
                )
                self._pop_reads(look_mark)
                self.simplex.pop()
                if not feasible:
                    self.stats.pruned_branches += 1
                    continue
            branches.append((sub_units, sub_disjunctions))
        return branches

    def _pop_reads(self, mark: int) -> None:
        for triple in self._active_reads[mark:]:
            self._active_vars.discard(triple[0])
        del self._active_reads[mark:]

    def _assert_units(
        self, units: list[Atom], pending: list[Or], seen: Optional[set[Or]]
    ) -> bool:
        """Flatten and assert unit literals; NE units become lazy splits.

        Appends any disequality splits to ``pending`` (deduplicated against
        ``seen`` when given); False on conflict.
        """
        flattened: list[Atom] = []
        for literal in units:
            atom = self._flatten_atom(literal)
            if atom.rel is Relation.NE:
                # Lazy disequality split: e != 0 becomes e < 0 \/ -e < 0.
                split = Or((Atom(atom.expr, Relation.LT), Atom(-atom.expr, Relation.LT)))
                if seen is None:
                    pending.append(split)
                elif split not in seen:
                    seen.add(split)
                    pending.append(split)
                continue
            flattened.append(atom)
        if seen is not None:
            for atom in flattened:
                if atom not in self._asserted_set:
                    self._asserted_set.add(atom)
                    self._asserted.append(atom)
        return assert_atoms(self.simplex, flattened, self.integer_mode)

    # ------------------------------------------------------------------
    # Leaf checks: integer branch-and-bound plus array functionality.
    # ------------------------------------------------------------------
    def _leaf_check(self, decided: frozenset) -> SatResult:
        outcome = integer_feasible(self.simplex, self.bb_limit, self.integer_mode)
        if not outcome.satisfiable:
            return SatResult(False)
        assert outcome.model is not None
        violation = find_functionality_violation(
            self._active_reads, outcome.model, decided
        )
        if violation is None:
            return SatResult(True, outcome.model, outcome.approximate)
        var_a, var_b, index_a, index_b = violation
        self.stats.functionality_splits += 1
        decided = decided | {frozenset((var_a, var_b))}
        cases: Sequence[list[Atom]] = (
            # Case 1: the indices coincide, so the values must coincide.
            [eq(index_a, index_b), eq(var_a, var_b)],
            # Cases 2 and 3: the indices are ordered strictly.
            [Atom(index_a - index_b, Relation.LT)],
            [Atom(index_b - index_a, Relation.LT)],
        )
        for case in cases:
            self.simplex.push()
            try:
                if assert_atoms(self.simplex, case, self.integer_mode):
                    result = self._leaf_check(decided)
                    if result.satisfiable:
                        return result
            finally:
                self.simplex.pop()
        return SatResult(False)

    # ------------------------------------------------------------------
    # Read flattening (uninterpreted-function view of array reads)
    # ------------------------------------------------------------------
    def _flatten_atom(self, atom: Atom) -> Atom:
        """Flatten reads to value variables and activate them on this branch.

        The canonicalisation itself is the shared
        :func:`repro.smt.arrays.flatten_reads`; this wrapper adds the
        per-search memo (atoms are interned, so shared expressions flatten
        once) and the branch-scoped activation of the reads involved.
        """
        flat_atom, triples = self._flatten_entry(atom)
        for triple in triples:
            if triple[0] not in self._active_vars:
                self._active_vars.add(triple[0])
                self._active_reads.append(triple)
        return flat_atom

    def _flatten_only(self, atom: Atom) -> Atom:
        """Flattened form of an atom without activating its reads."""
        return self._flatten_entry(atom)[0]

    def _flatten_entry(
        self, atom: Atom
    ) -> tuple[Atom, tuple[tuple[Var, str, LinExpr], ...]]:
        cached = self._flatten_cache.get(atom)
        if cached is None:
            if not atom.expr.array_reads():
                cached = (atom, ())
            else:
                triples: list[tuple[Var, str, LinExpr]] = []
                flat = flatten_reads(atom.expr, self._value_var_of, triples)
                cached = (Atom(flat, atom.rel), tuple(triples))
            self._flatten_cache[atom] = cached
        return cached

    def _value_var_of(self, canonical: ArrayRead) -> Var:
        value_var = self._read_vars.get(canonical)
        if value_var is None:
            value_var = self._fresh.fresh(canonical.array)
            self._read_vars[canonical] = value_var
        return value_var


def _decompose(formula: Formula, units: list[Atom], disjunctions: list[Or]) -> bool:
    """Split into unit literals and disjunctions; False when trivially unsat."""
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, Atom):
        units.append(formula)
        return True
    if isinstance(formula, Not):
        inner = formula.arg
        if isinstance(inner, Atom):
            units.append(inner.negated())
            return True
        raise ValueError(f"unexpected literal in lazy split: {formula}")
    if isinstance(formula, And):
        for arg in formula.args:
            if not _decompose(arg, units, disjunctions):
                return False
        return True
    if isinstance(formula, Or):
        disjunctions.append(formula)
        return True
    raise ValueError(f"unexpected formula in lazy split: {formula!r}")


class SolverContext:
    """An incremental assumption-context over one persistent constraint store.

    Created by :meth:`SmtSolver.context`.  :meth:`assert_base` installs
    formulas *permanently* — the shared core of a query family — by asserting
    their unit literals into the context's :class:`IncrementalSimplex` (no
    enclosing push, so the bounds survive every later backtrack) and parking
    their disjunctions.  :meth:`check` then decides ``base ∧ assumption``:
    the assumption's units are asserted inside a ``push``/``pop`` scope of
    the *same* store, so sibling checks share the tableau, the slack-variable
    interning, the asserted-literal set used for syntactic propagation, and
    the read-flattening tables.  This is the query shape of the batched
    abstract-post oracle (one core, many negated predicates) and the reason
    it beats one cold :meth:`SmtSolver.check_sat` per predicate.

    Inputs must be quantifier-free and in the solver's literal discipline
    after normalisation (the context normalises with the solver's shared
    simplify+NNF memo); quantified obligations go through
    :mod:`repro.smt.vcgen` instead.

    Tableau rows are permanent (one per distinct linear form), so every
    assumption with new forms grows the tableau every later check pivots
    over.  Once it holds more than ``2 * base rows + 8`` rows, the next
    check first rebuilds the context from its base: a family of many
    distinct assumptions then pays for about the base plus one assumption
    per check, not for every assumption before it.
    """

    def __init__(self, solver: "SmtSolver") -> None:
        self._solver = solver
        #: the normalised base formulas, replayed into a rebuilt store.
        self._base: list[Formula] = []
        #: True once the base itself is unsatisfiable — every later check is
        #: answered False without touching the store.
        self._base_failed = False
        #: tableau rows right after the base was asserted.
        self._base_rows = 0
        self._reset()
        self.num_checks = 0

    def _reset(self) -> None:
        """Start over on an empty constraint store."""
        self._search = _LazySearch(self._solver)
        #: disjunctions of the asserted base, replayed into every check.
        self._base_disjunctions: list[Or] = []
        self._seen: set[Or] = set()

    @property
    def base_failed(self) -> bool:
        return self._base_failed

    @property
    def tableau_rows(self) -> int:
        """Rows of the context's simplex tableau (one per slack variable)."""
        return self._search.simplex.num_slack_vars

    def assert_base(self, formula: Formula) -> bool:
        """Permanently assert ``formula``; False when the base became unsat."""
        if self._base_failed:
            return False
        normalised = self._solver._normalise(formula)
        self._base.append(normalised)
        if not self._assert_base(normalised):
            self._base_failed = True
            return False
        self._base_rows = self.tableau_rows
        return True

    def _assert_base(self, normalised: Formula) -> bool:
        units: list[Atom] = []
        disjunctions: list[Or] = []
        if not _decompose(normalised, units, disjunctions):
            return False
        for disjunction in disjunctions:
            if disjunction not in self._seen:
                self._seen.add(disjunction)
                self._base_disjunctions.append(disjunction)
        # No push around the base: these bounds (and any lazy NE splits,
        # appended to the base disjunctions) are the permanent floor every
        # check's push/pop scope sits on.
        return self._search._assert_units(units, self._base_disjunctions, self._seen)

    def check(self, assumption: Formula = TRUE) -> SatResult:
        """Satisfiability of ``base ∧ assumption`` (assumption scoped to this call)."""
        self.num_checks += 1
        stats = self._solver.stats
        stats.context_checks += 1
        if self._base_failed:
            return SatResult(False)
        if self.tableau_rows > 2 * self._base_rows + 8:
            self._reset()
            for normalised in self._base:
                self._assert_base(normalised)
        normalised = self._solver._normalise(assumption)
        units: list[Atom] = []
        disjunctions: list[Or] = []
        if not _decompose(normalised, units, disjunctions):
            return SatResult(False)
        simplex = self._search.simplex
        before = simplex.num_checks + simplex.num_assert_conflicts
        try:
            result = self._search._solve(
                units, self._base_disjunctions + disjunctions
            )
        finally:
            stats.simplex_checks += (
                simplex.num_checks + simplex.num_assert_conflicts - before
            )
        model = dict(result.model) if result.model is not None else None
        return SatResult(result.satisfiable, model, result.approximate)

    def is_unsat(self, assumption: Formula = TRUE) -> bool:
        return not self.check(assumption).satisfiable


class SmtSolver:
    """Quantifier-free LIA/LRA + array-read solver with statistics.

    ``check_sat``/``entails``/``equivalent`` answers are memoised in
    ``_sat_cache`` keyed on the interned normalised formula; one solver
    instance shared across CEGAR iterations (as :class:`~repro.smt.vcgen.
    VcChecker` does) therefore reuses verdicts across abstract-reachability
    and refinement rounds.
    """

    def __init__(self, integer_mode: bool = True, bb_limit: int = 40) -> None:
        self.integer_mode = integer_mode
        self.bb_limit = bb_limit
        self.lra = LraSolver(integer_mode=integer_mode, bb_limit=bb_limit)
        self.cube_solver = CubeSolver(self.lra)
        self.num_sat_queries = 0
        self.num_entailment_queries = 0
        self.num_contexts = 0
        self.stats = SolverStats()
        #: Absolute ``time.perf_counter()`` past which a search raises
        #: :class:`~repro.smt.budget.BudgetExhausted`; set for the length of
        #: a run by the owning :class:`~repro.smt.vcgen.VcChecker`.
        self.deadline: Optional[float] = None
        self._sat_cache: dict[Formula, SatResult] = {}
        #: raw interned formula -> its normalised (simplify + NNF) form, so
        #: repeat queries skip the two formula-tree walks entirely.
        self._normal_form: dict[Formula, Formula] = {}

    def _normalise(self, formula: Formula) -> Formula:
        """The memoised simplify+NNF pass shared with :class:`SolverContext`."""
        normalised = self._normal_form.get(formula)
        if normalised is None:
            # Both passes walk the whole formula: check the run's deadline
            # first.
            if self.deadline is not None and time.perf_counter() > self.deadline:
                raise BudgetExhausted()
            normalised = to_nnf(simplify(formula))
            self._normal_form[formula] = normalised
        return normalised

    def context(self) -> SolverContext:
        """Open a fresh incremental assumption-context (see :class:`SolverContext`)."""
        self.num_contexts += 1
        return SolverContext(self)

    # ------------------------------------------------------------------
    def check_sat(self, formula: Formula) -> SatResult:
        """Satisfiability of a quantifier-free formula (lazy splitting)."""
        if not quantifier_free(formula):
            raise ValueError(
                "SmtSolver only accepts quantifier-free formulas; "
                "use repro.smt.vcgen for quantified obligations"
            )
        self.num_sat_queries += 1
        normalised = self._normalise(formula)
        cached = self._sat_cache.get(normalised)
        if cached is not None:
            self.stats.cache_hits += 1
            # Hand out a fresh model dict so callers cannot corrupt the cache.
            model = dict(cached.model) if cached.model is not None else None
            return SatResult(cached.satisfiable, model, cached.approximate)
        search = _LazySearch(self)
        result = search.solve(normalised)
        self.stats.simplex_checks += (
            search.simplex.num_checks + search.simplex.num_assert_conflicts
        )
        self._sat_cache[normalised] = result
        model = dict(result.model) if result.model is not None else None
        return SatResult(result.satisfiable, model, result.approximate)

    def check_sat_eager(self, formula: Formula, limit: int = 200_000) -> SatResult:
        """Reference implementation via eager DNF expansion.

        Kept as a differential-testing oracle for the lazy engine (and for
        measuring how many theory calls laziness saves).  ``limit`` bounds
        the number of cubes; pathological inputs raise ``ValueError`` here
        while the lazy engine handles them without materialising the DNF.
        """
        if not quantifier_free(formula):
            raise ValueError(
                "SmtSolver only accepts quantifier-free formulas; "
                "use repro.smt.vcgen for quantified obligations"
            )
        self.num_sat_queries += 1
        formula = simplify(formula)
        cubes = dnf_cubes(formula, limit=limit)
        best_approx: Optional[SatResult] = None
        for cube in cubes:
            atoms: list[Atom] = []
            for literal in cube:
                if isinstance(literal, Atom):
                    atoms.append(literal)
                elif isinstance(literal, Not) and isinstance(literal.arg, Atom):
                    atoms.append(literal.arg.negated())
                else:
                    raise ValueError(f"unexpected literal in cube: {literal}")
            result = self.cube_solver.check(atoms)
            if result.satisfiable:
                outcome = SatResult(True, result.model, result.approximate)
                if not result.approximate:
                    return outcome
                best_approx = outcome
        if best_approx is not None:
            return best_approx
        return SatResult(False)

    def is_sat(self, formula: Formula) -> bool:
        return self.check_sat(formula).satisfiable

    def is_unsat(self, formula: Formula) -> bool:
        return not self.is_sat(formula)

    def get_model(self, formula: Formula) -> Optional[dict[Var, Fraction]]:
        result = self.check_sat(formula)
        return result.model if result.satisfiable else None

    # ------------------------------------------------------------------
    def entails(self, antecedent: Formula, consequent: Formula) -> bool:
        """``antecedent |= consequent`` for quantifier-free formulas."""
        self.num_entailment_queries += 1
        return self.is_unsat(conjoin([antecedent, negate(consequent)]))

    def equivalent(self, lhs: Formula, rhs: Formula) -> bool:
        return self.entails(lhs, rhs) and self.entails(rhs, lhs)

    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Cache and split statistics (for logging and benchmarks)."""
        info = self.stats.as_dict()
        info["cached_queries"] = len(self._sat_cache)
        info["contexts_created"] = self.num_contexts
        return info
