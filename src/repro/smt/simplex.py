"""The exact simplex engine over rationals.

:class:`IncrementalSimplex` is a sparse, incremental feasibility engine in
the style of Dutertre and de Moura's "A Fast Linear-Arithmetic Solver for
DPLL(T)".  Constraints are asserted as *bounds* on problem or slack
variables; the tableau (one row per slack variable, interned by linear form)
is persistent, and ``push``/``pop`` only save and restore bounds.  This is
what makes the lazy case-splitting SMT core cheap: sibling cubes of a case
split share the whole tableau prefix and only flip a few bounds.  Strict
inequalities are handled exactly with delta-rationals ``a + b*delta`` (an
infinitesimal positive ``delta``), so no separate Fourier–Motzkin pass is
needed for satisfiability.

Every number in the engine (row coefficients, bounds, both halves of a
delta-rational, the model) is an exact rational in the canonical form of
:func:`~repro.logic.terms.as_rat`: an ``int`` when integral, a ``Fraction``
only when not.  The verifier's tableaux are almost entirely integral, so
pivots and the bound comparisons of :meth:`IncrementalSimplex.check` run on
ints; the divisions (bounds, pivot ratios, the row inverse, the model's
``delta``) go through :func:`~repro.logic.terms.exact_div`.

:meth:`IncrementalSimplex.check` picks Bland's leaving variable — the
smallest-id basic variable outside a bound — from a tracked set of the basic
variables that may violate one, not from a scan of every row.  A basic
variable can only come to violate a bound when its value moves (a nonbasic
update or a pivot) or a bound on it tightens, and each of those adds it;
``pop`` only loosens bounds.  Outside a sticky conflict (which fails every
check until its ``pop``) the set holds every violator, so the pick, and
every pivot, is the full scan's.
"""

from __future__ import annotations

from typing import Optional

from ..logic.formulas import Relation
from ..logic.terms import LinExpr, Rat, Var, as_rat, exact_div

__all__ = ["IncrementalSimplex"]

# ----------------------------------------------------------------------
# Delta-rationals: pairs (a, b) denoting a + b*delta for an infinitesimal
# positive delta.  Python's lexicographic tuple comparison implements the
# right total order, so plain tuples are used for speed.  Both halves are
# canonical rationals, so an integral pair is a pair of ints.
# ----------------------------------------------------------------------
_DZERO = (0, 0)


class IncrementalSimplex:
    """Sparse incremental simplex with bound assertions and push/pop.

    Variables are problem variables and slack variables; each *distinct
    linear form* (canonicalised to leading coefficient ``+1``) gets exactly
    one slack variable whose tableau row is permanent.  Asserting a
    constraint only tightens a bound, so re-asserting the same form after a
    ``pop`` — which is what sibling cubes of a case split do — costs a
    dictionary lookup instead of a tableau rebuild.

    Statistics counters: ``num_checks`` (feasibility checks),
    ``num_slack_vars``, ``num_slack_reuses``, ``num_assert_conflicts``.
    """

    def __init__(self) -> None:
        #: basic var -> {nonbasic var: coeff}; invariant basic = sum(row).
        self._rows: dict[Var, dict[Var, Rat]] = {}
        #: nonbasic var -> set of basic vars whose row mentions it.
        self._cols: dict[Var, set[Var]] = {}
        #: current assignment, as delta-rational pairs.
        self._values: dict[Var, tuple[Rat, Rat]] = {}
        self._lower: dict[Var, tuple[Rat, Rat]] = {}
        self._upper: dict[Var, tuple[Rat, Rat]] = {}
        #: canonical linear form -> its slack variable.
        self._slack_of_form: dict[tuple, Var] = {}
        #: Bland-rule total order on variables (creation order).
        self._var_ids: dict[Var, int] = {}
        #: Basic variables that may violate a bound; outside a sticky
        #: conflict every one that does is here.  Value updates, bound
        #: assertions and pivots add to it; ``pop`` only loosens bounds, so
        #: it never has to.
        self._violated: set[Var] = set()
        #: undo log of bound changes: (which, var, old bound or None).
        self._trail: list[tuple[str, Var, Optional[tuple[Rat, Rat]]]] = []
        self._marks: list[tuple[int, bool]] = []
        self._conflict = False
        self.num_checks = 0
        self.num_slack_vars = 0
        self.num_slack_reuses = 0
        #: conflicts decided at assertion time (crossing bounds), i.e.
        #: feasibility decisions that never needed a pivot loop.
        self.num_assert_conflicts = 0

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open a backtracking point (bounds only; the tableau persists)."""
        self._marks.append((len(self._trail), self._conflict))

    def pop(self) -> None:
        """Undo all bound assertions since the matching :meth:`push`."""
        mark, conflict = self._marks.pop()
        trail = self._trail
        while len(trail) > mark:
            which, variable, old = trail.pop()
            bounds = self._lower if which == "l" else self._upper
            if old is None:
                del bounds[variable]
            else:
                bounds[variable] = old
        self._conflict = conflict

    def assert_constraint(self, expr: LinExpr, rel: Relation) -> bool:
        """Assert ``expr rel 0`` (``rel`` in LE/LT/EQ); False on conflict.

        A returned conflict is recorded and sticky until the enclosing
        ``pop``; further checks fail fast.
        """
        if rel is Relation.NE:
            raise ValueError("disequalities must be split before the simplex")
        terms = expr.terms
        const = expr.const
        if not terms:
            holds = rel.holds(const)
            if not holds:
                self._conflict = True
            return holds

        if len(terms) == 1:
            variable, coeff = terms[0]
            bound = exact_div(-const, coeff)
            flip = coeff < 0
        else:
            lead = terms[0][1]
            key = tuple((v, exact_div(c, lead)) for v, c in terms)
            variable = self._slack_of_form.get(key)
            if variable is None:
                variable = self._new_slack(key)
            else:
                self.num_slack_reuses += 1
            bound = exact_div(-const, lead)
            flip = lead < 0

        if rel is Relation.EQ:
            ok = self._assert_upper(variable, (bound, 0))
            return self._assert_lower(variable, (bound, 0)) and ok
        strict = rel is Relation.LT
        if flip:
            # coeff < 0:  c*x <= -const  ==>  x >= bound (strictly for LT).
            return self._assert_lower(variable, (bound, 1 if strict else 0))
        return self._assert_upper(variable, (bound, -1 if strict else 0))

    def _register(self, variable: Var) -> None:
        if variable not in self._var_ids:
            self._var_ids[variable] = len(self._var_ids)
            self._values[variable] = _DZERO
            self._cols.setdefault(variable, set())

    def _new_slack(self, form: tuple) -> Var:
        self.num_slack_vars += 1
        slack = Var(f"slk#{self.num_slack_vars}")
        # Define slack = sum(form), substituting currently-basic variables by
        # their rows so the new row mentions only nonbasic variables.
        row: dict[Var, Rat] = {}
        value_a = 0
        value_b = 0
        for variable, coeff in form:
            self._register(variable)
            basic_row = self._rows.get(variable)
            if basic_row is None:
                row[variable] = row.get(variable, 0) + coeff
            else:
                for inner, inner_coeff in basic_row.items():
                    row[inner] = row.get(inner, 0) + coeff * inner_coeff
            va, vb = self._values[variable]
            value_a += coeff * va
            value_b += coeff * vb
        row = {v: as_rat(c) for v, c in row.items() if c != 0}
        self._var_ids[slack] = len(self._var_ids)
        self._values[slack] = (as_rat(value_a), as_rat(value_b))
        self._rows[slack] = row
        for variable in row:
            self._cols.setdefault(variable, set()).add(slack)
        self._slack_of_form[form] = slack
        return slack

    def _assert_lower(self, variable: Var, bound: tuple[Rat, Rat]) -> bool:
        self._register(variable)
        old = self._lower.get(variable)
        if old is not None and old >= bound:
            return not self._conflict
        self._trail.append(("l", variable, old))
        self._lower[variable] = bound
        upper = self._upper.get(variable)
        if upper is not None and upper < bound:
            self._conflict = True
            self.num_assert_conflicts += 1
            return False
        if self._values[variable] < bound:
            if variable in self._rows:
                self._violated.add(variable)
            else:
                self._update_nonbasic(variable, bound)
        return not self._conflict

    def _assert_upper(self, variable: Var, bound: tuple[Rat, Rat]) -> bool:
        self._register(variable)
        old = self._upper.get(variable)
        if old is not None and old <= bound:
            return not self._conflict
        self._trail.append(("u", variable, old))
        self._upper[variable] = bound
        lower = self._lower.get(variable)
        if lower is not None and lower > bound:
            self._conflict = True
            self.num_assert_conflicts += 1
            return False
        if self._values[variable] > bound:
            if variable in self._rows:
                self._violated.add(variable)
            else:
                self._update_nonbasic(variable, bound)
        return not self._conflict

    def _update_nonbasic(self, variable: Var, value: tuple[Rat, Rat]) -> None:
        old_a, old_b = self._values[variable]
        delta_a = value[0] - old_a
        delta_b = value[1] - old_b
        self._values[variable] = value
        rows = self._rows
        values = self._values
        violated = self._violated
        for basic in self._cols.get(variable, ()):
            coeff = rows[basic].get(variable)
            if coeff is None:
                continue
            va, vb = values[basic]
            values[basic] = (as_rat(va + coeff * delta_a), as_rat(vb + coeff * delta_b))
            violated.add(basic)

    # ------------------------------------------------------------------
    # Feasibility
    # ------------------------------------------------------------------
    def check(self) -> bool:
        """Restore feasibility of the current bounds; True iff satisfiable."""
        self.num_checks += 1
        if self._conflict:
            return False
        rows = self._rows
        values = self._values
        lower = self._lower
        upper = self._upper
        ids = self._var_ids
        violated = self._violated
        while True:
            # Bland's rule: smallest violating basic variable.  Only the
            # tracked rows can violate a bound; those found within theirs
            # leave the set until a value or bound change adds them again.
            candidate: Optional[Var] = None
            candidate_id = -1
            need_raise = False
            satisfied: list[Var] = []
            for basic in violated:
                value = values[basic]
                low = lower.get(basic)
                if low is not None and value < low:
                    if candidate is None or ids[basic] < candidate_id:
                        candidate, candidate_id, need_raise = basic, ids[basic], True
                    continue
                up = upper.get(basic)
                if up is not None and value > up:
                    if candidate is None or ids[basic] < candidate_id:
                        candidate, candidate_id, need_raise = basic, ids[basic], False
                    continue
                satisfied.append(basic)
            violated.difference_update(satisfied)
            if candidate is None:
                return True
            row = rows[candidate]
            target = lower[candidate] if need_raise else upper[candidate]
            entering: Optional[Var] = None
            entering_id = -1
            for nonbasic, coeff in row.items():
                increase = (coeff > 0) == need_raise
                if increase:
                    up = upper.get(nonbasic)
                    suitable = up is None or values[nonbasic] < up
                else:
                    low = lower.get(nonbasic)
                    suitable = low is None or values[nonbasic] > low
                if suitable and (entering is None or ids[nonbasic] < entering_id):
                    entering = nonbasic
                    entering_id = ids[nonbasic]
            if entering is None:
                return False
            self._pivot_and_update(candidate, entering, target)

    def _pivot_and_update(
        self, basic: Var, entering: Var, target: tuple[Rat, Rat]
    ) -> None:
        rows = self._rows
        values = self._values
        violated = self._violated
        row = rows.pop(basic)
        coeff = row.pop(entering)
        va, vb = values[basic]
        theta = (exact_div(target[0] - va, coeff), exact_div(target[1] - vb, coeff))
        # The leaving variable sits on its bound; the entering one may not.
        values[basic] = target
        violated.discard(basic)
        ea, eb = values[entering]
        values[entering] = (as_rat(ea + theta[0]), as_rat(eb + theta[1]))
        violated.add(entering)
        for other in self._cols[entering]:
            if other is basic or other not in rows:
                continue
            other_coeff = rows[other].get(entering)
            if other_coeff is None:
                continue
            oa, ob = values[other]
            values[other] = (
                as_rat(oa + other_coeff * theta[0]), as_rat(ob + other_coeff * theta[1])
            )
            violated.add(other)

        # Row for the entering variable: entering = (basic - sum(rest)) / coeff.
        inv = exact_div(1, coeff)
        new_row: dict[Var, Rat] = {basic: inv}
        for variable, c in row.items():
            new_row[variable] = as_rat(-c * inv)
            self._cols[variable].discard(basic)
        cols = self._cols
        cols.setdefault(basic, set())

        # Substitute the entering variable out of every other row.
        for other in list(cols.get(entering, ())):
            if other not in rows:
                continue
            other_row = rows[other]
            factor = other_row.pop(entering, None)
            if factor is None:
                continue
            for variable, c in new_row.items():
                merged = other_row.get(variable, 0) + factor * c
                if merged == 0:
                    if variable in other_row:
                        del other_row[variable]
                        cols[variable].discard(other)
                else:
                    other_row[variable] = as_rat(merged)
                    cols.setdefault(variable, set()).add(other)

        rows[entering] = new_row
        cols[entering] = set()
        for variable in new_row:
            cols.setdefault(variable, set()).add(entering)

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def model(self) -> dict[Var, Rat]:
        """A concrete rational witness for the current (feasible) bounds.

        Delta-rational values are concretised by choosing a rational
        ``delta`` small enough that every asserted bound stays satisfied.
        Variables that no *active* bound constrains — directly or through
        the form of a bounded slack — are reported rounded to integers:
        their tableau values are stale leftovers of popped branches, any
        value is valid for them, and handing out fractional leftovers would
        send integer branch-and-bound chasing variables that do not matter.
        """
        delta: Rat = 1
        values = self._values
        lower = self._lower
        upper = self._upper
        for variable, (ba, bb) in lower.items():
            va, vb = values[variable]
            if ba < va and bb > vb:
                delta = min(delta, exact_div(va - ba, bb - vb))
        for variable, (ba, bb) in upper.items():
            va, vb = values[variable]
            if va < ba and vb > bb:
                delta = min(delta, exact_div(ba - va, vb - bb))
        relevant: set[Var] = set()
        for form, slack in self._slack_of_form.items():
            if slack in lower or slack in upper:
                for variable, _ in form:
                    relevant.add(variable)
        for bounds in (lower, upper):
            for variable in bounds:
                if not variable.name.startswith("slk#"):
                    relevant.add(variable)
        model: dict[Var, Rat] = {}
        for variable, (a, b) in values.items():
            if variable.name.startswith("slk#"):
                continue
            if variable in relevant:
                model[variable] = as_rat(a + b * delta)
            else:
                model[variable] = a.numerator // a.denominator
        return model
