"""Tests for the linear-arithmetic engines (Fourier–Motzkin and the
incremental simplex)."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logic.formulas import Relation
from repro.logic.terms import LinExpr, Var, const, var
from repro.smt.fourier_motzkin import eliminate_variable, project, satisfiable
from repro.smt.linear import LinConstraint, normalize_constraint, tighten_integer
from repro.smt.simplex import IncrementalSimplex


def c_le(expr):
    return LinConstraint(expr, Relation.LE)


def c_lt(expr):
    return LinConstraint(expr, Relation.LT)


def c_eq(expr):
    return LinConstraint(expr, Relation.EQ)


def feasible(constraints):
    """Decide ``constraints`` on a fresh :class:`IncrementalSimplex`: its
    model, or ``None`` when they are infeasible."""
    simplex = IncrementalSimplex()
    for constraint in constraints:
        simplex.assert_constraint(constraint.expr, constraint.rel)
    return simplex.model() if simplex.check() else None


def canonical(value):
    """An exact rational in canonical form: an int, or a non-integral
    Fraction, never a float."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def satisfied(constraint, model):
    value = sum(
        coeff * model.get(v, Fraction(0)) for v, coeff in constraint.expr.terms
    ) + constraint.expr.const
    return constraint.rel.holds(value)


class TestLinConstraint:
    def test_normalisation_scales_to_coprime_integers(self):
        constraint = normalize_constraint(c_le(var("x") * Fraction(2, 4) + const(1)))
        assert constraint.expr == var("x") + const(2)

    @given(
        st.lists(st.fractions(-6, 6, max_denominator=4), min_size=3, max_size=3),
        st.fractions(Fraction(1, 4), 6, max_denominator=4),
        st.fractions(Fraction(1, 6), 6, max_denominator=6),
        st.sampled_from([Relation.LE, Relation.LT, Relation.EQ]),
    )
    @settings(max_examples=80, deadline=None)
    def test_normalisation_is_a_positive_multiple_with_coprime_integers(
        self, values, lead, factor, rel
    ):
        """Every positive multiple of a constraint normalises to one
        representative: the constraint scaled by a positive factor to coprime
        integer coefficients."""
        expr = const(values[0]) + var("x") * values[1] + var("y") * values[2]
        constraint = LinConstraint(expr + var("z") * lead, rel)
        normal = normalize_constraint(constraint)
        assert normalize_constraint(
            LinConstraint(constraint.expr * factor, rel)
        ) == normal
        assert normal.rel is rel
        ratio = Fraction(normal.expr.coeff(Var("z"))) / lead
        assert ratio > 0
        assert normal.expr == constraint.expr * ratio
        values = [coeff for _, coeff in normal.expr.terms] + [normal.expr.const]
        assert all(Fraction(value).denominator == 1 for value in values)
        assert math.gcd(*(int(value) for value in values)) == 1

    def test_integer_tightening_of_strict(self):
        tightened = tighten_integer(c_lt(var("x") - var("n")))
        assert tightened.rel is Relation.LE
        assert tightened.expr == var("x") - var("n") + const(1)

    def test_integer_tightening_of_fractional_constant(self):
        tightened = tighten_integer(c_le(var("x") - const(Fraction(5, 2))))
        assert tightened.expr == var("x") - const(2)

    def test_rejects_array_reads(self):
        from repro.logic.terms import read

        with pytest.raises(ValueError):
            LinConstraint(read("a", "i"), Relation.LE)

    def test_rejects_disequality(self):
        with pytest.raises(ValueError):
            LinConstraint(var("x"), Relation.NE)


class TestFourierMotzkin:
    def test_satisfiable_system_returns_model(self):
        model = satisfiable([c_le(var("x") - 5), c_le(const(3) - var("x"))])
        assert model is not None
        assert 3 <= model[Var("x")] <= 5

    def test_unsatisfiable_bounds(self):
        assert satisfiable([c_le(var("x") - 1), c_le(const(2) - var("x"))]) is None

    def test_strict_inequality_contradiction(self):
        # x < 0 and x > 0
        assert satisfiable([c_lt(var("x")), c_lt(-var("x"))]) is None

    def test_strict_inequalities_satisfiable(self):
        model = satisfiable([c_lt(var("x") - 1), c_lt(-var("x"))])
        assert model is not None
        assert 0 < model[Var("x")] < 1

    def test_equality_substitution(self):
        model = satisfiable([c_eq(var("x") - var("y") - 1), c_le(var("y") - 3), c_le(const(3) - var("y"))])
        assert model is not None
        assert model[Var("x")] == model[Var("y")] + 1 == 4

    def test_model_satisfies_all_constraints(self):
        constraints = [
            c_le(var("x") + var("y") - 10),
            c_le(const(2) - var("x")),
            c_eq(var("y") - var("x") - 1),
        ]
        model = satisfiable(constraints)
        assert model is not None
        for constraint in constraints:
            value = sum(
                coeff * model.get(v, Fraction(0)) for v, coeff in constraint.expr.terms
            ) + constraint.expr.const
            assert value <= 0 if constraint.rel is Relation.LE else value == 0

    def test_projection_derives_transitive_bound(self):
        # x <= y and y <= 5 projected onto {x} gives x <= 5.
        projected = project([c_le(var("x") - var("y")), c_le(var("y") - 5)], [Var("y")])
        assert projected is not None
        assert any(c.expr == var("x") - const(5) for c in projected)

    def test_projection_of_unsat_system(self):
        assert project([c_le(var("x") - 1), c_le(const(2) - var("x"))], [Var("x")]) is None

    def test_eliminate_variable_via_equality(self):
        reduced, step = eliminate_variable([c_eq(var("x") - var("y")), c_le(var("x") - 3)], Var("x"))
        assert step.definition is not None
        assert any(c.expr == var("y") - const(3) for c in reduced)


class TestSimplex:
    def test_feasible_system(self):
        model = feasible([c_le(var("x") - 5), c_le(const(3) - var("x"))])
        assert model is not None
        assert 3 <= model[Var("x")] <= 5

    def test_infeasible_system(self):
        assert feasible([c_le(var("x") - 1), c_le(const(2) - var("x"))]) is None

    def test_negative_values_allowed(self):
        model = feasible([c_le(var("x") + 5), c_le(const(-10) - var("x"))])
        assert model is not None
        assert model[Var("x")] <= -5

    def test_equalities(self):
        model = feasible([c_eq(var("x") + var("y") - 4), c_eq(var("x") - var("y"))])
        assert model is not None
        assert model[Var("x")] == model[Var("y")] == 2

    def test_strict_inequalities(self):
        model = feasible([c_lt(var("x") - 1), c_lt(-var("x"))])
        assert model is not None
        assert 0 < model[Var("x")] < 1
        assert feasible([c_lt(var("x")), c_lt(-var("x"))]) is None

    def test_pop_undoes_bounds_and_conflicts(self):
        simplex = IncrementalSimplex()
        assert simplex.assert_constraint(var("x") - 1, Relation.LE)
        simplex.push()
        assert not simplex.assert_constraint(const(2) - var("x"), Relation.LE)
        assert not simplex.check()
        simplex.pop()
        assert simplex.check()
        assert simplex.model()[Var("x")] <= 1

    def test_tableau_rows_survive_pop(self):
        simplex = IncrementalSimplex()
        simplex.push()
        simplex.assert_constraint(var("x") + var("y") - 3, Relation.LE)
        simplex.pop()
        simplex.assert_constraint(const(1) - var("x") - var("y"), Relation.LE)
        assert simplex.check()
        assert (simplex.num_slack_vars, simplex.num_slack_reuses) == (1, 1)

    def test_rejects_disequality(self):
        with pytest.raises(ValueError):
            IncrementalSimplex().assert_constraint(var("x"), Relation.NE)


# ----------------------------------------------------------------------
# Property: Fourier–Motzkin and the incremental simplex agree on
# feasibility, every simplex model is a real witness, and no number the
# engines hand out is a float or an integral Fraction.  Coefficients and
# constants include non-integral fractions, so the simplex sees non-unit
# pivots and fractional bounds.
# ----------------------------------------------------------------------
var_names = st.sampled_from(["x", "y", "z"])


def rationals(bound):
    fractions = st.builds(Fraction, st.integers(-2 * bound, 2 * bound), st.integers(2, 3))
    return st.one_of(st.integers(-bound, bound), fractions)


@st.composite
def random_constraints(draw):
    constraints = []
    for _ in range(draw(st.integers(1, 6))):
        expr = const(draw(rationals(6)))
        for name in ["x", "y", "z"]:
            expr = expr + var(name) * draw(rationals(3))
        rel = draw(st.sampled_from([Relation.LE, Relation.LT, Relation.EQ]))
        constraints.append(LinConstraint(expr, rel))
    return constraints


@given(random_constraints())
@settings(max_examples=60, deadline=None)
def test_fm_and_simplex_agree(constraints):
    fm_model = satisfiable(constraints)
    simplex_model = feasible(constraints)
    assert (fm_model is None) == (simplex_model is None)
    if simplex_model is not None:
        assert all(satisfied(constraint, simplex_model) for constraint in constraints)
        assert all(canonical(value) for value in simplex_model.values())
    for constraint in constraints:
        normal = normalize_constraint(constraint).expr
        assert all(canonical(coeff) for _, coeff in normal.terms)
        assert canonical(normal.const)


@given(random_constraints())
@settings(max_examples=60, deadline=None)
def test_fm_model_is_a_real_witness(constraints):
    model = satisfiable(constraints)
    if model is None:
        return
    for constraint in constraints:
        value = sum(
            coeff * model.get(v, Fraction(0)) for v, coeff in constraint.expr.terms
        ) + constraint.expr.const
        if constraint.rel is Relation.LE:
            assert value <= 0
        elif constraint.rel is Relation.LT:
            assert value < 0
        else:
            assert value == 0


# ----------------------------------------------------------------------
# Property: the simplex tracks every basic variable that violates a bound,
# so picking Bland's variable from the tracked set makes the pivots a scan
# of every row makes.  The reference is the same sequence with the set
# forced to all rows before each check.
# ----------------------------------------------------------------------
#: Forms a sequence re-asserts with other bounds: single variables (bounds
#: on a nonbasic variable move its rows' values) and slack forms (after a
#: pivot, bounds on a nonbasic slack do the same).
FORMS = [
    var("x"), var("y"), var("z"), var("x") + var("y"), var("x") - var("y"),
    var("y") + 2 * var("z"), var("x") + var("y") + var("z"),
]


@st.composite
def random_constraint(draw):
    if draw(st.integers(0, 3)):
        expr = draw(st.sampled_from(FORMS)) * draw(st.sampled_from([1, -1, 2, -3]))
    else:
        expr = const(0)
        for name in ["x", "y", "z"]:
            expr = expr + var(name) * draw(rationals(3))
    expr = expr + const(draw(rationals(6)))
    return LinConstraint(expr, draw(st.sampled_from([Relation.LE, Relation.LT, Relation.EQ])))


simplex_operations = st.lists(
    st.one_of(
        st.tuples(st.just("assert"), random_constraint()),
        st.just(("push",)),
        st.just(("pop",)),
        st.just(("check",)),
    ),
    max_size=30,
)


def violated_rows(simplex):
    """Basic variables whose value is outside a bound, by a full scan."""
    violated = set()
    for basic in simplex._rows:
        value = simplex._values[basic]
        low, up = simplex._lower.get(basic), simplex._upper.get(basic)
        if (low is not None and value < low) or (up is not None and value > up):
            violated.add(basic)
    return violated


def _ops(*constraints):
    return [("assert", constraint) for constraint in constraints]


@given(simplex_operations)
@settings(max_examples=200, deadline=None)
# A bound that moves a nonbasic x moves the row x + y past its bound.
@example(_ops(c_le(var("x") + var("y") - 3), c_le(const(5) - var("x"))))
# Raising x + y to 5 pivots x in past its own bound x <= 1 ...
@example(_ops(c_le(var("x") - 1), c_le(const(5) - var("x") - var("y"))))
# ... or past the bound of another row mentioning it, x - y <= 0.
@example(_ops(c_le(const(5) - var("x") - var("y")), c_le(var("x") - var("y"))))
def test_tracked_violations_make_the_full_scan_pivots(operations):
    tracked, reference = IncrementalSimplex(), IncrementalSimplex()
    depth = 0
    for operation in [*operations, ("check",)]:
        if operation[0] == "assert":
            expr, rel = operation[1].expr, operation[1].rel
            assert tracked.assert_constraint(expr, rel) == reference.assert_constraint(
                expr, rel
            )
        elif operation[0] == "push":
            tracked.push()
            reference.push()
            depth += 1
        elif operation[0] == "pop" and depth:
            tracked.pop()
            reference.pop()
            depth -= 1
        elif operation[0] == "check":
            reference._violated = set(reference._rows)
            verdict = tracked.check()
            assert verdict == reference.check()
            if verdict:
                assert tracked.model() == reference.model()
        # A sticky conflict fails every check until its pop restores the
        # bounds, so the set has to be complete only outside one.
        if not tracked._conflict:
            assert violated_rows(tracked) <= tracked._violated
