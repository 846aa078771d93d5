"""Unit and property tests for linear expressions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.terms import (
    ArrayRead,
    LinExpr,
    Var,
    as_rat,
    const,
    exact_div,
    read,
    var,
)


class TestConstruction:
    def test_constant(self):
        expr = const(5)
        assert expr.is_constant()
        assert expr.constant_value() == 5

    def test_variable(self):
        expr = var("x")
        assert expr.coeff(Var("x")) == 1
        assert not expr.is_constant()

    def test_make_drops_zero_coefficients(self):
        expr = LinExpr.make({Var("x"): 0, Var("y"): 2})
        assert expr.atoms() == (Var("y"),)

    def test_as_rat_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rat(1.5)

    def test_as_rat_makes_integral_values_ints(self):
        assert type(as_rat(Fraction(6, 3))) is int and as_rat(Fraction(6, 3)) == 2
        assert type(as_rat(True)) is int
        assert as_rat(Fraction(1, 3)) == Fraction(1, 3)

    def test_make_yields_int_coefficients_for_integral_input(self):
        expr = LinExpr.make({Var("x"): Fraction(4, 2), Var("y"): 3}, Fraction(10, 5))
        assert [type(c) for _, c in expr.terms] == [int, int]
        assert type(expr.const) is int and expr.const == 2
        half = LinExpr.make({Var("x"): Fraction(1, 2)}).scale(4)
        assert type(half.coeff(Var("x"))) is int

    def test_exact_div_is_an_int_when_integral(self):
        assert type(exact_div(6, 3)) is int and exact_div(6, 3) == 2
        assert type(exact_div(-7, 7)) is int
        assert type(exact_div(Fraction(1, 2), Fraction(1, 4))) is int
        assert exact_div(1, -2) == Fraction(-1, 2)
        assert exact_div(Fraction(3, 2), 3) == Fraction(1, 2)

    def test_exact_div_rejects_floats_and_zero(self):
        with pytest.raises(TypeError):
            exact_div(1.5, 3)
        with pytest.raises(ZeroDivisionError):
            exact_div(1, 0)
        with pytest.raises(ZeroDivisionError):
            exact_div(Fraction(1, 2), 0)

    def test_array_read_shorthand(self):
        expr = read("a", "i")
        reads = expr.array_reads()
        assert len(reads) == 1
        assert next(iter(reads)).array == "a"

    def test_canonical_equality(self):
        left = var("x") + var("y")
        right = var("y") + var("x")
        assert left == right
        assert hash(left) == hash(right)


class TestArithmetic:
    def test_addition(self):
        expr = var("x") + var("x") + const(3)
        assert expr.coeff(Var("x")) == 2
        assert expr.const == 3

    def test_subtraction_cancels(self):
        expr = var("x") - var("x")
        assert expr.is_constant()
        assert expr.const == 0

    def test_scaling(self):
        expr = (var("x") + const(1)).scale(Fraction(3, 2))
        assert expr.coeff(Var("x")) == Fraction(3, 2)
        assert expr.const == Fraction(3, 2)

    def test_negation(self):
        expr = -(var("x") - const(2))
        assert expr.coeff(Var("x")) == -1
        assert expr.const == 2

    def test_mixed_int_operands(self):
        expr = 2 + var("x") * 3 - 1
        assert expr.coeff(Var("x")) == 3
        assert expr.const == 1


class TestSubstitution:
    def test_substitute_variable(self):
        expr = var("x") + var("y")
        result = expr.substitute({Var("x"): var("y") + const(1)})
        assert result.coeff(Var("y")) == 2
        assert result.const == 1

    def test_substitute_inside_array_index(self):
        expr = read("a", var("i"))
        result = expr.substitute({Var("i"): var("j") + const(1)})
        index = next(iter(result.array_reads())).index
        assert index == var("j") + const(1)

    def test_substitute_reads(self):
        expr = read("a", var("i")) + const(1)
        the_read = next(iter(expr.array_reads()))
        result = expr.substitute_reads({the_read: const(7)})
        assert result.is_constant()
        assert result.const == 8

    def test_rename_variables_and_arrays(self):
        expr = read("a", var("i")) + var("n")
        renamed = expr.rename({"a": "a@1", "i": "i@2", "n": "n@0"})
        assert renamed.variables() == {Var("i@2"), Var("n@0")}
        assert renamed.arrays() == {"a@1"}

    def test_primed(self):
        expr = var("x") + read("a", var("i"))
        primed = expr.primed()
        assert Var("x'") in primed.variables()
        assert "a'" in primed.arrays()


class TestEvaluation:
    def test_evaluate_scalar(self):
        expr = var("x") * 2 + const(1)
        assert expr.evaluate({Var("x"): 3}) == 7

    def test_evaluate_missing_raises(self):
        with pytest.raises(KeyError):
            var("x").evaluate({})

    def test_variables_includes_index_vars(self):
        expr = read("a", var("i") + var("j"))
        assert expr.variables() == {Var("i"), Var("j")}


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
names = st.sampled_from(["x", "y", "z", "w"])
coeffs = st.integers(min_value=-5, max_value=5)


@st.composite
def linexprs(draw):
    pairs = draw(st.lists(st.tuples(names, coeffs), max_size=4))
    constant = draw(coeffs)
    expr = const(constant)
    for name, coeff in pairs:
        expr = expr + var(name) * coeff
    return expr


@st.composite
def valuations(draw):
    return {Var(n): Fraction(draw(st.integers(-10, 10))) for n in ["x", "y", "z", "w"]}


@given(linexprs(), linexprs(), valuations())
@settings(max_examples=60, deadline=None)
def test_addition_commutes_with_evaluation(e1, e2, valuation):
    assert (e1 + e2).evaluate(valuation) == e1.evaluate(valuation) + e2.evaluate(valuation)


@given(linexprs(), st.integers(-4, 4), valuations())
@settings(max_examples=60, deadline=None)
def test_scaling_commutes_with_evaluation(expr, factor, valuation):
    assert expr.scale(factor).evaluate(valuation) == factor * expr.evaluate(valuation)


@given(linexprs(), linexprs())
@settings(max_examples=60, deadline=None)
def test_addition_is_commutative(e1, e2):
    assert e1 + e2 == e2 + e1


@given(linexprs())
@settings(max_examples=60, deadline=None)
def test_subtracting_self_gives_zero(expr):
    assert (expr - expr) == const(0)


@given(linexprs(), valuations())
@settings(max_examples=60, deadline=None)
def test_substitution_matches_evaluation(expr, valuation):
    # Substituting constants for all variables must agree with evaluation.
    substitution = {v: const(valuation[v]) for v in expr.variables()}
    substituted = expr.substitute(substitution)
    assert substituted.is_constant()
    assert substituted.const == expr.evaluate(valuation)
