"""Tests for normal forms, fresh names and simplification."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.formulas import (
    FALSE,
    TRUE,
    Atom,
    Forall,
    Not,
    Relation,
    conjoin,
    disjoin,
    eq,
    le,
    lt,
    negate,
)
from repro.logic.simplify import normalize_atom, simplify
from repro.logic.terms import Var, const, read, var
from repro.logic.transform import FreshNames, dnf_cubes, quantifier_free, to_dnf, to_nnf


class TestFreshNames:
    def test_fresh_names_are_distinct(self):
        fresh = FreshNames("t")
        names = {fresh.fresh_name() for _ in range(50)}
        assert len(names) == 50

    def test_fresh_names_contain_marker(self):
        assert "#" in FreshNames().fresh_name("hint")


class TestNnfDnf:
    def test_nnf_pushes_negation(self):
        a, b = le(var("x"), 1), le(var("y"), 2)
        nnf = to_nnf(Not(conjoin([a, b])))
        assert not _contains_not(nnf)

    def test_dnf_cube_count(self):
        a, b, c, d = (le(var(n), 1) for n in "xyzw")
        formula = conjoin([disjoin([a, b]), disjoin([c, d])])
        assert len(dnf_cubes(formula)) == 4

    def test_dnf_of_atom(self):
        atom = le(var("x"), 1)
        assert dnf_cubes(atom) == [(atom,)]

    def test_dnf_of_true_and_false(self):
        assert dnf_cubes(TRUE) == [()]
        assert dnf_cubes(FALSE) == []

    def test_quantifier_free_detection(self):
        plain = le(var("x"), 1)
        quantified = Forall(Var("k"), eq(read("a", var("k")), 0))
        assert quantifier_free(plain)
        assert not quantifier_free(conjoin([plain, quantified]))
        assert not quantifier_free(Not(quantified))


def _contains_not(formula):
    from repro.logic.formulas import And, Or

    if isinstance(formula, Not):
        return True
    if isinstance(formula, (And, Or)):
        return any(_contains_not(arg) for arg in formula.args)
    return False


class TestSimplify:
    def test_normalize_scales_to_integers(self):
        atom = Atom(var("x") * Fraction(2, 3) + const(Fraction(4, 3)), Relation.LE)
        normalised = normalize_atom(atom)
        assert normalised == Atom(var("x") + const(2), Relation.LE)

    def test_normalize_constant_atom(self):
        assert normalize_atom(le(const(1), 2)) == TRUE
        assert normalize_atom(le(const(3), 2)) == FALSE

    def test_simplify_drops_weaker_bound(self):
        tight = le(var("x"), 1)
        loose = le(var("x"), 5)
        result = simplify(conjoin([tight, loose]))
        assert result == tight

    def test_simplify_keeps_independent_conjuncts(self):
        a = le(var("x"), 1)
        b = le(var("y"), 1)
        assert set(simplify(conjoin([a, b])).args) == {a, b}

    def test_simplify_recurses_into_forall(self):
        body = conjoin([le(const(0), 1), eq(read("a", var("k")), 0)])
        formula = Forall(Var("k"), body)
        simplified = simplify(formula)
        assert isinstance(simplified, Forall)
        assert simplified.body == eq(read("a", var("k")), 0)


names = st.sampled_from(["x", "y"])


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        expr = var(draw(names)) * draw(st.integers(-2, 2)) + const(draw(st.integers(-2, 2)))
        rel = draw(st.sampled_from([Relation.LE, Relation.LT, Relation.EQ]))
        return Atom(expr, rel)
    kind = draw(st.sampled_from(["atom", "and", "or", "not"]))
    if kind == "atom":
        return draw(formulas(depth=0))
    if kind == "not":
        return Not(draw(formulas(depth=depth - 1)))
    parts = draw(st.lists(formulas(depth=depth - 1), min_size=1, max_size=3))
    return conjoin(parts) if kind == "and" else disjoin(parts)


@st.composite
def full_valuations(draw):
    return {Var(n): Fraction(draw(st.integers(-4, 4))) for n in ["x", "y"]}


@given(formulas(), full_valuations())
@settings(max_examples=80, deadline=None)
def test_nnf_preserves_semantics(formula, valuation):
    assert to_nnf(formula).evaluate(valuation) == formula.evaluate(valuation)


@given(formulas(), full_valuations())
@settings(max_examples=80, deadline=None)
def test_dnf_preserves_semantics(formula, valuation):
    assert to_dnf(formula).evaluate(valuation) == formula.evaluate(valuation)


@given(formulas(), full_valuations())
@settings(max_examples=80, deadline=None)
def test_simplify_preserves_semantics(formula, valuation):
    assert simplify(formula).evaluate(valuation) == formula.evaluate(valuation)


@st.composite
def rational_atoms(draw):
    """An atom over x, y with rational coefficients and at least one
    variable."""
    value = st.fractions(-6, 6, max_denominator=4)
    expr = const(draw(value))
    for name in ("x", "y"):
        expr = expr + var(name) * draw(value)
    expr = expr + var(draw(names)) * draw(
        st.fractions(Fraction(1, 4), 6, max_denominator=4)
    )
    rel = draw(st.sampled_from([Relation.LE, Relation.LT, Relation.EQ]))
    return Atom(expr, rel)


@given(rational_atoms(), st.fractions(Fraction(1, 6), 6, max_denominator=6))
@settings(max_examples=80, deadline=None)
def test_normalize_is_a_positive_multiple_with_coprime_integers(atom, factor):
    """Every positive multiple of an atom normalises to one representative:
    the atom scaled by a positive factor to coprime integer coefficients."""
    normalised = normalize_atom(atom)
    assert normalize_atom(Atom(atom.expr * factor, atom.rel)) == normalised
    if atom.expr.is_constant():
        return
    assert normalised.rel is atom.rel
    name, coeff = atom.expr.terms[0]
    ratio = Fraction(normalised.expr.coeff(name)) / coeff
    assert ratio > 0
    assert normalised.expr == atom.expr * ratio
    values = [coeff for _, coeff in normalised.expr.terms] + [normalised.expr.const]
    assert all(Fraction(value).denominator == 1 for value in values)
    assert math.gcd(*(int(value) for value in values)) == 1
