"""Tests for store resolution, quantifier handling and the VC checker."""

import pytest

from repro.lang.commands import ArrayAssign, Assign, Assume, Havoc, Skip
from repro.logic.formulas import (
    FALSE,
    TRUE,
    Forall,
    conjoin,
    disjoin,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)
from repro.logic.terms import Var, const, read, var
from repro.logic.transform import FreshNames
from repro.smt.arrays import Store, ground_reads, resolve_stores
from repro.smt.quant import (
    arrays_under_quantifier,
    instantiate_positive,
    skolemize_negative,
)
from repro.smt.solver import SmtSolver
from repro.smt.ssa import ssa_translate, versioned
from repro.smt.vcgen import VcChecker


def range_forall(index, lower, upper, body):
    """forall index: lower <= index <= upper -> body."""
    k = var(index)
    return Forall(Var(index), disjoin([lt(k, lower), gt(k, upper), body]))


class TestSsa:
    def test_assignment_versions(self):
        translation = ssa_translate([Assign("x", var("x") + const(1)), Assign("x", var("x") + const(1))])
        assert translation.var_versions["x"] == 2
        formulas = [f for _, f in translation.constraints]
        assert eq(var(versioned("x", 1)), var(versioned("x", 0)) + const(1)) in formulas

    def test_assume_uses_current_versions(self):
        translation = ssa_translate([Assign("x", const(0)), Assume(lt(var("x"), var("n")))])
        _, guard = translation.constraints[-1]
        assert Var(versioned("x", 1)) in guard.variables()

    def test_array_store_chain(self):
        translation = ssa_translate(
            [ArrayAssign("a", var("i"), const(0)), ArrayAssign("a", var("j"), const(1))]
        )
        assert translation.array_versions["a"] == 2
        assert versioned("a", 2) in translation.stores
        assert translation.stores[versioned("a", 2)].base == versioned("a", 1)

    def test_havoc_bumps_version_without_constraint(self):
        translation = ssa_translate([Havoc(("x",))])
        assert translation.var_versions["x"] == 1
        assert translation.constraints == []

    def test_skip_is_ignored(self):
        assert ssa_translate([Skip()]).constraints == []


class TestStoreResolution:
    def test_read_of_written_cell(self):
        stores = {"a@1": Store("a@0", var("i"), const(7))}
        formula = eq(read("a@1", var("i")), const(7))
        resolved = resolve_stores(formula, stores)
        solver = SmtSolver()
        # The resolved formula must be valid: either the indices match (value
        # 7) or they do not (but they do, syntactically).
        assert solver.is_sat(resolved)
        assert not solver.is_sat(resolve_stores(eq(read("a@1", var("i")), const(8)), stores))

    def test_read_of_other_cell_falls_through(self):
        stores = {"a@1": Store("a@0", var("i"), const(7))}
        formula = conjoin(
            [ne(var("j"), var("i")), eq(read("a@0", var("j")), 3), ne(read("a@1", var("j")), 3)]
        )
        assert not SmtSolver().is_sat(resolve_stores(formula, stores))

    def test_nested_and_stored_reads_of_written_versions(self):
        # a@2[a@2[0]]: the index itself reads a written version.
        stores = {
            "a@1": Store("a@0", const(0), const(1)),
            "a@2": Store("a@1", const(1), const(5)),
        }
        nested = read("a@2", read("a@2", const(0)))
        solver = SmtSolver()
        assert not solver.is_sat(resolve_stores(ne(nested, const(5)), stores))
        assert solver.is_sat(resolve_stores(eq(nested, const(5)), stores))
        # b@1 = store(b@0, j, a@1[i]): the stored value reads a written version.
        stores = {
            "a@1": Store("a@0", var("i"), const(7)),
            "b@1": Store("b@0", var("j"), read("a@1", var("i"))),
        }
        resolved = resolve_stores(ne(read("b@1", var("j")), const(7)), stores)
        assert not solver.is_sat(resolved)
        assert {r.array for r in ground_reads(resolved)} <= {"a@0", "b@0"}

    def test_ground_reads_skips_quantified(self):
        formula = conjoin(
            [eq(read("a", var("i")), 0), Forall(Var("k"), eq(read("a", var("k")), 0))]
        )
        indices = {r.index for r in ground_reads(formula)}
        assert indices == {var("i")}


class TestQuantifiers:
    def test_skolemize_negative(self):
        formula = range_forall("k", const(0), var("n"), eq(read("a", var("k")), 0))
        from repro.logic.formulas import Not

        skolemized = skolemize_negative(Not(formula), FreshNames("sk"))
        assert not skolemized.has_quantifier()

    def test_arrays_under_quantifier(self):
        formula = range_forall("k", const(0), var("n"), eq(read("a", var("k")), read("b", var("k"))))
        assert arrays_under_quantifier(formula) == {"a", "b"}

    def test_instantiation_at_read_terms(self):
        hypothesis = range_forall("k", const(0), var("n"), eq(read("a", var("k")), 0))
        context = conjoin([hypothesis, ne(read("a", var("i")), 0), le(const(0), var("i"))])
        instantiated = instantiate_positive(context)
        assert not instantiated.has_quantifier()
        assert any(r.index == var("i") for r in instantiated.array_reads())

    def test_instantiation_without_reads_is_sound(self):
        hypothesis = range_forall("k", const(0), var("n"), eq(read("a", var("k")), 0))
        instantiated = instantiate_positive(conjoin([hypothesis, le(var("x"), 0)]))
        assert instantiated == le(var("x"), 0)


class TestVcChecker:
    def setup_method(self):
        self.checker = VcChecker()

    # -- numeric triples -------------------------------------------------
    def test_assignment_triple(self):
        assert self.checker.check_triple(
            ge(var("x"), 0), [Assign("y", var("x") + const(1))], ge(var("y"), 1)
        )

    def test_invalid_triple(self):
        assert not self.checker.check_triple(
            ge(var("x"), 0), [Assign("y", var("x") - const(1))], ge(var("y"), 0)
        )

    def test_assume_strengthens(self):
        assert self.checker.check_triple(
            TRUE, [Assume(ge(var("x"), 5)), Assign("y", var("x"))], ge(var("y"), 5)
        )

    def test_havoc_forgets(self):
        assert not self.checker.check_triple(ge(var("x"), 0), [Havoc(("x",))], ge(var("x"), 0))

    def test_entailment(self):
        assert self.checker.check_entailment(eq(var("x"), 3), le(var("x"), 5))
        assert not self.checker.check_entailment(le(var("x"), 5), eq(var("x"), 3))

    def test_false_postcondition_detects_contradiction(self):
        assert self.checker.check_triple(
            eq(var("x"), 1), [Assume(eq(var("x"), 2))], FALSE
        )

    # -- path feasibility --------------------------------------------------
    def test_feasible_path_with_model(self):
        result = self.checker.is_feasible([Assume(ge(var("x"), 3)), Assign("y", var("x") * 2)])
        assert result.feasible
        assert result.model is not None

    def test_integer_infeasibility(self):
        # The FORWARD counterexample: rationally satisfiable, integer-unsat.
        commands = [
            Assume(ge(var("n"), 0)),
            Assign("i", const(0)),
            Assign("a", const(0)),
            Assign("b", const(0)),
            Assume(lt(var("i"), var("n"))),
            Assign("a", var("a") + const(1)),
            Assign("b", var("b") + const(2)),
            Assign("i", var("i") + const(1)),
            Assume(ge(var("i"), var("n"))),
            Assume(ne(var("a") + var("b"), var("n") * 3)),
        ]
        assert not self.checker.is_feasible(commands).feasible

    # -- array and quantified triples --------------------------------------
    def test_array_write_then_read(self):
        assert self.checker.check_triple(
            TRUE,
            [ArrayAssign("a", var("i"), const(0))],
            eq(read("a", var("i")), 0),
        )

    def test_array_write_preserves_other_cells(self):
        assert self.checker.check_triple(
            conjoin([eq(read("a", var("j")), 5), ne(var("i"), var("j"))]),
            [ArrayAssign("a", var("i"), const(0))],
            eq(read("a", var("j")), 5),
        )

    def test_initcheck_consecution(self):
        inv = range_forall("k", const(0), var("i") - const(1), eq(read("a", var("k")), 0))
        body = [
            Assume(lt(var("i"), var("n"))),
            ArrayAssign("a", var("i"), const(0)),
            Assign("i", var("i") + const(1)),
        ]
        assert self.checker.check_triple(inv, body, inv)

    def test_initcheck_safety(self):
        inv = range_forall("k", var("i"), var("n") - const(1), eq(read("a", var("k")), 0))
        err = [Assume(lt(var("i"), var("n"))), Assume(ne(read("a", var("i")), 0))]
        assert self.checker.check_triple(inv, err, FALSE)
        assert not self.checker.check_triple(TRUE, err, FALSE)

    def test_quantified_consequent_across_loop_exit(self):
        pre = range_forall("k", const(0), var("i") - const(1), eq(read("a", var("k")), 0))
        commands = [Assume(ge(var("i"), var("n"))), Assign("i", const(0))]
        post = range_forall("k", const(0), var("n") - const(1), eq(read("a", var("k")), 0))
        assert self.checker.check_triple(pre, commands, post)

    def test_quantified_inequality_body(self):
        pre = range_forall("k", const(0), var("g") - const(1), ge(read("ge", var("k")), 0))
        err = [Assume(lt(var("i"), var("g"))), Assume(ge(var("i"), const(0))), Assume(lt(read("ge", var("i")), 0))]
        assert self.checker.check_triple(pre, err, FALSE)
