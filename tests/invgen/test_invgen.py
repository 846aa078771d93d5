"""Tests for cutsets, postconditions, candidates, invariant maps and synthesis."""

import pytest

from repro.invgen import (
    FarkasEngine,
    InvariantMap,
    PathInvariantSynthesizer,
    TemplateConjunction,
    basic_paths,
    check_invariant_map,
    collect_array_facts,
    cutpoints,
    equality_template,
    mine_linear_candidates,
    quantified_candidates,
    strongest_post,
    strongest_post_path,
)
from repro.invgen.postcond import forall_range, make_range_forall
from repro.invgen.templates import LinearTemplate
from repro.core.pathprogram import build_path_program
from repro.core.predabs import Art, Precision
from repro.lang import get_program
from repro.lang.commands import ArrayAssign, Assign, Assume
from repro.logic.formulas import Forall, Relation, conjoin, conjuncts, eq, ge, le, lt
from repro.logic.terms import Var, const, read, var
from repro.smt.vcgen import VcChecker


def error_path(program, max_refinements=0):
    """The first abstract counterexample of a program (no predicates)."""
    outcome = Art(program, VcChecker()).explore(Precision(), 4000)
    assert outcome.counterexample is not None
    return outcome.counterexample


class TestCutset:
    def test_forward_cutpoints(self):
        program = get_program("forward")
        cuts = cutpoints(program)
        assert len(cuts) == 1

    def test_basic_paths_cover_error(self):
        program = get_program("forward")
        paths = basic_paths(program)
        assert any(p.target == program.error for p in paths)
        assert all(p.transitions for p in paths)

    def test_basic_paths_have_no_interior_cutpoints(self):
        program = get_program("initcheck")
        cuts = cutpoints(program)
        for path in basic_paths(program):
            for transition in path.transitions[:-1]:
                assert transition.target not in cuts


class TestStrongestPost:
    def test_assume(self):
        post = strongest_post(ge(var("x"), 0), Assume(lt(var("x"), var("n"))))
        assert set(conjuncts(post)) == {ge(var("x"), 0), lt(var("x"), var("n"))}

    def test_assignment_shifts_bound(self):
        post = strongest_post(ge(var("x"), 0), Assign("x", var("x") + const(1)))
        checker = VcChecker()
        assert checker.check_entailment(post, ge(var("x"), 1))

    def test_assignment_keeps_unrelated(self):
        post = strongest_post(ge(var("y"), 3), Assign("x", const(0)))
        checker = VcChecker()
        assert checker.check_entailment(post, ge(var("y"), 3))
        assert checker.check_entailment(post, eq(var("x"), 0))

    def test_quantified_range_rewrite_at_loop_exit(self):
        # forall k in [0, i-1]: a[k] = 0  with i >= n, then i := 0
        inv = make_range_forall(Var("k"), const(0), var("i") - const(1), eq(read("a", var("k")), 0))
        pre = conjoin([inv, ge(var("i"), var("n"))])
        post = strongest_post_path(pre, [Assign("i", const(0))])
        checker = VcChecker()
        target = make_range_forall(Var("k"), const(0), var("n") - const(1), eq(read("a", var("k")), 0))
        assert checker.check_entailment(post, target)

    def test_forall_range_roundtrip(self):
        inv = make_range_forall(Var("k"), const(0), var("n") - const(1), eq(read("a", var("k")), 0))
        lower, upper, body = forall_range(inv)
        assert lower == const(0)
        assert upper == var("n") - const(1)
        assert body == eq(read("a", var("k")), 0)

    def test_assignment_from_array_read_acts_as_havoc(self):
        # Fuzz regression (tests/corpus/batched-seed1000045.c): ``x = a[6]``
        # used to feed the non-linear RHS into LinConstraint and crash; the
        # sound treatment is to havoc the target and keep the rest.
        pre = conjoin([ge(var("x"), 0), ge(var("y"), 3)])
        post = strongest_post(pre, Assign("x", read("a", const(6))))
        assert set(conjuncts(post)) == {ge(var("y"), 3)}

    def test_array_write_drops_only_affected(self):
        pre = conjoin([ge(var("x"), 0), eq(read("b", var("j")), 1)])
        post = strongest_post(pre, ArrayAssign("a", var("i"), const(0)))
        checker = VcChecker()
        assert checker.check_entailment(post, ge(var("x"), 0))
        assert checker.check_entailment(post, eq(read("b", var("j")), 1))


class TestCandidates:
    def test_linear_candidates_include_substituted_assertion(self):
        program = get_program("forward")
        path = error_path(program)
        path_program = build_path_program(program, path).program
        candidates = mine_linear_candidates(path_program)
        # The paper's heuristic: a+b = 3n with n replaced by i.
        target = eq(var("a") + var("b"), var("i") * 3)
        from repro.logic.simplify import normalize_atom

        assert normalize_atom(target) in candidates

    def test_array_facts_for_initcheck(self):
        program = get_program("initcheck")
        facts = collect_array_facts(program)
        assert "a" in facts
        assert ("eq", const(0)) in facts["a"].body_candidates
        assert Var("i") in facts["a"].write_index_vars

    def test_quantified_candidates_contain_init_invariant(self):
        program = get_program("initcheck")
        candidates = quantified_candidates(program)
        target = make_range_forall(
            Var("__k"), const(0), var("i") - const(1), eq(read("a", var("__k")), 0)
        )
        assert target in candidates

    def test_no_quantified_candidates_without_arrays(self):
        program = get_program("forward")
        assert quantified_candidates(program) == []


class TestInvariantMap:
    def test_paper_forward_map_is_valid(self):
        """The invariant map of Section 5 for FORWARD (all locations filled in)."""
        program = get_program("forward")
        head = next(iter(program.loop_heads()))
        coupling = eq(var("a") + var("b"), var("i") * 3)
        bound = le(var("a") + var("b"), var("n") * 3)
        mapping = InvariantMap(program)
        mapping.set(head, conjoin([coupling, bound]))
        # Location just before the assertion: a + b = 3n.
        pre_assert = program.incoming(program.error)[0].source
        mapping.set(pre_assert, eq(var("a") + var("b"), var("n") * 3))
        # Intermediate locations of the loop body (branch point and join).
        branch_point = next(
            t.target for t in program.outgoing(head) if t.target != pre_assert
        )
        mapping.set(branch_point, conjoin([coupling, lt(var("i"), var("n"))]))
        join = next(l for l in program.predecessors(head) if l != program.initial)
        mapping.set(
            join,
            conjoin(
                [
                    eq(var("a") + var("b"), var("i") * 3 + const(3)),
                    lt(var("i"), var("n")),
                ]
            ),
        )
        result = check_invariant_map(mapping)
        assert result.ok, result.failures

    def test_wrong_map_is_rejected(self):
        program = get_program("forward")
        head = next(iter(program.loop_heads()))
        mapping = InvariantMap(program)
        mapping.set(head, eq(var("a") + var("b"), var("n") * 3))  # not inductive
        assert not check_invariant_map(mapping).ok


class TestFarkasEngine:
    """Reproduces the Section 5 FORWARD experiment (see also bench E2)."""

    def _path_program(self):
        program = get_program("forward")
        # Obtain the looping counterexample: refine once with the baseline to
        # remove the loop-free spurious path first.
        from repro.core.refiners import PathFormulaRefiner

        precision = Precision()
        checker = VcChecker()
        for _ in range(4):
            outcome = Art(program, checker).explore(precision, 4000)
            assert outcome.counterexample is not None
            path = outcome.counterexample
            visited = [path[0].source] + [t.target for t in path]
            if len(set(visited)) < len(visited):
                return build_path_program(program, path).program
            PathFormulaRefiner().refine(program, path, precision)
        raise AssertionError("no looping counterexample found")

    def test_equality_template_alone_fails(self):
        path_program = self._path_program()
        engine = FarkasEngine()
        variables = [Var(n) for n in ("a", "b", "i", "n")]
        template = {
            cut: equality_template(variables, f"c{k}")
            for k, cut in enumerate(sorted(cutpoints(path_program)))
        }
        result = engine.synthesize(path_program, template)
        assert not result.success

    def test_refined_template_succeeds(self):
        path_program = self._path_program()
        engine = FarkasEngine()
        variables = [Var(n) for n in ("a", "b", "i", "n")]
        template = {
            cut: equality_template(variables, f"c{k}").with_extra_inequality(variables, f"d{k}")
            for k, cut in enumerate(sorted(cutpoints(path_program)))
        }
        result = engine.synthesize(path_program, template)
        assert result.success
        checker = VcChecker()
        for cut, formula in result.assertions.items():
            assert checker.check_entailment(formula, eq(var("a") + var("b"), var("i") * 3))

    def test_answer_does_not_depend_on_earlier_calls(self):
        # Each synthesize solves on a fresh LP, so an engine that already
        # solved the equality-only template answers the refined one exactly
        # as a fresh engine does.
        path_program = self._path_program()
        variables = [Var(n) for n in ("a", "b", "i", "n")]
        cuts = sorted(cutpoints(path_program))
        equalities = {c: equality_template(variables, f"c{k}") for k, c in enumerate(cuts)}
        refined = {
            c: equality_template(variables, f"c{k}").with_extra_inequality(variables, f"d{k}")
            for k, c in enumerate(cuts)
        }
        used = FarkasEngine()
        used.synthesize(path_program, equalities)
        again = used.synthesize(path_program, refined)
        fresh = FarkasEngine().synthesize(path_program, refined)
        assert again.success and fresh.success
        assert again.assertions == fresh.assertions

    def test_phase_one_builds_its_lp_system_once(self, monkeypatch):
        # Phase one solves one LP per normalisation (here one per variable
        # of the template), all over the same initiation/consecution system.
        path_program = self._path_program()
        builds = []
        build = FarkasEngine._equality_systems

        def counting_build(engine, obligations, eq_map):
            builds.append(eq_map)
            return build(engine, obligations, eq_map)

        monkeypatch.setattr(FarkasEngine, "_equality_systems", counting_build)
        variables = [Var(n) for n in ("a", "b", "i", "n")]
        template = {
            cut: equality_template(variables, f"c{k}")
            for k, cut in enumerate(sorted(cutpoints(path_program)))
        }
        result = FarkasEngine().synthesize(path_program, template)
        assert result.lp_calls == len(variables) * len(template)
        assert len(builds) == 1


class TestTemplateNames:
    def test_second_run_interns_no_new_terms(self):
        # Template parameters are named per synthesis (c0, c1, ...), so a
        # rerun builds only terms the first run already interned.
        from repro import Session
        from repro.lang.programs import PROGRAMS
        from repro.logic.terms import LinExpr

        source = PROGRAMS["forward"].source
        Session().run(source, name="forward")
        before = (len(Var._intern), len(LinExpr._intern))
        result = Session().run(source, name="forward")
        assert result.is_safe
        assert (len(Var._intern), len(LinExpr._intern)) == before

    def test_template_names_are_the_callers(self):
        variables = [Var("x"), Var("y")]
        template = equality_template(variables, "c0").with_extra_inequality(variables, "d0")
        assert [t.name for t in template.conjuncts] == ["c0", "d0"]
        assert template.parameters() == [
            Var("c0$x"), Var("c0$y"), Var("c0$const"), Var("d0$x"), Var("d0$y"), Var("d0$const")
        ]


class TestSynthesizer:
    def test_initcheck_path_invariant(self):
        program = get_program("initcheck")
        # Drive the ART to the counterexample that goes through both loops.
        checker = VcChecker()
        precision = Precision()
        from repro.core.refiners import PathInvariantRefiner

        refiner = PathInvariantRefiner(checker)
        outcome = Art(program, checker).explore(precision, 4000)
        refiner.refine(program, outcome.counterexample, precision)
        outcome = Art(program, checker).explore(precision, 4000)
        path_program = build_path_program(program, outcome.counterexample)
        synthesizer = PathInvariantSynthesizer(checker)
        result = synthesizer.synthesize(path_program.program)
        assert result.success
        assert any(
            formula.has_quantifier() for formula in result.cutpoint_assertions.values()
        )
