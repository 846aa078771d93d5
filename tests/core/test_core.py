"""Tests for path programs, predicate abstraction and the CEGAR loop."""

import pytest

from repro.core import (
    Art,
    ArtNode,
    ErrorDistanceFrontier,
    PathFormulaRefiner,
    PathInvariantRefiner,
    Precision,
    Verdict,
    VerifierOptions,
    analyze_counterexample,
    build_path_program,
    nested_blocks,
    verify,
)
from repro.core.predabs import split_frame_predicates
from repro.lang import Location, Program, Transition, get_program, program_from_source
from repro.lang.commands import Assign, Assume, Skip
from repro.logic.formulas import eq, ge, le, lt
from repro.logic.terms import const, var
from repro.smt.vcgen import VcChecker


# ----------------------------------------------------------------------
# Nested blocks and path-program construction (Figure 4 of the paper)
# ----------------------------------------------------------------------
def figure4_program_and_path():
    """The two-nested-loops example of Section 3 / Figure 4."""
    l0, l1, l2, err = (Location(n) for n in ("l0", "l1", "l2", "lE"))
    rho = [Assume(ge(var("x"), 0))]
    t01 = Transition(l0, tuple(rho), l1)        # rho0
    t12 = Transition(l1, (Skip(),), l2)         # rho1
    t21 = Transition(l2, (Skip(),), l1)         # rho2
    t10 = Transition(l1, (Skip(),), l0)         # rho3
    t0e = Transition(l0, (Assume(lt(var("x"), 0)),), err)  # rho4
    program = Program(
        name="figure4",
        variables=("x",),
        arrays=(),
        locations=(l0, l1, l2, err),
        initial=l0,
        error=err,
        transitions=(t01, t12, t21, t10, t0e),
    )
    path = [t01, t12, t21, t10, t01, t10, t0e]
    return program, path


class TestNestedBlocks:
    def test_figure4_blocks(self):
        program, path = figure4_program_and_path()
        locations = [path[0].source] + [t.target for t in path]
        blocks = nested_blocks(locations)
        assert len(blocks) == 2
        outer = next(b for b in blocks if len(b.locations) == 3)
        inner = next(b for b in blocks if len(b.locations) == 2)
        assert {l.name for l in outer.locations} == {"l0", "l1", "l2"}
        assert {l.name for l in inner.locations} == {"l1", "l2"}
        assert outer.end == 6
        assert inner.end == 3

    def test_no_blocks_for_loop_free_path(self):
        program, path = figure4_program_and_path()
        locations = [path[0].source, path[0].target, Location("lE")]
        assert nested_blocks(locations) == []


class TestPathProgram:
    def test_figure4_transition_count(self):
        program, path = figure4_program_and_path()
        path_program = build_path_program(program, path)
        # The paper lists 17 transitions for this example (7 path transitions,
        # 4 bridge transitions and 6 hatted block transitions).
        assert len(path_program.program.transitions) == 17

    def test_origin_mapping(self):
        program, path = figure4_program_and_path()
        path_program = build_path_program(program, path)
        origins = {path_program.origin[l].name for l in path_program.program.locations}
        assert origins == {"l0", "l1", "l2", "lE"}
        assert len(path_program.locations_of(Location("l1"))) >= 3

    def test_path_program_contains_only_path_commands(self):
        program = get_program("forward")
        outcome = Art(program, VcChecker()).explore(Precision(), 4000)
        path_program = build_path_program(program, outcome.counterexample)
        original_commands = {t.commands for t in path_program.path}
        for transition in path_program.program.transitions:
            assert transition.commands in original_commands or transition.commands == (Skip(),)

    def test_loops_create_hatted_copies(self):
        program = get_program("initcheck")
        checker = VcChecker()
        precision = Precision()
        first = Art(program, checker).explore(precision, 4000).counterexample
        PathInvariantRefiner(checker).refine(program, first, precision)
        path = Art(program, checker).explore(precision, 4000).counterexample
        path_program = build_path_program(program, path)
        assert any(l.name.endswith("^") for l in path_program.program.locations)
        assert path_program.program.loop_heads()


class TestPrecisionAndReachability:
    def test_precision_add_and_dedupe(self):
        precision = Precision()
        location = Location("L1")
        assert precision.add(location, le(var("x"), 1))
        assert not precision.add(location, le(var("x"), 1))
        assert precision.total_predicates() == 1

    def test_reachability_finds_error_without_predicates(self):
        program = get_program("simple_unsafe")
        outcome = Art(program, VcChecker()).explore(Precision(), 4000)
        assert outcome.counterexample is not None

    def test_reachability_proves_with_predicates(self):
        program = get_program("simple_safe")
        precision = Precision()
        # y >= 1 at the location before the assertion
        for transition in program.incoming(program.error):
            precision.add(transition.source, ge(var("y"), 1))
        outcome = Art(program, VcChecker()).explore(precision, 4000)
        assert outcome.is_safe

    def test_counterexample_analysis_feasible(self):
        program = get_program("simple_unsafe")
        outcome = Art(program, VcChecker()).explore(Precision(), 4000)
        analysis = analyze_counterexample(outcome.counterexample)
        assert analysis.feasible
        assert analysis.model is not None

    def test_counterexample_analysis_spurious(self):
        program = get_program("forward")
        outcome = Art(program, VcChecker()).explore(Precision(), 4000)
        assert not analyze_counterexample(outcome.counterexample).feasible


class TestRefiners:
    def test_path_formula_refiner_adds_constants(self):
        program = get_program("forward")
        outcome = Art(program, VcChecker()).explore(Precision(), 4000)
        precision = Precision()
        result = PathFormulaRefiner().refine(program, outcome.counterexample, precision)
        assert result.progress
        predicates = {
            str(p) for loc in precision.locations() for p in precision.predicates_at(loc)
        }
        assert "i = 0" in predicates or "i - 0 = 0" in predicates or "i = 0".replace(" ", "") in {
            p.replace(" ", "") for p in predicates
        }

    def test_path_invariant_refiner_progress(self):
        program = get_program("forward")
        checker = VcChecker()
        precision = Precision()
        outcome = Art(program, checker).explore(precision, 4000)
        result = PathInvariantRefiner(checker).refine(program, outcome.counterexample, precision)
        assert result.progress
        assert result.path_program is not None


class TestVerify:
    """End-to-end CEGAR runs on the fast members of the suite."""

    def test_simple_safe(self):
        assert verify(get_program("simple_safe")).verdict == Verdict.SAFE

    def test_simple_unsafe(self):
        result = verify(get_program("simple_unsafe"))
        assert result.verdict == Verdict.UNSAFE
        assert result.counterexample is not None

    def test_diamond_safe(self):
        assert verify(get_program("diamond_safe")).verdict == Verdict.SAFE

    def test_verify_from_source(self):
        source = "void f(int x) { assume(x >= 2); assert(x >= 1); }"
        assert verify(source).verdict == Verdict.SAFE

    def test_unknown_refiner_rejected(self):
        with pytest.raises(ValueError):
            verify(get_program("simple_safe"), refiner="no-such-refiner")

    @pytest.mark.slow
    def test_forward_is_proved_with_path_invariants(self):
        result = verify(get_program("forward"), options=VerifierOptions(max_refinements=4))
        assert result.verdict == Verdict.SAFE

    @pytest.mark.slow
    def test_forward_baseline_keeps_unrolling(self):
        result = verify(
            get_program("forward"),
            options=VerifierOptions(refiner="path-formula", max_refinements=4),
        )
        assert result.verdict == Verdict.UNKNOWN
        lengths = [r.counterexample_length for r in result.iterations if r.counterexample_length]
        assert lengths[-1] > lengths[0]

    @pytest.mark.slow
    def test_lock_step(self):
        options = VerifierOptions(max_refinements=4)
        assert verify(get_program("lock_step"), options=options).verdict == Verdict.SAFE

    @pytest.mark.slow
    def test_array_init_buggy_is_unsafe(self):
        result = verify(get_program("array_init_buggy"), options=VerifierOptions(max_refinements=4))
        assert result.verdict == Verdict.UNSAFE

    @pytest.mark.parametrize(
        "expected,verdicts",
        [(4, {Verdict.UNSAFE}), (5, {Verdict.SAFE, Verdict.UNKNOWN})],
    )
    def test_read_at_an_index_read_from_a_written_array(self, expected, verdicts):
        source = (
            "void f(int a[]) { a[0] = 1; a[1] = 5; "
            f"assert(a[a[0]] == {expected}); }}"
        )
        result = verify(source, options=VerifierOptions(max_refinements=4))
        assert result.verdict in verdicts, result.reason


# ----------------------------------------------------------------------
# Exploration order and the frame rule
# ----------------------------------------------------------------------
class TestDeterministicTieBreak:
    def test_equal_rank_pops_by_node_id(self):
        program = get_program("forward")
        frontier = ErrorDistanceFrontier(program)
        location = program.initial
        transition = next(
            t for t in program.transitions if t.source == location
        )
        # Push equal-rank obligations in scrambled node-id order; pops must
        # come back in stable node-id order, not insertion order.
        nodes = {
            node_id: ArtNode(location, frozenset(), node_id=node_id)
            for node_id in (7, 2, 9, 4)
        }
        for node_id in (7, 2, 9, 4):
            frontier.push(nodes[node_id], transition)
        popped = []
        while True:
            entry = frontier.pop()
            if entry is None:
                break
            popped.append(entry[0].node_id)
        assert popped == [2, 4, 7, 9]

    def test_same_node_keeps_push_order(self):
        # The counter stays as the final tie-break: one node's multiple
        # outgoing transitions pop in CFG declaration order.
        program = get_program("diamond_safe")
        frontier = ErrorDistanceFrontier(program)
        node = ArtNode(program.initial, frozenset(), node_id=5)
        outgoing = [t for t in program.transitions if t.source == program.initial]
        same_rank = [
            t for t in outgoing
            if frontier._distance.get(t.target)
            == frontier._distance.get(outgoing[0].target)
        ]
        for transition in same_rank:
            frontier.push(node, transition)
        popped = []
        while len(frontier):
            popped.append(frontier.pop()[1])
        assert popped == same_rank


class TestFramePredicateSplit:
    def test_matches_inline_filter(self):
        program = get_program("forward")
        transition = program.transitions[0]
        carried, undecided = split_frame_predicates(
            frozenset(), transition, []
        )
        assert carried == [] and undecided == []
