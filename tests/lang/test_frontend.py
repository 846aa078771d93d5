"""Tests for the mini-C front end: lexer, parser, type checker, CFG builder."""

import hashlib
from pathlib import Path

import pytest

from repro.core.api import program_fingerprint
from repro.lang import (
    CfgBuildError,
    ParseError,
    TypeCheckError,
    check_function,
    get_program,
    list_programs,
    parse_expression,
    parse_function,
    program_from_source,
    safe_programs,
    tokenize,
    unsafe_programs,
)
from repro.lang.ast import ArrayAssignStmt, AssertStmt, ForStmt, IfStmt, WhileStmt
from repro.lang.commands import ArrayAssign, Assign, Assume, Havoc
from repro.lang.cfg import condition_to_formula, expr_to_linexpr
from repro.lang.lexer import LexError
from repro.lang.pretty import format_program, program_to_dot
from repro.lang.programs import FORWARD, INITCHECK, PARTITION, PROGRAMS
from repro.logic.formulas import Relation, TRUE
from repro.logic.terms import Var
from repro.testgen import GenConfig, generate_corpus

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
#: The shape of the daemon benchmark's fresh programs
#: (``DAEMON_GEN_CONFIG`` in ``perfbench/workloads.py``).
DAEMON_SHAPE = GenConfig(
    arrays=0, scalars=2, statements=4, max_depth=1, loop_bound=2, loop_density=0.1
)
#: SHA-256 of :func:`front_end_digest` over :func:`pinned_sources`, taken
#: with the front end that scanned symbols with ``str.startswith`` and
#: compacted by rescanning the transition list.  Any change to a token, a
#: transition, its order, a location name or a fingerprint changes it.
PINNED_DIGEST = "14cd9b7f161c3ed611c2eaf8a03318692457ccaffa98b738563730ffa2e41fa0"


class TestLexer:
    def test_tokenize_keywords_and_symbols(self):
        tokens = tokenize("while (i < n) { i = i + 1; }")
        kinds = [kind for kind, _, _, _ in tokens]
        assert kinds[0] == "keyword"
        assert kinds[-1] == "eof"
        assert any(text == "<" for _, text, _, _ in tokens)

    def test_comments_are_skipped(self):
        tokens = tokenize("// comment\nx /* multi\nline */ = 1;")
        texts = [text for kind, text, _, _ in tokens if kind != "eof"]
        assert texts == ["x", "=", "1", ";"]

    def test_two_character_operators(self):
        texts = [text for _, text, _, _ in tokenize("a == b != c <= d >= e && f || g ++")]
        assert "==" in texts and "!=" in texts and "&&" in texts and "++" in texts

    def test_positions_are_tracked(self):
        tokens = tokenize("x\ny")
        assert tokens[1] == ("ident", "y", 2, 1)

    def test_rejects_unknown_characters(self):
        with pytest.raises(LexError, match=r"^unexpected character '\$' at 1:5$"):
            tokenize("x = $;")
        with pytest.raises(LexError, match=r"^unexpected character '/' at 1:3$"):
            tokenize("x / y")

    def test_block_comment_spanning_lines_sets_the_column_after_it(self):
        assert tokenize("x /* one\ntwo */ y /* three */ z\n") == [
            ("ident", "x", 1, 1),
            ("ident", "y", 2, 8),
            ("ident", "z", 2, 22),
            ("eof", "", 3, 1),
        ]

    def test_tabs_and_crlf_line_endings(self):
        # A tab is one column; the \r before a \n is one more.
        assert tokenize("int\tx;\r\n\tx = 1;\r\n") == [
            ("keyword", "int", 1, 1),
            ("ident", "x", 1, 5),
            ("symbol", ";", 1, 6),
            ("ident", "x", 2, 2),
            ("symbol", "=", 2, 4),
            ("number", "1", 2, 6),
            ("symbol", ";", 2, 7),
            ("eof", "", 3, 1),
        ]

    def test_maximal_munch(self):
        texts = [text for _, text, _, _ in tokenize("x--; a-=b; a<=b; a<b; c--d")]
        assert texts == [
            "x", "--", ";", "a", "-=", "b", ";", "a", "<=", "b", ";",
            "a", "<", "b", ";", "c", "--", "d", "",
        ]

    def test_a_trailing_line_comment_leaves_the_end_column_where_it_starts(self):
        assert tokenize("x // done")[-1] == ("eof", "", 1, 3)

    def test_unterminated_comment_reports_where_it_starts(self):
        with pytest.raises(LexError, match=r"^unterminated comment at 2:5$"):
            tokenize("x;\ny = /* never closed\n")

    def test_a_non_decimal_digit_is_a_lex_error(self):
        # ``str.isdigit`` accepts '²' but ``int()`` does not: it is no number.
        with pytest.raises(LexError, match=r"^unexpected character '²' at 1:5$"):
            tokenize("x = ²;")
        with pytest.raises(LexError, match=r"^unexpected character '²' at 1:22$"):
            parse_function("void f(int x) { x = 2²; }")
        # Decimal digits of any script are numbers, and a name may go on with
        # any letter or digit.
        assert tokenize("x² = ٣;")[:3] == [
            ("ident", "x²", 1, 1), ("symbol", "=", 1, 4), ("number", "٣", 1, 6)
        ]


class TestParser:
    def test_parse_forward(self):
        function = parse_function(FORWARD)
        assert function.name == "forward"
        assert function.scalar_params() == ("n",)
        kinds = [type(s).__name__ for s in function.body]
        assert "WhileStmt" in kinds and "AssertStmt" in kinds

    def test_parse_initcheck(self):
        function = parse_function(INITCHECK)
        assert function.array_params() == ("a",)
        loops = [s for s in function.body if isinstance(s, ForStmt)]
        assert len(loops) == 2
        assert isinstance(loops[0].body.statements[0], ArrayAssignStmt)

    def test_parse_partition(self):
        function = parse_function(PARTITION)
        loops = [s for s in function.body if isinstance(s, ForStmt)]
        assert len(loops) == 3
        assert isinstance(loops[0].body.statements[0], IfStmt)

    def test_parse_expression(self):
        expr = parse_expression("a + 2 * (b - 1)")
        linear = expr_to_linexpr(expr)
        assert linear.coeff(Var("b")) == 2
        assert linear.const == -2

    def test_increment_sugar(self):
        function = parse_function("void f(int x) { x++; x += 3; x--; }")
        assert len(function.body) == 3

    def test_parenthesised_condition(self):
        function = parse_function(
            "void f(int x, int y) { if ((x + y) >= 0 && x <= 3) { y = 0; } }"
        )
        assert isinstance(function.body.statements[0], IfStmt)

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError):
            parse_function("void f(int x) { x = ; }")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_function("void f(int x) { x = 1 }")


class TestTypeCheck:
    def test_undeclared_variable(self):
        with pytest.raises(TypeCheckError):
            check_function(parse_function("void f(int x) { y = 1; }"))

    def test_scalar_used_as_array(self):
        with pytest.raises(TypeCheckError):
            check_function(parse_function("void f(int x) { x[0] = 1; }"))

    def test_array_used_as_scalar(self):
        with pytest.raises(TypeCheckError):
            check_function(parse_function("void f(int a[]) { a = 1; }"))

    def test_nonlinear_multiplication_rejected(self):
        with pytest.raises(TypeCheckError):
            check_function(parse_function("void f(int x, int y) { x = x * y; }"))

    def test_valid_program_collects_symbols(self):
        table = check_function(parse_function(INITCHECK))
        assert table.scalars == {"i", "n"}
        assert table.arrays == {"a"}


class TestConditionTranslation:
    def test_comparison_operators(self):
        source = {"x == y": Relation.EQ, "x != y": Relation.NE, "x < y": Relation.LT, "x <= y": Relation.LE}
        for text, expected in source.items():
            function = parse_function(f"void f(int x, int y) {{ assume({text}); }}")
            condition = function.body.statements[0].condition
            atom = condition_to_formula(condition)
            assert atom.rel is expected

    def test_nondet_condition_is_true(self):
        function = parse_function("void f(int x) { if (*) { x = 1; } else { x = 2; } }")
        condition = function.body.statements[0].condition
        assert condition_to_formula(condition) == TRUE


class TestCfg:
    def test_forward_structure(self):
        program = get_program("forward")
        assert program.initial.name == "L0"
        assert program.error.name == "ERR"
        assert len(program.loop_heads()) == 1
        stats = program.stats()
        assert stats["transitions"] == 8

    def test_initcheck_structure(self):
        program = get_program("initcheck")
        assert len(program.loop_heads()) == 2
        # one edge into the error location (the failed assertion)
        assert len(program.incoming(program.error)) == 1

    def test_assert_creates_error_edge(self):
        program = program_from_source("void f(int x) { assert(x >= 0); }")
        error_edges = program.incoming(program.error)
        assert len(error_edges) == 1
        guard = error_edges[0].commands[0]
        assert isinstance(guard, Assume)

    def test_nondet_assignment_becomes_havoc(self):
        program = program_from_source("void f(int x) { x = nondet(); assert(x == x); }")
        commands = [c for t in program.transitions for c in t.commands]
        assert any(isinstance(c, Havoc) for c in commands)

    def test_compaction_reduces_locations(self):
        fine = program_from_source(FORWARD, do_compact=False)
        coarse = program_from_source(FORWARD, do_compact=True)
        assert len(coarse.locations) < len(fine.locations)
        assert len(coarse.loop_heads()) == len(fine.loop_heads()) == 1

    def test_reachable_locations(self):
        program = get_program("forward")
        assert program.error in program.reachable_locations()

    def test_array_write_command(self):
        program = get_program("initcheck")
        commands = [c for t in program.transitions for c in t.commands]
        assert any(isinstance(c, ArrayAssign) for c in commands)

    def test_pretty_and_dot_output(self):
        program = get_program("forward")
        text = format_program(program)
        assert "program forward" in text and "ERR" in text
        dot = program_to_dot(program)
        assert dot.startswith("digraph") and '"ERR"' in dot


class TestProgramRegistry:
    def test_all_programs_build(self):
        for name in list_programs():
            program = get_program(name)
            assert program.transitions, name

    def test_safe_unsafe_partition(self):
        assert set(safe_programs()) | set(unsafe_programs()) == set(list_programs())
        assert "forward" in safe_programs()
        assert "initcheck_buggy" in unsafe_programs()

    def test_expected_count(self):
        assert len(list_programs()) >= 15


def pinned_sources():
    """The built-ins, the regression corpus, the fuzz corpus and
    daemon-shaped programs: 917 sources."""
    sources = [PROGRAMS[name].source for name in sorted(PROGRAMS)]
    sources += [path.read_text() for path in sorted(CORPUS.glob("*.c"))]
    sources += [program.source for program in generate_corpus(2, 100)]
    sources += [program.source for program in generate_corpus(1, 800, DAEMON_SHAPE)]
    return sources


def front_end_digest(sources):
    """Hash every source's tokens, transitions in order, location names and
    fingerprint."""
    digest = hashlib.sha256()
    for source in sources:
        program = program_from_source(source)
        record = (
            tokenize(source),
            [str(transition) for transition in program.transitions],
            [location.name for location in program.locations],
            program_fingerprint(program),
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


class TestPinnedOutput:
    def test_front_end_output_is_pinned(self):
        sources = pinned_sources()
        assert len(sources) == 917
        assert front_end_digest(sources) == PINNED_DIGEST
