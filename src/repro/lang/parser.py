"""Recursive-descent parser for the mini-C surface language.

The parser produces the AST of :mod:`repro.lang.ast`.  The grammar covers the
constructs used by the paper's example programs and the extended benchmark
suite: function definitions with scalar and array parameters, declarations,
assignments (including ``++``/``--``/``+=``/``-=`` sugar), array writes,
``assume``/``assert``, ``if``/``else``, ``while`` and ``for`` loops, linear
arithmetic and boolean conditions, and the nondeterministic condition ``*``
and value ``nondet()``.
"""

from __future__ import annotations

from typing import Optional

from .ast import (
    ArrayAssignStmt,
    ArrayRef,
    AssertStmt,
    AssignStmt,
    AssumeStmt,
    BinaryOp,
    Block,
    BoolBinary,
    BoolExpr,
    BoolLiteral,
    BoolNondet,
    BoolNot,
    Comparison,
    DeclStmt,
    Expr,
    ForStmt,
    FunctionDef,
    HavocStmt,
    IfStmt,
    IntLiteral,
    NondetExpr,
    Param,
    SkipStmt,
    SourcePosition,
    Stmt,
    UnaryOp,
    VarRef,
    WhileStmt,
)
from .lexer import Token, tokenize

__all__ = ["ParseError", "parse_program", "parse_function", "parse_expression"]

_COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""


def _position(token: Token) -> SourcePosition:
    """Where ``token`` starts."""
    return SourcePosition(token[2], token[3])


class _Parser:
    """Recursive descent over ``(kind, text, line, column)`` tokens.

    ``index`` never moves past the closing EOF token, so ``tokens[index]`` is
    always a token, and so is ``tokens[index + 1]`` while ``tokens[index]``
    is not EOF.
    """

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    # ------------------------------------------------------------------
    # Token utilities
    # ------------------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.index + offset]

    def at(self, text: str) -> bool:
        # Keyword and symbol texts are never the text of an identifier, a
        # number or EOF, so the text alone decides.
        return self.tokens[self.index][1] == text

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token[0] != "eof":
            self.index += 1
        return token

    def expect(self, text: str) -> Token:
        token = self.tokens[self.index]
        if token[1] != text:
            raise ParseError(f"expected {text!r} but found {token[1]!r} at {_position(token)}")
        self.index += 1  # a non-empty text is not EOF's
        return token

    def expect_kind(self, kind: str) -> Token:
        token = self.tokens[self.index]
        if token[0] != kind:
            raise ParseError(f"expected {kind} but found {token[1]!r} at {_position(token)}")
        return self.advance()

    # ------------------------------------------------------------------
    # Program structure
    # ------------------------------------------------------------------
    def parse_program(self) -> list[FunctionDef]:
        functions = []
        while self.peek()[0] != "eof":
            functions.append(self.parse_function())
        if not functions:
            raise ParseError("empty program")
        return functions

    def parse_function(self) -> FunctionDef:
        if self.at("void") or self.at("int"):
            self.advance()
        name = self.expect_kind("ident")[1]
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            params.append(self.parse_param())
            while self.at(","):
                self.advance()
                params.append(self.parse_param())
        self.expect(")")
        body = self.parse_block()
        return FunctionDef(name, tuple(params), body)

    def parse_param(self) -> Param:
        self.expect("int")
        is_array = False
        if self.at("*"):
            self.advance()
            is_array = True
        name = self.expect_kind("ident")[1]
        if self.at("["):
            self.advance()
            if not self.at("]"):
                self.parse_expression()
            self.expect("]")
            is_array = True
        return Param(name, is_array)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_block(self) -> Block:
        self.expect("{")
        statements: list[Stmt] = []
        while not self.at("}"):
            statements.append(self.parse_statement())
        self.expect("}")
        return Block(tuple(statements))

    def parse_statement(self) -> Stmt:
        token = self.peek()
        if self.at("{"):
            return self.parse_block()
        if self.at("int"):
            return self.parse_declaration()
        if self.at("assume"):
            return self.parse_assume()
        if self.at("assert"):
            return self.parse_assert()
        if self.at("if"):
            return self.parse_if()
        if self.at("while"):
            return self.parse_while()
        if self.at("for"):
            return self.parse_for()
        if self.at("skip"):
            self.advance()
            self.expect(";")
            return SkipStmt(position=_position(token))
        if self.at(";"):
            self.advance()
            return SkipStmt(position=_position(token))
        if self.at("return"):
            self.advance()
            if not self.at(";"):
                self.parse_expression()
            self.expect(";")
            return SkipStmt(position=_position(token))
        if token[0] == "ident":
            statement = self.parse_simple_statement()
            self.expect(";")
            return statement
        raise ParseError(f"unexpected token {token[1]!r} at {_position(token)}")

    def parse_declaration(self) -> Stmt:
        position = _position(self.peek())
        self.expect("int")
        declarations: list[Stmt] = []
        while True:
            name = self.expect_kind("ident")[1]
            is_array = False
            size: Optional[Expr] = None
            initializer: Optional[Expr] = None
            if self.at("["):
                self.advance()
                if not self.at("]"):
                    size = self.parse_expression()
                self.expect("]")
                is_array = True
            if self.at("="):
                self.advance()
                initializer = self.parse_expression()
            declarations.append(
                DeclStmt(name, is_array=is_array, size=size, initializer=initializer, position=position)
            )
            if self.at(","):
                self.advance()
                continue
            break
        self.expect(";")
        if len(declarations) == 1:
            return declarations[0]
        return Block(tuple(declarations))

    def parse_assume(self) -> Stmt:
        position = _position(self.peek())
        self.expect("assume")
        self.expect("(")
        condition = self.parse_condition()
        self.expect(")")
        self.expect(";")
        return AssumeStmt(condition, position=position)

    def parse_assert(self) -> Stmt:
        position = _position(self.peek())
        self.expect("assert")
        self.expect("(")
        condition = self.parse_condition()
        self.expect(")")
        self.expect(";")
        return AssertStmt(condition, position=position)

    def parse_if(self) -> Stmt:
        position = _position(self.peek())
        self.expect("if")
        self.expect("(")
        condition = self.parse_condition()
        self.expect(")")
        then_branch = self._statement_as_block()
        else_branch = None
        if self.at("else"):
            self.advance()
            else_branch = self._statement_as_block()
        return IfStmt(condition, then_branch, else_branch, position=position)

    def parse_while(self) -> Stmt:
        position = _position(self.peek())
        self.expect("while")
        self.expect("(")
        condition = self.parse_condition()
        self.expect(")")
        body = self._statement_as_block()
        return WhileStmt(condition, body, position=position)

    def parse_for(self) -> Stmt:
        position = _position(self.peek())
        self.expect("for")
        self.expect("(")
        init: Optional[Stmt] = None
        if not self.at(";"):
            if self.at("int"):
                # Allow "for (int i = 0; ...)": treat as declaration followed
                # by the loop (the declaration is hoisted by the CFG builder).
                init = self.parse_declaration()
                # parse_declaration consumed the ';'
            else:
                init = self.parse_simple_statement()
                self.expect(";")
        else:
            self.expect(";")
        condition: BoolExpr = BoolLiteral(True)
        if not self.at(";"):
            condition = self.parse_condition()
        self.expect(";")
        update: Optional[Stmt] = None
        if not self.at(")"):
            update = self.parse_simple_statement()
        self.expect(")")
        body = self._statement_as_block()
        return ForStmt(init, condition, update, body, position=position)

    def _statement_as_block(self) -> Block:
        statement = self.parse_statement()
        if isinstance(statement, Block):
            return statement
        return Block((statement,))

    def parse_simple_statement(self) -> Stmt:
        """An assignment / increment / array write (without the trailing ';')."""
        position = _position(self.peek())
        name = self.expect_kind("ident")[1]
        if self.at("["):
            self.advance()
            index = self.parse_expression()
            self.expect("]")
            self.expect("=")
            value = self.parse_expression()
            return ArrayAssignStmt(name, index, value, position=position)
        if self.at("++"):
            self.advance()
            return AssignStmt(name, BinaryOp("+", VarRef(name), IntLiteral(1)), position=position)
        if self.at("--"):
            self.advance()
            return AssignStmt(name, BinaryOp("-", VarRef(name), IntLiteral(1)), position=position)
        if self.at("+="):
            self.advance()
            value = self.parse_expression()
            return AssignStmt(name, BinaryOp("+", VarRef(name), value), position=position)
        if self.at("-="):
            self.advance()
            value = self.parse_expression()
            return AssignStmt(name, BinaryOp("-", VarRef(name), value), position=position)
        self.expect("=")
        if self.at("nondet"):
            self.advance()
            self.expect("(")
            self.expect(")")
            return HavocStmt(name, position=position)
        value = self.parse_expression()
        return AssignStmt(name, value, position=position)

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------
    def parse_condition(self) -> BoolExpr:
        return self.parse_or()

    def parse_or(self) -> BoolExpr:
        left = self.parse_and()
        while self.at("||"):
            self.advance()
            right = self.parse_and()
            left = BoolBinary("||", left, right)
        return left

    def parse_and(self) -> BoolExpr:
        left = self.parse_bool_atom()
        while self.at("&&"):
            self.advance()
            right = self.parse_bool_atom()
            left = BoolBinary("&&", left, right)
        return left

    def parse_bool_atom(self) -> BoolExpr:
        token = self.peek()
        if self.at("!"):
            self.advance()
            return BoolNot(self.parse_bool_atom())
        if self.at("*") and self.peek(1)[1] in (")", "&&", "||"):
            self.advance()
            return BoolNondet()
        if self.at("true"):
            self.advance()
            return BoolLiteral(True)
        if self.at("false"):
            self.advance()
            return BoolLiteral(False)
        # Try a comparison; fall back to a parenthesised condition.
        saved = self.index
        try:
            left = self.parse_expression()
            op_token = self.peek()
            if op_token[1] in _COMPARISON_OPS:
                self.advance()
                right = self.parse_expression()
                return Comparison(op_token[1], left, right)
            raise ParseError(
                f"expected comparison operator at {_position(op_token)}, found {op_token[1]!r}"
            )
        except ParseError:
            self.index = saved
        if self.at("("):
            self.advance()
            inner = self.parse_condition()
            self.expect(")")
            return inner
        raise ParseError(f"cannot parse condition at {_position(token)} ({token[1]!r})")

    # ------------------------------------------------------------------
    # Arithmetic expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expr:
        left = self.parse_term()
        while self.at("+") or self.at("-"):
            op = self.advance()[1]
            right = self.parse_term()
            left = BinaryOp(op, left, right)
        return left

    def parse_term(self) -> Expr:
        left = self.parse_factor()
        while self.at("*"):
            self.advance()
            right = self.parse_factor()
            left = BinaryOp("*", left, right)
        return left

    def parse_factor(self) -> Expr:
        token = self.peek()
        if self.at("-"):
            self.advance()
            return UnaryOp("-", self.parse_factor())
        if token[0] == "number":
            self.advance()
            return IntLiteral(int(token[1]))
        if self.at("nondet"):
            self.advance()
            self.expect("(")
            self.expect(")")
            return NondetExpr()
        if token[0] == "ident":
            self.advance()
            if self.at("["):
                self.advance()
                index = self.parse_expression()
                self.expect("]")
                return ArrayRef(token[1], index)
            return VarRef(token[1])
        if self.at("("):
            self.advance()
            inner = self.parse_expression()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {token[1]!r} at {_position(token)}")


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def parse_program(source: str) -> list[FunctionDef]:
    """Parse all function definitions of a source file."""
    return _Parser(tokenize(source)).parse_program()


def parse_function(source: str) -> FunctionDef:
    """Parse a source file containing a single function definition."""
    functions = parse_program(source)
    if len(functions) != 1:
        raise ParseError(f"expected exactly one function, found {len(functions)}")
    return functions[0]


def parse_expression(source: str) -> Expr:
    """Parse a standalone arithmetic expression (useful in tests)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expression()
    if parser.peek()[0] != "eof":
        raise ParseError(f"trailing input after expression: {parser.peek()[1]!r}")
    return expr
