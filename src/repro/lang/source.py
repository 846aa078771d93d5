"""AST -> mini-C source printer (the inverse of :mod:`repro.lang.parser`).

:func:`format_function` renders any :class:`~repro.lang.ast.FunctionDef`
back into parseable surface syntax.  The printer is *round-trip exact*:
for every AST the parser can produce (and everything
:mod:`repro.testgen.generator` emits), ``parse_function(format_function(fn))``
returns an AST structurally equal to ``fn`` modulo source positions
(compare through :func:`strip_positions`).  Exactness rests on a few
deliberate choices, each matching a parser quirk:

* every compound arithmetic subexpression is fully parenthesised —
  ``(a + (2 * b))`` — so the parser's precedence climbing rebuilds the
  exact tree (it unwraps redundant parentheses without adding nodes);
* boolean connectives are parenthesised and negation always prints as
  ``!(...)`` (the parser backtracks from the comparison attempt into the
  parenthesised-condition branch);
* branch and loop bodies always print braced, matching the parser's
  ``_statement_as_block`` normalisation;
* ``HavocStmt`` prints as ``x = nondet();`` — which is also how the parser
  *reads* it back.  An ``AssignStmt`` whose value is a *bare*
  ``NondetExpr`` prints identically and therefore reparses as the
  (semantically identical) ``HavocStmt``: that is a printer
  normalisation, not a round-trip break (the generator never emits the
  bare-assign form);
* negative ``IntLiteral`` values cannot round-trip (the parser produces
  ``UnaryOp('-', IntLiteral(n))`` instead) — the parser never creates
  them, and neither does the generator.
"""

from __future__ import annotations

import dataclasses
from typing import Union

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
    SkipStmt,
    Stmt,
    UnaryOp,
    VarRef,
    WhileStmt,
)

__all__ = [
    "format_expr",
    "format_condition",
    "format_function",
    "strip_positions",
]

_INDENT = "  "


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
def format_expr(expr: Expr) -> str:
    """Render an arithmetic expression; compound nodes are parenthesised."""
    if isinstance(expr, IntLiteral):
        return str(expr.value)
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, ArrayRef):
        return f"{expr.array}[{format_expr(expr.index)}]"
    if isinstance(expr, NondetExpr):
        return "nondet()"
    if isinstance(expr, UnaryOp):
        return f"({expr.op}{format_expr(expr.operand)})"
    if isinstance(expr, BinaryOp):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    raise TypeError(f"cannot print expression {expr!r}")


def format_condition(condition: BoolExpr) -> str:
    """Render a boolean condition; connectives are parenthesised."""
    if isinstance(condition, BoolLiteral):
        return "true" if condition.value else "false"
    if isinstance(condition, BoolNondet):
        return "*"
    if isinstance(condition, Comparison):
        return (
            f"{format_expr(condition.left)} {condition.op} "
            f"{format_expr(condition.right)}"
        )
    if isinstance(condition, BoolNot):
        return f"!({format_condition(condition.operand)})"
    if isinstance(condition, BoolBinary):
        return (
            f"({format_condition(condition.left)} {condition.op} "
            f"{format_condition(condition.right)})"
        )
    raise TypeError(f"cannot print condition {condition!r}")


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
def _decl_text(statement: DeclStmt) -> str:
    """The ``int ...`` declaration text including the trailing ``;``."""
    if statement.is_array:
        size = format_expr(statement.size) if statement.size is not None else ""
        return f"int {statement.name}[{size}];"
    if statement.initializer is not None:
        return f"int {statement.name} = {format_expr(statement.initializer)};"
    return f"int {statement.name};"


def _simple_text(statement: Stmt) -> str:
    """An assignment-like statement without the trailing ``;`` (for-headers)."""
    if isinstance(statement, AssignStmt):
        return f"{statement.target} = {format_expr(statement.value)}"
    if isinstance(statement, HavocStmt):
        return f"{statement.target} = nondet()"
    if isinstance(statement, ArrayAssignStmt):
        return (
            f"{statement.array}[{format_expr(statement.index)}] = "
            f"{format_expr(statement.value)}"
        )
    raise TypeError(f"not a simple statement: {statement!r}")


def _statement_lines(statement: Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(statement, DeclStmt):
        return [pad + _decl_text(statement)]
    if isinstance(statement, (AssignStmt, HavocStmt, ArrayAssignStmt)):
        return [pad + _simple_text(statement) + ";"]
    if isinstance(statement, AssumeStmt):
        return [pad + f"assume({format_condition(statement.condition)});"]
    if isinstance(statement, AssertStmt):
        return [pad + f"assert({format_condition(statement.condition)});"]
    if isinstance(statement, SkipStmt):
        return [pad + "skip;"]
    if isinstance(statement, Block):
        lines = [pad + "{"]
        lines.extend(_block_lines(statement, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(statement, IfStmt):
        lines = [pad + f"if ({format_condition(statement.condition)}) {{"]
        lines.extend(_block_lines(statement.then_branch, depth + 1))
        if statement.else_branch is not None:
            lines.append(pad + "} else {")
            lines.extend(_block_lines(statement.else_branch, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(statement, WhileStmt):
        lines = [pad + f"while ({format_condition(statement.condition)}) {{"]
        lines.extend(_block_lines(statement.body, depth + 1))
        lines.append(pad + "}")
        return lines
    if isinstance(statement, ForStmt):
        if statement.init is None:
            init = ";"
        elif isinstance(statement.init, DeclStmt):
            init = _decl_text(statement.init)
        elif isinstance(statement.init, Block):
            # ``for (int i = 0, j = 0; ...)`` parses to a Block of DeclStmts.
            parts = [
                stmt.name
                + (
                    f" = {format_expr(stmt.initializer)}"
                    if stmt.initializer is not None
                    else ""
                )
                for stmt in statement.init.statements
                if isinstance(stmt, DeclStmt)
            ]
            init = "int " + ", ".join(parts) + ";"
        else:
            init = _simple_text(statement.init) + ";"
        update = "" if statement.update is None else _simple_text(statement.update)
        header = (
            f"for ({init} {format_condition(statement.condition)}; {update}) {{"
        )
        lines = [pad + header]
        lines.extend(_block_lines(statement.body, depth + 1))
        lines.append(pad + "}")
        return lines
    raise TypeError(f"cannot print statement {statement!r}")


def _block_lines(block: Block, depth: int) -> list[str]:
    lines: list[str] = []
    for statement in block.statements:
        lines.extend(_statement_lines(statement, depth))
    return lines


def format_function(function: FunctionDef) -> str:
    """Render a function back into parseable mini-C source."""
    params = ", ".join(
        f"int *{param.name}" if param.is_array else f"int {param.name}"
        for param in function.params
    )
    lines = [f"void {function.name}({params}) {{"]
    lines.extend(_block_lines(function.body, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Position stripping (round-trip comparisons)
# ----------------------------------------------------------------------
def strip_positions(
    node: Union[FunctionDef, Stmt],
) -> Union[FunctionDef, Stmt]:
    """A structurally equal copy with every ``position`` field set to None.

    Statement dataclasses compare positions in ``__eq__``, so two parses of
    differently formatted but identical programs are unequal; stripping
    makes ``parse(format(ast)) == strip(ast)`` a meaningful round-trip
    check.  Expressions and conditions carry no positions and are shared.
    """
    if isinstance(node, FunctionDef):
        return FunctionDef(
            node.name, node.params, _strip_block(node.body)
        )
    return _strip_stmt(node)


def _strip_block(block: Block) -> Block:
    return Block(tuple(_strip_stmt(s) for s in block.statements))


def _strip_stmt(statement: Stmt) -> Stmt:
    if isinstance(statement, Block):
        return _strip_block(statement)
    if isinstance(statement, IfStmt):
        return IfStmt(
            statement.condition,
            _strip_block(statement.then_branch),
            None
            if statement.else_branch is None
            else _strip_block(statement.else_branch),
            position=None,
        )
    if isinstance(statement, WhileStmt):
        return WhileStmt(
            statement.condition,
            _strip_block(statement.body),
            label=statement.label,
            position=None,
        )
    if isinstance(statement, ForStmt):
        return ForStmt(
            None if statement.init is None else _strip_stmt(statement.init),
            statement.condition,
            None if statement.update is None else _strip_stmt(statement.update),
            _strip_block(statement.body),
            label=statement.label,
            position=None,
        )
    if hasattr(statement, "position"):
        return dataclasses.replace(statement, position=None)
    return statement
