"""Symbol resolution and static checks for the surface language.

The checker collects the scalar and array symbols of a function, verifies
that every use is consistent with its declaration (scalars are not indexed,
arrays are only used indexed), and rejects obviously non-linear arithmetic
(products of two non-constant expressions), which the logic layer cannot
represent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

__all__ = ["SymbolTable", "TypeCheckError", "check_function"]


class TypeCheckError(ValueError):
    """Raised when a program violates the static rules of the language."""


@dataclass
class SymbolTable:
    """Declared symbols of a function."""

    scalars: set[str] = field(default_factory=set)
    arrays: set[str] = field(default_factory=set)

    def declare_scalar(self, name: str) -> None:
        if name in self.arrays:
            raise TypeCheckError(f"{name!r} is already declared as an array")
        self.scalars.add(name)

    def declare_array(self, name: str) -> None:
        if name in self.scalars:
            raise TypeCheckError(f"{name!r} is already declared as a scalar")
        self.arrays.add(name)

    def require_scalar(self, name: str) -> None:
        if name in self.arrays:
            raise TypeCheckError(f"array {name!r} used as a scalar")
        if name not in self.scalars:
            raise TypeCheckError(f"undeclared variable {name!r}")

    def require_array(self, name: str) -> None:
        if name in self.scalars:
            raise TypeCheckError(f"scalar {name!r} used as an array")
        if name not in self.arrays:
            raise TypeCheckError(f"undeclared array {name!r}")


def check_function(function: FunctionDef) -> SymbolTable:
    """Check a function and return its symbol table."""
    table = SymbolTable()
    for param in function.params:
        if param.is_array:
            table.declare_array(param.name)
        else:
            table.declare_scalar(param.name)
    _collect_declarations(function.body, table)
    _check_block(function.body, table)
    return table


def _collect_declarations(block: Block, table: SymbolTable) -> None:
    for statement in block:
        if isinstance(statement, DeclStmt):
            if statement.is_array:
                table.declare_array(statement.name)
            else:
                table.declare_scalar(statement.name)
        elif isinstance(statement, Block):
            _collect_declarations(statement, table)
        elif isinstance(statement, IfStmt):
            _collect_declarations(statement.then_branch, table)
            if statement.else_branch is not None:
                _collect_declarations(statement.else_branch, table)
        elif isinstance(statement, WhileStmt):
            _collect_declarations(statement.body, table)
        elif isinstance(statement, ForStmt):
            if isinstance(statement.init, DeclStmt):
                table.declare_scalar(statement.init.name)
            elif isinstance(statement.init, Block):
                _collect_declarations(statement.init, table)
            _collect_declarations(statement.body, table)


def _check_block(block: Block, table: SymbolTable) -> None:
    for statement in block:
        _check_statement(statement, table)


def _check_statement(statement: Stmt, table: SymbolTable) -> None:
    if isinstance(statement, (SkipStmt,)):
        return
    if isinstance(statement, DeclStmt):
        if statement.size is not None:
            _check_expr(statement.size, table)
        if statement.initializer is not None:
            if statement.is_array:
                raise TypeCheckError(f"array {statement.name!r} cannot have an initializer")
            _check_expr(statement.initializer, table)
        return
    if isinstance(statement, AssignStmt):
        table.require_scalar(statement.target)
        _check_expr(statement.value, table)
        return
    if isinstance(statement, HavocStmt):
        table.require_scalar(statement.target)
        return
    if isinstance(statement, ArrayAssignStmt):
        table.require_array(statement.array)
        _check_expr(statement.index, table)
        _check_expr(statement.value, table)
        return
    if isinstance(statement, (AssumeStmt, AssertStmt)):
        _check_condition(statement.condition, table)
        return
    if isinstance(statement, IfStmt):
        _check_condition(statement.condition, table)
        _check_block(statement.then_branch, table)
        if statement.else_branch is not None:
            _check_block(statement.else_branch, table)
        return
    if isinstance(statement, WhileStmt):
        _check_condition(statement.condition, table)
        _check_block(statement.body, table)
        return
    if isinstance(statement, ForStmt):
        if statement.init is not None:
            _check_statement(statement.init, table)
        _check_condition(statement.condition, table)
        if statement.update is not None:
            _check_statement(statement.update, table)
        _check_block(statement.body, table)
        return
    if isinstance(statement, Block):
        _check_block(statement, table)
        return
    raise TypeCheckError(f"unexpected statement {statement!r}")


def _check_condition(condition: BoolExpr, table: SymbolTable) -> None:
    if isinstance(condition, (BoolNondet, BoolLiteral)):
        return
    if isinstance(condition, BoolNot):
        _check_condition(condition.operand, table)
        return
    if isinstance(condition, BoolBinary):
        _check_condition(condition.left, table)
        _check_condition(condition.right, table)
        return
    if isinstance(condition, Comparison):
        _check_expr(condition.left, table)
        _check_expr(condition.right, table)
        return
    raise TypeCheckError(f"unexpected condition {condition!r}")


def _check_expr(expr: Expr, table: SymbolTable) -> None:
    if isinstance(expr, (IntLiteral, NondetExpr)):
        return
    if isinstance(expr, VarRef):
        table.require_scalar(expr.name)
        return
    if isinstance(expr, ArrayRef):
        table.require_array(expr.array)
        _check_expr(expr.index, table)
        return
    if isinstance(expr, UnaryOp):
        _check_expr(expr.operand, table)
        return
    if isinstance(expr, BinaryOp):
        _check_expr(expr.left, table)
        _check_expr(expr.right, table)
        if expr.op == "*" and not (_is_constant(expr.left) or _is_constant(expr.right)):
            raise TypeCheckError(f"non-linear multiplication: {expr}")
        return
    raise TypeCheckError(f"unexpected expression {expr!r}")


def _is_constant(expr: Expr) -> bool:
    if isinstance(expr, IntLiteral):
        return True
    if isinstance(expr, UnaryOp):
        return _is_constant(expr.operand)
    if isinstance(expr, BinaryOp):
        return _is_constant(expr.left) and _is_constant(expr.right)
    return False
