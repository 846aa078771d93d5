"""Abstract syntax trees of the mini-C surface language.

The surface language is the fragment of C that the paper's examples use:
integer scalars and integer arrays, ``assume``/``assert`` statements,
structured control flow (``if``/``else``, ``while``, ``for``), linear
arithmetic expressions and boolean conditions, plus the nondeterministic
condition ``*`` (used in FORWARD for the unmodelled branch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Expr",
    "IntLiteral",
    "VarRef",
    "ArrayRef",
    "BinaryOp",
    "UnaryOp",
    "NondetExpr",
    "BoolExpr",
    "Comparison",
    "BoolBinary",
    "BoolNot",
    "BoolNondet",
    "BoolLiteral",
    "Stmt",
    "DeclStmt",
    "AssignStmt",
    "ArrayAssignStmt",
    "HavocStmt",
    "AssumeStmt",
    "AssertStmt",
    "IfStmt",
    "WhileStmt",
    "ForStmt",
    "Block",
    "SkipStmt",
    "Param",
    "FunctionDef",
    "SourcePosition",
]


@dataclass(frozen=True)
class SourcePosition:
    """Line/column of a syntactic element (1-based)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


# ----------------------------------------------------------------------
# Arithmetic expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class of arithmetic expressions."""


@dataclass(frozen=True)
class IntLiteral(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VarRef(Expr):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef(Expr):
    array: str
    index: Expr

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # '+', '-', '*'
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # '-'
    operand: Expr

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class NondetExpr(Expr):
    """An arbitrary integer value (``nondet()``)."""

    def __str__(self) -> str:
        return "nondet()"


# ----------------------------------------------------------------------
# Boolean expressions
# ----------------------------------------------------------------------
class BoolExpr:
    """Base class of boolean conditions."""


@dataclass(frozen=True)
class Comparison(BoolExpr):
    op: str  # '==', '!=', '<', '<=', '>', '>='
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class BoolBinary(BoolExpr):
    op: str  # '&&', '||'
    left: BoolExpr
    right: BoolExpr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BoolNot(BoolExpr):
    operand: BoolExpr

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True)
class BoolNondet(BoolExpr):
    """The unmodelled condition ``*`` (either branch may be taken)."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class BoolLiteral(BoolExpr):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Stmt:
    """Base class of statements."""


@dataclass(frozen=True)
class DeclStmt(Stmt):
    """``int x;`` or ``int x = e;`` or ``int a[n];``."""

    name: str
    is_array: bool = False
    size: Optional[Expr] = None
    initializer: Optional[Expr] = None
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class AssignStmt(Stmt):
    target: str
    value: Expr
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class ArrayAssignStmt(Stmt):
    array: str
    index: Expr
    value: Expr
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class HavocStmt(Stmt):
    """``x = nondet();`` is represented as a havoc of ``x``."""

    target: str
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class AssumeStmt(Stmt):
    condition: BoolExpr
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class AssertStmt(Stmt):
    condition: BoolExpr
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class IfStmt(Stmt):
    condition: BoolExpr
    then_branch: "Block"
    else_branch: Optional["Block"] = None
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class WhileStmt(Stmt):
    condition: BoolExpr
    body: "Block"
    label: Optional[str] = None
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class ForStmt(Stmt):
    init: Optional[Stmt]
    condition: BoolExpr
    update: Optional[Stmt]
    body: "Block"
    label: Optional[str] = None
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class SkipStmt(Stmt):
    position: Optional[SourcePosition] = None


@dataclass(frozen=True)
class Block(Stmt):
    statements: tuple[Stmt, ...] = ()

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)


# ----------------------------------------------------------------------
# Functions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Param:
    """A function parameter: scalar ``int n`` or array ``int *a`` / ``int a[]``."""

    name: str
    is_array: bool = False


@dataclass(frozen=True)
class FunctionDef:
    name: str
    params: tuple[Param, ...]
    body: Block

    def scalar_params(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if not p.is_array)

    def array_params(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.is_array)
