"""Control-flow graphs / transition systems.

A program is represented exactly as in Section 3 of the paper:
``P = (X, locs, l0, T, lE)`` where every transition ``(l, rho, l')`` is
labelled by a sequence of primitive commands (the constraint ``rho`` is the
relational semantics of that sequence).  The builder translates the surface
AST into this representation, creating a fresh location per primitive
statement, and a compaction pass then merges straight-line chains so that the
location structure matches the paper's per-program-point labels (L0 ... L5).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Sequence

from ..logic.formulas import (
    FALSE,
    Formula,
    TRUE,
    conjoin,
    disjoin,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    negate,
)
from ..logic.terms import LinExpr
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
from .commands import ArrayAssign, Assign, Assume, Command, HashedOnce, Havoc, Skip
from .parser import parse_function
from .typecheck import SymbolTable, check_function

__all__ = [
    "Location",
    "Transition",
    "Program",
    "CfgBuildError",
    "build_program",
    "program_from_source",
    "compact",
    "expr_to_linexpr",
    "condition_to_formula",
]


class CfgBuildError(ValueError):
    """Raised when the AST cannot be translated (e.g. non-linear arithmetic)."""


@dataclass(frozen=True, order=True)
class Location(HashedOnce):
    """A control location."""

    name: str

    def _field_values(self) -> tuple:
        return (self.name,)

    __hash__ = HashedOnce.__hash__

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Transition(HashedOnce):
    """An edge ``source --commands--> target``."""

    source: Location
    commands: tuple[Command, ...]
    target: Location

    def _field_values(self) -> tuple:
        return (self.source, self.commands, self.target)

    __hash__ = HashedOnce.__hash__

    def __str__(self) -> str:
        label = "; ".join(str(c) for c in self.commands) or "skip"
        return f"{self.source} --[{label}]--> {self.target}"


@dataclass
class Program:
    """A transition system ``(X, locs, l0, T, lE)``."""

    name: str
    variables: tuple[str, ...]
    arrays: tuple[str, ...]
    locations: tuple[Location, ...]
    initial: Location
    error: Location
    transitions: tuple[Transition, ...]

    # ------------------------------------------------------------------
    def outgoing(self, location: Location) -> list[Transition]:
        return [t for t in self.transitions if t.source == location]

    def incoming(self, location: Location) -> list[Transition]:
        return [t for t in self.transitions if t.target == location]

    def successors(self, location: Location) -> list[Location]:
        return [t.target for t in self.outgoing(location)]

    def predecessors(self, location: Location) -> list[Location]:
        return [t.source for t in self.incoming(location)]

    def reachable_locations(self) -> set[Location]:
        """Locations reachable from the initial location in the graph."""
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            location = frontier.pop()
            for transition in self.outgoing(location):
                if transition.target not in seen:
                    seen.add(transition.target)
                    frontier.append(transition.target)
        return seen

    def back_edges(self) -> set[Transition]:
        """Transitions that close a cycle in a DFS from the initial location."""
        back: set[Transition] = set()
        color: dict[Location, int] = {}

        def dfs(location: Location) -> None:
            color[location] = 1
            for transition in self.outgoing(location):
                target = transition.target
                if color.get(target, 0) == 0:
                    dfs(target)
                elif color.get(target) == 1:
                    back.add(transition)
            color[location] = 2

        dfs(self.initial)
        return back

    def loop_heads(self) -> set[Location]:
        """Targets of back edges."""
        return {t.target for t in self.back_edges()}

    def stats(self) -> dict[str, int]:
        return {
            "locations": len(self.locations),
            "transitions": len(self.transitions),
            "variables": len(self.variables),
            "arrays": len(self.arrays),
        }


# ----------------------------------------------------------------------
# Expression and condition translation
# ----------------------------------------------------------------------
def expr_to_linexpr(expr: Expr) -> LinExpr:
    """Translate an arithmetic AST expression into a linear expression."""
    if isinstance(expr, IntLiteral):
        return LinExpr.constant(expr.value)
    if isinstance(expr, VarRef):
        return LinExpr.variable(expr.name)
    if isinstance(expr, ArrayRef):
        return LinExpr.array_read(expr.array, expr_to_linexpr(expr.index))
    if isinstance(expr, UnaryOp):
        if expr.op != "-":
            raise CfgBuildError(f"unsupported unary operator {expr.op!r}")
        return -expr_to_linexpr(expr.operand)
    if isinstance(expr, NondetExpr):
        raise CfgBuildError("nondet() may only appear as the sole right-hand side")
    if isinstance(expr, BinaryOp):
        left = expr_to_linexpr(expr.left)
        right = expr_to_linexpr(expr.right)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            if left.is_constant():
                return right.scale(left.const)
            if right.is_constant():
                return left.scale(right.const)
            raise CfgBuildError(f"non-linear multiplication: {expr}")
        raise CfgBuildError(f"unsupported operator {expr.op!r}")
    raise CfgBuildError(f"unexpected expression {expr!r}")


def condition_to_formula(condition: BoolExpr) -> Formula:
    """Translate a boolean AST condition into a formula.

    The nondeterministic condition ``*`` translates to ``true`` (both of its
    branches are enabled), matching the paper's treatment of the unmodelled
    branch in FORWARD.
    """
    if isinstance(condition, BoolLiteral):
        return TRUE if condition.value else FALSE
    if isinstance(condition, BoolNondet):
        return TRUE
    if isinstance(condition, BoolNot):
        inner = condition.operand
        if isinstance(inner, BoolNondet):
            return TRUE
        return negate(condition_to_formula(inner))
    if isinstance(condition, BoolBinary):
        left = condition_to_formula(condition.left)
        right = condition_to_formula(condition.right)
        if condition.op == "&&":
            return conjoin([left, right])
        return disjoin([left, right])
    if isinstance(condition, Comparison):
        left = expr_to_linexpr(condition.left)
        right = expr_to_linexpr(condition.right)
        table = {"==": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}
        if condition.op not in table:
            raise CfgBuildError(f"unsupported comparison {condition.op!r}")
        return table[condition.op](left, right)
    raise CfgBuildError(f"unexpected condition {condition!r}")


def negated_condition_to_formula(condition: BoolExpr) -> Formula:
    """The formula of ``!condition`` (with ``*`` again mapping to ``true``).

    A nondeterministic sub-condition makes the whole negated guard
    nondeterministic: both branches must stay enabled, so the negation is
    over-approximated by ``true`` (sound for safety checking).
    """
    if _contains_nondet(condition):
        return TRUE
    return negate(condition_to_formula(condition))


def _contains_nondet(condition: BoolExpr) -> bool:
    if isinstance(condition, BoolNondet):
        return True
    if isinstance(condition, BoolNot):
        return _contains_nondet(condition.operand)
    if isinstance(condition, BoolBinary):
        return _contains_nondet(condition.left) or _contains_nondet(condition.right)
    return False


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
class _Builder:
    def __init__(self, function: FunctionDef, table: SymbolTable) -> None:
        self.function = function
        self.table = table
        self.transitions: list[Transition] = []
        self.locations: list[Location] = []
        self._counter = itertools.count()
        self._aux_counter = itertools.count()
        self.aux_variables: list[str] = []
        self.initial = self.new_location("entry")
        self.error = Location("ERR")
        self.locations.append(self.error)

    # -- helpers ---------------------------------------------------------
    def new_location(self, hint: str = "L") -> Location:
        location = Location(f"L{next(self._counter)}")
        self.locations.append(location)
        return location

    def add_edge(self, source: Location, commands: Sequence[Command], target: Location) -> None:
        self.transitions.append(Transition(source, tuple(commands), target))

    def fresh_aux(self) -> str:
        name = f"__nd{next(self._aux_counter)}"
        self.aux_variables.append(name)
        self.table.scalars.add(name)
        return name

    # -- expression lowering (handles nondet() on right-hand sides) -------
    def lower_expr(self, expr: Expr, pending: list[Command]) -> LinExpr:
        if isinstance(expr, NondetExpr):
            aux = self.fresh_aux()
            pending.append(Havoc((aux,)))
            return LinExpr.variable(aux)
        if isinstance(expr, BinaryOp):
            left = self.lower_expr(expr.left, pending)
            right = self.lower_expr(expr.right, pending)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                if left.is_constant():
                    return right.scale(left.const)
                if right.is_constant():
                    return left.scale(right.const)
                raise CfgBuildError(f"non-linear multiplication: {expr}")
            raise CfgBuildError(f"unsupported operator {expr.op!r}")
        if isinstance(expr, UnaryOp):
            return -self.lower_expr(expr.operand, pending)
        return expr_to_linexpr(expr)

    # -- statement translation --------------------------------------------
    def build(self) -> Program:
        exit_location = self.translate_block(self.function.body, self.initial)
        # The function exit is an ordinary location with no outgoing edges.
        variables = tuple(sorted(self.table.scalars))
        arrays = tuple(sorted(self.table.arrays))
        return Program(
            name=self.function.name,
            variables=variables,
            arrays=arrays,
            locations=tuple(self.locations),
            initial=self.initial,
            error=self.error,
            transitions=tuple(self.transitions),
        )

    def translate_block(self, block: Block, entry: Location) -> Location:
        current = entry
        for statement in block:
            current = self.translate_statement(statement, current)
        return current

    def translate_statement(self, statement: Stmt, entry: Location) -> Location:
        if isinstance(statement, (SkipStmt,)):
            return entry
        if isinstance(statement, Block):
            return self.translate_block(statement, entry)
        if isinstance(statement, DeclStmt):
            if statement.initializer is not None:
                pending: list[Command] = []
                value = self.lower_expr(statement.initializer, pending)
                target = self.new_location()
                self.add_edge(entry, pending + [Assign(statement.name, value)], target)
                return target
            return entry
        if isinstance(statement, AssignStmt):
            pending = []
            value = self.lower_expr(statement.value, pending)
            target = self.new_location()
            self.add_edge(entry, pending + [Assign(statement.target, value)], target)
            return target
        if isinstance(statement, HavocStmt):
            target = self.new_location()
            self.add_edge(entry, [Havoc((statement.target,))], target)
            return target
        if isinstance(statement, ArrayAssignStmt):
            pending = []
            index = self.lower_expr(statement.index, pending)
            value = self.lower_expr(statement.value, pending)
            target = self.new_location()
            self.add_edge(entry, pending + [ArrayAssign(statement.array, index, value)], target)
            return target
        if isinstance(statement, AssumeStmt):
            target = self.new_location()
            self.add_edge(entry, [Assume(condition_to_formula(statement.condition))], target)
            return target
        if isinstance(statement, AssertStmt):
            target = self.new_location()
            self.add_edge(entry, [Assume(negated_condition_to_formula(statement.condition))], self.error)
            self.add_edge(entry, [Assume(condition_to_formula(statement.condition))], target)
            return target
        if isinstance(statement, IfStmt):
            return self.translate_if(statement, entry)
        if isinstance(statement, WhileStmt):
            return self.translate_while(statement, entry)
        if isinstance(statement, ForStmt):
            return self.translate_for(statement, entry)
        raise CfgBuildError(f"unexpected statement {statement!r}")

    def translate_if(self, statement: IfStmt, entry: Location) -> Location:
        then_entry = self.new_location()
        else_entry = self.new_location()
        join = self.new_location()
        self.add_edge(entry, [Assume(condition_to_formula(statement.condition))], then_entry)
        self.add_edge(entry, [Assume(negated_condition_to_formula(statement.condition))], else_entry)
        then_exit = self.translate_block(statement.then_branch, then_entry)
        self.add_edge(then_exit, [Skip()], join)
        if statement.else_branch is not None:
            else_exit = self.translate_block(statement.else_branch, else_entry)
            self.add_edge(else_exit, [Skip()], join)
        else:
            self.add_edge(else_entry, [Skip()], join)
        return join

    def translate_while(self, statement: WhileStmt, entry: Location) -> Location:
        head = self.new_location()
        body_entry = self.new_location()
        exit_location = self.new_location()
        self.add_edge(entry, [Skip()], head)
        self.add_edge(head, [Assume(condition_to_formula(statement.condition))], body_entry)
        self.add_edge(head, [Assume(negated_condition_to_formula(statement.condition))], exit_location)
        body_exit = self.translate_block(statement.body, body_entry)
        self.add_edge(body_exit, [Skip()], head)
        return exit_location

    def translate_for(self, statement: ForStmt, entry: Location) -> Location:
        current = entry
        if statement.init is not None:
            current = self.translate_statement(statement.init, current)
        head = self.new_location()
        body_entry = self.new_location()
        exit_location = self.new_location()
        self.add_edge(current, [Skip()], head)
        self.add_edge(head, [Assume(condition_to_formula(statement.condition))], body_entry)
        self.add_edge(head, [Assume(negated_condition_to_formula(statement.condition))], exit_location)
        body_exit = self.translate_block(statement.body, body_entry)
        if statement.update is not None:
            body_exit = self.translate_statement(statement.update, body_exit)
        self.add_edge(body_exit, [Skip()], head)
        return exit_location


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def compact(program: Program) -> Program:
    """Merge straight-line chains of locations and drop no-op skips.

    A location is merged into its predecessor when it has exactly one
    incoming and one outgoing transition and is neither the initial, error,
    nor a location with a self-loop.  The result has the coarse location
    structure of the paper's figures (one location per program point that
    matters for control flow).

    Each location is visited once, in name order; one pass reaches the
    fixed point, since a merge leaves every other location's in- and
    out-degree as it was.  A merge drops its two transitions from the order
    and appends the merged one.  That order seeds the frontier and hence
    the exploration micro-order, and name order, unlike set order, does not
    vary with the interpreter's hash seed.  Per-location indexes of
    transition keys keep the pass linear apart from that sort.  Skips are
    dropped once at the end (an edge with no other command keeps one), as
    dropping them at every merge would.
    """
    table = dict(enumerate(program.transitions))  # insertion-ordered
    incoming: dict[str, set[int]] = defaultdict(set)  # location name -> keys
    outgoing: dict[str, set[int]] = defaultdict(set)
    for key, transition in table.items():
        outgoing[transition.source.name].add(key)
        incoming[transition.target.name].add(key)
    keys = itertools.count(len(table))
    ends = {program.initial.name, program.error.name}
    for name in sorted((incoming.keys() | outgoing.keys()) - ends):
        into, out = incoming[name], outgoing[name]
        if len(into) != 1 or len(out) != 1:
            continue
        (before_key,), (after_key,) = into, out
        before, after = table[before_key], table[after_key]
        if before.source.name == name or after.target.name == name:
            continue  # self loop
        del table[before_key], table[after_key]
        outgoing[before.source.name].remove(before_key)
        incoming[after.target.name].remove(after_key)
        key = next(keys)
        table[key] = Transition(before.source, before.commands + after.commands, after.target)
        outgoing[before.source.name].add(key)
        incoming[after.target.name].add(key)

    transitions = tuple(
        Transition(t.source, _strip_skips(t.commands), t.target) for t in table.values()
    )
    used = {program.initial.name: program.initial, program.error.name: program.error}
    for transition in transitions:
        used[transition.source.name] = transition.source
        used[transition.target.name] = transition.target
    locations = tuple(used[name] for name in sorted(used))
    return replace(program, locations=locations, transitions=transitions)


def _strip_skips(commands: Sequence[Command]) -> tuple[Command, ...]:
    stripped = tuple(c for c in commands if not isinstance(c, Skip))
    return stripped if stripped else (Skip(),)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def build_program(function: FunctionDef, do_compact: bool = True) -> Program:
    """Translate a parsed function into a transition system."""
    table = check_function(function)
    program = _Builder(function, table).build()
    if do_compact:
        program = compact(program)
    return program


def program_from_source(source: str, do_compact: bool = True) -> Program:
    """Parse a single-function source text and build its transition system."""
    return build_program(parse_function(source), do_compact=do_compact)
