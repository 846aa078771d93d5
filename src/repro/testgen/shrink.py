"""Greedy delta-debugging shrinker for mini-C functions.

:func:`shrink_function` minimises a failing program against an arbitrary
predicate: repeatedly try every one-edit-smaller variant (statement
deletion, branch/loop flattening, block splicing), keep the first variant
that is still *valid* (typechecks and builds a CFG) and still *fails*
(the predicate returns True), and restart; stop at a fixpoint.  The
result is therefore

* **sound** — the minimised program still satisfies the predicate (only
  passing candidates are ever accepted), and
* **1-minimal** — no single further edit from
  :func:`shrinkable_variants` yields a valid program that still fails.

The predicate sees a :class:`~repro.lang.ast.FunctionDef` and must be
deterministic (the differential harness re-runs the failing oracle).
Invalid candidates are filtered *before* the predicate runs, so oracle
predicates never see ill-typed programs.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..lang.ast import (
    Block,
    ForStmt,
    FunctionDef,
    IfStmt,
    Stmt,
    WhileStmt,
)
from ..lang.cfg import CfgBuildError, build_program
from ..lang.typecheck import TypeCheckError, check_function

__all__ = ["shrink_function", "shrinkable_variants", "is_valid_function"]

#: Most predicate calls one :func:`shrink_function` makes.
MAX_STEPS = 5000


def is_valid_function(function: FunctionDef) -> bool:
    """True when the function typechecks and builds a transition system."""
    try:
        check_function(function)
        build_program(function, do_compact=True)
    except (TypeCheckError, CfgBuildError, ValueError):
        return False
    return True


# ----------------------------------------------------------------------
# One-edit variants
# ----------------------------------------------------------------------
def _stmt_variants(statement: Stmt) -> Iterator[Stmt]:
    """Variants of one statement with a single nested edit applied."""
    if isinstance(statement, Block):
        for variant in _block_variants(statement):
            yield variant
    elif isinstance(statement, IfStmt):
        for variant in _block_variants(statement.then_branch):
            yield IfStmt(
                statement.condition, variant, statement.else_branch,
                position=statement.position,
            )
        if statement.else_branch is not None:
            # Dropping the whole else-branch is an edit of its own.
            yield IfStmt(
                statement.condition, statement.then_branch, None,
                position=statement.position,
            )
            for variant in _block_variants(statement.else_branch):
                yield IfStmt(
                    statement.condition, statement.then_branch, variant,
                    position=statement.position,
                )
    elif isinstance(statement, WhileStmt):
        for variant in _block_variants(statement.body):
            yield WhileStmt(
                statement.condition, variant,
                label=statement.label, position=statement.position,
            )
    elif isinstance(statement, ForStmt):
        for variant in _block_variants(statement.body):
            yield ForStmt(
                statement.init, statement.condition, statement.update, variant,
                label=statement.label, position=statement.position,
            )


def _block_variants(block: Block) -> Iterator[Block]:
    """Every block with exactly one edit applied somewhere inside."""
    statements = block.statements
    for index, statement in enumerate(statements):
        rest = statements[index + 1 :]
        # 1. Delete the statement outright.
        yield Block(statements[:index] + rest)
        # 2. Flatten structured statements into their contents (keeps the
        #    failing payload when it lives inside the construct).
        if isinstance(statement, IfStmt):
            yield Block(
                statements[:index] + statement.then_branch.statements + rest
            )
            if statement.else_branch is not None:
                yield Block(
                    statements[:index] + statement.else_branch.statements + rest
                )
        elif isinstance(statement, (WhileStmt, ForStmt)):
            yield Block(statements[:index] + statement.body.statements + rest)
        elif isinstance(statement, Block):
            yield Block(statements[:index] + statement.statements + rest)
        # 3. Recurse into the statement's own blocks.
        for variant in _stmt_variants(statement):
            yield Block(statements[:index] + (variant,) + rest)


def shrinkable_variants(function: FunctionDef) -> Iterator[FunctionDef]:
    """Every function one edit smaller than ``function`` (may be invalid)."""
    for body in _block_variants(function.body):
        yield FunctionDef(function.name, function.params, body)


# ----------------------------------------------------------------------
# The greedy loop
# ----------------------------------------------------------------------
def shrink_function(
    function: FunctionDef, predicate: Callable[[FunctionDef], bool]
) -> FunctionDef:
    """Greedily minimise ``function`` while ``predicate`` keeps failing it.

    ``predicate(candidate) is True`` means "still exhibits the failure".
    Raises ``ValueError`` if the original function does not satisfy the
    predicate (nothing to shrink).  :data:`MAX_STEPS` bounds the total
    number of candidate evaluations (predicate calls); on exhaustion the
    best reduction so far is returned.
    """
    if not predicate(function):
        raise ValueError("shrink_function: the original program must fail the predicate")
    steps = 0
    progress = True
    while progress and steps < MAX_STEPS:
        progress = False
        for candidate in shrinkable_variants(function):
            if steps >= MAX_STEPS:
                break
            if not is_valid_function(candidate):
                continue
            steps += 1
            if predicate(candidate):
                function = candidate
                progress = True
                break
    return function
