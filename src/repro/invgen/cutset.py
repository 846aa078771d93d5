"""Cutsets and basic paths of a transition system.

A *cutset* is a set of locations such that every syntactic cycle of the CFG
passes through at least one of them (Section 3 of the paper); the invariant
synthesizer only places templates at cut-points and handles the straight-line
code between them with composed commands.  A *basic path* is a path between
two cut-points (or from the initial location, or to the error/exit locations)
that does not pass through a cut-point in between.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.cfg import Location, Program, Transition
from ..lang.commands import Command

__all__ = ["BasicPath", "cutpoints", "basic_paths"]


@dataclass(frozen=True)
class BasicPath:
    """A cut-point-free path ``source --transitions--> target``."""

    source: Location
    target: Location
    transitions: tuple[Transition, ...]

    @property
    def commands(self) -> tuple[Command, ...]:
        result: list[Command] = []
        for transition in self.transitions:
            result.extend(transition.commands)
        return tuple(result)

    def __str__(self) -> str:
        return f"{self.source} ->* {self.target} ({len(self.transitions)} transitions)"


def cutpoints(program: Program) -> set[Location]:
    """Loop heads of the program (targets of DFS back edges).

    For the reducible CFGs produced by the structured surface language (and by
    path-program construction) the loop heads form a cutset.  The initial
    location is *not* included; callers add it when they need the full
    anchor set.
    """
    return program.loop_heads()


def _anchor_set(program: Program) -> set[Location]:
    anchors = cutpoints(program)
    anchors.add(program.initial)
    anchors.add(program.error)
    return anchors


def basic_paths(program: Program) -> list[BasicPath]:
    """All basic paths between anchor locations (initial, cut-points, error).

    Paths ending in a location without outgoing transitions (a normal exit)
    are also reported, with that exit location as target; they carry no proof
    obligation but are useful for strongest-postcondition fill-in.
    """
    anchors = _anchor_set(program)
    paths: list[BasicPath] = []
    for source in sorted(anchors, key=lambda l: l.name):
        if source == program.error:
            continue
        paths.extend(_paths_from(program, source, anchors))
    return paths


def _paths_from(
    program: Program, source: Location, anchors: set[Location]
) -> list[BasicPath]:
    results: list[BasicPath] = []

    def explore(location: Location, prefix: list[Transition], visited: set[Location]) -> None:
        outgoing = program.outgoing(location)
        for transition in outgoing:
            target = transition.target
            if target in anchors:
                results.append(BasicPath(source, target, tuple(prefix + [transition])))
                continue
            if target in visited:
                # A cycle that avoids every anchor: treat the revisited
                # location as an additional anchor to guarantee termination.
                results.append(BasicPath(source, target, tuple(prefix + [transition])))
                continue
            explore(target, prefix + [transition], visited | {target})
        if not outgoing and prefix:
            # Normal exit; record the path so fill-in can reach exit locations.
            pass

    explore(source, [], {source})
    # Also record exit-terminated paths (targets with no outgoing edges).
    def explore_exits(location: Location, prefix: list[Transition], visited: set[Location]) -> None:
        for transition in program.outgoing(location):
            target = transition.target
            if target in anchors or target in visited:
                continue
            if not program.outgoing(target):
                results.append(BasicPath(source, target, tuple(prefix + [transition])))
            else:
                explore_exits(target, prefix + [transition], visited | {target})

    explore_exits(source, [], {source})
    return results

