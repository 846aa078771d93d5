"""Path programs (Section 3 of the paper).

Given a program ``P`` and an error path ``pi``, the path program ``P[pi]`` is
the counterexample object used for refinement: it contains one location per
path position, the transitions of the path, and — at the position where each
*nested block* of the path is exited — a "hatted" copy of that block through
which the path program can iterate the block arbitrarily often.  ``P[pi]``
therefore represents the whole family of error paths obtained from ``pi`` by
unwinding its loops, while using no transition that does not occur in ``pi``.

The nested blocks of a path are recovered by structurally parsing the
sequence of visited locations: the outermost repeated location delimits a
block occurrence; its iterations are delimited by the repeats of that
location and are parsed recursively.  On the example of Figure 4 this
produces exactly the block structure and transition set printed in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..lang.cfg import Location, Program, Transition
from ..lang.commands import Skip

__all__ = ["Block", "PathProgram", "nested_blocks", "build_path_program"]


@dataclass(frozen=True)
class Block:
    """A nested block of an error path.

    ``start``/``end`` are path positions (indices into the location sequence);
    ``end`` is the last revisit of the block's header, which is where the
    hatted copy is attached.  ``locations`` is the set of program locations
    the block spans.
    """

    header: Location
    start: int
    end: int
    locations: frozenset[Location]

    def __str__(self) -> str:
        names = ", ".join(sorted(l.name for l in self.locations))
        return f"Block({self.header}, [{self.start}..{self.end}], {{{names}}})"


@dataclass
class PathProgram:
    """The path program ``P[pi]`` together with its provenance."""

    program: Program
    path: tuple[Transition, ...]
    blocks: tuple[Block, ...]
    #: Maps every path-program location back to the original location.
    origin: dict[Location, Location] = field(default_factory=dict)

    def locations_of(self, original_location: Location) -> list[Location]:
        """Path-program locations corresponding to an original location."""
        return [pp for pp, orig in self.origin.items() if orig == original_location]


# ----------------------------------------------------------------------
# Nested-block analysis
# ----------------------------------------------------------------------
def nested_blocks(locations: Sequence[Location]) -> list[Block]:
    """The nested blocks of a location sequence (recursively parsed)."""
    blocks: list[Block] = []
    _parse_blocks(locations, 0, len(locations) - 1, blocks)
    blocks.sort(key=lambda b: (b.start, -(b.end - b.start)))
    return blocks


def _parse_blocks(
    locations: Sequence[Location], start: int, end: int, out: list[Block]
) -> None:
    """Parse positions ``[start..end]`` for block occurrences."""
    position = start
    while position <= end:
        header = locations[position]
        occurrences = [
            p for p in range(position, end + 1) if locations[p] == header
        ]
        if len(occurrences) < 2:
            position += 1
            continue
        last = occurrences[-1]
        block_locations = frozenset(locations[position : last + 1])
        out.append(Block(header, position, last, block_locations))
        # Parse each iteration's interior separately: the second occurrence of
        # the header inside another iteration of an enclosing loop is *not*
        # part of this block occurrence.
        for first, second in zip(occurrences, occurrences[1:]):
            _parse_blocks(locations, first + 1, second - 1, out)
        position = last + 1


# ----------------------------------------------------------------------
# Path-program construction
# ----------------------------------------------------------------------
def build_path_program(program: Program, path: Sequence[Transition]) -> PathProgram:
    """Construct ``P[pi]`` for an error path ``pi`` of ``program``."""
    if not path:
        raise ValueError("cannot build a path program from an empty path")
    if path[0].source != program.initial:
        raise ValueError("error path must start at the initial location")

    locations = [path[0].source] + [t.target for t in path]
    blocks = nested_blocks(locations)
    block_exit: dict[int, Block] = {}
    for block in blocks:
        # At a shared exit position the maximal (outermost) block wins.
        existing = block_exit.get(block.end)
        if existing is None or len(block.locations) > len(existing.locations):
            block_exit[block.end] = block

    #: transitions of the path, deduplicated (T.pi in the paper)
    path_transitions: list[Transition] = []
    seen: set[tuple] = set()
    for transition in path:
        key = (transition.source, transition.commands, transition.target)
        if key not in seen:
            seen.add(key)
            path_transitions.append(transition)

    def plain(index: int) -> Location:
        return Location(f"{locations[index].name}#{index}")

    def hatted(original: Location, index: int) -> Location:
        return Location(f"{original.name}#{index}^")

    origin: dict[Location, Location] = {}
    new_locations: list[Location] = []
    new_transitions: list[Transition] = []

    for index, location in enumerate(locations):
        pp_location = plain(index)
        new_locations.append(pp_location)
        origin[pp_location] = location

    # The transitions of the path itself.
    for index, transition in enumerate(path):
        new_transitions.append(
            Transition(plain(index), transition.commands, plain(index + 1))
        )

    # Hatted block copies at block-exit positions.
    for index, block in sorted(block_exit.items()):
        anchor = plain(index)
        bridge_commands = (Skip(),)
        hat_of: dict[Location, Location] = {}
        for location in sorted(block.locations, key=lambda l: l.name):
            hat = hatted(location, index)
            hat_of[location] = hat
            new_locations.append(hat)
            origin[hat] = location
        new_transitions.append(Transition(anchor, bridge_commands, hat_of[locations[index]]))
        new_transitions.append(Transition(hat_of[locations[index]], bridge_commands, anchor))
        for transition in path_transitions:
            if transition.source in block.locations and transition.target in block.locations:
                new_transitions.append(
                    Transition(
                        hat_of[transition.source],
                        transition.commands,
                        hat_of[transition.target],
                    )
                )

    initial = plain(0)
    error = plain(len(locations) - 1)
    pp = Program(
        name=f"{program.name}[pi]",
        variables=program.variables,
        arrays=program.arrays,
        locations=tuple(new_locations),
        initial=initial,
        error=error,
        transitions=tuple(new_transitions),
    )
    return PathProgram(pp, tuple(path), tuple(blocks), origin)
