"""Pretty printers for transition systems and paths.

The textual renderings are used by the examples, the experiment harness and
the documentation; they mirror the notation of the paper's figures:
assumptions are printed in square brackets and updates with ``:=``.
"""

from __future__ import annotations

from typing import Sequence

from .cfg import Program, Transition

__all__ = ["format_program", "format_transition", "format_path", "program_to_dot"]


def format_transition(transition: Transition) -> str:
    label = "; ".join(str(command) for command in transition.commands)
    return f"  {transition.source} --[{label}]--> {transition.target}"


def format_program(program: Program) -> str:
    """A human-readable listing of a transition system."""
    lines = [
        f"program {program.name}",
        f"  variables: {', '.join(program.variables) or '(none)'}",
        f"  arrays:    {', '.join(program.arrays) or '(none)'}",
        f"  initial:   {program.initial}",
        f"  error:     {program.error}",
        "  transitions:",
    ]
    for transition in sorted(program.transitions, key=lambda t: (t.source.name, t.target.name)):
        lines.append("  " + format_transition(transition))
    return "\n".join(lines)


def format_path(transitions: Sequence[Transition]) -> str:
    """Render an error path as a numbered list of transitions."""
    lines = []
    for index, transition in enumerate(transitions):
        label = "; ".join(str(command) for command in transition.commands)
        lines.append(f"  {index}: {transition.source} --[{label}]--> {transition.target}")
    return "\n".join(lines)


def program_to_dot(program: Program) -> str:
    """A Graphviz rendering of the control-flow graph."""
    lines = [f'digraph "{program.name}" {{', "  rankdir=TB;"]
    for location in program.locations:
        shape = "doublecircle" if location == program.error else "circle"
        if location == program.initial:
            shape = "box"
        lines.append(f'  "{location.name}" [shape={shape}];')
    for transition in program.transitions:
        label = "; ".join(str(command) for command in transition.commands)
        label = label.replace('"', "'")
        lines.append(
            f'  "{transition.source.name}" -> "{transition.target.name}" [label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines)
