"""Every non-dunder function, method and class under ``src/repro`` is used:
its name appears as an identifier in a Python file of ``src/``, ``tests/``,
``benchmarks/``, ``perfbench/`` or ``examples/`` other than on its own
definition line, in ``__all__``, or in an un-aliased ``from ... import`` of
an ``__init__.py``.  The check never flags a used name, but it matches
names only: a dead method sharing its name with a live one goes unnoticed.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_definition_is_referenced():
    defined = []
    mentions = defaultdict(set)  # name -> {(path, line)}
    for path in sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py")):
        text = path.read_text()
        skipped = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DEFINITIONS):
                if path.is_relative_to(ROOT / "src" / "repro") and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    defined.append((node.name, path, node.lineno))
            elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets
            ):
                skipped.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                skipped.update(range(node.lineno, node.end_lineno + 1))
                for alias in node.names:
                    if alias.asname:
                        mentions[alias.name].add((path, 0))
        for number, line in enumerate(text.splitlines(), 1):
            for name in IDENTIFIER.findall(line) if number not in skipped else ():
                mentions[name].add((path, number))
    orphans = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, path, line in defined
        if not mentions[name] - {(path, line)}
    ]
    assert not orphans, "definitions nothing references:\n" + "\n".join(orphans)


def test_every_stored_attribute_is_read():
    """Every ``self.<attr>`` stored under ``src/repro`` (assigned, augmented
    or annotated) is loaded as an attribute somewhere in the scanned trees;
    a string read through ``getattr``/``hasattr`` counts as a load.  Like the
    definition check it matches names only."""
    stored = []
    loaded = set()
    for path in sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py")):
        in_src = path.is_relative_to(ROOT / "src" / "repro")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    loaded.add(node.attr)
                elif in_src and getattr(node.value, "id", None) == "self":
                    stored.append((node.attr, path, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("getattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                loaded.add(node.args[1].value)
    unread = sorted(
        {f"{path.relative_to(ROOT)}:{line}: self.{name}"
         for name, path, line in stored if name not in loaded}
    )
    assert not unread, "attributes stored but never read:\n" + "\n".join(unread)
