"""Nothing under ``src/repro`` is defined, stored or settable that nothing uses.

The guards read the syntax trees of every Python file in ``src/``,
``tests/``, ``benchmarks/``, ``perfbench/`` and ``examples/``.  A name
counts as used only where code loads it: a ``Name`` or an ``Attribute`` in
load context, the original name of an aliased import (``import x as y``), a
string passed to ``getattr``/``hasattr``, or a string in perfbench's
``LAYER_ENTRY_POINTS`` (its tracer patches those entry points by name).
Expressions inside f-strings are part of the tree, so they count;
docstrings, comments and ``__all__`` entries are plain strings, so they do
not.  Six rules hold over ``src/repro``:

* every non-dunder function, method and class, and every module-level
  constant, is loaded somewhere outside its own definition;
* every attribute stored on ``self`` is loaded as an attribute somewhere;
* every dataclass field is loaded as an attribute somewhere, unless the
  class is passed to ``dataclasses.asdict``, which reads every field;
* every defaulted parameter is passed by some call of its function's name,
  by keyword or by position.  A class name calls its ``__init__`` (so does
  a subclass without one, and ``super().__init__`` in a subclass), and a
  call that unpacks ``*args`` or ``**kwargs`` may pass anything.  A
  closure's parameter whose default reads a variable is exempt: it binds a
  value of the enclosing scope (the engine's ``seal``), not a setting;
* every name a module imports is loaded in that module or listed in its
  ``__all__`` (a re-export).  ``from __future__`` imports are exempt.

The rules match names, not bindings: a dead definition that shares its name
with a live one goes unnoticed.  Calls are matched by the callee's name
too, so a parameter that only a callback's caller sets (``Thread(target=f,
kwargs=...)``) would be flagged; none is.  The ``test_planted_*`` tests pin
each rule on a small made-up module.
"""

import ast
import textwrap
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "perfbench", "examples")
DEFINING = Path("src", "repro")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _name_of(node):
    """The name a ``Name`` or an ``Attribute`` ends in (``None`` otherwise)."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _decorator_names(node):
    for decorator in node.decorator_list:
        yield _name_of(decorator.func if isinstance(decorator, ast.Call) else decorator)


class Corpus:
    """What the rules need to know of a set of files: the names code loads,
    the calls it makes, and what ``src/repro`` defines."""

    def __init__(self, files):
        """``files`` maps a path relative to the repository root to its text."""
        # name -> {(path, line)} of its loads as a bare name / as an attribute
        self.names = defaultdict(set)
        self.attributes = defaultdict(set)
        self.calls = []  # (callee names, positional count, keywords, unpacks)
        self.bases = defaultdict(set)  # class -> names of its bases
        self.inits = set()  # classes that define __init__
        self.asdict_classes = set()
        self.definitions = []  # (name, path, first line, last line)
        self.stored = []  # (attribute, path, line) stored on self
        self.fields = []  # (class, field, path, line) of dataclasses
        self.parameters = []  # (label, callee, is __init__, position, name, path, line)
        self.imports = []  # (bound name, path, line) not re-exported by __all__
        for path, text in sorted(files.items()):
            path = Path(path)
            tree = ast.parse(text)
            defining = path.is_relative_to(DEFINING)
            for node in ast.iter_child_nodes(tree):
                self._visit(node, path, defining, [])
            if defining:
                self._constants(tree, path)
                self._imports(tree, path)

    # -- scanning ---------------------------------------------------------
    def _visit(self, node, path, defining, scopes):
        """Record ``node`` and walk its children; ``scopes`` is the stack of
        enclosing class and function definitions."""
        where = (path, getattr(node, "lineno", 0))
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            self.names[node.id].add(where)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            self.attributes[node.attr].add(where)
        elif isinstance(node, ast.alias) and node.asname:
            for part in node.name.split("."):
                self.names[part].add(where)
        elif isinstance(node, ast.Call):
            self._call(node, where, scopes)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_name_of(target) == "LAYER_ENTRY_POINTS" for target in targets):
                for constant in ast.walk(node.value):
                    if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                        for part in constant.value.replace(":", ".").split("."):
                            self.attributes[part].add(where)
        elif isinstance(node, ast.ClassDef):
            self.bases[node.name] |= {_name_of(base) for base in node.bases}
            if any(isinstance(item, FUNCTIONS) and item.name == "__init__" for item in node.body):
                self.inits.add(node.name)
        if defining:
            self._define(node, path, scopes)
        if isinstance(node, (ast.ClassDef, *FUNCTIONS)):
            scopes = scopes + [node]
        for child in ast.iter_child_nodes(node):
            self._visit(child, path, defining, scopes)

    def _call(self, node, where, scopes):
        function = node.func
        callee = _name_of(function)
        classes = [scope for scope in scopes if isinstance(scope, ast.ClassDef)]
        if callee in ("getattr", "hasattr") and len(node.args) > 1:
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self.attributes[name.value].add(where)
        elif callee == "asdict" and node.args:
            argument = _name_of(node.args[0])
            if argument == "self" and classes:
                self.asdict_classes.add(classes[-1].name)
            elif argument is not None:
                self.asdict_classes.add(argument)
        if callee == "__init__" and isinstance(function.value, ast.Call) and classes:
            callees = {_name_of(base) for base in classes[-1].bases}  # super().__init__
        else:
            callees = {callee}
        self.calls.append((
            callees,
            sum(not isinstance(arg, ast.Starred) for arg in node.args),
            {keyword.arg for keyword in node.keywords},
            any(isinstance(arg, ast.Starred) for arg in node.args)
            or any(keyword.arg is None for keyword in node.keywords),
        ))

    def _define(self, node, path, scopes):
        if isinstance(node, (ast.ClassDef, *FUNCTIONS)) and not _is_dunder(node.name):
            self.definitions.append((node.name, path, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef) and "dataclass" in _decorator_names(node):
            for statement in node.body:
                if (
                    isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and "ClassVar" not in ast.unparse(statement.annotation)
                ):
                    self.fields.append((node.name, statement.target.id, path, statement.lineno))
        elif isinstance(node, FUNCTIONS):
            self._parameters(node, path, scopes[-1] if scopes else None)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if _name_of(node.value) == "self":
                self.stored.append((node.attr, path, node.lineno))

    def _parameters(self, node, path, owner):
        method = isinstance(owner, ast.ClassDef)
        if method and node.name == "__init__":
            label, callee, init = owner.name, owner.name, True
        elif _is_dunder(node.name):
            return
        else:
            label = f"{owner.name}.{node.name}" if method else node.name
            callee, init = node.name, False
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        first = len(positional) - len(arguments.defaults)
        if method and "staticmethod" not in _decorator_names(node):
            first -= 1  # the receiver is never passed by position
        slots = [
            (first + index, arg, default)
            for index, (arg, default) in enumerate(
                zip(positional[len(positional) - len(arguments.defaults):], arguments.defaults)
            )
        ] + [
            (None, arg, default)
            for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
            if default is not None
        ]
        for position, arg, default in slots:
            if isinstance(owner, FUNCTIONS) and any(
                isinstance(part, ast.Name) for part in ast.walk(default)
            ):
                continue  # a closure binding a value of its enclosing scope
            self.parameters.append((label, callee, init, position, arg.arg, path, arg.lineno))

    def _constants(self, tree, path):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not _is_dunder(name.id):
                            self.definitions.append(
                                (name.id, path, node.lineno, node.end_lineno)
                            )

    def _imports(self, tree, path):
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                _name_of(target) == "__all__" for target in node.targets
            ):
                exported |= {
                    constant.value for constant in ast.walk(node.value)
                    if isinstance(constant, ast.Constant)
                }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in exported:
                        self.imports.append((name, path, node.lineno))

    def _constructors(self, cls):
        """The names whose calls run ``cls.__init__``: the class and its
        subclasses that do not define their own."""
        names, pending = {cls}, [cls]
        while pending:
            base = pending.pop()
            for subclass, bases in self.bases.items():
                if base in bases and subclass not in names | self.inits:
                    names.add(subclass)
                    pending.append(subclass)
        return names

    # -- rules ------------------------------------------------------------
    def orphan_definitions(self):
        return sorted(
            f"{path}:{first}: {name}"
            for name, path, first, last in self.definitions
            if not any(
                where != path or not first <= line <= last
                for where, line in self.names[name] | self.attributes[name]
            )
        )

    def unread_attributes(self):
        return sorted({
            f"{path}:{line}: self.{name}"
            for name, path, line in self.stored
            if not self.attributes[name]
        })

    def unread_fields(self):
        return sorted(
            f"{path}:{line}: {owner}.{name}"
            for owner, name, path, line in self.fields
            if not self.attributes[name] and owner not in self.asdict_classes
        )

    def unused_imports(self):
        return sorted(
            f"{path}:{line}: {name}"
            for name, path, line in self.imports
            if not any(where == path for where, _ in self.names[name])
        )

    def unpassed_parameters(self):
        flagged = []
        for label, callee, init, position, name, path, line in self.parameters:
            names = self._constructors(callee) if init else {callee}
            if not any(
                callees & names
                and (unpacks or name in keywords or (position is not None and positional > position))
                for callees, positional, keywords, unpacks in self.calls
            ):
                flagged.append(f"{path}:{line}: {label}({name})")
        return sorted(flagged)


@pytest.fixture(scope="module")
def repository():
    return Corpus({
        path.relative_to(ROOT): path.read_text()
        for directory in SCANNED for path in (ROOT / directory).rglob("*.py")
    })


def test_every_definition_is_referenced(repository):
    orphans = repository.orphan_definitions()
    assert not orphans, "definitions nothing loads:\n" + "\n".join(orphans)


def test_every_stored_attribute_is_read(repository):
    unread = repository.unread_attributes()
    assert not unread, "attributes stored but never read:\n" + "\n".join(unread)


def test_every_dataclass_field_is_read(repository):
    unread = repository.unread_fields()
    assert not unread, "dataclass fields never read:\n" + "\n".join(unread)


def test_every_defaulted_parameter_is_passed(repository):
    unpassed = repository.unpassed_parameters()
    assert not unpassed, "defaulted parameters no call passes:\n" + "\n".join(unpassed)


def test_every_import_is_used(repository):
    unused = repository.unused_imports()
    assert not unused, "imports the module never loads:\n" + "\n".join(unused)


# ----------------------------------------------------------------------
# Each rule on a planted module (src/repro/planted.py) and its one user
# ----------------------------------------------------------------------
def _planted(module, user):
    return Corpus({
        "src/repro/planted.py": textwrap.dedent(module),
        "tests/test_planted.py": textwrap.dedent(user),
    })


def test_planted_name_mentioned_only_in_a_docstring_is_flagged():
    corpus = _planted(
        """
        LIMIT = 3

        def helper(depth):
            \"\"\"Count down from ``depth``, never past LIMIT.\"\"\"
            return helper(depth - 1) if depth else 0
        """,
        """
        \"\"\"helper() and LIMIT are described here.\"\"\"
        __all__ = ["helper", "LIMIT"]  # helper(LIMIT)
        """,
    )
    # A call of a function inside its own body is no use either.
    assert corpus.orphan_definitions() == [
        "src/repro/planted.py:2: LIMIT",
        "src/repro/planted.py:4: helper",
    ]


def test_planted_name_used_only_in_an_f_string_counts():
    corpus = _planted(
        """
        LIMIT = 3
        WIDTH = 4

        def helper():
            return 1
        """,
        """
        from repro.planted import LIMIT, WIDTH, helper

        print(f"{helper()!r} of {LIMIT:>{WIDTH}}")
        """,
    )
    assert corpus.orphan_definitions() == []


def test_planted_attribute_stored_but_never_read_is_flagged():
    corpus = _planted(
        """
        class Counter:
            def __init__(self):
                self.count = 0
                self.label = "counter"

            def bump(self):
                self.count += 1
        """,
        """
        from repro.planted import Counter

        counter = Counter()
        counter.bump()
        print(getattr(counter, "count"))
        """,
    )
    assert corpus.unread_attributes() == ["src/repro/planted.py:5: self.label"]


def test_planted_dataclass_field_nothing_reads_is_flagged():
    corpus = _planted(
        """
        from dataclasses import asdict, dataclass

        @dataclass
        class Record:
            kept: int
            dropped: int = 0

        @dataclass
        class Document:
            written: int

            def to_dict(self):
                return asdict(self)
        """,
        """
        from repro.planted import Document, Record

        record = Record(kept=1, dropped=2)
        print(record.kept, Document(written=3).to_dict())
        """,
    )
    assert corpus.unread_fields() == ["src/repro/planted.py:7: Record.dropped"]


def test_planted_defaulted_parameter_no_call_passes_is_flagged():
    corpus = _planted(
        """
        def scale(x, factor=2, offset=0, *, clamp=None):
            return x * factor + offset

        class Box:
            def __init__(self, size=1, label=""):
                self.size, self.label = size, label

            def grow(self, by=1):
                return Box(self.size + by, self.label)

        class Crate(Box):
            pass
        """,
        """
        from repro.planted import Crate, Box, scale

        scale(1, 3)
        scale(1, clamp=4)
        Crate(label="c").grow()
        """,
    )
    assert corpus.unpassed_parameters() == [
        "src/repro/planted.py:2: scale(offset)",
        "src/repro/planted.py:9: Box.grow(by)",
    ]


def test_planted_closure_default_bound_local_is_not_flagged():
    corpus = _planted(
        """
        def run(items, hooks):
            for item in items:
                def hook(item=item, size=len(items), limit=10):
                    return item, size, limit

                hooks.append(hook)
        """,
        """
        from repro.planted import run

        hooks = []
        run([1], hooks)
        print([hook() for hook in hooks])
        """,
    )
    assert corpus.unpassed_parameters() == ["src/repro/planted.py:4: hook(limit)"]


def test_planted_import_nothing_loads_is_flagged():
    corpus = _planted(
        """
        from __future__ import annotations

        import os.path
        import json as codec
        from typing import Iterable, Optional, Sequence
        from .formulas import TRUE

        __all__ = ["TRUE", "read"]

        def read(name: Optional[str]) -> Sequence[str]:
            return os.path.split(name)
        """,
        """
        from repro.planted import Iterable, read

        print(read("a/b"), Iterable)
        """,
    )
    # A load in another module does not count: only the importer's own do.
    assert corpus.unused_imports() == [
        "src/repro/planted.py:5: codec",
        "src/repro/planted.py:6: Iterable",
    ]
