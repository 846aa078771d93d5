"""Every part of a checker memo key hashes from a value computed once.

The edge, post and triple memos of :class:`~repro.smt.vcgen.VcChecker` are
keyed by ``(state, transition)``, ``(state, transition, predicate)`` and
``(pre, commands, post)``.  Formulas and frozensets cache their hashes;
locations, transitions and commands keep theirs from first use
(:class:`~repro.lang.commands.HashedOnce`).  The kept value must be the
dataclass hash of the field tuple, the value an uncached frozen dataclass
computes, because hash values fix set iteration order and with it the
solver counters; and an unpickled part must compute its own under the
receiving process's hash seed.  The cached structural queries of formulas
(``touched_names()``, the rendering) must equal what they cache.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Session, VerifierOptions
from repro.lang import PROGRAMS, program_from_source
from repro.logic.formulas import FALSE, TRUE, And, Atom, Forall, Not, Or
from repro.testgen import fuzz_options, generate_corpus

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")

#: The pinned corpus of the benchmark's ``generated`` workload.
CORPUS = generate_corpus(2, 100)


def _tasks():
    """``(name, source, options)`` of the paper suite and the pinned corpus,
    with their benchmark budgets."""
    for name, program in sorted(PROGRAMS.items()):
        if name != "partition":
            budget = 5 if name == "initcheck_buggy" else 8
            yield name, program.source, VerifierOptions(max_refinements=budget)
    for program in CORPUS:
        yield program.name, program.source, fuzz_options()


@pytest.fixture(scope="module")
def programs():
    """Every built-in and every pinned-corpus program, parsed."""
    sources = [program.source for program in PROGRAMS.values()]
    sources += [program.source for program in CORPUS]
    return [program_from_source(source) for source in sources]


@pytest.fixture(scope="module")
def run_formulas():
    """Every interned formula after a cold run of each task."""
    for name, source, options in _tasks():
        Session(options).run(source, name=name)
    tables = (Atom._intern, And._intern, Or._intern, Not._intern, Forall._intern)
    return [TRUE, FALSE] + [formula for table in tables for formula in table.values()]


def _field_tuple(value):
    return tuple(getattr(value, field.name) for field in dataclasses.fields(value))


def _parts(program):
    """The locations, transitions and commands of ``program``."""
    yield from program.locations
    for transition in program.transitions:
        yield transition
        yield from transition.commands


def test_parts_hash_their_field_tuple(programs):
    kinds = set()
    for program in programs:
        for part in _parts(program):
            assert hash(part) == hash(_field_tuple(part)), part
            kinds.add(type(part).__name__)
    assert kinds == {
        "Location", "Transition", "Assume", "Assign", "ArrayAssign", "Havoc", "Skip"
    }


_PICKLE_PROGRAMS = """
import pickle, sys
from repro.lang import get_program, program_from_source
from repro.testgen import generate_corpus

programs = [get_program(name) for name in ("forward", "array_init_nonneg", "initcheck")]
programs += [program_from_source(program.source) for program in generate_corpus(2, 10)]
for program in programs:  # every part keeps this process's hash
    for transition in program.transitions:
        hash(transition)
sys.stdout.buffer.write(pickle.dumps((hash("probe"), programs)))
"""


def test_a_program_pickled_under_another_hash_seed_hashes_as_here():
    other = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    completed = subprocess.run(
        [sys.executable, "-c", _PICKLE_PROGRAMS],
        capture_output=True, check=True,
        env={"PYTHONPATH": SRC_ROOT, "PYTHONHASHSEED": other, "PATH": "/usr/bin:/bin"},
    )
    probe, loaded = pickle.loads(completed.stdout)
    assert probe != hash("probe"), "the writer must hash strings differently"
    sources = [PROGRAMS[name].source for name in ("forward", "array_init_nonneg", "initcheck")]
    sources += [program.source for program in CORPUS[:10]]
    for program, source in zip(loaded, sources, strict=True):
        here = program_from_source(source)
        assert program.transitions == here.transitions
        index = {transition: i for i, transition in enumerate(here.transitions)}
        for i, transition in enumerate(program.transitions):
            assert hash(transition) == hash(here.transitions[i])
            assert index[transition] == i
        for part in _parts(program):
            assert hash(part) == hash(_field_tuple(part)), part


def test_touched_names_match_the_uncached_computation(run_formulas):
    for formula in run_formulas:
        names = formula.touched_names()
        assert names == {v.name for v in formula.variables()} | formula.arrays()
        assert formula.touched_names() is names


def test_renderings_match_the_uncached_computation(run_formulas):
    for formula in run_formulas:
        rendered = str(formula)
        assert rendered == formula._render()
        assert str(formula) is rendered
