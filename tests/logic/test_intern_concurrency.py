"""Concurrent hash-consing: the intern tables must stay canonical under
multi-threaded construction.

The daemon's thread backend (``repro serve``, the default
``--worker-backend thread``) runs one engine per executor thread in a single
process, so SSA renaming, skolemisation and store resolution construct terms
and formulas from several threads at once.  Hash-consing promises
``Var("x") is Var("x")`` process-wide; without the intern lock two racing
threads could both insert, silently breaking the identity guarantee the
logic layer's caches and the solver's memo tables rely on.  These tests
hammer the miss path from many threads and assert canonicality afterwards.
"""

import threading

from repro.logic.formulas import (
    Atom,
    Forall,
    Not,
    conjoin,
    disjoin,
    le,
    negate,
)
from repro.logic.terms import INTERN_LOCK, Var, clear_intern_caches, const, read, var

THREADS = 8
ROUNDS = 60


def _build_family(salt: int):
    """A mixed bag of terms/formulas every thread constructs identically."""
    objects = []
    for i in range(8):
        x = var(f"cc_x{i}")
        y = var(f"cc_y{(i + salt) % 8}")
        expr = x + y * 3 + const(i)
        atom = le(expr, const(10))
        objects.extend([x, y, expr, atom])
        objects.append(conjoin([atom, le(y, const(i))]))
        objects.append(disjoin([atom, negate(atom)]))
        objects.append(negate(conjoin([atom, negate(atom)])))
        objects.append(read("cc_a", x))
        objects.append(
            Forall(Var(f"cc_k{i}"), le(read("cc_a", var(f"cc_k{i}")), const(0)))
        )
    return objects


class TestConcurrentInterning:
    def test_identity_survives_a_thread_stampede(self):
        clear_intern_caches()
        barrier = threading.Barrier(THREADS)
        results: list[list] = [None] * THREADS
        errors: list[BaseException] = []

        def stampede(slot: int) -> None:
            try:
                barrier.wait()
                built = []
                for round_no in range(ROUNDS):
                    built = _build_family(round_no % 3)
                results[slot] = built
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=stampede, args=(slot,)) for slot in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors

        # Every thread's last build must be the *same interned objects* —
        # and a fresh main-thread build must alias them too.
        reference = _build_family(2)
        for slot in range(THREADS):
            assert results[slot] is not None, f"thread {slot} never finished"
            for ours, theirs in zip(reference, results[slot]):
                assert ours is theirs, (ours, theirs)

    def test_no_duplicate_vars_after_concurrent_misses(self):
        clear_intern_caches()
        names = [f"dup_{i}" for i in range(32)]
        barrier = threading.Barrier(THREADS)

        def hammer() -> None:
            barrier.wait()
            for _ in range(ROUNDS):
                for name in names:
                    Var(name)

        threads = [threading.Thread(target=hammer) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # One interned instance per name, not one per racing thread.
        for name in names:
            assert Var._intern[name] is Var(name)
        assert len([n for n in Var._intern if n.startswith("dup_")]) == len(names)

    def test_clear_is_safe_under_the_lock(self):
        # clear + rebuild race: equality stays structural across generations
        # even if identity resets, and nothing deadlocks (RLock: re-entrant
        # from the constructors the clear callbacks may invoke).
        with INTERN_LOCK:
            clear_intern_caches()
            before = le(var("gen_x"), const(1))
        clear_intern_caches()
        after = le(var("gen_x"), const(1))
        assert before == after
        assert isinstance(after, Atom) and isinstance(negate(after), Atom)
        assert isinstance(Not(after), Not)
