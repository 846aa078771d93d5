"""Read-over-write: the definitional encoding against the split-per-read reference.

:func:`repro.smt.arrays.resolve_stores` gives each stored read one value
variable and one definition per store it passes, so the resolved formula
grows linearly with the path.  The encoding it replaced copied the whole
formula into a hit and a miss branch per read, doubling it with every read;
it is kept here, test-only, as the reference the new encoding must agree
with.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cex import path_commands
from repro.lang import get_program
from repro.logic.formulas import And, Not, Or, conjoin, disjoin, eq, le, lt, ne, negate
from repro.logic.terms import ArrayRead, LinExpr, const, read, var
from repro.smt.arrays import Store, ground_reads, resolve_stores
from repro.smt.solver import SmtSolver
from repro.smt.ssa import ssa_translate


def resolve_by_splitting(formula, stores):
    """Split on one stored read at a time, copying the formula per branch.

    Exponential in the number of reads, and it cannot resolve a read whose
    index reads a written array; the strategies below draw no such read.
    """
    while True:
        target = next(
            (r for r in sorted(ground_reads(formula), key=str) if r.array in stores),
            None,
        )
        if target is None:
            return formula
        store = stores[target.array]
        hit = formula.substitute_reads({target: store.value})
        miss = formula.substitute_reads(
            {target: LinExpr.make({ArrayRead(store.base, target.index): 1})}
        )
        formula = disjoin(
            [
                conjoin([eq(target.index, store.index), hit]),
                conjoin([ne(target.index, store.index), miss]),
            ]
        )


@st.composite
def store_chains(draw):
    """(formula, stores): 1-5 stores to ``a``, 1-4 reads, boolean structure."""
    names = ["i", "j", "k"][: draw(st.integers(2, 3))]

    def scalar():
        if draw(st.booleans()):
            return const(draw(st.integers(0, 2)))
        return var(draw(st.sampled_from(names))) + const(draw(st.integers(-1, 1)))

    versions = draw(st.integers(1, 5))
    stores = {
        f"a@{version}": Store(f"a@{version - 1}", scalar(), scalar())
        for version in range(1, versions + 1)
    }
    reads = [
        read(f"a@{draw(st.integers(0, versions))}", scalar())
        for _ in range(draw(st.integers(1, 4)))
    ]

    def atom():
        lhs = draw(st.sampled_from(reads))
        rhs = draw(st.sampled_from(reads)) if draw(st.booleans()) else scalar()
        return draw(st.sampled_from([eq, ne, le, lt]))(lhs, rhs)

    def formula(depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return atom()
        shape = draw(st.sampled_from(["and", "or", "not"]))
        if shape == "not":
            return negate(formula(depth - 1))
        parts = [formula(depth - 1) for _ in range(draw(st.integers(2, 3)))]
        return conjoin(parts) if shape == "and" else disjoin(parts)

    return formula(3), stores


@settings(max_examples=80, deadline=None)
@given(store_chains())
def test_definitions_agree_with_splitting(case):
    formula, stores = case
    resolved = resolve_stores(formula, stores)
    assert all(r.array == "a@0" for r in ground_reads(resolved))
    expected = SmtSolver().is_sat(resolve_by_splitting(formula, stores))
    assert SmtSolver().is_sat(resolved) == expected


def _tree_size(formula, sizes):
    """Node count of ``formula`` as a tree (memoised on the shared DAG)."""
    size = sizes.get(formula)
    if size is None:
        if isinstance(formula, (And, Or)):
            size = 1 + sum(_tree_size(arg, sizes) for arg in formula.args)
        elif isinstance(formula, Not):
            size = 1 + _tree_size(formula.arg, sizes)
        else:
            size = 1
        sizes[formula] = size
    return size


def initcheck_buggy_error_path(unrollings):
    """init; ``unrollings`` loop iterations; loop exit; the failing assert."""
    program = get_program("initcheck_buggy")
    transitions = program.transitions
    (init,) = [t for t in transitions if t.source == program.initial]
    (loop,) = [t for t in transitions if t.source == t.target]
    (error,) = [t for t in transitions if t.target == program.error]
    (leave,) = [t for t in transitions if (t.source, t.target) == (loop.source, error.source)]
    return path_commands([init, *[loop] * unrollings, leave, error])


def test_resolved_size_grows_linearly_with_the_unrolling():
    sizes = {}
    for unrollings in (5, 10, 20, 2000):
        translation = ssa_translate(initcheck_buggy_error_path(unrollings))
        assert len(translation.stores) == unrollings
        resolved = resolve_stores(translation.formula(), translation.stores)
        sizes[unrollings] = _tree_size(resolved, {})
    # The same increment per unrolling, down a store chain longer than the
    # recursion limit: affine in k, not doubling.
    step = (sizes[10] - sizes[5]) // 5
    assert step > 0
    for unrollings, size in sizes.items():
        assert size == sizes[5] + step * (unrollings - 5), unrollings
