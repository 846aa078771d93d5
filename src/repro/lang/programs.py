"""Built-in benchmark programs.

The first three programs are verbatim translations of the paper's examples
(Figures 1-3).  The remaining programs form the extended suite used by the
Section-6 style comparison (programs whose proofs need quantified or
relational loop invariants, plus buggy variants that exercise the
falsification path of the CEGAR loop).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import Program, program_from_source

__all__ = [
    "BenchmarkProgram",
    "PROGRAMS",
    "FORWARD",
    "INITCHECK",
    "PARTITION",
    "get_program",
    "get_source",
    "list_programs",
    "safe_programs",
    "unsafe_programs",
]


# ----------------------------------------------------------------------
# The paper's examples
# ----------------------------------------------------------------------

#: Figure 1(a): the correctness argument couples the counter with the data
#: variables (`a + b == 3 * i` throughout the loop).
FORWARD = """
void forward(int n) {
  int i, a, b;
  assume(n >= 0);
  i = 0;
  a = 0;
  b = 0;
  while (i < n) {
    if (*) {
      a = a + 1;
      b = b + 2;
    } else {
      a = a + 2;
      b = b + 1;
    }
    i = i + 1;
  }
  assert(a + b == 3 * n);
}
"""

#: Figure 2(a): initialise an array and then check every element; the proof
#: needs the universally quantified invariant `forall k: 0 <= k < i -> a[k] = 0`.
INITCHECK = """
void init_check(int a[], int n) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = 0;
  }
  for (i = 0; i < n; i++) {
    assert(a[i] == 0);
  }
}
"""

#: Figure 3: partition an array into non-negative and negative elements; the
#: proof needs one quantified invariant per output array, found by two
#: successive path programs.
PARTITION = """
void partition(int a[], int n) {
  int i, gelen, ltlen;
  int ge[n], lt[n];
  gelen = 0;
  ltlen = 0;
  for (i = 0; i < n; i++) {
    if (a[i] >= 0) {
      ge[gelen] = a[i];
      gelen = gelen + 1;
    } else {
      lt[ltlen] = a[i];
      ltlen = ltlen + 1;
    }
  }
  for (i = 0; i < gelen; i++) {
    assert(ge[i] >= 0);
  }
  for (i = 0; i < ltlen; i++) {
    assert(lt[i] < 0);
  }
}
"""

#: Section 6: the buggy variant of INITCHECK (there *is* an error trace).
INITCHECK_BUGGY = """
void init_check_buggy(int a[]) {
  int i;
  for (i = 0; i < 100; i++) {
    a[i] = 1;
  }
  assert(a[0] == 0);
}
"""


# ----------------------------------------------------------------------
# Extended suite
# ----------------------------------------------------------------------

FORWARD_BUGGY = """
void forward_buggy(int n) {
  int i, a, b;
  assume(n >= 1);
  i = 0;
  a = 0;
  b = 0;
  while (i < n) {
    if (*) {
      a = a + 1;
      b = b + 2;
    } else {
      a = a + 2;
      b = b + 1;
    }
    i = i + 1;
  }
  assert(a + b == 3 * n + 1);
}
"""

DOUBLE_COUNTER = """
void double_counter(int n) {
  int i, a;
  assume(n >= 0);
  i = 0;
  a = 0;
  while (i < n) {
    a = a + 2;
    i = i + 1;
  }
  assert(a == 2 * n);
}
"""

UP_DOWN = """
void up_down(int n) {
  int i, x, y;
  assume(n >= 0);
  i = 0;
  x = 0;
  y = n;
  while (i < n) {
    x = x + 1;
    y = y - 1;
    i = i + 1;
  }
  assert(x + y == n);
}
"""

ARRAY_INIT_CONST = """
void array_init_const(int a[], int n) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = 5;
  }
  for (i = 0; i < n; i++) {
    assert(a[i] == 5);
  }
}
"""

ARRAY_INIT_VAR = """
void array_init_var(int a[], int n, int c) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = c;
  }
  for (i = 0; i < n; i++) {
    assert(a[i] == c);
  }
}
"""

ARRAY_INIT_NONNEG = """
void array_init_nonneg(int a[], int n) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = i;
  }
  for (i = 0; i < n; i++) {
    assert(a[i] >= 0);
  }
}
"""

ARRAY_COPY = """
void array_copy(int a[], int b[], int n) {
  int i;
  for (i = 0; i < n; i++) {
    b[i] = a[i];
  }
  for (i = 0; i < n; i++) {
    assert(b[i] == a[i]);
  }
}
"""

ARRAY_INIT_BUGGY = """
void array_init_buggy(int a[], int n) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = 1;
  }
  for (i = 0; i < n; i++) {
    assert(a[i] == 0);
  }
}
"""

SIMPLE_SAFE = """
void simple_safe(int x) {
  int y;
  assume(x >= 0);
  y = x + 1;
  assert(y >= 1);
}
"""

SIMPLE_UNSAFE = """
void simple_unsafe(int x) {
  int y;
  assume(x >= 0);
  y = x - 1;
  assert(y >= 0);
}
"""

DIAMOND_SAFE = """
void diamond_safe(int x) {
  int y;
  if (x >= 0) {
    y = x;
  } else {
    y = 0 - x;
  }
  assert(y >= 0);
}
"""

LOCK_STEP = """
void lock_step(int n) {
  int i, j;
  assume(n >= 0);
  i = 0;
  j = 0;
  while (i < n) {
    i = i + 1;
    j = j + 1;
  }
  assert(i == j);
}
"""


@dataclass(frozen=True)
class BenchmarkProgram:
    """A named benchmark with its expected verification verdict."""

    name: str
    source: str
    expected_safe: bool
    description: str


PROGRAMS: dict[str, BenchmarkProgram] = {
    program.name: program
    for program in [
        BenchmarkProgram(
            "forward", FORWARD, True,
            "Figure 1(a): counter/data coupling, invariant a+b = 3i",
        ),
        BenchmarkProgram(
            "initcheck", INITCHECK, True,
            "Figure 2(a): initialise-then-check array, quantified invariant",
        ),
        BenchmarkProgram(
            "partition", PARTITION, True,
            "Figure 3: partition into non-negative/negative arrays",
        ),
        BenchmarkProgram(
            "initcheck_buggy", INITCHECK_BUGGY, False,
            "Section 6: buggy variant of INITCHECK with a real error trace",
        ),
        BenchmarkProgram(
            "forward_buggy", FORWARD_BUGGY, False,
            "FORWARD with an off-by-one assertion (real bug)",
        ),
        BenchmarkProgram(
            "double_counter", DOUBLE_COUNTER, True,
            "Single counter doubled each iteration, invariant a = 2i",
        ),
        BenchmarkProgram(
            "up_down", UP_DOWN, True,
            "Two counters moving in opposite directions, invariant x+y = n",
        ),
        BenchmarkProgram(
            "array_init_const", ARRAY_INIT_CONST, True,
            "INITCHECK with a non-zero constant",
        ),
        BenchmarkProgram(
            "array_init_var", ARRAY_INIT_VAR, True,
            "INITCHECK with a symbolic fill value",
        ),
        BenchmarkProgram(
            "array_init_nonneg", ARRAY_INIT_NONNEG, True,
            "Array filled with the loop counter, inequality assertion",
        ),
        BenchmarkProgram(
            "array_copy", ARRAY_COPY, True,
            "Copy one array into another and check element-wise equality",
        ),
        BenchmarkProgram(
            "array_init_buggy", ARRAY_INIT_BUGGY, False,
            "Initialise with 1 but assert 0 (real bug)",
        ),
        BenchmarkProgram(
            "simple_safe", SIMPLE_SAFE, True,
            "Loop-free arithmetic, safe",
        ),
        BenchmarkProgram(
            "simple_unsafe", SIMPLE_UNSAFE, False,
            "Loop-free arithmetic, unsafe (x = 0 violates the assertion)",
        ),
        BenchmarkProgram(
            "diamond_safe", DIAMOND_SAFE, True,
            "Branching absolute value, safe",
        ),
        BenchmarkProgram(
            "lock_step", LOCK_STEP, True,
            "Two counters in lock step, invariant i = j",
        ),
    ]
}


def get_source(name: str) -> str:
    """Source text of a built-in benchmark."""
    return PROGRAMS[name].source


def get_program(name: str) -> Program:
    """The transition system of a built-in benchmark."""
    return program_from_source(PROGRAMS[name].source)


def list_programs() -> list[str]:
    return sorted(PROGRAMS)


def safe_programs() -> list[str]:
    return [name for name, program in sorted(PROGRAMS.items()) if program.expected_safe]


def unsafe_programs() -> list[str]:
    return [name for name, program in sorted(PROGRAMS.items()) if not program.expected_safe]
