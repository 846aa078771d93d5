"""No true division in the solver layers: ``src/repro/logic``,
``src/repro/smt`` and ``src/repro/invgen`` contain no ``/`` or ``/=``.

Python's ``int / int`` is a float, and coefficients, bounds and values are
plain ints whenever they are integral, so one stray ``/`` would put a float
into a linear expression or the simplex tableau and make answers depend on
rounding.  Divide with :func:`repro.logic.terms.exact_div` instead; it
divides with ``divmod`` and ``Fraction``, so it needs no exemption here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("logic", "smt", "invgen")


def test_no_true_division_in_the_solver_layers():
    found = []
    for layer in LAYERS:
        for path in sorted((ROOT / "src" / "repro" / layer).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    found.append((str(path.relative_to(ROOT)), node.lineno))
    sites = [f"{path}:{line}" for path, line in sorted(found)]
    assert not sites, "true division (use exact_div):\n" + "\n".join(sites)
