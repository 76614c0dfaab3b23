"""Every invariant check raises an exception, so it survives `python -O`.

Most checks guard results that the mathematics guarantees, so they are
triggered by patching the helper whose result they check.  All of them run
in one subprocess with assertions stripped.  A static check finds no
`assert` statement in the package, so checks added later survive too.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r'''
import sys
from contextlib import ExitStack
from unittest import mock

import uniform_kl.klnumbers as klnumbers
import uniform_kl.series as series
import uniform_kl.symreps as symreps
from uniform_kl.polynomial import UniPoly
from uniform_kl.series import USeries

if not sys.flags.optimize:
    sys.exit("assertions are not stripped")


def expect(name, func, *patches):
    with ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        try:
            func()
        except ArithmeticError:
            print(name)


one = lambda *args: 1
expect("c_closed", lambda: klnumbers.c_closed(5, 1), mock.patch.object(klnumbers.math, "comb", one))
expect(
    "kl_poly step",
    lambda: klnumbers.kl_poly(8),
    mock.patch.object(klnumbers, "divmod", lambda a, b: (a // b, 1), create=True),
)
expect("d_cayley", lambda: klnumbers.d_cayley(5, 1), mock.patch.object(klnumbers.math, "comb", one))
expect(
    "hook_dimension",
    lambda: symreps.hook_dimension((2, 1)),
    mock.patch.object(symreps.math, "factorial", one),
)
expect("divexact", lambda: UniPoly((1,)).divexact(UniPoly((2,))))
expect("sqrt halving", lambda: USeries(4, [1, 1]).sqrt())
expect(
    "sqrt squaring",
    lambda: USeries(4, [1, -2, 1]).sqrt(),
    # add 1 to the last root coefficient y_3 (divided by 2k = 6), which no step reads
    mock.patch.object(
        UniPoly,
        "divexact",
        lambda self, other, exact=UniPoly.divexact: exact(self, other)
        + UniPoly((1 if other == 6 else 0,)),
    ),
)
expect(
    "beckwith_f integrality",
    lambda: series.beckwith_f(4),
    mock.patch.object(USeries, "sqrt", lambda self: USeries(self.order, [1])),
)
expect(
    "g_series vanishing",
    lambda: series.g_series(4),
    mock.patch.object(series, "beckwith_f", lambda order: USeries(order, [1])),
)
'''

EXPECTED = [
    "c_closed",
    "kl_poly step",
    "d_cayley",
    "hook_dimension",
    "divexact",
    "sqrt halving",
    "sqrt squaring",
    "beckwith_f integrality",
    "g_series vanishing",
]


def test_invariant_checks_raise_under_optimize():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == EXPECTED, proc.stdout


def test_no_assert_statement_in_source():
    # `python -O` strips every assert, so a check written as one would vanish
    found = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path in sorted((SRC / "uniform_kl").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
