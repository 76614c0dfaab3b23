"""Command-line interface: coefficient tables, polynomials, characters, and
the verification suites, with text, JSON, or CSV output.

Exit codes: 0 on success, 1 when a verification suite reports a failing
case, 2 on usage errors, 141 when the reader closes stdout early.  An
argument outside the domain of the code that reads it, a bound flag the
suite does not use, and a bound so small that the suite runs no case are
usage errors.  Large integers are emitted as decimal strings in JSON, at
any length, so nothing is lost to floating point.
"""

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote

from .klnumbers import (
    KLTable,
    _epw2_residual,
    c_closed,
    check_logconcave,
    d_bruteforce,
    d_cayley,
    kl_poly,
)
from .polynomial import UniPoly, _need
from .series import USeries, check_functional_equation, g_series, phi_from_table
from .symreps import hook_dimension, ih_rep, lemma_key_check, lemma_key_expected, verify_main2


# One suite run: the verdict of each case, one byte each (1 passed, 0 failed),
# the failing cases as (inputs, expected, actual, passed) tuples, and its wall time.
SuiteReport = namedtuple("SuiteReport", "cases failures wall_time")


def suite_closed_vs_recursion(n_max: int = 25):
    """Closed form against the double-sum recursion, including indices past
    the vanishing threshold."""
    table = KLTable(n_max)
    for n in range(2, n_max + 1):
        for i in range((n - 2) // 2 + 3):
            yield "n=%d i=%d" % (n, i), c_closed(n, i), table.get(n, i)


def suite_chords(m_max: int = 12):
    """Dissection closed form against brute-force enumeration, and the
    coefficient identity c(n, i) = d(n-i+1, i)."""
    d_bruteforce(max(m_max, 3), 0)  # its own cap refuses m_max before any case; m_max < 3 runs none
    for m in range(3, m_max + 1):
        for k in range(m - 1):
            yield "m=%d k=%d" % (m, k), d_cayley(m, k), d_bruteforce(m, k)
    for n in range(2, m_max + 1):
        for i in range(1, n - 1):
            j = n - i + 1
            yield "c(%d,%d) = d(%d,%d)" % (n, i, j, i), c_closed(n, i), d_bruteforce(j, i)


def suite_epw2(n_max: int = 20):
    """Degree-reversal identity: the residual must be the zero polynomial.
    One row list [0, P_2, ..., P_n] grows by P_n per n, so each row is built
    once."""
    rows = [UniPoly()]
    for n in range(2, n_max + 1):
        rows.append(kl_poly(n))
        yield "n=%d" % n, UniPoly(), _epw2_residual(rows)


def suite_functional_eq(order: int = 12):
    """Substitution identity residual, and the dissection series against the
    table series, both at the given truncation order."""
    residual = check_functional_equation(order)  # refuses order < 2 before USeries does
    zero = USeries(order)
    yield "residual at order %d" % order, zero, residual
    g = g_series(order)
    yield "g = phi at order %d" % order, phi_from_table(order), g
    yield "residual with phi := g at order %d" % order, zero, check_functional_equation(order, g)


def suite_logconcave(n_max: int = 60):
    """Strict log-concavity of every coefficient row up to n_max."""
    label = "n=%d i=%d: %d^2 vs %d*%d (margin %d)"
    for n in range(2, n_max + 1):
        for t in check_logconcave(n):
            yield label % (n, t.i, t.middle, t.lower, t.upper, t.margin), True, t.strict


def suite_main2(n_max: int = 14):
    """Each cohomology character is the single irreducible [n-2i, 2^i], and
    both its virtual dimension and the hook-length dimension of the target
    shape agree with the closed form."""
    for n in range(2, n_max + 1):
        for i in range((n - 2) // 2 + 1):
            target = (n - 2 * i,) + (2,) * i
            expected = c_closed(n, i)
            yield "ih(%d,%d) irreducible" % (n, i), True, verify_main2(n, i)
            yield "dim ih(%d,%d)" % (n, i), expected, ih_rep(n, i).dimension()
            yield "hook dim %s" % (target,), expected, hook_dimension(target)


def suite_lemma_key(n_max: int = 12):
    """The two-coefficient pattern over every admissible (n, i, p, q)."""
    for n in range(2, n_max + 1):
        for i in range((n - 2) // 2 + 1):
            for p in range(1, min(2 * i, n - 1) + 1):
                for q in range(min(i, 2 * i - p) + 1):
                    yield (
                        "n=%d i=%d p=%d q=%d" % (n, i, p, q),
                        lemma_key_expected(n, i, p, q),
                        lemma_key_check(n, i, p, q),
                    )


# Each suite and its bound flag, as typed and as messages name it: `verify` accepts only these.
_SUITES = {
    "closed-vs-recursion": (suite_closed_vs_recursion, "--n-max"),
    "chords": (suite_chords, "--m-max"),
    "epw2": (suite_epw2, "--n-max"),
    "functional-eq": (suite_functional_eq, "--order"),
    "logconcave": (suite_logconcave, "--n-max"),
    "main2": (suite_main2, "--n-max"),
    "lemma-key": (suite_lemma_key, "--n-max"),
}


def run_suite(name: str, bound=None, write_case=None) -> SuiteReport:
    """Run one named suite at the value of its bound option (None for its
    default).  Each (inputs, expected, actual) triple becomes the case
    (inputs, expected, actual, passed), handed to `write_case` as soon as it
    is made.  The suite makes `inputs`, the case label, as text; the sides
    are rendered with str() only when written.  The report keeps the
    verdicts, in a bytearray, and only the failing cases."""
    func = _SUITES[name][0]
    start = time.perf_counter()
    verdicts, failures = bytearray(), []
    for inputs, expected, actual in func() if bound is None else func(bound):
        passed = expected == actual
        case = (inputs, expected, actual, passed)
        verdicts.append(passed)
        if not passed:
            failures.append(case)
        if write_case is not None:
            write_case(case)
    wall_time = time.perf_counter() - start
    return SuiteReport(verdicts, failures, wall_time)


# Per `table` format: the text before the first row and before each later row,
# the row template of n and the joined coefficients, the joiner and the end.
# JSON rows, like the verify report below, take json.dumps(payload, indent=2)'s
# layout: a row is never empty (c(n, 0) = 1) and its decimals need no escaping.
_TABLE_FORMATS = {
    "text": ("", "", "n=%d: %s\n", " ", ""),
    "json": ("[\n", ",\n", '  {\n    "n": %d,\n    "coeffs": [\n      "%s"\n    ]\n  }',
             '",\n      "', "\n]\n"),
    "csv": ("", "", "%d,%s\n", ",", ""),
}
_VERIFY_SUITE_HEAD = '%s    {\n      "suite": %s,\n      "cases": [\n'
_VERIFY_CASE = (
    '        {\n          "inputs": %s,\n          "expected": %s,\n'
    '          "actual": %s,\n          "passed": %s\n        }'
)
_VERIFY_SUITE_TAIL = (
    '\n      ],\n      "passed": %d,\n      "failed": %d,\n'
    '      "wall_time_s": %r,\n      "ok": %s\n    }'
)
_JSON_BOOL = {True: "true", False: "false"}


def _separated(first, later):
    """A write that puts `first` before its first item and `later` before the rest."""
    separators = chain((first,), repeat(later))
    return lambda item: sys.stdout.write(next(separators) + item)


def _json_case_writer(head):
    """A write_case for one suite of the JSON report: `head` goes out with
    its first case, so a suite that runs no case writes nothing."""
    write = _separated(head, ",\n")

    def write_case(case):
        inputs, expected, actual, passed = case
        sides = _quote(inputs), _quote(str(expected)), _quote(str(actual))
        write(_VERIFY_CASE % (*sides, _JSON_BOOL[passed]))

    return write_case


def _print(args, payload, text) -> None:
    """Print `payload` as json.dumps(payload, indent=2) under --format json, else `text`."""
    print(json.dumps(payload, indent=2) if args.format == "json" else text)


def cmd_table(args) -> int:
    _need("n_max", args.n_max, 2)
    first, later, row, joiner, end = _TABLE_FORMATS[args.format]
    write = _separated(first, later)
    for n in range(2, args.n_max + 1):
        write(row % (n, joiner.join(map(str, kl_poly(n).coeffs))))
    sys.stdout.write(end)
    return 0


def cmd_poly(args) -> int:
    poly = kl_poly(args.n)
    payload = {"n": args.n, "coeffs": [str(c) for c in poly.coeffs]}
    _print(args, payload, poly)
    return 0


def cmd_reps(args) -> int:
    rep = ih_rep(args.n, args.i)
    dimension = rep.dimension()
    payload = {
        "n": args.n,
        "i": args.i,
        "terms": [
            {"partition": list(lam), "mult": str(rep.terms[lam])}
            for lam in sorted(rep.terms, reverse=True)
        ],
        "dimension": str(dimension),
    }
    _print(args, payload, "%s (dim %d)" % (rep, dimension) if rep else "0")
    return 0


def cmd_verify(args) -> int:
    bounds = {flag: getattr(args, flag[2:].replace("-", "_")) for _, flag in _SUITES.values()}
    names = [args.suite] if args.suite in _SUITES else list(_SUITES)  # the other choice is "all"
    used = {_SUITES[name][1] for name in names}
    for flag, value in bounds.items():
        if value is not None and flag not in used:
            raise ValueError("suite %s does not use %s" % (args.suite, flag))
    # The report is written as the suites run: the JSON report,
    # {"suites": [...], "ok": ...} in the bytes of
    # print(json.dumps(payload, indent=2)), one case at a time; the text
    # report, whose summary line needs the suite's counts, when each suite ends.
    as_json = args.format == "json"
    all_ok = True
    for index, name in enumerate(names):
        head = _VERIFY_SUITE_HEAD % (",\n" if index else '{\n  "suites": [\n', _quote(name))
        write_case = _json_case_writer(head) if as_json else None
        flag = _SUITES[name][1]
        try:
            report = run_suite(name, bounds[flag], write_case)
        except ValueError as exc:
            raise ValueError("suite %s: %s" % (name, exc)) from exc
        if not report.cases:
            raise ValueError("suite %s ran zero cases; raise its %s bound" % (name, flag))
        failed = len(report.failures)
        passed = len(report.cases) - failed
        all_ok = all_ok and not failed
        if as_json:
            wall = round(report.wall_time, 3)
            sys.stdout.write(_VERIFY_SUITE_TAIL % (passed, failed, wall, _JSON_BOOL[not failed]))
            continue
        print(
            "%s: %d cases, %d passed, %d failed (%.2fs)"
            % (name, len(report.cases), passed, failed, report.wall_time)
        )
        for inputs, expected, actual, _ in report.failures:
            print("  FAIL %s: expected %s, got %s" % (inputs, expected, actual))
    if as_json:
        sys.stdout.write('\n  ],\n  "ok": %s\n}\n' % _JSON_BOOL[all_ok])
    elif len(names) > 1:
        print("overall: %s" % ("all suites passed" if all_ok else "FAILURES"))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniform-kl",
        description="Exact Kazhdan-Lusztig coefficients of uniform matroids, "
        "with cross-checked computation routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="coefficient table for 2 <= n <= N")
    p.add_argument("--n-max", type=int, required=True, metavar="N")
    p.add_argument("--format", choices=tuple(_TABLE_FORMATS), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("poly", help="one Kazhdan-Lusztig polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("reps", help="cohomology character for one (n, i)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    for flag in dict.fromkeys(flag for _, flag in _SUITES.values()):
        p.add_argument(flag, type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Exact decimals past 4,300 digits; argparse's int() above stays capped.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:  # a refusal comes before its command's or its suite's first write
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe: quiet the interpreter's final flush and
        # exit as a shell reports death by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
