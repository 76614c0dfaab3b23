"""Command-line behavior: rendering, JSON round-trips, exit codes."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from uniform_kl.cli import main
from uniform_kl.klnumbers import d_bruteforce, kl_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- table


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "4")
    assert code == 0
    assert out.splitlines() == ["n=2: 1", "n=3: 1", "n=4: 1 2"]
    code, out, _ = run(capsys, "table", "--n-max", "60")
    assert code == 0
    rows = range(2, 61)
    assert out == "".join("n=%d: %s\n" % (n, " ".join(map(str, kl_poly(n).coeffs))) for n in rows)


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"n": 2, "coeffs": ["1"]}]
    # re-rendering the parsed document reproduces the bytes exactly
    assert json.dumps(payload, indent=2) + "\n" == out


def test_table_json_large_values_are_strings(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "40", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = next(r for r in payload if r["n"] == 40)
    assert all(isinstance(c, str) for c in row["coeffs"])
    assert json.dumps(payload, indent=2) + "\n" == out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "logconcave", "--n-max", "80"),
        ("table", "--n-max", "30"),
        ("verify", "closed-vs-recursion", "--n-max", "10"),
        ("verify", "chords", "--m-max", "6"),
        ("verify", "epw2", "--n-max", "6"),
        ("verify", "functional-eq", "--order", "4"),
        ("verify", "main2", "--n-max", "6"),
        ("verify", "lemma-key", "--n-max", "6"),
        ("verify", "all"),
        ("poly", "--n", "9"),
        ("reps", "--n", "8", "--i", "3"),
        ("reps", "--n", "5", "--i", "2"),  # empty terms
    ],
)
def test_json_output_matches_json_dumps(capsys, argv):
    # table rows and verify cases are written one at a time from templates,
    # poly and reps by json.dumps itself
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_verify_json_failing_report_and_escapes(capsys, monkeypatch):
    import uniform_kl.cli as cli

    awkward = 'quote " backslash \\ newline \n accent \u00e9 snowman \u2603'

    def broken_suite(n_max=5):
        yield awkward, 1, 1
        yield "n=3 i=0", 1, 2

    monkeypatch.setitem(cli._SUITES, "closed-vs-recursion", (broken_suite, "--n-max"))
    code, out, _ = run(capsys, "verify", "closed-vs-recursion", "--format", "json")
    assert code == 1
    assert out.isascii()
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    payload = json.loads(out)
    assert payload["ok"] is False
    suite = payload["suites"][0]
    assert (suite["passed"], suite["failed"], suite["ok"]) == (1, 1, False)
    assert suite["cases"][0] == {
        "inputs": awkward, "expected": "1", "actual": "1", "passed": True
    }
    assert suite["cases"][1]["passed"] is False


def test_cli_import_skips_dataclasses():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = "import sys, uniform_kl.cli; sys.exit('dataclasses' in sys.modules)"
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def _cli_process(*argv, **kwargs):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, "-m", "uniform_kl.cli", *argv], env=env, **kwargs
    )


def _assert_closed_pipe_exits_141_quietly(argv, first_line):
    with _cli_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        assert child.stdout.readline().startswith(first_line)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 141
    assert err == b""


def test_closed_pipe_exits_141_quietly():
    # 3.8 MB of output, far more than a pipe buffers, so the writer is
    # still writing when the reader goes away after one line
    _assert_closed_pipe_exits_141_quietly(("table", "--n-max", "400"), b"n=2: 1")


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (("table", "--n-max", "400", "--format", "json"), b"["),
        (("verify", "logconcave", "--n-max", "400", "--format", "json"), b"{"),
    ],
)
def test_closed_pipe_json_exits_141_quietly(argv, first_line):
    # 4.2 MB of table JSON or 25 MB of report JSON: the streaming JSON
    # writers meet a closed pipe as the text writer does
    _assert_closed_pipe_exits_141_quietly(argv, first_line)


def test_integers_past_the_str_digits_limit():
    # a subprocess, so no in-process main() call has lifted the limit already
    child = _cli_process("poly", "--n", "9030", "--format", "json", stdout=subprocess.PIPE)
    out, _ = child.communicate(timeout=60)
    assert child.returncode == 0
    assert max(len(c) for c in json.loads(out)["coeffs"]) > 4300


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_streams_rows(capsys, monkeypatch, fmt):
    import uniform_kl.cli as cli

    def failing_kl_poly(n):
        if n == 5:
            raise RuntimeError("row 5")
        return kl_poly(n)

    monkeypatch.setattr(cli, "kl_poly", failing_kl_poly)
    with pytest.raises(RuntimeError, match="row 5"):
        main(["table", "--n-max", "6", "--format", fmt])
    out = capsys.readouterr().out
    # rows 2-4 were written before row 5 was computed
    if fmt == "json":
        assert [r["n"] for r in json.loads(out + "\n]\n")] == [2, 3, 4]
    else:
        expected = {"text": ["n=2: 1", "n=3: 1", "n=4: 1 2"], "csv": ["2,1", "3,1", "4,1,2"]}
        assert out.splitlines() == expected[fmt]


def test_table_csv(capsys, monkeypatch):
    import uniform_kl.cli as cli

    code, out, _ = run(capsys, "table", "--n-max", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "7,1,14,21"
    code, out, _ = run(capsys, "table", "--n-max", "60", "--format", "csv")
    assert code == 0
    rows = range(2, 61)
    assert out == "".join("%d,%s\n" % (n, ",".join(map(str, kl_poly(n).coeffs))) for n in rows)
    # a format's row is all that a new format needs
    monkeypatch.setitem(cli._TABLE_FORMATS, "tsv", ("", "", "%d\t%s\n", "\t", ""))
    code, out, _ = run(capsys, "table", "--n-max", "5", "--format", "tsv")
    assert (code, out) == (0, "2\t1\n3\t1\n4\t1\t2\n5\t1\t5\n")


def test_table_usage_error(capsys):
    # the JSON format is where a missing check would write its closing "\n]\n"
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, "table", "--n-max", "1", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "error: need n_max >= 2, got n_max=1\n"


# -------------------------------------------------------------------- poly


def test_poly_text(capsys):
    code, out, _ = run(capsys, "poly", "--n", "7")
    assert code == 0
    assert out.strip() == "1 + 14t + 21t^2"


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", "--n", "6", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 6, "coeffs": ["1", "9", "5"]}


def test_poly_usage_error(capsys):
    code, out, err = run(capsys, "poly", "--n", "1")
    assert code == 2
    assert out == ""
    assert err == "error: need n >= 2, got n=1\n"


# -------------------------------------------------------------------- reps


def test_reps_text(capsys):
    code, out, _ = run(capsys, "reps", "--n", "4", "--i", "1")
    assert code == 0
    assert out.strip() == "V[2,2] (dim 2)"


def test_reps_vanishing(capsys):
    code, out, _ = run(capsys, "reps", "--n", "5", "--i", "2")
    assert code == 0
    assert out.strip() == "0"


def test_reps_named_case(capsys):
    code, out, _ = run(capsys, "reps", "--n", "8", "--i", "3")
    assert code == 0
    assert out.strip() == "V[2,2,2,2] (dim 14)"


def test_reps_json(capsys):
    code, out, _ = run(capsys, "reps", "--n", "8", "--i", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 8,
        "i": 3,
        "terms": [{"partition": [2, 2, 2, 2], "mult": "1"}],
        "dimension": "14",
    }


def test_reps_usage_error(capsys):
    for argv, message in (
        (("--n", "4", "--i", "-1"), "need i >= 0, got i=-1"),
        (("--n", "1", "--i", "0"), "need n >= 2, got n=1"),
    ):
        code, out, err = run(capsys, "reps", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: %s\n" % message


# ------------------------------------------------------------------ verify


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "functional-eq", "--order", "8")
    assert code == 0
    assert "0 failed" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "chords", "--m-max", "7", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    report = payload["suites"][0]
    assert report["suite"] == "chords"
    assert report["failed"] == 0
    assert report["passed"] == len(report["cases"])


def test_verify_logconcave_labels(capsys):
    code, out, _ = run(capsys, "verify", "logconcave", "--n-max", "9", "--format", "json")
    assert code == 0
    cases = json.loads(out)["suites"][0]["cases"]
    assert [case["inputs"] for case in cases] == [
        "n=6 i=1: 9^2 vs 1*5 (margin 76)",
        "n=7 i=1: 14^2 vs 1*21 (margin 175)",
        "n=8 i=1: 20^2 vs 1*56 (margin 344)",
        "n=8 i=2: 56^2 vs 20*14 (margin 2856)",
        "n=9 i=1: 27^2 vs 1*120 (margin 609)",
        "n=9 i=2: 120^2 vs 27*84 (margin 12132)",
    ]


def test_verify_each_suite_quick(capsys):
    quick = [
        ("closed-vs-recursion", "--n-max", "10"),
        ("chords", "--m-max", "7"),
        ("epw2", "--n-max", "8"),
        ("functional-eq", "--order", "6"),
        ("logconcave", "--n-max", "20"),
        ("main2", "--n-max", "8"),
        ("lemma-key", "--n-max", "8"),
    ]
    for suite, flag, bound in quick:
        code, out, _ = run(capsys, "verify", suite, flag, bound)
        assert code == 0, (suite, out)
        assert "0 failed" in out


def test_verify_failure_exits_1(capsys, monkeypatch):
    import uniform_kl.cli as cli

    def broken_suite(n_max=5):
        yield "n=3 i=0", 1, 2

    monkeypatch.setitem(cli._SUITES, "closed-vs-recursion", (broken_suite, "--n-max"))
    code, out, _ = run(capsys, "verify", "closed-vs-recursion")
    assert code == 1
    assert "FAIL n=3 i=0: expected 1, got 2" in out


def test_run_suite_counts_each_pass_once(monkeypatch):
    import uniform_kl.cli as cli

    def mixed_suite(n_max=5):
        yield "a", 1, 1
        yield "b", 1, 2
        yield "c", 2, 2

    passing = cli.run_suite("epw2", 6)
    monkeypatch.setitem(cli._SUITES, "closed-vs-recursion", (mixed_suite, "--n-max"))
    written = []
    failing = cli.run_suite("closed-vs-recursion", write_case=written.append)
    for report, passed in ((passing, 5), (failing, 2)):
        assert all(type(verdict) is bool for verdict in report.cases)
        assert len(report.cases) - len(report.failures) == sum(report.cases) == passed
    # one verdict per case; only the failing record is kept, and every
    # record went to write_case in order
    assert failing.cases == [True, False, True]
    assert passing.failures == []
    assert failing.failures == [("b", 1, 2, False)]
    assert written == [("a", 1, 1, True), ("b", 1, 2, False), ("c", 2, 2, True)]


def test_verify_streams_cases(capsys, monkeypatch):
    import uniform_kl.cli as cli

    def failing_suite(n_max=5):
        yield "a", 1, 1
        yield "b", 1, 2
        raise RuntimeError("case c")

    monkeypatch.setitem(cli._SUITES, "closed-vs-recursion", (failing_suite, "--n-max"))
    with pytest.raises(RuntimeError, match="case c"):
        main(["verify", "closed-vs-recursion", "--format", "json"])
    out = capsys.readouterr().out
    # cases a and b were written before case c was computed
    assert json.loads(out + "\n      ]\n    }\n  ]\n}\n") == {
        "suites": [
            {
                "suite": "closed-vs-recursion",
                "cases": [
                    {"inputs": "a", "expected": "1", "actual": "1", "passed": True},
                    {"inputs": "b", "expected": "1", "actual": "2", "passed": False},
                ],
            }
        ]
    }


class _NullWriter(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_keeps_no_passing_record(monkeypatch, fmt):
    # 21,904 logconcave cases: their records took about 5 MiB, while
    # their verdicts take 8 bytes each
    monkeypatch.setattr(sys, "stdout", _NullWriter())
    tracemalloc.start()
    try:
        code = main(["verify", "logconcave", "--n-max", "300", "--format", fmt])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "param, value", [("n_max", 7), ("m_max", 8), ("order", 9), ("k_max", 10)]
)
def test_verify_all_gives_each_suite_only_its_own_bound(capsys, monkeypatch, param, value):
    import uniform_kl.cli as cli

    seen = {}

    def recorder(name):
        def suite(*bound):
            seen[name] = bound
            yield "case", 1, 1
        return suite

    for name, (_, used) in list(cli._SUITES.items()):
        monkeypatch.setitem(cli._SUITES, name, (recorder(name), used))
    # a suite's entry is all that a new bound flag needs
    monkeypatch.setitem(cli._SUITES, "planted", (recorder("planted"), "--k-max"))
    flag = "--" + param.replace("_", "-")
    code, _, _ = run(capsys, "verify", "all", flag, str(value))
    assert code == 0
    assert seen == {
        name: (value,) if used == flag else () for name, (_, used) in cli._SUITES.items()
    }
    code, out, err = run(capsys, "verify", "planted", "--n-max", "3")
    assert (code, out, err) == (2, "", "error: suite planted does not use --n-max\n")


def _plant_suites(monkeypatch, failing):
    """Every suite passes one case; the suite named `failing` also fails one."""
    import uniform_kl.cli as cli

    def planted(name):
        def suite(*bound):
            yield "case", 1, 1
            if name == failing:
                yield "bad", 1, 2
        return suite

    for name, (_, flag) in list(cli._SUITES.items()):
        monkeypatch.setitem(cli._SUITES, name, (planted(name), flag))
    return list(cli._SUITES)


@pytest.mark.parametrize(
    "failing, code, overall", [(None, 0, "all suites passed"), ("epw2", 1, "FAILURES")]
)
def test_verify_all_text_ends_with_the_overall_verdict(
    capsys, monkeypatch, failing, code, overall
):
    names = _plant_suites(monkeypatch, failing)
    expected = []
    for name in names:
        if name == failing:
            expected += [name + ": 2 cases, 1 passed, 1 failed", "  FAIL bad: expected 1, got 2"]
        else:
            expected.append(name + ": 1 cases, 1 passed, 0 failed")
    expected.append("overall: " + overall)
    result, out, _ = run(capsys, "verify", "all")
    assert result == code
    assert [re.sub(r" \([0-9.]+s\)$", "", line) for line in out.splitlines()] == expected


def test_verify_all_json_fails_the_document_for_one_suite(capsys, monkeypatch):
    names = _plant_suites(monkeypatch, "epw2")
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 1
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    payload = json.loads(out)
    assert [(s["suite"], s["ok"]) for s in payload["suites"]] == [
        (name, name != "epw2") for name in names
    ]
    assert payload["ok"] is False


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


BOUND_FLAGS = {
    "closed-vs-recursion": "--n-max",
    "chords": "--m-max",
    "epw2": "--n-max",
    "functional-eq": "--order",
    "logconcave": "--n-max",
    "main2": "--n-max",
    "lemma-key": "--n-max",
}
# suites that already run at least one case at bound 2
RUNS_AT_TWO = {"closed-vs-recursion", "epw2", "functional-eq", "main2"}


@pytest.mark.parametrize("bound", ["-1", "0", "1", "2", None])
@pytest.mark.parametrize("suite", list(BOUND_FLAGS))
def test_verify_bounds(capsys, suite, bound):
    argv = ["verify", suite]
    if bound is not None:
        argv += [BOUND_FLAGS[suite], bound]
    code, out, err = run(capsys, *argv)
    if bound is None or (bound == "2" and suite in RUNS_AT_TWO):
        assert code == 0, (argv, err)
        assert err == ""
        assert "0 failed" in out
    else:
        # a domain error or a vacuous run is a usage error, never a pass
        assert code == 2, (argv, out)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "suite, bound",
    [
        (suite, bound)
        for suite in BOUND_FLAGS
        for bound in ("-1", "0", "1", "2")
        if not (bound == "2" and suite in RUNS_AT_TWO)
    ],
)
def test_verify_bounds_json_usage_errors_write_nothing(capsys, suite, bound):
    # the JSON report streams, but its first bytes go out with the first
    # case, so a refused bound or a vacuous run leaves stdout empty
    code, out, err = run(capsys, "verify", suite, BOUND_FLAGS[suite], bound, "--format", "json")
    assert code == 2, (suite, bound, out)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_all_json_stops_at_a_vacuous_suite(capsys):
    # logconcave runs no case at n <= 5; the suites before it are already
    # written, and the document is left without its closing "ok" (a small
    # chord bound keeps the brute force quick)
    code, out, err = run(
        capsys, "verify", "all", "--n-max", "5", "--m-max", "5", "--format", "json"
    )
    assert code == 2
    assert err == "error: suite logconcave ran zero cases; raise its --n-max bound\n"
    payload = json.loads(out + "\n  ]\n}\n")
    assert list(payload) == ["suites"]
    assert [s["suite"] for s in payload["suites"]] == [
        "closed-vs-recursion", "chords", "epw2", "functional-eq"
    ]
    assert all(s["ok"] for s in payload["suites"])


def test_verify_all_text_stops_at_a_vacuous_suite(capsys):
    # the text twin of the JSON test above: each suite's summary goes out
    # when the suite ends, so the suites before logconcave are written and
    # no overall line follows
    code, out, err = run(capsys, "verify", "all", "--n-max", "5", "--m-max", "5")
    assert code == 2
    assert err == "error: suite logconcave ran zero cases; raise its --n-max bound\n"
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "closed-vs-recursion", "chords", "epw2", "functional-eq"
    ]
    summary = r"[a-z0-9-]+: (\d+) cases, \1 passed, 0 failed \([0-9.]+s\)"
    assert all(re.fullmatch(summary, line) for line in lines), lines


def test_verify_chords_refuses_bound_above_cap(capsys, monkeypatch):
    import uniform_kl.cli as cli

    calls = []

    def spy(m, k):
        calls.append((m, k))
        return d_bruteforce(m, k)

    # d_bruteforce stops at 16-gons; its own refusal must come before any case runs
    monkeypatch.setattr(cli, "d_bruteforce", spy)
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "verify", "chords", "--m-max", "17", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == "error: suite chords: m=17 exceeds the enumeration cap 16\n"
    assert calls == [(17, 0), (17, 0)]


@pytest.mark.parametrize("order", ["-1", "0", "1"])
def test_verify_functional_eq_names_the_least_order(capsys, order):
    # the series constructor refuses order < 1 on its own; the suite's
    # message must come first, so every order below 2 reads the same
    code, out, err = run(capsys, "verify", "functional-eq", "--order", order)
    assert code == 2
    assert out == ""
    assert err == "error: suite functional-eq: need order >= 2, got order=%s\n" % order


@pytest.mark.parametrize(
    "suite, flag", [("chords", "--n-max"), ("epw2", "--order"), ("functional-eq", "--m-max")]
)
def test_verify_rejects_unused_bound(capsys, suite, flag):
    code, out, err = run(capsys, "verify", suite, flag, "5")
    assert code == 2
    assert out == ""
    assert err == "error: suite %s does not use %s\n" % (suite, flag)


# ------------------------------------------------------------------ README


def readme_commands():
    """(argv, comment) for each line of the README's Command line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "uniform-kl", line
        commands.append((argv[1:], comment.strip()))
    return commands


README_COMMANDS = readme_commands()


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in README_COMMANDS], ids=[" ".join(a) for a, _ in README_COMMANDS]
)
def test_readme_command_runs(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out


def test_readme_commented_outputs(capsys):
    comments = {tuple(argv): comment for argv, comment in README_COMMANDS}
    for argv, expected in [
        (("poly", "--n", "9"), "1 + 27t + 120t^2 + 84t^3"),
        (("reps", "--n", "8", "--i", "3"), "V[2,2,2,2] (dim 14)"),
    ]:
        assert comments[argv] == expected
        assert run(capsys, *argv) == (0, expected + "\n", "")
