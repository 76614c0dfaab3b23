#!/usr/bin/env python3
"""Cold-process benchmark of the uniform-kl command line.

    python3 benchmarks/run.py --workload characters --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload series --seed 1 --seconds 35 --trace 1
    python3 benchmarks/run.py --record-digests

Each step of a workload is one fresh `python -m uniform_kl.cli ...` process
with PYTHONPATH set to the src/ directory next to this file, which is how a
user runs the tool.  Load model: closed loop, one client.  One process runs
at a time and the next starts after it has exited (the reference machine
has 2 cores).  A workload run is the ordered list of its invocations; it is
repeated until --seconds are used up, and medians over the repetitions are
reported.  The seed draws only the point queries; the sweeps are fixed.

End-to-end metrics (--trace 0):
  wall_s        wall seconds of one workload run, summed over its processes;
                each process contributes its median over the repetitions
  cpu_s         user plus system CPU seconds of those processes (os.wait4),
                summed the same way
  peak_rss_mib  largest peak RSS of any process in a repetition; median
  setup_s       interpreter start plus `import uniform_kl.cli`, in a process
                of its own, which every CLI call pays; median of 5 probes
                before each repetition

Failures: an invocation fails on a nonzero exit, on `"ok": false`, or when
its stdout digest differs from the one recorded in digests.json; a case
fails when its report says so.  `attempted` is the number of cases in the
JSON reports plus one per invocation, and failed_frac = failed / attempted.
The digest is taken after deleting every `wall_time_s` field, the only
field that varies from run to run.

With --trace 1 the untraced loop runs as before and is followed by one
traced pass: every invocation runs again in a fresh process under
traced.py, which wraps the public functions of each layer.  The per-layer
metrics come from that pass; trace.overhead_s is its wall time minus the
untraced wall_s.

The last stdout line is the result object the benchmark contract asks for;
the line before it is {"report": ...} with the samples, the environment,
per-invocation figures and the prediction table.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import random
import re
import resource
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = SRC / "uniform_kl"
DIGESTS = HERE / "digests.json"
TRACED = HERE / "traced.py"

SENTINEL = "--- uniform-kl trace ---"
HARD_LIMIT_S = 170  # every run must end inside 180 s, a slow program included
PROBES_PER_REPETITION = 5


def _verify(suite, *bound):
    # JSON format, so the text report's embedded timings never reach a digest
    return ("verify", suite) + bound + ("--format", "json")


SWEEPS = {
    "characters": [_verify("main2", "--n-max", "20"), _verify("lemma-key", "--n-max", "16")],
    "series": [_verify("functional-eq", "--order", "22")],
    "tables": [
        _verify("closed-vs-recursion", "--n-max", "100"),
        _verify("epw2", "--n-max", "40"),
        _verify("logconcave", "--n-max", "400"),
        _verify("chords"),
    ],
}


def query_slots(workload):
    """The seeded part of a workload: one draw from each slot per run."""
    if workload == "characters":
        # One cold `reps` query per level i, with n drawn from 17..20.  Its
        # cost grows steeply with i and much less with n, so every seed does
        # about the same work and the seed adds little to the spread of wall_s.
        return [
            [("reps", "--n", str(n), "--i", str(i)) for n in range(max(17, 2 * i + 2), 21)]
            for i in range(9)
        ]
    if workload == "tables":
        tables = [("table", "--n-max", str(n), "--format", "json") for n in range(150, 251)]
        polys = [("poly", "--n", str(n)) for n in range(150, 251)]
        return [tables, tables, polys, polys]
    return []


def invocations(workload, seed):
    rng = random.Random(seed)
    return SWEEPS[workload] + [rng.choice(slot) for slot in query_slots(workload)]


END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

PER_LAYER = (
    "polynomial.self_s", "polynomial.mul_calls", "polynomial.mul_s",
    "polynomial.mul_coeff_products", "polynomial.add_calls", "polynomial.divexact_calls",
    "series.self_s", "series.mul_calls", "series.mul_s", "series.inverse_calls",
    "series.sqrt_s", "series.substitute_s", "series.beckwith_f_s",
    "klnumbers.self_s", "klnumbers.KLTable_s", "klnumbers.c_recursion_calls",
    "klnumbers.kl_poly_calls", "klnumbers.check_epw2_s", "klnumbers.d_bruteforce_calls",
    "klnumbers.d_bruteforce_s",
    "symreps.self_s", "symreps.ih_rep_calls", "symreps.ih_rep_misses",
    "symreps.induce_product_calls", "symreps.induce_product_s", "symreps.lr_calls",
    "symreps.lr_s", "symreps.lr_hit_ratio", "symreps.lr_nonzero_ratio",
    "symreps.lr_cache_entries", "symreps.hook_dimension_calls",
    "cli.self_s", "cli.run_suite_s", "cli.render_s", "cli.cases", "cli.output_bytes",
    "trace.overhead_s",
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# A traced pass that counts no calls here has lost its wrappers: fail it.
EXERCISED = {
    "characters": ("symreps.ih_rep_calls", "symreps.induce_product_calls",
                   "symreps.lr_calls", "symreps.hook_dimension_calls", "cli.cases"),
    "series": ("polynomial.mul_calls", "polynomial.add_calls", "series.mul_calls",
               "series.inverse_calls", "cli.cases"),
    "tables": ("klnumbers.c_recursion_calls", "klnumbers.kl_poly_calls",
               "klnumbers.d_bruteforce_calls", "polynomial.mul_calls", "cli.cases"),
}

# Written before measuring: which end-to-end metric each group of layer
# metrics should move, on which workload, and where no change is predicted.
PREDICTIONS = [
    {"layer": "polynomial", "moves": "wall_s, cpu_s", "on": "series, tables (epw2)",
     "no_change": "characters",
     "why": "cProfile puts about 80% of series time under UniPoly.__mul__"},
    {"layer": "series", "moves": "wall_s", "on": "series", "no_change": "characters, tables"},
    {"layer": "klnumbers", "moves": "wall_s", "on": "tables", "no_change": "characters"},
    {"layer": "symreps", "moves": "wall_s, cpu_s, peak_rss_mib", "on": "characters",
     "no_change": "series, tables"},
    {"layer": "cli", "moves": "peak_rss_mib, wall_s; setup_s everywhere", "on": "tables",
     "no_change": "",
     "why": "logconcave builds 39,204 case records, the tables memory peak"},
]


_FIELD = re.compile(rb' *"(wall_time_s|passed|failed|ok)": ([^,\n]*),?\n$')


class OutputScan:
    """Streams one child's stdout into a digest without holding it.

    Lines carrying `wall_time_s` are left out of the digest and of the
    byte count.  Suite-level `passed`/`failed` counts (per-case `passed` is
    a boolean) give the case tally, and any `"ok": false` marks the
    invocation as failed.
    """

    def __init__(self):
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.cases = 0
        self.failed_cases = 0
        self.not_ok = False
        self.last_line = b""

    def feed(self, line):
        self.last_line = line
        match = _FIELD.match(line)
        if match:
            key, value = match.groups()
            if key == b"wall_time_s":
                return
            if key == b"ok":
                self.not_ok |= value == b"false"
            elif value.isdigit():
                self.cases += int(value)
                if key == b"failed":
                    self.failed_cases += int(value)
        self.nbytes += len(line)
        self.sha.update(line)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int
    scan: OutputScan
    trace: dict | None


def _spawn(cmd):
    """Start `cmd` with stdout on a pipe, by fork and exec.

    Not subprocess: it starts children with vfork, and a vforked child's
    ru_maxrss begins at the harness's own high-water mark, which would
    then be reported as the child's peak.
    """
    read_end, write_end = os.pipe()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(write_end, 1)
            os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
            os.chdir(HERE.parent)
            os.execve(cmd[0], cmd, env)
        finally:
            os._exit(127)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def run_child(cmd, deadline=None):
    """Run one process to completion, streaming its stdout into an
    OutputScan; a trace block after SENTINEL is parsed separately.  The
    process is killed if it is still running at `deadline` (monotonic)."""
    scan = OutputScan()
    trace = None
    start = time.perf_counter()
    pid, stdout = _spawn(cmd)
    kill = functools.partial(os.kill, pid, signal.SIGKILL)
    timer = None
    if deadline is not None:
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
    try:
        with stdout:
            for line in stdout:
                if line == (SENTINEL + "\n").encode():
                    try:
                        trace = json.loads(stdout.read())
                    except json.JSONDecodeError:
                        trace = None
                    break
                scan.feed(line)
    except BaseException:
        kill()
        raise
    finally:
        if timer is not None:
            timer.cancel()
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 os.waitstatus_to_exitcode(status), scan, trace)


def cli_command(argv, traced=False):
    head = [str(TRACED)] if traced else ["-m", "uniform_kl.cli"]
    return [sys.executable] + head + list(argv)


def _fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def _same_file(reported, expected):
    return os.path.realpath(reported) == os.path.realpath(expected)


def probe(deadline):
    """Time interpreter start plus `import uniform_kl.cli`, and check that
    the module came from this checkout."""
    child = run_child(
        [sys.executable, "-c", "import uniform_kl.cli as m; print(m.__file__)"], deadline
    )
    reported = child.scan.last_line.decode().strip()
    if child.exit_code != 0 or not _same_file(reported, PACKAGE / "cli.py"):
        _fail("the CLI process imported uniform_kl from %r (exit %d), not from %s"
              % (reported, child.exit_code, PACKAGE))
    return child.wall_s


@dataclass
class Repetition:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    children: list = field(default_factory=list)


def run_workload(steps, digests, deadline, traced=False):
    """One workload run: every step in order, one cold process each."""
    rep = Repetition()
    for argv in steps:
        child = run_child(cli_command(argv, traced), deadline)
        rep.wall_s += child.wall_s
        rep.cpu_s += child.cpu_s
        rep.peak_rss_mib = max(rep.peak_rss_mib, child.rss_mib)
        rep.attempted += child.scan.cases + 1
        rep.failed += failed_ops(child, digests.get(" ".join(argv)), traced)
        rep.children.append(child)
    return rep


def failed_ops(child, expected_digest, traced=False):
    """Failed operations of one invocation: its failed cases, plus one for
    the invocation itself on a nonzero exit, an `"ok": false`, a digest
    that differs from `expected_digest`, or a lost or foreign trace."""
    bad = (
        child.exit_code != 0
        or child.scan.not_ok
        or child.scan.sha.hexdigest() != expected_digest
    )
    if traced:
        bad |= child.trace is None or not _same_file(
            child.trace["module_file"], PACKAGE / "__init__.py")
    return child.scan.failed_cases + bad


def summary(values, value=None):
    """Median with its sample count, plus the highest of p75..p99 that has
    at least ten samples beyond it.  `value` is the reported figure; it
    defaults to the median."""
    median = statistics.median(values)
    out = {"value": median if value is None else value, "median": median,
           "n": len(values), "samples": values}
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) >= 1000:
            out["p%d" % q] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def summed_medians(reps, attr):
    """Sum over the steps of each step's median across repetitions.  A slow
    spell of the shared machine that hits one step of one repetition moves
    this less than it moves the median of the per-repetition sums."""
    per_step = zip(*([getattr(c, attr) for c in r.children] for r in reps))
    return sum(statistics.median(xs) for xs in per_step)


def layer_values(traced, untraced_wall_s):
    """Every per-layer figure of a traced pass, summed over its processes."""
    calls, inclusive, self_s, counters = Counter(), Counter(), Counter(), Counter()
    caches = {}
    for child in traced.children:
        if child.trace is None:
            continue
        calls.update(child.trace["calls"])
        inclusive.update(child.trace["inclusive_s"])
        self_s.update(child.trace["self_s"])
        counters.update(child.trace["counters"])
        for name, info in child.trace["caches"].items():
            caches.setdefault(name, Counter()).update(info)
    values = {layer + ".self_s": s for layer, s in self_s.items()}
    values.update({key + "_calls": n for key, n in calls.items()})
    values.update({key + "_s": s for key, s in inclusive.items()})
    lr_calls = calls["symreps.lr"]
    lr_cache = caches.get("lr_coefficient", Counter())
    values.update({
        "polynomial.mul_coeff_products": counters["polynomial.mul_coeff_products"],
        "symreps.ih_rep_misses": caches.get("ih_rep", Counter())["misses"],
        "symreps.lr_hits": lr_cache["hits"],
        "symreps.lr_nonzero": counters["symreps.lr_nonzero"],
        "symreps.lr_hit_ratio": lr_cache["hits"] / lr_calls if lr_calls else 0.0,
        "symreps.lr_nonzero_ratio":
            counters["symreps.lr_nonzero"] / lr_calls if lr_calls else 0.0,
        "symreps.lr_cache_entries": lr_cache["currsize"],
        "cli.render_s": inclusive["cli.main"] - inclusive["cli.run_suite"],
        "cli.cases": counters["cli.cases"],
        "cli.output_bytes": sum(c.scan.nbytes for c in traced.children),
        "trace.overhead_s": traced.wall_s - untraced_wall_s,
    })
    return values, {name: dict(info) for name, info in caches.items()}


def source_lines():
    return sum(len(p.read_bytes().splitlines()) for p in PACKAGE.rglob("*.py"))


def measure(workload, seed, seconds, trace):
    digests = json.loads(DIGESTS.read_text())
    steps = invocations(workload, seed)
    deadline = time.monotonic() + HARD_LIMIT_S
    probe(deadline)  # warm-up: writes the bytecode cache every user has
    setup, reps = [], []
    loop_end = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        setup += [probe(deadline) for _ in range(PROBES_PER_REPETITION)]
        reps.append(run_workload(steps, digests, deadline))
        now = time.monotonic()
        if now + (now - started) > loop_end:  # the next repetition would not fit
            break

    stats = {
        "wall_s": summary([r.wall_s for r in reps], summed_medians(reps, "wall_s")),
        "cpu_s": summary([r.cpu_s for r in reps], summed_medians(reps, "cpu_s")),
        "peak_rss_mib": summary([r.peak_rss_mib for r in reps]),
        "setup_s": summary(setup),
    }
    runs = list(reps)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_loc": source_lines(),
        "load_model": "closed loop, 1 client, 1 process at a time",
        "end_to_end": stats,
        "invocations": [
            {
                "argv": " ".join(argv),
                "wall_s_median": statistics.median(r.children[i].wall_s for r in reps),
                "peak_rss_mib": max(r.children[i].rss_mib for r in reps),
                "cases": reps[0].children[i].scan.cases,
                "output_bytes": reps[0].children[i].scan.nbytes,
            }
            for i, argv in enumerate(steps)
        ],
        "predictions": [
            dict(row, metrics=[n for n in PER_LAYER if n.startswith(row["layer"] + ".")])
            for row in PREDICTIONS
        ],
    }
    if trace:
        traced = run_workload(steps, digests, deadline, traced=True)
        runs.append(traced)
        values, caches = layer_values(traced, stats["wall_s"]["value"])
        idle = [name for name in EXERCISED[workload] if not values.get(name)]
        if idle:
            _fail("the traced %s run counted nothing for %s" % (workload, ", ".join(idle)))
        bindings = next((c.trace["bindings"] for c in traced.children if c.trace), {})
        report["trace"] = {"values": values, "caches": caches, "bindings": bindings}
        metrics = {name: {"value": values.get(name, 0), "unit": layer_unit(name)}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": stats[name]["value"], "unit": unit}
                   for name, unit in END_TO_END.items()}

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    report["failed_frac"] = failed / attempted
    report["harness_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def record_digests():
    """Digest every invocation any seed can draw, refusing failing output."""
    domain = []
    for workload in SWEEPS:
        domain += SWEEPS[workload]
        domain += [argv for slot in query_slots(workload) for argv in slot]
    digests = {}
    for argv in domain:
        key = " ".join(argv)
        if key in digests:
            continue
        child = run_child(cli_command(argv))
        if child.exit_code != 0 or child.scan.not_ok or child.scan.failed_cases:
            _fail("refusing to record the failing output of `%s`" % key)
        digests[key] = child.scan.sha.hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("recorded %d digests in %s" % (len(digests), DIGESTS))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SWEEPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from this checkout's outputs")
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        _fail("no uniform_kl package to benchmark at %s" % PACKAGE)
    if args.record_digests:
        record_digests()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        measure(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
