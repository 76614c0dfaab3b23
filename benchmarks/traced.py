"""Run one uniform-kl CLI invocation with the public functions of every
layer wrapped by timing and counting spans, then report per-layer figures.

    PYTHONPATH=src python3 benchmarks/traced.py verify epw2 --n-max 10 --format json

The CLI writes its usual stdout first.  After it, this script prints the
line SENTINEL and one JSON object with the counters, so a single pipe
carries both and the caller can digest the CLI's bytes exactly as in an
untraced run.  The process exits with the CLI's exit code.

Every binding of a wrapped name is patched, not only the defining module:
`kl_poly` is imported by name into `series`, `cli` and the package, and
`UniPoly.__mul__` is also bound as `__rmul__`.  A call through any of them
is counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import uniform_kl
from run import SENTINEL
from uniform_kl import cli, klnumbers, polynomial, series, symreps

MODULES = {
    "polynomial": polynomial,
    "series": series,
    "klnumbers": klnumbers,
    "symreps": symreps,
    "cli": cli,
}

# (layer, attribute path in the layer's module, metric stem).  Hot private
# helpers (binomial, multinomial, KLTable.get, Partition, UniPoly.__init__)
# stay unwrapped: their time counts as self time of the layer that calls them.
TARGETS = [
    ("polynomial", "UniPoly.__mul__", "mul"),
    ("polynomial", "UniPoly.__add__", "add"),
    ("polynomial", "UniPoly.__sub__", "sub"),
    ("polynomial", "UniPoly.__neg__", "neg"),
    ("polynomial", "UniPoly.__pow__", "pow"),
    ("polynomial", "UniPoly.divexact", "divexact"),
    ("polynomial", "UniPoly.reverse", "reverse"),
    ("series", "USeries.__mul__", "mul"),
    ("series", "USeries.__add__", "add"),
    ("series", "USeries.__sub__", "sub"),
    ("series", "USeries.__neg__", "neg"),
    ("series", "USeries.inverse", "inverse"),
    ("series", "USeries.sqrt", "sqrt"),
    ("series", "USeries.substitute", "substitute"),
    ("series", "phi_from_table", "phi_from_table"),
    ("series", "beckwith_f", "beckwith_f"),
    ("series", "g_series", "g_series"),
    ("series", "check_functional_equation", "check_functional_equation"),
    ("klnumbers", "c_closed", "c_closed"),
    ("klnumbers", "d_cayley", "d_cayley"),
    ("klnumbers", "d_bruteforce", "d_bruteforce"),
    ("klnumbers", "KLTable.__init__", "KLTable"),
    ("klnumbers", "c_recursion", "c_recursion"),
    ("klnumbers", "kl_poly", "kl_poly"),
    ("klnumbers", "check_epw2", "check_epw2"),
    ("klnumbers", "check_logconcave", "check_logconcave"),
    ("symreps", "partitions_of", "partitions_of"),
    ("symreps", "hook_dimension", "hook_dimension"),
    ("symreps", "lr_coefficient", "lr"),
    ("symreps", "induce_product", "induce_product"),
    ("symreps", "exterior_rho", "exterior_rho"),
    ("symreps", "ih_rep", "ih_rep"),
    ("symreps", "verify_main2", "verify_main2"),
    ("symreps", "lemma_key_check", "lemma_key_check"),
    ("symreps", "lemma_key_expected", "lemma_key_expected"),
    ("symreps", "VirtualRep.__add__", "rep_add"),
    ("symreps", "VirtualRep.__sub__", "rep_sub"),
    ("symreps", "VirtualRep.__mul__", "rep_scale"),
    ("symreps", "VirtualRep.dimension", "dimension"),
    ("cli", "main", "main"),
    ("cli", "run_suite", "run_suite"),
    ("cli", "cmd_table", "cmd_table"),
    ("cli", "cmd_poly", "cmd_poly"),
    ("cli", "cmd_reps", "cmd_reps"),
    ("cli", "cmd_verify", "cmd_verify"),
]

# The public functools caches; their cache_info() is read after the run.
CACHES = {
    "ih_rep": symreps.ih_rep,
    "lr_coefficient": symreps.lr_coefficient,
    "hook_dimension": symreps.hook_dimension,
    "partitions_of": symreps.partitions_of,
}


def _count_mul_products(counters, args, result):
    a, b = args
    width = len(b.coeffs) if isinstance(b, polynomial.UniPoly) else 1
    counters["polynomial.mul_coeff_products"] += len(a.coeffs) * width


def _count_lr_nonzero(counters, args, result):
    if result:
        counters["symreps.lr_nonzero"] += 1


def _count_cases(counters, args, result):
    counters["cli.cases"] += len(result.cases)


OBSERVERS = {
    "polynomial.mul": _count_mul_products,
    "symreps.lr": _count_lr_nonzero,
    "cli.run_suite": _count_cases,
}


class Tracer:
    """Aggregates spans as they close: calls and inclusive time per wrapped
    function (outermost call only, so recursion is not counted twice), and
    self time per layer (span time minus the time of nested spans)."""

    def __init__(self):
        self.calls = {}
        self.inclusive_ns = {}
        self.self_ns = dict.fromkeys(MODULES, 0)
        self.counters = dict.fromkeys(
            ("polynomial.mul_coeff_products", "symreps.lr_nonzero", "cli.cases"), 0
        )
        self.bindings = {}
        self._open = []  # per open span: nanoseconds covered by its children

    def wrap(self, layer, key, fn):
        calls, inclusive, self_ns, open_spans = (
            self.calls, self.inclusive_ns, self.self_ns, self._open
        )
        observe, counters = OBSERVERS.get(key), self.counters
        clock = time.perf_counter_ns
        calls[key] = inclusive[key] = 0
        depth = [0]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[key] += 1
            depth[0] += 1
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                depth[0] -= 1
                if not depth[0]:
                    inclusive[key] += elapsed
            if observe is not None:
                observe(counters, args, result)
            return result

        return span

    def install(self):
        """Replace every binding of every target with its span wrapper."""
        loaded = [
            m for name, m in sys.modules.items()
            if name == "uniform_kl" or name.startswith("uniform_kl.")
        ]
        for layer, path, stem in TARGETS:
            key = "%s.%s" % (layer, stem)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(MODULES[layer], owner_name)
                original = vars(owner)[attr]
                homes = [owner]  # a class is shared, so its own aliases suffice
            else:
                original = getattr(MODULES[layer], attr)
                homes = loaded
            wrapper = self.wrap(layer, key, original)
            patched = 0
            for home in homes:
                for name, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, name, wrapper)
                        patched += 1
            self.bindings[key] = patched

    def report(self, exit_code):
        caches = {}
        for name, fn in CACHES.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
        return {
            "exit_code": exit_code,
            "module_file": uniform_kl.__file__,
            "calls": self.calls,
            "inclusive_s": {k: ns / 1e9 for k, ns in self.inclusive_ns.items()},
            "self_s": {k: ns / 1e9 for k, ns in self.self_ns.items()},
            "counters": self.counters,
            "bindings": self.bindings,
            "caches": caches,
        }


def main(argv):
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    sys.stdout.write(SENTINEL + "\n")
    sys.stdout.write(json.dumps(tracer.report(code)) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
