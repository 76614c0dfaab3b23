"""The routes stay independent of the closed forms.

Every binding of a closed form in the package is patched to raise, and each
route that computes the coefficients without one then runs from cold caches:
the recursion table, the character engine and the dissection enumeration.
"""

import sys

import uniform_kl.cli  # noqa: F401  (its bindings of the closed forms are patched too)
from uniform_kl import klnumbers, series, symreps

CLOSED_FORMS = [
    klnumbers.c_closed,
    klnumbers.d_cayley,
    klnumbers.kl_poly,
    series.beckwith_f,
    series.g_series,
]


def clear_caches():
    symreps.ih_rep.cache_clear()
    klnumbers._dissection_counts.cache_clear()


def test_routes_read_no_closed_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a route read a closed form")

    patched = set()
    for name, module in list(sys.modules.items()):
        if name != "uniform_kl" and not name.startswith("uniform_kl."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is form for form in CLOSED_FORMS):
                monkeypatch.setattr(module, attr, refuse)
                patched.add(attr)
    assert patched == {form.__name__ for form in CLOSED_FORMS}
    clear_caches()
    try:
        klnumbers.KLTable(60)
        for n in range(2, 19):
            for i in range((n - 2) // 2 + 1):
                symreps.ih_rep(n, i)
        klnumbers._dissection_counts(12)
    finally:
        clear_caches()
