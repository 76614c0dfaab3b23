"""Coefficient routes and their oracles.

The closed form is pinned to hand-frozen values, the recursion to the
closed form and to its literal multinomial-weighted double sum, and the
polygon backtracking to an independent filter over all diagonal subsets.
"""

import math
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from uniform_kl.klnumbers import (
    KLTable,
    c_closed,
    c_recursion,
    check_epw2,
    check_logconcave,
    d_bruteforce,
    d_cayley,
    diagonals_cross,
    kl_poly,
    polygon_diagonals,
    twisted_binomial_sum,
)
from uniform_kl import cli, klnumbers
from uniform_kl.polynomial import UniPoly


# ---------------------------------------------------------------- oracles


def factorial(n):
    out = 1
    for v in range(2, n + 1):
        out *= v
    return out


def multinomial(n, parts):
    """n! / prod(p!) over the given parts; zero when any part is negative."""
    parts = tuple(parts)
    if sum(parts) != n:
        raise ValueError("parts %r do not sum to %d" % (parts, n))
    if any(p < 0 for p in parts):
        return 0
    out = 1
    rest = n
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def count_noncrossing_sets(m, k):
    """Filter oracle: test every k-subset of diagonals for crossings."""
    diags = polygon_diagonals(m)
    return sum(
        1
        for subset in combinations(diags, k)
        if not any(diagonals_cross(d, e) for d, e in combinations(subset, 2))
    )


# ---------------------------------------------------------- multinomial


def test_multinomial_against_factorials():
    for parts in [(2, 1, 1), (3, 0, 1), (0, 0, 4), (2, 2, 2)]:
        n = sum(parts)
        expected = factorial(n)
        for p in parts:
            expected //= factorial(p)
        assert multinomial(n, parts) == expected


def test_multinomial_edges():
    assert multinomial(4, (2, 0, 2)) == 6
    assert multinomial(5, (5,)) == 1
    assert multinomial(2, (3, 0, -1)) == 0
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))


# ------------------------------------------------------------ closed form


def test_c_closed_frozen_values():
    assert c_closed(2, 0) == 1
    assert c_closed(4, 1) == 2
    assert c_closed(6, 2) == 5
    assert c_closed(7, 2) == 21
    assert [c_closed(9, i) for i in range(4)] == [1, 27, 120, 84]


def test_c_closed_vanishing_band():
    for n in range(2, 20):
        for i in range(n + 2):
            if 2 * i >= n - 1:
                assert c_closed(n, i) == 0, (n, i)
            else:
                assert c_closed(n, i) > 0, (n, i)


def test_c_closed_domain():
    with pytest.raises(ValueError):
        c_closed(1, 0)
    with pytest.raises(ValueError):
        c_closed(4, -1)


# ------------------------------------------------------------ dissections


def test_d_cayley_frozen_values():
    assert d_cayley(3, 0) == 1
    assert d_cayley(5, 2) == 5
    assert d_cayley(4, 2) == 0
    assert d_cayley(6, 2) == 21


def test_polygon_diagonals():
    assert polygon_diagonals(3) == []
    assert polygon_diagonals(4) == [(0, 2), (1, 3)]
    # an m-gon has m(m-3)/2 diagonals
    for m in range(3, 12):
        assert len(polygon_diagonals(m)) == m * (m - 3) // 2


def test_crossing_predicate():
    assert diagonals_cross((0, 2), (1, 3))
    assert not diagonals_cross((0, 2), (2, 4))  # shared endpoint
    assert not diagonals_cross((0, 2), (3, 5))  # disjoint arcs
    assert diagonals_cross((1, 4), (0, 2)) == diagonals_cross((0, 2), (1, 4))


def test_d_bruteforce_against_filter_oracle():
    for m in range(3, 9):
        for k in range(m - 1):
            assert d_bruteforce(m, k) == count_noncrossing_sets(m, k), (m, k)


def test_d_bruteforce_frozen_values():
    assert d_bruteforce(4, 1) == 2
    assert d_bruteforce(6, 2) == 21
    assert d_bruteforce(5, 0) == 1
    assert d_bruteforce(5, -1) == 0


def test_d_bruteforce_walks_each_polygon_once():
    klnumbers._dissection_counts.cache_clear()
    cli.suite_chords(12)
    info = klnumbers._dissection_counts.cache_info()
    assert (info.misses, info.hits) == (10, 110)
    for m in range(3, 13):
        ks = range(m - 2)
        assert sum(d_bruteforce(m, k) for k in ks) == sum(d_cayley(m, k) for k in ks), m


def test_d_bruteforce_cap():
    with pytest.raises(ValueError):
        d_bruteforce(13, 1)
    with pytest.raises(ValueError):
        d_bruteforce(2, 0)


# -------------------------------------------------------------- recursion


def test_c_recursion_base_and_frozen():
    table = KLTable(6)
    assert c_recursion(2, 0, table) == 1
    # hand expansion: -C(4,1) + C(4;2,0,2) * c(2,0) = -4 + 6
    assert c_recursion(4, 1, table) == 2
    assert c_recursion(6, 2, table) == 5


def test_c_recursion_matches_closed_form():
    table = KLTable(15)
    for n in range(2, 16):
        for i in range(n + 2):
            assert c_recursion(n, i, table) == c_closed(n, i), (n, i)


def test_kl_table_matches_closed_form():
    table = KLTable(120)
    for n in range(2, 121):
        for i in range(n + 2):
            assert table.get(n, i) == c_closed(n, i), (n, i)


def literal_double_sum(n, i, table):
    """The recursion's double sum with its multinomial weights, term by term."""
    acc = (-1) ** i * math.comb(n, i)
    for j in range(i):
        for k in range(2 * j + 2, i + j + 2):
            w = multinomial(n, (k, i + j - k + 1, n - i - j - 1))
            if w:
                acc += (-1) ** (i + j + k + 1) * w * table.get(k, j)
    return acc


def test_literal_double_sum_vanishes_past_threshold():
    # The vanishing band below i = n-1 is where the raw double sum itself
    # cancels to zero; the implementation must agree there without the
    # short-circuit doing the work for it.
    table = KLTable(12)
    for n in range(2, 13):
        for i in range(n - 1):
            assert literal_double_sum(n, i, table) == c_closed(n, i), (n, i)


def test_grouped_recursion_matches_literal_double_sum():
    table = KLTable(30)
    for n in range(2, 31):
        for i in range(n - 1):
            assert c_recursion(n, i, table) == literal_double_sum(n, i, table), (n, i)


def test_kl_table_keeps_one_inner_sum_per_pair():
    # one entry per (s, j) = (i + j + 1, j) with 0 <= j < i <= 49: C(50, 2)
    assert len(KLTable(100).sums) == 1225


def test_kl_table():
    table = KLTable(10)
    assert table.max_n == 10
    for n in range(2, 11):
        assert table.get(n, 0) == 1
        assert table.get(n, -1) == 0
        assert table.get(n, (n - 1 + 1) // 2) == 0
    assert table.get(9, 2) == 120
    with pytest.raises(ValueError):
        KLTable(1)


# ------------------------------------------------------------ polynomials


def test_kl_poly_frozen_values():
    assert kl_poly(2) == 1
    assert kl_poly(3) == 1
    assert kl_poly(6) == UniPoly([1, 9, 5])
    assert kl_poly(7) == UniPoly([1, 14, 21])


def test_kl_poly_degree_bound():
    for n in range(2, 30):
        assert 2 * kl_poly(n).degree < n - 1


def test_kl_poly_steps_match_closed_form():
    # the stepped row against the per-coefficient closed form
    for n in range(2, 401):
        assert list(kl_poly(n).coeffs) == [c_closed(n, i) for i in range((n - 2) // 2 + 1)], n


def test_kl_poly_matches_recursion_table():
    # ties the polynomial route to the recursion route
    table = KLTable(20)
    for n in range(2, 21):
        row = [table.get(n, i) for i in range((n - 2) // 2 + 1)]
        assert kl_poly(n) == UniPoly(row)


# --------------------------------------------------------------- reversal


def test_check_epw2_small_cases():
    ok, residual = check_epw2(2)
    assert ok and residual == 0
    assert kl_poly(2).reverse(1) == UniPoly([0, 1])  # LHS = t
    ok, residual = check_epw2(3)
    assert ok
    assert kl_poly(3).reverse(2) == UniPoly([0, 0, 1])  # LHS = t^2


def test_check_epw2_range():
    for n in range(2, 13):
        ok, residual = check_epw2(n)
        assert ok and not residual, (n, residual)


@pytest.mark.parametrize("n, k, e", [(4, 2, 0), (7, 3, 0), (10, 6, 2), (12, 9, 1), (12, 11, 4)])
def test_check_epw2_detects_one_coefficient_off(monkeypatch, n, k, e):
    # P_k with its t^e coefficient one too high shifts the twisted sum by
    # exactly C(n, k) (t-1)^(n-k) t^e
    real = klnumbers.kl_poly
    monkeypatch.setattr(
        klnumbers, "kl_poly", lambda m: real(m) + UniPoly.monomial(e) if m == k else real(m)
    )
    assert e <= real(k).degree
    ok, residual = check_epw2(n)
    assert not ok and residual
    assert residual == -math.comb(n, k) * UniPoly((-1, 1)) ** (n - k) * UniPoly.monomial(e)


@given(st.lists(st.builds(UniPoly, st.lists(st.integers(-9, 9), max_size=5)), max_size=12))
@example([])
@example([UniPoly([3, -1])])
def test_twisted_binomial_sum_matches_literal_sum(phi):
    # the Horner kernel against sum_k C(N, k) (t-1)^(N-k) phi[k-1] term by term
    n = len(phi)
    terms = [math.comb(n, k) * UniPoly((-1, 1)) ** (n - k) * phi[k - 1] for k in range(1, n + 1)]
    assert twisted_binomial_sum(phi) == sum(terms, UniPoly())


# ------------------------------------------------------------ logconcave


def test_logconcave_frozen_triples():
    triples = check_logconcave(9)
    assert [(t.i, t.lower, t.middle, t.upper) for t in triples] == [
        (1, 1, 27, 120),
        (2, 27, 120, 84),
    ]
    assert triples[0].margin == 729 - 120
    assert str(triples[0]) == "n=9 i=1: 27^2 vs 1*120 (margin 609)"
    assert triples[1].margin == 14400 - 2268
    assert all(t.strict for t in triples)


def test_logconcave_vacuous_cases():
    assert check_logconcave(2) == []
    assert check_logconcave(5) == []


@given(st.integers(2, 40))
def test_logconcave_holds(n):
    assert all(t.strict for t in check_logconcave(n))
