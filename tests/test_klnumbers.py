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
from uniform_kl.symreps import VirtualRep, exterior_rho, ih_rep


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
    with pytest.raises(ValueError, match="^need m >= 3, got m=2$"):
        d_cayley(2, 0)
    with pytest.raises(ValueError, match="^need k >= 0, got k=-1$"):
        d_cayley(5, -1)


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
    cli.run_suite("chords")
    info = klnumbers._dissection_counts.cache_info()
    assert (info.misses, info.hits) == (10, 110)
    for m in range(3, 13):
        ks = range(m - 2)
        assert sum(d_bruteforce(m, k) for k in ks) == sum(d_cayley(m, k) for k in ks), m


def test_dissection_counts_match_cayley_to_the_cap():
    for m in range(3, klnumbers.D_BRUTEFORCE_MAX_M + 1):
        counts = klnumbers._dissection_counts(m)
        assert list(counts) == [d_cayley(m, k) for k in range(len(counts))], m
        assert len(counts) == m - 2


def test_dissection_counts_read_the_crossing_relation(monkeypatch):
    # with one crossing pair of the hexagon made compatible, some count moves,
    # so the counts come from the relation and not from a formula
    dropped = {(0, 2), (1, 3)}

    def one_crossing_less(d, e):
        return {d, e} != dropped and diagonals_cross(d, e)

    monkeypatch.setattr(klnumbers, "diagonals_cross", one_crossing_less)
    counts = klnumbers._dissection_counts.__wrapped__(6)  # bypass the cache
    assert list(counts) != [d_cayley(6, k) for k in range(len(counts))]


def test_d_bruteforce_cap():
    assert d_bruteforce(16, 13) == d_cayley(16, 13)
    with pytest.raises(ValueError):
        d_bruteforce(17, 1)
    with pytest.raises(ValueError, match="^need m >= 3, got m=2$"):
        d_bruteforce(2, 0)


# -------------------------------------------------------------- recursion


def test_c_recursion_base_and_frozen():
    table = KLTable(6)
    assert c_recursion(2, 0, table) == 1
    # hand expansion: -C(4,1) + C(4;2,0,2) * c(2,0) = -4 + 6
    assert c_recursion(4, 1, table) == 2
    assert c_recursion(6, 2, table) == 5
    with pytest.raises(ValueError, match="^need n >= 2, got n=1$"):
        c_recursion(1, 0, table)
    with pytest.raises(ValueError, match="^need i >= 0, got i=-1$"):
        c_recursion(5, -1, table)


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


def test_c_recursion_refuses_rows_past_its_table():
    # row 12 reads only inner sums that KLTable(10) happens to store; row 30
    # reads (6, 0), which it does not
    table = KLTable(10)
    for n, i in ((12, 2), (30, 5)):
        with pytest.raises(ValueError, match="^n=%d exceeds the table bound max_n=10$" % n):
            c_recursion(n, i, table)
    with pytest.raises(KeyError):
        table.get(12, 2)


def test_kl_table_keeps_one_inner_sum_per_pair():
    # one entry per (s, j) = (i + j + 1, j) with 0 <= j < i <= 49: C(50, 2)
    assert len(KLTable(100).sums) == 1225


def test_kl_table_stores_rows_and_signed_inner_sums():
    # every stored inner sum carries the sign (-1)^(s-k) that c_recursion
    # adds it with, and every row is the coefficient row of P_n
    table = KLTable(40)
    for (s, j), value in table.sums.items():
        signed = sum(
            (-1) ** (s - k) * math.comb(s, k) * c_closed(k, j) for k in range(2 * j + 2, s + 1)
        )
        assert value == signed, (s, j)
    assert sorted(table.rows) == list(range(2, 41))
    for n, row in table.rows.items():
        assert row == list(kl_poly(n).coeffs), n


def test_kl_table():
    table = KLTable(10)
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


def test_check_epw2_alternating_row_matches_literal_sum(monkeypatch):
    # with every P_k zero, both the reversal and the twisted sum vanish and
    # the residual is minus the row sum_j (-1)^j C(n, j) (t^(n-j-1) - 1)
    monkeypatch.setattr(klnumbers, "kl_poly", lambda m: UniPoly())
    for n in range(2, 61):
        literal = UniPoly()
        for j in range(n):
            term = (0,) * (n - j - 1) + (1,)
            literal += (-1) ** j * math.comb(n, j) * (UniPoly(term) - UniPoly((1,)))
        _, residual = check_epw2(n)
        assert -residual == literal, n


def test_check_epw2_builds_each_row_once(monkeypatch):
    real, built = klnumbers.kl_poly, []
    monkeypatch.setattr(klnumbers, "kl_poly", lambda m: built.append(m) or real(m))
    assert check_epw2(9) == (True, UniPoly())
    assert built == list(range(2, 10))
    with pytest.raises(ValueError, match="^need n >= 2, got n=1$"):
        check_epw2(1)


def test_epw2_suite_builds_each_row_once(monkeypatch):
    # one row list grows through the suite: P_n is built once, not once per
    # n' >= n as when every case called check_epw2 afresh
    real, built = klnumbers.kl_poly, []

    def counting(m):
        built.append(m)
        return real(m)

    monkeypatch.setattr(klnumbers, "kl_poly", counting)
    monkeypatch.setattr(cli, "kl_poly", counting)
    report = cli.run_suite("epw2", 60)
    assert len(report.cases) == 59 and all(report.cases)
    assert built == list(range(2, 61))


@pytest.mark.parametrize("n, k, e", [(4, 2, 0), (7, 3, 0), (10, 6, 2), (12, 9, 1), (12, 11, 4)])
def test_check_epw2_detects_one_coefficient_off(monkeypatch, n, k, e):
    # P_k with its t^e coefficient one too high shifts the twisted sum by
    # exactly C(n, k) (t-1)^(n-k) t^e
    real = klnumbers.kl_poly
    t_e = UniPoly((0,) * e + (1,))
    monkeypatch.setattr(klnumbers, "kl_poly", lambda m: real(m) + t_e if m == k else real(m))
    assert e <= real(k).degree
    ok, residual = check_epw2(n)
    assert not ok and residual
    assert residual == -math.comb(n, k) * UniPoly((-1, 1)) ** (n - k) * t_e


@given(st.lists(st.builds(UniPoly, st.lists(st.integers(-9, 9), max_size=5)), max_size=12))
@example([])
@example([UniPoly([3, -1])])
@example([UniPoly(), UniPoly([0, 0, 0, 7])])  # an entry longer than the running row
@example([UniPoly([1, 0, -2]), UniPoly(), UniPoly([0, 5])])  # interior zeros
@example([UniPoly()] * 3)  # the zero polynomial
def test_twisted_binomial_sum_matches_literal_sum(phi):
    # the Horner kernel against sum_k C(N, k) (t-1)^(N-k) phi[k-1] term by term
    n = len(phi)
    terms = [math.comb(n, k) * UniPoly((-1, 1)) ** (n - k) * phi[k - 1] for k in range(1, n + 1)]
    assert twisted_binomial_sum(phi) == sum(terms, UniPoly())


def test_twisted_binomial_sum_forms_no_polynomial_product(monkeypatch):
    # the step by t - 1 is a shift on the coefficient row; the only products
    # left are the scalar ones C(N, k) * phi[k-1]
    phi = [UniPoly()] + [kl_poly(k) for k in range(2, 13)]
    real = UniPoly.__mul__
    operands = []

    def recording(self, other):
        operands.append((self, other))
        return real(self, other)

    monkeypatch.setattr(UniPoly, "__mul__", recording)
    monkeypatch.setattr(UniPoly, "__rmul__", recording)
    twisted_binomial_sum(phi)
    assert operands and all(int in (type(a), type(b)) for a, b in operands)


# ------------------------------------------------------------ logconcave


def test_logconcave_frozen_triples():
    triples = check_logconcave(9)
    assert [(t.i, t.lower, t.middle, t.upper) for t in triples] == [
        (1, 1, 27, 120),
        (2, 27, 120, 84),
    ]
    assert tuple(triples[0]) == (9, 1, 1, 27, 120, 609, True)
    assert triples[0].margin == 729 - 120
    assert triples[1].margin == 14400 - 2268
    assert all(t.strict for t in triples)


def test_logconcave_catches_a_planted_flat_row(monkeypatch, capsys):
    # 1 + 2t + 4t^2 + 9t^3 has a zero margin and a negative one; the zero
    # margin pins strictness, so a verdict of margin >= 0 is caught too
    real = klnumbers.kl_poly
    monkeypatch.setattr(
        klnumbers, "kl_poly", lambda n: UniPoly([1, 2, 4, 9]) if n == 8 else real(n)
    )
    triples = check_logconcave(8)
    assert [(t.margin, t.strict) for t in triples] == [(0, False), (-2, False)]
    assert cli.main(["verify", "logconcave", "--n-max", "9"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert fails == [
        "  FAIL n=8 i=1: 2^2 vs 1*4 (margin 0): expected True, got False",
        "  FAIL n=8 i=2: 4^2 vs 2*9 (margin -2): expected True, got False",
    ]


def test_logconcave_vacuous_cases():
    assert check_logconcave(2) == []
    assert check_logconcave(5) == []
    with pytest.raises(ValueError, match="^need n >= 2, got n=1$"):
        check_logconcave(1)


@given(st.integers(2, 40))
def test_logconcave_holds(n):
    assert all(t.strict for t in check_logconcave(n))


# ---------------------------------------------------------------- domains


DOMAIN_CASES = [
    (c_closed, (1, 0), "^need n >= 2, got n=1$"),
    (c_closed, (4, -1), "^need i >= 0, got i=-1$"),
    (d_cayley, (2, 0), "^need m >= 3, got m=2$"),
    (d_cayley, (5, -1), "^need k >= 0, got k=-1$"),
    (polygon_diagonals, (2,), "^need m >= 3, got m=2$"),
    (KLTable, (1,), "^need max_n >= 2, got max_n=1$"),
    (c_recursion, (1, 0, KLTable(5)), "^need n >= 2, got n=1$"),
    (c_recursion, (4, -1, KLTable(5)), "^need i >= 0, got i=-1$"),
    (kl_poly, (1,), "^need n >= 2, got n=1$"),
    (check_epw2, (1,), "^need n >= 2, got n=1$"),
    (VirtualRep, (-1,), "^need n >= 0, got n=-1$"),
    (exterior_rho, (0, 0), "^need m >= 1, got m=0$"),
    (ih_rep, (1, 0), "^need n >= 2, got n=1$"),
    (ih_rep, (4, -1), "^need i >= 0, got i=-1$"),
]


@pytest.mark.parametrize(
    "func, args, pattern",
    DOMAIN_CASES,
    ids=["%s-%s" % (func.__name__, pattern.split()[1]) for func, _, pattern in DOMAIN_CASES],
)
def test_every_domain_check_speaks_one_format(func, args, pattern):
    with pytest.raises(ValueError, match=pattern):
        func(*args)
