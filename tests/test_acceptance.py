"""Acceptance gate: the nine cross-checks at their contract bounds.

Each test prints one line so a log scan shows the verdicts at a glance.
Run with `pytest -v -s tests/test_acceptance.py` to see the lines live.
"""

import time
from math import comb

import pytest

from uniform_kl.klnumbers import (
    KLTable,
    c_closed,
    c_recursion,
    check_epw2,
    check_logconcave,
    d_bruteforce,
    d_cayley,
    kl_poly,
)
from uniform_kl.series import check_functional_equation, g_series, phi_from_table
from uniform_kl.symreps import (
    Partition,
    hook_dimension,
    ih_rep,
    lemma_key_check,
    lemma_key_expected,
    lr_coefficient,
    partitions_of,
    verify_main2,
)


@pytest.fixture(scope="module")
def table25():
    return KLTable(25)


def _report(k, label, t0):
    print("ACCEPTANCE %d PASS: %s (%.2fs)" % (k, label, time.perf_counter() - t0))


def test_acceptance_1_recursion_equals_closed_form(table25):
    t0 = time.perf_counter()
    for n in range(2, 26):
        for i in range(n + 2):
            assert c_recursion(n, i, table25) == c_closed(n, i), (n, i)
    _report(1, "recursion equals closed form for 2 <= n <= 25, all i", t0)


def test_acceptance_2_chord_identity():
    t0 = time.perf_counter()
    for n in range(2, 13):
        for i in range(1, n - 1):
            assert c_closed(n, i) == d_bruteforce(n - i + 1, i), (n, i)
    for m in range(3, 13):
        for k in range(m - 1):
            assert d_cayley(m, k) == d_bruteforce(m, k), (m, k)
    _report(2, "chord counts match both closed forms up to 12", t0)


def test_acceptance_3_functional_equation():
    t0 = time.perf_counter()
    residual = check_functional_equation(12)
    assert not residual, residual
    assert g_series(12) == phi_from_table(12)
    _report(3, "functional equation and dissection series at order 12", t0)


def test_acceptance_4_degree_reversal_identity(table25):
    t0 = time.perf_counter()
    for n in range(2, 21):
        ok, residual = check_epw2(n)
        assert ok and not residual, (n, residual)
        # the identity is checked against closed-form polynomials; pin those
        # to the recursion route so the reversal identity is cross-validated
        # by two independent coefficient computations
        row = [table25.get(n, i) for i in range((n - 2) // 2 + 1)]
        assert list(kl_poly(n).coeffs) == row, n
    _report(
        4,
        "degree-reversal identity (alternating-sum exponent n-j-1) for "
        "2 <= n <= 20, coefficients cross-checked against the recursion",
        t0,
    )


def test_acceptance_5_log_concavity():
    t0 = time.perf_counter()
    for n in range(2, 61):
        for triple in check_logconcave(n):
            assert triple.strict, triple
    _report(5, "strict log-concavity for 2 <= n <= 60", t0)


def test_acceptance_6_single_irreducible():
    t0 = time.perf_counter()
    for n in range(2, 21):
        for i in range((n - 2) // 2 + 1):
            assert verify_main2(n, i), (n, i)
    _report(6, "each cohomology character is one irreducible up to n = 20", t0)


def test_acceptance_7_dimension_consistency():
    t0 = time.perf_counter()
    for n in range(2, 26):
        for i in range((n - 2) // 2 + 1):
            target = Partition((n - 2 * i,) + (2,) * i)
            assert hook_dimension(target) == c_closed(n, i), (n, i)
    for n in range(2, 21):
        for i in range((n - 2) // 2 + 1):
            assert ih_rep(n, i).dimension() == c_closed(n, i), (n, i)
    _report(7, "hook and engine dimensions match the closed form", t0)


def test_acceptance_8_key_lemma_pattern():
    t0 = time.perf_counter()
    cases = 0
    for n in range(2, 13):
        for i in range((n - 2) // 2 + 1):
            for p in range(1, min(2 * i, n - 1) + 1):
                for q in range(min(i, 2 * i - p) + 1):
                    assert lemma_key_check(n, i, p, q) == lemma_key_expected(
                        n, i, p, q
                    ), (n, i, p, q)
                    cases += 1
    assert cases > 300
    _report(8, "key multiplicity pattern over %d admissible tuples" % cases, t0)


def test_acceptance_9_lr_symmetry_and_bilinearity():
    t0 = time.perf_counter()
    for total in range(0, 11):
        for musize in range(total + 1):
            lamsize = total - musize
            for mu in partitions_of(musize):
                for lam in partitions_of(lamsize):
                    dim_sum = 0
                    for nu in partitions_of(total):
                        c = lr_coefficient(nu, mu, lam)
                        assert c == lr_coefficient(nu, lam, mu), (nu, mu, lam)
                        if c:
                            dim_sum += c * hook_dimension(nu)
                    assert dim_sum == comb(total, musize) * hook_dimension(
                        mu
                    ) * hook_dimension(lam), (mu, lam)
    _report(9, "LR symmetry and dimension bilinearity for |nu| <= 10", t0)
