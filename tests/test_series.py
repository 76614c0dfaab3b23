"""Truncated series arithmetic and the generating-function identities.

Inverse and square root are checked against literal geometric and Catalan
expansions before the dissection series is trusted to use them.
"""

from math import comb

import pytest
from hypothesis import given, strategies as st

from uniform_kl.klnumbers import d_bruteforce, d_cayley, kl_poly
from uniform_kl.polynomial import UniPoly
from uniform_kl.series import (
    USeries,
    _mobius_twist,
    beckwith_f,
    check_functional_equation,
    g_series,
    phi_from_table,
)

ORDER = 8

small_polys = st.builds(UniPoly, st.lists(st.integers(-4, 4), max_size=3))
series = st.builds(
    lambda cs: USeries(ORDER, cs), st.lists(small_polys, max_size=ORDER)
)


def geometric(order, ratio):
    """Oracle: 1/(1 - ratio*u) written out term by term."""
    coeffs = []
    power = UniPoly([1])
    for _ in range(order):
        coeffs.append(power)
        power = power * ratio
    return USeries(order, coeffs)


def horner_twist(phi):
    """Oracle: (1-tu+u)^(-2) * phi(t, u/(1-tu+u)) by Horner composition,
    with 1 - tu + u inverted as a series."""
    order = phi.order
    u = USeries.monomial(order, 1)
    dinv = USeries(order, [1, UniPoly([1, -1])]).inverse()
    return dinv * dinv * phi.substitute(u * dinv)


def sqrt_catalan_series(order):
    """Oracle: sqrt(1-4u) = 1 - 2 * sum_{k>=1} Catalan(k-1) u^k, with
    Catalan(n) = C(2n, n) / (n+1)."""
    coeffs = [1] + [-2 * (comb(2 * k - 2, k - 1) // k) for k in range(1, order)]
    return USeries(order, coeffs)


# ------------------------------------------------------------ construction


def test_construction_pads_and_validates():
    s = USeries(4, [1, 2])
    assert s.coeffs == (UniPoly([1]), UniPoly([2]), UniPoly(), UniPoly())
    assert not USeries(3)
    assert USeries.one(3).coeff(0) == 1
    with pytest.raises(ValueError):
        USeries(0)
    with pytest.raises(ValueError):
        USeries(2, [1, 2, 3])
    with pytest.raises(ValueError):
        USeries.monomial(3, 3)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        USeries(3, [1]) + USeries(4, [1])
    with pytest.raises(ValueError):
        USeries(3, [1]) - USeries(4, [1])
    with pytest.raises(ValueError):
        USeries(3, [1]) * USeries(4, [1])


def test_truncated_product():
    u = USeries.monomial(3, 1)
    assert (u * u).coeff(2) == 1
    assert u * u * u == USeries(3)  # truncated away
    t = UniPoly([0, 1])
    s = USeries(3, [1, t]) * USeries(3, [1, -t])
    assert s == USeries(3, [1, 0, UniPoly([0, 0, -1])])


@given(series, series, series)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------- inverse


def test_inverse_of_one_minus_u():
    s = USeries(6, [1, -1])
    assert s.inverse() == geometric(6, UniPoly([1]))


def test_inverse_of_mobius_denominator():
    # 1 - tu + u = 1 + (1-t)u inverts to sum of (t-1)^k u^k
    d = USeries(6, [1, UniPoly([1, -1])])
    inv = d.inverse()
    assert inv == geometric(6, UniPoly([-1, 1]))
    assert inv.coeff(1) == UniPoly([-1, 1])  # t - 1


def test_inverse_requires_constant_unit():
    with pytest.raises(ValueError):
        USeries(3, [0, 1]).inverse()
    with pytest.raises(ValueError):
        USeries(3, [UniPoly([0, 1])]).inverse()  # t is not a constant
    with pytest.raises(ValueError):
        USeries(3, [2]).inverse()  # 2 is not a unit of Z[t]


@given(series, st.sampled_from((1, -1)))
def test_inverse_roundtrip(s, c0):
    s = s + USeries.monomial(ORDER, 0, c0 - s.coeff(0))
    assert s * s.inverse() == USeries.one(ORDER)


# ------------------------------------------------------------------- sqrt


def test_sqrt_of_one_plus_u():
    # the u coefficient of sqrt(1+u) is 1/2, which is not in Z[t]
    with pytest.raises(ArithmeticError):
        USeries(8, [1, 1]).sqrt()


def test_sqrt_of_one_minus_4u():
    assert USeries(10, [1, -4]).sqrt() == sqrt_catalan_series(10)


def test_sqrt_of_perfect_square():
    s = USeries(5, [1, -2, 1])  # (1-u)^2
    assert s.sqrt() == USeries(5, [1, -1])


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        USeries(3, [2]).sqrt()
    with pytest.raises(ValueError):
        USeries(3, [0, 1]).sqrt()


@given(series)
def test_sqrt_roundtrip(r):
    r = r + USeries.monomial(ORDER, 0, 1 - r.coeff(0))
    assert (r * r).sqrt() == r


# ------------------------------------------------------------ composition


def test_substitute_identity_and_power():
    u = USeries.monomial(5, 1)
    s = geometric(5, UniPoly([1]))
    assert s.substitute(u) == s
    s2 = s.substitute(u * u)
    assert s2 == USeries(5, [1, 0, 1, 0, 1])


def test_substitute_mobius_inner():
    # u composed with u/(1-tu+u): the u^2 coefficient is t-1
    order = 5
    u = USeries.monomial(order, 1)
    d = USeries(order, [1, UniPoly([1, -1])])
    inner = u * d.inverse()
    assert u.substitute(inner) == inner
    assert inner.coeff(2) == UniPoly([-1, 1])


def test_substitute_rejects_nonzero_constant():
    u = USeries.monomial(3, 1)
    with pytest.raises(ValueError):
        u.substitute(USeries.one(3))


def test_mobius_twist_matches_horner():
    for order in range(2, 23):
        for phi in (phi_from_table(order), g_series(order)):
            assert _mobius_twist(phi) == horner_twist(phi), order


@given(series)
def test_mobius_twist_matches_horner_drawn(phi):
    assert _mobius_twist(phi) == horner_twist(phi)


# ------------------------------------------------------- named generating


def test_phi_from_table_rows():
    phi = phi_from_table(8)
    assert phi.coeff(0) == UniPoly()
    assert phi.coeff(1) == 1
    assert phi.coeff(3) == UniPoly([1, 2])
    assert phi.coeff(5) == UniPoly([1, 9, 5])
    for n in range(2, 9):
        assert phi.coeff(n - 1) == kl_poly(n)


def test_beckwith_f_frozen_rows():
    f = beckwith_f(8)
    assert f.coeff(0) == 0
    assert f.coeff(1) == 0
    assert f.coeff(2) == 1
    assert f.coeff(3) == UniPoly([1, 2])
    assert f.coeff(4) == UniPoly([1, 5, 5])
    assert f.coeff(5) == UniPoly([1, 9, 21, 14])


def test_beckwith_f_counts_dissections():
    f = beckwith_f(9)
    for m in range(3, 10):
        row = f.coeff(m - 1)
        for k in range(m - 1):
            assert row.coeff(k) == d_cayley(m, k), (m, k)
            assert row.coeff(k) == d_bruteforce(m, k), (m, k)


def test_g_series_matches_phi():
    assert g_series(5).coeff(1) == 1
    assert g_series(5).coeff(3) == UniPoly([1, 2])
    for order in (4, 8, 12):
        assert g_series(order) == phi_from_table(order), order


def test_functional_equation_residual_zero():
    for order in (2, 5, 8, 60):
        assert not check_functional_equation(order), order


def test_functional_equation_skips_horner(monkeypatch):
    def refuse(self, inner):
        raise AssertionError("Horner substitution called")

    monkeypatch.setattr(USeries, "substitute", refuse)
    assert not check_functional_equation(12)


def test_functional_equation_accepts_g_route():
    order = 8
    assert not check_functional_equation(order, phi=g_series(order))


def test_functional_equation_detects_wrong_series():
    for order, exp in ((6, 3), (40, 30)):
        wrong = phi_from_table(order) + USeries.monomial(order, exp)
        assert check_functional_equation(order, phi=wrong), order


def test_functional_equation_domain():
    with pytest.raises(ValueError):
        check_functional_equation(1)
    with pytest.raises(ValueError):
        check_functional_equation(6, phi=phi_from_table(5))
