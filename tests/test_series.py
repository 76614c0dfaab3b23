"""Truncated series arithmetic and the generating-function identities.

Inverse and square root are checked against literal geometric and Catalan
expansions before the dissection series is trusted to use them.
"""

from math import comb

import pytest
from hypothesis import given, strategies as st

from uniform_kl import klnumbers, series as series_module
from uniform_kl.klnumbers import check_epw2, d_bruteforce, d_cayley, kl_poly
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
    u = USeries(order, [0, 1])
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
    with pytest.raises(ValueError):
        USeries(0)
    with pytest.raises(ValueError):
        USeries(2, [1, 2, 3])
    with pytest.raises(ValueError):
        USeries(3, [0, 0, 0, 1])


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        USeries(3, [1]) + USeries(4, [1])
    with pytest.raises(ValueError):
        USeries(3, [1]) - USeries(4, [1])
    with pytest.raises(ValueError):
        USeries(3, [1]) * USeries(4, [1])
    with pytest.raises(TypeError):
        USeries(3) + 1


def test_str_rendering():
    assert str(USeries(3)) == "0"
    assert str(USeries(4, [1, UniPoly((0, 1)), -1, 1])) == "1 + (t)u + (-1)u^2 + u^3"
    assert str(USeries(3, [0, 0, UniPoly((1, 2))])) == "(1 + 2t)u^2"
    assert repr(USeries(2, [1])) == "USeries<order 2: 1>"


def test_truncated_product():
    u = USeries(3, [0, 1])
    assert (u * u).coeffs[2] == 1
    assert u * u * u == USeries(3)  # truncated away
    t = UniPoly([0, 1])
    s = USeries(3, [1, t]) * USeries(3, [1, -t])
    assert s == USeries(3, [1, 0, UniPoly([0, 0, -1])])
    # (1 + t u) (2 + (t - 1) u^2 + 3 u^4), a right factor with zero slots,
    # written out slot by slot; 3t u^5 is truncated away
    s = USeries(5, [1, t]) * USeries(5, [2, 0, UniPoly([-1, 1]), 0, 3])
    assert s == USeries(5, [2, UniPoly([0, 2]), UniPoly([-1, 1]), UniPoly([0, -1, 1]), 3])


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
    assert inv.coeffs[1] == UniPoly([-1, 1])  # t - 1


def test_inverse_requires_constant_unit():
    with pytest.raises(ValueError):
        USeries(3, [0, 1]).inverse()
    with pytest.raises(ValueError):
        USeries(3, [UniPoly([0, 1])]).inverse()  # t is not a constant
    with pytest.raises(ValueError):
        USeries(3, [2]).inverse()  # 2 is not a unit of Z[t]
    with pytest.raises(ValueError, match="^u\\^0 coefficient must be 1$"):
        USeries(3, [-1]).inverse()  # a unit too, but only 1 is taken, as by sqrt


@given(series)
def test_inverse_roundtrip(s):
    s = s + USeries(ORDER, [-s.coeffs[0] + UniPoly((1,))])
    assert s * s.inverse() == USeries(ORDER, [1])


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


def test_sqrt_of_dissection_radicand_matches_legendre_recurrence():
    # y = sqrt(1 - 2au + u^2), a = 2t + 1, solves (1 - 2au + u^2) y' = (u - a) y:
    # (k+1) y_(k+1) = (2k-1) a y_k - (k-2) y_(k-1), y_0 = 1, y_1 = -a
    order = 80
    a = UniPoly([1, 2])
    y = [UniPoly([1]), -a]
    for k in range(1, order - 1):
        y.append(((2 * k - 1) * a * y[k] - (k - 2) * y[k - 1]).divexact(UniPoly([k + 1])))
    assert USeries(order, [1, -2 * a, 1]).sqrt() == USeries(order, y)


def test_sqrt_of_square_with_four_terms():
    r = USeries(ORDER, [1, UniPoly([0, 1]), 1])  # 1 + tu + u^2
    square = r * r  # four nonzero s_m past s_0, so four products per step
    assert sum(1 for c in square.coeffs[1:] if c) == 4
    assert square.sqrt() == r
    # a u^3 term makes the u^3 coefficient of the root 1/2
    with pytest.raises(ArithmeticError):
        (square + USeries(ORDER, [0, 0, 0, 1])).sqrt()


@pytest.mark.parametrize("order", [2, 3, 10])
def test_sqrt_squaring_check_catches_one_corrupted_coefficient(monkeypatch, order):
    # the last root coefficient y_(order-1), divided by 2k = 2(order-1), is
    # read by no later step: only the closing check sees it, in the u^(order-2)
    # slot of 2 s y' - s' y, the last slot that the check compares
    divexact = UniPoly.divexact

    def off_by_one_at_last(self, other):
        out = divexact(self, other)
        return out + UniPoly((1,)) if other == 2 * (order - 1) else out

    monkeypatch.setattr(UniPoly, "divexact", off_by_one_at_last)
    with pytest.raises(ArithmeticError, match="does not square back"):
        USeries(order, [1, -4]).sqrt()


@pytest.mark.parametrize("order", [100, 200])
def test_sqrt_of_dissection_radicand_makes_linearly_many_products(monkeypatch, order):
    # recurrence and check each cost a fixed number of products per slot
    # for the three-term radicand of beckwith_f
    calls = []
    mul = UniPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(UniPoly, "__mul__", counted)
    monkeypatch.setattr(UniPoly, "__rmul__", counted)
    a = UniPoly([1, 2])
    USeries(order, [1, -2 * a, 1]).sqrt()
    assert len(calls) <= 11 * order


@given(series)
def test_sqrt_roundtrip(r):
    r = r + USeries(ORDER, [-r.coeffs[0] + UniPoly((1,))])
    assert (r * r).sqrt() == r


# ------------------------------------------------------------ composition


def test_substitute_identity_and_power():
    u = USeries(5, [0, 1])
    s = geometric(5, UniPoly([1]))
    assert s.substitute(u) == s
    s2 = s.substitute(u * u)
    assert s2 == USeries(5, [1, 0, 1, 0, 1])


def test_substitute_mobius_inner():
    # u composed with u/(1-tu+u): the u^2 coefficient is t-1
    order = 5
    u = USeries(order, [0, 1])
    d = USeries(order, [1, UniPoly([1, -1])])
    inner = u * d.inverse()
    assert u.substitute(inner) == inner
    assert inner.coeffs[2] == UniPoly([-1, 1])


def test_substitute_rejects_nonzero_constant():
    u = USeries(3, [0, 1])
    with pytest.raises(ValueError):
        u.substitute(USeries(3, [1]))


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
    assert phi.coeffs[0] == UniPoly()
    assert phi.coeffs[1] == 1
    assert phi.coeffs[3] == UniPoly([1, 2])
    assert phi.coeffs[5] == UniPoly([1, 9, 5])
    for n in range(2, 9):
        assert phi.coeffs[n - 1] == kl_poly(n)


def test_beckwith_f_frozen_rows():
    f = beckwith_f(8)
    assert f.coeffs[0] == 0
    assert f.coeffs[1] == 0
    assert f.coeffs[2] == 1
    assert f.coeffs[3] == UniPoly([1, 2])
    assert f.coeffs[4] == UniPoly([1, 5, 5])
    assert f.coeffs[5] == UniPoly([1, 9, 21, 14])


def test_beckwith_f_counts_dissections():
    f = beckwith_f(9)
    for m in range(3, 10):
        row = f.coeffs[m - 1].coeffs + (0,)
        for k in range(m - 1):
            assert row[k] == d_cayley(m, k), (m, k)
            assert row[k] == d_bruteforce(m, k), (m, k)


def test_g_series_matches_phi():
    assert g_series(5).coeffs[1] == 1
    assert g_series(5).coeffs[3] == UniPoly([1, 2])
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
        wrong = phi_from_table(order) + USeries(order, [0] * exp + [1])
        assert check_functional_equation(order, phi=wrong), order


@pytest.mark.parametrize("corrupt", [False, True])
def test_functional_equation_row_is_the_degree_reversal_residual(monkeypatch, corrupt):
    # the u^(n-1) coefficient of the residual is the degree-reversal residual
    # of P_n: the first term, built with inverse, gives the binomial row of
    # check_epw2 and _mobius_twist its twisted sum.  P_7 + t breaks both
    # from n = 7 on, identically.
    if corrupt:
        real = klnumbers.kl_poly
        patched = lambda m: real(m) + UniPoly((0, 1)) if m == 7 else real(m)
        monkeypatch.setattr(klnumbers, "kl_poly", patched)
        monkeypatch.setattr(series_module, "kl_poly", patched)
    order = 20
    residual = check_functional_equation(order)
    for n in range(2, order + 1):
        row = residual.coeffs[n - 1]
        assert row == check_epw2(n)[1], n
        assert bool(row) == (corrupt and n >= 7), n


def test_functional_equation_domain():
    with pytest.raises(ValueError):
        check_functional_equation(1)
    # a candidate of another order is refused by the series addition
    for other in (5, 7):
        with pytest.raises(ValueError, match="truncation orders differ"):
            check_functional_equation(6, phi=phi_from_table(other))
