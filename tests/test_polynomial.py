"""Integer polynomial arithmetic: ring laws, reversal, exact division, and
the refusal of every coefficient that is not an int."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from uniform_kl.polynomial import UniPoly
from uniform_kl.series import USeries

small_coeffs = st.lists(st.integers(-9, 9), max_size=6)
polys = st.builds(lambda cs: UniPoly(cs), small_coeffs)


def test_trailing_zeros_trimmed():
    assert UniPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert UniPoly([0, 0]).coeffs == ()
    assert UniPoly().degree == -1
    assert UniPoly([5]).degree == 0
    assert UniPoly([0, 0, 3]).degree == 2


def test_non_integer_coefficients_rejected():
    with pytest.raises(TypeError):
        UniPoly([0.5])
    with pytest.raises(TypeError):
        UniPoly([Fraction(1, 2)])
    with pytest.raises(TypeError):
        USeries(3, [1, 0.5])
    # subtraction is addition of the negation, which must not let them in
    with pytest.raises(TypeError):
        UniPoly([1]) - 0.5
    with pytest.raises(TypeError):
        UniPoly([1]) - Fraction(1, 2)
    with pytest.raises(TypeError):
        USeries(3, [1]) - 0.5


def test_equality_with_scalars():
    assert UniPoly([7]) == 7
    assert UniPoly() == 0
    assert UniPoly([0, 1]) != 1


def test_equal_to_scalars_hence_unhashable():
    # equal to an int, so a hash would have to match int hashing; there is none
    assert UniPoly((5,)) == 5
    with pytest.raises(TypeError):
        hash(UniPoly((5,)))


def test_basic_arithmetic():
    t = UniPoly([0, 1])
    p = (t - 1) * (t + 1)
    assert p == UniPoly([-1, 0, 1])
    assert p + 1 == t * t
    assert 2 * t == UniPoly([0, 2])
    assert (t - 1) ** 2 == UniPoly([1, -2, 1])
    assert t ** 0 == 1


def test_coeff_lookup_out_of_range():
    p = UniPoly([3, 1])
    assert p.coeff(0) == 3
    assert p.coeff(5) == 0
    assert p.coeff(-1) == 0


def test_monomial():
    assert UniPoly.monomial(3) == UniPoly([0, 0, 0, 1])
    assert UniPoly.monomial(0, 4) == 4
    with pytest.raises(ValueError):
        UniPoly.monomial(-1)


def test_reverse():
    p = UniPoly([1, 14, 21])
    assert p.reverse(6) == UniPoly([0, 0, 0, 0, 21, 14, 1])
    assert UniPoly().reverse(3) == 0
    with pytest.raises(ValueError):
        p.reverse(1)


@given(polys, st.integers(0, 8))
def test_reverse_is_an_involution(p, extra):
    d = max(p.degree, 0) + extra
    assert p.reverse(d).reverse(d) == p


def test_divexact():
    t = UniPoly([0, 1])
    num = (t - 1) * (t + 2) * 3
    assert num.divexact(t - 1) == 3 * (t + 2)
    assert UniPoly().divexact(t) == 0
    with pytest.raises(ArithmeticError):
        (t + 1).divexact(t)
    with pytest.raises(ArithmeticError):
        (t + 1).divexact(UniPoly([2]))  # the quotient is not in Z[t]
    with pytest.raises(ZeroDivisionError):
        t.divexact(UniPoly())


@given(polys, polys)
def test_product_division_roundtrip(a, b):
    if not b:
        return
    assert (a * b).divexact(b) == a


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert (a - b) + b == a
    assert 5 - a == -(a - 5)


def test_str_rendering():
    assert str(UniPoly()) == "0"
    assert str(UniPoly([1, 9, 5])) == "1 + 9t + 5t^2"
    assert str(UniPoly([0, -4, -4])) == "-4t - 4t^2"
    assert str(UniPoly([0, 1])) == "t"
    assert str(UniPoly([-1, 1])) == "-1 + t"
