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
    # a bool is no int scalar on either side, though -True is the int -1
    p, s = UniPoly([1, 2]), USeries(3, [1, 2])
    for x in (p, s):
        for op in (
            lambda: x + True, lambda: True + x,
            lambda: x - True, lambda: True - x,
            lambda: x * True, lambda: True * x,
        ):
            with pytest.raises(TypeError):
                op()
    assert (UniPoly([1]) == True) is False  # noqa: E712
    assert UniPoly() != False  # noqa: E712
    # `+` and `-` take only their own type, and so does USeries `*`; UniPoly
    # `*` takes an int scalar besides; a constant is spelled UniPoly((c,)) or
    # USeries(order, [c])
    for op in (
        lambda: p + 1, lambda: 1 + p, lambda: p - 1,
        lambda: s + 1, lambda: 1 + s, lambda: s + p, lambda: s - p,
        lambda: 2 * s, lambda: s * 2, lambda: s * p,
    ):
        with pytest.raises(TypeError):
            op()
    assert p * 2 == 2 * p == UniPoly([2, 4])
    assert UniPoly([1]) == 1


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
    t, one = UniPoly([0, 1]), UniPoly((1,))
    p = (t - one) * (t + one)
    assert p == UniPoly([-1, 0, 1])
    assert p + one == t * t
    assert 2 * t == UniPoly([0, 2])
    assert (t - one) ** 2 == UniPoly([1, -2, 1])
    assert t ** 0 == 1
    assert UniPoly() * t == t * UniPoly() == UniPoly() * UniPoly() == 0
    assert UniPoly([0, 0, 3]) * UniPoly([2, 0, -1]) == UniPoly([0, 0, 6, 0, -3])


def test_power_takes_only_nonnegative_int_exponents():
    t = UniPoly([0, 1])
    # a bool is no int exponent, though t ** True would be t
    for k in (True, False, 2.0, 0.5, Fraction(2)):
        with pytest.raises(TypeError):
            t ** k
    with pytest.raises(ValueError):
        t ** -1


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
    t, one, two = UniPoly([0, 1]), UniPoly((1,)), UniPoly((2,))
    num = (t - one) * (t + two) * 3
    assert num.divexact(t - one) == 3 * (t + two)
    assert UniPoly().divexact(t) == 0
    assert UniPoly().divexact(t * t) == 0
    with pytest.raises(ArithmeticError):
        (t + one).divexact(t)
    with pytest.raises(ArithmeticError, match="^1 is not divisible by t$"):
        UniPoly((1,)).divexact(t)  # dividend of lower degree than the divisor
    with pytest.raises(ArithmeticError):
        (t + one).divexact(two)  # the quotient is not in Z[t]
    with pytest.raises(ZeroDivisionError):
        t.divexact(UniPoly())
    for divisor in (2, 2.0, "2", True):  # named in the error, not an AttributeError
        with pytest.raises(TypeError, match="got %s$" % type(divisor).__name__):
            UniPoly((4,)).divexact(divisor)


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


def test_str_rendering():
    assert str(UniPoly()) == "0"
    assert str(UniPoly([1, 9, 5])) == "1 + 9t + 5t^2"
    assert str(UniPoly([0, -4, -4])) == "-4t - 4t^2"
    assert str(UniPoly([0, 1])) == "t"
    assert str(UniPoly([-1, 1])) == "-1 + t"
    assert str(UniPoly([1, -1])) == "1 - t"
    assert str(UniPoly([0, -1])) == "-t"
    assert str(UniPoly([-3])) == "-3"
    assert str(UniPoly([2, 0, -1])) == "2 - t^2"
