"""Dense univariate polynomials over the integers.

Every polynomial the package builds (coefficient rows, generating-series
coefficients, dissection counts) lies in Z[t], so the shared polynomial type
keeps int coefficients, refuses any other coefficient type, and divides only
when the quotient is again integral.
"""

from __future__ import annotations

from itertools import zip_longest

__all__ = ["UniPoly"]


class UniPoly:
    """Polynomial in one variable t with int coefficients.

    Coefficients are stored densely, indexed by exponent, with trailing
    zeros trimmed; the zero polynomial has an empty coefficient tuple.
    Any coefficient that is not an int (a float, a rational, a bool) raises
    TypeError, so no inexact or rational value can enter the arithmetic.
    Instances are immutable by convention but not hashable: they compare
    equal to plain ints, and equal values must hash alike.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise TypeError("coefficients must be int, got %s" % type(c).__name__)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, exp, coeff=1):
        if exp < 0:
            raise ValueError("monomial exponent must be nonnegative, got %d" % exp)
        return cls((0,) * exp + (coeff,))

    @property
    def degree(self):
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def coeff(self, exp):
        if 0 <= exp < len(self.coeffs):
            return self.coeffs[exp]
        return 0

    def reverse(self, degree):
        """Coefficient reversal t**degree * p(1/t); requires deg p <= degree."""
        if self.degree > degree:
            raise ValueError(
                "cannot reverse a degree-%d polynomial at degree %d" % (self.degree, degree)
            )
        out = [0] * (degree + 1)
        for e, c in enumerate(self.coeffs):
            out[degree - e] = c
        return UniPoly(out)

    def divexact(self, other):
        """Exact quotient self / other in Z[t]; ArithmeticError if a remainder
        is left or the quotient would need a non-integer coefficient."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return UniPoly()
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        rem = list(self.coeffs)
        if len(rem) - 1 < dd:
            raise ArithmeticError("%s is not divisible by %s" % (self, other))
        quot = [0] * (len(rem) - dd)
        for pos in range(len(quot) - 1, -1, -1):
            q, r = divmod(rem[pos + dd], lead)
            if r:
                raise ArithmeticError("%s is not divisible by %s" % (self, other))
            quot[pos] = q
            if q:
                for e, c in enumerate(div):
                    rem[pos + e] -= q * c
        if any(rem[:dd]):
            raise ArithmeticError("%s is not divisible by %s" % (self, other))
        return UniPoly(quot)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if isinstance(other, int):
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly([a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = UniPoly((1,))
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = head + ("t" if e == 1 else "t^%d" % e)
            if not pieces:
                pieces.append(("-" if c < 0 else "") + body)
            else:
                pieces.append(("- " if c < 0 else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return "UniPoly<%s>" % self
