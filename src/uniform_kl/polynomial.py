"""Dense univariate polynomials over the integers.

Every polynomial the package builds (coefficient rows, generating-series
coefficients, dissection counts) lies in Z[t], so the shared polynomial type
keeps int coefficients, refuses any other coefficient type, and divides only
when the quotient is again integral.
"""


def _need(name, value, least):
    """Refuse an argument below the least value of its domain."""
    if value < least:
        raise ValueError("need %s >= %d, got %s=%d" % (name, least, name, value))


def _sum_text(terms):
    """Text of a sum from (coefficient, body) pairs, each body showing the
    magnitude of its coefficient: terms joined by " + " or " - ", a bare "-"
    before a negative first term, and "0" for the empty sum."""
    text = "".join((" - " if c < 0 else " + ") + body for c, body in terms)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


class UniPoly:
    """Polynomial in one variable t with int coefficients.

    Coefficients are stored densely, indexed by exponent, with trailing
    zeros trimmed; the zero polynomial has an empty coefficient tuple.
    `+` and `-` take another UniPoly only (a constant is `UniPoly((c,))`);
    `*` also takes an int scalar on either side.  Any other operand, and any
    coefficient that is not an int (a float, a rational, a bool), raises
    TypeError, so no inexact or rational value can enter the arithmetic; a
    bool compares unequal.
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

    @property
    def degree(self):
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

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
        if not isinstance(other, UniPoly):
            raise TypeError("divisor must be UniPoly, got %s" % type(other).__name__)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        div = other.coeffs
        dd = len(div) - 1
        lead = div[-1]
        rem = list(self.coeffs)
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
        if type(other) is int:
            other = UniPoly((other,))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        pad = (0,) * abs(len(self.coeffs) - len(other.coeffs))
        return UniPoly([a + b for a, b in zip(self.coeffs + pad, other.coeffs + pad)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if type(other) is int:
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int:
            raise TypeError("exponent must be int, got %s" % type(k).__name__)
        _need("k", k, 0)
        out = UniPoly((1,))
        for _ in range(k):
            out = out * self
        return out

    def __str__(self):
        return _sum_text(
            (c, ("" if e and abs(c) == 1 else str(abs(c))) + ("t^%d" % e if e > 1 else "t" * e))
            for e, c in enumerate(self.coeffs)
            if c
        )

    def __repr__(self):
        return "UniPoly<%s>" % self
