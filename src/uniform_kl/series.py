"""Truncated formal power series in u with integer polynomial coefficients.

The ring is Z[t][[u]] cut off at a fixed order.  It carries the two
generating series of interest: the dissection series in closed form
(square root and exact division) and the series of Kazhdan-Lusztig
polynomials, together with the substitution identity that relates a series
to its coefficientwise degree reversal.  Inverse and square root stay in
Z[t][[u]]: they accept only inputs whose result is integral there and raise
otherwise.
"""

from __future__ import annotations

from .klnumbers import kl_poly, twisted_binomial_sum
from .polynomial import UniPoly

__all__ = [
    "USeries",
    "phi_from_table",
    "beckwith_f",
    "g_series",
    "check_functional_equation",
]


class USeries:
    """Power series in u truncated at order N: slots for u^0 .. u^(N-1),
    each a UniPoly in t with int coefficients; scalars given to the
    constructor must be ints.  Operations require equal truncation orders."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 1:
            raise ValueError("order must be positive, got %d" % order)
        cs = [c if isinstance(c, UniPoly) else UniPoly((c,)) for c in coeffs]
        if len(cs) > order:
            raise ValueError("got %d coefficients for order %d" % (len(cs), order))
        cs.extend(UniPoly() for _ in range(order - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, order):
        return cls(order, (1,))

    @classmethod
    def monomial(cls, order, exp, coeff=1):
        """coeff * u^exp; `coeff` may be a scalar or a UniPoly in t."""
        if not 0 <= exp < order:
            raise ValueError("exponent %d outside truncation order %d" % (exp, order))
        return cls(order, [0] * exp + [coeff])

    def coeff(self, exp) -> UniPoly:
        if 0 <= exp < self.order:
            return self.coeffs[exp]
        return UniPoly()

    def _same_order(self, other):
        if self.order != other.order:
            raise ValueError(
                "truncation orders differ: %d vs %d" % (self.order, other.order)
            )

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other):
        if isinstance(other, (int, UniPoly)):
            other = USeries.monomial(self.order, 0, other)
        if not isinstance(other, USeries):
            return NotImplemented
        self._same_order(other)
        return USeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return USeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, UniPoly)):
            return USeries(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, USeries):
            return NotImplemented
        self._same_order(other)
        out = [UniPoly() for _ in range(self.order)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return USeries(self.order, out)

    __rmul__ = __mul__

    def inverse(self) -> "USeries":
        """Multiplicative inverse; the u^0 coefficient must be the constant
        1 or -1, the units of Z[t].  Uses the triangular recurrence
        r_k = -s_0 * sum_{j>=1} s_j r_{k-j}."""
        lead = self.coeffs[0].coeff(0)
        if self.coeffs[0].degree != 0 or lead not in (1, -1):
            raise ValueError("u^0 coefficient must be the constant 1 or -1")
        out = [UniPoly((lead,))]
        for k in range(1, self.order):
            acc = UniPoly()
            for j in range(1, k + 1):
                sj = self.coeffs[j]
                if sj and out[k - j]:
                    acc += sj * out[k - j]
            out.append(acc * -lead)
        return USeries(self.order, out)

    def sqrt(self) -> "USeries":
        """Square root with constant term 1, by the triangular recurrence
        r_k = (s_k - sum_{0<j<k} r_j r_{k-j}) / 2, each cross product made once
        for j < k/2 and doubled.  Each halving is an exact division, so
        ArithmeticError is raised when the root is not in Z[t][[u]]; the
        result is verified by squaring before it is returned."""
        if self.coeffs[0] != UniPoly((1,)):
            raise ValueError("u^0 coefficient must be 1")
        two = UniPoly((2,))
        root = [self.coeffs[0]]
        for k in range(1, self.order):
            half = UniPoly()
            for j in range(1, (k + 1) // 2):
                if root[j] and root[k - j]:
                    half += root[j] * root[k - j]
            cross = 2 * half
            if not k & 1:
                cross += root[k // 2] * root[k // 2]
            root.append((self.coeffs[k] - cross).divexact(two))
        out = USeries(self.order, root)
        if out * out != self:
            raise ArithmeticError("square root does not square back to the input")
        return out

    def substitute(self, inner: "USeries") -> "USeries":
        """Compose, replacing u by `inner`; `inner` must have zero constant
        term so the truncation stays meaningful.  Horner evaluation."""
        self._same_order(inner)
        if inner.coeffs[0]:
            raise ValueError("inner series must have zero u^0 coefficient")
        out = USeries(self.order)
        for c in reversed(self.coeffs):
            out = out * inner
            if c:
                out = out + c
        return out

    def __str__(self):
        pieces = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            u = "" if e == 0 else ("u" if e == 1 else "u^%d" % e)
            body = str(c) if not u else ("(%s)%s" % (c, u) if len(c.coeffs) > 1 or c != 1 else u)
            pieces.append(body)
        if not pieces:
            return "0"
        return " + ".join(pieces)

    def __repr__(self):
        return "USeries<order %d: %s>" % (self.order, self)


def phi_from_table(order: int) -> USeries:
    """Series whose u^(n-1) coefficient is the Kazhdan-Lusztig polynomial
    P_n, for 2 <= n <= order."""
    coeffs = [UniPoly()]
    for n in range(2, order + 1):
        coeffs.append(kl_poly(n))
    return USeries(order, coeffs[:order])


def beckwith_f(order: int) -> USeries:
    """Dissection series in closed form: the u^m coefficient lists the
    counts of k-diagonal dissections of a convex (m+1)-gon by t-degree.

    Built as 2((2t+1)u + sqrt(1 - 2(2t+1)u + u^2) - 1) divided exactly by
    1 - (2t+1)^2 = -4t - 4t^2.  Each u-coefficient division is exact in
    Z[t], so a remainder or a non-integral count raises ArithmeticError.
    """
    a = UniPoly((1, 2))  # 2t + 1
    radicand = USeries(order, [UniPoly((1,)), -2 * a, UniPoly((1,))][:order])
    numerator = (USeries(order, [UniPoly(), a][:order]) + radicand.sqrt() - 1) * 2
    denominator = UniPoly((0, -4, -4))
    return USeries(order, [c.divexact(denominator) for c in numerator.coeffs])


def g_series(order: int) -> USeries:
    """Rescale the dissection series, t -> t*u followed by division by u,
    so the u^(n-1) coefficient collects the dissection numbers that match
    the Kazhdan-Lusztig coefficients of P_n."""
    f = beckwith_f(order + 1)
    lifted = [[0] * (k + 1) for k in range(order + 1)]
    for e, poly in enumerate(f.coeffs):
        for i, c in enumerate(poly.coeffs[: order - e + 1]):
            lifted[e + i][i] += c
    shifted = [UniPoly(row) for row in lifted]
    if shifted[0]:
        raise ArithmeticError("rescaled dissection series must vanish at u^0")
    return USeries(order, shifted[1:])


def check_functional_equation(order: int, phi: USeries | None = None) -> USeries:
    """Residual of the substitution identity tying Phi to its coefficientwise
    degree reversal.

    The left side has u^(n-1) coefficient t^(n-1) P_n(1/t), built by
    polynomial reversal.  The right side is
        (t-1)u / ((1-tu+u)(1+u)) + (1-tu+u)^(-2) * Phi(t, u/(1-tu+u)),
    the first term by series inversion and the second by the closed
    binomial expansion of _mobius_twist.  Returns the difference, which
    must be the zero series.  `phi` defaults to the table series and may be
    replaced by any candidate of the same order.
    """
    if order < 2:
        raise ValueError("order must be at least 2, got %d" % order)
    if phi is None:
        phi = phi_from_table(order)
    elif phi.order != order:
        raise ValueError("phi has order %d, expected %d" % (phi.order, order))
    lhs_coeffs = [UniPoly()]
    for n in range(2, order + 1):
        lhs_coeffs.append(kl_poly(n).reverse(n - 1))
    lhs = USeries(order, lhs_coeffs[:order])

    one = USeries.one(order)
    u = USeries.monomial(order, 1)
    d = one + USeries.monomial(order, 1, UniPoly((1, -1)))  # 1 - tu + u
    first = USeries.monomial(order, 1, UniPoly((-1, 1))) * (d * (one + u)).inverse()
    return lhs - (first + _mobius_twist(phi))


def _mobius_twist(phi: USeries) -> USeries:
    """(1-tu+u)^(-2) * phi(t, u/(1-tu+u)) by its closed expansion.

    With phi = sum_k phi_k u^k, the term phi_k u^k (1 + (1-t)u)^(-(k+2))
    contributes C(k+1+j, j) (t-1)^j phi_k to u^(k+j), and C(k+1+j, j) =
    C(m+1, j) for m = k + j, so the u^m coefficient is
        sum over 0 <= j <= m of C(m+1, j) (t-1)^j phi_(m-j),
    the twisted binomial sum of phi_0 .. phi_m (k = m - j + 1 there).
    """
    return USeries(
        phi.order, [twisted_binomial_sum(phi.coeffs[: m + 1]) for m in range(phi.order)]
    )
