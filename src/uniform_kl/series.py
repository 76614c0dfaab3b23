"""Truncated formal power series in u with integer polynomial coefficients.

The ring is Z[t][[u]] cut off at a fixed order.  It carries the two
generating series of interest: the dissection series in closed form
(square root and exact division) and the series of Kazhdan-Lusztig
polynomials, together with the substitution identity that relates a series
to its coefficientwise degree reversal.  Inverse and square root stay in
Z[t][[u]]: they accept only inputs whose result is integral there and raise
otherwise.
"""

from .klnumbers import kl_poly, twisted_binomial_sum
from .polynomial import UniPoly, _need, _sum_text


class USeries:
    """Power series in u truncated at order N: slots for u^0 .. u^(N-1),
    each a UniPoly in t with int coefficients; the constructor also reads
    an int as a constant coefficient.  `+`, `-` and `*` take only another
    USeries of the same order (ValueError otherwise).  A constant series is
    `USeries(order, [c])`."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        _need("order", order, 1)
        cs = [c if isinstance(c, UniPoly) else UniPoly((c,)) for c in coeffs]
        if len(cs) > order:
            raise ValueError("got %d coefficients for order %d" % (len(cs), order))
        cs.extend(UniPoly() for _ in range(order - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

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
        if not isinstance(other, USeries):
            return NotImplemented
        self._same_order(other)
        return USeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return USeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, USeries):
            return NotImplemented
        self._same_order(other)
        out = [UniPoly() for _ in range(self.order)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(self.order - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return USeries(self.order, out)

    def inverse(self) -> "USeries":
        """Multiplicative inverse; the u^0 coefficient must be 1.  Uses the
        triangular recurrence r_k = -sum_{j>=1} s_j r_{k-j}."""
        if self.coeffs[0] != UniPoly((1,)):
            raise ValueError("u^0 coefficient must be 1")
        out = [self.coeffs[0]]
        for k in range(1, self.order):
            acc = UniPoly()
            for j in range(1, k + 1):
                sj = self.coeffs[j]
                if sj:
                    acc += sj * out[k - j]
            out.append(-acc)
        return USeries(self.order, out)

    def sqrt(self) -> "USeries":
        """Square root with constant term 1, from the differential equation
        s (2y') = s' y of y = sqrt(s): its u^(k-1) coefficient gives
            2k y_k = sum over 0 < m <= k of (3m - 2k) s_m y_(k-m),
        one product per nonzero s_m; a remainder in the exact division by
        2k raises ArithmeticError.  The root is checked against the same
        equation, radicand on the left so its zero slots cost no products,
        bar the last slot, which would need y_order.  With z = y^2,
        y (s (2y') - s' y) = s z' - s' z = s^2 (z/s)', and y, s are units with
        z_0 = s_0 = 1, so over Q the check passes iff y^2 = s up to u^order."""
        if self.coeffs[0] != UniPoly((1,)):
            raise ValueError("u^0 coefficient must be 1")
        root = [self.coeffs[0]]
        for k in range(1, self.order):
            acc = UniPoly()
            for m in range(1, k + 1):
                if self.coeffs[m]:
                    acc += self.coeffs[m] * root[k - m] * (3 * m - 2 * k)
            root.append(acc.divexact(UniPoly((2 * k,))))
        y = USeries(self.order, root)
        two_dy = USeries(self.order, [2 * k * c for k, c in enumerate(root)][1:])
        ds = USeries(self.order, [k * c for k, c in enumerate(self.coeffs)][1:])
        if any((self * two_dy - ds * y).coeffs[:-1]):
            raise ArithmeticError("square root does not square back to the input")
        return y

    def substitute(self, inner: "USeries") -> "USeries":
        """Compose, replacing u by `inner`; `inner` must have zero constant
        term so the truncation stays meaningful.  Horner evaluation, each
        coefficient added as the constant series `USeries(order, [c])`."""
        self._same_order(inner)
        if inner.coeffs[0]:
            raise ValueError("inner series must have zero u^0 coefficient")
        out = USeries(self.order)
        for c in reversed(self.coeffs):
            out = out * inner
            if c:
                out = out + USeries(self.order, [c])
        return out

    def __str__(self):
        return _sum_text(
            (1, str(c) if e == 0 else ("" if c == 1 else "(%s)" % c) + ("u^%d" % e if e > 1 else "u"))
            for e, c in enumerate(self.coeffs)
            if c
        )

    def __repr__(self):
        return "USeries<order %d: %s>" % (self.order, self)


def phi_from_table(order: int) -> USeries:
    """Series whose u^(n-1) coefficient is the Kazhdan-Lusztig polynomial
    P_n, for 2 <= n <= order."""
    return USeries(order, [kl_poly(n) if n > 1 else UniPoly() for n in range(1, order + 1)])


def beckwith_f(order: int) -> USeries:
    """Dissection series in closed form: the u^m coefficient lists the
    counts of k-diagonal dissections of a convex (m+1)-gon by t-degree.

    Built as (2t+1)u + sqrt(1 - 2(2t+1)u + u^2) - 1 divided exactly by
    (1 - (2t+1)^2) / 2 = -2t - 2t^2.  Each u-coefficient division is exact in
    Z[t], so a remainder or a non-integral count raises ArithmeticError.
    """
    a = UniPoly((1, 2))  # 2t + 1
    radicand = USeries(order, [UniPoly((1,)), -2 * a, UniPoly((1,))][:order])
    numerator = USeries(order, [-1, a][:order]) + radicand.sqrt()
    denominator = UniPoly((0, -2, -2))
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
    the first term by inverting the expanded denominator
    1 + (2-t)u + (1-t)u^2 and the second by the closed binomial expansion
    of _mobius_twist.  Returns the difference, which must be the zero
    series.  `phi` defaults to the table series and may be replaced by any
    candidate of the same order; any other order raises ValueError.
    """
    _need("order", order, 2)
    table = phi_from_table(order)
    if phi is None:
        phi = table
    # The left side reverses the table rows whatever phi is: a candidate
    # row of too high a degree must show up in the residual, not raise.
    lhs = USeries(order, [c.reverse(m) for m, c in enumerate(table.coeffs)])

    denominator = USeries(order, [1, UniPoly((2, -1)), UniPoly((1, -1))][:order])
    first = USeries(order, [0, UniPoly((-1, 1))]) * denominator.inverse()
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
