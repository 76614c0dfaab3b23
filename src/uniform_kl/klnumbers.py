"""Coefficients of the Kazhdan-Lusztig polynomial of the uniform matroid of
rank n-1 on n elements.

Three independent routes to the same integers live here: a product closed
form, a bottom-up inclusion-exclusion recursion over a coefficient table,
and brute-force enumeration of non-crossing diagonal sets of a convex
polygon.  The degree-reversal identity and strict log-concavity of the
coefficient rows are checked by dedicated functions.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .polynomial import UniPoly

D_BRUTEFORCE_MAX_M = 12

__all__ = [
    "c_closed",
    "d_cayley",
    "polygon_diagonals",
    "diagonals_cross",
    "d_bruteforce",
    "KLTable",
    "c_recursion",
    "kl_poly",
    "twisted_binomial_sum",
    "check_epw2",
    "LogConcaveTriple",
    "check_logconcave",
]


def c_closed(n: int, i: int) -> int:
    """Coefficient of t^i: binom(n-i-2, i) * binom(n, i) / (i+1), exactly.

    Vanishes precisely when 2i >= n - 1.
    """
    if n < 2:
        raise ValueError("need n >= 2, got n=%d" % n)
    if i < 0:
        raise ValueError("need i >= 0, got i=%d" % i)
    if 2 * i >= n - 1:
        return 0
    value, rem = divmod(math.comb(n - i - 2, i) * math.comb(n, i), i + 1)
    if rem or value <= 0:
        raise ArithmeticError("closed form must divide exactly at (n=%d, i=%d)" % (n, i))
    return value


def d_cayley(m: int, k: int) -> int:
    """Number of k-element non-crossing diagonal sets of a convex m-gon,
    by the closed form binom(m-3, k) * binom(m+k-1, k) / (k+1)."""
    if m < 3:
        raise ValueError("need m >= 3, got m=%d" % m)
    if k < 0:
        raise ValueError("need k >= 0, got k=%d" % k)
    value, rem = divmod(math.comb(m - 3, k) * math.comb(m + k - 1, k), k + 1)
    if rem:
        raise ArithmeticError(
            "dissection closed form must divide exactly at (m=%d, k=%d)" % (m, k)
        )
    return value


def polygon_diagonals(m: int):
    """Diagonals of the convex m-gon on vertices 0..m-1, as sorted pairs."""
    if m < 3:
        raise ValueError("need m >= 3, got m=%d" % m)
    return [
        (a, b)
        for a in range(m)
        for b in range(a + 2, m)
        if (a, b) != (0, m - 1)
    ]


def diagonals_cross(d, e) -> bool:
    """True when the two diagonals cross in the interior.

    Diagonals that share an endpoint do not cross.
    """
    (a, b), (c, f) = d, e
    return a < c < b < f or c < a < f < b


def d_bruteforce(m: int, k: int) -> int:
    """Count k-element non-crossing diagonal sets by backtracking.

    Serves as an enumeration oracle for d_cayley.  One cached walk visits
    every non-crossing set of the m-gon and counts them by size, so
    polygons are capped at D_BRUTEFORCE_MAX_M = 12 sides, where the walk
    takes about 0.2 s.
    """
    if m < 3:
        raise ValueError("need m >= 3, got m=%d" % m)
    if m > D_BRUTEFORCE_MAX_M:
        raise ValueError("m=%d exceeds the enumeration cap %d" % (m, D_BRUTEFORCE_MAX_M))
    counts = _dissection_counts(m)
    if k < 0 or k >= len(counts):
        return 0
    return counts[k]


@functools.cache
def _dissection_counts(m: int):
    """Tuple whose entry k is the number of k-element non-crossing diagonal
    sets of the m-gon, from one walk over all of them."""
    diags = polygon_diagonals(m)
    # blockers[x] has bit y set when diagonal y crosses diagonal x
    blockers = [0] * len(diags)
    for x in range(len(diags)):
        for y in range(x + 1, len(diags)):
            if diagonals_cross(diags[x], diags[y]):
                blockers[x] |= 1 << y
                blockers[y] |= 1 << x
    counts = [0] * (len(diags) + 1)

    def walk(free, size):
        # free: bitmask of the diagonals above the last one taken that cross
        # none taken so far; each set is reached once, in increasing order
        counts[size] += 1
        while free:
            low = free & -free
            free ^= low
            walk(free & ~blockers[low.bit_length() - 1], size + 1)

    walk((1 << len(diags)) - 1, 0)
    return tuple(counts)


class KLTable:
    """Grid of coefficients filled bottom-up by the double-sum recursion.

    Only the band 2i < n - 1 is stored; get() applies the vanishing
    convention (zero for i < 0 and for 2i >= n - 1) so lookups made by the
    recursion are total.  `sums` keeps each inner sum by its (s, j).
    """

    def __init__(self, max_n: int):
        if max_n < 2:
            raise ValueError("need max_n >= 2, got %d" % max_n)
        self.max_n = max_n
        self.cells = {}
        self.sums = {}
        for n in range(2, max_n + 1):
            for i in range((n - 2) // 2 + 1):
                self.cells[n, i] = c_recursion(n, i, self)

    def get(self, n: int, i: int) -> int:
        if i < 0 or 2 * i >= n - 1:
            return 0
        return self.cells[n, i]

    def alternating_sum(self, s: int, j: int) -> int:
        """sum over 2j+2 <= k <= s of (-1)^k C(s, k) c(k, j), computed once
        per (s, j): it reads rows k <= s only, complete before any row n > s
        asks for it."""
        value = self.sums.get((s, j))
        if value is None:
            value = 0
            for k in range(2 * j + 2, s + 1):
                term = math.comb(s, k) * self.get(k, j)
                value += -term if k & 1 else term
            self.sums[s, j] = value
        return value


def c_recursion(n: int, i: int, table: KLTable) -> int:
    """Evaluate the inclusion-exclusion double sum for the coefficient (n, i):

        (-1)^i C(n, i)
        + sum over 0 <= j < i, 2j+2 <= k <= i+j+1 of
          (-1)^(i+j+k+1) C(n; k, i+j-k+1, n-i-j-1) c(k, j)

    With s = i+j+1 the multinomial weight factors as
    C(n; k, s-k, n-s) = C(n, s) C(s, k), so each j contributes

        (-1)^s C(n, s) sum over 2j+2 <= k <= s of (-1)^k C(s, k) c(k, j).

    The inner sum depends on (s, j) alone, so every row n > s shares it:
    KLTable.alternating_sum computes it once per table.

    Lower coefficients are read from `table`, which must hold every row
    below n.  Every lookup satisfies 2j <= k - 2, so the stored band is
    enough and the vanishing convention never hides a value the sum
    actually needs.

    The vanishing rule is applied to the queried cell as well: the double
    sum characterizes the coefficients only below the vanishing threshold
    (it even returns (-1)^i instead of 0 at i = n-1 and i = n), so indices
    with 2i >= n - 1 answer 0 directly.
    """
    if n < 2:
        raise ValueError("need n >= 2, got n=%d" % n)
    if i < 0:
        raise ValueError("need i >= 0, got i=%d" % i)
    if 2 * i >= n - 1:
        return 0
    acc = (-1) ** i * math.comb(n, i)
    for j in range(i):
        s = i + j + 1
        weighted = math.comb(n, s) * table.alternating_sum(s, j)
        acc += -weighted if s & 1 else weighted
    return acc


def kl_poly(n: int) -> UniPoly:
    """The Kazhdan-Lusztig polynomial of the rank n-1 uniform matroid on n
    elements, with closed-form coefficients; degree is below (n-1)/2.

    The row starts at c(n, 0) = 1 and steps along by the exact ratio of
    consecutive closed forms,
        c(n, i+1) = c(n, i) (n-2i-2)(n-2i-3)(n-i) / ((i+1)(i+2)(n-i-2)),
    so each step is one exact division; a remainder or a non-positive
    value raises ArithmeticError.
    """
    if n < 2:
        raise ValueError("need n >= 2, got n=%d" % n)
    row = [1]
    for i in range((n - 2) // 2):
        value, rem = divmod(
            row[i] * (n - 2 * i - 2) * (n - 2 * i - 3) * (n - i),
            (i + 1) * (i + 2) * (n - i - 2),
        )
        if rem or value <= 0:
            raise ArithmeticError("row step must divide exactly at (n=%d, i=%d)" % (n, i + 1))
        row.append(value)
    return UniPoly(row)


def twisted_binomial_sum(phi) -> UniPoly:
    """sum over 1 <= k <= N of C(N, k) (t-1)^(N-k) phi[k-1], N = len(phi), by
    Horner in t - 1 with k ascending: one product by the linear factor per k.
    The degree-reversal identity and the functional equation both read their
    twisted sums from it."""
    t_minus_1 = UniPoly((-1, 1))
    n = len(phi)
    acc = UniPoly()
    for k, p in enumerate(phi, 1):
        acc = acc * t_minus_1 + math.comb(n, k) * p
    return acc


def check_epw2(n: int):
    """Degree-reversal identity for P_n.

    Compares t^(n-1) P_n(1/t) with the alternating binomial sum
    sum_j (-1)^j C(n, j) (t^(n-j-1) - 1) plus the twisted sum
    sum_{k>=2} C(n, k) (t-1)^(n-k) P_k(t).  Returns (holds, residual);
    `residual` is the polynomial difference, zero exactly when it holds.
    """
    lhs = kl_poly(n).reverse(n - 1)
    rhs = UniPoly()
    for j in range(n):
        rhs += (-1) ** j * math.comb(n, j) * (UniPoly.monomial(n - j - 1) - 1)
    # slot k - 1 holds P_k; the k = 1 slot is zero, as the sum starts at k = 2
    twisted = twisted_binomial_sum([UniPoly()] + [kl_poly(k) for k in range(2, n + 1)])
    residual = lhs - (rhs + twisted)
    return (not residual, residual)


class LogConcaveTriple(namedtuple("LogConcaveTriple", "n i lower middle upper")):
    """One strictness check c(n, i)^2 > c(n, i-1) * c(n, i+1)."""

    __slots__ = ()

    def __str__(self) -> str:
        return "n=%d i=%d: %d^2 vs %d*%d (margin %d)" % (
            self.n, self.i, self.middle, self.lower, self.upper, self.margin
        )

    @property
    def margin(self) -> int:
        return self.middle ** 2 - self.lower * self.upper

    @property
    def strict(self) -> bool:
        return self.margin > 0


def check_logconcave(n: int):
    """Strict log-concavity of the coefficient row of P_n.

    Returns the triple for every interior index 0 < i < floor(n/2) - 1;
    an empty list means the statement is vacuous for this n.
    """
    if n < 2:
        raise ValueError("need n >= 2, got n=%d" % n)
    row = kl_poly(n).coeffs
    return [
        LogConcaveTriple(n, i, row[i - 1], row[i], row[i + 1])
        for i in range(1, n // 2 - 1)
    ]
