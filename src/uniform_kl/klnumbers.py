"""Coefficients of the Kazhdan-Lusztig polynomial of the uniform matroid of
rank n-1 on n elements.

Three independent routes to the same integers live here: a product closed
form, a bottom-up inclusion-exclusion recursion over a coefficient table,
and brute-force enumeration of non-crossing diagonal sets of a convex
polygon.  The degree-reversal identity and strict log-concavity of the
coefficient rows are checked by dedicated functions.
"""

import functools
import math
from collections import namedtuple
from itertools import zip_longest

from .polynomial import UniPoly, _need

# the memoised count of the 16-gon takes about 0.15 s and 24 MiB of memo
D_BRUTEFORCE_MAX_M = 16


def c_closed(n: int, i: int) -> int:
    """Coefficient of t^i: binom(n-i-2, i) * binom(n, i) / (i+1), exactly.

    Vanishes precisely when 2i >= n - 1.
    """
    _need("n", n, 2)
    _need("i", i, 0)
    if 2 * i >= n - 1:
        return 0
    value, rem = divmod(math.comb(n - i - 2, i) * math.comb(n, i), i + 1)
    if rem or value <= 0:
        raise ArithmeticError("closed form must divide exactly at (n=%d, i=%d)" % (n, i))
    return value


def d_cayley(m: int, k: int) -> int:
    """Number of k-element non-crossing diagonal sets of a convex m-gon,
    by the closed form binom(m-3, k) * binom(m+k-1, k) / (k+1)."""
    _need("m", m, 3)
    _need("k", k, 0)
    value, rem = divmod(math.comb(m - 3, k) * math.comb(m + k - 1, k), k + 1)
    if rem:
        raise ArithmeticError(
            "dissection closed form must divide exactly at (m=%d, k=%d)" % (m, k)
        )
    return value


def polygon_diagonals(m: int):
    """Diagonals of the convex m-gon on vertices 0..m-1, as sorted pairs."""
    _need("m", m, 3)
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
    """Count k-element non-crossing diagonal sets from the crossing relation.

    Serves as an enumeration oracle for d_cayley: it reads only
    polygon_diagonals and diagonals_cross.  One cached count per m-gon
    splits on each diagonal in turn (left out, or taken, which drops each
    free diagonal it crosses), memoised on the set of diagonals still free.
    The number of such sets still grows exponentially, so polygons are
    capped at D_BRUTEFORCE_MAX_M = 16 sides, where the count takes about 0.15 s.
    """
    if m > D_BRUTEFORCE_MAX_M:
        raise ValueError("m=%d exceeds the enumeration cap %d" % (m, D_BRUTEFORCE_MAX_M))
    counts = _dissection_counts(m)
    if k < 0 or k >= len(counts):
        return 0
    return counts[k]


@functools.cache
def _dissection_counts(m: int):
    """Tuple whose entry k is the number of k-element non-crossing diagonal
    sets of the m-gon, from the crossing relation alone, for k up to the
    largest such set: the m - 3 diagonals of a triangulation."""
    diags = polygon_diagonals(m)
    # blockers[x] has bit y set when diagonal y crosses diagonal x
    blockers = [sum(1 << y for y, e in enumerate(diags) if diagonals_cross(d, e)) for d in diags]
    # the memo is local, so it is freed when this call returns
    return _noncrossing_counts((1 << len(diags)) - 1, blockers, {0: (1,)})


def _noncrossing_counts(free, blockers, memo):
    """Tuple whose entry k is the number of k-element subsets of the
    diagonal bitmask `free` in which no two cross, for k up to the size of
    the largest such subset.

    Such a subset either leaves out the lowest diagonal of `free`, or takes
    it and draws the rest from the free diagonals that do not cross it.
    `memo` maps each free set met so far to its counts; the recursion is at
    most one level deep per diagonal.
    """
    if free in memo:
        return memo[free]
    low = free & -free
    rest = free ^ low
    without = _noncrossing_counts(rest, blockers, memo)
    taken = _noncrossing_counts(rest & ~blockers[low.bit_length() - 1], blockers, memo)
    out = list(without) + [0] * (len(taken) + 1 - len(without))
    for k, c in enumerate(taken, 1):
        out[k] += c
    memo[free] = out = tuple(out)
    return out


class KLTable:
    """Grid of coefficients filled bottom-up by the double-sum recursion.

    Only the band 2i < n - 1 is stored, and the recursion reads only inside
    it: `rows[n]` is [c(n, 0), ..., c(n, (n-2)//2)], the coefficient row of
    P_n, which __init__ reads; c_recursion reads `sums`, the signed inner sum
    sum_k (-1)^(s-k) C(s, k) c(k, j) of each (s, j) that a row up to max_n
    reads, filled from s's signed Pascal row once row s is.  get() serves
    the CLI and tests: 0 outside the band, and a ValueError past max_n.
    """

    def __init__(self, max_n: int):
        _need("max_n", max_n, 2)
        self.max_n = max_n
        self.rows = {}
        self.sums = {}
        top = (max_n - 2) // 2  # highest i of any stored row
        for n in range(2, max_n + 1):
            self.rows[n] = [c_recursion(n, i, self) for i in range((n - 2) // 2 + 1)]
            # rows up to max_n read (n, j) only as (i + j + 1, j) with j < i <= top
            signed = [(-1) ** (n - k) * math.comb(n, k) for k in range(n + 1)]
            for j in range(max(0, n - 1 - top), (n - 2) // 2 + 1):
                self.sums[n, j] = sum(signed[k] * self.rows[k][j] for k in range(2 * j + 2, n + 1))

    def get(self, n: int, i: int) -> int:
        if n > self.max_n:
            raise ValueError("n=%d exceeds the table bound max_n=%d" % (n, self.max_n))
        return self.rows[n][i] if 0 <= 2 * i < n - 1 else 0


def c_recursion(n: int, i: int, table: KLTable) -> int:
    """Evaluate the inclusion-exclusion double sum for the coefficient (n, i):

        (-1)^i C(n, i)
        + sum over 0 <= j < i, 2j+2 <= k <= i+j+1 of
          (-1)^(i+j+k+1) C(n; k, i+j-k+1, n-i-j-1) c(k, j)

    With s = i+j+1 the multinomial weight factors as
    C(n; k, s-k, n-s) = C(n, s) C(s, k), so each j contributes

        C(n, s) sum over 2j+2 <= k <= s of (-1)^(s-k) C(s, k) c(k, j).

    The signed inner sum depends on (s, j) alone, so every row n > s shares
    it: KLTable fills table.sums[s, j] once, from row s's signed Pascal row.
    As j steps, s = i+j+1 steps by one, so C(n, s) is stepped from C(n, i).

    `table` was built to at least n (a larger n raises ValueError), or is
    being built and has completed every row below n.  Every inner-sum term
    satisfies 2j <= k - 2, so the stored band is enough and the vanishing
    convention never hides a value the sum actually needs.

    The vanishing rule is applied to the queried cell as well: the double
    sum characterizes the coefficients only below the vanishing threshold
    (it even returns (-1)^i instead of 0 at i = n-1 and i = n), so indices
    with 2i >= n - 1 answer 0 directly.
    """
    _need("n", n, 2)
    _need("i", i, 0)
    if n > table.max_n:
        raise ValueError("n=%d exceeds the table bound max_n=%d" % (n, table.max_n))
    if 2 * i >= n - 1:
        return 0
    weight = math.comb(n, i)
    acc = (-1) ** i * weight
    for j in range(i):
        s = i + j + 1
        weight = weight * (n - s + 1) // s  # C(n, s) from C(n, s-1), exactly
        acc += weight * table.sums[s, j]
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
    _need("n", n, 2)
    row = [1]
    for i in range((n - 2) // 2):
        value, rem = divmod(
            row[i] * ((n - 2 * i - 2) * (n - 2 * i - 3) * (n - i)),
            (i + 1) * (i + 2) * (n - i - 2),
        )
        if rem or value <= 0:
            raise ArithmeticError("row step must divide exactly at (n=%d, i=%d)" % (n, i + 1))
        row.append(value)
    return UniPoly(row)


def twisted_binomial_sum(phi) -> UniPoly:
    """sum over 1 <= k <= N of C(N, k) (t-1)^(N-k) phi[k-1], N = len(phi), by
    Horner in t - 1 with k ascending: per k, one shift-and-subtract on the
    coefficient row (up one degree, less itself) and one scalar product.  The
    degree-reversal identity and the functional equation read their sums here."""
    n = len(phi)
    row = []
    for k, p in enumerate(phi, 1):
        term = (math.comb(n, k) * p).coeffs
        row = [a - b + c for a, b, c in zip_longest([0] + row, row, term, fillvalue=0)]
    return UniPoly(row)


def check_epw2(n: int):
    """Degree-reversal identity for P_n.

    Compares t^(n-1) P_n(1/t) with the alternating binomial sum
    sum_j (-1)^j C(n, j) (t^(n-j-1) - 1) plus the twisted sum
    sum_{k>=2} C(n, k) (t-1)^(n-k) P_k(t).  Returns (holds, residual);
    `residual` is the polynomial difference, zero exactly when it holds.
    """
    _need("n", n, 2)
    residual = _epw2_residual([UniPoly()] + [kl_poly(k) for k in range(2, n + 1)])
    return (not residual, residual)


def _epw2_residual(rows) -> UniPoly:
    """Residual of the degree-reversal identity for P_n from the row list
    [0, P_2, ..., P_n], n = len(rows): slot k - 1 holds P_k, and the k = 1
    slot is zero, as the twisted sum starts at k = 2.  A caller that checks
    every n up to a bound grows one list by a row per n."""
    n = len(rows)
    lhs = rows[-1].reverse(n - 1)
    # binomial theorem: t^e comes from j = n-1-e alone; the -1 terms sum to (-1)^n
    row = [(-1) ** (n - 1 - e) * math.comb(n, e + 1) for e in range(n)]
    row[0] += (-1) ** n
    return lhs - (UniPoly(row) + twisted_binomial_sum(rows))


# One strictness check c(n, i)^2 > c(n, i-1) * c(n, i+1), its margin and verdict.
LogConcaveTriple = namedtuple("LogConcaveTriple", "n i lower middle upper margin strict")


def check_logconcave(n: int):
    """Strict log-concavity of the coefficient row of P_n.

    Returns the triple for every interior index 0 < i < floor(n/2) - 1;
    an empty list means the statement is vacuous for this n.
    """
    row = kl_poly(n).coeffs
    return [
        LogConcaveTriple(n, i, lower, middle, upper, margin, margin > 0)
        for i, (lower, middle, upper) in enumerate(zip(row, row[1:], row[2:]), 1)
        for margin in (middle ** 2 - lower * upper,)
    ]
