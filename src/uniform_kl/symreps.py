"""Partition combinatorics and the virtual representation ring of the
symmetric groups.

Dimensions come from the hook-length formula and products of irreducibles
from the Littlewood-Richardson rule for a hook factor, the only kind the
character engine makes: one horizontal and one vertical strip per shape.
Single coefficients of any shape come, for reference, from tableau
backtracking.
On top of that sits the stratification recursion that assembles the
intersection-cohomology characters whose dimensions are the
Kazhdan-Lusztig coefficients, plus the two-coefficient check that makes
each step of the recursion collapse to a single irreducible.
"""

import math
from functools import cache

from .polynomial import _need, _sum_text


def Partition(parts=()):
    """The one shape check: returns parts as a plain tuple when it is a
    weakly decreasing sequence of positive integers, and raises ValueError
    otherwise; the empty partition is allowed and indexes the trivial
    module of S_0.  Shapes built by construction skip the check."""
    parts = tuple(parts)
    positive = all(type(p) is int and p > 0 for p in parts)
    if not positive or any(a < b for a, b in zip(parts, parts[1:])):
        raise ValueError("not a partition: %r" % (parts,))
    return parts


@cache
def partitions_of(n: int):
    """All partitions of n, in descending lexicographic order, as plain
    tuples: they are partitions by construction."""
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for p in range(min(largest, remaining), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return tuple(out)


@cache
def hook_dimension(lam) -> int:
    """Dimension of the irreducible S_n module indexed by lam, by the
    hook-length formula n! / prod(hooks)."""
    lam = Partition(lam)
    # conj[c] is the length of column c
    conj = [sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0)]
    hooks = 1
    for r, row in enumerate(lam):
        for c in range(row):
            hooks *= row - c + conj[c] - r - 1
    dim, rem = divmod(math.factorial(sum(lam)), hooks)
    if rem:
        raise ArithmeticError("hook product must divide the factorial")
    return dim


@cache
def lr_coefficient(nu, mu, lam) -> int:
    """Littlewood-Richardson coefficient: the number of semistandard
    fillings of the skew shape nu/lam with content mu whose reverse reading
    word (right to left along each row, rows top to bottom) is a lattice
    word.

    The independent reference for induce_product: cells are filled in
    reverse-reading order, so the lattice and semistandard conditions prune
    the search one cell at a time.
    """
    nu, mu, lam = Partition(nu), Partition(mu), Partition(lam)
    # nu/lam is a skew shape only when lam fits inside nu, row by row
    inside = len(lam) <= len(nu) and all(b <= a for a, b in zip(nu, lam))
    if not inside or sum(mu) + sum(lam) != sum(nu):
        return 0
    cells = []
    for r, row in enumerate(nu):
        lo = lam[r] if r < len(lam) else 0
        for c in range(row - 1, lo - 1, -1):
            cells.append((r, c))
    nvals = len(mu)
    grid = {}
    placed = [0] * (nvals + 1)

    def fill(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        hi = grid.get((r, c + 1), nvals)
        lo = grid.get((r - 1, c), 0) + 1
        total = 0
        for v in range(lo, hi + 1):
            if placed[v] >= mu[v - 1]:
                continue
            if v > 1 and placed[v] >= placed[v - 1]:
                continue  # lattice: every prefix has at least as many v-1 as v
            grid[(r, c)] = v
            placed[v] += 1
            total += fill(pos + 1)
            placed[v] -= 1
        grid.pop((r, c), None)
        return total

    return fill(0)


class VirtualRep:
    """Integer linear combination of irreducible characters of a fixed S_n.

    Multiplicities are ints (anything else, a bool too, raises TypeError) and
    may be negative; zero ones are dropped, so the zero element has an empty
    term map.  Every key is a plain tuple: the constructor stores the tuple
    Partition returns for each key, of any type, of size n; _built trusts
    the keys of ring results, checked ones or the hook rule's.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        _need("n", n, 0)
        self.n, self.terms = n, {}
        for lam, mult in (terms or {}).items():
            if type(mult) is not int:
                raise TypeError("multiplicities must be int, got %s" % type(mult).__name__)
            if mult:
                lam = Partition(lam)
                if sum(lam) != n:
                    raise ValueError("partition %r has size %d, expected %d" % (lam, sum(lam), n))
                self.terms[lam] = mult

    @classmethod
    def _built(cls, n, terms):
        rep = cls.__new__(cls)
        rep.n, rep.terms = n, {lam: m for lam, m in terms.items() if m}
        return rep

    def dimension(self) -> int:
        """Virtual dimension: the multiplicity-weighted sum of hook-length
        dimensions; may be negative."""
        return sum(m * hook_dimension(lam) for lam, m in self.terms.items())

    def __add__(self, other):
        if not isinstance(other, VirtualRep):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("degrees differ: %d vs %d" % (self.n, other.n))
        out = dict(self.terms)
        for lam, m in other.terms.items():
            out[lam] = out.get(lam, 0) + m
        return VirtualRep._built(self.n, out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scalar):
        if type(scalar) is not int:
            return NotImplemented
        return VirtualRep._built(self.n, {lam: scalar * m for lam, m in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, VirtualRep):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __str__(self):
        return _sum_text(
            (m, ("" if abs(m) == 1 else "%d*" % abs(m)) + "V[%s]" % ",".join(map(str, lam)))
            for lam, m in sorted(self.terms.items(), reverse=True)
        )

    def __repr__(self):
        return "VirtualRep<S_%d: %s>" % (self.n, self)


def _hook_product(hook, lam, mult, out):
    """Add mult * c^nu_{hook,lam} to out[nu] for every nu, for a hook
    [a, 1^b] (the empty partition is the hook with a = b = 0).

    An LR filling of nu/lam with that content puts its 1s on a horizontal
    strip kappa/lam of a cells and labels 2..b+1 one per row down the
    vertical strip nu/kappa, each at the end of its row; its reading word
    is a lattice word exactly when the first strip row lies strictly below
    the first row holding a 1.  Rows are filled top to bottom.  The strip
    bounds of the rows below row r telescope to lam[r], so kappa[r] is at
    least the number of 1s still to place.  The row below lam takes the 1s
    that are left, and the labels that are left go down column 0.
    """
    head = hook[0] if hook else 0

    def fill(r, ones, labels, nu):
        if r == len(lam):
            if ones or not labels:
                key = nu + ((ones,) if ones else ()) + (1,) * labels
                out[key] = out.get(key, 0) + mult
            if labels and ones < head and (not r or ones < nu[-1]):
                key = nu + (ones + 1,) + (1,) * (labels - 1)
                out[key] = out.get(key, 0) + mult
            return
        hi = min(ones, lam[r - 1] - lam[r]) if r else ones
        for x in range(max(0, ones - lam[r]), hi + 1):
            kappa = lam[r] + x
            fill(r + 1, ones - x, labels, nu + (kappa,))
            if labels and ones < head and (not r or kappa < nu[-1]):
                fill(r + 1, ones - x, labels - 1, nu + (kappa + 1,))

    fill(0, head, max(len(hook) - 1, 0), ())


def induce_product(left: VirtualRep, right: VirtualRep) -> VirtualRep:
    """Product induced from the direct product of two symmetric groups, by
    the Littlewood-Richardson rule; bilinear in the two virtual
    representations.  Every term of left must be a hook, as the engine's
    signed stratum hook is; each pair is counted by the two-strip rule of
    _hook_product, and its keys are stored as that rule made them."""
    out = {}
    for mu, cm in left.terms.items():
        # a hook [a, 1^b] has no second part above 1
        if len(mu) > 1 and mu[1] > 1:
            raise ValueError("left factor term %r is not a hook" % (mu,))
        for lam, cl in right.terms.items():
            _hook_product(mu, lam, cm * cl, out)
    return VirtualRep._built(left.n + right.n, out)


def _hook(head: int, leg: int):
    """The hook partition [head, 1^leg] as a tuple, or None when out of range."""
    return (head,) + (1,) * leg if head > 0 and leg >= 0 else None


def exterior_rho(m: int, k: int) -> VirtualRep:
    """k-th exterior power of the m-point permutation representation:
    the sum of the hooks [m-k, 1^k] and [m-k+1, 1^(k-1)], either of which
    drops out when its shape is out of range.  Virtual dimension C(m, k)."""
    _need("m", m, 1)
    hooks = (_hook(m - k, k), _hook(m - k + 1, k - 1))
    return VirtualRep._built(m, {lam: 1 for lam in hooks if lam is not None})


@cache
def ih_rep(n: int, i: int) -> VirtualRep:
    """Virtual S_n-character of the degree-2i intersection cohomology whose
    dimension is the Kazhdan-Lusztig coefficient c(n, i).

    Assembled by inclusion-exclusion over boundary strata:

        (-1)^i wedge^i rho_n
        + sum over 0 < p < n-1, 0 <= q <= min(i, 2i-p) of
          (-1)^(p+q) Ind(wedge^(2i-p-q) rho_{n-p-1} (x) ih(p+1, i-q))

    with ih(n, i) = 0 whenever 2i >= n - 1.  With j = i-q, h = i+j-p,
    m = n-p-1 and wedge^h rho_m = [m-h, 1^h] + [m-h+1, 1^(h-1)], the second
    hooks cancel in the sum of ih(n, i') over i' <= i: it is (-1)^i
    [n-i, 1^i] plus, over 0 < p < n-1 and 2j < p with h >= 0 (so h < m),
    (-1)^h Ind([m-h, 1^h] (x) ih(p+1, j)).  Less the cached lower i', that
    is ih(n, i), never assumed irreducible: verify_main2 checks that.
    """
    _need("n", n, 2)
    _need("i", i, 0)
    if 2 * i >= n - 1:
        return VirtualRep(n)
    total = VirtualRep._built(n, {_hook(n - i, i): (-1) ** i})
    for p in range(1, n - 1):
        m = n - p - 1
        for j in range(max(0, p - i), (p + 1) // 2):
            h = i + j - p
            hook = VirtualRep._built(m, {_hook(m - h, h): (-1) ** h})
            total = total + induce_product(hook, ih_rep(p + 1, j))
    for lower in range(i):
        total = total - ih_rep(n, lower)
    return total


def verify_main2(n: int, i: int) -> bool:
    """True when ih_rep(n, i) is exactly the single irreducible indexed by
    [n-2i, 2^i] with multiplicity one."""
    if n < 2 or i < 0 or 2 * i >= n - 1:
        raise ValueError("need n >= 2 and 0 <= i < (n-1)/2, got n=%d i=%d" % (n, i))
    return ih_rep(n, i).terms == {(n - 2 * i,) + (2,) * i: 1}


def lemma_key_check(n: int, i: int, p: int, q: int):
    """The pair of Littlewood-Richardson multiplicities that controls one
    stratum term of the recursion.

    With nu = [n-2i, 2^i], lam = [p+2q-2i+1, 2^(i-q)] and the two hooks
    mu = [n+q-2i-1, 1^(2i-p-q)], mu' = [n+q-2i, 1^(2i-p-q-1)], returns
    (c^nu_{mu,lam}, c^nu_{mu',lam}).  Both are 0 when the head p+2q-2i+1 of
    lam is below 2 (q = i makes it p+1 >= 2); a hook out of range gives 0.
    """
    if n < 2 or i < 0 or 2 * i >= n - 1:
        raise ValueError("need n >= 2 and 0 <= i < (n-1)/2, got n=%d i=%d" % (n, i))
    if not 0 < p < n:
        raise ValueError("need 0 < p < n, got p=%d" % p)
    if not 0 <= q <= min(i, 2 * i - p):
        raise ValueError("need 0 <= q <= min(i, 2i-p), got q=%d" % q)
    head = p + 2 * q - 2 * i + 1
    if head < 2:
        return (0, 0)
    nu, lam = (n - 2 * i,) + (2,) * i, (head,) + (2,) * (i - q)
    # p <= 2i-q < n-1 keeps the first hook in range: the terms are [mu] or [mu, mu']
    hooks = exterior_rho(n - p - 1, 2 * i - p - q).terms
    return tuple(lr_coefficient(nu, mu, lam) for mu in hooks) + (0,) * (2 - len(hooks))


def lemma_key_expected(n: int, i: int, p: int, q: int):
    """The predicted value of lemma_key_check: the first coefficient is 1
    exactly on the diagonal p = 2i-1, q = 1 with i > 0, and the second
    always vanishes."""
    return (1 if (i > 0 and p == 2 * i - 1 and q == 1) else 0, 0)
