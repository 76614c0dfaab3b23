"""Partitions, Littlewood-Richardson counting, and the character engine.

hook_dimension is checked against a standard-tableau counting DP, and the
LR backtracker against a filter over every possible filling.  The
backtracker is then the reference for induce_product, which multiplies a
hook by any shape with the Littlewood-Richardson rule (one horizontal and
one vertical strip per shape), refuses a left factor that is not a hook,
and never calls the backtracker.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from uniform_kl import cli, symreps
from uniform_kl.klnumbers import c_closed
from uniform_kl.polynomial import UniPoly
from uniform_kl.symreps import (
    Partition,
    VirtualRep,
    exterior_rho,
    hook_dimension,
    ih_rep,
    induce_product,
    lemma_key_check,
    lemma_key_expected,
    lr_coefficient,
    partitions_of,
    verify_main2,
)


# ---------------------------------------------------------------- oracles


def count_standard_tableaux(shape):
    """Number of standard Young tableaux, by dynamic programming over row
    profiles; independent of the hook-length formula."""
    shape = tuple(shape)

    @lru_cache(maxsize=None)
    def walk(profile):
        if all(profile[r] == shape[r] for r in range(len(shape))):
            return 1
        total = 0
        for r in range(len(shape)):
            if profile[r] < shape[r] and (r == 0 or profile[r - 1] > profile[r]):
                nxt = list(profile)
                nxt[r] += 1
                total += walk(tuple(nxt))
        return total

    return walk((0,) * len(shape))


def lr_filter_oracle(nu, mu, lam):
    """Count LR tableaux by trying every assignment of values to cells and
    filtering; no pruning, no shared code with the library backtracker."""
    if sum(mu) + sum(lam) != sum(nu):
        return 0
    cells = []
    for r, row in enumerate(nu):
        lo = lam[r] if r < len(lam) else 0
        if lo > row:
            return 0
        cells.extend((r, c) for c in range(lo, row))
    if not cells:
        return 1
    nvals = len(mu)
    count = 0
    for values in product(range(1, nvals + 1), repeat=len(cells)):
        grid = dict(zip(cells, values))
        # content
        if any(values.count(v) != mu[v - 1] for v in range(1, nvals + 1)):
            continue
        # rows weakly increase, columns strictly increase
        ok = True
        for (r, c), v in grid.items():
            if (r, c + 1) in grid and grid[(r, c + 1)] < v:
                ok = False
                break
            if (r + 1, c) in grid and grid[(r + 1, c)] <= v:
                ok = False
                break
        if not ok:
            continue
        # reverse reading word is a lattice word
        word = []
        for r, row in enumerate(nu):
            lo = lam[r] if r < len(lam) else 0
            word.extend(grid[(r, c)] for c in range(row - 1, lo - 1, -1))
        seen = [0] * (nvals + 2)
        for v in word:
            seen[v] += 1
            if v > 1 and seen[v] > seen[v - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


def sorted_partition(parts):
    return Partition(tuple(sorted(parts, reverse=True)))


def _conjugate(lam):
    """Column lengths of the Young diagram of lam, counted cell by cell."""
    columns = [0] * (lam[0] if lam else 0)
    for row in lam:
        for c in range(row):
            columns[c] += 1
    return tuple(columns)


def _contains(nu, lam):
    """Row-by-row containment of the Young diagram of lam in that of nu."""
    return len(lam) <= len(nu) and all(b <= a for a, b in zip(nu, lam))


partitions_strategy = st.builds(sorted_partition, st.lists(st.integers(1, 5), max_size=4))
# |mu|, |lam| <= 12, so a full sweep over nu meets at most p(24) = 1575 shapes
small_partitions = st.builds(sorted_partition, st.lists(st.integers(1, 4), max_size=3))


def irreducible(lam):
    return VirtualRep(sum(lam), {Partition(lam): 1})


def hooks_of(size):
    """The hooks [size-b, 1^b]; the empty partition is the one hook of 0."""
    if not size:
        return [Partition()]
    return [Partition((size - b,) + (1,) * b) for b in range(size)]


hooks_strategy = st.integers(0, 6).flatmap(lambda size: st.sampled_from(hooks_of(size)))


# -------------------------------------------------------------- partitions


def test_partition_construction():
    assert Partition((3, 1, 1)) == (3, 1, 1)
    assert type(Partition((2, 1))) is tuple
    assert Partition() == ()
    assert sum(Partition((3, 1))) == 4
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    for parts in ((2, 3), (0, 1), (1, -1)):
        with pytest.raises(ValueError):
            Partition(parts)


def test_conjugate():
    assert _conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert _conjugate((2, 2)) == (2, 2)
    assert _conjugate(()) == ()
    # hook_dimension reads the column lengths of its shape
    assert hook_dimension((4, 2, 1)) == hook_dimension((3, 2, 1, 1)) == 35


@given(partitions_strategy)
def test_hook_dimension_is_invariant_under_conjugation(lam):
    conj = _conjugate(lam)
    assert _conjugate(conj) == lam
    assert hook_dimension(lam) == hook_dimension(conj)


def test_contains():
    assert _contains((3, 2), (2, 2)) and _contains((3, 2), ())
    assert not _contains((3, 2), (1, 1, 1)) and not _contains((3, 2), (4,))
    # lr_coefficient counts no filling when lam does not fit inside nu,
    # whatever mu of the right size
    for lam in ((1, 1, 1), (4,)):
        for mu in partitions_of(5 - sum(lam)):
            assert lr_coefficient((3, 2), mu, lam) == 0, (mu, lam)
    assert lr_coefficient((3, 2), (1,), (2, 2)) == 1


def test_partitions_of():
    assert partitions_of(0) == (Partition(()),)
    assert partitions_of(-1) == ()
    assert partitions_of(4) == (
        Partition((4,)),
        Partition((3, 1)),
        Partition((2, 2)),
        Partition((2, 1, 1)),
        Partition((1, 1, 1, 1)),
    )
    # partition numbers 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
    counts = [len(partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_of_yields_plain_tuples_unchecked(monkeypatch):
    # its shapes are partitions by construction, so none meets the check
    checked = []
    monkeypatch.setattr(
        symreps, "Partition", lambda parts=(): checked.append(parts) or Partition(parts)
    )
    partitions_of.cache_clear()
    try:
        shapes = partitions_of(6)
    finally:
        partitions_of.cache_clear()
    assert checked == []
    assert len(shapes) == 11 and all(type(lam) is tuple for lam in shapes)


# -------------------------------------------------------------- dimensions


def test_hook_dimension_frozen_values():
    assert hook_dimension(Partition((5,))) == 1
    assert hook_dimension(Partition((2, 2))) == 2
    assert hook_dimension(Partition((2, 2, 2))) == 5
    assert hook_dimension(Partition((2, 2, 2, 2))) == 14
    assert hook_dimension(Partition(())) == 1


def test_hook_dimension_against_tableau_counting():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert hook_dimension(lam) == count_standard_tableaux(lam), lam


def test_dimensions_sum_of_squares():
    # sum of dim^2 over partitions of n is n!
    for n in range(1, 9):
        assert sum(hook_dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


# ---------------------------------------------------------------------- LR


def test_lr_trivial_cases():
    nu = Partition((3, 2))
    assert lr_coefficient(nu, Partition(()), nu) == 1
    assert lr_coefficient(nu, Partition((1,)), nu) == 0


def test_lr_frozen_values():
    assert lr_coefficient(Partition((2, 2)), Partition((2,)), Partition((2,))) == 1
    assert lr_coefficient(Partition((2, 1, 1)), Partition((2,)), Partition((2,))) == 0
    assert lr_coefficient(Partition((3, 1)), Partition((2,)), Partition((2,))) == 1
    # the figure instance
    assert (
        lr_coefficient(
            Partition((8, 2, 2, 2, 2, 2, 2)),
            Partition((10, 1)),
            Partition((3, 2, 2, 2)),
        )
        == 0
    )


def test_lr_against_filter_oracle():
    sizes_checked = 0
    for n in range(2, 7):
        for nu in partitions_of(n):
            for lamsize in range(n + 1):
                for lam in partitions_of(lamsize):
                    if not _contains(nu, lam):
                        continue
                    for mu in partitions_of(n - lamsize):
                        assert lr_coefficient(nu, mu, lam) == lr_filter_oracle(
                            nu, mu, lam
                        ), (nu, mu, lam)
                        sizes_checked += 1
    assert sizes_checked > 200


# cold lr_coefficient caches can push a single large example past the
# default 200ms deadline, so timing is not part of this property
@settings(max_examples=60, deadline=None)
@given(small_partitions, small_partitions)
def test_lr_symmetry(mu, lam):
    for nu in partitions_of(sum(mu) + sum(lam)):
        assert lr_coefficient(nu, mu, lam) == lr_coefficient(nu, lam, mu)


# ------------------------------------------------------------- virtual rep


def test_virtual_rep_algebra():
    a = irreducible((2, 1))
    b = irreducible((3,))
    s = a + b
    assert s.terms.get(Partition((2, 1)), 0) == 1
    assert s - a == b
    assert (a - a) == VirtualRep(3)
    assert not (a - a)
    assert (VirtualRep(2) == 0) is False
    assert (VirtualRep(2) != 0) is True
    assert (a * -1).terms.get(Partition((2, 1)), 0) == -1
    assert (a * 2).dimension() == 2 * a.dimension()
    with pytest.raises(ValueError):
        a + irreducible((2, 2))
    with pytest.raises(ValueError):
        a - irreducible((2, 2))
    for other in (1, 0.5, UniPoly((1,))):
        with pytest.raises(TypeError):
            a - other
    with pytest.raises(ValueError):
        VirtualRep(3, {Partition((2, 2)): 1})
    with pytest.raises(ValueError, match="^need n >= 0, got n=-1$"):
        VirtualRep(-1)


def test_virtual_rep_checks_every_key_and_ring_operations_do_not(monkeypatch):
    for key in ((1, 2), (2, 2)):
        with pytest.raises(ValueError):
            VirtualRep(3, {key: 1})
    a = VirtualRep(4, {(3, 1): 1, (2, 1, 1): -1})
    b = VirtualRep(4, {(2, 2): 2, (3, 1): 1})
    wedge, point = exterior_rho(3, 1), irreducible((1,))
    checked = []
    monkeypatch.setattr(
        symreps, "Partition", lambda parts=(): checked.append(parts) or Partition(parts)
    )
    total, difference, negated = a + b, a - b, a * -1
    product = induce_product(wedge, point)
    # the ring operations build their results without the constructor's
    # checks: their keys were checked already or come from the hook rule
    assert checked == []
    # the patch sees the public constructor's check
    VirtualRep(4, {(2, 2): 1})
    assert checked == [(2, 2)]
    assert total.terms == {(3, 1): 2, (2, 2): 2, (2, 1, 1): -1}
    assert difference.terms == {(2, 2): -2, (2, 1, 1): -1}
    assert negated.terms == {(3, 1): -1, (2, 1, 1): 1}
    assert product.terms == {(4,): 1, (3, 1): 2, (2, 2): 1, (2, 1, 1): 1}


def test_virtual_rep_keys_are_exact_tuples():
    # one key type: the constructor stores a checked key as a plain tuple,
    # and every ring result keeps plain tuple keys
    def assert_tuple_keys(rep):
        assert rep.terms and all(type(lam) is tuple for lam in rep.terms), rep

    a = VirtualRep(4, {Partition((3, 1)): 1, Partition((2, 1, 1)): -1})
    b = VirtualRep(4, {(2, 2): 2, (3, 1): 1})
    c = VirtualRep(4, {Partition((4,)): 1, (3, 1): 3})
    for rep in (a, b, c, a + b, a - b, a * 3, a * -2):
        assert_tuple_keys(rep)
    assert_tuple_keys(induce_product(exterior_rho(3, 1), a))
    assert_tuple_keys(induce_product(irreducible((2, 1, 1)), b))
    for m in range(1, 8):
        for k in range(m + 1):
            assert_tuple_keys(exterior_rho(m, k))


def test_hook_matches_partition():
    # a negative leg has no hook, although (1,) * leg is then empty
    for head in range(-2, 9):
        for leg in range(-2, 9):
            hook = symreps._hook(head, leg)
            try:
                expected = Partition((head,) + (1,) * leg) if leg >= 0 else None
            except ValueError:
                expected = None
            if expected is None:
                assert hook is None, (head, leg)
            else:
                assert type(hook) is tuple and hook == expected, (head, leg)


def test_non_integer_multiplicities_rejected():
    # the integer policy of UniPoly: no float, rational or bool enters,
    # not even a zero that would be dropped
    for mult in (0.5, 0.0, Fraction(1, 2), True):
        with pytest.raises(TypeError):
            VirtualRep(3, {(3,): mult})
    rep = VirtualRep(3, {(3,): 1})
    for scalar in (0.5, Fraction(1, 2), True):
        with pytest.raises(TypeError):
            rep * scalar
        with pytest.raises(TypeError):
            scalar * rep
    with pytest.raises(ValueError):
        Partition((True,))
    with pytest.raises(ValueError):
        Partition((2, True))


def test_virtual_rep_rendering():
    zero = VirtualRep(4)
    assert str(zero) == "0"
    r = VirtualRep(4, {Partition((4,)): 1, Partition((3, 1)): -2})
    assert str(r) == "V[4] - 2*V[3,1]"
    assert str(irreducible((2, 2))) == "V[2,2]"
    assert str(VirtualRep(4, {Partition((4,)): -1, Partition((3, 1)): 1})) == "-V[4] + V[3,1]"
    assert str(VirtualRep(4, {Partition((4,)): 1, Partition((3, 1)): -1})) == "V[4] - V[3,1]"
    assert str(VirtualRep(4, {Partition((3, 1)): -3})) == "-3*V[3,1]"
    assert repr(VirtualRep(3, {(2, 1): 1})) == "VirtualRep<S_3: V[2,1]>"


def test_induce_product_frozen():
    two = irreducible((2,))
    out = induce_product(two, two)
    assert out == VirtualRep(
        4, {Partition((4,)): 1, Partition((3, 1)): 1, Partition((2, 2)): 1}
    )
    assert out.dimension() == comb(4, 2)
    out = induce_product(irreducible((1, 1)), two)
    assert out == VirtualRep(4, {Partition((3, 1)): 1, Partition((2, 1, 1)): 1})
    # empty partition is the unit
    lam = irreducible((3, 1))
    assert induce_product(irreducible(()), lam) == lam


def test_induce_product_bilinear():
    a = irreducible((2,))
    b = irreducible((1, 1))
    c = irreducible((3,))
    lhs = induce_product(a - b, c)
    rhs = induce_product(a, c) - induce_product(b, c)
    assert lhs == rhs
    # several hook terms on the left times a mix of hooks and non-hooks
    left = VirtualRep(4, {(3, 1): -1, (4,): 1, (1, 1, 1, 1): 2, (2, 1, 1): 3})
    right = VirtualRep(5, {(3, 2): 2, (5,): 1, (2, 1, 1, 1): -1, (2, 2, 1): 1})
    expected = VirtualRep(9)
    for mu, cm in left.terms.items():
        for lam, cl in right.terms.items():
            expected = expected + induce_product(irreducible(mu), irreducible(lam)) * (cm * cl)
    assert induce_product(left, right) == expected


def assert_product_matches_lr(mu, lam):
    """Compare every multiplicity of induce_product(mu, lam) with the LR
    backtracker; returns the number of comparisons."""
    out = induce_product(irreducible(mu), irreducible(lam))
    shapes = partitions_of(sum(mu) + sum(lam))
    for nu in shapes:
        assert out.terms.get(nu, 0) == lr_coefficient(nu, mu, lam), (nu, mu, lam)
    return len(shapes)


def test_induce_product_matches_lr_coefficient():
    # every hook times every shape, total size <= 11
    compared = 0
    for total in range(12):
        for musize in range(total + 1):
            for mu in hooks_of(musize):
                for lam in partitions_of(total - musize):
                    compared += assert_product_matches_lr(mu, lam)
    assert compared == 52485


def test_induce_product_hook_times_ih_shape():
    # the stratum terms of ih_rep: a hook [a, 1^b] times [x, 2^j]
    compared = 0
    for size in range(2, 13):
        for hook_size in range(1, size):
            rest = size - hook_size
            shapes = [
                Partition((rest - 2 * j,) + (2,) * j)
                for j in range(rest // 2 + 1)
                if j == 0 or rest - 2 * j >= 2
            ]
            for mu in hooks_of(hook_size):
                for lam in shapes:
                    compared += assert_product_matches_lr(mu, lam)
    assert compared == 23048


def test_ih_rep_needs_no_lr_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the character engine searched partitions or LR tableaux")

    monkeypatch.setattr(symreps, "lr_coefficient", refuse)
    monkeypatch.setattr(symreps, "partitions_of", refuse)
    ih_rep.cache_clear()
    for n in range(2, 15):
        for i in range((n - 2) // 2 + 1):
            assert ih_rep(n, i).terms == {Partition((n - 2 * i,) + (2,) * i): 1}, (n, i)


def test_induce_product_needs_a_hook_on_the_left():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        induce_product(irreducible((2, 2)), irreducible((1,)))
    # the same pair with the hook on the left
    assert induce_product(irreducible((1,)), irreducible((2, 2))) == VirtualRep(
        5, {(3, 2): 1, (2, 2, 1): 1}
    )


@settings(max_examples=40, deadline=None)
@given(hooks_strategy, partitions_strategy)
def test_induce_dimension_bilinearity(mu, lam):
    n = sum(mu) + sum(lam)
    out = induce_product(irreducible(mu), irreducible(lam))
    assert out.dimension() == comb(n, sum(mu)) * hook_dimension(mu) * hook_dimension(lam)


# ---------------------------------------------------------- exterior power


def test_exterior_rho_frozen():
    assert exterior_rho(4, 0) == irreducible((4,))
    assert exterior_rho(4, 1) == VirtualRep(
        4, {Partition((4,)): 1, Partition((3, 1)): 1}
    )
    assert exterior_rho(2, 2) == irreducible((1, 1))
    assert exterior_rho(3, -1) == VirtualRep(3)
    assert exterior_rho(3, 4) == VirtualRep(3)
    with pytest.raises(ValueError):
        exterior_rho(0, 0)


def test_exterior_rho_terms_are_hooks():
    # induce_product takes an exterior power as its left factor only
    # because every term of one is a hook
    for m in range(1, 31):
        for k in range(-1, m + 2):
            for lam in exterior_rho(m, k).terms:
                assert lam in hooks_of(m), (m, k, lam)


def test_exterior_rho_dimensions():
    for m in range(1, 9):
        for k in range(-1, m + 2):
            expected = comb(m, k) if 0 <= k <= m else 0
            assert exterior_rho(m, k).dimension() == expected, (m, k)


# ------------------------------------------------------------------ engine


def test_ih_rep_stratum_hooks_are_in_range():
    # ih_rep passes the hook [m-h, 1^h] of every stratum term straight to
    # VirtualRep._built, unchecked; each one must be a partition of m
    points = 0
    for n in range(2, 41):
        for i in range((n - 2) // 2 + 1):
            for p in range(1, n - 1):
                m = n - p - 1
                for j in range(max(0, p - i), (p + 1) // 2):
                    h = i + j - p
                    assert 0 <= h < m, (n, i, p, j)
                    assert symreps._hook(m - h, h) in hooks_of(m), (n, i, p, j)
                    points += 1
    assert points == 13300


def test_hook_rule_keys_pass_the_public_constructor(monkeypatch):
    # production takes the hook rule's keys unchecked, so check every
    # product the engine forms up to n = 20 through the public constructor
    products = []
    real = symreps.induce_product

    def checked_product(left, right):
        out = real(left, right)
        assert out == VirtualRep(out.n, dict(out.terms)), (left, right)
        assert all(type(lam) is tuple for lam in out.terms), (left, right)
        products.append(out)
        return out

    monkeypatch.setattr(symreps, "induce_product", checked_product)
    ih_rep.cache_clear()
    try:
        for n in range(2, 21):
            for i in range((n - 2) // 2 + 1):
                ih_rep(n, i)
    finally:
        ih_rep.cache_clear()
    assert len(products) == 825


def test_ih_rep_forms_each_hook_product_once(monkeypatch):
    # the telescoped sum takes one signed hook per stratum, so no
    # (hook, shape) pair is multiplied twice
    pairs = []
    real = symreps._hook_product

    def counted(hook, lam, mult, out):
        pairs.append((hook, lam))
        real(hook, lam, mult, out)

    monkeypatch.setattr(symreps, "_hook_product", counted)
    ih_rep.cache_clear()
    try:
        for n in range(2, 21):
            for i in range((n - 2) // 2 + 1):
                ih_rep(n, i)
    finally:
        ih_rep.cache_clear()
    assert len(pairs) == len(set(pairs)) == 825


@lru_cache(maxsize=None)
def literal_ih_rep(n, i):
    """The stratification recursion summed term by term, each stratum
    term an exterior power with the sign (-1)^(p+q)."""
    if 2 * i >= n - 1:
        return VirtualRep(n)
    total = exterior_rho(n, i) * (-1) ** i
    for p in range(1, n - 1):
        for q in range(min(i, 2 * i - p) + 1):
            sub = literal_ih_rep(p + 1, i - q)
            if not sub:
                continue
            term = induce_product(exterior_rho(n - p - 1, 2 * i - p - q), sub)
            total = total + term if (p + q) % 2 == 0 else total - term
    return total


def test_ih_rep_matches_the_literal_recursion():
    ih_rep.cache_clear()
    try:
        for n in range(2, 23):
            for i in range((n - 2) // 2 + 3):
                assert ih_rep(n, i) == literal_ih_rep(n, i), (n, i)
    finally:
        ih_rep.cache_clear()


def test_ih_rep_base_and_vanishing():
    assert ih_rep(2, 0) == irreducible((2,))
    assert ih_rep(5, 2) == VirtualRep(5)
    assert ih_rep(3, 1) == VirtualRep(3)
    with pytest.raises(ValueError):
        ih_rep(1, 0)
    with pytest.raises(ValueError):
        ih_rep(4, -1)


def test_ih_rep_hand_expansion():
    # (4,1): -(V[4]+V[3,1]) + Ind(V[2] x V[2]) = V[2,2]
    assert ih_rep(4, 1) == irreducible((2, 2))
    assert ih_rep(4, 1).dimension() == 2


def test_ih_rep_is_single_irreducible():
    for n in range(2, 23):
        for i in range((n - 2) // 2 + 1):
            target = Partition((n - 2 * i,) + (2,) * i)
            rep = ih_rep(n, i)
            assert rep.terms == {target: 1}, (n, i)
            assert rep.dimension() == c_closed(n, i), (n, i)
            assert verify_main2(n, i)


def test_verify_main2_named_case():
    assert verify_main2(14, 5)
    assert ih_rep(14, 5).terms == {Partition((4, 2, 2, 2, 2, 2)): 1}


def test_verify_main2_catches_a_planted_reducible_character(monkeypatch, capsys):
    real = symreps.ih_rep
    # a cold ih_rep(8, 3) would read the planted (8, 2) and cache the poisoned sum
    for n in range(2, 9):
        for i in range((n - 2) // 2 + 1):
            real(n, i)
    planted = VirtualRep(8, {(4, 2, 2): 1, (4, 4): 1})
    monkeypatch.setattr(
        symreps, "ih_rep", lambda n, i: planted if (n, i) == (8, 2) else real(n, i)
    )
    assert not verify_main2(8, 2)
    assert cli.main(["verify", "main2", "--n-max", "8"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert fails == ["  FAIL ih(8,2) irreducible: expected True, got False"]


def test_lemma_key_catches_a_planted_nonzero_coefficient(monkeypatch, capsys):
    # every LR count reads 1, so each coefficient shows whether its hook is asked
    monkeypatch.setattr(symreps, "lr_coefficient", lambda nu, mu, lam: 1)
    assert lemma_key_check(8, 3, 2, 3) == (1, 1)  # both hooks in range
    assert lemma_key_check(7, 2, 2, 2) == (1, 0)  # 2i-p-q = 0: only the first hook
    assert lemma_key_check(6, 2, 3, 1) == (1, 0) == lemma_key_expected(6, 2, 3, 1)
    assert lemma_key_check(6, 2, 2, 1) == (0, 0)  # head of lam below 2
    assert cli.main(["verify", "lemma-key", "--n-max", "8"]) == 1
    summary, first = capsys.readouterr().out.splitlines()[:2]
    assert summary.startswith("lemma-key: 60 cases, 49 passed, 11 failed (")
    assert first == "  FAIL n=6 i=2 p=1 q=2: expected (0, 0), got (1, 1)"


def test_verify_main2_domain():
    with pytest.raises(ValueError):
        verify_main2(5, 2)
    with pytest.raises(ValueError):
        verify_main2(4, -1)


# --------------------------------------------------------------- key lemma


def test_lemma_key_frozen_cases():
    assert lemma_key_check(6, 2, 3, 1) == (1, 0)
    assert lemma_key_check(6, 2, 2, 0) == (0, 0)
    assert lemma_key_check(20, 6, 8, 3) == (0, 0)


def test_lemma_key_matches_pattern():
    for n in range(2, 11):
        for i in range((n - 2) // 2 + 1):
            for p in range(1, min(2 * i, n - 1) + 1):
                for q in range(min(i, 2 * i - p) + 1):
                    assert lemma_key_check(n, i, p, q) == lemma_key_expected(
                        n, i, p, q
                    ), (n, i, p, q)


def test_lemma_key_range_rule_matches_partition():
    # lemma_key_check drops lam = [p+2q-2i+1, 2^(i-q)] by its head alone;
    # the oracle asks the Partition constructor about every shape instead
    def shape(head, part, count):
        if count < 0:
            return None
        try:
            return Partition((head,) + (part,) * count)
        except ValueError:
            return None

    cases = dropped = 0
    for n in range(2, 15):
        for i in range((n - 2) // 2 + 1):
            nu = Partition((n - 2 * i,) + (2,) * i)
            for p in range(1, n):
                for q in range(min(i, 2 * i - p) + 1):
                    lam = shape(p + 2 * q - 2 * i + 1, 2, i - q)
                    hooks = (
                        shape(n + q - 2 * i - 1, 1, 2 * i - p - q),
                        shape(n + q - 2 * i, 1, 2 * i - p - q - 1),
                    )
                    if lam is None:
                        expected = (0, 0)
                        dropped += 1
                    else:
                        expected = tuple(
                            0 if mu is None else lr_coefficient(nu, mu, lam) for mu in hooks
                        )
                    assert lemma_key_check(n, i, p, q) == expected, (n, i, p, q)
                    cases += 1
    assert (cases, dropped) == (588, 392)


def test_lemma_key_domain():
    with pytest.raises(ValueError):
        lemma_key_check(6, 3, 3, 1)  # 2i >= n-1
    with pytest.raises(ValueError):
        lemma_key_check(6, 2, 0, 0)  # p out of range
    with pytest.raises(ValueError):
        lemma_key_check(6, 2, 6, 0)  # p out of range
    with pytest.raises(ValueError):
        lemma_key_check(6, 2, 3, 2)  # q > 2i - p


def test_top_stratum_contributes_nothing():
    # At p = n-1 the exterior-power index 2i-p-q is negative for every
    # index i below the vanishing threshold and every q >= 0, so both hook
    # shapes of the stratum term are out of range and the contribution is
    # the zero representation.
    from uniform_kl.symreps import _hook

    for n in range(3, 12):
        p = n - 1
        for i in range((n - 2) // 2 + 1):
            assert 2 * i - p < 0
            for q in range(i + 1):
                leg = 2 * i - p - q
                assert leg < 0  # never a valid exterior power
                assert _hook(n + q - 2 * i - 1, leg) is None
                assert _hook(n + q - 2 * i, leg - 1) is None
