"""Exact computations around the Kazhdan-Lusztig polynomial of the uniform
matroid of rank n-1 on n elements.

The coefficient c(n, i) is computed by four independent routes: a product
closed form, a bottom-up double-sum recursion, enumeration of non-crossing
diagonal sets of a convex polygon, and dimensions of symmetric-group
characters assembled by a stratification recursion.  Generating-series
identities tie the routes together.
"""

from .polynomial import UniPoly
from .klnumbers import (
    KLTable,
    LogConcaveTriple,
    c_closed,
    c_recursion,
    check_epw2,
    check_logconcave,
    d_bruteforce,
    d_cayley,
    kl_poly,
)
from .series import (
    USeries,
    beckwith_f,
    check_functional_equation,
    g_series,
    phi_from_table,
)
from .symreps import (
    Partition,
    VirtualRep,
    exterior_rho,
    hook_dimension,
    ih_rep,
    induce_product,
    lemma_key_check,
    lemma_key_expected,
    lr_coefficient,
    verify_main2,
)

__version__ = "0.1.0"

__all__ = [
    "UniPoly",
    "KLTable",
    "LogConcaveTriple",
    "c_closed",
    "c_recursion",
    "check_epw2",
    "check_logconcave",
    "d_bruteforce",
    "d_cayley",
    "kl_poly",
    "USeries",
    "beckwith_f",
    "check_functional_equation",
    "g_series",
    "phi_from_table",
    "Partition",
    "VirtualRep",
    "exterior_rho",
    "hook_dimension",
    "ih_rep",
    "induce_product",
    "lemma_key_check",
    "lemma_key_expected",
    "lr_coefficient",
    "verify_main2",
]
