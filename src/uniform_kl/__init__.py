"""Exact computations around the Kazhdan-Lusztig polynomial of the uniform
matroid of rank n-1 on n elements.

The coefficient c(n, i) is computed by four independent routes: a product
closed form, a bottom-up double-sum recursion, enumeration of non-crossing
diagonal sets of a convex polygon, and dimensions of symmetric-group
characters assembled by a stratification recursion.  Generating-series
identities tie the routes together.
"""

# Kept at package level because the benchmark harness self-test counts this
# binding of kl_poly among the ones its traced run patches.
from .klnumbers import kl_poly

__version__ = "0.1.0"
