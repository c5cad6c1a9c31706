"""Catalog quotients from a range of cone orders, for the tests."""

from itertools import combinations_with_replacement

from necsurf.signatures import QuotientType


def instances(fam, values):
    """Every quotient of ``fam`` whose cone orders come from the ascending ``values``
    and that ``Family.admits``: m <= n for two cone orders, in the order of ``values``."""
    if not fam.params:
        return [QuotientType(fam.kind)]
    if len(fam.params) == 1:
        return [QuotientType(fam.kind, m) for m in values if fam.admits(m)]
    pairs = combinations_with_replacement(values, 2)
    return [QuotientType(fam.kind, m, n) for m, n in pairs if fam.admits(m, n)]
