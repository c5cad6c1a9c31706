"""Minimum genus and maximum order solvers, closed form and catalog search.

Five minimum-genus variants at a fixed order N: ``p`` (any bordered
surface), ``p+``/``p-`` (orientable/non-orientable), and ``p++``/``p+-``
(orientable with an orientation-preserving, resp. -reversing, generator).
Dually five maximum-order variants ``N``, ``N+``, ``N-``, ``N++``, ``N+-``
at a fixed algebraic genus p.  Orientation-reversing variants are undefined
for odd orders: an orientation-reversing homeomorphism has even order.
What each variant asks of a realizer is one entry of ``_DEMANDS``, keyed
by its ``p`` name: the variant lists, the realizer filter, the odd-order
rule and the ``N`` -> ``p`` mapping of ``_check`` all read it.

Two routes answer each query, and the CLI verdict and acceptance
criterion 5 compare them realizer by realizer.
- The closed solvers (``min_genus_closed``, ``max_order_closed``) take
  the extremal value and the catalog points that realise it from one
  table, ``_min_genus`` or ``_max_order``, after Bujalance, Etayo, Gamboa
  and Gromadzki (LNM 1439).  Each row names its points, and its value
  follows from them by Hurwitz-Riemann: an order-N action with quotient q
  lives on genus p = 1 + N*area(q).  The solvers give each named point
  its genus by ``Family.point_genus``, assert that it is the table's
  value, and classify those points alone (``records_at``); they never
  walk the catalog.
- The searches walk the twelve catalog families.  ``min_genus_search``
  reads the points of order N once (``points_at``), groups them by their
  genus, and classifies the genera upward until one has a matching
  record.  ``max_order_search`` walks the orders down from the ceiling
  2(p+1) and classifies the points of genus p at each
  (``actions_for_order(N, genus=p)``).
Every answer satisfies N > p - 1, which is what makes the catalog
exhaustive for these problems.  Realizers are listed in sweep order:
family order, then ascending cone orders, then each formula's own order.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import ActionRecord, actions_for_order, points_at, records_at
from .signatures import FAMILIES
from .zmod import smallest_prime_factor

#: flavour -> the (orientable, reversing) a realizer must have; None asks nothing.
_DEMANDS = {
    "p": (None, None),
    "p+": (True, None),
    "p-": (False, None),
    "p++": (True, False),
    "p+-": (True, True),
}
MIN_GENUS_VARIANTS = tuple(_DEMANDS)
MAX_ORDER_VARIANTS = tuple("N" + flavour[1:] for flavour in _DEMANDS)

#: kind -> its place in the catalog, the first key of sweep order
_RANK = {kind: i for i, kind in enumerate(FAMILIES)}

#: the catalog points (kind, m, n) of genus 2 at N = 2, where every variant has its minimum
_ORDER_2_POINTS = (
    ("d6", None, None), ("ann2", None, None), ("mb2", None, None), ("d14", 2, None),
    ("mb1", 2, None), ("ann1", 2, None), ("d3-22m", 2, None), ("d2c-2m", 2, None),
)


class ExtremalAnswer(NamedTuple):
    """The extremal value of one query variant and its realizers, as an immutable tuple."""

    query: str  # "min-genus" or "max-order"
    variant: str
    argument: int  # the fixed N (min-genus) or fixed p (max-order)
    value: int | None
    realizers: tuple[ActionRecord, ...] = ()

    @property
    def class_count(self) -> int:
        return sum(r.realization.count for r in self.realizers)


def _check(query: str, variant: str, argument: int) -> str:
    """The flavour of a variant (``N+-`` -> ``p+-``), whose demands its realizers meet.

    Rejects a variant the query does not have, and an order N or genus p below 2.
    """
    allowed = MIN_GENUS_VARIANTS if query == "min-genus" else MAX_ORDER_VARIANTS
    if variant not in allowed:
        raise ValueError(f"{query} variant must be one of {allowed}, got {variant!r}")
    if argument < 2:
        what = "order" if query == "min-genus" else "algebraic genus"
        raise ValueError(f"{what} must be >= 2")
    return "p" + variant[1:]


def _keep(records, flavour: str) -> tuple[ActionRecord, ...]:
    """The records that meet the flavour's demands, in their order."""
    orientable, reversing = _DEMANDS[flavour]
    return tuple(
        r for r in records
        if orientable in (None, r.surface.orientable)
        and reversing in (None, r.realization.reversing)
    )


# --- closed forms -----------------------------------------------------------


def _extreme(pick, cases) -> tuple[int, tuple]:
    """The value ``pick`` (min or max) chooses among (value, points) cases, and
    the points (kind, m, n) of every case that attains it, once each, in sweep order."""
    value = pick(v for v, _ in cases)
    points = {pt for v, pts in cases if v == value for pt in pts}
    return value, tuple(sorted(points, key=lambda pt: (_RANK[pt[0]], pt[1] or 0, pt[2] or 0)))


def _min_genus(N: int, variant: str) -> tuple[int, tuple]:
    """The closed-form minimum genus at order N and the catalog points (kind, m, n)
    that realise it.

    Each value is p = 1 + N*area at its points, with the areas
    d21(m,n) 1 - 1/m - 1/n, mb1(m) 1 - 1/m and d12(m) 1/2 - 1/m; q is the
    least prime of N.
    - N = 2: every variant has genus 2, at the eight points of area 1/2.
    - ``p++``: d21(2,N), genus N/2, if 4 | N; at N = 12 also d21(3,4),
      since 1/3 + 1/4 = 1/2 + 1/12.  d21(2,N/2), genus N/2 - 1, if
      N = 2 mod 4.  d21(N,N), genus N - 1, if N is an odd prime.
      d21(q,N), genus (q - 1)N/q, if q^2 | N, else d21(q,N/q), genus
      (q - 1)(N - q)/q.
    - ``p+-``: mb1(2), genus N/2 + 1, if 4 | N; d12(N/2), genus N/2 - 1, if
      N = 2 mod 4.
    - ``p-``: d12(N), genus N/2, for even N; mb1(N), genus N, if N is
      prime; mb1(q), genus (q - 1)N/q + 1, otherwise.
    - ``p+`` and ``p``: the least of their parts (``p++`` and ``p+-``;
      ``p+`` and ``p-``), at the points of every part that attains it.
    """
    if N == 2:
        return 2, _ORDER_2_POINTS
    if variant == "p":
        return _extreme(min, [_min_genus(N, "p+"), _min_genus(N, "p-")])
    if variant == "p+":
        if N % 2 != 0:
            return _min_genus(N, "p++")
        return _extreme(min, [_min_genus(N, "p++"), _min_genus(N, "p+-")])
    if variant == "p++":
        if N % 4 == 0:
            return N // 2, (("d21", 2, N), ("d21", 3, 4)) if N == 12 else (("d21", 2, N),)
        if N % 2 == 0:
            return N // 2 - 1, (("d21", 2, N // 2),)
        q = smallest_prime_factor(N)
        if q == N:
            return N - 1, (("d21", N, N),)
        if N % (q * q) == 0:
            return (q - 1) * N // q, (("d21", q, N),)
        return (q - 1) * (N - q) // q, (("d21", q, N // q),)
    if variant == "p+-":
        if N % 4 == 0:
            return N // 2 + 1, (("mb1", 2, None),)
        return N // 2 - 1, (("d12", N // 2, None),)
    # p-
    if N % 2 == 0:
        return N // 2, (("d12", N, None),)
    q = smallest_prime_factor(N)
    if q == N:
        return N, (("mb1", N, None),)
    return (q - 1) * N // q + 1, (("mb1", q, None),)


def _closed_realizers(N: int, flavour: str, p: int, points) -> tuple[ActionRecord, ...]:
    """The records of a closed form's points (kind, m, n) that meet the flavour's demands.

    Each point is classified at its own ``Family.point_genus``, which must be
    the closed value p.
    """
    points = [(kind, m, n, FAMILIES[kind].point_genus(m, n, N)) for kind, m, n in points]
    assert all(pt[3] == p for pt in points), (
        f"a closed-form point at N={N} is not of genus {p}: {points}")
    realizers = _keep(records_at(N, points), flavour)
    assert realizers, f"closed form {p} at N={N} has no {flavour} realizer at {points}"
    return realizers


def min_genus_closed(N: int, variant: str) -> ExtremalAnswer:
    """Least algebraic genus of a bordered surface with an order-N action."""
    flavour = _check("min-genus", variant, N)
    if _DEMANDS[flavour][1] and N % 2 != 0:
        raise ValueError(
            f"variant {variant} is undefined for odd order {N}: "
            "orientation-reversing homeomorphisms have even order"
        )
    value, points = _min_genus(N, variant)
    realizers = _closed_realizers(N, flavour, value, points)
    assert N > value - 1, "minimum outside the large-action range"
    return ExtremalAnswer("min-genus", variant, N, value, realizers)


def min_genus_search(N: int, variant: str) -> ExtremalAnswer:
    """Exhaustive minimum over the quotient catalog (empty when unattained)."""
    flavour = _check("min-genus", variant, N)
    groups: dict[int, list] = {}
    for point in points_at(N):
        groups.setdefault(point[3], []).append(point)
    for value in sorted(groups):
        realizers = _keep(records_at(N, groups[value]), flavour)
        if realizers:
            assert N > value - 1, "catalog sweep only covers N > p - 1"
            return ExtremalAnswer("min-genus", variant, N, value, realizers)
    return ExtremalAnswer("min-genus", variant, N, None, ())


def _max_order(p: int, variant: str) -> tuple[int, tuple]:
    """The closed-form maximum order at genus p and the catalog points (kind, m, n)
    that realise it.

    Each order N solves p = 1 + N*area at its points, with the areas of
    ``_min_genus``.
    - ``N-``: d12(N) at N = 2p, genus N/2.
    - ``N++``: d21(2,N/2) at N = 2(p + 1), genus N/2 - 1, for even p;
      d21(2,N) at N = 2p, genus N/2, for odd p.
    - ``N+-``: d12(N/2) at N = 2(p + 1), genus N/2 - 1, for even p;
      mb1(2) at N = 2(p - 1), genus N/2 + 1, for odd p.
    - ``N+`` and ``N``: the greatest of their parts (``N++`` and ``N+-``;
      ``N+`` and ``N-``), at the points of every part that attains it.
    """
    if variant == "N":
        return _extreme(max, [_max_order(p, "N+"), _max_order(p, "N-")])
    if variant == "N+":
        return _extreme(max, [_max_order(p, "N++"), _max_order(p, "N+-")])
    if variant == "N-":
        return 2 * p, (("d12", 2 * p, None),)
    if variant == "N++":
        if p % 2 == 0:
            return 2 * (p + 1), (("d21", 2, p + 1),)
        return 2 * p, (("d21", 2, 2 * p),)
    # N+-
    if p % 2 == 0:
        return 2 * (p + 1), (("d12", p + 1, None),)
    return 2 * (p - 1), (("mb1", 2, None),)


def max_order_closed(p: int, variant: str) -> ExtremalAnswer:
    """Largest cyclic order acting on a bordered surface of algebraic genus p."""
    flavour = _check("max-order", variant, p)
    value, points = _max_order(p, variant)
    realizers = _closed_realizers(value, flavour, p, points)
    assert value > p - 1, "maximum outside the large-action range"
    return ExtremalAnswer("max-order", variant, p, value, realizers)


def max_order_search(p: int, variant: str) -> ExtremalAnswer:
    """Scan orders downward from the proven ceiling 2(p+1)."""
    flavour = _check("max-order", variant, p)
    for N in range(2 * (p + 1), max(p, 2) - 1, -1):
        # stays within N > p - 1, where the catalog is exhaustive
        realizers = _keep(actions_for_order(N, genus=p), flavour)
        if realizers:
            return ExtremalAnswer("max-order", variant, p, N, realizers)
    return ExtremalAnswer("max-order", variant, p, None, ())
