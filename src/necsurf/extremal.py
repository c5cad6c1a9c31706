"""Minimum genus and maximum order solvers, closed form and catalog search.

Five minimum-genus variants at a fixed order N: ``p`` (any bordered
surface), ``p+``/``p-`` (orientable/non-orientable), and ``p++``/``p+-``
(orientable with an orientation-preserving, resp. -reversing, generator).
Dually five maximum-order variants ``N``, ``N+``, ``N-``, ``N++``, ``N+-``
at a fixed algebraic genus p.  Orientation-reversing variants are undefined
for odd orders: an orientation-reversing homeomorphism has even order.

The closed forms give the extremal value directly; realizers are always
enumerated from the quotient catalog through the classification formulas,
so closed form and exhaustive search can be compared realizer by realizer.
The realizers of genus p at order N come from the catalog points at that
genus alone (``actions_for_order(N, genus=p)``): by Hurwitz-Riemann every
action with quotient q has genus 1 + N*area(q), so ``Family.points(N, p)``
solves that equation for the cone orders and no other point is built or
classified.  ``min_genus_search`` walks the genera at N upward
(``genera_for_order``, the genera of ``Family.points(N)``) and stops at
the first with a matching record.  Every answer satisfies N > p - 1,
which is what makes the ten-family catalog exhaustive for these problems.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import ActionRecord, actions_for_order, genera_for_order
from .zmod import is_prime, smallest_prime_factor

MIN_GENUS_VARIANTS = ("p", "p+", "p-", "p++", "p+-")
MAX_ORDER_VARIANTS = ("N", "N+", "N-", "N++", "N+-")


@dataclass(frozen=True)
class ExtremalAnswer:
    query: str  # "min-genus" or "max-order"
    variant: str
    argument: int  # the fixed N (min-genus) or fixed p (max-order)
    value: int | None
    realizers: tuple[ActionRecord, ...] = ()

    @property
    def class_count(self) -> int:
        return sum(r.realization.count for r in self.realizers)


def _matches(record: ActionRecord, flavour: str) -> bool:
    surf, rev = record.surface, record.realization.reversing
    if flavour == "p":
        return True
    if flavour == "p-":
        return not surf.orientable
    if flavour == "p+":
        return surf.orientable
    if flavour == "p++":
        return surf.orientable and rev is False
    if flavour == "p+-":
        return surf.orientable and rev is True
    raise ValueError(f"unknown variant {flavour!r}")


def _check(query: str, variant: str, argument: int) -> None:
    """Reject a variant the query does not have, and an order N or genus p below 2."""
    allowed = MIN_GENUS_VARIANTS if query == "min-genus" else MAX_ORDER_VARIANTS
    if variant not in allowed:
        raise ValueError(f"{query} variant must be one of {allowed}, got {variant!r}")
    if argument < 2:
        what = "order" if query == "min-genus" else "algebraic genus"
        raise ValueError(f"{what} must be >= 2")


def _reject_odd_reversing(variant: str, N: int) -> None:
    if variant.endswith("+-") and N % 2 != 0:
        raise ValueError(
            f"variant {variant} is undefined for odd order {N}: "
            "orientation-reversing homeomorphisms have even order"
        )


def _realizers_at(N: int, flavour: str, p: int) -> tuple[ActionRecord, ...]:
    return tuple(r for r in actions_for_order(N, genus=p) if _matches(r, flavour))


# --- closed forms -----------------------------------------------------------


def _min_genus_value(N: int, variant: str) -> int:
    """The closed-form minimum, split by the parity/primality of N."""
    if N == 2:
        return 2  # every variant attains the smallest hyperbolic genus
    if variant == "p":
        return min(_min_genus_value(N, "p+"), _min_genus_value(N, "p-"))
    if variant == "p+":
        if N % 2 != 0:
            return _min_genus_value(N, "p++")
        return min(_min_genus_value(N, "p++"), _min_genus_value(N, "p+-"))
    if variant == "p++":
        if N % 4 == 0:
            return N // 2
        if N % 2 == 0:
            return N // 2 - 1
        if is_prime(N):
            return N - 1
        q = smallest_prime_factor(N)
        return (q - 1) * N // q if N % (q * q) == 0 else (q - 1) * (N - q) // q
    if variant == "p+-":
        return N // 2 + 1 if N % 4 == 0 else N // 2 - 1
    # p-
    if N % 2 == 0:
        return N // 2
    if is_prime(N):
        return N
    q = smallest_prime_factor(N)
    return (q - 1) * N // q + 1


def min_genus_closed(N: int, variant: str) -> ExtremalAnswer:
    """Least algebraic genus of a bordered surface with an order-N action."""
    _check("min-genus", variant, N)
    _reject_odd_reversing(variant, N)
    value = _min_genus_value(N, variant)
    realizers = _realizers_at(N, variant, value)
    assert realizers, f"closed-form minimum {value} for {variant}({N}) has no realizer"
    assert N > value - 1, "minimum outside the large-action range"
    return ExtremalAnswer("min-genus", variant, N, value, realizers)


def min_genus_search(N: int, variant: str) -> ExtremalAnswer:
    """Exhaustive minimum over the quotient catalog (empty when unattained)."""
    _check("min-genus", variant, N)
    for value in genera_for_order(N):
        realizers = _realizers_at(N, variant, value)
        if realizers:
            assert N > value - 1, "catalog sweep only covers N > p - 1"
            return ExtremalAnswer("min-genus", variant, N, value, realizers)
    return ExtremalAnswer("min-genus", variant, N, None, ())


def _max_order_value(p: int, variant: str) -> int:
    if variant == "N":
        return max(_max_order_value(p, "N+"), _max_order_value(p, "N-"))
    if variant == "N+":
        return max(_max_order_value(p, "N++"), _max_order_value(p, "N+-"))
    if variant == "N-":
        return 2 * p
    if variant == "N++":
        return 2 * (p + 1) if p % 2 == 0 else 2 * p
    # N+-
    return 2 * (p + 1) if p % 2 == 0 else 2 * (p - 1)


def max_order_closed(p: int, variant: str) -> ExtremalAnswer:
    """Largest cyclic order acting on a bordered surface of algebraic genus p."""
    _check("max-order", variant, p)
    value = _max_order_value(p, variant)
    realizers = _realizers_at(value, _min_variant_for(variant), p)
    assert realizers, f"closed-form maximum {value} for {variant}({p}) has no realizer"
    assert value > p - 1, "maximum outside the large-action range"
    return ExtremalAnswer("max-order", variant, p, value, realizers)


def _min_variant_for(max_variant: str) -> str:
    return "p" + max_variant[1:]


def max_order_search(p: int, variant: str) -> ExtremalAnswer:
    """Scan orders downward from the proven ceiling 2(p+1)."""
    _check("max-order", variant, p)
    flavour = _min_variant_for(variant)
    for N in range(2 * (p + 1), max(p, 2) - 1, -1):
        # stays within N > p - 1, where the catalog is exhaustive
        realizers = _realizers_at(N, flavour, p)
        if realizers:
            return ExtremalAnswer("max-order", variant, p, N, realizers)
    return ExtremalAnswer("max-order", variant, p, None, ())
