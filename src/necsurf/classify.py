"""Closed-form classification of cyclic actions for the ten quotient families.

One private formula per family, ``f(q, N, p) -> list[Realization]``,
states the paper's conditions, and its docstring states the paper's
result for the family: existence (an empty list means no action), the
class counts, through the totient, its companion psi and gcds, and the
boundary counts of the realized surfaces.  A formula returns every
realization of the point in one pass: k ascending, then the orientable
realizations, then the non-orientable one.  The families whose answer
depends on the boundary count k read the k that can occur off the
divisor structure of m and N, and state that k-set in their docstrings.
Every division is exact and asserted.  No formula computes a genus: by
Hurwitz-Riemann every order-N action with quotient q lives on a surface
of algebraic genus p = 1 + N*area(q), whatever k and the orientability.
``Family.point_genus`` computes that p once per point, or None, and is
the one existence gate: a formula runs only where p is an integer and N
is the family's forced order, if it has one.  The formula gets p, and
builds each surface with ``SurfaceTopology.of_genus``.  For one quotient
the gate is ``results_for(q, N)``, which asks ``point_genus``.  A
catalog point is (kind, m, n, p) and carries its p: ``points_at(N,
genus)`` is the one walk over ``FAMILIES`` and their ``Family.points``,
which asked the same rule, and ``records_at(N, points)`` is the one loop
that classifies a list of points, each at its own p.  It and
``results_for`` are the only code that calls a formula of ``_FORMULAS``.
``classify`` checks its input: N >= 2, defaulting to the forced order;
k (>= 1) and the orientability flag exactly where the family's
``classify_args`` name them, so an argument a family does not take
raises ``ValueError`` like a missing one.  It then keeps the realizations
of ``results_for`` at that k and orientability.  It is the one way in:
the CLI forwards its input to it, and ``classify_ann1`` is a named
forwarder kept for the benchmark tracer.  ``actions_for_order(N, genus)``
is the ``records_at`` of ``points_at(N, genus)``; ``Family.points`` solves
the points at one genus p from the Hurwitz-Riemann equation.  The
extremal solvers classify the points they name or group through
``records_at``.
``bucket_counts`` counts classes by (orientable, reversing, boundary
count) for both sides of the oracle's check: ``classification_buckets``
and the oracle's ``OrbitReport.buckets``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .signatures import FAMILIES, QuotientType, SurfaceTopology, check_arguments
from .zmod import (
    _Checked, biggest_coprime_divisor, divisors, euler_phi, harvey_check, maclachlan, psi
)


class _RealizationFields(NamedTuple):
    surface: SurfaceTopology
    count: int
    reversing: bool | None = None
    label: str = ""


class Realization(_Checked, _RealizationFields):
    """One realized surface with its class count.

    ``reversing`` records, for orientable surfaces, whether the generators
    of the cyclic action reverse orientation (None when non-orientable).
    ``label`` distinguishes sub-families contributing disjoint classes,
    e.g. the two kinds of orientable annulus-quotient actions.  An
    immutable tuple of its fields: it hashes and compares by value, and
    also equals a plain tuple of the same fields.
    """

    __slots__ = ()

    def __new__(
        cls, surface: SurfaceTopology, count: int, reversing: bool | None = None, label: str = ""
    ) -> "Realization":
        self = tuple.__new__(cls, (surface, count, reversing, label))
        assert count >= 1, f"a realization without classes: {self}"
        return self


class ClassificationResult(NamedTuple):
    """The realizations of one quotient at one order: an immutable tuple.

    Existence and the class count are read off the realizations; each
    ``Realization`` has at least one class, so ``exists`` is
    ``class_count >= 1``.
    """

    quotient: QuotientType
    order: int  # the order N of the acting cyclic group
    realizations: tuple[Realization, ...] = ()

    @property
    def exists(self) -> bool:
        return bool(self.realizations)

    @property
    def class_count(self) -> int:
        return sum(r.count for r in self.realizations)


def _ceil_half(x: int) -> int:
    return (x + 1) // 2


def _corner_only(q: QuotientType, N: int, p: int) -> list[Realization]:
    """The parameter-free families: d6, ann2, mb2.

    d6 has the forced order N = 2 (one class, 3-holed sphere).  ann2 and
    mb2 exist for even N; each realized surface carries a single class, and
    the orientable surfaces (tori/spheres, only for odd N/2) carry
    orientation-reversing actions.
    """
    if q.kind == "d6":
        return [Realization(SurfaceTopology.of_genus(True, p, 3), 1, reversing=True)]
    half_odd = (N // 2) % 2 == 1
    reals = []
    if q.kind == "ann2":
        for b in (N // 2, N // 2 + 1):  # Klein bottle, projective plane
            reals.append(Realization(SurfaceTopology.of_genus(False, p, b), 1))
        if half_odd:
            for b in (N // 2, N // 2 + 2):
                reals.append(Realization(SurfaceTopology.of_genus(True, p, b), 1, reversing=True))
    else:  # mb2
        reals.append(Realization(SurfaceTopology.of_genus(False, p, N // 2), 1))
        if half_odd:
            reals.append(Realization(SurfaceTopology.of_genus(True, p, N // 2), 1, reversing=True))
    return reals


def _disc_corners(q: QuotientType, N: int, p: int) -> list[Realization]:
    """Disc quotients with one cone point and 2 or 4 corners (d12, d14).

    The order is forced: N = m for even m (non-orientable cover), N = 2m
    for odd m (orientable, orientation-reversing cover).  One class each, on the gate's genus p.
    """
    b = N // 2 if q.kind == "d12" else N
    if q.m % 2 == 0:
        return [Realization(SurfaceTopology.of_genus(False, p, b), 1)]
    return [Realization(SurfaceTopology.of_genus(True, p, b), 1, reversing=True)]


def _cover_boundary_bases(m: int, N: int) -> tuple[int, int | None]:
    """The boundary counts k of an order-N cover of a one-cone quotient (mb1, ann1).

    The covers need N = lcm(m, N/k) or N = 2*lcm(m, N/k).  N = lcm(m, N/k)
    exactly when k | m* = biggest_coprime_divisor(m, N/m); N = 2*lcm(m, N/k)
    exactly when m | N/2 and k = 2j with j | biggest_coprime_divisor(m, N/2m).
    The two k-sets are disjoint.  Returns their bases m* and the second
    biggest_coprime_divisor, which is None when m does not divide N/2.
    """
    half_base = biggest_coprime_divisor(m, N // (2 * m)) if (N // m) % 2 == 0 else None
    return biggest_coprime_divisor(m, N // m), half_base


def _mb1(q: QuotientType, N: int, p: int) -> list[Realization]:
    """Once-punctured Moebius band quotients.

    With k boundary components and t = gcd(m, N/k): orientable covers need
    N = 2*lcm(m, N/k) with t odd or N/2t even, and carry ceil(phi(t)/2)
    classes.  Non-orientable covers need N = lcm(m, N/k) with N/t odd, and
    carry phi(t) classes for even N, ceil(phi(t)/2) for odd N.  The k-sets
    are those of ``_cover_boundary_bases``: disjoint, so each k carries
    at most one realization.
    """
    m = q.m
    m_star, half_base = _cover_boundary_bases(m, N)
    single = [(k, False) for k in divisors(m_star)]
    doubled = [] if half_base is None else [(2 * j, True) for j in divisors(half_base)]
    reals = []
    for k, orientable in sorted(single + doubled):
        t = math.gcd(m, N // k)
        if orientable:
            if t % 2 == 0 and (N // (2 * t)) % 2 != 0:
                continue
            count = _ceil_half(euler_phi(t))
        else:
            if (N // t) % 2 == 0:
                continue
            count = euler_phi(t) if N % 2 == 0 else _ceil_half(euler_phi(t))
        surf = SurfaceTopology.of_genus(orientable, p, k)
        reals.append(Realization(surf, count, reversing=True if orientable else None))
    return reals


def _d21(q: QuotientType, N: int, p: int) -> list[Realization]:
    """Twice-punctured disc quotients; N = lcm(m, n) is forced.

    The boundary generator e has order N/k, so existence is Harvey's test
    that Z_N is generated by elements of orders m, n, N/k summing to zero.
    For t = gcd(m, n) it amounts to k | t, gcd(k, N/t) = 1, and k even
    when N is even with N/t odd (so that exactly one of N/m, N/n, N/k is
    even).  So k runs over the divisors of biggest_coprime_divisor(t, N/t).

    ``harvey_check`` and ``maclachlan`` each run once per point, at k = 1.
    Every k of the set divides t and is coprime to N/t, so the lcm
    conditions of (m, n, N/k) hold by construction and only the parity is
    left.  N/m and N/n are coprime, so at most one of them is even.  When
    N is odd, or N/t is even, every k of the set is odd, and the k = 1
    test ``harvey_check(m, n, N, N)`` passes; when N is even and N/t odd,
    that test fails and exactly the even k pass.  So k passes iff (k odd)
    equals the one test.  The Maclachlan decomposition of (m, n, N) has
    A = t, and that of (m, n, N/k) has A = t/k and A1*A2*A3 = N/A, from
    which ``_pair_count`` counts the classes.  The cover is always
    orientable and orientation-preserving; for m = n the maps pair off
    under inversion with multiplier k.
    """
    m, n = q.m, q.n
    t = maclachlan(m, n, N).a
    odd_k_pass = harvey_check(m, n, N, N)
    reals = []
    for k in divisors(biggest_coprime_divisor(t, N // t)):
        if (k % 2 == 1) != odd_k_pass:
            continue
        count = _pair_count(t // k, N, m == n, k)
        reals.append(Realization(SurfaceTopology.of_genus(True, p, k), count, reversing=False))
    return reals


def _pair_count(A: int, N: int, paired: bool, multiplier: int) -> int:
    """Classes of the maps with two orientation-preserving cone generators (d21, ann1 splits).

    With C the biggest divisor of A coprime to N/A and B = A/C, there are
    phi(B)*psi(C) classes; when the maps pair off under inversion
    (``paired``), the count is ``_half_count`` with ``multiplier``.
    """
    C = biggest_coprime_divisor(A, N // A)
    assert C % 2 == 1, "C must be odd whenever the existence conditions hold"
    B = A // C
    return _half_count(B, C, multiplier) if paired else euler_phi(B) * psi(C)


def _half_count(B: int, C: int, multiplier: int) -> int:
    """Classes among phi(B)*psi(C) maps identified in pairs a ~ a^-1.

    The count is (phi(B)*psi(C) + I)/2 with I the number of self-paired
    maps.  I = 1 for B <= 2.  For B a 2-power above 2, a self-paired map
    needs multiplier * s = 2 (mod 4) for a unit s, i.e. multiplier = 2
    (mod 4), and then I = 2; otherwise I = 0, which matches ceil(.../2)
    because phi(B) is even exactly when B > 2.
    """
    base = euler_phi(B) * psi(C)
    if B > 2 and not B & (B - 1):  # a 2-power above 2
        assert base % 2 == 0
        return base // 2 + (1 if multiplier % 4 == 2 else 0)
    return _ceil_half(base)


def _ann1(q: QuotientType, N: int, p: int) -> list[Realization]:
    """Once-punctured annulus quotients.

    With k boundary components and t = gcd(m, N/k): non-orientable covers
    exist iff N is even and N = lcm(m, N/k), and carry phi(t) classes.
    (The evenness is forced: the non-kernel reflection must map to N/2.)

    Orientable covers come in two disjoint kinds.  Kind 1 (one reflection
    outside the kernel) needs N = 2*lcm(m, N/k) and N/2 odd, and
    contributes phi(t) orientation-reversing classes.  Kind 2 (both
    reflections in the kernel) needs m | N and a splitting k = n1 + n2
    with n1, n2 | m, {N/m, n1, n2} pairwise coprime, and one of them even
    when N is even; each unordered splitting contributes its own
    orientation-preserving classes, counted by ``_pair_count`` like the
    twice-punctured disc, with A = m/(n1*n2).

    The k-sets are those of ``_cover_boundary_bases``.  The splittings
    are the coprime pairs n1 <= n2 of divisors of m*, found as
    n2 | biggest_coprime_divisor(m*, n1).  The parity rule is hoisted
    out of the splitting loop: ``all_odd`` (N even and N/m odd) is worked
    out once per point, and each splitting then tests only n1 and n2.  At
    each k the realizations come in the order mirror (kind 1), the
    splittings by n1, then the non-orientable one.
    """
    m = q.m
    m_star, half_base = _cover_boundary_bases(m, N)
    single = divisors(m_star)
    by_k: dict[int, list[Realization]] = {}
    if (N // 2) % 2 == 1 and half_base is not None:
        for k in (2 * j for j in divisors(half_base)):
            surf = SurfaceTopology.of_genus(True, p, k)
            count = euler_phi(math.gcd(m, N // k))
            by_k[k] = [Realization(surf, count, reversing=True, label="mirror")]
    all_odd = N % 2 == 0 and (N // m) % 2 == 1
    for n1 in single:
        for n2 in divisors(biggest_coprime_divisor(m_star, n1)):
            if n2 < n1:
                continue
            if all_odd and n1 % 2 and n2 % 2:
                continue
            k = n1 + n2
            count = _pair_count(m // (n1 * n2), N, k == 2, N // m)
            surf = SurfaceTopology.of_genus(True, p, k)
            split = Realization(surf, count, reversing=False, label=f"split{{{n1},{n2}}}")
            by_k.setdefault(k, []).append(split)
    if N % 2 == 0:
        for k in single:
            count = euler_phi(math.gcd(m, N // k))
            by_k.setdefault(k, []).append(Realization(SurfaceTopology.of_genus(False, p, k), count))
    return [real for k in sorted(by_k) for real in by_k[k]]


def _triangle(q: QuotientType, N: int, p: int) -> list[Realization]:
    """Thrice-punctured disc quotients (cone orders 2,2,m or 2,3,m).

    Orders 2,2,m: N = lcm(2, m), orientable, N/m boundary components,
    one class.  Orders 2,3,m: N = lcm(2, 3, m) with m in {3, 4, 5}; for
    m = 3 there are two classes, with 1 and 3 boundary components; for
    m = 4, 5 one class with 1.  All orientable and orientation-preserving.
    """
    bs = (N // q.m,) if q.kind == "d3-22m" else {3: (1, 3), 4: (1,), 5: (1,)}[q.m]
    return [Realization(SurfaceTopology.of_genus(True, p, b), 1, reversing=False) for b in bs]


def _corner_pair(q: QuotientType, N: int, p: int) -> list[Realization]:
    """Twice-punctured disc with two corner points (cone orders 2,m or 3,m).

    Orders 2,m: N = lcm(2, m), non-orientable with N/2 boundary
    components, one class.  Orders 3,m with m in {3, 4, 5}: N = lcm(2, 3, m)
    and N/2 boundary components; m = 3 gives two classes on an orientable
    surface, m = 4 one class on a non-orientable one, m = 5 one class on
    an orientable one.
    """
    if q.kind == "d2c-2m":
        covered_orientable, count = False, 1
    else:
        covered_orientable, count = {3: (True, 2), 4: (False, 1), 5: (True, 1)}[q.m]
    surf = SurfaceTopology.of_genus(covered_orientable, p, N // 2)
    return [Realization(surf, count, reversing=True if covered_orientable else None)]


# --- dispatch and sweeps ---------------------------------------------------

#: kind -> formula(q, N, p), each keeping the contract of the module docstring
#: behind the ``Family.point_genus`` gate, called with the genus p.
_FORMULAS = {
    "d6": _corner_only,
    "ann2": _corner_only,
    "mb2": _corner_only,
    "d12": _disc_corners,
    "d14": _disc_corners,
    "mb1": _mb1,
    "d21": _d21,
    "ann1": _ann1,
    "d3-23m": _triangle,
    "d3-22m": _triangle,
    "d2c-3m": _corner_pair,
    "d2c-2m": _corner_pair,
}


def classify(
    q: QuotientType, N: int | None = None, k: int | None = None, orientable: bool | None = None
) -> ClassificationResult:
    """Classify actions of order N with quotient q (and boundary count k where needed).

    N defaults to the order the cone orders force; a family with a free
    order requires it.  The family's ``classify_args`` say which of k and
    the orientability of the covered surface it takes: each is required
    there and rejected elsewhere.  Bad input raises ``ValueError`` before
    any formula runs.  The answer is the list of ``results_for``, empty
    where its gate finds no genus, kept where the boundary count is k and
    the orientability is the flag's, as far as they are given.
    """
    if N is None:
        N = q.forced_order()
        if N is None:
            raise ValueError(f"{q.kind} requires N")
    if N < 2:
        raise ValueError("the acting group must have order >= 2")
    check_arguments(q.kind, FAMILIES[q.kind].classify_args, k=k, orientable=orientable)
    if k is not None and k < 1:
        raise ValueError("need k >= 1")
    reals = tuple(
        r for r in results_for(q, N)
        if k in (None, r.surface.boundary_count) and orientable in (None, r.surface.orientable)
    )
    return ClassificationResult(q, N, reals)


def classify_ann1(N: int, m: int, k: int, want_orientable: bool) -> ClassificationResult:
    """``classify`` at ann1(m), kept by name because bench/spans.py wraps it."""
    return classify(QuotientType("ann1", m=m), N, k, want_orientable)


class ActionRecord(NamedTuple):
    """One classified family of conjugacy classes at a fixed order N.

    An immutable tuple of its fields: it hashes and compares by value, and
    also equals a plain tuple of the same fields.
    """

    quotient: QuotientType
    N: int
    realization: Realization

    @property
    def surface(self) -> SurfaceTopology:
        return self.realization.surface


def parameter_space(kind: str, N: int) -> list[QuotientType]:
    """The quotients of a family that could admit order-N actions: ``Family.cone_orders``."""
    return [QuotientType(kind, m, n) for m, n in FAMILIES[kind].cone_orders(N)]


def results_for(q: QuotientType, N: int) -> list[Realization]:
    """Every realization of quotient q at order N (all k, all flags).

    ``Family.point_genus`` gives the genus p = 1 + N*area(q), or None where
    q carries no order-N action (its family forces another order, or
    N*area(q) is not an integer).  This is the existence gate of
    ``classify`` and ``classification_buckets``, and p the genus of every
    surface the formula builds.  Behind it is one formula call, in the
    formula's order: k ascending, then the orientable realizations, then
    the non-orientable one.  The catalog sweep ``actions_for_order`` does
    not come through here: ``Family.points`` has already made the same
    test, and each point of ``points_at`` carries the p found there.
    """
    p = FAMILIES[q.kind].point_genus(q.m, q.n, N)
    return [] if p is None else _FORMULAS[q.kind](q, N, p)


def points_at(N: int, genus: int | None = None) -> list[tuple[str, int | None, int | None, int]]:
    """The catalog points at order N as (kind, m, n, p), in sweep order.

    Each family's ``Family.points(N, genus)``, in catalog order: the points
    that carry order-N actions, each with its genus p; with ``genus`` only
    those at that p, solved from it rather than searched.  This is the one
    walk over the catalog.  It works on the integer cone orders alone and
    builds no ``QuotientType``.
    """
    return [(kind, m, n, p) for kind, fam in FAMILIES.items() for m, n, p in fam.points(N, genus)]


def records_at(N: int, points) -> list[ActionRecord]:
    """The records of the catalog points (kind, m, n, p) at order N, in the points' order.

    Each point's p goes to its formula unchecked, so it must be the point's
    ``Family.point_genus``: ``points_at`` yields it so, and the extremal
    closed solvers work it out for the points their tables name.
    """
    out = []
    for kind, m, n, p in points:
        q = QuotientType(kind, m, n)
        out += [ActionRecord(q, N, real) for real in _FORMULAS[kind](q, N, p)]
    return out


def actions_for_order(N: int, genus: int | None = None) -> list[ActionRecord]:
    """All conjugacy-class families of order-N actions across the catalog.

    With ``genus`` p, only those on surfaces of algebraic genus p, in the
    same order: the ``records_at`` of ``points_at(N, genus)``.  A
    ``QuotientType`` is built only at a point with a genus, so the points
    off a forced order cost no validation, and no point's genus is worked
    out twice.  Every surface a formula builds has its point's genus, so
    nothing needs filtering afterwards.
    """
    if N < 2:
        raise ValueError("the acting group must have order >= 2")
    return records_at(N, points_at(N, genus))


def bucket_counts(entries) -> dict[tuple, int]:
    """Class counts keyed by (orientable?, generator reverses?, boundary count).

    ``entries`` are (surface, reversing, count) triples.  This is the
    granularity at which the brute-force enumeration verifies the closed
    forms: equivalence preserves all three invariants.  Both sides of that
    comparison count through here: ``classification_buckets`` and the
    oracle's ``OrbitReport.buckets``.
    """
    buckets: dict[tuple, int] = {}
    for surface, reversing, count in entries:
        key = (surface.orientable, reversing, surface.boundary_count)
        buckets[key] = buckets.get(key, 0) + count
    return buckets


def classification_buckets(q: QuotientType, N: int) -> dict[tuple, int]:
    """The ``bucket_counts`` of the realizations of ``results_for(q, N)``."""
    return bucket_counts((r.surface, r.reversing, r.count) for r in results_for(q, N))
