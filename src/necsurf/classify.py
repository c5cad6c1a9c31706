"""Closed-form classification of cyclic actions for the ten quotient families.

One private formula per family, ``f(q, N, p, k, orientable) -> list[Realization]``,
states the paper's conditions, and its docstring states the paper's
result for the family: existence (an empty list means no action), the
class counts, through the totient, its companion psi and gcds, and the
boundary counts of the realized surfaces.  Every division is exact and
asserted.  No formula computes a genus: by Hurwitz-Riemann every order-N
action with quotient q lives on a surface of algebraic genus
p = 1 + N*area(q), so ``_point_genus(q, N)`` works out p once, for every
k and orientability, and each surface is ``SurfaceTopology.of_genus``.
That is also the one existence gate: a formula runs only where p is an
integer and N is the family's forced order, if it has one.
``classify`` checks its input: N >= 2, defaulting to the forced order;
k (>= 1) and the orientability flag exactly where the family's
``classify_args`` name them, so an argument a family does not take
raises ``ValueError`` like a missing one.  It is the one way in: the CLI
forwards its input to it, and ``classify_ann1`` is a named forwarder kept
for the benchmark tracer.  The sweep (``results_for``) calls the formulas
behind the same gate.  Asked for one genus p, ``actions_for_order``
solves the Hurwitz-Riemann equation for the cone orders at genus p
(``Family.cone_orders_at_genus``) and classifies only those points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .signatures import (
    FAMILIES, QuotientType, SurfaceTopology, check_arguments, kernel_algebraic_genus,
)
from .zmod import (
    biggest_coprime_divisor, divisors, euler_phi, factorize, harvey_check, maclachlan, psi,
)


@dataclass(frozen=True)
class Realization:
    """One realized surface with its class count.

    ``reversing`` records, for orientable surfaces, whether the generators
    of the cyclic action reverse orientation (None when non-orientable).
    ``label`` distinguishes sub-families contributing disjoint classes,
    e.g. the two kinds of orientable annulus-quotient actions.
    """

    surface: SurfaceTopology
    count: int
    reversing: bool | None = None
    label: str = ""


@dataclass(frozen=True)
class ClassificationResult:
    quotient: QuotientType
    order: int  # the order N of the acting cyclic group
    exists: bool
    class_count: int
    realizations: tuple[Realization, ...] = ()

    def __post_init__(self):
        assert self.exists == (self.class_count >= 1)
        assert self.class_count == sum(r.count for r in self.realizations)


def _result(q, N, reals) -> ClassificationResult:
    reals = tuple(r for r in reals if r.count > 0)
    return ClassificationResult(q, N, bool(reals), sum(r.count for r in reals), reals)


def _ceil_half(x: int) -> int:
    return (x + 1) // 2


def _corner_only(q: QuotientType, N: int, p: int, k, orientable) -> list[Realization]:
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


def _disc_corners(q: QuotientType, N: int, p: int, k, orientable) -> list[Realization]:
    """Disc quotients with one cone point and 2 or 4 corners (d12, d14).

    The order is forced: N = m for even m (non-orientable cover), N = 2m
    for odd m (orientable, orientation-reversing cover).  One class each.
    """
    # the exact Fraction rule; it keeps kernel_algebraic_genus reached, as bench/selftest.py needs
    assert p == kernel_algebraic_genus(q.signature(), N)
    b = N // 2 if q.kind == "d12" else N
    if q.m % 2 == 0:
        return [Realization(SurfaceTopology.of_genus(False, p, b), 1)]
    return [Realization(SurfaceTopology.of_genus(True, p, b), 1, reversing=True)]


def _mb1(q: QuotientType, N: int, p: int, k: int, want_orientable: bool) -> list[Realization]:
    """Once-punctured Moebius band quotients.

    Orientable covers need N = 2*lcm(m, N/k) with t = gcd(m, N/k) odd or
    N/2t even, and carry ceil(phi(t)/2) classes.  Non-orientable covers
    need N = lcm(m, N/k) with N/t odd, and carry phi(t) classes for even N,
    ceil(phi(t)/2) for odd N.
    """
    m = q.m
    if N % k != 0:
        return []
    t = math.gcd(m, N // k)
    if want_orientable:
        if N != 2 * math.lcm(m, N // k):
            return []
        if t % 2 == 0 and (N // (2 * t)) % 2 != 0:
            return []
        count = _ceil_half(euler_phi(t))
    else:
        if N != math.lcm(m, N // k) or (N // t) % 2 == 0:
            return []
        count = euler_phi(t) if N % 2 == 0 else _ceil_half(euler_phi(t))
    surf = SurfaceTopology.of_genus(want_orientable, p, k)
    return [Realization(surf, count, reversing=True if want_orientable else None)]


def _d21(q: QuotientType, N: int, p: int, k: int, orientable) -> list[Realization]:
    """Twice-punctured disc quotients; N = lcm(m, n) is forced.

    The boundary generator e has order N/k, so existence is Harvey's test
    that Z_N is generated by elements of orders m, n, N/k summing to zero.
    For t = gcd(m, n) it amounts to k | t, gcd(k, N/t) = 1, and k even
    when N is even with N/t odd (so that exactly one of N/m, N/n, N/k is
    even).  The cover is always orientable and orientation-preserving.
    The Maclachlan decomposition (A, A1, A2, A3) of (m, n, N/k) has
    A = t/k and A1*A2*A3 = Nk/t.  With C the biggest divisor of A coprime
    to A1*A2*A3 and B = A/C, the class count is phi(B)*psi(C) for m != n;
    for m = n the maps pair off under inversion and the count follows
    _half_count with multiplier k.
    """
    m, n = q.m, q.n
    if N % k != 0 or not harvey_check(m, n, N // k, N):
        return []
    quad = maclachlan(m, n, N // k)
    C = biggest_coprime_divisor(quad.a, quad.a1 * quad.a2 * quad.a3)
    assert C % 2 == 1, "C must be odd whenever the existence conditions hold"
    B = quad.a // C
    count = euler_phi(B) * psi(C) if m != n else _half_count(B, C, k)
    return [Realization(SurfaceTopology.of_genus(True, p, k), count, reversing=False)]


def _is_two_power_above_two(b: int) -> bool:
    return b > 2 and factorize(b) == ((2, b.bit_length() - 1),)


def _half_count(B: int, C: int, multiplier: int) -> int:
    """Classes among phi(B)*psi(C) maps identified in pairs a ~ a^-1.

    The count is (phi(B)*psi(C) + I)/2 with I the number of self-paired
    maps.  I = 1 for B <= 2.  For B a 2-power above 2, a self-paired map
    needs multiplier * s = 2 (mod 4) for a unit s, i.e. multiplier = 2
    (mod 4), and then I = 2; otherwise I = 0, which matches ceil(.../2)
    because phi(B) is even exactly when B > 2.
    """
    base = euler_phi(B) * psi(C)
    if _is_two_power_above_two(B):
        assert base % 2 == 0
        return base // 2 + (1 if multiplier % 4 == 2 else 0)
    return _ceil_half(base)


def _ann1(q: QuotientType, N: int, p: int, k: int, want_orientable: bool) -> list[Realization]:
    """Once-punctured annulus quotients.

    Non-orientable covers exist iff N is even, k | N and N = lcm(m, N/k);
    there are phi(t) classes, t = gcd(m, N/k).  (The evenness is forced:
    the non-kernel reflection must map to N/2.)

    Orientable covers come in two disjoint kinds.  Kind 1 (one reflection
    outside the kernel) needs k | N, N = 2*lcm(m, N/k) and N/2 odd, and
    contributes phi(t) orientation-reversing classes.  Kind 2 (both
    reflections in the kernel) needs m | N and a splitting k = n1 + n2
    with n1, n2 | m, {N/m, n1, n2} pairwise coprime, and one of them even
    when N is even; each unordered splitting contributes its own
    orientation-preserving classes, counted like the twice-punctured disc
    with C the biggest divisor of m/(n1*n2) coprime to N*n1*n2/m.

    The splittings are found by walking n1 over the divisors of m up to
    k/2, so one call costs O(d(m)).  Only the k of ``_ann1_boundary_counts``
    can carry classes: those of ``_cover_boundary_counts`` and the
    O(d(m)^2) sums of coprime divisor pairs of m.
    """
    m = q.m
    if not want_orientable:
        if N % 2 != 0 or N % k != 0 or N != math.lcm(m, N // k):
            return []
        count = euler_phi(math.gcd(m, N // k))
        return [Realization(SurfaceTopology.of_genus(False, p, k), count)]

    reals = []
    if N % k == 0 and N == 2 * math.lcm(m, N // k) and (N // 2) % 2 == 1:
        t = math.gcd(m, N // k)
        surf = SurfaceTopology.of_genus(True, p, k)
        reals.append(Realization(surf, euler_phi(t), reversing=True, label="mirror"))
    for n1 in divisors(m):
        n2 = k - n1
        if n1 > n2:
            break
        if m % n2 != 0:
            continue
        if math.gcd(n1, n2) != 1 or math.gcd(N // m, n1) != 1 or math.gcd(N // m, n2) != 1:
            continue
        if N % 2 == 0 and all(v % 2 != 0 for v in (N // m, n1, n2)):
            continue
        C = biggest_coprime_divisor(m // (n1 * n2), N * n1 * n2 // m)
        assert C % 2 == 1
        B = m // (C * n1 * n2)
        count = euler_phi(B) * psi(C) if k != 2 else _half_count(B, C, N // m)
        surf = SurfaceTopology.of_genus(True, p, k)
        reals.append(Realization(surf, count, reversing=False, label=f"split{{{n1},{n2}}}"))
    return reals


def _cover_boundary_counts(q: QuotientType, N: int) -> list[int]:
    """The k | N with N = lcm(m, N/k) or 2*lcm(m, N/k), ascending.

    Every mb1 cover and every ann1 cover but the kind-2 ones need one of
    the two; either implies k <= 2m.
    """
    return [k for k in divisors(N) if N // math.lcm(q.m, N // k) <= 2]


def _ann1_boundary_counts(q: QuotientType, N: int) -> list[int]:
    """The boundary counts k at which ann1(m) can carry order-N classes, ascending.

    Non-orientable and kind-1 covers need a k of ``_cover_boundary_counts``;
    kind-2 covers need k = n1 + n2 with n1 <= n2 coprime divisors of m, so
    k <= m + 1.  Building the set costs O(d(N) + d(m)^2).
    """
    ks = set(_cover_boundary_counts(q, N))
    dm = divisors(q.m)
    ks.update(a + b for i, a in enumerate(dm) for b in dm[i:] if math.gcd(a, b) == 1)
    return sorted(ks)


def _triangle(q: QuotientType, N: int, p: int, k, orientable) -> list[Realization]:
    """Thrice-punctured disc quotients (cone orders 2,2,m or 2,3,m).

    Orders 2,2,m: N = lcm(2, m), orientable, N/m boundary components,
    one class.  Orders 2,3,m: N = lcm(2, 3, m) with m in {3, 4, 5}; for
    m = 3 there are two classes, with 1 and 3 boundary components; for
    m = 4, 5 one class with 1.  All orientable and orientation-preserving.
    """
    bs = (N // q.m,) if q.kind == "d3-22m" else {3: (1, 3), 4: (1,), 5: (1,)}[q.m]
    return [Realization(SurfaceTopology.of_genus(True, p, b), 1, reversing=False) for b in bs]


def _corner_pair(q: QuotientType, N: int, p: int, k, orientable) -> list[Realization]:
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

#: kind -> (formula(q, N, p, k, orientable), the boundary counts k that can
#: occur at order N, or None for a formula without k).  Each formula keeps
#: the contract of the module docstring and runs only behind the gate of
#: ``_point_genus``, which hands it the genus p.  The mb1 and ann1 k-sets
#: come from divisors: the k | N of ``_cover_boundary_counts``, plus for
#: ann1 the O(d(m)^2) split sums of m, each classified in O(d(m)) steps.
#: Trying every k <= 2m and every split n1 <= k/2 took O(m^2) steps per
#: divisor m.
_FORMULAS = {
    "d6": (_corner_only, None),
    "ann2": (_corner_only, None),
    "mb2": (_corner_only, None),
    "d12": (_disc_corners, None),
    "d14": (_disc_corners, None),
    "mb1": (_mb1, _cover_boundary_counts),
    "d21": (_d21, lambda q, N: divisors(math.gcd(q.m, q.n))),
    "ann1": (_ann1, _ann1_boundary_counts),
    "d3-23m": (_triangle, None),
    "d3-22m": (_triangle, None),
    "d2c-3m": (_corner_pair, None),
    "d2c-2m": (_corner_pair, None),
}


def classify(
    q: QuotientType, N: int | None = None, k: int | None = None, orientable: bool | None = None
) -> ClassificationResult:
    """Classify actions of order N with quotient q (and boundary count k where needed).

    N defaults to the order the cone orders force; a family with a free
    order requires it.  Where ``_point_genus`` finds no genus (another
    order than the forced one, or N*area(q) not an integer) the result is
    non-existence and no formula runs.  The family's ``classify_args`` say
    which of k and the orientability of the covered surface it takes: each
    of them is required there and rejected elsewhere.  Bad input raises
    ``ValueError`` before any formula runs.
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
    p = _point_genus(q, N)
    return _result(q, N, () if p is None else _FORMULAS[q.kind][0](q, N, p, k, orientable))


def classify_ann1(N: int, m: int, k: int, want_orientable: bool) -> ClassificationResult:
    """``classify`` at ann1(m), kept by name because bench/spans.py wraps it."""
    return classify(QuotientType("ann1", m=m), N, k, want_orientable)


@dataclass(frozen=True)
class ActionRecord:
    """One classified family of conjugacy classes at a fixed order N."""

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
    """Every realization with classes for quotient q at order N (all k, all flags)."""
    p = _point_genus(q, N)
    if p is None:
        return []
    formula, k_range = _FORMULAS[q.kind]
    flags = (True, False) if "orientable" in FAMILIES[q.kind].classify_args else (None,)
    return [
        real
        for k in (k_range(q, N) if k_range else (None,))
        for flag in flags
        for real in formula(q, N, p, k, flag)
        if real.count > 0
    ]


def _point_genus(q: QuotientType, N: int) -> int | None:
    """The algebraic genus every order-N action with quotient q has, or None.

    It is ``Family.point_genus``: p = 1 + N*area(q), whatever k and the
    orientability, or None where q carries no order-N action (its family
    forces another order, or N*area(q) is not an integer).  This is the
    existence gate of ``classify`` and ``results_for``, and the genus of
    every surface their formulas build.
    """
    return FAMILIES[q.kind].point_genus(q.m, q.n, N)


def genera_for_order(N: int) -> list[int]:
    """The distinct integer genera ``_point_genus`` gives at order N, ascending.

    It works on the integer cone orders alone and builds no ``QuotientType``.
    """
    return sorted({
        p
        for fam in FAMILIES.values()
        for m, n in fam.cone_orders(N)
        if (p := fam.point_genus(m, n, N)) is not None
    })


def actions_for_order(N: int, genus: int | None = None) -> list[ActionRecord]:
    """All conjugacy-class families of order-N actions across the catalog.

    With ``genus`` p, only those on surfaces of algebraic genus p, in the
    same order.  The parameter points at genus p are solved from p
    (``Family.cone_orders_at_genus``), not picked out of the whole
    ``parameter_space``, and each is classified only if its integer kernel
    genus (``_point_genus``, the exact ``Family.kernel_genus`` test) is p.
    Every surface a formula builds has that genus, so nothing needs
    filtering afterwards; without ``genus``, ``results_for`` still skips
    the points where N*area(q) is not an integer.
    """
    if N < 2:
        raise ValueError("the acting group must have order >= 2")
    out = []
    for kind, fam in FAMILIES.items():
        if genus is None:
            points = parameter_space(kind, N)
        else:
            points = [QuotientType(kind, m, n) for m, n in fam.cone_orders_at_genus(N, genus)]
        for q in points:
            if genus is not None and _point_genus(q, N) != genus:
                continue
            for real in results_for(q, N):
                out.append(ActionRecord(q, N, real))
    return out


def classification_buckets(q: QuotientType, N: int) -> dict[tuple, int]:
    """Class counts keyed by (orientable?, generator reverses?, boundary count).

    This is the granularity at which the brute-force enumeration verifies
    the closed forms: equivalence preserves all three invariants.
    """
    buckets: dict[tuple, int] = {}
    for real in results_for(q, N):
        key = (real.surface.orientable, real.reversing, real.surface.boundary_count)
        buckets[key] = buckets.get(key, 0) + real.count
    return buckets
