"""Closed-form classification of cyclic actions for the ten quotient families.

Each function decides existence for a parameter tuple, returns the exact
number of topological conjugacy classes, and lists the realized surfaces.
Counts are expressed through the totient, its companion psi, and greatest
common divisors; every division below is exact and asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .signatures import FAMILIES, QuotientType, SurfaceTopology, kernel_algebraic_genus
from .zmod import biggest_coprime_divisor, divisors, euler_phi, factorize, harvey_check, psi


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


def _absent(q: QuotientType, N: int) -> ClassificationResult:
    return ClassificationResult(q, N, False, 0)


def _result(q, N, reals) -> ClassificationResult:
    reals = tuple(r for r in reals if r.count > 0)
    return ClassificationResult(q, N, bool(reals), sum(r.count for r in reals), reals)


def _surface(orientable: bool, algebraic_genus: int, k: int) -> SurfaceTopology:
    eps = 2 if orientable else 1
    g2 = algebraic_genus + 1 - k
    assert g2 % eps == 0 and g2 >= 0, (orientable, algebraic_genus, k)
    return SurfaceTopology(orientable, g2 // eps, k)


def _ceil_half(x: int) -> int:
    return (x + 1) // 2


def classify_corner_only(kind: str, N: int) -> ClassificationResult:
    """The parameter-free families: d6, ann2, mb2.

    d6 exists only for N = 2 (one class, 3-holed sphere).  ann2 and mb2
    exist for even N; each realized surface carries a single class, and the
    orientable surfaces (tori/spheres, only for odd N/2) carry
    orientation-reversing actions.
    """
    if kind not in ("d6", "ann2", "mb2"):
        raise ValueError(f"not a parameter-free family: {kind!r}")
    q = QuotientType(kind)
    if N < 2:
        raise ValueError("the acting group must have order >= 2")
    if kind == "d6":
        if N != 2:
            return _absent(q, N)
        return _result(q, N, [Realization(_surface(True, 2, 3), 1, reversing=True)])
    if N % 2 != 0:
        return _absent(q, N)
    p = N // 2 + 1
    half_odd = (N // 2) % 2 == 1
    reals = []
    if kind == "ann2":
        reals.append(Realization(_surface(False, p, N // 2), 1))  # Klein bottle
        reals.append(Realization(_surface(False, p, N // 2 + 1), 1))  # projective plane
        if half_odd:
            reals.append(Realization(_surface(True, p, N // 2), 1, reversing=True))
            reals.append(Realization(_surface(True, p, N // 2 + 2), 1, reversing=True))
    else:  # mb2
        reals.append(Realization(_surface(False, p, N // 2), 1))
        if half_odd:
            reals.append(Realization(_surface(True, p, N // 2), 1, reversing=True))
    return _result(q, N, reals)


def classify_disc_corners(kind: str, m: int) -> ClassificationResult:
    """Disc quotients with one cone point and 2 or 4 corners (d12, d14).

    The order is forced: N = m for even m (non-orientable cover), N = 2m
    for odd m (orientable, orientation-reversing cover).  One class each.
    """
    if kind not in ("d12", "d14"):
        raise ValueError(f"not a one-cone disc family: {kind!r}")
    q = QuotientType(kind, m=m)
    N = m if m % 2 == 0 else 2 * m
    p = kernel_algebraic_genus(q.signature(), N)
    k = N // 2 if kind == "d12" else N
    if m % 2 == 0:
        real = Realization(_surface(False, p, k), 1)
    else:
        real = Realization(_surface(True, p, k), 1, reversing=True)
    return _result(q, N, [real])


def classify_mb1(N: int, m: int, k: int, want_orientable: bool) -> ClassificationResult:
    """Once-punctured Moebius band quotients.

    Orientable covers need N = 2*lcm(m, N/k) with t = gcd(m, N/k) odd or
    N/2t even, and carry ceil(phi(t)/2) classes.  Non-orientable covers
    need N = lcm(m, N/k) with N/t odd, and carry phi(t) classes for even N,
    ceil(phi(t)/2) for odd N.  Either way the algebraic genus is
    1 + (m-1)N/m.
    """
    q = QuotientType("mb1", m=m)
    if N < 2 or m < 2 or k < 1:
        raise ValueError("need N >= 2, m >= 2, k >= 1")
    if N % k != 0:
        return _absent(q, N)
    t = math.gcd(m, N // k)
    if want_orientable:
        if N != 2 * math.lcm(m, N // k):
            return _absent(q, N)
        if t % 2 == 0 and (N // (2 * t)) % 2 != 0:
            return _absent(q, N)
        count = _ceil_half(euler_phi(t))
    else:
        if N != math.lcm(m, N // k) or (N // t) % 2 == 0:
            return _absent(q, N)
        count = euler_phi(t) if N % 2 == 0 else _ceil_half(euler_phi(t))
    p = 1 + (m - 1) * N // m
    surf = _surface(want_orientable, p, k)
    return _result(q, N, [Realization(surf, count, reversing=True if want_orientable else None)])


def classify_d21(m: int, n: int, k: int) -> ClassificationResult:
    """Twice-punctured disc quotients; N = lcm(m, n) is forced.

    The boundary generator e has order N/k, so existence is Harvey's test
    that Z_N is generated by elements of orders m, n, N/k summing to zero.
    For t = gcd(m, n) it amounts to k | t, gcd(k, N/t) = 1, and k even
    when N is even with N/t odd (so that exactly one of N/m, N/n, N/k is
    even).  The cover is always orientable, orientation-preserving, of
    algebraic genus 1 + N(1 - 1/m - 1/n).  With C the biggest divisor of
    t/k coprime to Nk/t and B = t/(k*C), the class count is
    phi(B)*psi(C) for m != n; for m = n the maps pair off under
    inversion and the count follows _half_count with multiplier k.
    """
    q = QuotientType("d21", m=m, n=n)  # rejects m, n < 2 and 1/m + 1/n >= 1
    if k < 1:
        raise ValueError("need k >= 1")
    N = math.lcm(m, n)
    t = math.gcd(m, n)
    if N % k != 0 or not harvey_check(m, n, N // k, N):
        return _absent(q, N)
    C = biggest_coprime_divisor(t // k, N * k // t)
    assert C % 2 == 1, "C must be odd whenever the existence conditions hold"
    B = t // (k * C)
    count = euler_phi(B) * psi(C) if m != n else _half_count(B, C, k)
    p = 1 + N - N // m - N // n
    return _result(q, N, [Realization(_surface(True, p, k), count, reversing=False)])


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


def classify_ann1(N: int, m: int, k: int, want_orientable: bool) -> ClassificationResult:
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
    Algebraic genus 1 + N(m-1)/m in every case.
    """
    if N < 2 or m < 2 or k < 1:
        raise ValueError("need N >= 2, m >= 2, k >= 1")
    q = QuotientType("ann1", m=m)
    if N % m != 0:
        return _absent(q, N)  # no element of exact order m
    p = 1 + N * (m - 1) // m

    if not want_orientable:
        if N % 2 != 0 or N % k != 0 or N != math.lcm(m, N // k):
            return _absent(q, N)
        count = euler_phi(math.gcd(m, N // k))
        return _result(q, N, [Realization(_surface(False, p, k), count)])

    reals = []
    if N % k == 0 and N == 2 * math.lcm(m, N // k) and (N // 2) % 2 == 1:
        t = math.gcd(m, N // k)
        reals.append(
            Realization(_surface(True, p, k), euler_phi(t), reversing=True, label="mirror")
        )
    for n1 in range(1, k // 2 + 1):
        n2 = k - n1
        if m % n1 != 0 or m % n2 != 0:
            continue
        if math.gcd(n1, n2) != 1 or math.gcd(N // m, n1) != 1 or math.gcd(N // m, n2) != 1:
            continue
        if N % 2 == 0 and all(v % 2 != 0 for v in (N // m, n1, n2)):
            continue
        C = biggest_coprime_divisor(m // (n1 * n2), N * n1 * n2 // m)
        assert C % 2 == 1
        B = m // (C * n1 * n2)
        count = euler_phi(B) * psi(C) if k != 2 else _half_count(B, C, N // m)
        reals.append(
            Realization(
                _surface(True, p, k), count, reversing=False, label=f"split{{{n1},{n2}}}"
            )
        )
    return _result(q, N, reals)


def classify_triangle(kind: str, m: int) -> ClassificationResult:
    """Thrice-punctured disc quotients (cone orders 2,2,m or 2,3,m).

    Orders 2,2,m: N = lcm(2, m), orientable, N/m boundary components,
    genus 1 + (m-2)N/2m, one class.  Orders 2,3,m: N = lcm(2, 3, m) with
    m in {3, 4, 5}; for m = 3 there are two classes, on (g, k) = (3, 1)
    and (2, 3); for m = 4, 5 one class on (6, 1) and (15, 1).
    All orientation-preserving.
    """
    if kind not in ("d3-22m", "d3-23m"):
        raise ValueError(f"not a three-cone disc family: {kind!r}")
    q = QuotientType(kind, m=m)
    if kind == "d3-22m":
        N = math.lcm(2, m)
        k = N // m
        g = 1 + (m - 2) * N // (2 * m)
        assert (m - 2) * N % (2 * m) == 0
        return _result(q, N, [Realization(SurfaceTopology(True, g, k), 1, reversing=False)])
    N = math.lcm(6, m)
    gk = {3: ((3, 1), (2, 3)), 4: ((6, 1),), 5: ((15, 1),)}[m]
    reals = [Realization(SurfaceTopology(True, g, k), 1, reversing=False) for g, k in gk]
    return _result(q, N, reals)


def classify_corner_pair(kind: str, m: int) -> ClassificationResult:
    """Twice-punctured disc with two corner points (cone orders 2,m or 3,m).

    Orders 2,m: N = lcm(2, m), non-orientable with N/2 boundary components
    and genus 2 + (m-2)N/2m, one class.  Orders 3,m with m in {3, 4, 5}:
    N = lcm(2, 3, m) and N/2 boundary components; m = 3 gives two classes
    on the orientable genus-2 surface, m = 4 one class non-orientable of
    genus 7, m = 5 one class orientable of genus 8.
    """
    if kind not in ("d2c-2m", "d2c-3m"):
        raise ValueError(f"not a two-cone corner family: {kind!r}")
    q = QuotientType(kind, m=m)
    if kind == "d2c-2m":
        N = math.lcm(2, m)
        g = 2 + (m - 2) * N // (2 * m)
        assert (m - 2) * N % (2 * m) == 0
        return _result(q, N, [Realization(SurfaceTopology(False, g, N // 2), 1)])
    N = math.lcm(6, m)
    k = N // 2
    if m == 3:
        reals = [Realization(SurfaceTopology(True, 2, k), 2, reversing=True)]
    elif m == 4:
        reals = [Realization(SurfaceTopology(False, 7, k), 1)]
    else:
        reals = [Realization(SurfaceTopology(True, 8, k), 1, reversing=True)]
    return _result(q, N, reals)


# --- dispatch and sweeps ---------------------------------------------------

_CORNER_ONLY = (lambda q, N, k, o: classify_corner_only(q.kind, N), None)
_DISC_CORNERS = (lambda q, N, k, o: classify_disc_corners(q.kind, q.m), None)
_TRIANGLE = (lambda q, N, k, o: classify_triangle(q.kind, q.m), None)
_CORNER_PAIR = (lambda q, N, k, o: classify_corner_pair(q.kind, q.m), None)

#: kind -> (formula(q, N, k, orientable), the boundary counts k that can
#: occur at order N, or None for a formula without k).  The formulas are
#: looked up by module-level name at each call.
_FORMULAS = {
    "d6": _CORNER_ONLY,
    "ann2": _CORNER_ONLY,
    "mb2": _CORNER_ONLY,
    "d12": _DISC_CORNERS,
    "d14": _DISC_CORNERS,
    "mb1": (lambda q, N, k, o: classify_mb1(N, q.m, k, o), lambda q, N: divisors(N)),
    "d21": (
        lambda q, N, k, o: classify_d21(q.m, q.n, k),
        lambda q, N: divisors(math.gcd(q.m, q.n)),
    ),
    "ann1": (lambda q, N, k, o: classify_ann1(N, q.m, k, o), lambda q, N: range(1, 2 * q.m + 1)),
    "d3-23m": _TRIANGLE,
    "d3-22m": _TRIANGLE,
    "d2c-3m": _CORNER_PAIR,
    "d2c-2m": _CORNER_PAIR,
}


def classify(q: QuotientType, N: int, k: int | None = None, orientable: bool | None = None) -> ClassificationResult:
    """Classify actions of order N with quotient q (and boundary count k where needed).

    For families whose order is forced by the cone orders, a mismatched N
    yields a non-existence result.  The family's ``classify_args`` say
    which of k and the orientability of the covered surface it needs.
    """
    if N < 2:
        raise ValueError("the acting group must have order >= 2")
    needs = FAMILIES[q.kind].classify_args
    if ("k" in needs and k is None) or ("orientable" in needs and orientable is None):
        raise ValueError(f"{q.kind} needs {' and '.join(needs)}")
    res = _FORMULAS[q.kind][0](q, N, k, orientable)
    return res if res.order == N else _absent(q, N)


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
    """Parameter tuples of a family that could admit order-N actions.

    Cone orders must divide N (their images have exact order), which
    bounds everything; for d21 only pairs with lcm(m, n) = N can carry a
    surjection.
    """
    return FAMILIES[kind].instances([d for d in divisors(N) if d >= 2], order=N)


def results_for(q: QuotientType, N: int) -> list[ClassificationResult]:
    """Every classification result for quotient q at order N (all k, all flags)."""
    formula, k_range = _FORMULAS[q.kind]
    flags = (True, False) if "orientable" in FAMILIES[q.kind].classify_args else (None,)
    return [
        res
        for k in (k_range(q, N) if k_range else (None,))
        for flag in flags
        if (res := formula(q, N, k, flag)).order == N
    ]


def actions_for_order(N: int) -> list[ActionRecord]:
    """All conjugacy-class families of order-N actions across the catalog."""
    if N < 2:
        raise ValueError("the acting group must have order >= 2")
    out = []
    for kind in FAMILIES:
        for q in parameter_space(kind, N):
            for res in results_for(q, N):
                for real in res.realizations:
                    out.append(ActionRecord(q, N, real))
    return out


def classification_buckets(q: QuotientType, N: int) -> dict[tuple, int]:
    """Class counts keyed by (orientable?, generator reverses?, boundary count).

    This is the granularity at which the brute-force enumeration verifies
    the closed forms: equivalence preserves all three invariants.
    """
    buckets: dict[tuple, int] = {}
    for res in results_for(q, N):
        for real in res.realizations:
            key = (
                real.surface.orientable,
                real.reversing,
                real.surface.boundary_count,
            )
            buckets[key] = buckets.get(key, 0) + real.count
    return buckets
