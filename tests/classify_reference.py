"""The per-k formulas of mb1, ann1 and d21, kept as references for the tests.

Before the all-k formulas of ``necsurf.classify``, each of these families
had a formula ``f(q, N, p, k, orientable)`` for one boundary count k and
one orientability, and the sweep called it at every k of a k-set and at
both flags.  Those bodies and k-sets live on here unchanged, so that the
one-pass formulas can be checked against them: ``reference_results``
sweeps them in the old order (k ascending, then the orientable flag
before the non-orientable one), and ``reference_classify`` answers one
(k, flag) as ``classify`` did.
"""

import math

from necsurf.classify import ClassificationResult, Realization, _half_count
from necsurf.signatures import FAMILIES, SurfaceTopology
from necsurf.zmod import biggest_coprime_divisor, divisors, euler_phi, harvey_check, maclachlan, psi


def _ceil_half(x):
    return (x + 1) // 2


def mb1_at_k(q, N, p, k, want_orientable):
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


def d21_at_k(q, N, p, k, orientable):
    m, n = q.m, q.n
    if N % k != 0 or not harvey_check(m, n, N // k, N):
        return []
    quad = maclachlan(m, n, N // k)
    C = biggest_coprime_divisor(quad.a, quad.a1 * quad.a2 * quad.a3)
    assert C % 2 == 1, "C must be odd whenever the existence conditions hold"
    B = quad.a // C
    count = euler_phi(B) * psi(C) if m != n else _half_count(B, C, k)
    return [Realization(SurfaceTopology.of_genus(True, p, k), count, reversing=False)]


def ann1_at_k(q, N, p, k, want_orientable):
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


def cover_boundary_counts(q, N):
    """The k | N with N = lcm(m, N/k) or 2*lcm(m, N/k), ascending: mb1's k-set."""
    return [k for k in divisors(N) if N // math.lcm(q.m, N // k) <= 2]


def ann1_boundary_counts(q, N):
    """``cover_boundary_counts`` and the sums n1 + n2 of coprime divisors n1 <= n2 of m."""
    ks = set(cover_boundary_counts(q, N))
    dm = divisors(q.m)
    ks.update(a + b for i, a in enumerate(dm) for b in dm[i:] if math.gcd(a, b) == 1)
    return sorted(ks)


#: kind -> (per-k formula, its k-set), as the catalog sweep used them
PER_K = {
    "mb1": (mb1_at_k, cover_boundary_counts),
    "ann1": (ann1_at_k, ann1_boundary_counts),
    "d21": (d21_at_k, lambda q, N: list(divisors(math.gcd(q.m, q.n)))),
}


def flags(kind):
    return (True, False) if "orientable" in FAMILIES[kind].classify_args else (None,)


def _genus(q, N):
    return FAMILIES[q.kind].point_genus(q.m, q.n, N)


def reference_results(q, N):
    """Every realization of q at order N: the per-k formula swept over its k-set."""
    p = _genus(q, N)
    if p is None:
        return []
    formula, k_set = PER_K[q.kind]
    return [
        real
        for k in k_set(q, N)
        for flag in flags(q.kind)
        for real in formula(q, N, p, k, flag)
    ]


def reference_classify(q, N, k, flag):
    """``classify(q, N, k, flag)`` as the per-k formula answered it."""
    p = _genus(q, N)
    reals = () if p is None else tuple(PER_K[q.kind][0](q, N, p, k, flag))
    return ClassificationResult(q, N, reals)
