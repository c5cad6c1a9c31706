"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 4's non-orientable odd-prime itemization (1 class at
k = N, (N-1)/2 at k = 1) is derived in its docstring and checked against
an invariant on the oracle's orbit representatives.
"""

import time
from collections import Counter
from contextlib import contextmanager

import pytest

from necsurf.bsk import BskMap, is_smooth, presentation_of, surface_of
from necsurf.classify import actions_for_order, classify_ann1
from necsurf.extremal import (
    MAX_ORDER_VARIANTS,
    MIN_GENUS_VARIANTS,
    max_order_closed,
    max_order_search,
    min_genus_closed,
    min_genus_search,
)
from necsurf.oracle import cross_check, moves_for, oracle_report
from necsurf.signatures import QuotientType, area, kernel_algebraic_genus
from necsurf.zmod import biggest_coprime_divisor, euler_phi, psi, unit_generators, units


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({title}): FAIL")
        raise
    print(f"criterion {num} ({title}): PASS")


def test_criterion_1_oracle_formula_agreement(sweep_48):
    """Exact orbit-count agreement for every family, N <= 48, single-threaded."""
    with criterion(1, "oracle vs closed form, N <= 48"):
        report, elapsed = sweep_48
        for fail in report.failures:
            print(fail.describe())
            print("  oracle:  ", fail.oracle_buckets)
            print("  expected:", fail.expected_buckets)
        assert report.passed, f"{len(report.failures)} mismatching parameter points"
        assert len(report.points) > 1000
        assert elapsed < 300, f"sweep took {elapsed:.1f}s, budget is 5 minutes"


def test_criterion_2_worked_examples():
    """The two quoted annulus-quotient worked examples, against the oracle."""
    with criterion(2, "annulus-quotient worked examples"):
        res = classify_ann1(12, 12, 7, True)
        assert res.class_count == 2
        for real in res.realizations:
            s = real.surface
            assert (s.orientable, s.genus, s.boundary_count) == (True, 3, 7)
        rep = oracle_report(QuotientType("ann1", m=12), 12)
        assert sum(1 for o in rep.orbits if o.surface.boundary_count == 7) == 2

        for m in (3, 5, 9, 15):
            N = 2 * m  # so N/2 = m is odd
            C = biggest_coprime_divisor(m, N // m)
            expected = euler_phi(m) + (euler_phi(m // C) * psi(C) + 1) // 2
            assert classify_ann1(N, m, 2, True).class_count == expected, m
            rep = oracle_report(QuotientType("ann1", m=m), N)
            got = sum(1 for o in rep.orbits
                      if o.surface.orientable and o.surface.boundary_count == 2)
            assert got == expected, (m, got, expected)


def _inventory(N):
    """(kind-tally, per-surface counter) split by orientation behaviour."""
    preserving, reversing, nonorientable = Counter(), Counter(), Counter()
    for rec in actions_for_order(N):
        surf, real = rec.surface, rec.realization
        if not surf.orientable:
            nonorientable[surf.describe()] += real.count
        elif real.reversing:
            reversing[surf.describe()] += real.count
        else:
            preserving[surf.describe()] += real.count
    return preserving, reversing, nonorientable


def test_criterion_3_order_two_inventory():
    """All 14 actions of order 2 on algebraic-genus-2 surfaces, under 1 second."""
    with criterion(3, "order-2 inventory 2/4/8"):
        start = time.time()
        preserving, reversing, nonorientable = _inventory(2)
        assert sum(preserving.values()) == 2
        assert sum(reversing.values()) == 4
        assert sum(nonorientable.values()) == 8
        assert nonorientable == Counter(
            {"1-holed Klein bottle": 5, "2-holed projective plane": 3}
        )
        assert preserving == Counter({"1-holed torus": 1, "3-holed sphere": 1})
        assert reversing == Counter({"1-holed torus": 2, "3-holed sphere": 2})
        assert cross_check(n_max=2).passed
        assert time.time() - start < 1.0


def test_criterion_4_odd_prime_orientable():
    """p++(N) = N - 1 with 1 class at k = N and (N-1)/2 classes at k = 1."""
    with criterion(4, "odd-prime orientable minima"):
        for N in (3, 5, 7, 11, 13):
            ans = min_genus_closed(N, "p++")
            assert ans.value == N - 1
            by_k = Counter()
            for r in ans.realizers:
                by_k[r.surface.boundary_count] += r.realization.count
            assert by_k == Counter({N: 1, 1: (N - 1) // 2}), (N, by_k)
            search = min_genus_search(N, "p++")
            assert search.value == ans.value


def test_criterion_4_odd_prime_nonorientable():
    """p-(N) = N with 1 class at k = N and (N-1)/2 classes at k = 1.

    Only the Moebius band with one cone point, mb1 = (1;-;[N];{()}), can
    contribute.  Z_N has no involution at odd N, so every reflection maps
    to 0 and the interior of the cover covers the interior of the
    quotient: an orientable quotient (disc or annulus) gives only
    orientable covers, and mb2's corner points need even N.  mb1's covers
    have p = N.

    A smooth map for mb1 at prime N sends x to a unit u, c to 0 and d to
    any delta, so e -> -u - 2*delta: N(N-1) maps, N of them up to units,
    one with e -> 0 (k = N) and N-1 with e a unit (k = 1).  A homeomorphism
    sends the cone loop to a conjugate of x^(+-1) and the boundary loop to
    a conjugate of e^(+-1), so +-theta(e)/theta(x) is an invariant; the
    oracle's delta move (e -> -e, d -> -d - x) identifies the two signs.
    Hence exactly 1 class at k = N and (N-1)/2 at k = 1, the
    ceil(phi(t)/2) of the mb1 formula with t = gcd(N, N/k), in the same
    shape as the orientable sibling above.  The test checks the invariant
    on the oracle's orbit representatives, so the counts rest on this
    argument and not on the oracle's move set alone.
    """
    with criterion(4, "odd-prime non-orientable itemization"):
        for N in (3, 5, 7, 11, 13):
            ans = min_genus_closed(N, "p-")
            assert ans.value == N

            by_k = Counter()
            for r in ans.realizers:
                by_k[r.surface.boundary_count] += r.realization.count
            # triple agreement on the actual inventory
            search = min_genus_search(N, "p-")
            assert search.value == N
            assert sorted(map(str, search.realizers)) == sorted(map(str, ans.realizers))
            mb1 = oracle_report(QuotientType("mb1", m=N), N)
            ann1 = oracle_report(QuotientType("ann1", m=N), N)
            assert all(o.surface.orientable for o in ann1.orbits), N
            oracle_by_k = Counter(
                o.surface.boundary_count for o in mb1.orbits
                if not o.surface.orientable and o.surface.algebraic_genus == N
            )
            assert oracle_by_k == by_k, (N, oracle_by_k, by_k)

            # the invariant +-theta(e)/theta(x) separates the mb1 orbits
            assert mb1.map_count == N * (N - 1), (N, mb1.map_count)
            invariant = {}
            for o in mb1.orbits:
                img = o.representative.image_dict
                eps = img["e"] * pow(img["x"], -1, N) % N
                invariant[min(eps, N - eps)] = o.surface.boundary_count
            assert len(invariant) == len(mb1.orbits), (N, invariant)
            assert invariant == {0: N, **{e: 1 for e in range(1, (N + 1) // 2)}}, (
                N, invariant
            )

            expected = Counter({N: 1, 1: (N - 1) // 2})
            assert by_k == expected, (
                f"N={N}: inventory (classification = search = oracle) is "
                f"{dict(by_k)} classes by boundary count, not {dict(expected)}"
            )


def test_criterion_5_extremal_closed_vs_search():
    """Closed forms match the catalog search, realizers and counts included."""
    with criterion(5, "extremal closed form vs search"):
        start = time.time()
        for N in range(2, 61):
            for variant in MIN_GENUS_VARIANTS:
                if variant == "p+-" and N % 2 != 0:
                    with pytest.raises(ValueError):
                        min_genus_closed(N, variant)
                    assert min_genus_search(N, variant).value is None
                    continue
                closed = min_genus_closed(N, variant)
                search = min_genus_search(N, variant)
                assert closed.value == search.value, (N, variant)
                assert sorted(map(str, closed.realizers)) == sorted(
                    map(str, search.realizers)
                ), (N, variant)
        for p in range(2, 31):
            for variant in MAX_ORDER_VARIANTS:
                closed = max_order_closed(p, variant)
                search = max_order_search(p, variant)
                assert closed.value == search.value, (p, variant)
                assert sorted(map(str, closed.realizers)) == sorted(
                    map(str, search.realizers)
                ), (p, variant)
        # realizer class counts from the uniqueness corollaries
        assert min_genus_closed(9, "p+").class_count == 2  # p - 1 with p = 3
        assert min_genus_closed(15, "p+").class_count == 1
        for N in (6, 10, 14):  # N = 2 mod 4
            assert min_genus_closed(N, "p++").class_count == 1
            assert min_genus_closed(N, "p+-").class_count == 1
        for N in (8, 16, 20):  # 4 | N
            assert min_genus_closed(N, "p++").class_count == 1
            assert min_genus_closed(N, "p+-").class_count == 1
        # N = 12 is the one coincidence: 1/3 + 1/4 = 1/2 + 1/12, so the
        # two-cone quotients (2,12) and (3,4) both attain the preserving
        # minimum; the oracle confirms one class each (two in total)
        ans12 = min_genus_closed(12, "p++")
        assert ans12.class_count == 2
        assert sorted(r.quotient.label() for r in ans12.realizers) == [
            "d21(2,12)", "d21(3,4)"
        ]
        assert min_genus_closed(12, "p+-").class_count == 1
        assert min_genus_closed(15, "p-").class_count == 1 + 1  # k = q and k = 1 cases
        for N in (4, 6, 8, 10):
            assert min_genus_closed(N, "p-").class_count == 1
        for p in range(2, 31):
            for variant in ("N-", "N++", "N+-"):
                assert max_order_closed(p, variant).class_count == 1, (p, variant)
        elapsed = time.time() - start
        assert elapsed < 120, f"extremal sweep took {elapsed:.1f}s, budget is 2 minutes"


def test_criterion_6_structural_invariants(smooth_maps_48):
    """Per-map invariants for every smooth map at N <= 24, zero violations.

    Unit invariance is checked on the generators of Z_N^* from
    ``unit_generators``: each scaled vector must lie in the enumerated set
    and have the same surface.  As this holds for every map of the set, it
    carries by induction on word length over the whole unit group.
    """
    with criterion(6, "structural invariant suite N <= 24"):
        checked_maps = 0
        for (q, N), maps in smooth_maps_48.items():
            if N > 24 or not maps:
                continue
            gens = unit_generators(N)
            pres = presentation_of(q)
            enumerated = {bmap.images for bmap in maps}
            moves = moves_for(q)
            p = kernel_algebraic_genus(q.signature(), N)
            assert p == N * area(q.signature()) + 1
            for bmap in maps:
                checked_maps += 1
                surf = surface_of(bmap)
                # (a) Hurwitz-Riemann genus equals eps*g + k - 1
                assert p == surf.algebraic_genus
                # (b) invariance under units and automorphism moves
                for g in gens:
                    scaled = tuple(g * v % N for v in bmap.images)
                    assert scaled in enumerated
                    assert surface_of(BskMap(q, N, scaled)) == surf
                for move in moves:
                    moved = BskMap(q, N, move.apply(bmap.images, N))
                    assert is_smooth(moved)
                    assert surface_of(moved) == surf
                # (c) consecutive reflections have distinct images
                img = bmap.image_dict
                for ring in pres.rings:
                    if len(ring) == 1:  # an empty cycle
                        continue
                    cycle = [img[pres.gens[i]] for i in ring[:-1]]  # without the tail
                    for j, value in enumerate(cycle):
                        assert value != cycle[(j + 1) % len(cycle)]
        assert checked_maps > 5000


def test_criterion_7_number_theory_kernel():
    """Brute-force validation of the arithmetic kernel, under 10 seconds."""
    import math

    from necsurf.zmod import crt_solve, divisors, harvey_check, lift_unit, maclachlan, order_mod

    with criterion(7, "number-theory kernel vs brute force"):
        start = time.time()
        for n in range(1, 41):
            assert euler_phi(n) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert psi(n) == sum(
                1 for a in range(n) if math.gcd(a, n) == 1 and math.gcd(a + 1, n) == 1
            )
        for m in range(1, 21):
            for n in range(1, 21):
                lcm = math.lcm(m, n)
                for a in range(m):
                    for b in range(n):
                        hits = [x for x in range(lcm) if x % m == a and x % n == b]
                        want = hits[0] if hits else None
                        assert crt_solve(a, m, b, n) == want
        for N in range(1, 41):
            realizable = set()
            for a in range(N):
                for b in range(N):
                    c = (-a - b) % N
                    if math.gcd(N, math.gcd(a, math.gcd(b, c))) == 1:
                        realizable.add((order_mod(a, N), order_mod(b, N), order_mod(c, N)))
            for m in divisors(N):
                for n in divisors(N):
                    for l in divisors(N):
                        assert harvey_check(m, n, l, N) == ((m, n, l) in realizable)
                        if math.lcm(m, n) == math.lcm(m, l) == math.lcm(n, l) == N:
                            quad = maclachlan(m, n, l)
                            assert (quad.m, quad.n, quad.l, quad.order) == (m, n, l, N)
        for N in range(1, 41):
            for n in divisors(N):
                for a in units(n):
                    got = lift_unit(a, n, N)
                    assert got % n == a % n and math.gcd(got, N) == 1
                    assert all(math.gcd(c, N) != 1 for c in range(a % n, got, n))
        elapsed = time.time() - start
        assert elapsed < 10, f"kernel validation took {elapsed:.1f}s, budget is 10 seconds"
