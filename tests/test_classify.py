"""Closed-form class counts, family by family."""

import importlib
import itertools
import math

import pytest

from necsurf.classify import (
    _FORMULAS,
    ClassificationResult,
    Realization,
    _half_count,
    actions_for_order,
    classification_buckets,
    classify,
    classify_ann1,
    classify_corner_only,
    classify_corner_pair,
    classify_d21,
    classify_disc_corners,
    classify_mb1,
    classify_triangle,
    genera_for_order,
    results_for,
)
from necsurf.signatures import FAMILIES, QuotientType, SurfaceTopology
from necsurf.zmod import biggest_coprime_divisor, euler_phi, psi

# the package re-exports the function ``classify`` under the module's name
classify_module = importlib.import_module("necsurf.classify")


def surfaces(res):
    return sorted((r.surface.describe(), r.count) for r in res.realizations)


def test_d6():
    res = classify_corner_only("d6", 2)
    assert res.exists and res.class_count == 1
    assert surfaces(res) == [("3-holed sphere", 1)]
    assert res.realizations[0].reversing is True
    assert not classify_corner_only("d6", 3).exists
    assert not classify_corner_only("d6", 4).exists


def test_ann2():
    res = classify_corner_only("ann2", 6)
    assert res.class_count == 4
    assert surfaces(res) == [
        ("3-holed Klein bottle", 1),
        ("3-holed torus", 1),
        ("4-holed projective plane", 1),
        ("5-holed sphere", 1),
    ]
    res = classify_corner_only("ann2", 8)
    assert res.class_count == 2
    assert surfaces(res) == [("4-holed Klein bottle", 1), ("5-holed projective plane", 1)]
    assert not classify_corner_only("ann2", 5).exists


def test_mb2():
    res = classify_corner_only("mb2", 6)
    assert surfaces(res) == [("3-holed Klein bottle", 1), ("3-holed torus", 1)]
    res = classify_corner_only("mb2", 8)
    assert surfaces(res) == [("4-holed Klein bottle", 1)]


def test_disc_corners():
    res = classify_disc_corners("d12", 4)
    assert (res.order, res.class_count) == (4, 1)
    assert surfaces(res) == [("2-holed projective plane", 1)]
    res = classify_disc_corners("d12", 3)
    assert (res.order, res.class_count) == (6, 1)
    assert surfaces(res) == [("3-holed sphere", 1)]
    res = classify_disc_corners("d14", 3)
    assert (res.order, res.class_count) == (6, 1)
    assert surfaces(res) == [("6-holed sphere", 1)]
    res = classify_disc_corners("d14", 4)
    assert (res.order, res.class_count) == (4, 1)
    assert surfaces(res) == [("4-holed projective plane", 1)]


def test_mb1_orientable():
    res = classify_mb1(8, 4, 4, True)
    assert res.exists and res.class_count == 1
    assert res.realizations[0].surface.algebraic_genus == 7
    assert not classify_mb1(4, 2, 2, True).exists  # t = 2 even, N/2t odd
    # k = 2 needs 8 | N, k = 4 needs N/4 odd
    assert classify_mb1(16, 2, 2, True).exists
    assert not classify_mb1(12, 2, 2, True).exists
    assert classify_mb1(12, 2, 4, True).exists


def test_mb1_non_orientable():
    res = classify_mb1(9, 9, 3, False)
    assert res.exists and res.class_count == 1
    assert res.realizations[0].surface.algebraic_genus == 1 + 8 * 9 // 9
    res = classify_mb1(2, 2, 1, False)
    assert res.class_count == 1
    assert surfaces(res) == [("1-holed Klein bottle", 1)]
    # odd N: halved count
    assert classify_mb1(9, 9, 1, False).class_count == 3  # ceil(phi(9)/2)
    # even N: full phi(t)
    assert classify_mb1(4, 4, 1, False).class_count == 2


def test_d21():
    assert classify_d21(2, 3, 1).class_count == 1
    for N in (5, 7, 11):
        assert classify_d21(N, N, 1).class_count == (N - 1) // 2
        assert classify_d21(N, N, N).class_count == 1
    # parity clause: N even with N/t odd forces k even
    assert not classify_d21(2, 6, 1).exists
    assert classify_d21(2, 6, 2).exists
    # k must be a unitary-style divisor: k | t with gcd(k, N/t) = 1
    assert not classify_d21(12, 24, 2).exists  # gcd(2, N/t = 2) != 1
    assert not classify_d21(4, 4, 3).exists


def test_d21_half_count_two_power_branch():
    # the +1 self-pairing correction needs k = 2 (mod 4)
    assert classify_d21(8, 8, 2).class_count == 2  # phi(4)/2 + 1
    assert classify_d21(16, 16, 2).class_count == 3  # phi(8)/2 + 1
    assert classify_d21(16, 16, 4).class_count == 1  # phi(4)/2, no self-paired maps
    assert classify_d21(32, 32, 8).class_count == 1
    assert classify_d21(32, 32, 4).class_count == 2


def test_d21_rejects_zero_area():
    with pytest.raises(ValueError):
        classify_d21(2, 2, 1)


def test_ann1_orientable():
    res = classify_ann1(12, 12, 7, True)
    assert res.class_count == 2
    assert {r.label for r in res.realizations} == {"split{1,6}", "split{3,4}"}
    surf = res.realizations[0].surface
    assert (surf.orientable, surf.genus, surf.boundary_count) == (True, 3, 7)
    # mirror-kind and split-kind coexist: N = 2m with N/2 odd, k = 2
    res = classify_ann1(6, 3, 2, True)
    assert res.class_count == 3
    by_label = {r.label: r for r in res.realizations}
    assert by_label["mirror"].count == 2 and by_label["mirror"].reversing is True
    assert by_label["split{1,1}"].count == 1 and by_label["split{1,1}"].reversing is False


def test_ann1_non_orientable():
    res = classify_ann1(6, 6, 2, False)
    assert res.class_count == 2  # phi(gcd(6, 3))
    # no non-orientable covers for odd N: both reflections would lie in the
    # kernel, leaving no non-orientable word
    for N, m, k in ((3, 3, 1), (9, 9, 1), (7, 7, 7)):
        assert not classify_ann1(N, m, k, False).exists


def _ann1_linear_reference(N, m, k, want_orientable):
    """The ann1 formula as a linear search: every split k = n1 + n2 with n1 <= k/2."""
    q = QuotientType("ann1", m=m)
    p = 1 + N * (m - 1) // m
    if not want_orientable:
        if N % 2 != 0 or N % k != 0 or N != math.lcm(m, N // k):
            return ClassificationResult(q, N, False, 0)
        count = euler_phi(math.gcd(m, N // k))
        reals = [Realization(SurfaceTopology.of_genus(False, p, k), count)]
        return ClassificationResult(q, N, True, count, tuple(reals))
    reals = []
    if N % k == 0 and N == 2 * math.lcm(m, N // k) and (N // 2) % 2 == 1:
        t = math.gcd(m, N // k)
        surf = SurfaceTopology.of_genus(True, p, k)
        reals.append(Realization(surf, euler_phi(t), True, "mirror"))
    for n1 in range(1, k // 2 + 1):
        n2 = k - n1
        if m % n1 or m % n2 or math.gcd(n1, n2) != 1:
            continue
        if math.gcd(N // m, n1) != 1 or math.gcd(N // m, n2) != 1:
            continue
        if N % 2 == 0 and all(v % 2 for v in (N // m, n1, n2)):
            continue
        C = biggest_coprime_divisor(m // (n1 * n2), N * n1 * n2 // m)
        B = m // (C * n1 * n2)
        count = euler_phi(B) * psi(C) if k != 2 else _half_count(B, C, N // m)
        surf = SurfaceTopology.of_genus(True, p, k)
        reals.append(Realization(surf, count, False, f"split{{{n1},{n2}}}"))
    reals = tuple(r for r in reals if r.count > 0)
    return ClassificationResult(q, N, bool(reals), sum(r.count for r in reals), reals)


def test_ann1_divisor_search_matches_linear_reference():
    """No boundary count is lost: outside the divisor-driven k-set the linear
    search finds nothing, and inside it both searches agree."""
    k_set = _FORMULAS["ann1"][1]
    checked = 0
    for N in range(2, 151):
        for m in (d for d in range(2, N + 1) if N % d == 0):
            ks = set(k_set(QuotientType("ann1", m=m), N))
            assert ks <= set(range(1, 2 * m + 1)), (N, m)
            for k in range(1, 2 * m + 1):
                for orientable in (True, False):
                    want = _ann1_linear_reference(N, m, k, orientable)
                    got = classify_ann1(N, m, k, orientable)
                    if k not in ks:
                        assert not want.exists and not got.exists, (N, m, k, orientable)
                    else:
                        assert got == want, (N, m, k, orientable)
                        checked += got.exists
    assert checked > 1000


def test_triangle():
    res = classify_triangle("d3-22m", 3)
    assert (res.order, res.class_count) == (6, 1)
    surf = res.realizations[0].surface
    assert (surf.orientable, surf.genus, surf.boundary_count) == (True, 2, 2)
    res = classify_triangle("d3-23m", 3)
    assert (res.order, res.class_count) == (6, 2)
    assert sorted((r.surface.genus, r.surface.boundary_count) for r in res.realizations) == [
        (2, 3), (3, 1)
    ]
    res = classify_triangle("d3-23m", 4)
    assert (res.order, surfaces(res)) == (12, [("1-holed genus-6 surface", 1)])
    res = classify_triangle("d3-23m", 5)
    assert (res.order, surfaces(res)) == (30, [("1-holed genus-15 surface", 1)])


def test_corner_pair():
    res = classify_corner_pair("d2c-2m", 4)
    assert (res.order, res.class_count) == (4, 1)
    surf = res.realizations[0].surface
    assert (surf.orientable, surf.genus, surf.boundary_count) == (False, 3, 2)
    res = classify_corner_pair("d2c-3m", 3)
    assert (res.order, res.class_count) == (6, 2)
    assert res.realizations[0].surface.genus == 2
    res = classify_corner_pair("d2c-3m", 4)
    assert (res.order, surfaces(res)) == (12, [("6-holed non-orientable genus-7 surface", 1)])
    res = classify_corner_pair("d2c-3m", 5)
    assert res.realizations[0].surface.orientable and res.realizations[0].surface.genus == 8


def test_dispatcher_handles_order_mismatch():
    q = QuotientType("d12", m=4)
    assert classify(q, 4).exists
    assert not classify(q, 8).exists
    q = QuotientType("d21", m=2, n=3)
    assert classify(q, 6, k=1).exists
    assert not classify(q, 12, k=1).exists


def test_dispatcher_rejects_bad_input():
    with pytest.raises(ValueError):
        classify(QuotientType("d12", m=3), 0)
    with pytest.raises(ValueError):
        classify(QuotientType("mb1", m=4), 8, k=4)  # no orientability flag
    with pytest.raises(ValueError):
        classify(QuotientType("d21", m=2, n=3), 6)  # no k
    for kind in ("mb1", "ann1"):
        with pytest.raises(ValueError):
            classify(QuotientType(kind, m=3), 6, k=0, orientable=True)
    # arguments a family does not take are rejected, whatever their value
    with pytest.raises(ValueError, match="d12 does not take k"):
        classify(QuotientType("d12", m=4), 4, k=-5, orientable=False)
    with pytest.raises(ValueError, match="d12 does not take orientable"):
        classify(QuotientType("d12", m=3), 6, orientable=False)
    with pytest.raises(ValueError, match="d21 does not take orientable"):
        classify(QuotientType("d21", m=2, n=3), 6, k=1, orientable=True)
    with pytest.raises(ValueError, match="mb1 requires N"):
        classify(QuotientType("mb1", m=4), k=4, orientable=True)
    # a forced order is the default N
    q = QuotientType("d12", m=3)
    assert classify(q) == classify(q, 6)


def test_formula_table_matches_registry(monkeypatch):
    """One formula per family and k-ranges exactly where classify takes k.
    Off a forced order nothing exists, and no formula runs: the table looks
    its formulas up by module-level name, so a patched one is seen."""
    assert list(_FORMULAS) == list(FAMILIES)
    for kind, (_, k_range) in _FORMULAS.items():
        assert (k_range is not None) == ("k" in FAMILIES[kind].classify_args)

    def no_formula(q, N, k, orientable):
        raise AssertionError(f"a formula ran for {q} at N={N}")

    formulas = ("_corner_only", "_disc_corners", "_mb1", "_d21", "_ann1", "_triangle", "_corner_pair")
    for name in formulas:
        monkeypatch.setattr(classify_module, name, no_formula)
    with pytest.raises(AssertionError):
        results_for(QuotientType("d12", m=4), 4)
    checked = 0
    given = {"k": 1, "orientable": True}
    for kind in FAMILIES:
        args = {a: given[a] for a in FAMILIES[kind].classify_args}  # only what it takes
        for q in FAMILIES[kind].instances(range(2, 31)):
            for N in range(2, 61):
                if q.forced_order() in (None, N):
                    continue
                assert results_for(q, N) == [], (q, N)
                assert not classify(q, N, **args).exists, (q, N)
                checked += 1
    assert checked > 1000


def test_public_classifiers_reject_bad_input():
    """N < 2, a cone order below the family minimum, k < 1, a missing
    orientability flag and a kind the function does not serve."""
    bad = [
        (classify_corner_only, ("d6", 1)),
        (classify_corner_only, ("d12", 4)),
        (classify_disc_corners, ("d12", 1)),
        (classify_disc_corners, ("mb1", 4)),
        (classify_mb1, (1, 2, 1, True)),
        (classify_mb1, (4, 1, 1, True)),
        (classify_mb1, (4, 2, 0, True)),
        (classify_mb1, (4, 2, 1, None)),
        (classify_ann1, (1, 2, 1, True)),
        (classify_ann1, (4, 1, 1, True)),
        (classify_ann1, (4, 2, 0, False)),
        (classify_ann1, (4, 2, 1, None)),
        (classify_d21, (1, 3, 1)),
        (classify_d21, (2, 3, 0)),
        (classify_triangle, ("d3-23m", 2)),
        (classify_triangle, ("d3-22m", 1)),
        (classify_triangle, ("d2c-2m", 4)),
        (classify_corner_pair, ("d2c-3m", 2)),
        (classify_corner_pair, ("d2c-2m", 1)),
        (classify_corner_pair, ("d3-22m", 4)),
    ]
    for fn, args in bad:
        with pytest.raises(ValueError):
            fn(*args)


def test_enumeration_at_order_two():
    records = actions_for_order(2)
    assert len(records) == 14
    assert sum(r.realization.count for r in records) == 14


def test_realized_counts_satisfy_harvey():
    """Whenever d21 classes exist, the three orders pass the generation test."""
    import math

    from necsurf.zmod import harvey_check

    for N in range(2, 41):
        for m in (d for d in range(2, N + 1) if N % d == 0):
            for n in (d for d in range(2, N + 1) if N % d == 0):
                if math.lcm(m, n) != N or (m, n) == (2, 2):
                    continue
                for k in range(1, math.gcd(m, n) + 1):
                    if math.gcd(m, n) % k != 0:
                        continue
                    res = classify_d21(m, n, k)
                    if res.exists:
                        assert harvey_check(m, n, N // k, N), (m, n, k)


@pytest.mark.parametrize("orders", [range(2, 401), (720, 2520, 5040)], ids=["2-400", "tail"])
def test_genus_sweep_equals_filtered_full_sweep(orders):
    """``actions_for_order(N, genus=p)`` is the full sweep kept at genus p, in
    the same order, for every genus that occurs and one that does not; and
    every genus that occurs is one of ``genera_for_order(N)``."""
    for N in orders:
        full = actions_for_order(N)
        genera = {r.surface.algebraic_genus for r in full}
        assert genera <= set(genera_for_order(N)), N
        absent = next(p for p in itertools.count(2) if p not in genera)
        for p in sorted(genera) + [absent]:
            want = [r for r in full if r.surface.algebraic_genus == p]
            assert actions_for_order(N, genus=p) == want, (N, p)


def test_large_action_bound():
    """Every classified action satisfies N > p - 1 (the catalog's range)."""
    for N in range(2, 25):
        for rec in actions_for_order(N):
            assert N > rec.surface.algebraic_genus - 1


def test_buckets_shape():
    buckets = classification_buckets(QuotientType("ann1", m=3), 6)
    # keyed by (orientable, generator reverses orientation, boundary count)
    assert buckets[(True, True, 2)] == 2
    assert buckets[(True, False, 2)] == 1
    assert buckets[(True, False, 4)] == 1
    assert (False, None, 1) in buckets
