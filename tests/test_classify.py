"""Closed-form class counts, family by family."""

import pytest

from necsurf.classify import (
    _FORMULAS,
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
)
from necsurf.signatures import FAMILIES, QuotientType


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


def test_formula_table_matches_registry():
    """One formula per family; k-ranges exactly where classify takes k, and
    a formula's own order is N unless the registry says the cone orders force it."""
    assert list(_FORMULAS) == list(FAMILIES)
    for kind, (formula, k_range) in _FORMULAS.items():
        assert (k_range is not None) == ("k" in FAMILIES[kind].classify_args)
        for q in FAMILIES[kind].instances(range(2, 31)):
            assert formula(q, 60, 1, True).order == (q.forced_order() or 60), q


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
