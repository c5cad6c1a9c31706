"""Closed-form class counts, family by family."""

import ast
import inspect
import itertools
import math
from pathlib import Path

import pytest
from catalog_points import instances
from classify_reference import PER_K, flags, reference_classify, reference_results

import necsurf
from necsurf.classify import (
    _FORMULAS,
    ActionRecord,
    ClassificationResult,
    Realization,
    _half_count,
    actions_for_order,
    classification_buckets,
    classify,
    classify_ann1,
    parameter_space,
    points_at,
    results_for,
)
from necsurf.signatures import (
    FAMILIES, Family, QuotientType, SurfaceTopology, kernel_algebraic_genus,
)
from necsurf.zmod import (
    biggest_coprime_divisor, divisors, euler_phi, harvey_check, maclachlan, psi,
)


@pytest.fixture
def no_formulas(monkeypatch):
    """Every formula in ``_FORMULAS`` patched to raise if it runs; returns the table as it was."""
    def no_formula(q, N, p):
        raise AssertionError(f"a formula ran for {q} at N={N}")

    table = dict(_FORMULAS)
    for kind in table:
        monkeypatch.setitem(_FORMULAS, kind, no_formula)
    return table


def surfaces(res):
    return sorted((r.surface.describe(), r.count) for r in res.realizations)


def test_d6():
    res = classify(QuotientType("d6"), 2)
    assert res.exists and res.class_count == 1
    assert surfaces(res) == [("3-holed sphere", 1)]
    assert res.realizations[0].reversing is True
    assert not classify(QuotientType("d6"), 3).exists
    assert not classify(QuotientType("d6"), 4).exists


def test_ann2():
    res = classify(QuotientType("ann2"), 6)
    assert res.class_count == 4
    assert surfaces(res) == [
        ("3-holed Klein bottle", 1),
        ("3-holed torus", 1),
        ("4-holed projective plane", 1),
        ("5-holed sphere", 1),
    ]
    res = classify(QuotientType("ann2"), 8)
    assert res.class_count == 2
    assert surfaces(res) == [("4-holed Klein bottle", 1), ("5-holed projective plane", 1)]
    assert not classify(QuotientType("ann2"), 5).exists


def test_mb2():
    res = classify(QuotientType("mb2"), 6)
    assert surfaces(res) == [("3-holed Klein bottle", 1), ("3-holed torus", 1)]
    res = classify(QuotientType("mb2"), 8)
    assert surfaces(res) == [("4-holed Klein bottle", 1)]


def test_disc_corners():
    res = classify(QuotientType("d12", m=4))
    assert (res.order, res.class_count) == (4, 1)
    assert surfaces(res) == [("2-holed projective plane", 1)]
    res = classify(QuotientType("d12", m=3))
    assert (res.order, res.class_count) == (6, 1)
    assert surfaces(res) == [("3-holed sphere", 1)]
    res = classify(QuotientType("d14", m=3))
    assert (res.order, res.class_count) == (6, 1)
    assert surfaces(res) == [("6-holed sphere", 1)]
    res = classify(QuotientType("d14", m=4))
    assert (res.order, res.class_count) == (4, 1)
    assert surfaces(res) == [("4-holed projective plane", 1)]


def test_mb1_orientable():
    res = classify(QuotientType("mb1", m=4), 8, 4, True)
    assert res.exists and res.class_count == 1
    assert res.realizations[0].surface.algebraic_genus == 7
    assert not classify(QuotientType("mb1", m=2), 4, 2, True).exists  # t = 2 even, N/2t odd
    # k = 2 needs 8 | N, k = 4 needs N/4 odd
    assert classify(QuotientType("mb1", m=2), 16, 2, True).exists
    assert not classify(QuotientType("mb1", m=2), 12, 2, True).exists
    assert classify(QuotientType("mb1", m=2), 12, 4, True).exists


def test_mb1_non_orientable():
    res = classify(QuotientType("mb1", m=9), 9, 3, False)
    assert res.exists and res.class_count == 1
    assert res.realizations[0].surface.algebraic_genus == 1 + 8 * 9 // 9
    res = classify(QuotientType("mb1", m=2), 2, 1, False)
    assert res.class_count == 1
    assert surfaces(res) == [("1-holed Klein bottle", 1)]
    # odd N: halved count
    assert classify(QuotientType("mb1", m=9), 9, 1, False).class_count == 3  # ceil(phi(9)/2)
    # even N: full phi(t)
    assert classify(QuotientType("mb1", m=4), 4, 1, False).class_count == 2


def test_d21():
    assert classify(QuotientType("d21", m=2, n=3), k=1).class_count == 1
    for N in (5, 7, 11):
        assert classify(QuotientType("d21", m=N, n=N), k=1).class_count == (N - 1) // 2
        assert classify(QuotientType("d21", m=N, n=N), k=N).class_count == 1
    # parity clause: N even with N/t odd forces k even
    assert not classify(QuotientType("d21", m=2, n=6), k=1).exists
    assert classify(QuotientType("d21", m=2, n=6), k=2).exists
    # k must be a unitary-style divisor: k | t with gcd(k, N/t) = 1
    assert not classify(QuotientType("d21", m=12, n=24), k=2).exists  # gcd(2, N/t = 2) != 1
    assert not classify(QuotientType("d21", m=4, n=4), k=3).exists


def test_d21_half_count_two_power_branch():
    # the +1 self-pairing correction needs k = 2 (mod 4)
    assert classify(QuotientType("d21", m=8, n=8), k=2).class_count == 2  # phi(4)/2 + 1
    assert classify(QuotientType("d21", m=16, n=16), k=2).class_count == 3  # phi(8)/2 + 1
    assert classify(QuotientType("d21", m=16, n=16), k=4).class_count == 1  # phi(4)/2, no self-paired maps
    assert classify(QuotientType("d21", m=32, n=32), k=8).class_count == 1
    assert classify(QuotientType("d21", m=32, n=32), k=4).class_count == 2


def test_d21_rejects_zero_area():
    with pytest.raises(ValueError):
        classify(QuotientType("d21", m=2, n=2), k=1)


def test_ann1_orientable():
    res = classify(QuotientType("ann1", m=12), 12, 7, True)
    assert res.class_count == 2
    assert {r.label for r in res.realizations} == {"split{1,6}", "split{3,4}"}
    surf = res.realizations[0].surface
    assert (surf.orientable, surf.genus, surf.boundary_count) == (True, 3, 7)
    # mirror-kind and split-kind coexist: N = 2m with N/2 odd, k = 2
    res = classify(QuotientType("ann1", m=3), 6, 2, True)
    assert res.class_count == 3
    by_label = {r.label: r for r in res.realizations}
    assert by_label["mirror"].count == 2 and by_label["mirror"].reversing is True
    assert by_label["split{1,1}"].count == 1 and by_label["split{1,1}"].reversing is False


def test_ann1_non_orientable():
    res = classify(QuotientType("ann1", m=6), 6, 2, False)
    assert res.class_count == 2  # phi(gcd(6, 3))
    # no non-orientable covers for odd N: both reflections would lie in the
    # kernel, leaving no non-orientable word
    for N, m, k in ((3, 3, 1), (9, 9, 1), (7, 7, 7)):
        assert not classify(QuotientType("ann1", m=m), N, k, False).exists


def _ann1_linear_reference(N, m, k, want_orientable):
    """The ann1 formula as a linear search: every split k = n1 + n2 with n1 <= k/2."""
    q = QuotientType("ann1", m=m)
    p = 1 + N * (m - 1) // m
    if not want_orientable:
        if N % 2 != 0 or N % k != 0 or N != math.lcm(m, N // k):
            return ClassificationResult(q, N)
        count = euler_phi(math.gcd(m, N // k))
        reals = [Realization(SurfaceTopology.of_genus(False, p, k), count)]
        return ClassificationResult(q, N, tuple(reals))
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
    return ClassificationResult(q, N, reals)


def test_ann1_divisor_search_matches_linear_reference():
    """No boundary count is lost: outside the per-k formula's k-set the
    linear search finds nothing, inside it ``classify`` and the linear
    search agree, and ``results_for`` is the linear search swept over
    k = 1..2m and both flags, in that order."""
    k_set = PER_K["ann1"][1]
    checked = 0
    for N in range(2, 151):
        for m in (d for d in range(2, N + 1) if N % d == 0):
            q = QuotientType("ann1", m=m)
            ks = set(k_set(q, N))
            assert ks <= set(range(1, 2 * m + 1)), (N, m)
            swept = []
            for k in range(1, 2 * m + 1):
                for orientable in (True, False):
                    want = _ann1_linear_reference(N, m, k, orientable)
                    got = classify(q, N, k, orientable)
                    if k not in ks:
                        assert not want.exists and not got.exists, (N, m, k, orientable)
                    else:
                        assert got == want, (N, m, k, orientable)
                        checked += got.exists
                    swept.extend(want.realizations)
            assert results_for(q, N) == swept, (N, m)
    assert checked > 1000


def test_mb1_boundary_counts_miss_no_class():
    """Every k | N outside the per-k mb1 k-set (the k with
    N // lcm(m, N/k) <= 2) carries no mb1 class, for either flag, and
    ``results_for`` has no realization at such a k."""
    k_set = PER_K["mb1"][1]
    skipped = 0
    for N in range(2, 151):
        for m in (d for d in range(2, N + 1) if N % d == 0):
            q = QuotientType("mb1", m=m)
            ks = set(k_set(q, N))
            assert ks <= set(divisors(N)), (N, m)
            assert {r.surface.boundary_count for r in results_for(q, N)} <= ks, (N, m)
            for k in (d for d in divisors(N) if d not in ks):
                for orientable in (True, False):
                    assert not classify(q, N, k, orientable).exists, (N, m, k, orientable)
                    skipped += 1
    assert skipped == 4144


def test_triangle():
    res = classify(QuotientType("d3-22m", m=3))
    assert (res.order, res.class_count) == (6, 1)
    surf = res.realizations[0].surface
    assert (surf.orientable, surf.genus, surf.boundary_count) == (True, 2, 2)
    res = classify(QuotientType("d3-23m", m=3))
    assert (res.order, res.class_count) == (6, 2)
    assert sorted((r.surface.genus, r.surface.boundary_count) for r in res.realizations) == [
        (2, 3), (3, 1)
    ]
    res = classify(QuotientType("d3-23m", m=4))
    assert (res.order, surfaces(res)) == (12, [("1-holed genus-6 surface", 1)])
    res = classify(QuotientType("d3-23m", m=5))
    assert (res.order, surfaces(res)) == (30, [("1-holed genus-15 surface", 1)])


def test_corner_pair():
    res = classify(QuotientType("d2c-2m", m=4))
    assert (res.order, res.class_count) == (4, 1)
    surf = res.realizations[0].surface
    assert (surf.orientable, surf.genus, surf.boundary_count) == (False, 3, 2)
    res = classify(QuotientType("d2c-3m", m=3))
    assert (res.order, res.class_count) == (6, 2)
    assert res.realizations[0].surface.genus == 2
    res = classify(QuotientType("d2c-3m", m=4))
    assert (res.order, surfaces(res)) == (12, [("6-holed non-orientable genus-7 surface", 1)])
    res = classify(QuotientType("d2c-3m", m=5))
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


def test_public_classifiers_reject_bad_input():
    """N < 2, a cone order below the family minimum, k < 1 and a missing
    orientability flag, through classify() and classify_ann1."""
    bad = [
        # N < 2
        (("d6",), {"N": 1}),
        (("mb1", 2), {"N": 1, "k": 1, "orientable": True}),
        # a cone order below the family minimum
        (("d12", 1), {}),
        (("mb1", 1), {"N": 4, "k": 1, "orientable": True}),
        (("d21", 1, 3), {"k": 1}),
        (("d3-23m", 2), {}),
        (("d3-22m", 1), {}),
        (("d2c-3m", 2), {}),
        (("d2c-2m", 1), {}),
        # k < 1
        (("mb1", 2), {"N": 4, "k": 0, "orientable": True}),
        (("d21", 2, 3), {"k": 0}),
        # no orientability flag
        (("mb1", 2), {"N": 4, "k": 1}),
        (("ann1", 2), {"N": 4, "k": 1}),
    ]
    for (kind, *orders), args in bad:
        with pytest.raises(ValueError):
            classify(QuotientType(kind, *orders), **args)
    for args in ((1, 2, 1, True), (4, 1, 1, True), (4, 2, 0, False), (4, 2, 1, None)):
        with pytest.raises(ValueError):
            classify_ann1(*args)


def test_formula_table_matches_registry(no_formulas):
    """One formula per kind, each taking (q, N, p) and answering for
    every k and flag at once.  Where ``Family.point_genus`` finds no genus,
    nothing exists and no formula runs: off a forced order, and where
    N*area(q) is not an integer, as for mb1(4) and ann1(4) at N = 6 and the
    parameter-free families at odd N.  Every formula carries its family's
    statement as its docstring."""
    assert all(formula.__doc__ for formula in no_formulas.values())
    assert all(list(inspect.signature(f).parameters) == ["q", "N", "p"] for f in no_formulas.values())
    assert list(_FORMULAS) == list(FAMILIES)
    with pytest.raises(AssertionError):
        results_for(QuotientType("d12", m=4), 4)
    gated = [
        (q, N)
        for kind in FAMILIES
        for q in instances(FAMILIES[kind], range(2, 31))
        for N in range(2, 61)
        if FAMILIES[q.kind].point_genus(q.m, q.n, N) is None
    ]
    named = [(QuotientType("mb1", m=4), 6), (QuotientType("ann1", m=4), 6)]
    named += [(QuotientType(kind), N) for kind in ("ann2", "mb2", "d6") for N in (3, 5, 9, 15)]
    assert set(named) <= set(gated)
    assert sum(q.forced_order() not in (None, N) for q, N in gated) > 1000
    given = {"k": 1, "orientable": True}
    for q, N in gated:
        args = {a: given[a] for a in FAMILIES[q.kind].classify_args}  # only what it takes
        assert results_for(q, N) == [], (q, N)
        assert not classify(q, N, **args).exists, (q, N)


def test_classify_keeps_the_formula_list_at_k_and_flag():
    """``classify`` is the formula's list filtered, not a second code path:
    for a family that takes k, its answers at every boundary count of
    ``results_for`` and both flags, concatenated, are ``results_for``;
    for the others it is ``results_for`` itself."""
    checked = 0
    for N in range(2, 61):
        for kind, fam in FAMILIES.items():
            for m, n in fam.cone_orders(N):
                q = QuotientType(kind, m, n)
                want = results_for(q, N)
                if "k" not in fam.classify_args:
                    assert list(classify(q, N).realizations) == want, (q, N)
                    continue
                ks = sorted({r.surface.boundary_count for r in want})
                got = [
                    r
                    for k in ks
                    for flag in flags(kind)
                    for r in classify(q, N, k, flag).realizations
                ]
                assert got == want, (q, N)
                checked += len(got)
    assert checked > 1000


def test_all_k_formulas_match_per_k_reference():
    """mb1, ann1 and d21 against their per-k formulas: ``results_for`` is the
    per-k formula swept over its old k-set, in order, and ``classify`` at
    every k <= 2N + 1 and flag is the per-k answer, also at the cone orders
    that carry no order-N action."""
    calls = 0
    for N in range(2, 61):
        for kind in PER_K:
            for q in instances(FAMILIES[kind], divisors(N)[1:]):
                assert results_for(q, N) == reference_results(q, N), (q, N)
                for k in range(1, 2 * N + 2):
                    for flag in flags(kind):
                        assert classify(q, N, k, flag) == reference_classify(q, N, k, flag), (q, N, k)
                        calls += 1
    assert calls > 50000


TAIL_ORDERS = (720, 2520, 5040)


def test_d21_per_point_rule_matches_per_k_calls():
    """``_d21`` calls ``harvey_check`` and ``maclachlan`` once per point, at
    k = 1, and reads every k off them.  At every d21 point and every k of
    its set, the per-k calls it replaces agree: the Harvey test at N/k is
    (k odd) == the k = 1 test, and the decomposition's A at N/k is t // k,
    with t = A at k = 1 = gcd(m, n)."""
    checks = 0
    for N in itertools.chain(range(2, 401), TAIL_ORDERS):
        for m, n, _ in FAMILIES["d21"].points(N):
            t = maclachlan(m, n, N).a
            assert t == math.gcd(m, n), (m, n, N)
            odd_k_pass = harvey_check(m, n, N, N)
            for k in divisors(biggest_coprime_divisor(t, N // t)):
                assert harvey_check(m, n, N // k, N) == ((k % 2 == 1) == odd_k_pass), (m, n, N, k)
                assert maclachlan(m, n, N // k).a == t // k, (m, n, N, k)
                checks += 1
    assert checks > 10000


def test_all_k_formulas_match_per_k_reference_at_tail_orders():
    """The one-pass formulas of mb1, ann1 and d21 equal their per-k
    references at every catalog point of the divisor-rich tail orders,
    beyond the exhaustive N <= 60 of ``test_all_k_formulas_match_per_k_reference``."""
    points = 0
    for N in TAIL_ORDERS:
        for kind in PER_K:
            for m, n, _ in FAMILIES[kind].points(N):
                q = QuotientType(kind, m, n)
                assert results_for(q, N) == reference_results(q, N), (q, N)
                points += 1
    assert points == 696


def test_enumeration_at_order_two():
    records = actions_for_order(2)
    assert len(records) == 14
    assert sum(r.realization.count for r in records) == 14


def test_realized_counts_satisfy_harvey():
    """Whenever d21 classes exist, the three orders pass the generation test."""
    for N in range(2, 41):
        for m in (d for d in range(2, N + 1) if N % d == 0):
            for n in (d for d in range(m, N + 1) if N % d == 0):  # d21 takes m <= n
                if math.lcm(m, n) != N or (m, n) == (2, 2):
                    continue
                for k in range(1, math.gcd(m, n) + 1):
                    if math.gcd(m, n) % k != 0:
                        continue
                    res = classify(QuotientType("d21", m=m, n=n), k=k)
                    if res.exists:
                        assert harvey_check(m, n, N // k, N), (m, n, k)


@pytest.mark.parametrize("orders", [range(2, 401), (720, 2520, 5040)], ids=["2-400", "tail"])
def test_genus_sweep_equals_filtered_full_sweep(orders):
    """``actions_for_order(N, genus=p)`` is the full sweep kept at genus p, in
    the same order, for every genus that occurs and one that does not; and
    every genus that occurs is the genus of one of ``points_at(N)``."""
    for N in orders:
        full = actions_for_order(N)
        genera = {r.surface.algebraic_genus for r in full}
        assert genera <= {p for *_, p in points_at(N)}, N
        absent = next(p for p in itertools.count(2) if p not in genera)
        for p in sorted(genera) + [absent]:
            want = [r for r in full if r.surface.algebraic_genus == p]
            assert actions_for_order(N, genus=p) == want, (N, p)



@pytest.mark.parametrize("N", [12, 720, 5040])
def test_sweep_asks_point_genus_once_per_point(monkeypatch, N):
    """``actions_for_order(N)`` works out each catalog point's genus once: it
    makes one ``Family.point_genus`` call per point of ``Family.cone_orders``,
    and its records are those of ``results_for`` at each point, in order."""
    points = sum(len(fam.cone_orders(N)) for fam in FAMILIES.values())
    want = [
        ActionRecord(q, N, real)
        for kind in FAMILIES
        for q in parameter_space(kind, N)
        for real in results_for(q, N)
    ]
    calls = []
    point_genus = Family.point_genus

    def recorded(fam, m, n, order):
        calls.append((fam.kind, m, n))
        return point_genus(fam, m, n, order)

    monkeypatch.setattr(Family, "point_genus", recorded)
    assert actions_for_order(N) == want
    assert len(calls) == points


@pytest.mark.parametrize(
    "orders", [range(2, 401), (720, 2520, 5040, 15015)], ids=["2-400", "tail"]
)
def test_genera_for_order_equals_point_genus_reference(orders):
    """``points_at(N)``, computed on integer cone orders, is exactly the
    quotients of every family's ``parameter_space(kind, N)`` that have a
    ``Family.point_genus``, each with that genus, in sweep order; so its
    genera are exactly theirs."""
    for N in orders:
        want = [
            (kind, q.m, q.n, p)
            for kind in FAMILIES
            for q in parameter_space(kind, N)
            if (p := FAMILIES[kind].point_genus(q.m, q.n, N)) is not None
        ]
        assert points_at(N) == want, N

def _reference_genus(q, N):
    """The algebraic genus each family's formula once wrote out by hand."""
    m, n = q.m, q.n
    if q.kind == "d6":
        return 2
    if q.kind in ("ann2", "mb2"):
        return N // 2 + 1
    if q.kind in ("d12", "d14"):
        return kernel_algebraic_genus(q.signature(), N)
    if q.kind in ("mb1", "ann1"):
        assert N % m == 0
        return 1 + (m - 1) * N // m
    assert q.kind == "d21"
    return 1 + N - N // m - N // n


def _reference_surfaces(q, N):
    """The (orientable, genus, boundary count) tables of the forced
    three-period families, as their formulas once wrote them out."""
    m = q.m
    if q.kind == "d3-22m":
        assert (m - 2) * N % (2 * m) == 0
        return {(True, 1 + (m - 2) * N // (2 * m), N // m)}
    if q.kind == "d3-23m":
        return {(True, g, b) for g, b in {3: ((3, 1), (2, 3)), 4: ((6, 1),), 5: ((15, 1),)}[m]}
    if q.kind == "d2c-2m":
        assert (m - 2) * N % (2 * m) == 0
        return {(False, 2 + (m - 2) * N // (2 * m), N // 2)}
    assert q.kind == "d2c-3m"
    return {{3: (True, 2, N // 2), 4: (False, 7, N // 2), 5: (True, 8, N // 2)}[m]}


@pytest.mark.parametrize("orders", [range(2, 401), (720, 2520, 5040)], ids=["2-400", "tail"])
def test_surfaces_match_hand_written_genera(orders):
    """Every record's surface has the genus the family's own formula once
    stated by hand, and the forced three-period families give exactly
    their old (orientable, g, b) tables: the gate's genus
    (``Family.point_genus``) agrees with each family's paper statement."""
    tables = ("d3-22m", "d3-23m", "d2c-2m", "d2c-3m")
    checked = 0
    for N in orders:
        by_point: dict[QuotientType, set] = {}
        for rec in actions_for_order(N):
            s = rec.surface
            by_point.setdefault(rec.quotient, set()).add((s.orientable, s.genus, s.boundary_count))
            if rec.quotient.kind not in tables:
                assert s.algebraic_genus == _reference_genus(rec.quotient, N), (rec, N)
            checked += 1
        for q, seen in by_point.items():
            if q.kind in tables:
                assert seen == _reference_surfaces(q, N), (q, N)
    assert checked > 4000


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


def _nodes_by_function(path):
    """Every AST node of a module with the function that encloses it most
    closely, as ``module.function`` (``module`` for module-level code)."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{path.stem}.{child.name}"
            yield child, inner
            yield from visit(child, inner)

    return visit(ast.parse(path.read_text(), filename=str(path)), path.stem)


def test_one_catalog_walk_and_two_formula_call_sites():
    """Under ``src/necsurf`` a ``.points(`` call appears only in ``classify.points_at``,
    the one walk over the catalog, and ``_FORMULAS[...]`` is subscripted only in
    ``classify.results_for`` and ``classify.records_at``, the one loop that
    classifies a list of points."""
    points_calls, formula_reads = [], []
    for path in sorted(Path(necsurf.__file__).parent.glob("*.py")):
        for node, site in _nodes_by_function(path):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "points"):
                points_calls.append(site)
            elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == "_FORMULAS"):
                formula_reads.append(site)
    assert points_calls == ["classify.points_at"]
    assert sorted(formula_reads) == ["classify.records_at", "classify.results_for"]


def _kind_names(side):
    """The ``FAMILIES`` kind names one side of a comparison holds as string constants:
    the side itself, or the elements of a tuple, list or set literal."""
    elements = side.elts if isinstance(side, (ast.Tuple, ast.List, ast.Set)) else [side]
    return [e.value for e in elements if isinstance(e, ast.Constant) and e.value in FAMILIES]


def test_no_code_branches_on_a_kind_name():
    """``_FORMULAS`` maps the ``FAMILIES`` kinds, in catalog order, to twelve distinct
    formulas, none of which reads an attribute named ``kind``; and under
    ``src/necsurf`` no ``==``, ``!=``, ``in`` or ``not in`` has a kind name as a
    string constant on either side.  So the table is the one place code is chosen
    by kind."""
    assert list(_FORMULAS) == list(FAMILIES)
    assert len(set(_FORMULAS.values())) == len(FAMILIES) == 12
    formulas = {f"classify.{f.__name__}" for f in _FORMULAS.values()}
    kind_reads, branches = [], []
    for path in sorted(Path(necsurf.__file__).parent.glob("*.py")):
        for node, site in _nodes_by_function(path):
            if isinstance(node, ast.Attribute) and node.attr == "kind" and site in formulas:
                kind_reads.append(site)
            elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
                if any(_kind_names(side) for side in (node.left, *node.comparators)):
                    branches.append((site, ast.unparse(node)))
    assert kind_reads == []
    assert branches == []
