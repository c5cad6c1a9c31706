"""Minimum genus and maximum order: closed forms, search, realizers."""

import importlib

import pytest

from necsurf import extremal
from necsurf.classify import records_at
from necsurf.cli import main
from necsurf.extremal import (
    MAX_ORDER_VARIANTS,
    MIN_GENUS_VARIANTS,
    max_order_closed,
    max_order_search,
    min_genus_closed,
    min_genus_search,
)
from necsurf.signatures import FAMILIES, Family, QuotientType, kernel_algebraic_genus

classify_module = importlib.import_module("necsurf.classify")


def kinds_of(ans):
    return sorted({r.quotient.kind for r in ans.realizers})


def test_min_genus_closed_examples():
    ans = min_genus_closed(15, "p+")
    assert ans.value == 8 and ans.class_count == 1
    assert [r.quotient.label() for r in ans.realizers] == ["d21(3,5)"]

    ans = min_genus_closed(9, "p+")
    assert ans.value == 6 and ans.class_count == 2
    assert [r.quotient.label() for r in ans.realizers] == ["d21(3,9)"]

    ans = min_genus_closed(2, "p-")
    assert ans.value == 2 and ans.class_count == 8
    split = {}
    for r in ans.realizers:
        split[r.surface.describe()] = split.get(r.surface.describe(), 0) + r.realization.count
    assert split == {"2-holed projective plane": 3, "1-holed Klein bottle": 5}


def test_min_genus_even_orders():
    # 4 | N: preserving minimum N/2 at one boundary component, reversing N/2 + 1
    ans = min_genus_closed(8, "p++")
    assert ans.value == 4
    assert all(r.surface.boundary_count == 1 for r in ans.realizers)
    ans = min_genus_closed(8, "p+-")
    assert ans.value == 5
    assert kinds_of(ans) == ["mb1"]
    # 8 | N gives 2 boundary components, otherwise 4
    assert {r.surface.boundary_count for r in min_genus_closed(8, "p+-").realizers} == {2}
    assert {r.surface.boundary_count for r in min_genus_closed(12, "p+-").realizers} == {4}
    assert {r.surface.boundary_count for r in min_genus_closed(16, "p+-").realizers} == {2}
    # N = 2 mod 4: both orientable minima agree at N/2 - 1
    assert min_genus_closed(6, "p++").value == 2
    assert min_genus_closed(6, "p+-").value == 2
    assert min_genus_closed(6, "p-").value == 3
    assert min_genus_closed(6, "p").value == 2


def test_min_genus_odd_orders():
    # prime: d21 with both cone orders N
    ans = min_genus_closed(7, "p++")
    assert ans.value == 6 and kinds_of(ans) == ["d21"]
    by_k = {r.surface.boundary_count: r.realization.count for r in ans.realizers}
    assert by_k == {1: 3, 7: 1}
    # non-prime odd, q^2 | N
    assert min_genus_closed(9, "p++").value == 6
    # non-prime odd, q^2 does not divide N
    assert min_genus_closed(15, "p++").value == 8
    ans = min_genus_closed(7, "p-")
    assert ans.value == 7 and kinds_of(ans) == ["mb1"]
    assert min_genus_closed(15, "p-").value == 11


def test_min_genus_rejects_odd_reversing():
    with pytest.raises(ValueError):
        min_genus_closed(9, "p+-")
    assert min_genus_search(9, "p+-").value is None
    assert min_genus_search(9, "p+-").realizers == ()


def test_min_genus_search_matches_closed():
    for N in range(2, 31):
        for variant in ("p", "p+", "p-", "p++", "p+-"):
            if variant == "p+-" and N % 2:
                continue
            closed = min_genus_closed(N, variant)
            search = min_genus_search(N, variant)
            assert closed.value == search.value, (N, variant)
            assert sorted(map(str, closed.realizers)) == sorted(map(str, search.realizers))


def test_max_order_closed_examples():
    assert max_order_closed(3, "N").value == 6
    assert max_order_closed(4, "N").value == 10
    assert max_order_closed(3, "N+-").value == 4
    assert max_order_closed(2, "N").value == 6
    assert max_order_closed(5, "N-").value == 10
    ans = max_order_closed(5, "N++")
    assert ans.value == 10
    assert "d21(2,10)" in [r.quotient.label() for r in ans.realizers]


def test_max_order_uniqueness_from_disc_families():
    # the non-orientable maximum is realized once, on a projective plane
    for p in range(2, 12):
        ans = max_order_closed(p, "N-")
        assert ans.value == 2 * p
        assert ans.class_count == 1
        assert ans.realizers[0].surface.describe() == f"{p}-holed projective plane"


def test_max_order_search_matches_closed():
    for p in range(2, 16):
        for variant in ("N", "N+", "N-", "N++", "N+-"):
            closed = max_order_closed(p, variant)
            search = max_order_search(p, variant)
            assert closed.value == search.value, (p, variant)
            assert sorted(map(str, closed.realizers)) == sorted(map(str, search.realizers))


def test_every_realizer_in_large_action_range():
    for N in range(2, 21):
        ans = min_genus_search(N, "p")
        assert ans.value is not None and N > ans.value - 1


def test_solvers_classify_only_points_at_the_answer_genus(monkeypatch):
    """A formula runs only on parameter points whose kernel genus is the
    answer's genus (below or at it for the ascending ``min_genus_search``).
    The recorder wraps every formula of the table, the one place where a
    point is classified, and checks the genus each is handed against the
    exact area rule."""
    seen = []

    def recording(formula):
        def recorder(q, N, p):
            assert p == kernel_algebraic_genus(q.signature(), N), (q, N, p)
            seen.append(p)
            return formula(q, N, p)
        return recorder

    def genera():
        out = set(seen)
        assert seen
        seen.clear()
        return out

    for kind, formula in classify_module._FORMULAS.items():
        monkeypatch.setitem(classify_module._FORMULAS, kind, recording(formula))
    for p in range(2, 41):
        for variant in MAX_ORDER_VARIANTS:
            max_order_search(p, variant)
            assert genera() == {p}, (p, variant)
    for N in range(2, 81):
        for variant in MIN_GENUS_VARIANTS:
            if variant == "p+-" and N % 2:
                continue
            ans = min_genus_closed(N, variant)
            assert genera() == {ans.value}, (N, variant)
            ans = min_genus_search(N, variant)
            assert max(genera()) == ans.value, (N, variant)


def test_genus_queries_never_build_the_parameter_space(monkeypatch):
    """The searches reach their points through ``points_at`` (``Family.points``)
    and the closed solvers through their tables, so ``parameter_space`` never
    runs; and ``actions_for_order(N, genus=p)`` builds a ``QuotientType`` only
    at points whose genus is p."""

    def no_parameter_space(kind, N):
        raise AssertionError(f"parameter_space({kind!r}, {N}) ran")

    monkeypatch.setattr(classify_module, "parameter_space", no_parameter_space)
    for N in (12, 30, 97, 360):
        for variant in MIN_GENUS_VARIANTS:
            if variant == "p+-" and N % 2:
                continue
            min_genus_closed(N, variant)
            min_genus_search(N, variant)
    for p in (2, 7, 24):
        for variant in MAX_ORDER_VARIANTS:
            max_order_closed(p, variant)
            max_order_search(p, variant)

    built = []
    new = QuotientType.__new__

    def recorder(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        built.append(self)
        return self

    monkeypatch.setattr(QuotientType, "__new__", recorder)
    for N in (12, 30, 97, 360):
        for p in (2, 7, 24, N // 2 + 1, N - 1):
            built.clear()
            records = classify_module.actions_for_order(N, genus=p)
            assert all(FAMILIES[q.kind].point_genus(q.m, q.n, N) == p for q in built), (N, p)
            assert {r.quotient for r in records} <= set(built), (N, p)


def matches_reference(record, flavour):
    """``extremal._matches`` as it stood before the demand table replaced it, verbatim."""
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


def test_realizers_at_match_the_reference_chain():
    """For N = 2..200, the points of ``points_at(N)`` grouped by their genus p, in
    sweep order, are ``points_at(N, genus=p)``, and their ``records_at`` are
    ``actions_for_order(N, genus=p)``; for every flavour ``_keep`` keeps of those
    the records the old if-chain kept, in order.  The variants keep their order,
    each N variant asks what its p variant asks, and only ``p+-`` is refused at
    an odd order."""
    assert MIN_GENUS_VARIANTS == ("p", "p+", "p-", "p++", "p+-")
    assert MAX_ORDER_VARIANTS == ("N", "N+", "N-", "N++", "N+-")
    for p_variant, n_variant in zip(MIN_GENUS_VARIANTS, MAX_ORDER_VARIANTS):
        assert extremal._check("min-genus", p_variant, 2) == p_variant
        assert extremal._check("max-order", n_variant, 2) == p_variant
    for variant in MIN_GENUS_VARIANTS:
        if variant == "p+-":
            with pytest.raises(ValueError, match="undefined for odd order 9"):
                min_genus_closed(9, variant)
        else:
            assert min_genus_closed(9, variant).value is not None
    kept = 0
    for N in range(2, 201):
        groups = {}
        for point in classify_module.points_at(N):
            groups.setdefault(point[3], []).append(point)
        for p in sorted(groups):
            assert classify_module.points_at(N, genus=p) == groups[p], (N, p)
            records = classify_module.records_at(N, groups[p])
            assert classify_module.actions_for_order(N, genus=p) == records, (N, p)
            for flavour in MIN_GENUS_VARIANTS:
                want = tuple(r for r in records if matches_reference(r, flavour))
                assert extremal._keep(records, flavour) == want, (N, flavour, p)
                kept += len(want)
    assert kept > 10_000


def test_closed_solvers_never_sweep(monkeypatch):
    """The closed solvers classify the points their tables name and nothing else.
    With every catalog walk patched to raise, each variant still answers at
    N = 2..200 and p = 2..100, and the formulas run at exactly the named points,
    once each, in sweep order; every realizer comes from one of them."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("a closed solver walked the catalog")

    for module in (classify_module, extremal):
        for name in ("actions_for_order", "points_at"):
            monkeypatch.setattr(module, name, no_sweep)
    for name in ("points", "cone_orders"):
        monkeypatch.setattr(Family, name, no_sweep)
    ran = []

    def recording(formula):
        def recorder(q, N, p):
            ran.append((q.kind, q.m, q.n))
            return formula(q, N, p)
        return recorder

    for kind, formula in classify_module._FORMULAS.items():
        monkeypatch.setitem(classify_module._FORMULAS, kind, recording(formula))

    def check(ans, named):
        assert ran == list(named), (ans.query, ans.argument, ans.variant)
        assert {(r.quotient.kind, r.quotient.m, r.quotient.n) for r in ans.realizers} <= set(ran)
        ran.clear()

    for N in range(2, 201):
        for variant in MIN_GENUS_VARIANTS:
            if variant == "p+-" and N % 2:
                continue
            check(min_genus_closed(N, variant), extremal._min_genus(N, variant)[1])
    for p in range(2, 101):
        for variant in MAX_ORDER_VARIANTS:
            check(max_order_closed(p, variant), extremal._max_order(p, variant)[1])


def test_closed_points_per_case():
    """The table's rows, at one order or genus each (q the least prime of N)."""

    def labels(answer):  # each point once, in realizer order
        return list(dict.fromkeys(r.quotient.label() for r in answer.realizers))

    cases = {
        (8, "p++"): ["d21(2,8)"], (12, "p++"): ["d21(2,12)", "d21(3,4)"],
        (10, "p++"): ["d21(2,5)"], (7, "p++"): ["d21(7,7)"], (9, "p++"): ["d21(3,9)"],
        (15, "p++"): ["d21(3,5)"], (8, "p+-"): ["mb1(2)"], (10, "p+-"): ["d12(5)"],
        (10, "p-"): ["d12(10)"], (7, "p-"): ["mb1(7)"], (15, "p-"): ["mb1(3)"],
        (8, "p+"): ["d21(2,8)"], (10, "p+"): ["d12(5)", "d21(2,5)"],
        (10, "p"): ["d12(5)", "d21(2,5)"], (9, "p"): ["d21(3,9)"],
    }
    for (N, variant), want in cases.items():
        assert labels(min_genus_closed(N, variant)) == want, (N, variant)
    assert set(labels(min_genus_closed(2, "p"))) == {
        "d6", "ann2", "mb2", "d14(2)", "mb1(2)", "ann1(2)", "d3-22m(2)", "d2c-2m(2)"}
    cases = {
        (4, "N-"): (8, ["d12(8)"]), (4, "N++"): (10, ["d21(2,5)"]),
        (5, "N++"): (10, ["d21(2,10)"]), (4, "N+-"): (10, ["d12(5)"]),
        (5, "N+-"): (8, ["mb1(2)"]), (4, "N"): (10, ["d12(5)", "d21(2,5)"]),
        (5, "N+"): (10, ["d21(2,10)"]), (5, "N"): (10, ["d12(10)", "d21(2,10)"]),
    }
    for (p, variant), (N, want) in cases.items():
        ans = max_order_closed(p, variant)
        assert (ans.value, labels(ans)) == (N, want), (p, variant)


def test_max_order_search_walks_from_the_ceiling_down_to_p(monkeypatch):
    """With no record at any order, the search asks ``actions_for_order(N, genus=p)``
    for every N from 2(p+1) down to max(p, 2), the least order with N > p - 1, and
    answers None."""
    asked = []

    def none_at(N, genus):
        assert genus == p
        asked.append(N)
        return []

    monkeypatch.setattr(extremal, "actions_for_order", none_at)
    for p in (2, 3, 4, 7, 10):
        for variant in MAX_ORDER_VARIANTS:
            asked.clear()
            assert max_order_search(p, variant) == ("max-order", variant, p, None, ())
            assert asked == [2 * p + 2 - i for i in range(p + 3)], (p, variant)
            assert asked[-1] == p


# The range guards at their edge: mb2 at N = 4, classified at genus 5, has
# consistent surfaces but sits one past the large-action range N > p - 1.


def _classified_at(N, flavour, p, points):
    """``_closed_realizers`` without its genus check: the points (kind, m, n) classified at p."""
    return records_at(N, [(*point, p) for point in points])


def _exits_on_invariant_failure(capsys, *argv):
    assert main(list(argv)) == 1
    assert capsys.readouterr().err.startswith("internal invariant failure")


def test_min_genus_search_refuses_a_genus_past_the_range(monkeypatch, capsys):
    """A group of genus N + 1 at order N fails the search's range guard, and the CLI exits 1."""
    monkeypatch.setattr(extremal, "points_at", lambda N: [("mb2", None, None, N + 1)])
    with pytest.raises(AssertionError, match="catalog sweep only covers"):
        min_genus_search(4, "p")
    _exits_on_invariant_failure(capsys, "min-genus", "--N", "4", "--search")


def test_min_genus_closed_refuses_a_genus_past_the_range(monkeypatch, capsys):
    """A closed value of N + 1 at order N fails the closed solver's range guard."""
    monkeypatch.setattr(extremal, "_min_genus", lambda N, variant: (N + 1, (("mb2", None, None),)))
    monkeypatch.setattr(extremal, "_closed_realizers", _classified_at)
    with pytest.raises(AssertionError, match="minimum outside the large-action range"):
        min_genus_closed(4, "p")
    _exits_on_invariant_failure(capsys, "min-genus", "--N", "4", "--closed")


def test_max_order_closed_refuses_an_order_below_the_range(monkeypatch, capsys):
    """A closed order of p - 1 at genus p fails the closed solver's range guard."""
    monkeypatch.setattr(extremal, "_max_order", lambda p, variant: (p - 1, (("mb2", None, None),)))
    monkeypatch.setattr(extremal, "_closed_realizers", _classified_at)
    with pytest.raises(AssertionError, match="maximum outside the large-action range"):
        max_order_closed(5, "N")
    _exits_on_invariant_failure(capsys, "max-order", "--p", "5", "--closed")
