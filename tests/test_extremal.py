"""Minimum genus and maximum order: closed forms, search, realizers."""

import importlib

import pytest

from necsurf.extremal import (
    MAX_ORDER_VARIANTS,
    MIN_GENUS_VARIANTS,
    max_order_closed,
    max_order_search,
    min_genus_closed,
    min_genus_search,
)
from necsurf.signatures import FAMILIES, QuotientType

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
    """``results_for`` runs only on parameter points whose kernel genus is the
    answer's genus (below or at it for the ascending ``min_genus_search``)."""
    seen = []
    results_for = classify_module.results_for

    def recorder(q, N):
        seen.append((q, N))
        return results_for(q, N)

    def genera():
        out = [FAMILIES[q.kind].kernel_genus(q.m, q.n, N) for q, N in seen]
        seen.clear()
        assert out
        return set(out)

    monkeypatch.setattr(classify_module, "results_for", recorder)
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
    """The solvers reach their points through ``Family.cone_orders_at_genus``
    and ``genera_for_order`` alone, so ``parameter_space`` never runs; and
    ``actions_for_order(N, genus=p)`` builds a ``QuotientType`` only at
    points whose genus is p."""

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
    post_init = QuotientType.__post_init__

    def recorder(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(QuotientType, "__post_init__", recorder)
    for N in (12, 30, 97, 360):
        for p in (2, 7, 24, N // 2 + 1, N - 1):
            built.clear()
            records = classify_module.actions_for_order(N, genus=p)
            assert all(classify_module._point_genus(q, N) == p for q in built), (N, p)
            assert {r.quotient for r in records} <= set(built), (N, p)
