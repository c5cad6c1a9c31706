"""Enumeration, orbit counting, and the oracle-vs-formula cross-check."""

import itertools

import pytest

from necsurf.bsk import BskMap, is_smooth, orientability, orientability_case_rule, presentation_of
from necsurf.oracle import (
    ORACLE_MAX_N,
    check_point,
    check_points,
    cross_check,
    enumerate_smooth,
    moves_for,
    oracle_report,
    orbit_count,
)
from necsurf.signatures import QuotientType
from necsurf.zmod import order_mod


def test_enumerate_two_cone_disc():
    q = QuotientType("d21", m=2, n=3)
    maps = enumerate_smooth(q, 6)
    assert len(maps) == 2
    # x1 and c are forced; only x2 varies over the two elements of order 3
    assert sorted(m.image_dict["x2"] for m in maps) == [2, 4]
    assert all(m.image_dict["x1"] == 3 and m.image_dict["c"] == 0 for m in maps)
    assert enumerate_smooth(q, 5) == []


def test_enumerate_six_corner_disc():
    maps = enumerate_smooth(QuotientType("d6"), 2)
    assert len(maps) == 2  # the two alternating assignments
    for m in maps:
        values = [m.image_dict[f"c{i}"] for i in range(6)]
        assert values in ([0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0])
    assert enumerate_smooth(QuotientType("d6"), 4) == []


def test_enumerate_bound():
    with pytest.raises(ValueError):
        enumerate_smooth(QuotientType("d6"), 97)


def test_orbit_count_merges_maps():
    q = QuotientType("d21", m=2, n=3)
    report = oracle_report(q, 6)
    assert (report.map_count, report.orbit_count) == (2, 1)
    orbit = report.orbits[0]
    assert orbit.surface.describe() == "1-holed torus"
    assert orbit.reversing is False


def test_orbit_count_single_map_no_moves():
    # at N = 2 the unit group is trivial, so a single map closed in itself
    q = QuotientType("d6")
    maps = enumerate_smooth(q, 2)[:1]
    report = orbit_count(maps, (), 2)
    assert report.orbit_count == 1


def test_annulus_worked_example_orbits():
    q = QuotientType("ann1", m=12)
    report = oracle_report(q, 12)
    k7 = [o for o in report.orbits if o.surface.boundary_count == 7]
    assert len(k7) == 2
    assert sorted(o.connector_orders for o in k7) == [(2, 12), (3, 4)]
    for o in k7:
        assert o.surface.orientable and o.surface.genus == 3


def test_connector_order_separates_corner_pair_orbits():
    """The two classes for cone orders 3,3 differ in the order of theta(e)."""
    report = oracle_report(QuotientType("d2c-3m", m=3), 6)
    assert report.orbit_count == 2
    assert sorted(o.connector_orders for o in report.orbits) == [(1,), (3,)]


def test_equivalence_invariants_distinguish_kinds():
    """Mirror-kind and split-kind maps stay in different orbits."""
    q = QuotientType("ann1", m=3)
    report = oracle_report(q, 6)
    k2 = [o for o in report.orbits if o.surface.boundary_count == 2]
    assert len(k2) == 3
    patterns = []
    for o in k2:
        img = o.representative.image_dict
        patterns.append(tuple(sorted((img["c1"], img["c2"]))))
    # one orbit with both reflections in the kernel, two with a mirror
    assert sorted(patterns).count((0, 0)) == 1
    assert sorted(patterns).count((0, 3)) == 2


def test_move_set_sizes():
    assert [m.name for m in moves_for(QuotientType("mb1", m=3))] == ["gamma", "delta"]
    assert [m.name for m in moves_for(QuotientType("ann1", m=3))] == ["alpha", "beta"]
    assert [m.name for m in moves_for(QuotientType("d21", m=2, n=3))] == ["alpha"]
    assert [m.name for m in moves_for(QuotientType("d21", m=4, n=4))] == ["alpha", "beta"]
    assert [m.name for m in moves_for(QuotientType("d6"))] == ["shift0"]
    assert [m.name for m in moves_for(QuotientType("ann2"))] == ["shift1"]
    assert moves_for(QuotientType("d3-22m", m=3)) == ()


def test_moves_preserve_smoothness():
    for q, N in (
        (QuotientType("mb1", m=4), 8),
        (QuotientType("ann1", m=4), 8),
        (QuotientType("d2c-2m", m=4), 4),
    ):
        maps = enumerate_smooth(q, N)
        assert maps
        for move in moves_for(q):
            for m in maps:
                image = move.apply(m.image_dict, N)
                assert is_smooth(BskMap.from_dict(q, N, image))


def test_enumeration_order_independent():
    """The smooth-map set does not depend on the generator search order."""
    for q, N in ((QuotientType("ann1", m=3), 6), (QuotientType("mb1", m=2), 4)):
        pres = presentation_of(q)
        want = {m.vector() for m in enumerate_smooth(q, N)}
        domains = {
            g: [v for v in range(N)] for g in pres.free
        }
        for g in pres.free:
            if g in pres.elliptic_orders:
                domains[g] = [v for v in range(N) if order_mod(v, N) == pres.elliptic_orders[g]]
        for perm in itertools.permutations(pres.free):
            got = set()
            for combo in itertools.product(*(domains[g] for g in perm)):
                images = pres.complete(dict(zip(perm, combo)), N)
                bmap = BskMap.from_dict(q, N, images)
                if is_smooth(bmap):
                    got.add(bmap.vector())
            assert got == want


def test_check_point_agreement():
    point = check_point(QuotientType("mb1", m=4), 8)
    assert point.ok
    point = check_point(QuotientType("ann1", m=12), 12)
    assert point.ok


def test_cross_check_small_sweep():
    report = cross_check(n_max=10)
    assert report.passed
    assert len(report.points) > 100
    described = report.points[0].describe()
    assert "ok" in described


def test_cross_check_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cross_check(kinds=("tetrahedral",), n_max=4)


@pytest.mark.parametrize("n_min, n_max", [(2, ORACLE_MAX_N + 1), (2, 1), (1, 4), (5, 4)])
def test_check_points_rejects_bad_bounds(n_min, n_max):
    with pytest.raises(ValueError):
        check_points(None, n_max, n_min)


def test_orientability_matches_case_rule_on_sweep():
    """The non-orientable-word test agrees with the per-family case rule
    on every smooth map of the N <= 48 sweep."""
    checked = 0
    for q, N in check_points(None, 48):
        for bmap in enumerate_smooth(q, N):
            assert orientability(bmap) == orientability_case_rule(bmap), bmap
            checked += 1
    assert checked == 120887


def test_check_point_beyond_default_sweep():
    """Self-pairing corrections hold out to the enumeration ceiling."""
    for q, N in (
        (QuotientType("d21", m=64, n=64), 64),
        (QuotientType("ann1", m=16), 64),
        (QuotientType("mb1", m=32), 64),
    ):
        assert check_point(q, N).ok
