"""Enumeration, orbit counting, and the oracle-vs-formula cross-check."""

import concurrent.futures
import importlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from necsurf import oracle
from necsurf.bsk import BskMap, PointRules, is_smooth, orientability, point_rules, presentation_of
from necsurf.oracle import (
    ORACLE_MAX_N,
    OrbitInfo,
    OrbitReport,
    _invariants,
    check_point,
    check_points,
    cross_check,
    enumerate_smooth,
    moves_for,
    oracle_report,
    orbit_count,
)
from necsurf.signatures import NecSignature, QuotientType, presentation
from necsurf.zmod import crt_solve, divisors, euler_phi, factorize, order_mod, order_table, units

classify = importlib.import_module("necsurf.classify")


def full_smooth(q, N):
    """Every smooth residue vector for (q, N): the product search over all free
    images, ascending, kept as the reference for the unit-canonical ``enumerate_smooth``."""
    pres = presentation_of(q)
    domains = oracle._free_domains(pres, N)
    vectors = (pres.complete(combo, N) for combo in itertools.product(*domains))
    return [vec for vec in vectors if is_smooth(BskMap(q, N, vec))]


def canonical_vectors_reference(rules):
    """The frozenset search ``oracle.canonical_vectors`` replaced, kept as its reference.

    The primes with no unit image yet are a frozenset of (p, p^a) pairs,
    the choices at each position are memoised on that set, and a subtree
    is walked until its leaf even when a pending prime can no longer get
    a unit image; such a leaf is dropped there.
    """
    pres, N = rules.pres, rules.N
    domains = oracle._free_domains(pres, N)
    tables = [{} for _ in domains]

    def allowed(pos, pending):
        table = tables[pos]
        if pending not in table:
            table[pending] = [
                (v, frozenset((p, pa) for p, pa in pending if v % p == 0))
                for v in domains[pos]
                if all(v % pa == 1 for p, pa in pending if v % p)
            ]
        return table[pending]

    out = []

    def search(pos, pending, images):
        if pos == len(domains):
            if not pending:
                vec = pres.complete(images, N)
                if rules.first_failure(vec) is None:
                    out.append(vec)
            return
        for v, rest in allowed(pos, pending):
            search(pos + 1, rest, images + (v,))

    search(0, frozenset((p, p**a) for p, a in factorize(N)), ())
    return out


def image_dict(q, N, vec):
    return BskMap(q, N, vec).image_dict


def orbit_count_bfs(q, maps, moves, N):
    """Orbits of the residue vectors ``maps`` of (q, N) by breadth-first closure
    under every unit and every move.

    The search ``orbit_count`` replaced, kept as its reference: it visits
    all phi(N) unit multiples of every map, so it needs neither the
    freeness of the unit action nor the generating set.  Each orbit is
    named by its least member, by free images, that the dict-based
    ``unit_normaliser_reference`` leaves fixed, and the orbits are sorted
    by that name.
    """
    rules = point_rules(q, N)
    normalise = unit_normaliser_reference(rules.pres, N)

    def by_free(vec):
        return tuple(vec[i] for i in rules.pres.free_positions)

    index = {vec: i for i, vec in enumerate(maps)}
    assert len(index) == len(maps)
    unit_list = units(N)
    seen = [False] * len(maps)
    orbits = []
    for start in range(len(maps)):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        members = [start]
        while queue:
            vec = maps[queue.pop()]
            neighbours = [tuple(u * v % N for v in vec) for u in unit_list]
            neighbours += [move.apply(vec, N) for move in moves]
            for nb in neighbours:
                j = index.get(nb)
                assert j is not None, f"equivalence left the smooth set: {BskMap(q, N, nb)}"
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
                    members.append(j)
        inv = _invariants(rules, maps[members[0]])
        for i in members[1:]:
            assert _invariants(rules, maps[i]) == inv, (
                f"orbit invariants vary within an orbit of {q} at N={N}"
            )
        rep = min((maps[i] for i in members if normalise(maps[i]) == maps[i]), key=by_free)
        orbits.append(OrbitInfo(BskMap(q, N, rep), len(members), *inv))
    orbits.sort(key=lambda orbit: by_free(orbit.representative.images))
    return OrbitReport(q, N, len(maps), len(orbits), tuple(orbits))


def unit_normaliser_reference(pres, N):
    """The unit-canonical form, with per-prime inverse dicts and a first-unit search.

    The body ``oracle._unit_normaliser`` had before it read the per-N
    scale tables of ``oracle._residues``, kept as their reference.
    """
    free = pres.free_positions
    parts = []
    for p, a in factorize(N):
        q = p**a
        inverse = {r: pow(r, -1, q) for r in range(q) if r % p}
        parts.append((p, q, crt_solve(1, q, 0, N // q), inverse))

    def normalise(vec):
        u = 0
        for p, q, idempotent, inverse in parts:
            first = next((vec[i] for i in free if vec[i] % p), None)
            if first is None:
                return None
            u += idempotent * inverse[first % q]
        return tuple(u * v % N for v in vec)

    return normalise


def apply_reference(move, vector, N):
    """A move's image by its definition: every row summed, with the identity row
    ``((1, i),)`` at each position i that the move does not change."""
    rows = dict(move.changed)
    return tuple(
        sum(c * vector[src] for c, src in rows.get(i, ((1, i),))) % N for i in range(len(vector))
    )


def reversal_reference(q, vector, N):
    """The orientation reversal that mb1 (``gamma``), d21 and ann1 (``alpha``) once
    listed as a move: every image negated but the reflections'."""
    reflections = set(presentation_of(q).reflections)
    return tuple(v if i in reflections else -v % N for i, v in enumerate(vector))


class FakePool:
    """Stands in for ``ProcessPoolExecutor``: records each pool's size and maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def orientability_case_rule(bmap: BskMap) -> bool:
    """Per-family orientability criteria, as derived in the case analyses.

    Redundant with the general non-orientable-word test in orientability();
    kept as the reference it is checked against on every smooth map of the
    oracle sweep.  True means the covered surface is orientable.
    """
    kind, N = bmap.quotient.kind, bmap.N
    img = bmap.image_dict
    if kind in ("d6", "d21", "d3-22m", "d3-23m"):
        return True
    if kind == "d2c-2m":
        return False
    if kind == "d2c-3m":
        return bmap.quotient.m != 4
    if kind in ("d12", "d14"):
        return bmap.quotient.m % 2 == 1
    if kind == "ann2":
        return order_mod(img["e1"], N) != N
    if kind == "mb2":
        if order_mod(img["d"], N) == N:
            return (N // 2) % 2 == 1
        return False  # d^(N/2) lies in the kernel
    if kind == "mb1":
        return math.gcd(N, img["x"], img["e"]) != 1
    if kind == "ann1":
        if img["c1"] == 0 and img["c2"] == 0:
            return True
        return (N // 2) % math.gcd(N, img["x"], img["e1"]) != 0
    raise ValueError(f"unknown quotient kind {kind!r}")


def test_enumerate_two_cone_disc():
    q = QuotientType("d21", m=2, n=3)
    maps = [image_dict(q, 6, vec) for vec in full_smooth(q, 6)]
    assert len(maps) == 2
    # x1 and c are forced; only x2 varies over the two elements of order 3
    assert sorted(m["x2"] for m in maps) == [2, 4]
    assert all(m["x1"] == 3 and m["c"] == 0 for m in maps)
    # one unit class: its canonical form has x2 = 1 mod 3 (x1 = 3 is 1 mod 2 already)
    assert [image_dict(q, 6, vec)["x2"] for vec in enumerate_smooth(q, 6)] == [4]
    assert enumerate_smooth(q, 5) == []


def test_enumerate_six_corner_disc():
    q = QuotientType("d6")
    maps = enumerate_smooth(q, 2)
    assert len(maps) == 2  # the two alternating assignments
    for vec in maps:
        values = [image_dict(q, 2, vec)[f"c{i}"] for i in range(6)]
        assert values in ([0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0])
    assert enumerate_smooth(QuotientType("d6"), 4) == []


def test_enumerate_bound():
    with pytest.raises(ValueError):
        enumerate_smooth(QuotientType("d6"), ORACLE_MAX_N + 1)
    assert enumerate_smooth(QuotientType("d6"), ORACLE_MAX_N) == []  # d6 forces N = 2


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
    report = orbit_count(q, maps, (), 2)
    assert report.orbit_count == 1
    # an empty report still names its point
    assert orbit_count(q, [], (), 2) == OrbitReport(q, 2, 0, 0, ())


def test_oracle_report_builds_one_bsk_map_per_orbit(monkeypatch):
    """The oracle's currency is the residue vector: at every point with N <= 24
    ``oracle_report`` builds a ``BskMap`` for each orbit's representative and
    for nothing else."""
    built = []
    new = BskMap.__new__

    def counting(cls, *fields):
        built.append(fields)
        return new(cls, *fields)

    monkeypatch.setattr(BskMap, "__new__", counting)
    for q, N in check_points(None, 24):
        built.clear()
        report = oracle_report(q, N)
        assert len(built) == report.orbit_count, (q, N)
        assert sorted(built) == sorted(tuple(o.representative) for o in report.orbits), (q, N)


def test_orbit_count_matches_bfs_reference():
    """The report from the canonical maps equals the breadth-first search over
    every smooth map, field for field, representatives and order included, at
    every point with N <= 24."""
    points = check_points(None, 24)
    for q, N in points:
        moves = moves_for(q)
        assert oracle_report(q, N) == orbit_count_bfs(q, full_smooth(q, N), moves, N), (q, N)
    assert len(points) == 527


def test_orbits_are_named_by_their_first_canonical_form():
    """At every point with N <= 48 ``enumerate_smooth`` ascends by free images, and
    the report names each orbit by its first vector there: the representatives
    are a subsequence of the enumeration, in order, and each is the first
    canonical form met by a closure over the moves, normalised by the dict-based
    reference."""
    points = check_points(None, 48)
    for q, N in points:
        pres, moves = presentation_of(q), moves_for(q)
        canonical = enumerate_smooth(q, N)
        free = [tuple(vec[i] for i in pres.free_positions) for vec in canonical]
        assert free == sorted(set(free)), (q, N)
        report = oracle_report(q, N)
        reps = [o.representative.images for o in report.orbits]
        positions = [canonical.index(rep) for rep in reps]
        assert positions == sorted(positions), (q, N)
        normalise = unit_normaliser_reference(pres, N)
        firsts, sizes, seen = [], [], set()
        for vec in canonical:
            if vec in seen:
                continue
            orbit, queue = {vec}, [vec]
            while queue:
                current = queue.pop()
                moved = {normalise(move.apply(current, N)) for move in moves}
                queue += moved - orbit
                orbit |= moved
            seen |= orbit
            firsts.append(vec)
            sizes.append(len(orbit) * euler_phi(N))
        assert reps == firsts, (q, N)
        assert [o.size for o in report.orbits] == sizes, (q, N)
    assert len(points) == 1291


def test_orbit_count_rejects_a_repeated_vector(monkeypatch):
    """A vector given twice is refused by name, before any orbit work.  The
    refusal is a ValueError, not an assertion, so ``python -O`` cannot turn it
    into a count of 20 maps for these 16."""
    def no_orbit_work(pres, N):
        raise AssertionError("orbit work began")

    monkeypatch.setattr(oracle, "_unit_normaliser", no_orbit_work)
    q, N = QuotientType("mb1", m=4), 12
    maps = enumerate_smooth(q, N)
    assert len(maps) * euler_phi(N) == 16
    shown = BskMap(q, N, maps[1])
    for repeated in (maps + maps[1:2], maps[1:2] + maps):
        with pytest.raises(ValueError, match=re.escape(f"mb1(4) at N=12 was given {shown} twice")):
            orbit_count(q, repeated, moves_for(q), N)


def test_canonical_maps_stand_for_every_smooth_map(smooth_maps_48, sweep_48):
    """At every point with N <= 48 the unit multiples of the canonical maps are
    the whole smooth set, phi(N) distinct ones per canonical map, and the
    oracle's map count is its size."""
    report, _ = sweep_48
    assert len(report.points) == len(smooth_maps_48) == 1291
    for point, ((q, N), maps) in zip(report.points, smooth_maps_48.items()):
        assert (point.quotient, point.N) == (q, N)
        canonical = enumerate_smooth(q, N)
        multiples = {tuple(u * v % N for v in vec) for vec in canonical for u in units(N)}
        assert len(multiples) == len(canonical) * euler_phi(N), (q, N)
        assert multiples == {m.images for m in maps}, (q, N)
        assert point.map_count == len(maps), (q, N)


@pytest.mark.parametrize("kind, m, N, drop", [
    # mb1(4) at N = 12: four classes, each moved to another one
    ("mb1", 4, 12, 0), ("mb1", 4, 12, 1), ("mb1", 4, 12, -1),
    ("d3-22m", 8, 8, 0), ("d3-22m", 8, 8, -1),
])
def test_orbit_count_rejects_a_set_not_closed_under_equivalence(kind, m, N, drop):
    q = QuotientType(kind, m=m)
    maps = enumerate_smooth(q, N)
    if moves_for(q):
        del maps[drop]
        with pytest.raises(AssertionError, match="equivalence left the smooth set"):
            orbit_count(q, maps, moves_for(q), N)
    else:
        # without moves no class leads to another, so a dropped class is seen
        # only against the full reference; a unit multiple in its place is
        # not canonical
        maps[drop] = tuple(3 * v % N for v in maps[drop])
        with pytest.raises(ValueError, match="not in unit-canonical form"):
            orbit_count(q, maps, moves_for(q), N)


def test_orbit_count_rejects_every_other_unit_multiple():
    """A unit class has one canonical member: u * theta with u != 1 is refused, by name."""
    q = QuotientType("ann1", m=3)
    maps = enumerate_smooth(q, 12)
    assert maps
    for theta in maps:
        for u in units(12)[1:]:
            other = tuple(u * v % 12 for v in theta)
            shown = BskMap(q, 12, other)
            with pytest.raises(ValueError, match=re.escape(f"{shown}, not in unit-canonical form")):
                orbit_count(q, [other], moves_for(q), 12)


def test_orbit_count_rejects_a_map_that_is_not_smooth():
    q = QuotientType("d6")
    vec = (0,) * 8  # no image generates Z_2
    assert not is_smooth(BskMap(q, 2, vec))
    with pytest.raises(ValueError, match="not smooth"):
        orbit_count(q, [vec], (), 2)
    with pytest.raises(ValueError, match="not smooth"):
        orbit_count_bfs(q, [vec], (), 2)


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
    assert [m.name for m in moves_for(QuotientType("mb1", m=3))] == ["delta"]
    assert [m.name for m in moves_for(QuotientType("ann1", m=3))] == ["beta"]
    assert [m.name for m in moves_for(QuotientType("d21", m=2, n=3))] == []
    assert [m.name for m in moves_for(QuotientType("d21", m=4, n=4))] == ["beta"]
    assert [m.name for m in moves_for(QuotientType("d6"))] == ["shift0"]
    assert [m.name for m in moves_for(QuotientType("ann2"))] == ["shift1"]
    assert moves_for(QuotientType("d3-22m", m=3)) == ()


def test_moves_preserve_smoothness():
    for q, N in (
        (QuotientType("mb1", m=4), 8),
        (QuotientType("ann1", m=4), 8),
        (QuotientType("d2c-2m", m=4), 4),
    ):
        maps = full_smooth(q, N)
        assert maps
        for move in moves_for(q):
            for vec in maps:
                assert is_smooth(BskMap(q, N, move.apply(vec, N)))


def test_enumeration_order_independent():
    """The smooth-map set does not depend on the generator search order."""
    for q, N in ((QuotientType("ann1", m=3), 6), (QuotientType("mb1", m=2), 4)):
        pres = presentation_of(q)
        want = set(full_smooth(q, N))
        domains = {
            g: [v for v in range(N)] for g in pres.free
        }
        for g in pres.free:
            if g in pres.elliptic_orders:
                domains[g] = [v for v in range(N) if order_mod(v, N) == pres.elliptic_orders[g]]
        for perm in itertools.permutations(pres.free):
            got = set()
            for combo in itertools.product(*(domains[g] for g in perm)):
                chosen = dict(zip(perm, combo))
                bmap = BskMap(q, N, pres.complete([chosen[g] for g in pres.free], N))
                if is_smooth(bmap):
                    got.add(bmap.images)
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


def test_cross_check_process_pool_matches_serial():
    assert cross_check(n_max=10, jobs=2).points == cross_check(n_max=10, jobs=1).points


def test_cross_check_rejects_jobs_below_one_before_any_work(monkeypatch):
    def no_point(q, N):
        raise AssertionError(f"check point {q} at N={N} ran")

    monkeypatch.setattr(oracle, "check_point", no_point)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            cross_check(n_max=4, jobs=jobs)


def test_orbit_count_rejects_maps_of_another_order_or_quotient(monkeypatch):
    """Not the late "equivalence left the smooth set" of a mismatched call: the
    point's own smoothness check refuses them before any orbit work."""
    def no_orbit_work(pres, N):
        raise AssertionError("orbit work began")

    monkeypatch.setattr(oracle, "_unit_normaliser", no_orbit_work)
    q = QuotientType("mb1", m=3)
    maps = enumerate_smooth(q, 6)
    with pytest.raises(ValueError, match="^map is not smooth: long relation evaluates to 6$"):
        orbit_count(q, maps, moves_for(q), 12)
    other = enumerate_smooth(QuotientType("mb1", m=6), 6)
    assert maps and other
    with pytest.raises(ValueError, match="^map is not smooth: x has order 6, requires exact order 3$"):
        orbit_count(q, maps + other, moves_for(q), 6)


def test_cross_check_rejects_unknown_kind():
    with pytest.raises(ValueError):
        cross_check(kinds=("tetrahedral",), n_max=4)


@pytest.mark.parametrize("n_max", [ORACLE_MAX_N + 1, 1])
def test_check_points_rejects_bad_bounds(n_max):
    with pytest.raises(ValueError):
        check_points(None, n_max)


def test_check_points_rejects_an_empty_kind_list():
    """Only ``kinds=None`` means every kind."""
    for kinds in ([], (), [""]):
        with pytest.raises(ValueError, match="kind"):
            check_points(kinds, 4)


def test_check_points_sweeps_a_repeated_kind_once():
    assert check_points(["d6", "d6"], 4) == check_points(["d6"], 4)
    assert check_points(["mb2", "d6", "mb2"], 6) == check_points(["mb2", "d6"], 6)


def test_orientability_matches_case_rule_on_sweep(smooth_maps_48):
    """The non-orientable-word test agrees with the per-family case rule
    on every smooth map of the N <= 48 sweep."""
    checked = 0
    for maps in smooth_maps_48.values():
        for bmap in maps:
            assert orientability(bmap) == orientability_case_rule(bmap), bmap
            checked += 1
    assert checked == 120887


def test_both_sides_of_the_check_count_buckets_through_one_function(monkeypatch):
    """``check_point`` compares ``classification_buckets`` with ``OrbitReport.buckets``;
    both count through the one ``classify.bucket_counts``, so the key they compare
    is written once.  A recorder in its place sees one call from each side."""
    assert oracle.bucket_counts is classify.bucket_counts
    counter, calls = classify.bucket_counts, []

    def recorder(entries):
        entries = list(entries)
        calls.append(entries)
        return counter(entries)

    monkeypatch.setattr(classify, "bucket_counts", recorder)
    monkeypatch.setattr(oracle, "bucket_counts", recorder)
    q, N = QuotientType("ann1", m=3), 6
    expected = oracle.classification_buckets(q, N)
    report = oracle_report(q, N)
    assert report.buckets() == expected == {
        (False, None, 1): 2, (False, None, 3): 1, (True, False, 2): 1, (True, False, 4): 1,
        (True, True, 2): 2, (True, True, 6): 1,
    }
    assert len(calls) == 2
    assert calls[1] == [(o.surface, o.reversing, 1) for o in report.orbits]


def test_check_point_beyond_default_sweep():
    """Self-pairing corrections hold out to the enumeration ceiling."""
    for q, N in (
        (QuotientType("d21", m=64, n=64), 64),
        (QuotientType("ann1", m=16), 64),
        (QuotientType("mb1", m=32), 64),
    ):
        assert check_point(q, N).ok


def test_unit_normaliser_matches_dict_reference():
    """At every point with N <= 24, on every vector of the product domain that
    ``full_smooth`` searches and on every unit multiple of each, smooth or not."""
    vectors = 0
    for q, N in check_points(None, 24):
        pres = presentation_of(q)
        table, reference = oracle._unit_normaliser(pres, N), unit_normaliser_reference(pres, N)
        for combo in itertools.product(*oracle._free_domains(pres, N)):
            vec = pres.complete(combo, N)
            for u in units(N):
                multiple = tuple(u * v % N for v in vec)
                assert table(multiple) == reference(multiple), (q, N, multiple)
                vectors += 1
    assert vectors > 100_000


class LeafRecorder(PointRules):
    """A compiled point that records the first failure of every vector it is asked about."""

    def __init__(self, pres, N):
        super().__init__(pres, N)
        self.leaf_failures = []

    def first_failure(self, vec):
        failure = super().first_failure(vec)
        self.leaf_failures.append(failure)
        return failure


def test_canonical_vectors_match_frozenset_reference():
    """The bitmask search returns the frozenset search's vectors, in its order: at
    every catalog point with N <= 96, and at N <= 48 for the three signatures
    outside the catalog of ``test_rules_compiled_from_signatures_outside_the_catalog``.
    Its pruning leaves no leaf whose images fail to generate Z_N."""
    link_3 = (NecSignature(0, True, (2,), ((2, 3),)), NecSignature(0, True, (3,), ((2, 3),)))
    odd_cycle = NecSignature(0, True, (3,), ((2, 2, 2),))
    points = [(presentation_of(q), N) for q, N in check_points(None, 96)]
    points += [(presentation(sig), N) for sig in (*link_3, odd_cycle) for N in range(2, 49)]
    vectors = 0
    for pres, N in points:
        rules = LeafRecorder(pres, N)
        got = oracle.canonical_vectors(rules)
        assert "images do not generate Z_N" not in rules.leaf_failures, (pres.gens, N)
        assert got == canonical_vectors_reference(PointRules(pres, N)), (pres.gens, N)
        vectors += len(got)
    assert len(points) == 3084 + 3 * 47
    assert vectors > 10_000


def test_prime_bits_match_their_definition():
    """The ``unit`` and ``one`` bits of ``oracle._residues(N)`` for N <= ``ORACLE_MAX_N``:
    bit i is set when v is a unit at the i-th prime p, and when v = 1 mod p^a."""
    for N in range(2, ORACLE_MAX_N + 1):
        residues = oracle._residues(N)
        unit, one = residues.unit, residues.one
        assert len(unit) == len(one) == N
        for v in range(N):
            for i, (p, a) in enumerate(factorize(N)):
                assert bool(unit[v] >> i & 1) == (v % p != 0), (N, v, p)
                assert bool(one[v] >> i & 1) == (v % p**a == 1), (N, v, p)
            assert unit[v] < 1 << len(factorize(N)) and one[v] < 1 << len(factorize(N)), (N, v)


def test_residues_by_order_matches_order_scan():
    for N in range(2, ORACLE_MAX_N + 1):
        table = oracle._residues(N).by_order
        assert sorted(table) == list(divisors(N)), N
        for d, residues in table.items():
            assert residues == tuple(v for v in range(N) if order_mod(v, N) == d), (N, d)


def test_residue_scales_match_their_definition():
    """Per p^a || N, the scale of ``oracle._residues(N)`` is e * v^-1, which is v^-1 mod
    p^a and 0 mod N/p^a, where p does not divide v, and None where it does."""
    for N in range(2, ORACLE_MAX_N + 1):
        scales = oracle._residues(N).scales
        primes = factorize(N)
        assert len(scales) == len(primes), N
        for i, (p, a) in enumerate(primes):
            q = p**a
            assert len(scales[i]) == N, (N, p)
            for v, scale in enumerate(scales[i]):
                if v % p:
                    assert scale * v % q == 1 and scale % (N // q) == 0, (N, v, p)
                else:
                    assert scale is None, (N, v, p)


def test_compiled_moves_match_row_sums():
    """Every move of every kind at each point with N <= 24: on its canonical maps and
    on seeded raw vectors, ``apply`` equals the sum of every row."""
    rng = random.Random(20261019)
    seen = set()
    for q, N in check_points(None, 24):
        pres = presentation_of(q)
        vectors = enumerate_smooth(q, N)
        vectors += [tuple(rng.randrange(N) for _ in pres.gens) for _ in range(4)]
        for move in moves_for(q):
            for vec in vectors:
                assert move.apply(vec, N) == apply_reference(move, vec, N), (q, N, move.name, vec)
            seen.add((q.kind, move.name))
    assert seen == {
        ("ann1", "beta"), ("ann2", "shift1"), ("d12", "shift0"), ("d14", "shift0"),
        ("d21", "beta"), ("d2c-2m", "shift0"), ("d2c-3m", "shift0"), ("d6", "shift0"),
        ("mb1", "delta"), ("mb2", "shift0"),
    }


def test_orientation_reversal_is_the_unit_minus_one():
    """At every mb1, d21 and ann1 point with N <= 48 the orientation reversal sends
    each canonical vector v to -v mod N, as the reflections' images are 0 or N/2,
    and that normalises back to v: it joins no two unit classes, so it is no move."""
    vectors = 0
    for q, N in check_points(["mb1", "d21", "ann1"], 48):
        normalise = oracle._unit_normaliser(presentation_of(q), N)
        for vec in enumerate_smooth(q, N):
            reversed_vec = reversal_reference(q, vec, N)
            assert reversed_vec == tuple(-v % N for v in vec), (q, N, vec)
            assert normalise(reversed_vec) == vec, (q, N, vec)
            vectors += 1
    assert vectors == 7110


def test_every_move_changes_some_canonical_form():
    """A move that sends every canonical vector back to its own unit class joins no
    classes.  Each move that ``moves_for`` returns at some point with N <= 48 sends
    some canonical vector to another canonical form; the counts are (changed,
    vectors) over the points where the move applies."""
    counts = {}
    for q, N in check_points(None, 48):
        normalise = oracle._unit_normaliser(presentation_of(q), N)
        vectors = enumerate_smooth(q, N)
        for move in moves_for(q):
            changed = sum(normalise(move.apply(vec, N)) != vec for vec in vectors)
            got, total = counts.get((q.kind, move.name), (0, 0))
            counts[(q.kind, move.name)] = (got + changed, total + len(vectors))
    assert all(changed for changed, _ in counts.values()), counts
    assert counts.pop(("d21", "beta")) == (568, 710)
    assert counts.pop(("mb1", "delta")) == (1638, 1734)
    assert counts.pop(("ann1", "beta")) == (4082, 4178)
    assert {name for _, name in counts} == {"shift0", "shift1"}
    assert all(changed == total for changed, total in counts.values()), counts


def test_cross_check_pool_is_no_larger_than_its_points_or_cpus(monkeypatch):
    """A large ``jobs`` asks for no more workers than there are points or CPUs, and
    a pool of one is no pool.  The executor is a serial fake: no process starts."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    serial = cross_check(n_max=4)
    points = len(serial.points)
    assert points == 38
    for jobs, cpus, size in ((5000, 64, points), (5000, 2, 2), (3, 64, 3), (5000, None, None)):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        FakePool.sizes.clear()
        assert cross_check(n_max=4, jobs=jobs) == serial, (jobs, cpus)
        assert FakePool.sizes == ([size] if size else []), (jobs, cpus)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    FakePool.sizes.clear()
    assert len(cross_check(kinds=["d6"], n_max=2, jobs=5000).points) == 1
    assert FakePool.sizes == []


def test_order_table_matches_order_mod():
    for N in range(1, ORACLE_MAX_N + 1):
        assert len(order_table(N)) == N
        assert all(order_table(N)[v] == order_mod(v, N) for v in range(N)), N


def test_shared_presentation_is_read_only():
    """``presentation_of`` hands one spec to every caller, so its orders cannot be changed."""
    q = QuotientType("d21", m=2, n=3)
    pres = presentation_of(q)
    assert presentation_of(QuotientType("d21", m=2, n=3)) is pres
    for orders in (pres.elliptic_orders, presentation_of(QuotientType("d6")).elliptic_orders):
        with pytest.raises(TypeError):
            orders["x1"] = 5
    with pytest.raises(TypeError):
        del pres.elliptic_orders["x1"]
    assert pres.elliptic_orders == {"x1": 2, "x2": 3}
    assert enumerate_smooth(q, 6) == [(3, 4, 5, 0)]


def test_caches_are_bounded_per_point_and_empty_at_import():
    """Per-point state sits in small LRUs; only the per-N tables are kept unbounded,
    and none of them is built when the package is imported."""
    from necsurf.bsk import point_rules

    assert presentation_of.cache_info().maxsize == 64
    assert point_rules.cache_info().maxsize == 16
    probe = (
        "import necsurf.cli, necsurf.oracle as o, necsurf.bsk as b, necsurf.zmod as z; "
        "print(*(f.cache_info().currsize for f in "
        "(z.order_table, o._residues, b.presentation_of, b.point_rules)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0"] * 4
    # the per-point memo of surfaces lives on the compiled point, in its LRU
    q, N = QuotientType("ann1", m=12), 12
    oracle_report(q, N)
    assert point_rules(q, N)._surfaces
    assert set(point_rules(q, N)._surfaces.values()) == {o.surface for o in oracle_report(q, N).orbits}


def test_orbit_count_unit_and_invariant_assertions_fire(monkeypatch):
    """The checks on the unit generators and on the orbit invariants are live:
    each fires, by name, once its premise is broken on purpose."""
    q, N = QuotientType("mb1", m=4), 12
    maps = enumerate_smooth(q, N)
    first = BskMap(q, N, maps[0])
    scaled = BskMap(q, N, tuple(2 * v % N for v in maps[0]))
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "unit_generators", lambda n: (2,))  # not a unit mod 12
        with pytest.raises(AssertionError, match=re.escape(f"equivalence left the smooth set: {scaled}")):
            orbit_count(q, maps, moves_for(q), N)
    scaled = BskMap(q, N, tuple(oracle.unit_generators(N)[0] * v % N for v in maps[0]))
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_unit_normaliser", lambda pres, n: lambda vec: vec)
        with pytest.raises(AssertionError, match=re.escape(f"{scaled} does not normalise to {first}")):
            orbit_count(q, maps, moves_for(q), N)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_invariants", lambda rules, vec: (vec,))
        with pytest.raises(AssertionError, match=r"orbit invariants vary within an orbit of mb1\(4\) at N=12"):
            orbit_count(q, maps, moves_for(q), N)
