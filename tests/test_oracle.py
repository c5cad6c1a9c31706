"""Enumeration, orbit counting, and the oracle-vs-formula cross-check."""

import concurrent.futures
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
from necsurf.bsk import BskMap, is_smooth, orientability, presentation_of
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
from necsurf.signatures import QuotientType
from necsurf.zmod import crt_solve, divisors, euler_phi, factorize, order_mod, order_table, units


def full_smooth(q, N):
    """Every smooth map for (q, N): the product search over all free images,
    ascending, kept as the reference for the unit-canonical ``enumerate_smooth``."""
    pres = presentation_of(q)
    domains = oracle._free_domains(pres, N)
    maps = (BskMap(q, N, pres.complete(combo, N)) for combo in itertools.product(*domains))
    return [bmap for bmap in maps if is_smooth(bmap)]


def orbit_count_bfs(maps, moves, N):
    """Orbits by breadth-first closure under every unit and every move.

    The search ``orbit_count`` replaced, kept as its reference: it visits
    all phi(N) unit multiples of every map, so it needs neither the
    freeness of the unit action nor the generating set.
    """
    if not maps:
        return OrbitReport(None, N, 0, 0, ())
    q = maps[0].quotient
    index = {m.images: i for i, m in enumerate(maps)}
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
            vec = maps[queue.pop()].images
            neighbours = [tuple(u * v % N for v in vec) for u in unit_list]
            neighbours += [move.apply(vec, N) for move in moves]
            for nb in neighbours:
                j = index.get(nb)
                assert j is not None, f"equivalence left the smooth set: {BskMap(q, N, nb)}"
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
                    members.append(j)
        inv = _invariants(maps[members[0]])
        for i in members[1:]:
            assert _invariants(maps[i]) == inv, (
                f"orbit invariants vary within an orbit of {q} at N={N}"
            )
        rep = maps[min(members, key=lambda i: maps[i].images)]
        orbits.append(OrbitInfo(rep, len(members), inv[0], inv[1], inv[2]))
    return OrbitReport(q, N, len(maps), len(orbits), tuple(orbits))


def unit_normaliser_reference(pres, N):
    """The unit-canonical form, with per-prime inverse dicts and a first-unit search.

    The body ``oracle._unit_normaliser`` had before it read the per-N
    scale tables of ``oracle._unit_scales``, kept as their reference.
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


def least_multiple_reference(vec, order, N):
    """The least unit multiple of ``vec`` at the positions ``order``, by a scan of every unit.

    The body ``oracle._least_multiple`` had before it started from the
    per-N table ``oracle._least_units``, kept as its reference.
    """
    candidates = units(N)
    for i in order:
        least = min(u * vec[i] % N for u in candidates)
        candidates = [u for u in candidates if u * vec[i] % N == least]
        if len(candidates) == 1:
            break
    return tuple(candidates[0] * vec[i] % N for i in order)


def apply_reference(move, vector, N):
    """A move's image by its definition: every row summed, the identity rows included."""
    return tuple(sum(c * vector[src] for c, src in row) % N for row in move.rows)


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
    maps = full_smooth(q, 6)
    assert len(maps) == 2
    # x1 and c are forced; only x2 varies over the two elements of order 3
    assert sorted(m.image_dict["x2"] for m in maps) == [2, 4]
    assert all(m.image_dict["x1"] == 3 and m.image_dict["c"] == 0 for m in maps)
    # one unit class: its canonical form has x2 = 1 mod 3 (x1 = 3 is 1 mod 2 already)
    assert [m.image_dict["x2"] for m in enumerate_smooth(q, 6)] == [4]
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
    report = orbit_count(maps, (), 2)
    assert report.orbit_count == 1


def test_orbit_count_matches_bfs_reference():
    """The report from the canonical maps equals the breadth-first search over
    every smooth map, field for field, representatives and order included, at
    every point with N <= 24."""
    points = check_points(None, 24)
    for q, N in points:
        moves = moves_for(q)
        assert oracle_report(q, N) == orbit_count_bfs(full_smooth(q, N), moves, N), (q, N)
    assert len(points) == 527


def test_canonical_maps_stand_for_every_smooth_map(smooth_maps_48, sweep_48):
    """At every point with N <= 48 the unit multiples of the canonical maps are
    the whole smooth set, phi(N) distinct ones per canonical map, and the
    oracle's map count is its size."""
    report, _ = sweep_48
    assert len(report.points) == len(smooth_maps_48) == 1291
    for point, ((q, N), maps) in zip(report.points, smooth_maps_48.items()):
        assert (point.quotient, point.N) == (q, N)
        canonical = enumerate_smooth(q, N)
        multiples = {tuple(u * v % N for v in m.images) for m in canonical for u in units(N)}
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
            orbit_count(maps, moves_for(q), N)
    else:
        # without moves no class leads to another, so a dropped class is seen
        # only against the full reference; a unit multiple in its place is
        # not canonical
        maps[drop] = BskMap(q, N, tuple(3 * v % N for v in maps[drop].images))
        with pytest.raises(ValueError, match="not in unit-canonical form"):
            orbit_count(maps, moves_for(q), N)


def test_orbit_count_rejects_every_other_unit_multiple():
    """A unit class has one canonical member: u * theta with u != 1 is refused, by name."""
    q = QuotientType("ann1", m=3)
    maps = enumerate_smooth(q, 12)
    assert maps
    for theta in maps:
        for u in units(12)[1:]:
            other = BskMap(q, 12, tuple(u * v % 12 for v in theta.images))
            with pytest.raises(ValueError, match=re.escape(f"{other}, not in unit-canonical form")):
                orbit_count([other], moves_for(q), 12)


def test_orbit_count_rejects_a_map_that_is_not_smooth():
    q = QuotientType("d6")
    bmap = BskMap(q, 2, (0,) * 8)  # no image generates Z_2
    assert not is_smooth(bmap)
    with pytest.raises(ValueError, match="not smooth"):
        orbit_count([bmap], (), 2)
    with pytest.raises(ValueError, match="not smooth"):
        orbit_count_bfs([bmap], (), 2)


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
        maps = full_smooth(q, N)
        assert maps
        for move in moves_for(q):
            for m in maps:
                assert is_smooth(BskMap(q, N, move.apply(m.images, N)))


def test_enumeration_order_independent():
    """The smooth-map set does not depend on the generator search order."""
    for q, N in ((QuotientType("ann1", m=3), 6), (QuotientType("mb1", m=2), 4)):
        pres = presentation_of(q)
        want = {m.images for m in full_smooth(q, N)}
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


def test_orbit_count_rejects_maps_of_another_order_or_quotient():
    """Not the late "equivalence left the smooth set" of a mismatched call."""
    q = QuotientType("mb1", m=3)
    maps = enumerate_smooth(q, 6)
    with pytest.raises(ValueError, match=r"mb1\(3\) at N=12 was given the map mb1\(3\)@Z_6"):
        orbit_count(maps, moves_for(q), 12)
    other = enumerate_smooth(QuotientType("mb1", m=6), 6)
    assert maps and other
    with pytest.raises(ValueError, match=r"mb1\(3\) at N=6 was given the map mb1\(6\)@Z_6"):
        orbit_count(maps + other, moves_for(q), 6)


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


def test_least_multiple_matches_scan_reference():
    """On every canonical map of every point with N <= 48, read at all positions and
    at the free ones, and on seeded raw vectors whose first entry is zero, a non-unit
    or any residue, read in a shuffled order of some of their positions."""
    maps = 0
    for q, N in check_points(None, 48):
        pres = presentation_of(q)
        everything = tuple(range(len(pres.gens)))
        for m in enumerate_smooth(q, N):
            for order in (everything, pres.free_positions):
                want = least_multiple_reference(m.images, order, N)
                assert oracle._least_multiple(m.images, order, N) == want, (q, N, m, order)
            maps += 1
    assert maps == 7583
    rng = random.Random(20261019)
    for N in range(2, ORACLE_MAX_N + 1):
        non_units = [v for v in range(2, N) if math.gcd(v, N) > 1] or [0]
        for first in (0, rng.choice(non_units), rng.randrange(N)):
            for _ in range(4):
                vec = (first, *(rng.randrange(N) for _ in range(rng.randint(0, 6))))
                order = (0, *rng.sample(range(1, len(vec)), rng.randint(0, len(vec) - 1)))
                got = oracle._least_multiple(vec, order, N)
                assert got == least_multiple_reference(vec, order, N), (N, vec, order)
    assert oracle._least_multiple((0, 0, 0), (0, 1, 2), 12) == (0, 0, 0)


def test_least_units_table_matches_definition():
    """``_least_units(N)[v]`` is every unit u with u * v = gcd(v, N) mod N, and that
    residue is the least unit multiple of v: tau(N) * phi(N) units per N."""
    for N in range(2, ORACLE_MAX_N + 1):
        table = oracle._least_units(N)
        assert len(table) == N
        for v in range(N):
            d = math.gcd(v, N)
            assert table[v] == tuple(u for u in units(N) if (u * v - d) % N == 0), (N, v)
            assert min(u * v % N for u in units(N)) == d % N, (N, v)
        assert sum(map(len, table)) == len(divisors(N)) * euler_phi(N), N


def test_residues_by_order_matches_order_scan():
    for N in range(2, ORACLE_MAX_N + 1):
        table = oracle._residues_by_order(N)
        assert sorted(table) == list(divisors(N)), N
        for d, residues in table.items():
            assert residues == tuple(v for v in range(N) if order_mod(v, N) == d), (N, d)


def test_compiled_moves_match_row_sums():
    """Every move of every kind at each point with N <= 24: on its canonical maps and
    on seeded raw vectors, ``apply`` equals the sum of every row."""
    rng = random.Random(20261019)
    seen = set()
    for q, N in check_points(None, 24):
        pres = presentation_of(q)
        vectors = [m.images for m in enumerate_smooth(q, N)]
        vectors += [tuple(rng.randrange(N) for _ in pres.gens) for _ in range(4)]
        for move in moves_for(q):
            for vec in vectors:
                assert move.apply(vec, N) == apply_reference(move, vec, N), (q, N, move.name, vec)
            seen.add((q.kind, move.name))
    assert seen == {
        ("ann1", "alpha"), ("ann1", "beta"), ("ann2", "shift1"), ("d12", "shift0"),
        ("d14", "shift0"), ("d21", "alpha"), ("d21", "beta"), ("d2c-2m", "shift0"),
        ("d2c-3m", "shift0"), ("d6", "shift0"), ("mb1", "delta"), ("mb1", "gamma"),
        ("mb2", "shift0"),
    }


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
    assert [m.images for m in enumerate_smooth(q, 6)] == [(3, 4, 5, 0)]


def test_caches_are_bounded_per_point_and_empty_at_import():
    """Per-point state sits in small LRUs; only the per-N tables are kept unbounded,
    and none of them is built when the package is imported."""
    from necsurf.bsk import point_rules

    assert presentation_of.cache_info().maxsize == 64
    assert point_rules.cache_info().maxsize == 16
    probe = (
        "import necsurf.cli, necsurf.oracle as o, necsurf.bsk as b, necsurf.zmod as z; "
        "print(*(f.cache_info().currsize for f in "
        "(z.order_table, o._unit_scales, o._least_units, o._residues_by_order, "
        "b.presentation_of, b.point_rules)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0"] * 6
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
    scaled = BskMap(q, N, tuple(2 * v % N for v in maps[0].images))
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "unit_generators", lambda n: (2,))  # not a unit mod 12
        with pytest.raises(AssertionError, match=re.escape(f"equivalence left the smooth set: {scaled}")):
            orbit_count(maps, moves_for(q), N)
    scaled = BskMap(q, N, tuple(oracle.unit_generators(N)[0] * v % N for v in maps[0].images))
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_unit_normaliser", lambda pres, n: lambda vec: vec)
        with pytest.raises(AssertionError, match=re.escape(f"{scaled} does not normalise to {maps[0]}")):
            orbit_count(maps, moves_for(q), N)
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_invariants", lambda bmap: (bmap.images,))
        with pytest.raises(AssertionError, match=r"orbit invariants vary within an orbit of mb1\(4\) at N=12"):
            orbit_count(maps, moves_for(q), N)
