"""Brute-force verification of the closed-form classification.

The oracle enumerates the smooth assignments for a quotient family at a
given order, one smooth map per unit class, then counts equivalence
classes under the action of units of Z_N composed with outer automorphism
moves of the NEC group, and compares the orbit tallies against the
closed-form counts.

Only outer moves matter: inner automorphisms act trivially on
homomorphisms into an abelian target (theta(h g h^-1) = theta(g)), so the
equivalence relation theta' = c * (theta o phi) is generated by unit
multiplication together with a finite move set.  For the once-punctured
Moebius band, the once-punctured annulus and the twice-punctured disc the
move set generates the full outer automorphism group, so orbit counts are
exact ground truth.  For the remaining families the moves are the ones the
uniqueness arguments actually use (cycle rotation); a mismatch there is
reported verbatim, never reconciled.

The orbits are counted without a search.  Z_N^* acts freely on smooth
maps, because their images generate Z_N, so every unit class has phi(N)
members and one unit-canonical form.  Only those forms are enumerated,
and a union-find joins them along the move edges, each move image
normalised before its lookup; the map count is phi(N) times the number of
forms.  The moves commute with units, so forms whose move images
normalise back into the set stand for a set of maps closed under units
and moves.  The surface invariants are computed on every canonical map
and asserted constant on each orbit.  The product search over every
smooth map is the tests' reference for the canonical enumeration.

Each point's rules and invariants are compiled once (``bsk.point_rules``):
the enumeration's leaves and the unit-generator checks take only the
first failure, so a ``BskMap`` is built only for a map that is kept or
inside a failing assertion's message, and ``_invariants`` reads the
surface, reversal and connector orders of each map off the compiled
point.  Each move keeps the rows that differ from the identity, and its
``apply`` recomputes only those.  Per-N tables, built on first use and
kept, since N is at most ``ORACLE_MAX_N``: the element orders
(``zmod.order_table``) and the residues of each order
(``_residues_by_order``), which give the elliptic generators' domains;
per p^a || N, the scale of each residue (``_unit_scales``) that
``_unit_normaliser`` sums into the normalising unit; and for each
residue v the units that take it to its least multiple gcd(v, N)
(``_least_units``), where ``_least_multiple`` starts.  Per-point state
lives in the call or on the compiled points in the small LRUs of ``bsk``.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, lru_cache
from typing import NamedTuple

from .bsk import BskMap, point_rules, presentation_of, surface_of
from .classify import classification_buckets, parameter_space
from .signatures import FAMILIES, PresentationSpec, QuotientType, SurfaceTopology
from .zmod import crt_solve, euler_phi, factorize, order_table, unit_generators, units

ORACLE_MAX_N = 192


class _MoveFields(NamedTuple):
    name: str
    rows: tuple[tuple[tuple[int, int], ...], ...]


class AutMove(_MoveFields):
    """An outer automorphism move, recorded additively on image vectors.

    Because the target is abelian, a substitution g -> word(generators)
    acts on an image vector linearly; ``rows[i]`` holds the
    (coefficient, source position) terms whose sum becomes the new image
    of the generator at position i of ``PresentationSpec.gens``.  Most
    rows are the identity ``((1, i),)``; ``changed`` keeps the others,
    with their positions, and ``apply`` recomputes only those.  An
    immutable tuple of its fields; ``changed`` is cached in an instance
    dict, outside the fields, so it is neither compared nor shown.
    """

    @cached_property
    def changed(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        return tuple((i, row) for i, row in enumerate(self.rows) if row != ((1, i),))

    def apply(self, vector: tuple[int, ...], N: int) -> tuple[int, ...]:
        out = list(vector)
        for i, row in self.changed:
            out[i] = sum([c * vector[src] for c, src in row]) % N
        return tuple(out)


def moves_for(q: QuotientType) -> tuple[AutMove, ...]:
    """The move set used to decide equivalence for this family.

    The family's outer moves (``Family.moves``), less any that would send
    an elliptic generator to one of another order (the d21 cone swap when
    m != n).  Every family with a period cycle of two or more corners
    also gets the rotation that shifts the cycle's ring by one.
    Generators a move does not name keep their image.
    """
    pres = presentation_of(q)
    orders = pres.elliptic_orders
    pos = {g: i for i, g in enumerate(pres.gens)}
    moves = [
        (name, {pos[g]: tuple((c, pos[src]) for c, src in expr) for g, expr in mapping.items()})
        for name, mapping in FAMILIES[q.kind].moves
        if all(
            orders[g] == orders.get(src)
            for g, expr in mapping.items()
            if g in orders
            for _, src in expr
        )
    ]
    for idx, ring in enumerate(pres.rings):
        if len(ring) > 2:
            *reflections, tail = ring  # the tail stays equal to the new c_0
            rows = {r: ((1, reflections[j - 1]),) for j, r in enumerate(reflections)}
            rows[tail] = ((1, reflections[-1]),)
            moves.append((f"shift{idx}", rows))
    return tuple(
        AutMove(name, tuple(rows.get(i, ((1, i),)) for i in range(len(pres.gens))))
        for name, rows in moves
    )


@lru_cache(maxsize=None)
def _residues_by_order(N: int) -> dict[int, tuple[int, ...]]:
    """The residues mod N of each order d | N, ascending, keyed by d; built once per N."""
    by_order: dict[int, list[int]] = {}
    for v, d in enumerate(order_table(N)):
        by_order.setdefault(d, []).append(v)
    return {d: tuple(vs) for d, vs in by_order.items()}


def _free_domains(pres: PresentationSpec, N: int) -> list[tuple[int, ...]]:
    reflections = set(pres.reflection_names)
    by_order = _residues_by_order(N)
    domains = []
    for g in pres.free:
        if g in pres.elliptic_orders:
            domains.append(by_order.get(pres.elliptic_orders[g], ()))
        elif g in reflections:
            domains.append((0, N // 2) if N % 2 == 0 else (0,))
        else:
            domains.append(tuple(range(N)))
    return domains


def enumerate_smooth(q: QuotientType, N: int) -> list[BskMap]:
    """One smooth map per unit class for (q, N): its unit-canonical form.

    Every unit class has phi(N) members and exactly one canonical one
    (see ``orbit_count`` and ``_unit_normaliser``): for each p^a || N,
    its first free image that is a unit mod p is 1 mod p^a.  The search
    runs depth first over the free generators, values ascending, so the
    maps come in ascending order of their free images; images determined
    by relations are filled in.  At each position it keeps only the
    values that obey the rule at the primes with no unit image yet, from
    a table memoised on that set of primes.  A choice that leaves a prime
    without a unit image cannot generate Z_N and is never built.
    """
    if N < 2 or N > ORACLE_MAX_N:
        raise ValueError(f"order {N} outside the enumeration bound 2..{ORACLE_MAX_N}")
    rules = point_rules(q, N)
    pres = rules.pres
    domains = _free_domains(pres, N)
    tables: list[dict[frozenset, list]] = [{} for _ in domains]

    def allowed(pos: int, pending: frozenset) -> list[tuple[int, frozenset]]:
        table = tables[pos]
        if pending not in table:
            table[pending] = [
                (v, frozenset((p, pa) for p, pa in pending if v % p == 0))
                for v in domains[pos]
                if all(v % pa == 1 for p, pa in pending if v % p)
            ]
        return table[pending]

    out = []

    def search(pos: int, pending: frozenset, images: tuple[int, ...]) -> None:
        if pos == len(domains):
            if not pending:
                vec = pres.complete(images, N)
                if rules.first_failure(vec) is None:
                    out.append(BskMap(q, N, vec))
            return
        for v, rest in allowed(pos, pending):
            search(pos + 1, rest, images + (v,))

    search(0, frozenset((p, p**a) for p, a in factorize(N)), ())
    return out


class OrbitInfo(NamedTuple):
    representative: BskMap
    size: int
    surface: SurfaceTopology
    reversing: bool | None
    connector_orders: tuple[int, ...]


class OrbitReport(NamedTuple):
    quotient: QuotientType | None
    N: int
    map_count: int
    orbit_count: int
    orbits: tuple[OrbitInfo, ...]

    def buckets(self) -> dict[tuple, int]:
        out: dict[tuple, int] = {}
        for orbit in self.orbits:
            key = (orbit.surface.orientable, orbit.reversing, orbit.surface.boundary_count)
            out[key] = out.get(key, 0) + 1
        return out


def _invariants(bmap: BskMap) -> tuple[SurfaceTopology, bool | None, tuple[int, ...]]:
    """Surface, reversal and sorted connector orders of a map; raises if it is not smooth.

    The surface comes from ``surface_of``, the rest from the compiled point.
    """
    surface = surface_of(bmap)
    rules, vec = point_rules(bmap.quotient, bmap.N), bmap.images
    reversing = rules.reversing(vec) if surface.orientable else None
    return surface, reversing, rules.connector_orders(vec)


@lru_cache(maxsize=None)
def _unit_scales(N: int) -> tuple[tuple[int | None, ...], ...]:
    """Per p^a || N, ascending: ``scale[v]`` = e * v^-1 mod N for each residue v, None when p | v.

    e is the CRT idempotent that is 1 mod p^a and 0 mod N/p^a, and v^-1
    the inverse of v mod p^a.  Built once per N and kept; the oracle's N
    is at most ``ORACLE_MAX_N``.
    """
    tables = []
    for p, a in factorize(N):
        q = p**a
        idempotent = crt_solve(1, q, 0, N // q)
        tables.append(tuple(idempotent * pow(v, -1, q) % N if v % p else None for v in range(N)))
    return tuple(tables)


def _unit_normaliser(pres: PresentationSpec, N: int):
    """The unit-canonical form of an image vector, or None if it does not generate Z_N.

    Z_N splits by CRT into the Z_{p^a} over p^a || N.  In each component
    the first free image (in ``free`` order) that is a unit mod p is
    scaled to 1; the unit doing that is the CRT sum of the per-component
    inverses, each times the idempotent that is 1 mod p^a and 0 mod
    N/p^a, read from the tables of ``_unit_scales``.  Two vectors get the
    same form exactly when one is a unit multiple of the other.  The free
    images generate Z_N whenever all the images do, and free order, unlike
    ``gens`` order, puts no derived image (the last connector) before the
    images it is derived from, so ``enumerate_smooth`` can fix each
    prime's unit as it goes.  Images are residues in 0..N-1.
    """
    free = pres.free_positions
    scales = _unit_scales(N)

    def normalise(vec: tuple[int, ...]) -> tuple[int, ...] | None:
        u = 0
        for scale in scales:
            for i in free:
                part = scale[vec[i]]
                if part is not None:
                    u += part
                    break
            else:
                return None
        return tuple([u * v % N for v in vec])

    return normalise


@lru_cache(maxsize=None)
def _least_units(N: int) -> tuple[tuple[int, ...], ...]:
    """``least[v]``: the units u, ascending, with u * v = gcd(v, N) mod N.

    The unit multiples of v are the residues of its order, and gcd(v, N)
    is the least of them, so these are the units that make v least.  One
    entry per residue, tau(N) * phi(N) units in all; built once per N.
    """
    unit_list, least = units(N), []
    for v in range(N):
        d = math.gcd(v, N) % N
        least.append(tuple(u for u in unit_list if u * v % N == d))
    return tuple(least)


def _least_multiple(vec: tuple[int, ...], order: tuple[int, ...], N: int) -> tuple[int, ...]:
    """The least of the unit multiples u * vec, read at the positions ``order``.

    The first position's least multiple and its units come from
    ``_least_units``; each later position keeps the units that make its
    image least among those left.
    """
    candidates = _least_units(N)[vec[order[0]]]
    for i in order[1:]:
        if len(candidates) == 1:
            break
        v = vec[i]
        least = min([u * v % N for u in candidates])
        candidates = [u for u in candidates if u * v % N == least]
    u = candidates[0]
    return tuple([u * vec[i] % N for i in order])


def orbit_count(maps: list[BskMap], moves: tuple[AutMove, ...], N: int) -> OrbitReport:
    """Orbits of theta ~ c * (theta o phi), from one smooth map per unit class.

    Z_N^* acts freely on smooth maps: u * theta = theta means (u - 1) kills
    every image, and the images generate Z_N, so u = 1.  Each unit class
    therefore has exactly phi(N) members and one unit-canonical form
    (``_unit_normaliser``), and ``maps`` holds those forms, as
    ``enumerate_smooth`` returns them.  The moves are Z-linear, so they
    commute with unit multiplication, and a union-find joins the classes
    along the move edges; each move image is normalised before its lookup.

    Asserted on the way: for every map and every generator g of Z_N^*
    (``unit_generators``), g * theta is smooth and normalises back to
    theta; every move image normalises to a map of the set; and the
    invariants, computed on every map, are constant on each orbit.  An
    orbit of c classes has c * phi(N) maps.  It is represented by the
    least image vector among the unit multiples of its classes, and the
    orbits come in order of the least free-image tuple among those
    multiples: the order in which an ascending search over every smooth
    map meets them first.  Maps of another order than N, of two
    quotients, or not in unit-canonical form raise ValueError.
    """
    if not maps:
        return OrbitReport(None, N, 0, 0, ())
    q = maps[0].quotient
    for m in maps:
        if m.N != N or m.quotient != q:
            raise ValueError(f"orbit_count of {q} at N={N} was given the map {m}")
    # first, so that a map that is not smooth raises as surface_of does;
    # equal invariants share one object, which keeps the list small
    distinct: dict[tuple, tuple] = {}
    invariants = [distinct.setdefault(inv, inv) for inv in map(_invariants, maps)]
    rules = point_rules(q, N)
    pres = rules.pres
    normalise = _unit_normaliser(pres, N)
    for m in maps:
        if normalise(m.images) != m.images:
            raise ValueError(f"orbit_count of {q} at N={N} was given {m}, not in unit-canonical form")
    index = {m.images: i for i, m in enumerate(maps)}
    assert len(index) == len(maps)
    parent = list(range(len(maps)))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    gens = unit_generators(N)
    for i, m in enumerate(maps):
        vec = m.images
        for g in gens:
            scaled = tuple([g * v % N for v in vec])
            assert rules.first_failure(scaled) is None, (
                f"equivalence left the smooth set: {BskMap(q, N, scaled)}"
            )
            assert normalise(scaled) == vec, f"{BskMap(q, N, scaled)} does not normalise to {m}"
        for move in moves:
            moved = move.apply(vec, N)
            j = index.get(normalise(moved))
            assert j is not None, f"equivalence left the smooth set: {BskMap(q, N, moved)}"
            parent[find(j)] = find(i)
    members: dict[int, list[int]] = {}
    for i in range(len(maps)):
        members.setdefault(find(i), []).append(i)
    phi = euler_phi(N)
    everything = tuple(range(len(pres.gens)))
    free = pres.free_positions
    orbits = []
    for orbit in members.values():
        inv = invariants[orbit[0]]
        for i in orbit[1:]:
            assert invariants[i] == inv, f"orbit invariants vary within an orbit of {q} at N={N}"
        rep = min(_least_multiple(maps[i].images, everything, N) for i in orbit)
        first = min(_least_multiple(maps[i].images, free, N) for i in orbit)
        orbits.append((first, OrbitInfo(BskMap(q, N, rep), len(orbit) * phi, *inv)))
    orbits.sort(key=lambda entry: entry[0])
    return OrbitReport(q, N, len(maps) * phi, len(orbits), tuple(info for _, info in orbits))


def oracle_report(q: QuotientType, N: int) -> OrbitReport:
    return orbit_count(enumerate_smooth(q, N), moves_for(q), N)


# --- cross-checking against the closed forms -------------------------------

class CheckPoint(NamedTuple):
    quotient: QuotientType
    N: int
    ok: bool
    oracle_buckets: tuple
    expected_buckets: tuple
    map_count: int
    orbit_count: int
    note: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        extra = f" ({self.note})" if self.note else ""
        return (
            f"{self.quotient.label():>14} N={self.N:<3} maps={self.map_count:<5} "
            f"orbits={self.orbit_count:<4} {status}{extra}"
        )


class CrossCheckReport(NamedTuple):
    points: tuple[CheckPoint, ...]

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def failures(self) -> tuple[CheckPoint, ...]:
        return tuple(p for p in self.points if not p.ok)


def check_point(q: QuotientType, N: int) -> CheckPoint:
    """Compare oracle orbits with the closed-form counts at one parameter point."""
    report = oracle_report(q, N)
    got = report.buckets()
    want = classification_buckets(q, N)
    ok = got == want
    note = ""
    if not ok and not FAMILIES[q.kind].full_moves:
        note = "proof-level move set (units + cycle rotation); discrepancy surfaced, not reconciled"
    return CheckPoint(
        q,
        N,
        ok,
        tuple(sorted(got.items())),
        tuple(sorted(want.items())),
        report.map_count,
        report.orbit_count,
        note,
    )


def check_points(kinds=None, n_max: int = 24) -> list[tuple[QuotientType, int]]:
    """The (quotient, N) points of a sweep; bad bounds or kinds raise before any work.

    Only ``kinds=None`` means every kind; an empty list raises.  A kind
    named twice is swept once, in the order it was first named.
    """
    if not 2 <= n_max <= ORACLE_MAX_N:
        raise ValueError(f"need 2 <= n_max <= {ORACLE_MAX_N}, got n_max={n_max}")
    kinds = tuple(FAMILIES) if kinds is None else tuple(dict.fromkeys(kinds))
    if not kinds:
        raise ValueError("no quotient kind to sweep")
    for kind in kinds:
        if kind not in FAMILIES:
            raise ValueError(f"unknown quotient kind {kind!r}")
    out = []
    for N in range(2, n_max + 1):
        for kind in kinds:
            for q in parameter_space(kind, N):
                out.append((q, N))
    return out


def cross_check(kinds=None, n_max: int = 24, jobs: int = 1) -> CrossCheckReport:
    """Sweep oracle vs closed form over every admissible parameter point."""
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got jobs={jobs}")
    points = check_points(kinds, n_max)
    # the fork start method starts all max_workers processes at the first
    # submit, so the pool is no larger than the points or the CPUs
    workers = min(jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(check_point, *zip(*points), chunksize=8))
    else:
        results = [check_point(q, N) for q, N in points]
    return CrossCheckReport(tuple(results))
