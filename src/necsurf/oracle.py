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
moves, together with the units, make every equivalence the outer
automorphism group makes, so orbit counts are exact ground truth.  For
the remaining families the moves are the ones the uniqueness arguments
actually use (cycle rotation); a mismatch there is reported verbatim,
never reconciled.

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

A map is its residue vector, read against one compiled point
(``bsk.point_rules``); ``canonical_vectors`` searches any bordered
signature's point, and its leaves, the unit-generator checks and
``_invariants`` read the compiled point.  Each orbit is named by its
first canonical form in enumeration order; a ``BskMap`` is built only
for that representative, whose surface ``surface_of`` must match its
orbit's, or inside a failing assertion's message.  Each move keeps only
the rows it changes, and its ``apply`` recomputes only those.  Two
per-N records are built on first use and kept, since N is at most
``ORACLE_MAX_N``: the element orders (``zmod.order_table``), and the
residue tables of ``_residues``.  Those hold the residues of each order,
which give the elliptic generators' domains; per residue, the bitmasks
of the primes of N it is a unit at and of those whose prime power it is
1 modulo, which ``canonical_vectors`` reads; and per p^a || N, the scale
of each residue that ``_unit_normaliser`` sums into the normalising
unit.  Per-point state lives in the call or on the compiled points in
the small LRUs of ``bsk``.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from typing import NamedTuple

from .bsk import BskMap, PointRules, point_rules, presentation_of, surface_of
from .classify import bucket_counts, classification_buckets, parameter_space
from .signatures import FAMILIES, PresentationSpec, QuotientType, SurfaceTopology
from .zmod import crt_solve, euler_phi, factorize, order_table, unit_generators

ORACLE_MAX_N = 192


class AutMove(NamedTuple):
    """An outer automorphism move, recorded additively on image vectors.

    Because the target is abelian, a substitution g -> word(generators)
    acts on an image vector linearly.  ``changed`` holds one
    (position, terms) row per generator whose image the move changes, by
    its position in ``PresentationSpec.gens``: the (coefficient, source
    position) terms whose sum becomes its new image.  Every other image
    stays, and ``apply`` recomputes only these rows.
    """

    name: str
    changed: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

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
    also gets the rotation that shifts the cycle's ring by one.  Each
    move keeps only the rows of the generators it names.  Where
    ``full_moves`` holds, these moves together with the units make every
    equivalence the outer automorphism group makes.
    """
    pres = presentation_of(q)
    orders = pres.elliptic_orders
    pos = {g: i for i, g in enumerate(pres.gens)}
    moves = [
        AutMove(name, tuple(
            (pos[g], tuple((c, pos[src]) for c, src in expr)) for g, expr in mapping.items()
        ))
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
            rows = tuple((r, ((1, reflections[j - 1]),)) for j, r in enumerate(reflections))
            moves.append(AutMove(f"shift{idx}", rows + ((tail, ((1, reflections[-1]),)),)))
    return tuple(moves)


class _Residues(NamedTuple):
    """The per-N residue tables of the oracle; ``_residues(N)`` builds them once per N.

    ``by_order[d]`` holds the residues of order d | N, ascending.  Prime i is
    the i-th p of ``factorize(N)``, with p^a || N.  ``scales[i][v]`` is
    e * v^-1 mod N, with e the CRT idempotent that is 1 mod p^a and 0 mod
    N/p^a and v^-1 the inverse of v mod p^a, or None when p | v.  Bit i of
    ``unit[v]`` is set when v is a unit at p, which is where ``scales[i][v]``
    is not None, and bit i of ``one[v]`` when v = 1 mod p^a.
    """

    by_order: dict[int, tuple[int, ...]]
    scales: tuple[tuple[int | None, ...], ...]
    unit: tuple[int, ...]
    one: tuple[int, ...]


@lru_cache(maxsize=None)
def _residues(N: int) -> _Residues:
    """Kept for every N; the oracle's N is at most ``ORACLE_MAX_N``."""
    by_order: dict[int, list[int]] = {}
    for v, d in enumerate(order_table(N)):
        by_order.setdefault(d, []).append(v)
    scales, powers = [], []
    for p, a in factorize(N):
        q = p**a
        idempotent = crt_solve(1, q, 0, N // q)
        scales.append(tuple(idempotent * pow(v, -1, q) % N if v % p else None for v in range(N)))
        powers.append(q)
    unit = tuple(sum([1 << i for i, s in enumerate(scales) if s[v] is not None]) for v in range(N))
    one = tuple(sum([1 << i for i, q in enumerate(powers) if v % q == 1]) for v in range(N))
    return _Residues({d: tuple(vs) for d, vs in by_order.items()}, tuple(scales), unit, one)


def _free_domains(pres: PresentationSpec, N: int) -> list[tuple[int, ...]]:
    reflections = set(pres.reflection_names)
    by_order = _residues(N).by_order
    domains = []
    for g in pres.free:
        if g in pres.elliptic_orders:
            domains.append(by_order.get(pres.elliptic_orders[g], ()))
        elif g in reflections:
            domains.append((0, N // 2) if N % 2 == 0 else (0,))
        else:
            domains.append(tuple(range(N)))
    return domains


def canonical_vectors(rules: PointRules) -> list[tuple[int, ...]]:
    """One smooth vector per unit class at any bordered signature's point: its canonical form.

    Every unit class has phi(N) members and exactly one canonical one
    (see ``orbit_count`` and ``_unit_normaliser``): for each p^a || N,
    its first free image that is a unit mod p is 1 mod p^a.  The search
    runs depth first over the free generators, values ascending, so the
    vectors come in ascending order of their free images; images
    determined by relations are filled in.  The primes with no unit image
    yet are a bitmask over ``factorize(N)``, read against the masks of
    ``_residues``: a value v is allowed when each pending prime it is a
    unit at has v = 1 mod p^a, and leaves pending the primes dividing it.
    ``reach[pos]`` holds the primes some value of a free domain from
    ``pos`` on is a unit at; a choice that leaves pending a prime no later
    domain reaches cannot generate Z_N, and its subtree is never walked.
    So every leaf has a unit image at each prime.  The choices at each
    position are kept per pending mask for the one call.
    """
    pres, N = rules.pres, rules.N
    domains = _free_domains(pres, N)
    residues = _residues(N)
    unit, one = residues.unit, residues.one
    reach = [0] * (len(domains) + 1)
    for pos in reversed(range(len(domains))):
        reach[pos] = reach[pos + 1]
        for v in domains[pos]:
            reach[pos] |= unit[v]
    tables: list[dict[int, list[tuple[int, int]]]] = [{} for _ in domains]

    def allowed(pos: int, pending: int) -> list[tuple[int, int]]:
        choices = tables[pos].get(pending)
        if choices is None:
            unreached = ~reach[pos + 1]
            choices = tables[pos][pending] = [
                (v, rest) for v in domains[pos]
                if not unit[v] & pending & ~one[v] and not (rest := pending & ~unit[v]) & unreached
            ]
        return choices

    out = []
    last = len(domains)

    def search(pos: int, pending: int, images: tuple[int, ...]) -> None:
        if pos == last:
            vec = pres.complete(images, N)
            if rules.first_failure(vec) is None:
                out.append(vec)
            return
        for v, rest in allowed(pos, pending):
            search(pos + 1, rest, images + (v,))

    search(0, (1 << len(residues.scales)) - 1, ())
    return out


def enumerate_smooth(q: QuotientType, N: int) -> list[tuple[int, ...]]:
    """``canonical_vectors`` at (q, N); a bad N raises before any per-N table is built."""
    if N < 2 or N > ORACLE_MAX_N:
        raise ValueError(f"order {N} outside the enumeration bound 2..{ORACLE_MAX_N}")
    return canonical_vectors(point_rules(q, N))


class OrbitInfo(NamedTuple):
    representative: BskMap
    size: int
    surface: SurfaceTopology
    reversing: bool | None
    connector_orders: tuple[int, ...]


class OrbitReport(NamedTuple):
    quotient: QuotientType
    N: int
    map_count: int
    orbit_count: int
    orbits: tuple[OrbitInfo, ...]

    def buckets(self) -> dict[tuple, int]:
        """The ``bucket_counts`` of the orbits, one class each."""
        return bucket_counts((orbit.surface, orbit.reversing, 1) for orbit in self.orbits)


def _invariants(rules: PointRules, vec: tuple) -> tuple[SurfaceTopology, bool | None, tuple]:
    """Surface, reversal and sorted connector orders of a vector; raises if it is not smooth."""
    surface = rules.surface(vec)
    reversing = rules.reversing(vec) if surface.orientable else None
    return surface, reversing, rules.connector_orders(vec)


def _unit_normaliser(pres: PresentationSpec, N: int):
    """The unit-canonical form of an image vector, or None if it does not generate Z_N.

    Z_N splits by CRT into the Z_{p^a} over p^a || N.  In each component
    the first free image (in ``free`` order) that is a unit mod p is
    scaled to 1; the unit doing that is the CRT sum of the per-component
    inverses, each times the idempotent that is 1 mod p^a and 0 mod
    N/p^a, read from the scales of ``_residues``.  Two vectors get the
    same form exactly when one is a unit multiple of the other.  The free
    images generate Z_N whenever all the images do, and free order, unlike
    ``gens`` order, puts no derived image (the last connector) before the
    images it is derived from, so ``enumerate_smooth`` can fix each
    prime's unit as it goes.  Images are residues in 0..N-1.
    """
    free = pres.free_positions
    scales = _residues(N).scales

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


def orbit_count(q: QuotientType, maps: list, moves: tuple[AutMove, ...], N: int) -> OrbitReport:
    """Orbits of theta ~ c * (theta o phi) at (q, N), from one smooth vector per unit class.

    Z_N^* acts freely on smooth maps: u * theta = theta means (u - 1) kills
    every image, and the images generate Z_N, so u = 1.  Each unit class
    therefore has exactly phi(N) members and one unit-canonical form
    (``_unit_normaliser``), and ``maps`` holds those forms' residue
    vectors, as ``enumerate_smooth`` returns them.  The moves are Z-linear,
    so they commute with unit multiplication, and a union-find joins the
    classes along the move edges; each move image is normalised first.

    Asserted on the way: for every vector and every generator g of Z_N^*
    (``unit_generators``), g * theta is smooth and normalises back to
    theta; every move image normalises to a vector of the set; the
    invariants are constant on each orbit, and ``surface_of`` agrees on
    its representative: the ``BskMap`` of its first vector in ``maps``.
    An orbit of c classes has c * phi(N) maps.  The orbits come in the
    order of their first vectors, so from ``enumerate_smooth`` each is
    named by its least canonical form, by free images.  A vector not
    smooth at (q, N), such as one of another order or quotient, given
    twice, or not unit-canonical raises ValueError.
    """
    rules, bmap = point_rules(q, N), partial(BskMap, q, N)
    # first, so that a vector that is not smooth raises as surface_of does;
    # equal invariants share one object, which keeps the list small
    distinct: dict[tuple, tuple] = {}
    invariants = [distinct.setdefault(inv, inv) for inv in (_invariants(rules, v) for v in maps)]
    index: dict[tuple, int] = {}
    for i, vec in enumerate(maps):
        if index.setdefault(vec, i) != i:
            raise ValueError(f"orbit_count of {q} at N={N} was given {bmap(vec)} twice")
    normalise = _unit_normaliser(rules.pres, N)
    for vec in maps:
        if normalise(vec) != vec:
            raise ValueError(f"orbit_count of {q} at N={N} was given {bmap(vec)}, "
                             "not in unit-canonical form")
    parent = list(range(len(maps)))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    gens = unit_generators(N)
    for i, vec in enumerate(maps):
        for g in gens:
            scaled = tuple([g * v % N for v in vec])
            assert rules.first_failure(scaled) is None, (
                f"equivalence left the smooth set: {bmap(scaled)}"
            )
            assert normalise(scaled) == vec, f"{bmap(scaled)} does not normalise to {bmap(vec)}"
        for move in moves:
            moved = move.apply(vec, N)
            j = index.get(normalise(moved))
            assert j is not None, f"equivalence left the smooth set: {bmap(moved)}"
            parent[find(j)] = find(i)
    members: dict[int, list[int]] = {}
    for i in range(len(maps)):
        members.setdefault(find(i), []).append(i)
    phi = euler_phi(N)
    orbits = []
    for orbit in members.values():
        inv = invariants[orbit[0]]
        for i in orbit[1:]:
            assert invariants[i] == inv, f"orbit invariants vary within an orbit of {q} at N={N}"
        rep = bmap(maps[orbit[0]])
        assert surface_of(rep) == inv[0], f"{rep} has another surface than its orbit"
        orbits.append(OrbitInfo(rep, len(orbit) * phi, *inv))
    return OrbitReport(q, N, len(maps) * phi, len(orbits), tuple(orbits))


def oracle_report(q: QuotientType, N: int) -> OrbitReport:
    return orbit_count(q, enumerate_smooth(q, N), moves_for(q), N)


# --- cross-checking against the closed forms -------------------------------

class CheckPoint(NamedTuple):
    """The oracle's sorted buckets and the closed form's at one point; ok when they are equal."""

    quotient: QuotientType
    N: int
    oracle_buckets: tuple
    expected_buckets: tuple
    map_count: int
    orbit_count: int

    @property
    def ok(self) -> bool:
        return self.oracle_buckets == self.expected_buckets

    @property
    def note(self) -> str:
        if self.ok or FAMILIES[self.quotient.kind].full_moves:
            return ""
        return "proof-level move set (units + cycle rotation); discrepancy surfaced, not reconciled"

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
    """The oracle's orbit buckets and the closed-form buckets at one parameter point."""
    report = oracle_report(q, N)
    return CheckPoint(
        q,
        N,
        tuple(sorted(report.buckets().items())),
        tuple(sorted(classification_buckets(q, N).items())),
        report.map_count,
        report.orbit_count,
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
