"""Brute-force verification of the closed-form classification.

The oracle enumerates every smooth assignment for a quotient family at a
given order, then counts equivalence classes under the action of units of
Z_N composed with outer automorphism moves of the NEC group, and compares
the orbit tallies against the closed-form counts.

Only outer moves matter: inner automorphisms act trivially on
homomorphisms into an abelian target (theta(h g h^-1) = theta(g)), so the
equivalence relation theta' = c * (theta o phi) is generated by unit
multiplication together with a finite move set.  For the once-punctured
Moebius band, the once-punctured annulus and the twice-punctured disc the
move set generates the full outer automorphism group, so orbit counts are
exact ground truth.  For the remaining families the moves are the ones the
uniqueness arguments actually use (cycle rotation); a mismatch there is
reported verbatim, never reconciled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bsk import (
    BskMap,
    Presentation,
    action_reverses_orientation,
    is_smooth,
    presentation_of,
    surface_of,
)
from .classify import classification_buckets, parameter_space
from .signatures import FAMILIES, QuotientType, SurfaceTopology
from .zmod import order_mod, units

ORACLE_MAX_N = 96


@dataclass(frozen=True)
class AutMove:
    """An outer automorphism move, recorded additively on generator images.

    Because the target is abelian, a substitution g -> word(generators)
    acts on an image vector linearly; ``mapping`` sends each generator to
    the integer combination of old images that becomes its new image.
    """

    name: str
    mapping: dict[str, tuple[tuple[int, str], ...]]

    def apply(self, images: dict[str, int], N: int) -> dict[str, int]:
        return {
            g: sum(c * images[src] for c, src in self.mapping[g]) % N
            for g in self.mapping
        }


def _move(name: str, pres: Presentation, **overrides) -> AutMove:
    mapping = {g: ((1, g),) for g in pres.gens}
    mapping.update(overrides)
    return AutMove(name, mapping)


def moves_for(q: QuotientType) -> tuple[AutMove, ...]:
    """The move set used to decide equivalence for this family.

    The family's outer moves (``Family.moves``), less any that would send
    an elliptic generator to one of another order (the d21 cone swap when
    m != n).  Every family with a non-empty period cycle also gets the
    rotation that shifts the cycle's reflections by one.
    """
    pres = presentation_of(q)
    orders = pres.elliptic_orders
    moves = [
        _move(name, pres, **mapping)
        for name, mapping in FAMILIES[q.kind].moves
        if all(
            orders[g] == orders.get(src)
            for g, expr in mapping.items()
            if g in orders
            for _, src in expr
        )
    ]
    for idx, cyc in enumerate(pres.cycles):
        if cyc.length < 2:
            continue
        names = cyc.reflections
        overrides = {
            names[j]: ((1, names[(j - 1) % len(names)]),) for j in range(len(names))
        }
        if cyc.tail:
            overrides[cyc.tail] = ((1, names[-1]),)
        moves.append(_move(f"shift{idx}", pres, **overrides))
    return tuple(moves)


def _free_domains(pres: Presentation, N: int) -> list[tuple[int, ...]]:
    reflections = set(pres.reflection_names)
    domains = []
    for g in pres.free:
        if g in pres.elliptic_orders:
            want = pres.elliptic_orders[g]
            domains.append(tuple(v for v in range(N) if order_mod(v, N) == want))
        elif g in reflections:
            domains.append((0, N // 2) if N % 2 == 0 else (0,))
        else:
            domains.append(tuple(range(N)))
    return domains


def enumerate_smooth(q: QuotientType, N: int, max_n: int = ORACLE_MAX_N) -> list[BskMap]:
    """Every smooth assignment for (q, N), in deterministic order.

    Searches only the free generators (images determined by relations are
    filled in), with candidate values ascending.
    """
    if N < 2 or N > max_n:
        raise ValueError(f"order {N} outside the enumeration bound 2..{max_n}")
    pres = presentation_of(q)
    out = []
    for combo in itertools.product(*_free_domains(pres, N)):
        images = pres.complete(dict(zip(pres.free, combo)), N)
        bmap = BskMap(q, N, tuple((g, images[g]) for g in pres.gens))
        if is_smooth(bmap):
            out.append(bmap)
    return out


@dataclass(frozen=True)
class OrbitInfo:
    representative: BskMap
    size: int
    surface: SurfaceTopology
    reversing: bool | None
    connector_orders: tuple[int, ...]


@dataclass(frozen=True)
class OrbitReport:
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
    pres = presentation_of(bmap.quotient)
    img = bmap.image_dict
    orders = tuple(
        sorted(order_mod(img[c.connector], bmap.N) for c in pres.cycles if c.connector)
    )
    return surface_of(bmap), action_reverses_orientation(bmap), orders


def orbit_count(maps: list[BskMap], moves: tuple[AutMove, ...], N: int) -> OrbitReport:
    """Orbits of theta ~ c * (theta o phi) over the finite smooth-map set.

    Breadth-first closure under unit multiplication and the move set, so a
    representative is available for every orbit.  Along the way it is
    asserted that every unit multiple and every move image is again a
    smooth map of the enumerated set, and that surface invariants are
    constant on each orbit.
    """
    if not maps:
        return OrbitReport(None, N, 0, 0, ())
    q = maps[0].quotient
    pres = presentation_of(q)
    index = {m.vector(): i for i, m in enumerate(maps)}
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
            i = queue.pop()
            img = maps[i].image_dict
            neighbours = [
                {g: (u * v) % N for g, v in img.items()} for u in unit_list
            ] + [move.apply(img, N) for move in moves]
            for nb in neighbours:
                vec = tuple(nb[g] for g in pres.gens)
                j = index.get(vec)
                assert j is not None, (
                    f"equivalence left the smooth set: {q} at N={N}, image {nb}"
                )
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
                    members.append(j)
        inv = _invariants(maps[members[0]])
        for i in members[1:]:
            assert _invariants(maps[i]) == inv, (
                f"orbit invariants vary within an orbit of {q} at N={N}"
            )
        rep = maps[min(members, key=lambda i: maps[i].vector())]
        orbits.append(OrbitInfo(rep, len(members), inv[0], inv[1], inv[2]))
    return OrbitReport(q, N, len(maps), len(orbits), tuple(orbits))


def oracle_report(q: QuotientType, N: int) -> OrbitReport:
    return orbit_count(enumerate_smooth(q, N), moves_for(q), N)


# --- cross-checking against the closed forms -------------------------------

@dataclass(frozen=True)
class CheckPoint:
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


@dataclass(frozen=True)
class CrossCheckReport:
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


def check_points(kinds=None, n_max: int = 24, n_min: int = 2) -> list[tuple[QuotientType, int]]:
    """The (quotient, N) points of a sweep; bad bounds or kinds raise before any work."""
    if not 2 <= n_min <= n_max <= ORACLE_MAX_N:
        raise ValueError(
            f"need 2 <= n_min <= n_max <= {ORACLE_MAX_N}, got n_min={n_min}, n_max={n_max}"
        )
    kinds = tuple(kinds) if kinds else tuple(FAMILIES)
    for kind in kinds:
        if kind not in FAMILIES:
            raise ValueError(f"unknown quotient kind {kind!r}")
    out = []
    for N in range(n_min, n_max + 1):
        for kind in kinds:
            for q in parameter_space(kind, N):
                out.append((q, N))
    return out


def cross_check(kinds=None, n_max: int = 24, n_min: int = 2, jobs: int = 1) -> CrossCheckReport:
    """Sweep oracle vs closed form over every admissible parameter point."""
    points = check_points(kinds, n_max, n_min)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_check_point_star, points, chunksize=8))
    else:
        results = [check_point(q, N) for q, N in points]
    return CrossCheckReport(tuple(results))


def _check_point_star(point: tuple[QuotientType, int]) -> CheckPoint:
    return check_point(*point)
