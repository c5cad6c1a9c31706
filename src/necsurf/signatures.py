"""NEC signatures, their derived quantities, and the large-action catalog.

A signature ``(g; +/-; [m_1,...,m_r]; {(n_11,...), ..., (...)})`` encodes a
non-euclidean crystallographic group: orbit genus, orientability sign,
proper periods of the elliptic generators, and period cycles whose link
periods are the orders of corner points on the boundary of the quotient
orbifold.  The module computes the normalized hyperbolic area, transfers
genus to finite-index bordered surface subgroups, and holds the catalog
of the ten quotient
families that can occur for a cyclic action of order N on a bordered
surface of algebraic genus p with N > p - 1 (equivalently, area < 1):
``FAMILIES``, one ``Family`` record per quotient kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property


@dataclass(frozen=True)
class NecSignature:
    genus: int
    orientable: bool
    proper_periods: tuple[int, ...] = ()
    period_cycles: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("orbit genus must be >= 0")
        if not self.orientable and self.genus < 1:
            raise ValueError("sign '-' requires orbit genus >= 1")
        if any(m < 2 for m in self.proper_periods):
            raise ValueError("proper periods must be >= 2")
        if any(n < 2 for cycle in self.period_cycles for n in cycle):
            raise ValueError("link periods must be >= 2")

    @property
    def epsilon(self) -> int:
        return 2 if self.orientable else 1

    @property
    def cycle_count(self) -> int:
        return len(self.period_cycles)

    def render(self) -> str:
        sign = "+" if self.orientable else "-"
        periods = ",".join(str(m) for m in self.proper_periods)
        cycles = ",".join(
            "(" + ",".join(str(n) for n in cycle) + ")" for cycle in self.period_cycles
        )
        return f"({self.genus};{sign};[{periods}];{{{cycles}}})"

    def __str__(self) -> str:
        return self.render()


def area(sig: NecSignature) -> Fraction:
    """Normalized hyperbolic area of a fundamental region, as an exact rational.

    eps*g + k - 2 + sum(1 - 1/m_i) + (1/2) * sum(1 - 1/n_ij).  The signature
    belongs to an NEC group precisely when this is positive.
    """
    total = Fraction(sig.epsilon * sig.genus + sig.cycle_count - 2)
    for m in sig.proper_periods:
        total += 1 - Fraction(1, m)
    for cycle in sig.period_cycles:
        for n in cycle:
            total += Fraction(1, 2) * (1 - Fraction(1, n))
    return total


def kernel_algebraic_genus(sig: NecSignature, N: int) -> int:
    """Algebraic genus of an index-N bordered surface subgroup.

    Hurwitz-Riemann: the subgroup has area N * area(sig), and a bordered
    surface group of algebraic genus p has area p - 1, so p = N*area + 1.
    Raises if the result is not an integer (no such subgroup).
    """
    mu = area(sig)
    if mu <= 0:
        raise ValueError(f"{sig} is not an NEC signature (area {mu})")
    p = N * mu + 1
    if p.denominator != 1:
        raise ValueError(f"order {N} is incompatible with {sig}: genus {p}")
    return int(p)


def check_arguments(kind: str, takes: tuple[str, ...], **given) -> None:
    """Raise unless exactly the arguments named in ``takes`` are given (not None)."""
    for name, value in given.items():
        if (value is None) == (name in takes):
            raise ValueError(f"{kind} {'requires' if value is None else 'does not take'} {name}")


# --- the ten large-action quotient families ------------------------------

Term = tuple[int, str]  # (coefficient, generator) in an additive expression


@dataclass(frozen=True)
class CycleSpec:
    """One period cycle: its distinct reflection names in cycle order.

    ``length`` is the number of link periods (0 for an empty cycle, in
    which case there is a single reflection).  ``tail`` names the extra
    generator identified with the conjugate of the first reflection, when
    the presentation keeps it (e.g. c2 in c0*x = x*c2).  ``connector``
    names the e-generator attached to the cycle, when one survives in the
    presentation; its image order drives the boundary count of empty
    cycles.
    """

    reflections: tuple[str, ...]
    length: int
    connector: str | None = None
    tail: str | None = None


@dataclass(frozen=True)
class PresentationSlots:
    """A ``PresentationSpec`` compiled to positions in its ``gens``.

    The per-map rules of ``bsk`` read a map's residues through these
    positions, so they build no name-keyed view of the map.
    """

    elliptic: tuple[int, ...]  # in the order of the proper periods
    reflections: tuple[int, ...]  # of ``reflection_names``
    # per period cycle: (tail, first reflection) or None, then its corners
    # as pairs of consecutive reflections
    cycles: tuple[tuple[tuple[int, int] | None, tuple[tuple[int, int], ...]], ...]
    long_relation: tuple[tuple[int, int], ...] | None  # (coefficient, position)
    preserving: tuple[int, ...]  # the orientation-preserving generators
    glides: tuple[int, ...]
    empty_cycles: tuple[tuple[int, int], ...]  # (reflection, connector) per empty cycle
    cycle_lengths: tuple[int, ...]  # of the non-empty cycles
    connectors: tuple[int, ...]  # of every cycle that keeps one


@dataclass(frozen=True)
class PresentationSpec:
    """A family's presentation; only the elliptic orders depend on its cone orders.

    Generator names follow the usual conventions: x (elliptic), e
    (connector), c (reflection), d (glide).  Redundant connectors are
    eliminated exactly as in the standard presentations, e.g. e = (x*d^2)^-1
    for the once-punctured Moebius band.  ``elliptic`` names the elliptic
    generators in the order of the proper periods.  Their relations x^m
    are ``elliptic_orders``, empty in the family's record and filled in
    at a quotient's cone orders by ``bsk.presentation_of``; ``relations``
    holds the others.
    """

    gens: tuple[str, ...]
    elliptic: tuple[str, ...]
    cycles: tuple[CycleSpec, ...]
    glides: tuple[str, ...] = ()
    # sum over (coef, gen) must vanish mod N (the long relation), or None
    # when eliminating a redundant connector consumed it
    long_relation: tuple[Term, ...] | None = None
    # dependent generator -> linear expression in terms of earlier ones
    derived: dict[str, tuple[Term, ...]] = field(default_factory=dict)
    relations: tuple[str, ...] = ()
    elliptic_orders: dict[str, int] = field(default_factory=dict)

    def complete(self, free_images: dict[str, int], N: int) -> dict[str, int]:
        """Fill in dependent generator images from the free ones."""
        images = dict(free_images)
        for name, expr in self.derived.items():
            images[name] = sum(c * images[g] for c, g in expr) % N
        return {g: images[g] % N for g in self.gens}

    @cached_property
    def free(self) -> tuple[str, ...]:
        """The generators whose images are chosen freely: all but ``derived``, in ``gens`` order."""
        return tuple(g for g in self.gens if g not in self.derived)

    @cached_property
    def reflection_names(self) -> tuple[str, ...]:
        out = []
        for cyc in self.cycles:
            out.extend(cyc.reflections)
            if cyc.tail:
                out.append(cyc.tail)
        return tuple(out)

    @cached_property
    def slots(self) -> PresentationSlots:
        """The presentation compiled to positions in ``gens``, once per spec."""
        pos = {g: i for i, g in enumerate(self.gens)}
        cycles, empty, lengths = [], [], []
        for cyc in self.cycles:
            ring = [pos[c] for c in cyc.reflections]
            ring.append(pos[cyc.tail] if cyc.tail else ring[0])
            tail = (ring[-1], ring[0]) if cyc.tail else None
            cycles.append((tail, tuple((ring[j], ring[j + 1]) for j in range(cyc.length))))
            if cyc.length:
                lengths.append(cyc.length)
            else:
                assert cyc.connector is not None, "an empty cycle needs its connector"
                empty.append((ring[0], pos[cyc.connector]))
        reversing = {*self.reflection_names, *self.glides}
        return PresentationSlots(
            elliptic=tuple(pos[g] for g in self.elliptic),
            reflections=tuple(pos[c] for c in self.reflection_names),
            cycles=tuple(cycles),
            long_relation=None if self.long_relation is None
            else tuple((c, pos[g]) for c, g in self.long_relation),
            preserving=tuple(i for g, i in pos.items() if g not in reversing),
            glides=tuple(pos[g] for g in self.glides),
            empty_cycles=tuple(empty),
            cycle_lengths=tuple(lengths),
            connectors=tuple(pos[c.connector] for c in self.cycles if c.connector),
        )


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one quotient kind but its counting formula.

    The quotient signature is (genus; sign; periods; cycles); its proper
    periods are the fixed ``periods`` followed by the cone orders named in
    ``params`` ("m", or "m" and "n").
    ``moves`` are outer automorphisms as substitutions on generator
    images; a move that sends an elliptic generator to one of another
    order does not apply.  ``full_moves`` says they generate the whole
    outer automorphism group.  When ``order_is_forced``, N is the lcm of
    all periods and link periods.  ``classify_args`` are the extra
    arguments ``classify`` needs: the boundary count "k" and the
    "orientable" flag of the covered surface.
    """

    kind: str
    number: int  # catalog family number
    description: str  # of the catalog family
    genus: int
    orientable: bool
    periods: tuple[int, ...]
    params: tuple[str, ...]
    cycles: tuple[tuple[int, ...], ...]
    presentation: PresentationSpec
    moves: tuple[tuple[str, dict[str, tuple[Term, ...]]], ...] = ()
    full_moves: bool = False
    order_is_forced: bool = False
    classify_args: tuple[str, ...] = ()
    # 3 where m = 2 would repeat the signature of the family with a 2 in
    # place of this family's 3
    m_min: int = 2

    @cached_property
    def _area_base(self) -> tuple[int, int]:
        """Area with every parameter period's 1 - 1/m counted as 1, as (a, b) = a/b."""
        base = area(NecSignature(self.genus, self.orientable, self.periods, self.cycles))
        base += len(self.params)
        return base.numerator, base.denominator

    def kernel_genus(self, m: int | None, n: int | None, N: int) -> int:
        """``kernel_algebraic_genus`` at cone orders m, n and order N, in integers.

        The area is a/b - 1/m (- 1/n) (see ``admits``), so p - 1 = N * area
        is N*(a*m*n - b*(m + n)) / (b*m*n).  Raises if that is not an
        integer (no such subgroup).
        """
        num, den = self._area_base
        for c in (m, n):
            if c is not None:
                num, den = num * c - den, den * c
        p1, rem = divmod(N * num, den)
        if num <= 0 or rem:
            raise ValueError(f"order {N} is incompatible with {self.kind} at cone orders {m}, {n}")
        return p1 + 1

    def proper_periods(self, m: int | None, n: int | None) -> tuple[int, ...]:
        if m is None:
            return self.periods
        return self.periods + ((m,) if n is None else (m, n))

    def admits(self, m: int | None = None, n: int | None = None) -> bool:
        """Do these cone orders give a catalog quotient (m >= m_min, n >= 2, 0 < area < 1)?

        The area is a/b - 1/m (- 1/n), so the test is an integer comparison:
        (a - b)*m < b < a*m, or (a - b)*m*n < b*(m + n) < a*m*n.
        """
        if m is None:
            return True
        a, b = self._area_base
        if n is None:
            return m >= self.m_min and (a - b) * m < b < a * m
        return m >= self.m_min and n >= 2 and (a - b) * m * n < b * (m + n) < a * m * n

    def instances(self, values, order: int | None = None) -> list[QuotientType]:
        """Every admitted choice of cone orders from ``values`` (ascending), pairs with m <= n.

        With ``order`` a pair must have lcm equal to it, the condition for
        two cone points alone to carry a surjection onto Z_order.
        """
        if not self.params:
            return [QuotientType(self.kind)]
        if len(self.params) == 1:
            return [QuotientType(self.kind, m=m) for m in values if self.admits(m)]
        return [
            QuotientType(self.kind, m=m, n=n)
            for m in values
            for n in values
            if m <= n and (order is None or math.lcm(m, n) == order) and self.admits(m, n)
        ]


@dataclass(frozen=True)
class QuotientType:
    """One of the ten quotient-orbifold families, with its cone orders."""

    kind: str
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        fam = FAMILIES.get(self.kind)
        if fam is None:
            raise ValueError(f"unknown quotient kind {self.kind!r}")
        check_arguments(self.kind, fam.params, m=self.m, n=self.n)
        if self.m is not None and not fam.admits(self.m, self.n):
            raise ValueError(
                f"{self.label()} is outside the catalog: cone orders must be "
                f">= {fam.m_min} and the area in (0, 1)"
            )

    def signature(self) -> NecSignature:
        fam = FAMILIES[self.kind]
        return NecSignature(fam.genus, fam.orientable, fam.proper_periods(self.m, self.n), fam.cycles)

    def forced_order(self) -> int | None:
        """The order N that the cone orders force, or None when N is free."""
        fam = FAMILIES[self.kind]
        if not fam.order_is_forced:
            return None
        return math.lcm(*fam.proper_periods(self.m, self.n), *(n for cyc in fam.cycles for n in cyc))

    def label(self) -> str:
        if self.n is not None:
            return f"{self.kind}({self.m},{self.n})"
        if self.m is not None:
            return f"{self.kind}({self.m})"
        return self.kind

    def __str__(self) -> str:
        return self.label()


def _negate(*gens: str) -> dict[str, tuple[Term, ...]]:
    return {g: ((-1, g),) for g in gens}


def _swap(a: str, b: str) -> dict[str, tuple[Term, ...]]:
    return {a: ((1, b),), b: ((1, a),)}


_C6 = tuple(f"c{i}" for i in range(6))
_C5 = _C6[:5]
# a corner pair closed by the tail c2, a conjugate of c0 (mb2, d12)
_CORNER_PAIR = (CycleSpec(("c0", "c1"), 2, tail="c2"),)
_CORNER_PAIR_RELATIONS = ("c0^2", "c1^2", "c2^2", "(c0 c1)^2", "(c1 c2)^2")
_EMPTY_CYCLE = (CycleSpec(("c",), 0, connector="e"),)

_THREE_CONES = PresentationSpec(
    gens=("x1", "x2", "x3", "e", "c"),
    elliptic=("x1", "x2", "x3"),
    cycles=_EMPTY_CYCLE,
    long_relation=((1, "x1"), (1, "x2"), (1, "x3"), (1, "e")),
    derived={"e": ((-1, "x1"), (-1, "x2"), (-1, "x3"))},
    relations=("c^2", "x1 x2 x3 e", "c e = e c"),
)
_TWO_CONES_CORNERS = PresentationSpec(
    gens=("x1", "x2", "e", "c0", "c1", "c2"),
    elliptic=("x1", "x2"),
    cycles=(CycleSpec(("c0", "c1"), 2, connector="e", tail="c2"),),
    long_relation=((1, "x1"), (1, "x2"), (1, "e")),
    derived={"e": ((-1, "x1"), (-1, "x2")), "c2": ((1, "c0"),)},
    relations=_CORNER_PAIR_RELATIONS + ("x1 x2 e", "c2 e = e c0"),
)

#: kind -> Family, in catalog order
FAMILIES: dict[str, Family] = {f.kind: f for f in (
    Family(
        "d6", 1, "disc with 6 corner points", 0, True, (), (), ((2,) * 6,),
        PresentationSpec(
            gens=_C6,
            elliptic=(),
            cycles=(CycleSpec(_C6, 6),),
            # e1 = 1 eliminates the connector and the long relation entirely
            relations=tuple(f"{c}^2" for c in _C6)
            + tuple(f"({_C6[i]} {_C6[(i + 1) % 6]})^2" for i in range(6)),
        ),
    ),
    Family(
        "ann2", 2, "annulus with 2 corner points", 0, True, (), (), ((), (2, 2)),
        PresentationSpec(
            gens=("e1", "e2", "c10", "c20", "c21", "c22"),
            elliptic=(),
            cycles=(
                CycleSpec(("c10",), 0, connector="e1"),
                CycleSpec(("c20", "c21"), 2, connector="e2", tail="c22"),
            ),
            long_relation=((1, "e1"), (1, "e2")),
            derived={"e2": ((-1, "e1"),), "c22": ((1, "c20"),)},
            relations=(
                "e1 e2", "c10^2", "c20^2", "c21^2", "c22^2", "(c20 c21)^2", "(c21 c22)^2",
                "e1 c10 = c10 e1", "e2 c20 = c22 e2",
            ),
        ),
    ),
    Family(
        "mb2", 3, "Moebius band with 2 corner points", 1, False, (), (), ((2, 2),),
        PresentationSpec(
            gens=("d", "c0", "c1", "c2"),
            elliptic=(),
            cycles=_CORNER_PAIR,
            glides=("d",),
            # e1 = d^-2
            derived={"c2": ((1, "c0"),)},
            relations=_CORNER_PAIR_RELATIONS + ("c0 d^2 = d^2 c2",),
        ),
    ),
    Family(
        "d12", 4, "disc with 1 cone point and 2 corner points", 0, True, (), ("m",), ((2, 2),),
        PresentationSpec(
            gens=("x", "c0", "c1", "c2"),
            elliptic=("x",),
            cycles=_CORNER_PAIR,
            # e1 = x^-1
            derived={"c2": ((1, "c0"),)},
            relations=_CORNER_PAIR_RELATIONS + ("c0 x = x c2",),
        ),
        order_is_forced=True,
    ),
    Family(
        "d14", 5, "disc with 1 cone point and 4 corner points", 0, True, (), ("m",), ((2,) * 4,),
        PresentationSpec(
            gens=("x",) + _C5,
            elliptic=("x",),
            cycles=(CycleSpec(_C5[:4], 4, tail="c4"),),
            # e1 = x^-1
            derived={"c4": ((1, "c0"),)},
            relations=tuple(f"{c}^2" for c in _C5)
            + tuple(f"({_C5[i]} {_C5[i + 1]})^2" for i in range(4))
            + ("c0 x = x c4",),
        ),
        order_is_forced=True,
    ),
    Family(
        "mb1", 6, "Moebius band with 1 cone point", 1, False, (), ("m",), ((),),
        PresentationSpec(
            gens=("x", "d", "c", "e"),
            elliptic=("x",),
            cycles=_EMPTY_CYCLE,
            glides=("d",),
            long_relation=((1, "x"), (1, "e"), (2, "d")),
            derived={"e": ((-1, "x"), (-2, "d"))},
            relations=("c^2", "x e d^2", "e c = c e"),
        ),
        # the two involutions generating its Klein-four outer group
        moves=(
            ("gamma", _negate("x", "e", "d")),
            ("delta", {**_negate("e"), "d": ((-1, "d"), (-1, "x"))}),
        ),
        full_moves=True,
        classify_args=("k", "orientable"),
    ),
    Family(
        "d21", 7, "disc with 2 cone points", 0, True, (), ("m", "n"), ((),),
        PresentationSpec(
            gens=("x1", "x2", "c", "e"),
            elliptic=("x1", "x2"),
            cycles=_EMPTY_CYCLE,
            long_relation=((1, "x1"), (1, "x2"), (1, "e")),
            derived={"e": ((-1, "x1"), (-1, "x2"))},
            relations=("c^2", "x1 x2 e", "e c = c e"),
        ),
        # the boundary reflection, and the cone swap when m = n
        moves=(("alpha", _negate("x1", "x2", "e")), ("beta", _swap("x1", "x2"))),
        full_moves=True,
        order_is_forced=True,
        classify_args=("k",),
    ),
    Family(
        "ann1", 8, "annulus with 1 cone point", 0, True, (), ("m",), ((), ()),
        PresentationSpec(
            gens=("x", "e1", "e2", "c1", "c2"),
            elliptic=("x",),
            cycles=(
                CycleSpec(("c1",), 0, connector="e1"),
                CycleSpec(("c2",), 0, connector="e2"),
            ),
            long_relation=((1, "x"), (1, "e1"), (1, "e2")),
            derived={"e2": ((-1, "x"), (-1, "e1"))},
            relations=("c1^2", "c2^2", "x e1 e2", "e1 c1 = c1 e1", "e2 c2 = c2 e2"),
        ),
        # as for mb1; beta swaps the two boundary cycles
        moves=(
            ("alpha", _negate("x", "e1", "e2")),
            ("beta", {**_swap("e1", "e2"), **_swap("c1", "c2")}),
        ),
        full_moves=True,
        classify_args=("k", "orientable"),
    ),
    Family(
        "d3-23m", 9, "disc with 3 cone points", 0, True, (2, 3), ("m",), ((),), _THREE_CONES,
        order_is_forced=True,
        m_min=3,
    ),
    Family(
        "d3-22m", 9, "disc with 3 cone points", 0, True, (2, 2), ("m",), ((),), _THREE_CONES,
        order_is_forced=True,
    ),
    Family(
        "d2c-3m", 10, "disc with 2 cone points and 2 corner points", 0, True, (3,), ("m",),
        ((2, 2),), _TWO_CONES_CORNERS,
        order_is_forced=True,
        m_min=3,
    ),
    Family(
        "d2c-2m", 10, "disc with 2 cone points and 2 corner points", 0, True, (2,), ("m",),
        ((2, 2),), _TWO_CONES_CORNERS,
        order_is_forced=True,
    ),
)}


# --- covered surfaces -----------------------------------------------------


@dataclass(frozen=True)
class SurfaceTopology:
    """Topological type of a compact bordered surface of algebraic genus >= 2."""

    orientable: bool
    genus: int
    boundary_count: int

    def __post_init__(self):
        if self.genus < 0 or self.boundary_count < 1:
            raise ValueError(f"bad surface data {self}")
        if not self.orientable and self.genus < 1:
            raise ValueError("non-orientable surfaces have genus >= 1")
        if self.algebraic_genus < 2:
            raise ValueError(f"{self} is not hyperbolic (algebraic genus < 2)")

    @classmethod
    def of_genus(cls, orientable: bool, algebraic_genus: int, k: int) -> "SurfaceTopology":
        """The surface with k boundary components and algebraic genus p = eps*g + k - 1."""
        eps = 2 if orientable else 1
        g2 = algebraic_genus + 1 - k
        assert g2 % eps == 0 and g2 >= 0, (
            f"inconsistent genus: orientable={orientable}, p={algebraic_genus}, k={k}"
        )
        return cls(orientable, g2 // eps, k)

    @property
    def epsilon(self) -> int:
        return 2 if self.orientable else 1

    @property
    def algebraic_genus(self) -> int:
        return self.epsilon * self.genus + self.boundary_count - 1

    def describe(self) -> str:
        if self.orientable:
            base = {0: "sphere", 1: "torus"}.get(self.genus, f"genus-{self.genus} surface")
        else:
            base = {1: "projective plane", 2: "Klein bottle"}.get(
                self.genus, f"non-orientable genus-{self.genus} surface"
            )
        return f"{self.boundary_count}-holed {base}"

    def __str__(self) -> str:
        return self.describe()
