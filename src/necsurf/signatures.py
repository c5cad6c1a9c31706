"""NEC signatures, their derived quantities, and the large-action catalog.

A signature ``(g; +/-; [m_1,...,m_r]; {(n_11,...), ..., (...)})`` encodes a
non-euclidean crystallographic group: orbit genus, orientability sign,
proper periods of the elliptic generators, and period cycles whose link
periods are the orders of corner points on the boundary of the quotient
orbifold.  The module computes the normalized hyperbolic area, transfers
genus to finite-index bordered surface subgroups, builds a signature's
canonical presentation from the signature alone (``presentation``, whose
``PresentationSpec`` names generators by position in ``gens``), and holds
the catalog of the ten quotient families that can occur for a cyclic
action of order N on a bordered surface of algebraic genus p with
N > p - 1 (equivalently, area < 1): ``FAMILIES``, one ``Family`` record
per quotient kind.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .zmod import _Checked, divisors


class _SignatureFields(NamedTuple):
    genus: int
    orientable: bool
    proper_periods: tuple[int, ...] = ()
    period_cycles: tuple[tuple[int, ...], ...] = ()


class NecSignature(_Checked, _SignatureFields):
    """An NEC signature: an immutable, checked tuple of its fields."""

    __slots__ = ()

    def __new__(
        cls,
        genus: int,
        orientable: bool,
        proper_periods: tuple[int, ...] = (),
        period_cycles: tuple[tuple[int, ...], ...] = (),
    ) -> "NecSignature":
        if genus < 0:
            raise ValueError("orbit genus must be >= 0")
        if not orientable and genus < 1:
            raise ValueError("sign '-' requires orbit genus >= 1")
        if any(m < 2 for m in proper_periods):
            raise ValueError("proper periods must be >= 2")
        if any(n < 2 for cycle in period_cycles for n in cycle):
            raise ValueError("link periods must be >= 2")
        return tuple.__new__(cls, (genus, orientable, proper_periods, period_cycles))

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
    belongs to an NEC group precisely when this is positive.  The sum is
    taken in integers over the common denominator 2*L, L the lcm of all
    periods and link periods, and reduced once.
    """
    links = [n for cycle in sig.period_cycles for n in cycle]
    lcm = math.lcm(*sig.proper_periods, *links)
    den = 2 * lcm
    num = (sig.epsilon * sig.genus + sig.cycle_count - 2) * den
    num += sum(den - den // m for m in sig.proper_periods)
    num += sum(lcm - lcm // n for n in links)
    return Fraction(num, den)


def kernel_algebraic_genus(sig: NecSignature, N: int) -> int:
    """Algebraic genus of an index-N bordered surface subgroup.

    Hurwitz-Riemann: the subgroup has area N * area(sig), and a bordered
    surface group of algebraic genus p has area p - 1, so p = N*area + 1.
    Raises if the result is not an integer (no such subgroup).
    """
    mu = area(sig)
    if mu <= 0:
        raise ValueError(f"{sig} is not an NEC signature (area {mu})")
    p1, rem = divmod(N * mu.numerator, mu.denominator)
    if rem:
        raise ValueError(f"order {N} is incompatible with {sig}: genus {N * mu + 1}")
    return p1 + 1


def check_arguments(kind: str, takes: tuple[str, ...], **given) -> None:
    """Raise unless exactly the arguments named in ``takes`` are given (not None)."""
    for name, value in given.items():
        if (value is None) == (name in takes):
            raise ValueError(f"{kind} {'requires' if value is None else 'does not take'} {name}")


# --- canonical presentations ---------------------------------------------

PosTerms = tuple[tuple[int, int], ...]  # (coefficient, generator position) terms


class _PresentationFields(NamedTuple):
    signature: NecSignature
    gens: tuple[str, ...]
    elliptic: tuple[int, ...]
    elliptic_orders: Mapping[str, int]
    connectors: tuple[int, ...]
    rings: tuple[tuple[int, ...], ...]
    # (reflection, next reflection, link period) along each ring
    corners: tuple[tuple[int, int, int], ...]
    glides: tuple[int, ...]
    # sum over (coef, position) must vanish mod N
    long_relation: PosTerms
    # (dependent position, its terms in the free positions)
    derived: tuple[tuple[int, PosTerms], ...]


class PresentationSpec(_PresentationFields):
    """The canonical presentation of an NEC group, abelianised for Z_N.

    ``presentation`` builds it from ``signature`` alone.  Its relation
    fields hold positions in ``gens``, the order of a map's residue vector.
    ``elliptic`` lists the elliptic generators in the order of the proper
    periods; their relations x^m are ``elliptic_orders``, a read-only
    mapping keyed by name, as ``bsk.presentation_of`` shares one spec.
    Each period cycle has one of ``connectors`` and one of ``rings``: its
    reflections in order, closed by the tail c_s = c_0, or the single
    reflection of an empty cycle.  The rings give the reflections' squares
    and ``corners``; the other relation is ``long_relation``.  ``derived``
    expresses the generators those relations determine (the last
    connector and each cycle's tail) through the free ones.  An immutable
    tuple of its fields; the derived positions below are cached in an
    instance dict, outside the fields.
    """

    def complete(self, free_images: Sequence[int], N: int) -> tuple[int, ...]:
        """The residue vector with ``free_images`` at the ``free`` generators, in their order."""
        vec = [0] * len(self.gens)
        for i, v in zip(self.free_positions, free_images):
            vec[i] = v
        for i, terms in self.derived:
            vec[i] = sum([c * vec[j] for c, j in terms]) % N
        return tuple(vec)

    @cached_property
    def free_positions(self) -> tuple[int, ...]:
        """The positions of the ``free`` generators: all but ``derived``, ascending."""
        dependent = {i for i, _ in self.derived}
        return tuple(i for i in range(len(self.gens)) if i not in dependent)

    @cached_property
    def free(self) -> tuple[str, ...]:
        """The generators whose images are chosen freely: all but ``derived``, in ``gens`` order."""
        return tuple(self.gens[i] for i in self.free_positions)

    @cached_property
    def reflections(self) -> tuple[int, ...]:
        """Every reflection, cycle by cycle, tails included."""
        return tuple(i for ring in self.rings for i in ring)

    @cached_property
    def reflection_names(self) -> tuple[str, ...]:
        """The names of ``reflections``."""
        return tuple(self.gens[i] for i in self.reflections)

    @cached_property
    def preserving(self) -> tuple[int, ...]:
        """The orientation-preserving generators: all but reflections and glides."""
        reversing = {*self.reflections, *self.glides}
        return tuple(i for i in range(len(self.gens)) if i not in reversing)


def _indexed(stem: str, count: int) -> tuple[str, ...]:
    """Names for ``count`` generators of one kind: the bare ``stem`` when there is one."""
    return (stem,) if count == 1 else tuple(f"{stem}{i}" for i in range(1, count + 1))


def presentation(sig: NecSignature) -> PresentationSpec:
    """The canonical presentation of a bordered signature's group, abelianised for Z_N.

    The generators (Wilkie, Math. Z. 91, 1966; Macbeath, Canad. J.
    Math. 19, 1967) come in the order x (elliptic, one per proper period,
    of that order), e (connector, one per cycle), c (reflection), d
    (glide, one per unit of genus for sign '-'); a kind with one member
    drops the index.  The reflections of cycle i are c_i0, c_i1, ..., or
    c_i alone for an empty cycle; with one cycle i is dropped too.  The
    corner (c_i(j-1), c_ij) has the cycle's j-th link period.  In an
    abelian image each tail c_is equals c_i0, and the long relation
    sum x + sum e + 2 sum d = 0 derives the last connector.  There must be
    a period cycle, and no hyperbolic generators (sign '+', genus > 0).
    """
    r, k = len(sig.proper_periods), sig.cycle_count
    assert k, f"{sig} has no period cycle"
    assert sig.genus == 0 or not sig.orientable, f"{sig} has hyperbolic generators"
    gens = [*_indexed("x", r), *_indexed("e", k)]
    rings, corners = [], []
    for i, links in enumerate(sig.period_cycles, 1):
        stem = "c" if k == 1 else f"c{i}"
        names = [f"{stem}{j}" for j in range(len(links) + 1)] if links else [stem]
        ring = tuple(range(len(gens), len(gens) + len(names)))
        rings.append(ring)
        corners.extend(zip(ring, ring[1:], links))
        gens.extend(names)
    glides = () if sig.orientable else tuple(range(len(gens), len(gens) + sig.genus))
    gens.extend(_indexed("d", len(glides)))
    long_relation = tuple((1, i) for i in range(r + k)) + tuple((2, d) for d in glides)
    last = r + k - 1  # the last connector
    derived = ((last, tuple((-c, i) for c, i in long_relation if i != last)),)
    derived += tuple((ring[-1], ((1, ring[0]),)) for ring in rings if len(ring) > 1)
    return PresentationSpec(
        signature=sig,
        gens=tuple(gens),
        elliptic=tuple(range(r)),
        elliptic_orders=MappingProxyType(dict(zip(gens, sig.proper_periods))),
        connectors=tuple(range(r, r + k)),
        rings=tuple(rings),
        corners=tuple(corners),
        glides=glides,
        long_relation=long_relation,
        derived=derived,
    )


# --- the ten large-action quotient families ------------------------------

Term = tuple[int, str]  # (coefficient, generator) in an additive expression


class _FamilyFields(NamedTuple):
    kind: str
    number: int  # catalog family number
    description: str  # of the catalog family
    genus: int
    orientable: bool
    periods: tuple[int, ...]
    params: tuple[str, ...]
    cycles: tuple[tuple[int, ...], ...]
    moves: tuple[tuple[str, dict[str, tuple[Term, ...]]], ...] = ()
    full_moves: bool = False
    classify_args: tuple[str, ...] = ()


class Family(_FamilyFields):
    """Everything the package knows about one quotient kind but its counting formula.

    The quotient signature is (genus; sign; periods; cycles); its proper
    periods are the fixed ``periods`` followed by the cone orders named in
    ``params`` ("m", or "m" and "n").  They ascend, so that every
    signature has one name (see ``admits``).  The presentation is not
    part of the record: it follows from a quotient's signature alone
    (``presentation``).  ``moves`` are outer automorphisms as
    substitutions on generator images; a move that sends an elliptic
    generator to one of another order does not apply, and a move that acts
    as a unit is left out: the orientation reversal negates every image
    but the reflections', which are 0 or N/2, so it is the unit -1.
    ``full_moves`` says that, together with the units, the moves make every
    equivalence the outer automorphism group makes.  ``classify_args``
    are the extra arguments ``classify`` needs: the boundary count "k" and
    the "orientable" flag of the covered surface.  An immutable tuple of
    its fields; the derived values below are cached in an instance dict.
    """

    @cached_property
    def order_is_forced(self) -> bool:
        """Is N the lcm of all periods and link periods?  True for a disc quotient.

        With orbit genus 0 and one period cycle the long relation derives
        the connector, so elliptic elements and reflections generate the group.
        """
        return self.genus == 0 and len(self.cycles) == 1

    @cached_property
    def least_cone(self) -> int:
        """The least cone order m: the proper periods ascend from the fixed ones."""
        return max(self.periods, default=2)

    @cached_property
    def _area_base(self) -> tuple[int, int]:
        """Area with every parameter period's 1 - 1/m counted as 1, as (a, b) = a/b."""
        base = area(NecSignature(self.genus, self.orientable, self.periods, self.cycles))
        base += len(self.params)
        return base.numerator, base.denominator

    @cached_property
    def _fixed_lcm(self) -> int:
        """The lcm of the fixed periods and all link periods."""
        return math.lcm(*self.periods, *(c for cyc in self.cycles for c in cyc))

    def forced_order(self, m: int | None, n: int | None) -> int | None:
        """The order N that cone orders m, n force, or None when N is free."""
        if not self.order_is_forced:
            return None
        return math.lcm(self._fixed_lcm, m or 1, n or 1)

    def point_genus(self, m: int | None, n: int | None, N: int) -> int | None:
        """The algebraic genus every order-N action at cone orders m, n has, or None.

        Hurwitz-Riemann gives p = 1 + N*area, whatever k and the
        orientability.  The area is a/b - 1/m (- 1/n) (see ``admits``), so
        p - 1 = N*(a*m*n - b*(m + n)) / (b*m*n), an exact integer test.
        None means that the point carries no order-N action: the family
        forces another order, or N*area is not a positive integer.
        """
        if self.forced_order(m, n) not in (None, N):
            return None
        num, den = self._area_base
        for c in (m, n):
            if c is not None:
                num, den = num * c - den, den * c
        p1, rem = divmod(N * num, den)
        return None if num <= 0 or rem else p1 + 1

    def proper_periods(self, m: int | None, n: int | None) -> tuple[int, ...]:
        if m is None:
            return self.periods
        return self.periods + ((m,) if n is None else (m, n))

    def admits(self, m: int | None = None, n: int | None = None) -> bool:
        """Do these cone orders give a catalog quotient?

        The proper periods must ascend, fixed ones first (least_cone <= m,
        and m <= n), so that d21(3,2) and d3-23m(2), say, do not rename
        d21(2,3) and d3-22m(3); and the area must lie in (0, 1).  The
        area is a/b - 1/m (- 1/n), so that test is an integer comparison:
        (a - b)*m < b < a*m, or (a - b)*m*n < b*(m + n) < a*m*n.
        """
        if m is None:
            return True
        a, b = self._area_base
        if n is None:
            return m >= self.least_cone and (a - b) * m < b < a * m
        return self.least_cone <= m <= n and (a - b) * m * n < b * (m + n) < a * m * n

    def cone_orders(self, N: int) -> list[tuple[int | None, int | None]]:
        """The cone orders (m, n) that could carry order-N actions, ascending (None where unused).

        Cone orders must divide N (their images have exact order), which
        bounds everything; a pair must have lcm(m, n) = N, the condition
        for two cone points alone to carry a surjection onto Z_N.  This is
        O(d(N)) points for one parameter and O(d(N)^2) steps for two.
        """
        if not self.params:
            return [(None, None)]
        values = divisors(N)[1:]
        if len(self.params) == 1:
            return [(m, None) for m in values if self.admits(m)]
        return [
            (m, n)
            for i, m in enumerate(values)
            for n in values[i:]
            if math.lcm(m, n) == N and self.admits(m, n)
        ]

    def points(self, N: int, genus: int | None = None) -> list[tuple[int | None, int | None, int]]:
        """The points of ``cone_orders(N)`` that carry order-N actions, as (m, n, p).

        p is the ``point_genus``, and a point without one is left out;
        the order is that of ``cone_orders``.  With ``genus`` only the
        points at that p are kept, and they are solved from it, not
        searched.  By Hurwitz-Riemann p - 1 = N*mu, with the quotient area
        mu = a/b - 1/m (- 1/n) and a/b = ``_area_base``.  With one cone
        order that pins m = N*b / (N*a - (p - 1)*b); with two, each
        divisor m of N pins n from 1/n = a/b - 1/m - (p - 1)/N, that is
        n = N*b*m / (N*(a*m - b) - (p - 1)*b*m).  A solution counts only
        if it is an integer point of ``cone_orders(N)``, so a family costs
        O(1) steps, or O(d(N)) for two cone orders.  Each solution has
        genus p exactly, unless ``point_genus`` finds another forced order.
        """
        a, b = self._area_base
        if genus is None:
            candidates = self.cone_orders(N)
        elif not self.params:
            candidates = [(None, None)]
        elif len(self.params) == 1:
            den = N * a - (genus - 1) * b
            m, rem = divmod(N * b, den) if den > 0 else (0, 1)
            candidates = [(m, None)] if not rem and m >= 2 and N % m == 0 and self.admits(m) else []
        else:
            candidates = []
            for m in divisors(N)[1:]:
                den = N * (a * m - b) - (genus - 1) * b * m
                if den <= 0:
                    continue
                n, rem = divmod(N * b * m, den)
                if not rem and n >= m and N % n == 0 and math.lcm(m, n) == N and self.admits(m, n):
                    candidates.append((m, n))
        return [
            (m, n, p) for m, n in candidates
            if (p := self.point_genus(m, n, N)) is not None and genus in (None, p)
        ]


class _QuotientFields(NamedTuple):
    kind: str
    m: int | None = None
    n: int | None = None


class QuotientType(_Checked, _QuotientFields):
    """One of the ten quotient-orbifold families, with its cone orders.

    An immutable, checked tuple of its fields: it hashes and compares by
    value, in C, as the oracle's LRU lookups need.
    """

    __slots__ = ()

    def __new__(cls, kind: str, m: int | None = None, n: int | None = None) -> "QuotientType":
        self = tuple.__new__(cls, (kind, m, n))
        fam = FAMILIES.get(kind)
        if fam is None:
            raise ValueError(f"unknown quotient kind {kind!r}")
        check_arguments(kind, fam.params, m=m, n=n)
        if m is not None and not fam.admits(m, n):
            order = f"{fam.least_cone} <= m" + (" <= n" if n is not None else "")
            raise ValueError(
                f"{self.label()} is outside the catalog: the cone orders of {kind} "
                f"ascend ({order}) and the area lies in (0, 1)"
            )
        return self

    def signature(self) -> NecSignature:
        fam = FAMILIES[self.kind]
        return NecSignature(fam.genus, fam.orientable, fam.proper_periods(self.m, self.n), fam.cycles)

    def forced_order(self) -> int | None:
        """The order N that the cone orders force, or None when N is free."""
        return FAMILIES[self.kind].forced_order(self.m, self.n)

    def label(self) -> str:
        if self.n is not None:
            return f"{self.kind}({self.m},{self.n})"
        if self.m is not None:
            return f"{self.kind}({self.m})"
        return self.kind

    def __str__(self) -> str:
        return self.label()


def _swap(a: str, b: str) -> dict[str, tuple[Term, ...]]:
    return {a: ((1, b),), b: ((1, a),)}


#: kind -> Family, in catalog order
FAMILIES: dict[str, Family] = {f.kind: f for f in (
    Family("d6", 1, "disc with 6 corner points", 0, True, (), (), ((2,) * 6,)),
    Family("ann2", 2, "annulus with 2 corner points", 0, True, (), (), ((), (2, 2))),
    Family("mb2", 3, "Moebius band with 2 corner points", 1, False, (), (), ((2, 2),)),
    Family(
        "d12", 4, "disc with 1 cone point and 2 corner points", 0, True, (), ("m",), ((2, 2),),
    ),
    Family(
        "d14", 5, "disc with 1 cone point and 4 corner points", 0, True, (), ("m",), ((2,) * 4,),
    ),
    Family(
        "mb1", 6, "Moebius band with 1 cone point", 1, False, (), ("m",), ((),),
        # with the unit -1, its orientation reversal, delta generates its Klein-four outer group
        moves=(("delta", {"e": ((-1, "e"),), "d": ((-1, "d"), (-1, "x"))}),),
        full_moves=True,
        classify_args=("k", "orientable"),
    ),
    Family(
        "d21", 7, "disc with 2 cone points", 0, True, (), ("m", "n"), ((),),
        # the cone swap when m = n; the boundary reflection is the unit -1
        moves=(("beta", _swap("x1", "x2")),),
        full_moves=True,
        classify_args=("k",),
    ),
    Family(
        "ann1", 8, "annulus with 1 cone point", 0, True, (), ("m",), ((), ()),
        # beta swaps the two boundary cycles; the reflection is the unit -1
        moves=(("beta", {**_swap("e1", "e2"), **_swap("c1", "c2")}),),
        full_moves=True,
        classify_args=("k", "orientable"),
    ),
    Family("d3-23m", 9, "disc with 3 cone points", 0, True, (2, 3), ("m",), ((),)),
    Family("d3-22m", 9, "disc with 3 cone points", 0, True, (2, 2), ("m",), ((),)),
    Family(
        "d2c-3m", 10, "disc with 2 cone points and 2 corner points", 0, True, (3,), ("m",),
        ((2, 2),),
    ),
    Family(
        "d2c-2m", 10, "disc with 2 cone points and 2 corner points", 0, True, (2,), ("m",),
        ((2, 2),),
    ),
)}


# --- covered surfaces -----------------------------------------------------


class _SurfaceFields(NamedTuple):
    orientable: bool
    genus: int
    boundary_count: int


class SurfaceTopology(_Checked, _SurfaceFields):
    """Topological type of a compact bordered surface of algebraic genus >= 2.

    An immutable tuple of its fields, built once per record of a catalog
    sweep: it hashes and compares by value, and also equals a plain tuple
    of the same fields.
    """

    __slots__ = ()

    def __new__(cls, orientable: bool, genus: int, boundary_count: int) -> "SurfaceTopology":
        self = tuple.__new__(cls, (orientable, genus, boundary_count))
        if genus < 0 or boundary_count < 1:
            raise ValueError(f"bad surface data {self}")
        if not orientable and genus < 1:
            raise ValueError("non-orientable surfaces have genus >= 1")
        if (2 if orientable else 1) * genus + boundary_count - 1 < 2:
            raise ValueError(f"{self} is not hyperbolic (algebraic genus < 2)")
        return self

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
