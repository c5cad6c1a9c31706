"""Candidate bordered-surface-kernel (BSK) epimorphisms and their surfaces.

A BSK epimorphism theta: Lambda -> Z_N assigns residues to the canonical
generators of an NEC group so that the kernel is a bordered surface group.
The generators and relations are those of the quotient's signature, one
spec per quotient (``presentation_of``); a map is a residue vector in its
``gens`` order, and the rules read the relations as positions in it.
Working additively in Z_N this means: every relation evaluates to zero,
every elliptic generator keeps its exact order, each corner's pair of
consecutive reflections has its link period as the exact order of its
product (reflections map into {0, N/2}, so only a link period 2 is ever
met), the images generate Z_N, and at least one reflection lies in the
kernel (the quotient surface is bordered).

From a smooth assignment the module derives the topology of the covered
surface: orientability (via non-orientable words), the boundary count
(via the empty-cycle transfer rule), and the genus (via Hurwitz-Riemann).

The rules exist once, as ``PointRules.failures``: compiled from a spec at
one N, with element orders read from the per-N ``zmod.order_table``, it
yields the failure messages lazily.
``smoothness_failures`` lists them all; ``is_smooth``, ``surface_of`` and
the oracle's enumeration and orbit checks take only the first, so a smooth
vector builds no message.  The invariants exist once too, as the
``PointRules`` methods ``orientable``, ``boundary_count``, ``reversing``,
``connector_orders`` and ``surface``; ``surface`` works out the point's
genus once, at its first smooth vector, and keeps the ``SurfaceTopology``
of each (orientable, boundary count) it meets.  The public
``orientability``, ``boundary_count``, ``has_reversing_image`` and
``surface_of`` read the compiled point.
Caches: ``presentation_of`` keeps the last 64 quotients and
``point_rules`` the last 16 points, both LRU, and the surface memo lives
on the compiled point; only the per-N order tables are kept without
bound, and none is built at import.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

from .signatures import (
    PresentationSpec, QuotientType, SurfaceTopology, kernel_algebraic_genus, presentation,
)
from .zmod import _Checked, order_table


@lru_cache(maxsize=64)
def presentation_of(q: QuotientType) -> PresentationSpec:
    """The presentation of ``q``'s signature, memoised for the last 64 quotients.

    Every caller shares the spec, so its ``elliptic_orders`` is read-only.
    """
    return presentation(q.signature())


class _BskMapFields(NamedTuple):
    quotient: QuotientType
    N: int
    images: tuple[int, ...]


class BskMap(_Checked, _BskMapFields):
    """Residues mod N for the canonical generators, in ``gens`` order: one each, in 0..N-1.

    An immutable, checked tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, quotient: QuotientType, N: int, images: tuple[int, ...]) -> "BskMap":
        gens = presentation_of(quotient).gens
        if len(images) != len(gens) or min(images) < 0 or max(images) >= N:
            want = f"one residue in 0..{N - 1} per generator {gens}"
            raise ValueError(f"{quotient} needs {want}, got {images}")
        return tuple.__new__(cls, (quotient, N, images))

    @classmethod
    def from_dict(cls, quotient: QuotientType, N: int, images: dict[str, int]) -> "BskMap":
        gens = presentation_of(quotient).gens
        if set(images) != set(gens):
            raise ValueError(f"images must cover generators {gens}")
        return cls(quotient, N, tuple(images[g] % N for g in gens))

    @property
    def image_dict(self) -> dict[str, int]:
        return dict(zip(presentation_of(self.quotient).gens, self.images))

    def to_json(self) -> str:
        payload = {
            "signature": self.quotient.signature().render(),
            "quotient": self.quotient.label(),
            "N": self.N,
            "images": self.image_dict,
        }
        return json.dumps(payload, sort_keys=True)

    def __str__(self) -> str:
        imgs = ", ".join(f"{g}->{v}" for g, v in self.image_dict.items())
        return f"{self.quotient}@Z_{self.N}[{imgs}]"


class PointRules:
    """The BSK rules of one presentation at one order N, compiled from the spec.

    The rules (see the module docstring) become position tuples read off
    the spec once and stored on the point: each elliptic generator with
    its exact order (``_elliptic``), the reflections (``_reflections``),
    each ring's tail with the reflection it equals (``_tails``), the
    corners with their link periods (``_corners``) and the (coefficient,
    position) terms of the long relation (``_long_relation``); element
    orders are read from ``order_table(N)``.  Any signature's spec will
    do, in the catalog or not.  ``failures`` is the one rule body; it
    reads the reflections' images once, for their squares and for the
    border rule.

    The invariants of a smooth vector are compiled the same way: the
    orientation-preserving positions (``_preserving``) and the glides
    (``_glides``), each empty cycle's reflection and connector, and the
    boundary the non-empty cycles contribute, which depends on N alone.
    ``surface`` works out the genus from the spec's ``signature`` at its
    first smooth vector (``_genus``), and keeps the ``SurfaceTopology`` of
    each (orientable, boundary count) it has met.
    """

    __slots__ = (
        "N", "pres", "_genus", "_orders", "_elliptic", "_reflections", "_tails", "_corners",
        "_long_relation", "_glides", "_preserving", "_empty_cycles", "_cycle_boundary",
        "_cycle_error", "_surfaces",
    )

    def __init__(self, pres: PresentationSpec, N: int):
        self.N, self.pres, self._genus = N, pres, None
        self._orders = order_table(N)
        self._elliptic = tuple((i, pres.elliptic_orders[pres.gens[i]]) for i in pres.elliptic)
        self._reflections, self._corners = pres.reflections, pres.corners
        self._long_relation = pres.long_relation
        self._glides, self._preserving = pres.glides, pres.preserving
        # an empty cycle's ring, its one reflection, has no tail
        self._tails = tuple((ring[-1], ring[0]) for ring in pres.rings if len(ring) > 1)
        self._empty_cycles = tuple(
            (ring[0], connector) for ring, connector in zip(pres.rings, pres.connectors)
            if len(ring) == 1
        )
        lengths = [len(ring) - 1 for ring in pres.rings if len(ring) > 1]
        self._cycle_boundary = sum(length * N // 4 for length in lengths)
        self._cycle_error = next(
            (f"cycle contribution {length}*{N}/4 is not integral" for length in lengths
             if length * N % 4),
            None,
        )
        self._surfaces: dict[tuple[bool, int], SurfaceTopology] = {}

    def failures(self, vec: tuple[int, ...]) -> Iterator[str]:
        """Each reason the residue vector ``vec`` is not smooth, in rule order, as it is met."""
        N, orders, gens = self.N, self._orders, self.pres.gens
        for i, want in self._elliptic:
            got = orders[vec[i]]
            if got != want:
                yield f"{gens[i]} has order {got}, requires exact order {want}"
        reflected = [vec[i] for i in self._reflections]
        for i, image in zip(self._reflections, reflected):
            if 2 * image % N:
                yield f"reflection {gens[i]} image {image} does not square to 0"
        for tail, head in self._tails:
            if vec[tail] != vec[head]:
                yield f"{gens[tail]} must equal the conjugate image of {gens[head]}"
        for a, b, want in self._corners:
            got = orders[(vec[a] + vec[b]) % N]
            if got != want:
                yield f"corner ({gens[a]} {gens[b]}) has order {got}, not {want}"
        total = sum([c * vec[i] for c, i in self._long_relation]) % N
        if total:
            yield f"long relation evaluates to {total}"
        if math.gcd(N, *vec) != 1:
            yield "images do not generate Z_N"
        if 0 not in reflected:
            yield "kernel contains no reflection (surface would be unbordered)"

    def first_failure(self, vec: tuple[int, ...]) -> str | None:
        """The first of ``failures``, or None for a smooth vector; no later rule runs."""
        return next(self.failures(vec), None)

    def orientable(self, vec: tuple[int, ...]) -> bool:
        """True when the covered surface of ``vec`` is orientable.

        The surface is non-orientable iff the kernel contains a
        non-orientable word: an orientation-reversing word, avoiding the
        reflections that lie in the kernel, with image 0.  Over the abelian
        target the reachable (image, orientation-character) pairs form the
        subgroup of Z_N x Z_2 generated by the included generators, so the
        test is membership of (0, -1): with w one included reversing image,
        the surface is non-orientable iff w lies in the subgroup generated
        by the preserving images, the differences of reversing images, and
        2w.  (Which included reversing image is w does not matter: any two
        differ by an element of that subgroup.)
        """
        reversing = [vec[i] for i in self._glides] + [vec[i] for i in self._reflections if vec[i]]
        if not reversing:
            return True
        w = reversing[0]
        gens = [vec[i] for i in self._preserving] + [x - w for x in reversing[1:]] + [2 * w]
        return w % math.gcd(self.N, *gens) != 0

    def reversing(self, vec: tuple[int, ...]) -> bool:
        """Does a glide, or a reflection with image N/2, survive outside the kernel?"""
        return bool(self._glides) or any([vec[i] for i in self._reflections])

    def boundary_count(self, vec: tuple[int, ...]) -> int:
        """Boundary components of the covered surface of ``vec``.

        Each period cycle contributes: 0 if empty with the reflection
        outside the kernel; N/order(theta(e)) = gcd(theta(e), N) if empty
        with the reflection in the kernel; s*N/4 if non-empty of length s.
        Integrality of s*N/4 holds for every smooth map (non-empty cycles
        force N even) and is asserted, not rounded.
        """
        assert self._cycle_error is None, self._cycle_error
        total, N = self._cycle_boundary, self.N
        for reflection, connector in self._empty_cycles:
            if vec[reflection] == 0:
                total += math.gcd(vec[connector], N)
        return total

    def connector_orders(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        """The orders of the connector images, ascending."""
        orders = self._orders
        return tuple(sorted([orders[vec[i]] for i in self.pres.connectors]))

    def surface(self, vec: tuple[int, ...]) -> SurfaceTopology:
        """Topological type of the covered surface; raises ValueError if ``vec`` is not smooth."""
        failure = self.first_failure(vec)
        if failure is not None:
            raise ValueError(f"map is not smooth: {failure}")
        key = (self.orientable(vec), self.boundary_count(vec))
        surface = self._surfaces.get(key)
        if surface is None:
            self._genus = self._genus or kernel_algebraic_genus(self.pres.signature, self.N)
            surface = self._surfaces[key] = SurfaceTopology.of_genus(key[0], self._genus, key[1])
        return surface


@lru_cache(maxsize=16)
def point_rules(q: QuotientType, N: int) -> PointRules:
    """The compiled rules and invariants at (q, N), memoised for the last 16 points."""
    return PointRules(presentation_of(q), N)


def smoothness_failures(bmap: BskMap) -> list[str]:
    """All reasons the assignment fails to be a BSK epimorphism (empty = smooth)."""
    return list(point_rules(bmap.quotient, bmap.N).failures(bmap.images))


def is_smooth(bmap: BskMap) -> bool:
    return point_rules(bmap.quotient, bmap.N).first_failure(bmap.images) is None


def orientability(bmap: BskMap) -> bool:
    """True when the covered surface is orientable (``PointRules.orientable``)."""
    return point_rules(bmap.quotient, bmap.N).orientable(bmap.images)


def has_reversing_image(bmap: BskMap) -> bool:
    """Does an orientation-reversing canonical generator survive outside the kernel?

    That is a glide, or a reflection with image N/2.  On an orientable
    cover this says whether the action reverses orientation.
    """
    return point_rules(bmap.quotient, bmap.N).reversing(bmap.images)


def action_reverses_orientation(bmap: BskMap) -> bool | None:
    """For orientable covers: does a generator of the action reverse orientation?

    The orientation behaviour is a homomorphism Z_N -> Z_2; when it is
    non-trivial every generator of Z_N reverses.  It is non-trivial exactly
    when ``has_reversing_image``.  Returns None for non-orientable covers.
    """
    if not orientability(bmap):
        return None
    return has_reversing_image(bmap)


def boundary_count(bmap: BskMap) -> int:
    """Boundary components of the covered surface (``PointRules.boundary_count``)."""
    return point_rules(bmap.quotient, bmap.N).boundary_count(bmap.images)


def surface_of(bmap: BskMap) -> SurfaceTopology:
    """Topological type of the covered surface of a smooth map; raises ValueError otherwise."""
    return point_rules(bmap.quotient, bmap.N).surface(bmap.images)
