"""Candidate bordered-surface-kernel (BSK) epimorphisms and their surfaces.

A BSK epimorphism theta: Lambda -> Z_N assigns residues to the canonical
generators of an NEC group so that the kernel is a bordered surface group.
The generators and relations are the family's ``presentation``, derived
from its signature; a map is a residue vector in its ``gens`` order, and
the rules read the relations as positions in that vector.
Working additively in Z_N this means: every relation evaluates to zero,
every elliptic generator keeps its exact order, every pair of consecutive
canonical reflections keeps exact order 2 for its product, the images
generate Z_N, and at least one reflection lies in the kernel (the quotient
surface is bordered).

From a smooth assignment the module derives the topology of the covered
surface: orientability (via non-orientable words), the boundary count
(via the empty-cycle transfer rule), and the genus (via Hurwitz-Riemann).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .signatures import FAMILIES, PresentationSpec, QuotientType, SurfaceTopology
from .zmod import order_mod


def presentation_of(q: QuotientType) -> PresentationSpec:
    """The family's spec at the cone orders of ``q``: its ``elliptic_orders`` filled in."""
    fam = FAMILIES[q.kind]
    spec = fam.presentation
    names = (spec.gens[i] for i in spec.elliptic)
    return replace(spec, elliptic_orders=dict(zip(names, fam.proper_periods(q.m, q.n))))


@dataclass(frozen=True)
class BskMap:
    """Residues mod N for the canonical generators, in ``gens`` order: one each, in 0..N-1."""

    quotient: QuotientType
    N: int
    images: tuple[int, ...]

    def __post_init__(self):
        vec, gens = self.images, FAMILIES[self.quotient.kind].presentation.gens
        if len(vec) != len(gens) or min(vec) < 0 or max(vec) >= self.N:
            want = f"one residue in 0..{self.N - 1} per generator {gens}"
            raise ValueError(f"{self.quotient} needs {want}, got {vec}")

    @classmethod
    def from_dict(cls, quotient: QuotientType, N: int, images: dict[str, int]) -> "BskMap":
        gens = FAMILIES[quotient.kind].presentation.gens
        if set(images) != set(gens):
            raise ValueError(f"images must cover generators {gens}")
        return cls(quotient, N, tuple(images[g] % N for g in gens))

    @property
    def image_dict(self) -> dict[str, int]:
        return dict(zip(FAMILIES[self.quotient.kind].presentation.gens, self.images))

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


def smoothness_failures(bmap: BskMap) -> list[str]:
    """All reasons the assignment fails to be a BSK epimorphism (empty = smooth)."""
    q, N, vec = bmap.quotient, bmap.N, bmap.images
    fam = FAMILIES[q.kind]
    pres = fam.presentation
    gens = pres.gens
    bad = []
    for i, want in zip(pres.elliptic, fam.proper_periods(q.m, q.n)):
        got = order_mod(vec[i], N)
        if got != want:
            bad.append(f"{gens[i]} has order {got}, requires exact order {want}")
    for i in pres.reflections:
        if (2 * vec[i]) % N != 0:
            bad.append(f"reflection {gens[i]} image {vec[i]} does not square to 0")
    for ring in pres.rings:  # an empty cycle's ring, its one reflection, has no tail
        if vec[ring[-1]] != vec[ring[0]]:
            bad.append(f"{gens[ring[-1]]} must equal the conjugate image of {gens[ring[0]]}")
    for a, b in pres.corners:
        got = order_mod(vec[a] + vec[b], N)
        if got != 2:
            bad.append(f"corner ({gens[a]} {gens[b]}) has order {got}, not 2")
    total = sum(c * vec[i] for c, i in pres.long_relation) % N
    if total != 0:
        bad.append(f"long relation evaluates to {total}")
    if math.gcd(N, *vec) != 1:
        bad.append("images do not generate Z_N")
    if all(vec[i] != 0 for i in pres.reflections):
        bad.append("kernel contains no reflection (surface would be unbordered)")
    return bad


def is_smooth(bmap: BskMap) -> bool:
    return not smoothness_failures(bmap)


def orientability(bmap: BskMap) -> bool:
    """True when the covered surface is orientable.

    The surface is non-orientable iff the kernel contains a non-orientable
    word: an orientation-reversing word, avoiding the reflections that lie
    in the kernel, with image 0.  Over the abelian target the reachable
    (image, orientation-character) pairs form the subgroup of Z_N x Z_2
    generated by the included generators, so the test is membership of
    (0, -1): with w one included reversing image, the surface is
    non-orientable iff w lies in the subgroup generated by the preserving
    images, the differences of reversing images, and 2w.  (Which included
    reversing image is w does not matter: any two differ by an element of
    that subgroup.)
    """
    pres = FAMILIES[bmap.quotient.kind].presentation
    vec = bmap.images
    reversing = [vec[i] for i in pres.glides] + [vec[i] for i in pres.reflections if vec[i]]
    if not reversing:
        return True
    w = reversing[0]
    gens = [vec[i] for i in pres.preserving] + [x - w for x in reversing[1:]] + [2 * w]
    d = math.gcd(bmap.N, *gens)
    return w % d != 0


def has_reversing_image(bmap: BskMap) -> bool:
    """Does an orientation-reversing canonical generator survive outside the kernel?

    That is a glide, or a reflection with image N/2.  On an orientable
    cover this says whether the action reverses orientation.
    """
    pres = FAMILIES[bmap.quotient.kind].presentation
    return bool(pres.glides) or any(bmap.images[i] for i in pres.reflections)


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
    """Boundary components of the covered surface.

    Each period cycle contributes: 0 if empty with the reflection outside
    the kernel; N/order(theta(e)) if empty with the reflection in the
    kernel; s*N/4 if non-empty of length s.  Integrality of s*N/4 holds for
    every smooth map (non-empty cycles force N even) and is asserted, not
    rounded.
    """
    pres = FAMILIES[bmap.quotient.kind].presentation
    N, vec = bmap.N, bmap.images
    total = 0
    for ring, connector in zip(pres.rings, pres.connectors):
        length = len(ring) - 1
        if length:
            assert length * N % 4 == 0, f"cycle contribution {length}*{N}/4 is not integral"
            total += length * N // 4
        elif vec[ring[0]] == 0:
            total += N // order_mod(vec[connector], N)
    return total


def surface_of(bmap: BskMap) -> SurfaceTopology:
    """Topological type of the covered surface of a smooth map."""
    failures = smoothness_failures(bmap)
    if failures:
        raise ValueError(f"map is not smooth: {failures[0]}")
    q = bmap.quotient
    p = FAMILIES[q.kind].point_genus(q.m, q.n, bmap.N)
    assert p is not None, f"a smooth map at {q}, order {bmap.N}, a point without a genus"
    return SurfaceTopology.of_genus(orientability(bmap), p, boundary_count(bmap))
