"""Candidate bordered-surface-kernel (BSK) epimorphisms and their surfaces.

A BSK epimorphism theta: Lambda -> Z_N assigns residues to the canonical
generators of an NEC group so that the kernel is a bordered surface group.
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
from dataclasses import dataclass

from .signatures import FAMILIES, CycleSpec, QuotientType, SurfaceTopology, kernel_algebraic_genus
from .zmod import order_mod


@dataclass
class Presentation:
    """A family's ``PresentationSpec`` at the cone orders of ``quotient``."""

    quotient: QuotientType
    gens: tuple[str, ...]
    eps: dict[str, int]  # +1 orientation-preserving, -1 reversing
    free: tuple[str, ...]
    elliptic_orders: dict[str, int]
    cycles: tuple[CycleSpec, ...]
    reflection_names: tuple[str, ...]
    glides: tuple[str, ...]
    long_relation: tuple[tuple[int, str], ...] | None
    derived: dict[str, tuple[tuple[int, str], ...]]

    @property
    def relations(self) -> tuple[str, ...]:
        """The relations x^m stating the elliptic orders, then the family's others."""
        static = FAMILIES[self.quotient.kind].presentation.relations
        return tuple(f"{g}^{o}" for g, o in self.elliptic_orders.items()) + static

    def complete(self, free_images: dict[str, int], N: int) -> dict[str, int]:
        """Fill in dependent generator images from the free ones."""
        images = dict(free_images)
        for name, expr in self.derived.items():
            images[name] = sum(c * images[g] for c, g in expr) % N
        return {g: images[g] % N for g in self.gens}


def presentation_of(q: QuotientType) -> Presentation:
    """The presentation used for this quotient family (see ``PresentationSpec``).

    Only the elliptic orders depend on the cone orders; the rest is the
    family's fixed spec.
    """
    fam = FAMILIES[q.kind]
    spec = fam.presentation
    return Presentation(
        quotient=q,
        gens=spec.gens,
        eps=spec.eps,
        free=spec.free,
        elliptic_orders=dict(zip(spec.elliptic, fam.proper_periods(q.m, q.n))),
        cycles=spec.cycles,
        reflection_names=spec.reflection_names,
        glides=spec.glides,
        long_relation=spec.long_relation,
        derived=spec.derived,
    )


@dataclass(frozen=True)
class BskMap:
    """Residues mod N assigned to the canonical generators, in ``gens`` order."""

    quotient: QuotientType
    N: int
    images: tuple[int, ...]

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
    pres = presentation_of(bmap.quotient)
    N = bmap.N
    img = bmap.image_dict
    bad = []
    for name, want in pres.elliptic_orders.items():
        got = order_mod(img[name], N)
        if got != want:
            bad.append(f"{name} has order {got}, requires exact order {want}")
    for c in pres.reflection_names:
        if (2 * img[c]) % N != 0:
            bad.append(f"reflection {c} image {img[c]} does not square to 0")
    for cyc in pres.cycles:
        names = cyc.reflections + ((cyc.tail,) if cyc.tail else (cyc.reflections[0],))
        if cyc.tail and img[cyc.tail] != img[cyc.reflections[0]]:
            bad.append(f"{cyc.tail} must equal the conjugate image of {cyc.reflections[0]}")
        for j in range(cyc.length):
            a, b = names[j], names[j + 1] if j + 1 < len(names) else names[0]
            if order_mod(img[a] + img[b], N) != 2:
                bad.append(f"corner ({a} {b}) has order {order_mod(img[a] + img[b], N)}, not 2")
    if pres.long_relation is not None:
        total = sum(c * img[g] for c, g in pres.long_relation) % N
        if total != 0:
            bad.append(f"long relation evaluates to {total}")
    if math.gcd(N, *[v for v in img.values()]) != 1:
        bad.append("images do not generate Z_N")
    if not any(img[c] == 0 for c in pres.reflection_names):
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
    images, the differences of reversing images, and 2w.
    """
    pres = presentation_of(bmap.quotient)
    N = bmap.N
    img = bmap.image_dict
    refl = set(pres.reflection_names)
    preserving = []
    reversing = []
    for g in pres.gens:
        if pres.eps[g] == 1:
            preserving.append(img[g])
        elif g in refl and img[g] == 0:
            continue  # kernel reflections may not appear in the word
        else:
            reversing.append(img[g])
    if not reversing:
        return True
    w = reversing[0]
    gens = preserving + [x - w for x in reversing[1:]] + [2 * w]
    d = math.gcd(N, *gens)
    return w % d != 0


def orientability_case_rule(bmap: BskMap) -> bool:
    """Per-family orientability criteria, as derived in the case analyses.

    Redundant with the general non-orientable-word test in orientability();
    kept as the reference the tests check it against on every smooth map
    of the oracle sweep.  True means the covered surface is orientable.
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


def action_reverses_orientation(bmap: BskMap) -> bool | None:
    """For orientable covers: does a generator of the action reverse orientation?

    The orientation behaviour is a homomorphism Z_N -> Z_2; when it is
    non-trivial every generator of Z_N reverses.  It is non-trivial exactly
    when some orientation-reversing canonical generator survives outside
    the kernel reflections (a glide, or a reflection with image N/2).
    Returns None for non-orientable covers.
    """
    if not orientability(bmap):
        return None
    pres = presentation_of(bmap.quotient)
    img = bmap.image_dict
    if pres.glides:
        return True
    return any(img[c] != 0 for c in pres.reflection_names)


def boundary_count(bmap: BskMap) -> int:
    """Boundary components of the covered surface.

    Each period cycle contributes: 0 if empty with the reflection outside
    the kernel; N/order(theta(e)) if empty with the reflection in the
    kernel; s*N/4 if non-empty of length s.  Integrality of s*N/4 holds for
    every smooth map (non-empty cycles force N even) and is asserted, not
    rounded.
    """
    pres = presentation_of(bmap.quotient)
    N = bmap.N
    img = bmap.image_dict
    total = 0
    for cyc in pres.cycles:
        if cyc.length == 0:
            if img[cyc.reflections[0]] != 0:
                continue
            assert cyc.connector is not None
            total += N // order_mod(img[cyc.connector], N)
        else:
            s = cyc.length * N
            assert s % 4 == 0, f"cycle contribution {cyc.length}*{N}/4 is not integral"
            total += s // 4
    return total


def surface_of(bmap: BskMap) -> SurfaceTopology:
    """Topological type of the covered surface of a smooth map."""
    failures = smoothness_failures(bmap)
    if failures:
        raise ValueError(f"map is not smooth: {failures[0]}")
    orientable = orientability(bmap)
    k = boundary_count(bmap)
    p = kernel_algebraic_genus(bmap.quotient.signature(), bmap.N)
    return SurfaceTopology.of_genus(orientable, p, k)
