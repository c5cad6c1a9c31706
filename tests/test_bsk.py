"""Presentations, smoothness, orientability, boundary transfer, surfaces."""

import ast
import itertools
import json
import math
from pathlib import Path

import pytest
from catalog_points import instances

import necsurf.bsk
from necsurf.bsk import (
    BskMap,
    PointRules,
    action_reverses_orientation,
    boundary_count,
    has_reversing_image,
    is_smooth,
    orientability,
    point_rules,
    presentation_of,
    smoothness_failures,
    surface_of,
)
from necsurf.oracle import _free_domains, canonical_vectors, oracle_report
from necsurf.signatures import (
    FAMILIES, NecSignature, QuotientType, SurfaceTopology, area, presentation,
)
from necsurf.zmod import euler_phi


def bmap(kind, N, images, **params):
    return BskMap.from_dict(QuotientType(kind, **params), N, images)


# d6 at N = 2: reflections alternating 1, 0, ..., the tail c6 equal to c0
ALTERNATING = {"e": 0, **{f"c{i}": (i + 1) % 2 for i in range(7)}}

C = tuple(f"c{i}" for i in range(7))

#: kind -> (gens, free) of the presentation derived from the signature
PRESENTATIONS = {
    "d6": (("e",) + C, C[:6]),
    "ann2": (("e1", "e2", "c1", "c20", "c21", "c22"), ("e1", "c1", "c20", "c21")),
    "mb2": (("e",) + C[:3] + ("d",), C[:2] + ("d",)),
    "d12": (("x", "e") + C[:3], ("x",) + C[:2]),
    "d14": (("x", "e") + C[:5], ("x",) + C[:4]),
    "mb1": (("x", "e", "c", "d"), ("x", "c", "d")),
    "d21": (("x1", "x2", "e", "c"), ("x1", "x2", "c")),
    "ann1": (("x", "e1", "e2", "c1", "c2"), ("x", "e1", "c1", "c2")),
    "d3-23m": (("x1", "x2", "x3", "e", "c"), ("x1", "x2", "x3", "c")),
    "d3-22m": (("x1", "x2", "x3", "e", "c"), ("x1", "x2", "x3", "c")),
    "d2c-3m": (("x1", "x2", "e") + C[:3], ("x1", "x2") + C[:2]),
    "d2c-2m": (("x1", "x2", "e") + C[:3], ("x1", "x2") + C[:2]),
}


def names(pres, positions):
    return tuple(pres.gens[i] for i in positions)


def named(pres, terms):
    """(coefficient, position) terms with the positions read as generator names."""
    return tuple((c, pres.gens[i]) for c, i in terms)


def test_presentation_generator_names():
    """Every family's generators and free generators, as built from the signature
    of its first admitted point."""
    assert set(PRESENTATIONS) == set(FAMILIES)
    for kind, (gens, free) in PRESENTATIONS.items():
        pres = presentation(instances(FAMILIES[kind], range(2, 31))[0].signature())
        assert (pres.gens, pres.free) == (gens, free), kind
    pres = presentation_of(QuotientType("ann1", m=5))
    assert pres.elliptic_orders == {"x": 5}
    pres = presentation_of(QuotientType("mb1", m=4))
    assert names(pres, pres.glides) == ("d",)
    assert named(pres, pres.long_relation) == ((1, "x"), (1, "e"), (2, "d"))
    assert {pres.gens[i]: named(pres, t) for i, t in pres.derived} == {"e": ((-1, "x"), (-2, "d"))}
    pres = presentation_of(QuotientType("d6"))
    # six corners, the last one closing the ring through the tail c6 = c0
    (ring,) = pres.rings
    assert names(pres, ring) == C
    assert [(*names(pres, (a, b)), n) for a, b, n in pres.corners] == [
        (a, b, 2) for a, b in zip(C[:6], C[1:])
    ]
    assert {pres.gens[i]: named(pres, t) for i, t in pres.derived} == {"e": (), "c6": ((1, "c0"),)}
    # an empty cycle's ring is its one reflection
    pres = presentation(QuotientType("ann2").signature())
    assert [names(pres, ring) for ring in pres.rings] == [("c1",), ("c20", "c21", "c22")]
    assert names(pres, pres.connectors) == ("e1", "e2")


def test_completion_fills_dependents():
    pres = presentation_of(QuotientType("d21", m=2, n=3))
    images = pres.complete((3, 2, 0), 6)  # at the free generators x1, x2, c
    assert dict(zip(pres.gens, images)) == {"x1": 3, "x2": 2, "c": 0, "e": 1}


def test_smooth_examples_two_cone_disc():
    assert is_smooth(bmap("d21", 6, {"x1": 3, "x2": 2, "e": 1, "c": 0}, m=2, n=3))
    assert is_smooth(bmap("d21", 6, {"x1": 3, "x2": 4, "e": 5, "c": 0}, m=2, n=3))
    broken = bmap("d21", 6, {"x1": 0, "x2": 2, "e": 4, "c": 0}, m=2, n=3)
    assert not is_smooth(broken)
    assert any("exact order 2" in msg for msg in smoothness_failures(broken))


def test_smoothness_rejects_relation_violations():
    # wrong long-relation value
    m = bmap("d21", 6, {"x1": 3, "x2": 2, "e": 2, "c": 0}, m=2, n=3)
    assert any("long relation" in msg for msg in smoothness_failures(m))
    # no reflection in the kernel: unbordered
    m = bmap("d21", 6, {"x1": 3, "x2": 2, "e": 1, "c": 3}, m=2, n=3)
    assert any("unbordered" in msg for msg in smoothness_failures(m))
    # consecutive reflections with equal images
    m = bmap("d12", 4, {"x": 1, "e": 3, "c0": 2, "c1": 2, "c2": 2}, m=4)
    assert any("corner" in msg for msg in smoothness_failures(m))


@pytest.mark.parametrize("kind, params, N, images, failures", [
    ("d21", {"m": 2, "n": 3}, 6, {"x1": 3, "x2": 1, "e": 2, "c": 0},
     ["x2 has order 6, requires exact order 3"]),
    ("d21", {"m": 2, "n": 3}, 6, {"x1": 3, "x2": 2, "e": 1, "c": 1},
     ["reflection c image 1 does not square to 0",
      "kernel contains no reflection (surface would be unbordered)"]),
    ("d6", {}, 2, {**ALTERNATING, "c6": 0},
     ["c6 must equal the conjugate image of c0", "corner (c5 c6) has order 1, not 2"]),
    ("d12", {"m": 4}, 4, {"x": 1, "e": 3, "c0": 0, "c1": 0, "c2": 0},
     ["corner (c0 c1) has order 1, not 2", "corner (c1 c2) has order 1, not 2"]),
    ("d21", {"m": 2, "n": 3}, 6, {"x1": 3, "x2": 2, "e": 2, "c": 0},
     ["long relation evaluates to 1"]),
    ("mb1", {"m": 2}, 4, {"x": 2, "e": 2, "c": 0, "d": 2}, ["images do not generate Z_N"]),
    ("d21", {"m": 2, "n": 3}, 6, {"x1": 3, "x2": 2, "e": 1, "c": 3},
     ["kernel contains no reflection (surface would be unbordered)"]),
], ids=["order", "square", "tail", "corner", "long-relation", "generation", "border"])
def test_each_smoothness_rule_names_its_generators(kind, params, N, images, failures):
    """One broken map per rule: exact order, square, tail, corner, long relation, generation, border."""
    assert smoothness_failures(bmap(kind, N, images, **params)) == failures


def smooth_vectors(pres, N):
    """Every smooth residue vector of the spec ``pres`` at N, by brute force over the
    free images (elliptic images of their exact order, reflections 0 or N/2)."""
    rules = PointRules(pres, N)
    vectors = (pres.complete(combo, N) for combo in itertools.product(*_free_domains(pres, N)))
    return [vec for vec in vectors if rules.first_failure(vec) is None]


def test_rules_compiled_from_signatures_outside_the_catalog():
    """A bordered signature outside the catalog gets its spec and rules from the
    signature alone.  A link period 3, or a cycle of odd length, admits no smooth
    map: a product of two reflections has order 1 or 2, and an odd ring of
    reflections in {0, N/2} cannot alternate.  The oracle's canonical search finds
    none at any N <= 48, nor does the brute force at N <= 16.  At catalog points
    the same brute force counts the oracle's maps, phi(N) per canonical vector."""
    link_3 = (NecSignature(0, True, (2,), ((2, 3),)), NecSignature(0, True, (3,), ((2, 3),)))
    odd_cycle = NecSignature(0, True, (3,), ((2, 2, 2),))
    for sig in (*link_3, odd_cycle):
        pres = presentation(sig)
        assert [n for *_, n in pres.corners] == [n for cycle in sig.period_cycles for n in cycle]
        for N in range(2, 49):
            assert canonical_vectors(PointRules(pres, N)) == [], (sig, N)
            if N <= 16:
                assert smooth_vectors(pres, N) == [], (sig, N)
    pres = presentation(link_3[0])
    assert pres.gens == ("x", "e", "c0", "c1", "c2")
    assert list(PointRules(pres, 2).failures((1, 1, 0, 1, 0))) == ["corner (c1 c2) has order 2, not 3"]
    catalog = [(QuotientType("d2c-3m", m=4), 12, 8), (QuotientType("mb1", m=4), 8, 8),
               (QuotientType("ann2"), 6, 16), (QuotientType("d21", m=2, n=3), 6, 2)]
    for q, N, count in catalog:
        pres = presentation(q.signature())
        assert len(smooth_vectors(pres, N)) == count, (q, N)
        assert euler_phi(N) * len(canonical_vectors(PointRules(pres, N))) == count, (q, N)
        assert oracle_report(q, N).map_count == count, (q, N)
    with pytest.raises(AssertionError, match="hyperbolic generators"):
        presentation(NecSignature(1, True, (3,), ((),)))
    with pytest.raises(AssertionError, match="no period cycle"):
        presentation(NecSignature(1, False))


def test_compiled_surfaces_outside_the_catalog_take_their_genus_from_the_signature():
    """The compiled point of a signature outside the catalog gives each smooth vector
    its surface: algebraic genus N*area + 1, with the point's own orientability and
    boundary count.  The signatures are the three of area exactly 1 with smooth maps
    at every N, and (0;+;[2,2];{(),()}), at every N <= 24."""
    area_1 = (NecSignature(0, True, (), ((), (), ())), NecSignature(1, False, (), ((), ())),
              NecSignature(2, False, (), ((),)), NecSignature(0, True, (2, 2), ((), ())))
    checked = 0
    for sig in area_1:
        assert area(sig) == 1, sig
        for N in range(2, 25):
            rules = PointRules(presentation(sig), N)
            for vec in canonical_vectors(rules):
                surface = rules.surface(vec)
                assert surface.algebraic_genus == N * area(sig) + 1, (sig, N, vec)
                want = (rules.orientable(vec), rules.boundary_count(vec))
                assert (surface.orientable, surface.boundary_count) == want, (sig, N, vec)
                checked += 1
    assert checked == 3989


def test_bsk_reads_no_catalog_row():
    """``necsurf/bsk.py`` names neither ``FAMILIES`` nor ``Family``: a compiled point
    takes everything, its genus included, from its presentation's signature."""
    path = Path(necsurf.bsk.__file__)
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    assert names & {"FAMILIES", "Family"} == set()


def orientability_reference(bmap):
    """The non-orientable-word test on a ``BskMap``, reading its quotient's spec.

    The body ``orientability`` had before it read the compiled point, kept
    as the reference of ``PointRules.orientable``.
    """
    pres = presentation_of(bmap.quotient)
    vec = bmap.images
    reversing = [vec[i] for i in pres.glides] + [vec[i] for i in pres.reflections if vec[i]]
    if not reversing:
        return True
    w = reversing[0]
    gens = [vec[i] for i in pres.preserving] + [x - w for x in reversing[1:]] + [2 * w]
    d = math.gcd(bmap.N, *gens)
    return w % d != 0


def boundary_count_reference(bmap):
    """The per-cycle boundary transfer on a ``BskMap``: the body ``boundary_count``
    had before it read the compiled point, kept as the reference of
    ``PointRules.boundary_count``."""
    pres = presentation_of(bmap.quotient)
    N, vec = bmap.N, bmap.images
    total = 0
    for ring, connector in zip(pres.rings, pres.connectors):
        length = len(ring) - 1
        if length:
            assert length * N % 4 == 0, f"cycle contribution {length}*{N}/4 is not integral"
            total += length * N // 4
        elif vec[ring[0]] == 0:
            total += math.gcd(vec[connector], N)  # N / order(theta(e))
    return total


def test_compiled_invariants_match_map_based_reference(smooth_maps_48):
    """On every smooth map with N <= 48 the compiled point's orientability, boundary
    count, reversal and surface equal the ``BskMap``-based bodies and Hurwitz-Riemann
    at the family's point genus; the public functions read the compiled point."""
    checked = 0
    for (q, N), maps in smooth_maps_48.items():
        rules, p = point_rules(q, N), FAMILIES[q.kind].point_genus(q.m, q.n, N)
        pres = presentation_of(q)
        for seen, bmap in enumerate(maps):
            vec = bmap.images
            orientable, k = orientability_reference(bmap), boundary_count_reference(bmap)
            reversing = bool(pres.glides) or any(vec[i] for i in pres.reflections)
            invariants = (orientable, k, reversing, SurfaceTopology.of_genus(orientable, p, k))
            compiled = (rules.orientable(vec), rules.boundary_count(vec), rules.reversing(vec),
                        rules.surface(vec))
            assert compiled == invariants, bmap
            if seen < 2:
                public = (orientability(bmap), boundary_count(bmap), has_reversing_image(bmap),
                          surface_of(bmap))
                assert public == invariants, bmap
            checked += 1
    assert checked == 120887


def test_boundary_count_asserts_an_integral_cycle_contribution():
    """d6 at N = 3: a six-corner cycle would contribute 6*3/4 boundary components."""
    odd = BskMap(QuotientType("d6"), 3, (0,) * 8)
    with pytest.raises(AssertionError, match=r"cycle contribution 6\*3/4 is not integral"):
        boundary_count(odd)
    with pytest.raises(AssertionError, match=r"cycle contribution 6\*3/4 is not integral"):
        boundary_count_reference(odd)


def test_orientability_examples():
    alternating = bmap("d6", 2, ALTERNATING)
    assert is_smooth(alternating)
    assert orientability(alternating)
    assert action_reverses_orientation(alternating) is True

    mb2_8 = bmap("mb2", 8, {"e": 6, "d": 1, "c0": 4, "c1": 0, "c2": 4})
    assert is_smooth(mb2_8)
    assert not orientability(mb2_8)  # N/2 even: non-orientable
    assert action_reverses_orientation(mb2_8) is None

    mb2_6 = bmap("mb2", 6, {"e": 4, "d": 1, "c0": 3, "c1": 0, "c2": 3})
    assert is_smooth(mb2_6)
    assert orientability(mb2_6)  # N/2 odd: orientable
    assert action_reverses_orientation(mb2_6) is True


def test_boundary_count_examples():
    ann2_a = bmap("ann2", 6, {"e1": 1, "e2": 5, "c1": 0, "c20": 3, "c21": 0, "c22": 3})
    assert boundary_count(ann2_a) == 1 + 3  # kernel reflection plus cycle cells
    ann2_b = bmap("ann2", 6, {"e1": 1, "e2": 5, "c1": 3, "c20": 3, "c21": 0, "c22": 3})
    assert boundary_count(ann2_b) == 3
    assert boundary_count(bmap("d6", 2, ALTERNATING)) == 3


def test_surface_of_examples():
    mb2_8 = bmap("mb2", 8, {"e": 6, "d": 1, "c0": 4, "c1": 0, "c2": 4})
    s = surface_of(mb2_8)
    # 4-holed Klein bottle: algebraic genus 2 + 4 - 1 = 5 = 8 * 1/2 + 1
    assert (s.orientable, s.genus, s.boundary_count, s.algebraic_genus) == (False, 2, 4, 5)
    assert s.describe() == "4-holed Klein bottle"

    d3 = bmap("d3-22m", 6, {"x1": 3, "x2": 3, "x3": 2, "e": 4, "c": 0}, m=3)
    s = surface_of(d3)
    assert (s.orientable, s.genus, s.boundary_count) == (True, 2, 2)

    d12 = bmap("d12", 6, {"x": 2, "e": 4, "c0": 3, "c1": 0, "c2": 3}, m=3)
    s = surface_of(d12)
    assert s.describe() == "3-holed sphere"
    assert action_reverses_orientation(d12) is True

    with pytest.raises(ValueError):
        surface_of(bmap("d21", 6, {"x1": 0, "x2": 2, "e": 4, "c": 0}, m=2, n=3))


def test_json_serialization():
    m = bmap("d21", 6, {"x1": 3, "x2": 2, "e": 1, "c": 0}, m=2, n=3)
    payload = json.loads(m.to_json())
    assert payload["N"] == 6
    assert payload["signature"] == "(0;+;[2,3];{()})"
    assert payload["images"] == {"x1": 3, "x2": 2, "e": 1, "c": 0}
    assert m.to_json() == m.to_json()  # stable


def test_from_dict_requires_all_generators():
    with pytest.raises(ValueError):
        BskMap.from_dict(QuotientType("d21", m=2, n=3), 6, {"x1": 3, "x2": 2})


@pytest.mark.parametrize("kind, params, N, images", [
    ("d21", {"m": 2, "n": 3}, 6, (3, 2, 1, 6)),  # 6 is no residue mod 6
    ("d21", {"m": 2, "n": 3}, 6, (3, 2, 1, -1)),
    ("d21", {"m": 2, "n": 3}, 6, (3, 2, 1, 0, 5)),  # one residue too many
    ("d21", {"m": 2, "n": 3}, 6, (3, 2, 1)),
    ("d6", {}, 2, (0, 1, 0, 1, 0)),
])
def test_map_rejects_a_malformed_residue_vector(kind, params, N, images):
    """One residue in 0..N-1 per generator, or the constructor raises."""
    with pytest.raises(ValueError, match="one residue"):
        BskMap(QuotientType(kind, **params), N, images)
    assert is_smooth(BskMap(QuotientType("d21", m=2, n=3), 6, (3, 2, 1, 0)))
