"""Signature arithmetic, the catalog, and admissibility."""

from fractions import Fraction

import pytest

from necsurf.signatures import (
    FAMILIES,
    NecSignature,
    QuotientType,
    SurfaceTopology,
    _canon,
    area,
    canonical_fuchsian,
    fuchsian_area,
    generate_admissible_signatures,
    is_admissible_quotient,
    kernel_algebraic_genus,
    large_action_catalog,
    quotient_of_signature,
)

D6 = NecSignature(0, True, (), ((2,) * 6,))
ANN2 = NecSignature(0, True, (), ((), (2, 2)))


def test_area_values():
    assert area(NecSignature(0, True, (2, 3), ((),))) == Fraction(1, 6)
    assert area(NecSignature(1, False, (5,), ((),))) == Fraction(4, 5)
    assert area(ANN2) == Fraction(1, 2)
    assert area(D6) == Fraction(1, 2)


def test_signature_validation():
    with pytest.raises(ValueError):
        NecSignature(0, False)  # sign '-' needs genus >= 1
    with pytest.raises(ValueError):
        NecSignature(0, True, (1,))
    with pytest.raises(ValueError):
        NecSignature(0, True, (), ((2, 1),))


def test_render():
    assert D6.render() == "(0;+;[];{(2,2,2,2,2,2)})"
    assert ANN2.render() == "(0;+;[];{(),(2,2)})"
    assert NecSignature(1, False, (5,), ((),)).render() == "(1;-;[5];{()})"
    assert NecSignature(0, True, (2, 3), ((),)).render() == "(0;+;[2,3];{()})"


def test_kernel_algebraic_genus():
    for N in (3, 5, 7, 12):
        two_cone = NecSignature(0, True, (N, N), ((),))
        assert kernel_algebraic_genus(two_cone, N) == N - 1
    for m, N in ((3, 6), (4, 8), (5, 30)):
        mb = NecSignature(1, False, (m,), ((),))
        assert kernel_algebraic_genus(mb, N) == 1 + (m - 1) * N // m
    # area 1/2, so an index-2 surface subgroup has algebraic genus 2
    # (the 3-holed sphere: 2*0 + 3 - 1)
    assert kernel_algebraic_genus(D6, 2) == 2


def test_kernel_genus_rejects_non_integral():
    with pytest.raises(ValueError):
        kernel_algebraic_genus(NecSignature(0, True, (2, 3), ((),)), 7)


def test_canonical_fuchsian():
    f = canonical_fuchsian(NecSignature(0, True, (5,), ((), ())))
    assert (f.genus, f.periods) == (1, (5, 5))
    assert f.render() == "(1; 5, 5)"
    f = canonical_fuchsian(NecSignature(1, False, (), ((2, 2),)))
    assert (f.genus, f.periods) == (1, (2, 2))
    f = canonical_fuchsian(NecSignature(0, True, (), ((),)))
    assert (f.genus, f.periods) == (0, ())
    assert f.render() == "(0; -)"


def test_canonical_fuchsian_needs_reflections():
    with pytest.raises(ValueError):
        canonical_fuchsian(NecSignature(2, True))


def test_fuchsian_area_doubles():
    for kind in ("d6", "ann2", "mb2", "d12", "d14", "mb1", "d21", "ann1",
                 "d3-22m", "d3-23m", "d2c-2m", "d2c-3m"):
        for q in FAMILIES[kind].instances(range(2, 61)):
            sig = q.signature()
            assert fuchsian_area(canonical_fuchsian(sig)) == 2 * area(sig)


def test_admissibility():
    cycle22 = NecSignature(0, True, (), ((), (2, 2)))
    assert is_admissible_quotient(cycle22, 4)
    assert not is_admissible_quotient(cycle22, 3)
    odd_run = NecSignature(0, True, (), ((2, 2, 2), ()))
    assert not is_admissible_quotient(odd_run, 4)  # odd-length run of 2s
    assert not is_admissible_quotient(NecSignature(0, True, (), ((3, 3),)), 6)
    assert not is_admissible_quotient(NecSignature(2, True), 5)  # no cycle at all


def test_catalog_has_ten_families():
    catalog = large_action_catalog()
    assert len(catalog) == 10
    assert [f.number for f in catalog] == list(range(1, 11))
    kinds = [k for f in catalog for k in f.kinds]
    assert len(kinds) == 12
    # family 4 is the disc with one cone point and two corners
    assert catalog[3].kinds == ("d12",)
    assert QuotientType("d12", m=7).signature().render() == "(0;+;[7];{(2,2)})"
    # the 2,3,m triangle-like family carries the m <= 5 restriction
    with pytest.raises(ValueError):
        QuotientType("d3-23m", m=6)
    with pytest.raises(ValueError):
        QuotientType("d2c-3m", m=2)


def test_catalog_areas_in_unit_interval():
    for kind in ("d6", "ann2", "mb2", "d12", "d14", "mb1", "d21", "ann1",
                 "d3-22m", "d3-23m", "d2c-2m", "d2c-3m"):
        for q in FAMILIES[kind].instances(range(2, 61)):
            assert 0 < area(q.signature()) < 1, q


def test_generated_catalog_matches_hardcoded():
    """Double-entry bookkeeping: brute-force area < 1 generation vs the catalog."""
    max_period = 12
    generated = {_canon(s) for s in generate_admissible_signatures(max_period)}
    expanded = set()
    for kind in ("d6", "ann2", "mb2", "d12", "d14", "mb1", "d21", "ann1",
                 "d3-22m", "d3-23m", "d2c-2m", "d2c-3m"):
        for q in FAMILIES[kind].instances(range(2, max_period + 1)):
            expanded.add(_canon(q.signature()))
    assert generated == expanded
    for s in generate_admissible_signatures(max_period):
        q = quotient_of_signature(s)
        assert q is not None
        assert _canon(q.signature()) == _canon(s)


def test_admits_is_the_exact_area_test():
    """The registry's integer test equals 0 < area < 1 in exact rationals."""
    for fam in FAMILIES.values():
        ms = range(2, 31) if fam.params else [None]
        ns = range(2, 31) if len(fam.params) == 2 else [None]
        for m in ms:
            for n in ns:
                sig = NecSignature(fam.genus, fam.orientable, fam.proper_periods(m, n), fam.cycles)
                want = (m is None or m >= fam.m_min) and 0 < area(sig) < 1
                assert fam.admits(m, n) == want, (fam.kind, m, n)


def test_quotient_type_validation():
    with pytest.raises(ValueError):
        QuotientType("d12", m=2)  # zero area
    with pytest.raises(ValueError):
        QuotientType("d21", m=2, n=2)
    with pytest.raises(ValueError):
        QuotientType("nope")
    with pytest.raises(ValueError):
        QuotientType("d6", m=3)


def test_surface_topology():
    s = SurfaceTopology(True, 0, 3)
    assert s.algebraic_genus == 2
    assert s.describe() == "3-holed sphere"
    assert SurfaceTopology(False, 2, 4).describe() == "4-holed Klein bottle"
    assert SurfaceTopology(False, 1, 2).algebraic_genus == 2
    with pytest.raises(ValueError):
        SurfaceTopology(True, 0, 1)  # disc: algebraic genus 0
    with pytest.raises(ValueError):
        SurfaceTopology(False, 0, 3)
