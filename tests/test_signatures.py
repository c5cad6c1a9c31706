"""Signature arithmetic, the catalog, and admissibility.

The Fuchsian-subgroup helpers, the admissibility test and the brute-force
re-derivation of the catalog below are reference code for these checks
only; the package itself does not need them.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest
from catalog_points import instances

from necsurf.signatures import (
    FAMILIES,
    Family,
    NecSignature,
    QuotientType,
    SurfaceTopology,
    area,
    kernel_algebraic_genus,
)


@dataclass(frozen=True)
class FuchsianSignature:
    genus: int
    periods: tuple[int, ...] = ()

    def render(self) -> str:
        if not self.periods:
            return f"({self.genus}; -)"
        return f"({self.genus}; " + ", ".join(str(m) for m in self.periods) + ")"

    def __str__(self) -> str:
        return self.render()


def fuchsian_area(fsig: FuchsianSignature) -> Fraction:
    total = Fraction(2 * fsig.genus - 2)
    for m in fsig.periods:
        total += 1 - Fraction(1, m)
    return total


def canonical_fuchsian(sig: NecSignature) -> FuchsianSignature:
    """Signature of the orientation-preserving index-2 subgroup.

    (eps*g + k - 1; m_1, m_1, ..., m_r, m_r, n_11, ..., n_ks_k).  Defined
    whenever the group has orientation-reversing elements, i.e. sign '-'
    or at least one period cycle.
    """
    if sig.orientable and sig.cycle_count == 0:
        raise ValueError("signature has no orientation-reversing elements")
    periods = []
    for m in sig.proper_periods:
        periods += [m, m]
    for cycle in sig.period_cycles:
        periods += list(cycle)
    genus = sig.epsilon * sig.genus + sig.cycle_count - 1
    return FuchsianSignature(genus, tuple(periods))


def is_admissible_quotient(sig: NecSignature, N: int) -> bool:
    """Can sig be the quotient signature of a cyclic-N bordered action?

    Requires at least one period cycle, every non-empty cycle an even
    number of periods equal to 2, and all cycles empty when N is odd.
    """
    if sig.cycle_count == 0:
        return False
    for cycle in sig.period_cycles:
        if cycle and (len(cycle) % 2 != 0 or any(n != 2 for n in cycle)):
            return False
        if cycle and N % 2 != 0:
            return False
    return True


@dataclass(frozen=True)
class CatalogFamily:
    number: int
    kinds: tuple[str, ...]
    description: str


def large_action_catalog() -> tuple[CatalogFamily, ...]:
    """The ten quotient families admitting area < 1, in catalog order."""
    groups: dict[int, list[Family]] = {}
    for fam in FAMILIES.values():
        groups.setdefault(fam.number, []).append(fam)
    return tuple(
        CatalogFamily(number, tuple(sorted(f.kind for f in fams)), fams[0].description)
        for number, fams in sorted(groups.items())
    )


def _canon(sig: NecSignature):
    return (
        sig.genus,
        sig.orientable,
        tuple(sorted(sig.proper_periods)),
        tuple(sorted(sig.period_cycles)),
    )


def bordered_signatures(max_period: int) -> list[NecSignature]:
    """Every bordered signature with 0 < area < 1, link periods 2 and ascending proper
    periods <= ``max_period``, its cycles of any length, odd ones included.

    Area eps*g + k - 2 + sum(1 - 1/m) + (number of link periods)/4 < 1 with
    k >= 1 leaves (0;+) with k <= 2 and (1;-) with k = 1, at most 3 proper
    periods and at most 7 link periods in all.  Two cycles are listed
    shortest first.
    """
    out = []
    for orientable, g, k in ((True, 0, 1), (True, 0, 2), (False, 1, 1)):
        for lengths in itertools.combinations_with_replacement(range(8), k):
            sig = NecSignature(g, orientable, (), tuple((2,) * s for s in lengths))
            for r in range(4):
                out += _with_periods(sig, r, max_period)
    return out


def _with_periods(sig: NecSignature, r: int, hi: int) -> list[NecSignature]:
    """``sig`` with r more proper periods, ascending up to ``hi``, at 0 < area < 1.

    The least area of a completion repeats the next period r times; once
    that reaches 1, so does every larger period's.
    """
    if r == 0:
        return [sig] if 0 < area(sig) < 1 else []
    out = []
    for m in range(max(sig.proper_periods, default=2), hi + 1):
        if area(sig._replace(proper_periods=sig.proper_periods + (m,) * r)) >= 1:
            break
        out += _with_periods(sig._replace(proper_periods=sig.proper_periods + (m,)), r - 1, hi)
    return out


def generate_admissible_signatures(max_period: int) -> set[NecSignature]:
    """The ``bordered_signatures`` whose cycles all have even length: the shapes a
    cyclic action allows.  Used as double-entry bookkeeping against the
    hard-coded catalog."""
    return {
        sig for sig in bordered_signatures(max_period)
        if all(len(cycle) % 2 == 0 for cycle in sig.period_cycles)
    }


def quotient_of_signature(sig: NecSignature) -> QuotientType | None:
    """Match a signature against the catalog families (None if no match).

    A family's cone-order parameters can only take the signature's periods.
    """
    key = _canon(sig)
    for fam in FAMILIES.values():
        for q in instances(fam, sorted(set(sig.proper_periods))):
            if _canon(q.signature()) == key:
                return q
    return None


D6 = NecSignature(0, True, (), ((2,) * 6,))
ANN2 = NecSignature(0, True, (), ((), (2, 2)))


def fraction_sum_area(sig: NecSignature) -> Fraction:
    """``area`` as one ``Fraction`` sum, term by term: the reference for the integer sum."""
    total = Fraction(sig.epsilon * sig.genus + sig.cycle_count - 2)
    for m in sig.proper_periods:
        total += 1 - Fraction(1, m)
    for cycle in sig.period_cycles:
        for n in cycle:
            total += Fraction(1, 2) * (1 - Fraction(1, n))
    return total


def test_area_matches_fraction_sum():
    """The integer-sum ``area`` equals the term-by-term ``Fraction`` sum on
    every catalog signature with cone orders up to 200, and on signatures
    off the catalog: orbit genus > 0, several cycles, area <= 0."""
    sigs = [q.signature() for fam in FAMILIES.values() for q in instances(fam, range(2, 201))]
    assert len(sigs) > 20000
    sigs += [
        NecSignature(0, True),
        NecSignature(0, True, (2, 2), ((),)),
        NecSignature(2, False, (3, 4, 4), ((2, 3), (), (5, 6, 2))),
        NecSignature(1, True, (7,), ((9,), (4, 4))),
    ]
    for sig in sigs:
        got = area(sig)
        assert type(got) is Fraction and got == fraction_sum_area(sig), sig


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
        for q in instances(FAMILIES[kind], range(2, 61)):
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
        for q in instances(FAMILIES[kind], range(2, 61)):
            assert 0 < area(q.signature()) < 1, q


def test_generated_catalog_matches_hardcoded():
    """Double-entry bookkeeping: brute-force area < 1 generation vs the catalog."""
    max_period = 12
    generated = {_canon(s) for s in generate_admissible_signatures(max_period)}
    expanded = set()
    for kind in ("d6", "ann2", "mb2", "d12", "d14", "mb1", "d21", "ann1",
                 "d3-22m", "d3-23m", "d2c-2m", "d2c-3m"):
        for q in instances(FAMILIES[kind], range(2, max_period + 1)):
            expanded.add(_canon(q.signature()))
    assert generated == expanded
    for s in generate_admissible_signatures(max_period):
        q = quotient_of_signature(s)
        assert q is not None
        assert _canon(q.signature()) == _canon(s)


def test_catalog_is_every_bordered_signature_with_even_cycles():
    """Completeness at link period 2 (proper periods <= 30): of the 797 bordered
    signatures of area < 1, the 616 whose cycles all have even length are
    exactly the catalog quotients, each accepted by ``QuotientType`` at its
    periods; the other 181 each have a cycle of odd length."""
    sigs = bordered_signatures(30)
    even = generate_admissible_signatures(30)
    assert (len(sigs), len(set(sigs)), len(even)) == (797, 797, 616)
    for sig in even:
        (fam,) = [
            fam for fam in FAMILIES.values()
            if (fam.genus, fam.orientable, fam.cycles) == (sig.genus, sig.orientable, sig.period_cycles)
            and sig.proper_periods[:len(fam.periods)] == fam.periods
            and len(sig.proper_periods) == len(fam.periods) + len(fam.params)
        ]
        q = QuotientType(fam.kind, *sig.proper_periods[len(fam.periods):])
        assert q.signature() == sig
    catalog = {q.signature() for fam in FAMILIES.values() for q in instances(fam, range(2, 31))}
    assert even == catalog


def test_admits_is_the_exact_area_test():
    """The registry's integer test equals 0 < area < 1 in exact rationals."""
    for fam in FAMILIES.values():
        ms = range(2, 31) if fam.params else [None]
        ns = range(2, 31) if len(fam.params) == 2 else [None]
        for m in ms:
            for n in ns:
                sig = NecSignature(fam.genus, fam.orientable, fam.proper_periods(m, n), fam.cycles)
                ascending = list(sig.proper_periods) == sorted(sig.proper_periods)
                want = (m is None or ascending) and 0 < area(sig) < 1
                assert fam.admits(m, n) == want, (fam.kind, m, n)


def test_every_catalog_signature_has_one_name():
    """No two admitted parameter choices give the same signature up to order.

    d3-23m(2) would rename d3-22m(3), d2c-3m(2) d2c-2m(3), d21(3,2) d21(2,3).
    """
    names = {}
    for fam in FAMILIES.values():
        for q in instances(fam, range(2, 31)):
            other = names.setdefault(_canon(q.signature()), q)
            assert other == q, (other, q)
    assert len(names) == 616


def test_disc_quotients_force_the_order():
    forced = {kind for kind, fam in FAMILIES.items() if fam.order_is_forced}
    assert forced == {"d6", "d12", "d14", "d21", "d3-23m", "d3-22m", "d2c-3m", "d2c-2m"}
    assert QuotientType("d6").forced_order() == 2
    assert QuotientType("d2c-3m", m=4).forced_order() == 12
    assert QuotientType("mb1", m=4).forced_order() is None


def test_family_kernel_genus_is_the_exact_area_genus():
    """The registry's integer genus (``Family.point_genus``) equals
    kernel_algebraic_genus, and is None where that raises and off a
    forced order; so does the p of every ``Family.points(N)`` point at the
    catalog-orders tail orders 720, 2520 and 5040."""
    checked = 0
    for fam in FAMILIES.values():
        for q in instances(fam, range(2, 49)):
            sig = q.signature()
            for N in range(2, 97):
                got = fam.point_genus(q.m, q.n, N)
                if q.forced_order() not in (None, N):
                    assert got is None, (q, N)
                    continue
                try:
                    want = kernel_algebraic_genus(sig, N)
                except ValueError:
                    assert got is None, (q, N)
                    continue
                assert got == want, (q, N)
                checked += 1
    assert checked > 1000
    tail = [(fam, N, point) for N in (720, 2520, 5040) for fam in FAMILIES.values()
            for point in fam.points(N)]
    for fam, N, (m, n, p) in tail:
        assert p == kernel_algebraic_genus(QuotientType(fam.kind, m, n).signature(), N), (m, n, N)
    assert len(tail) == 714


def test_quotient_type_validation():
    with pytest.raises(ValueError):
        QuotientType("d12", m=2)  # zero area
    with pytest.raises(ValueError):
        QuotientType("d21", m=2, n=2)
    with pytest.raises(ValueError):
        QuotientType("nope")
    with pytest.raises(ValueError):
        QuotientType("d6", m=3)


def test_quotient_type_rejects_unordered_cone_orders():
    """d21(3,2) would be a second name for d21(2,3): the pair is given as m <= n."""
    with pytest.raises(ValueError, match="m <= n"):
        QuotientType("d21", m=3, n=2)
    assert QuotientType("d21", m=3, n=3).label() == "d21(3,3)"


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
