"""The value types a catalog sweep builds per record: tuple-backed, checked, immutable.

``SurfaceTopology``, ``Realization``, ``ActionRecord`` and ``MaclachlanQuad``
are tuples of their fields.  Each keeps the repr, the validation, the
immutability and the value equality and hashing of a frozen record, and
also equals a plain tuple of the same fields.
"""

import pickle

import pytest

from necsurf.classify import ActionRecord, Realization, actions_for_order
from necsurf.signatures import QuotientType, SurfaceTopology
from necsurf.zmod import MaclachlanQuad, maclachlan

SURFACE = SurfaceTopology(True, 1, 2)
REAL = Realization(SURFACE, 3, reversing=False, label="split{1,2}")
RECORD = ActionRecord(QuotientType("d21", 2, 3), 6, REAL)
QUAD = maclachlan(12, 12, 6)

REPRS = [
    (SURFACE, "SurfaceTopology(orientable=True, genus=1, boundary_count=2)"),
    (
        REAL,
        "Realization(surface=SurfaceTopology(orientable=True, genus=1, boundary_count=2), "
        "count=3, reversing=False, label='split{1,2}')",
    ),
    (
        Realization(SurfaceTopology(False, 2, 1), 1),
        "Realization(surface=SurfaceTopology(orientable=False, genus=2, boundary_count=1), "
        "count=1, reversing=None, label='')",
    ),
    (
        RECORD,
        "ActionRecord(quotient=QuotientType(kind='d21', m=2, n=3), N=6, "
        "realization=Realization(surface=SurfaceTopology(orientable=True, genus=1, "
        "boundary_count=2), count=3, reversing=False, label='split{1,2}'))",
    ),
    (QUAD, "MaclachlanQuad(a=6, a1=1, a2=1, a3=2)"),
]

FIELDS = [
    (SURFACE, "genus", 4),
    (REAL, "count", 9),
    (RECORD, "N", 12),
    (QUAD, "a", 1),
]


@pytest.mark.parametrize("value, text", REPRS, ids=lambda v: type(v).__name__)
def test_repr_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, field, other", FIELDS, ids=lambda v: type(v).__name__)
def test_immutable(value, field, other):
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    with pytest.raises(AttributeError):
        value.extra = other  # no instance dict


@pytest.mark.parametrize("value", [v for v, _ in REPRS], ids=lambda v: type(v).__name__)
def test_value_equality_and_hash(value):
    twin = type(value)(*value)
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert value == tuple(value)  # a plain tuple of the same fields is equal too
    assert len({value, twin}) == 1


def test_unequal_values():
    assert SurfaceTopology(True, 1, 2) != SurfaceTopology(True, 1, 3)
    assert Realization(SURFACE, 3) != REAL  # the defaults are fields too
    assert MaclachlanQuad(6, 1, 1, 2) != MaclachlanQuad(2, 1, 1, 6)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SurfaceTopology(True, 0, 1), ValueError,
         "1-holed sphere is not hyperbolic (algebraic genus < 2)"),
        (lambda: SurfaceTopology(True, -1, 4), ValueError,
         "bad surface data 4-holed genus--1 surface"),
        (lambda: SurfaceTopology(True, 2, 0), ValueError, "bad surface data 0-holed genus-2 surface"),
        (lambda: SurfaceTopology(False, 0, 3), ValueError, "non-orientable surfaces have genus >= 1"),
        (lambda: SurfaceTopology(False, 1, 1), ValueError,
         "1-holed projective plane is not hyperbolic (algebraic genus < 2)"),
        (lambda: SurfaceTopology.of_genus(True, 3, 1), AssertionError,
         "inconsistent genus: orientable=True, p=3, k=1"),
        (lambda: SurfaceTopology.of_genus(False, 3, 5), AssertionError,
         "inconsistent genus: orientable=False, p=3, k=5"),
        (lambda: Realization(SURFACE, 0), AssertionError,
         "a realization without classes: Realization(surface=SurfaceTopology(orientable=True, "
         "genus=1, boundary_count=2), count=0, reversing=None, label='')"),
        (lambda: MaclachlanQuad(1, 2, 2, 3), AssertionError,
         "A1, A2, A3 not pairwise coprime in MaclachlanQuad(a=1, a1=2, a2=2, a3=3)"),
        (lambda: MaclachlanQuad(1, 3, 5, 15), AssertionError,
         "A1, A2, A3 not pairwise coprime in MaclachlanQuad(a=1, a1=3, a2=5, a3=15)"),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_replace_and_make_keep_the_checks():
    assert SURFACE._replace(genus=3) == SurfaceTopology(True, 3, 2)
    with pytest.raises(ValueError, match="not hyperbolic"):
        SURFACE._replace(genus=0, boundary_count=1)
    with pytest.raises(AssertionError, match="without classes"):
        REAL._replace(count=0)
    with pytest.raises(AssertionError, match="not pairwise coprime"):
        MaclachlanQuad._make((1, 2, 4, 1))


def test_of_genus_and_derived_fields():
    s = SurfaceTopology.of_genus(False, 7, 3)
    assert s == SurfaceTopology(False, 5, 3)
    assert (s.epsilon, s.algebraic_genus, str(s)) == (1, 7, "3-holed non-orientable genus-5 surface")
    assert RECORD.surface is SURFACE
    assert (QUAD.m, QUAD.n, QUAD.l, QUAD.order) == (12, 12, 6, 12)


def test_sweep_records_survive_pickle():
    """``verify --jobs`` sends results between processes."""
    records = actions_for_order(720)
    back = pickle.loads(pickle.dumps(records))
    assert back == records and len(back) > 100
    assert all(type(b) is ActionRecord and type(b.realization) is Realization
               and type(b.surface) is SurfaceTopology for b in back)
    assert pickle.loads(pickle.dumps(QUAD)) == QUAD
