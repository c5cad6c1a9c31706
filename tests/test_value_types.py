"""The package's value types: tuple-backed, checked, immutable.

Every value type is a tuple of its fields: ``NecSignature``,
``PresentationSpec``, ``Family``, ``QuotientType`` and ``SurfaceTopology``
(signatures); ``BskMap`` (bsk); ``ClassificationResult``, ``Realization``
and ``ActionRecord`` (classify); ``ExtremalAnswer`` (extremal);
``AutMove``, ``OrbitInfo``, ``OrbitReport``, ``CheckPoint`` and
``CrossCheckReport`` (oracle); and ``MaclachlanQuad`` (zmod).  Each keeps
the repr, the validation, the immutability and the value equality and
hashing of a frozen record, and also equals a plain tuple of the same
fields.  ``PresentationSpec``, ``Family`` and ``AutMove`` cache derived
values in an instance dict, outside the fields.  Importing the package
does not import ``dataclasses``.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from necsurf.bsk import BskMap
from necsurf.classify import ActionRecord, ClassificationResult, Realization, actions_for_order, classify
from necsurf.extremal import ExtremalAnswer
from necsurf.oracle import AutMove, CheckPoint, CrossCheckReport, check_point, moves_for, oracle_report
from necsurf.signatures import (
    FAMILIES, Family, NecSignature, PresentationSpec, QuotientType, SurfaceTopology, presentation,
)
from necsurf.zmod import MaclachlanQuad, maclachlan

SURFACE = SurfaceTopology(True, 1, 2)
REAL = Realization(SURFACE, 3, reversing=False, label="split{1,2}")
RECORD = ActionRecord(QuotientType("d21", 2, 3), 6, REAL)
QUAD = maclachlan(12, 12, 6)

QUOTIENT = QuotientType("d21", 2, 3)
SIGNATURE = QUOTIENT.signature()
PRES = presentation(SIGNATURE)
FAMILY = FAMILIES["d6"]
BMAP = BskMap(QUOTIENT, 6, (3, 4, 5, 0))
RESULT = classify(QuotientType("d6"), 2)
ANSWER = ExtremalAnswer("min-genus", "p", 12, None)
MOVE = moves_for(QUOTIENT)[0]
REPORT = oracle_report(QUOTIENT, 6)
ORBIT = REPORT.orbits[0]
CHECK = check_point(QUOTIENT, 6)
CROSS = CrossCheckReport((CHECK,))
# the cached values are built before the reprs are taken, so the reprs show they stay out
assert PRES.free_positions == (0, 1, 3) and FAMILY.least_cone == 2
assert MOVE.apply((3, 4, 5, 0), 6) == (3, 2, 1, 0) and MOVE.changed

CHECK_TEXT = (
    "CheckPoint(quotient=QuotientType(kind='d21', m=2, n=3), N=6, ok=True, "
    "oracle_buckets=(((True, False, 1), 1),), expected_buckets=(((True, False, 1), 1),), "
    "map_count=2, orbit_count=1, note='')"
)
ORBIT_TEXT = (
    "OrbitInfo(representative=BskMap(quotient=QuotientType(kind='d21', m=2, n=3), N=6, "
    "images=(3, 2, 1, 0)), size=2, surface=SurfaceTopology(orientable=True, genus=1, "
    "boundary_count=1), reversing=False, connector_orders=(6,))"
)

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
    (SIGNATURE, "NecSignature(genus=0, orientable=True, proper_periods=(2, 3), period_cycles=((),))"),
    (
        PRES,
        "PresentationSpec(gens=('x1', 'x2', 'e', 'c'), elliptic=(0, 1), "
        "elliptic_orders=mappingproxy({'x1': 2, 'x2': 3}), connectors=(2,), rings=((3,),), "
        "corners=(), glides=(), long_relation=((1, 0), (1, 1), (1, 2)), "
        "derived=((2, ((-1, 0), (-1, 1))),))",
    ),
    (
        FAMILY,
        "Family(kind='d6', number=1, description='disc with 6 corner points', genus=0, "
        "orientable=True, periods=(), params=(), cycles=((2, 2, 2, 2, 2, 2),), moves=(), "
        "full_moves=False, classify_args=())",
    ),
    (QUOTIENT, "QuotientType(kind='d21', m=2, n=3)"),
    (BMAP, "BskMap(quotient=QuotientType(kind='d21', m=2, n=3), N=6, images=(3, 4, 5, 0))"),
    (
        RESULT,
        "ClassificationResult(quotient=QuotientType(kind='d6', m=None, n=None), order=2, "
        "exists=True, class_count=1, realizations=(Realization(surface=SurfaceTopology("
        "orientable=True, genus=0, boundary_count=3), count=1, reversing=True, label=''),))",
    ),
    (ANSWER, "ExtremalAnswer(query='min-genus', variant='p', argument=12, value=None, realizers=())"),
    (MOVE, "AutMove(name='alpha', rows=(((-1, 0),), ((-1, 1),), ((-1, 2),), ((1, 3),)))"),
    (ORBIT, ORBIT_TEXT),
    (
        REPORT,
        "OrbitReport(quotient=QuotientType(kind='d21', m=2, n=3), N=6, map_count=2, "
        f"orbit_count=1, orbits=({ORBIT_TEXT},))",
    ),
    (CHECK, CHECK_TEXT),
    (CROSS, f"CrossCheckReport(points=({CHECK_TEXT},))"),
]

# these cache derived values in an instance dict, outside the fields
CACHING = (PresentationSpec, Family, AutMove)

FIELDS = [
    (SURFACE, "genus", 4),
    (REAL, "count", 9),
    (RECORD, "N", 12),
    (QUAD, "a", 1),
    (SIGNATURE, "genus", 1),
    (PRES, "gens", ()),
    (FAMILY, "kind", "d7"),
    (QUOTIENT, "m", 3),
    (BMAP, "images", (0, 0, 0, 0)),
    (RESULT, "class_count", 2),
    (ANSWER, "value", 2),
    (MOVE, "rows", ()),
    (ORBIT, "size", 1),
    (REPORT, "orbits", ()),
    (CHECK, "ok", False),
    (CROSS, "points", ()),
]


@pytest.mark.parametrize("value, text", REPRS, ids=lambda v: type(v).__name__)
def test_repr_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, field, other", FIELDS, ids=lambda v: type(v).__name__)
def test_immutable(value, field, other):
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    if not isinstance(value, CACHING):
        with pytest.raises(AttributeError):
            value.extra = other  # no instance dict


@pytest.mark.parametrize("value", [v for v, _ in REPRS], ids=lambda v: type(v).__name__)
def test_value_equality_and_hash(value):
    twin = type(value)(*value)
    assert twin == value and twin is not value
    assert value == tuple(value)  # a plain tuple of the same fields is equal too
    if value is PRES:  # its elliptic orders are a mapping, as in a frozen record
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1


def test_cached_values_stay_outside_the_fields():
    """A cached value is neither shown, nor compared, nor a field."""
    fresh = AutMove(*MOVE)
    assert "changed" not in fresh.__dict__ and "changed" in MOVE.__dict__
    assert fresh == MOVE and repr(fresh) == repr(MOVE) and fresh._fields == ("name", "rows")
    assert fresh.changed == ((0, ((-1, 0),)), (1, ((-1, 1),)), (2, ((-1, 2),)))
    assert PresentationSpec(*PRES) == PRES and "free_positions" in PRES.__dict__
    assert Family(*FAMILY) == FAMILY and "least_cone" in FAMILY.__dict__
    assert "changed" not in MOVE._replace(name="again").__dict__


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


BSK_WANT = "d21(2,3) needs one residue in 0..5 per generator ('x1', 'x2', 'e', 'c'), got"

# (a valid value, field changes that break one of its checks, the error, its message)
BROKEN = [
    (SIGNATURE, {"genus": -1}, ValueError, "orbit genus must be >= 0"),
    (SIGNATURE, {"orientable": False}, ValueError, "sign '-' requires orbit genus >= 1"),
    (SIGNATURE, {"proper_periods": (1,)}, ValueError, "proper periods must be >= 2"),
    (SIGNATURE, {"period_cycles": ((2, 1),)}, ValueError, "link periods must be >= 2"),
    (QUOTIENT, {"kind": "xx"}, ValueError, "unknown quotient kind 'xx'"),
    (QUOTIENT, {"n": None}, ValueError, "d21 requires n"),
    (QuotientType("d6"), {"m": 3}, ValueError, "d6 does not take m"),
    (QUOTIENT, {"m": 3, "n": 2}, ValueError,
     "d21(3,2) is outside the catalog: the cone orders of d21 ascend (2 <= m <= n) "
     "and the area lies in (0, 1)"),
    (QuotientType("d12", 3), {"m": 1}, ValueError,
     "d12(1) is outside the catalog: the cone orders of d12 ascend (2 <= m) "
     "and the area lies in (0, 1)"),
    (BMAP, {"images": (3, 4, 5)}, ValueError, f"{BSK_WANT} (3, 4, 5)"),
    (BMAP, {"images": (3, 4, 5, 6)}, ValueError, f"{BSK_WANT} (3, 4, 5, 6)"),
    (BMAP, {"images": (3, -1, 5, 0)}, ValueError, f"{BSK_WANT} (3, -1, 5, 0)"),
    (BMAP, {"N": 5}, ValueError,
     "d21(2,3) needs one residue in 0..4 per generator ('x1', 'x2', 'e', 'c'), got (3, 4, 5, 0)"),
    (RESULT, {"class_count": 0}, AssertionError, ""),
    (RESULT, {"exists": False, "class_count": 0}, AssertionError, ""),
    (RESULT, {"realizations": ()}, AssertionError, ""),
]


@pytest.mark.parametrize(
    "value, changes, error, message", BROKEN,
    ids=[f"{type(value).__name__}-{'-'.join(changes)}" for value, changes, _, _ in BROKEN],
)
def test_checks_hold_through_the_constructor_replace_and_make(value, changes, error, message):
    fields = {**value._asdict(), **changes}
    for build in (
        lambda: type(value)(**fields),
        lambda: value._replace(**changes),
        lambda: type(value)._make(fields.values()),
    ):
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


@pytest.mark.parametrize("value", [QUOTIENT, BMAP, CHECK], ids=lambda v: type(v).__name__)
def test_pool_values_survive_pickle(value):
    """The ``verify --jobs`` pool sends quotients to its workers and check points back."""
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value) and repr(back) == repr(value)


def test_import_leaves_dataclasses_and_inspect_out():
    """Start-up imports neither ``dataclasses`` nor ``inspect`` (with ``ast``, ``dis`` and
    ``tokenize``).  ``-S`` keeps site ``.pth`` files from loading modules first."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import necsurf, necsurf.cli; "
        "print(*(name in sys.modules for name in ('dataclasses', 'inspect')))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-S", "-c", probe, src], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "False"]
