"""Property test: the genus-solved catalog points are the filtered enumeration."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from necsurf.classify import points_at  # noqa: E402
from necsurf.signatures import FAMILIES  # noqa: E402


def genera_at(N):
    """The distinct genera of the catalog points at order N, ascending."""
    return sorted({p for *_, p in points_at(N)})


def check_solved_points(N, genera):
    """For every family, ``points(N)`` is ``cone_orders(N)`` with its
    ``point_genus``, kept where that is not None, and ``points(N, p)`` is
    ``cone_orders(N)`` kept where ``point_genus(m, n, N) == p``, in the same
    order, at each of ``genera`` and at one genus that does not occur at N."""
    occurring = genera_at(N)
    absent = next(p for p in itertools.count(2) if p not in occurring)
    for fam in FAMILIES.values():
        want = [
            (m, n, p) for m, n in fam.cone_orders(N) if (p := fam.point_genus(m, n, N)) is not None
        ]
        assert fam.points(N) == want, (fam.kind, N)
        for p in [*genera, absent]:
            want = [(m, n, p) for m, n in fam.cone_orders(N) if fam.point_genus(m, n, N) == p]
            assert fam.points(N, p) == want, (fam.kind, N, p)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(N=st.integers(2, 10**4), data=st.data())
def test_cone_orders_at_genus_is_the_filtered_enumeration(N, data):
    p = data.draw(st.sampled_from(genera_at(N)), label="p")
    check_solved_points(N, [p])


@pytest.mark.parametrize("N", [720, 2520, 5040, 15015])
def test_cone_orders_at_genus_at_every_genus_of_rich_orders(N):
    check_solved_points(N, genera_at(N))
