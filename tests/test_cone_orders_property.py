"""Property test: the genus-solved cone orders are the filtered enumeration."""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from necsurf.classify import genera_for_order  # noqa: E402
from necsurf.signatures import FAMILIES  # noqa: E402


def check_solved_points(N, genera):
    """For every family, ``cone_orders_at_genus(N, p)`` is ``cone_orders(N)``
    kept where ``point_genus(m, n, N) == p``, in the same order, at each of
    ``genera`` and at one genus that does not occur at N."""
    occurring = genera_for_order(N)
    absent = next(p for p in itertools.count(2) if p not in occurring)
    for p in [*genera, absent]:
        for fam in FAMILIES.values():
            want = [(m, n) for m, n in fam.cone_orders(N) if fam.point_genus(m, n, N) == p]
            assert fam.cone_orders_at_genus(N, p) == want, (fam.kind, N, p)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(N=st.integers(2, 10**4), data=st.data())
def test_cone_orders_at_genus_is_the_filtered_enumeration(N, data):
    p = data.draw(st.sampled_from(genera_for_order(N)), label="p")
    check_solved_points(N, [p])


@pytest.mark.parametrize("N", [720, 2520, 5040, 15015])
def test_cone_orders_at_genus_at_every_genus_of_rich_orders(N):
    check_solved_points(N, genera_for_order(N))
