"""Property test: the all-k formulas of mb1, ann1 and d21 are the per-k ones swept."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from classify_reference import PER_K, flags, reference_classify, reference_results  # noqa: E402

from necsurf.classify import classify, results_for  # noqa: E402
from necsurf.signatures import FAMILIES, QuotientType  # noqa: E402


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(N=st.integers(2, 10**4), data=st.data())
def test_all_k_formula_is_the_per_k_formula_swept(N, data):
    """At a drawn point of ``cone_orders(N)``, ``results_for`` equals the
    per-k formula swept over its old k-set, in order, and ``classify``
    equals the per-k answer at every k of that set and both flags."""
    points = [(kind, m, n) for kind in PER_K for m, n in FAMILIES[kind].cone_orders(N)]
    kind, m, n = data.draw(st.sampled_from(points), label="point")
    q = QuotientType(kind, m, n)
    assert results_for(q, N) == reference_results(q, N)
    for k in PER_K[kind][1](q, N):
        for flag in flags(kind):
            assert classify(q, N, k, flag) == reference_classify(q, N, k, flag), (q, N, k, flag)
