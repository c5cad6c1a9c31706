"""Every smoothness message, as the rules gave them, on sampled residue vectors.

``smoothness_digests.json`` was recorded once, from the rule body that
looked each rule up per call, before the rules were compiled into per-point
tables; it is never regenerated.  At every point of ``check_points(None,
16)`` a seeded sample of residue vectors is checked: uniform raw vectors,
raw vectors drawn from each generator's natural domain (exact-order values
for the elliptic generators, {0, N/2} for the reflections), both taken as
they are, not through ``complete``, so the tail and long-relation rules
fire, then completed vectors and the canonical smooth maps.  The digest
of a point covers the full ``smoothness_failures`` list of each vector.
"""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from necsurf.bsk import BskMap, is_smooth, presentation_of, smoothness_failures, surface_of
from necsurf.oracle import check_points, enumerate_smooth
from necsurf.zmod import order_mod

GOLDEN = json.loads((Path(__file__).parent / "smoothness_digests.json").read_text())
POINTS = check_points(None, 16)


def sample(q, N):
    """The seeded residue vectors of one point, in a fixed order."""
    rng = random.Random(f"{q.label()}@{N}")
    pres = presentation_of(q)
    full = tuple(range(N))
    domains = [full] * len(pres.gens)
    for i in pres.reflections:
        domains[i] = (0, N // 2) if N % 2 == 0 else (0,)
    for i in pres.elliptic:
        want = pres.elliptic_orders[pres.gens[i]]
        domains[i] = tuple(v for v in full if order_mod(v, N) == want) or full
    vectors = [tuple(rng.randrange(N) for _ in pres.gens) for _ in range(24)]
    vectors += [tuple(rng.choice(d) for d in domains) for _ in range(24)]
    free = [domains[i] for i in pres.free_positions]
    vectors += [pres.complete([rng.choice(d) for d in free], N) for _ in range(16)]
    vectors += enumerate_smooth(q, N)[:4]
    return [BskMap(q, N, vec) for vec in vectors]


def digest(maps):
    lines = "\n".join(f"{m.images} {smoothness_failures(m)!r}" for m in maps)
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def test_golden_covers_every_point():
    assert [f"{q.label()}@{N}" for q, N in POINTS] == list(GOLDEN)


def test_smoothness_failures_match_golden():
    for q, N in POINTS:
        maps = sample(q, N)
        assert digest(maps) == GOLDEN[f"{q.label()}@{N}"], (q, N)
        for m in maps:
            failures = smoothness_failures(m)
            assert is_smooth(m) == (not failures), m
            if failures:
                want = f"^{re.escape('map is not smooth: ' + failures[0])}$"
                with pytest.raises(ValueError, match=want):
                    surface_of(m)
            else:
                surface_of(m)


def test_sample_reaches_every_rule():
    """Each of the seven rules fails somewhere in the sample, and some vectors are smooth."""
    stems = {
        "requires exact order": 0, "does not square to 0": 0, "conjugate image": 0,
        "corner": 0, "long relation": 0, "do not generate": 0, "unbordered": 0,
    }
    smooth = 0
    for q, N in POINTS:
        for m in sample(q, N):
            failures = smoothness_failures(m)
            smooth += not failures
            for stem in stems:
                stems[stem] += any(stem in msg for msg in failures)
    assert smooth and all(stems.values()), (smooth, stems)
