"""The byte-identical output contract, checked against the benchmark goldens.

The golden files in ``bench/golden/`` were recorded once from the program;
these tests only read them.  A difference is a change of behaviour.
"""

import importlib.util
import json
from pathlib import Path

from necsurf import oracle
from necsurf.cli import main
from necsurf.signatures import QuotientType

_BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
W = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(W)

ORACLE = W.load_golden("oracle-sweep")


def _key(q, N):
    return (q.kind, q.m, q.n, N, q.label())


def test_check_points_in_golden_order():
    points = oracle.check_points(None, W.ORACLE_N_MAX)
    want = [
        (p["kind"], p["m"], p["n"], p["N"], p["quotient"])
        for p in (entry["point"] for entry in ORACLE)
    ]
    assert [_key(q, N) for q, N in points] == want


def test_check_point_matches_golden_up_to_48():
    checked = 0
    for entry in ORACLE:
        point = entry["point"]
        q = QuotientType(point["kind"], m=point["m"], n=point["n"])
        p = oracle.check_point(q, point["N"])
        got = {
            "maps": p.map_count,
            "orbits": p.orbit_count,
            "ok": p.ok,
            "oracle": [list(b) for b in p.oracle_buckets],
            "expected": [list(b) for b in p.expected_buckets],
        }
        assert json.loads(json.dumps(got)) == entry["result"], point["quotient"]
        checked += 1
    assert checked == 1291


def test_enumerate_rows_match_golden(capsys):
    """Every recorded order: N = 2..2000, 2520 and 5040."""
    golden = W.load_golden("catalog-orders")
    assert len(golden) == 2001
    for N, digest in golden.items():
        assert main(["enumerate", "--N", N, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert W.rows_digest(rows) == digest, N


def test_extremal_queries_match_golden(capsys):
    """The min-genus queries with N <= 60 and the max-order queries with p <= 30."""
    golden = W.load_golden("extremal-cli")
    checked = 0
    for argv in W.extremal_domain():
        if int(argv[2]) > (60 if argv[0] == "min-genus" else 30):
            continue
        assert main(argv) == 0, argv
        assert W.digest(capsys.readouterr().out) == golden[W.argv_key(argv)], argv
        checked += 1
    assert checked == 411
