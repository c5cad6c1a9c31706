"""The byte-identical output contract, checked against the benchmark goldens.

The golden files in ``bench/golden/`` were recorded once from the program;
these tests only read them.  A difference is a change of behaviour.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

from necsurf import oracle
from necsurf.bsk import presentation_of
from necsurf.cli import main
from necsurf.signatures import QuotientType

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


W = _load_bench("workloads")
SPANS = _load_bench("spans")

ORACLE = W.load_golden("oracle-sweep")


def _key(q, N):
    return (q.kind, q.m, q.n, N, q.label())


def _result(p) -> dict:
    """A check point as its golden entry records it."""
    got = {
        "maps": p.map_count,
        "orbits": p.orbit_count,
        "ok": p.ok,
        "oracle": [list(b) for b in p.oracle_buckets],
        "expected": [list(b) for b in p.expected_buckets],
    }
    return json.loads(json.dumps(got))


def test_check_points_in_golden_order():
    points = oracle.check_points(None, W.ORACLE_N_MAX)
    want = [
        (p["kind"], p["m"], p["n"], p["N"], p["quotient"])
        for p in (entry["point"] for entry in ORACLE)
    ]
    assert [_key(q, N) for q, N in points] == want


def test_check_point_matches_golden_up_to_48(sweep_48):
    """The session's N <= 48 sweep, point by point; the order is the golden's
    (see ``test_check_points_in_golden_order``)."""
    report, _ = sweep_48
    assert len(report.points) == len(ORACLE)
    checked = 0
    for p, entry in zip(report.points, ORACLE):
        point = entry["point"]
        want_key = (point["kind"], point["m"], point["n"], point["N"], point["quotient"])
        assert _key(p.quotient, p.N) == want_key
        assert _result(p) == entry["result"], point["quotient"]
        checked += 1
    assert checked == 1291


def test_check_point_matches_recorded_49_to_96():
    """Every point with 49 <= N <= 96, in sweep order, against
    ``oracle_sweep_49_96.json``: entries recorded in the golden format from
    the oracle that enumerated every smooth map by the full product search."""
    recorded = json.loads((Path(__file__).parent / "oracle_sweep_49_96.json").read_text())
    points = [(q, N) for q, N in oracle.check_points(None, 96) if N >= 49]
    assert len(points) == len(recorded) == 1793
    for (q, N), entry in zip(points, recorded):
        point = entry["point"]
        assert _key(q, N) == (point["kind"], point["m"], point["n"], point["N"], point["quotient"])
        assert _result(oracle.check_point(q, N)) == entry["result"], point["quotient"]


def test_bench_spans_wrap_existing_names():
    """``bench/run.py --trace 1`` wraps every name in ``spans.LAYERS``."""
    for layer, names in SPANS.LAYERS.items():
        module = importlib.import_module(f"necsurf.{layer}")
        for name in names:
            assert hasattr(module, name), f"necsurf.{layer}.{name}"


def test_bench_span_hooks_bind_existing_parameters():
    """The ``spans.Tracer`` hooks read these arguments by name under ``--trace 1``."""
    read = {"oracle.enumerate_smooth": {"q", "N"}, "oracle.orbit_count": {"maps", "moves", "N"}}
    hooks = SPANS.Tracer()._hooks()
    for name, params in read.items():
        assert name in hooks
        layer, fn = name.split(".")
        func = getattr(importlib.import_module(f"necsurf.{layer}"), fn)
        assert params <= set(inspect.signature(func).parameters), name


def _selftest_reached() -> dict:
    """``REACHED`` of ``bench/selftest.py``, read from its source (the script
    imports its neighbours as top-level modules)."""
    tree = ast.parse((_BENCH / "selftest.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["REACHED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/selftest.py defines no REACHED")


def test_bench_selftest_layers_are_reached(capsys):
    """Every function the bench selftest expects its tiny traced passes to
    reach (the ``.calls`` entries of ``REACHED``) gets a span on those inputs."""
    wanted = {
        name.removesuffix(".calls")
        for names in _selftest_reached().values()
        for name in names
        if name.endswith(".calls")
    }
    assert "signatures.kernel_algebraic_genus" in wanted
    catalog = importlib.import_module("necsurf.classify")
    cli = importlib.import_module("necsurf.cli")
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        for q, N in oracle.check_points(None, 10):
            oracle.check_point(q, N)
        for N in (2, 12, 60, 97):
            catalog.actions_for_order(N)
        assert cli.main(W.extremal_argv("min-genus", 15, "p+")) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans = Counter(tracer.names[i] for i in tracer.name_id)
    assert {name for name in wanted if not spans[name]} == set()


def test_presentation_of_serves_the_bench_candidate_count():
    """``worker.enumeration_candidates`` reads these three fields."""
    pres = presentation_of(QuotientType("d21", m=2, n=3))
    assert pres.free == ("x1", "x2", "c")
    assert pres.reflection_names == ("c",)
    assert pres.elliptic_orders == {"x1": 2, "x2": 3}
    pres = presentation_of(QuotientType("d2c-3m", m=4))
    assert pres.free == ("x1", "x2", "c0", "c1")
    assert pres.reflection_names == ("c0", "c1", "c2")
    assert pres.elliptic_orders == {"x1": 3, "x2": 4}
    assert presentation_of(QuotientType("d6")).elliptic_orders == {}


def test_enumerate_rows_match_golden(capsys):
    """Every recorded order: N = 2..2000, 2520 and 5040."""
    golden = W.load_golden("catalog-orders")
    assert len(golden) == 2001
    for N, digest in golden.items():
        assert main(["enumerate", "--N", N, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        assert W.rows_digest(rows) == digest, N


def test_enumerate_stdout_matches_recorded_order(capsys):
    """``enumerate --N <N> --format json`` stdout for N = 2..600, 720, 2520
    and 5040, digested as it is printed, so in row order, against
    ``enumerate_ordered_digests.json``.  The catalog golden sorts the rows
    (``rows_digest``), so this is the gate on the order of the sweep."""
    recorded = json.loads((Path(__file__).parent / "enumerate_ordered_digests.json").read_text())
    assert list(recorded) == [str(N) for N in [*range(2, 601), 720, 2520, 5040]]
    for N, digest in recorded.items():
        assert main(["enumerate", "--N", N, "--format", "json"]) == 0
        assert W.digest(capsys.readouterr().out) == digest, N


def test_extremal_queries_match_golden(capsys):
    """Every recorded query: min-genus for N = 2..600, max-order for p = 2..300."""
    golden = W.load_golden("extremal-cli")
    checked = 0
    for argv in W.extremal_domain():
        assert main(argv) == 0, argv
        assert W.digest(capsys.readouterr().out) == golden[W.argv_key(argv)], argv
        checked += 1
    assert checked == 4191
