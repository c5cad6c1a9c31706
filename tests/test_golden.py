"""The byte-identical output contract, checked against the benchmark goldens.

The golden files in ``bench/golden/`` were recorded once from the program;
these tests only read them.  A difference is a change of behaviour.
"""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

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


def test_verify_json_up_to_192_matches_recorded_md5(capsys):
    """The last step of the byte contract: ``verify --format json --n-max 192``,
    on a pool of two workers, prints exactly the recorded text."""
    assert main(["verify", "--format", "json", "--n-max", "192", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == "39e59a9efc9e5929cef8d27fa045fbc2"


@pytest.mark.parametrize("n_max, md5", [
    (48, "e96164b321c78643c61aa7e99073a3c7"),
    (96, "8b3f4db6b48f5b65b4dbcce8b57c44b6"),
])
def test_verify_json_up_to_48_and_96_matches_recorded_md5(capsys, n_max, md5):
    """The rest of the byte contract: serial ``verify --format json`` at
    ``--n-max`` 48 and 96 prints exactly the recorded text."""
    assert main(["verify", "--format", "json", "--n-max", str(n_max)]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == md5


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


_TEXT_QUERIES = [
    ["classify", "d6", "--N", "2"],
    ["classify", "d6", "--N", "3"],  # "(no realizations)" and its footer
    ["classify", "ann1", "--N", "12", "--m", "12", "--k", "7", "--orientable"],
    ["classify", "mb1", "--N", "8", "--m", "4", "--k", "4", "--orientable"],
    ["enumerate", "--N", "2"],
    ["enumerate", "--N", "12"],
    ["enumerate", "--N", "60"],
    ["enumerate", "--N", "6", "--max-genus", "0"],
    ["enumerate", "--N", "12", "--max-genus", "5"],
    ["enumerate", "--N", "6", "--max-genus", "-1"],  # a usage error: exit 2, empty stdout
    *(
        [*query, mode]
        for query in (
            ["min-genus", "--N", "15", "--variant", "p+"],
            ["min-genus", "--N", "12", "--variant", "p-"],
            ["max-order", "--p", "4"],
            ["max-order", "--p", "6", "--variant", "N+-"],
        )
        for mode in ("--closed", "--search", "--both")
    ),
    ["min-genus", "--N", "9", "--variant", "p+-", "--search"],  # an answer with no value
    ["min-genus", "--N", "9", "--variant", "p+-"],  # odd p+- has no closed form: exit 2
]
TEXT_ARGVS = [
    *([*argv, "--format", fmt] for argv in _TEXT_QUERIES for fmt in ("table", "csv")),
    ["verify", "--n-max", "12"],
    ["verify", "--n-max", "12", "--verbose"],
]


def test_table_and_csv_stdout_matches_recorded(capsys):
    """Table and CSV stdout and the exit code of every command, digested,
    against ``cli_text_digests.json``; the JSON goldens do not see these
    formats."""
    recorded = json.loads((Path(__file__).parent / "cli_text_digests.json").read_text())
    assert list(recorded) == [" ".join(argv) for argv in TEXT_ARGVS]
    for argv in TEXT_ARGVS:
        code = main(argv)
        got = {"exit": code, "stdout": W.digest(capsys.readouterr().out)}
        assert got == recorded[" ".join(argv)], argv


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


def test_bench_selftest_layers_are_reached(capsys, monkeypatch):
    """Every function the bench selftest expects its tiny traced passes to
    reach (the ``.calls`` entries of ``REACHED``) gets a span on those inputs,
    and the worker's per-layer metrics, which read the hooked arguments, are
    computed from them as under ``bench/run.py --trace 1``."""
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
    monkeypatch.syspath_prepend(str(_BENCH))  # the worker imports its neighbours by name
    worker = _load_bench("worker")
    metrics = tracer.metrics(worker.enumeration_candidates)
    maps = metrics["oracle.enumerate_smooth.maps"]
    assert 0 < maps <= metrics["oracle.enumerate_smooth.candidates"]
    assert maps == sum(len(oracle.enumerate_smooth(q, N)) for q, N in oracle.check_points(None, 10))
    assert 0 < metrics["oracle.orbit_count.orbits"] <= maps


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


_ENUMERATED: dict[str, tuple[str, str]] = {}


def _enumerate_digests(capsys, N: str) -> tuple[str, str]:
    """``enumerate --N <N> --format json`` stdout, digested as printed and by its
    rows (``rows_digest``).  Each N runs once per session, so both enumerate
    goldens read the orders they share from one run."""
    if N not in _ENUMERATED:
        assert main(["enumerate", "--N", N, "--format", "json"]) == 0
        out = capsys.readouterr().out
        _ENUMERATED[N] = W.digest(out), W.rows_digest(json.loads(out)["result"]["rows"])
    return _ENUMERATED[N]


def test_enumerate_rows_match_golden(capsys):
    """Every recorded order: N = 2..2000, 2520 and 5040."""
    golden = W.load_golden("catalog-orders")
    assert len(golden) == 2001
    for N, digest in golden.items():
        assert _enumerate_digests(capsys, N)[1] == digest, N


def test_enumerate_stdout_matches_recorded_order(capsys):
    """``enumerate --N <N> --format json`` stdout for N = 2..600, 720, 2520
    and 5040, digested as it is printed, so in row order, against
    ``enumerate_ordered_digests.json``.  The catalog golden sorts the rows
    (``rows_digest``), so this is the gate on the order of the sweep."""
    recorded = json.loads((Path(__file__).parent / "enumerate_ordered_digests.json").read_text())
    assert list(recorded) == [str(N) for N in [*range(2, 601), 720, 2520, 5040]]
    for N, digest in recorded.items():
        assert _enumerate_digests(capsys, N)[0] == digest, N


def test_extremal_queries_match_golden(capsys):
    """Every recorded query: min-genus for N = 2..600, max-order for p = 2..300."""
    golden = W.load_golden("extremal-cli")
    checked = 0
    for argv in W.extremal_domain():
        assert main(argv) == 0, argv
        assert W.digest(capsys.readouterr().out) == golden[W.argv_key(argv)], argv
        checked += 1
    assert checked == 4191
