"""Command-line behaviour: outputs, formats, exit codes."""

import concurrent.futures
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from necsurf import cli, extremal, oracle
from necsurf.classify import actions_for_order
from necsurf.cli import _dumps, main
from necsurf.signatures import QuotientType
from test_oracle import FakePool


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_table(capsys):
    code, out, _ = run(capsys, "classify", "ann1", "--N", "12", "--m", "12", "--k", "7",
                       "--orientable")
    assert code == 0
    assert "2 conjugacy class(es)" in out
    assert "genus-3" in out


def test_classify_not_exists_is_success(capsys):
    code, out, _ = run(capsys, "classify", "d6", "--N", "3")
    assert code == 0
    assert "does not exist" in out


def test_classify_six_corner_disc(capsys):
    code, out, _ = run(capsys, "classify", "d6", "--N", "2")
    assert code == 0
    assert "3-holed sphere" in out and "1 conjugacy class(es)" in out
    # the order is forced, so --N defaults to 2
    assert run(capsys, "classify", "d6") == (code, out, "")


def test_classify_forced_order(capsys):
    code, out, _ = run(capsys, "classify", "d12", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["N"] == 6
    assert payload["result"]["realizations"][0]["surface"] == "3-holed sphere"
    # an explicit mismatching order is a valid question with answer "no"
    code, out, _ = run(capsys, "classify", "d12", "--m", "3", "--N", "8", "--format", "json")
    assert code == 0 and json.loads(out)["result"]["exists"] is False


def test_classify_missing_argument(capsys):
    code, _, err = run(capsys, "classify", "mb1", "--m", "4")
    assert code == 2
    assert "requires" in err


def test_classify_rejects_bad_input(capsys):
    code, out, _ = run(capsys, "classify", "d12", "--m", "3", "--N", "0")
    assert code == 2 and not out
    for argv in (
        ("d6", "--N", "2", "--m", "5"),
        ("mb1", "--N", "8", "--m", "4", "--k", "4", "--orientable", "--n", "9"),
        ("d12", "--m", "3", "--k", "1"),
        ("d21", "--m", "2", "--n", "3", "--k", "1", "--non-orientable"),
    ):
        code, out, err = run(capsys, "classify", *argv)
        assert code == 2 and "does not take" in err and not out, argv


def test_classify_rejects_unordered_d21_cone_orders(capsys):
    code, out, err = run(capsys, "classify", "d21", "--m", "3", "--n", "2", "--k", "1")
    assert code == 2 and "m <= n" in err and not out


def test_bad_flag_usage(capsys):
    assert run(capsys, "classify", "nope", "--N", "2")[0] == 2
    assert run(capsys, "min-genus", "--N", "9", "--variant", "p+-")[0] == 2


def test_enumerate_order_two(capsys):
    code, out, _ = run(capsys, "enumerate", "--N", "2", "--format", "csv")
    assert code == 0
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) == 1 + 14  # header plus one row per realized surface
    code, out, _ = run(capsys, "enumerate", "--N", "6", "--format", "csv")
    assert code == 0
    assert out.count("ann2") == 4


def test_enumerate_no_corner_rows_for_odd_orders(capsys):
    code, out, _ = run(capsys, "enumerate", "--N", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert rows
    for row in rows:
        assert "(2,2)" not in row["signature"]


def test_enumerate_max_genus_filter(capsys):
    _, full, _ = run(capsys, "enumerate", "--N", "6", "--format", "json")
    _, cut, _ = run(capsys, "enumerate", "--N", "6", "--max-genus", "3", "--format", "json")
    all_rows = json.loads(full)["result"]["rows"]
    cut_rows = json.loads(cut)["result"]["rows"]
    assert len(cut_rows) < len(all_rows)
    assert all(r["algebraic_genus"] <= 3 for r in cut_rows)


def test_enumerate_max_genus_zero_keeps_no_rows(capsys):
    code, out, _ = run(capsys, "enumerate", "--N", "6", "--max-genus", "0", "--format", "json")
    result = json.loads(out)["result"]
    assert code == 0
    assert result["rows"] == [] and result["max_genus"] == 0


def test_enumerate_rejects_negative_max_genus(capsys):
    code, out, err = run(capsys, "enumerate", "--N", "6", "--max-genus", "-1")
    assert code == 2 and "--max-genus" in err and not out


def test_nineteen_digit_queries_answer_within_a_second():
    """Orders of 19 digits: 10^18 + 3 is prime, and max-order --p 10^18 + 2
    factors 2(p+1).  Each command answers, closed form and search alike, in
    under a second; a subprocess bounds the wait should factorising hang."""
    script = (
        "import contextlib, io, time\n"
        "from necsurf.cli import main\n"
        "for argv in (['enumerate', '--N', '1000000000000000003'],\n"
        "             ['min-genus', '--N', '1000000000000000003', '--variant', 'p'],\n"
        "             ['max-order', '--p', '1000000000000000002', '--variant', 'N++']):\n"
        "    start = time.perf_counter()\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code, time.perf_counter() - start)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    answers = [line.split() for line in out.splitlines()]
    assert [(name, code) for name, code, _ in answers] == [
        ("enumerate", "0"), ("min-genus", "0"), ("max-order", "0")]
    assert all(float(seconds) < 1.0 for *_, seconds in answers), answers


def test_orders_past_the_factorisation_bound_are_usage_errors(capsys, monkeypatch):
    """An order N, the order that --m/--n force when N is not given, or a genus
    p with 2(p+1), at or above the bound of exact factorisation exits 2 before
    any work; just below it, an answer comes."""
    from necsurf import cli
    from necsurf.zmod import FACTORIZE_BOUND

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    with monkeypatch.context() as patch:
        for name in ("actions_for_order", "classify"):
            patch.setattr(cli, name, no_work)
        for name in ("min_genus_closed", "min_genus_search", "max_order_closed", "max_order_search"):
            patch.setattr(extremal, name, no_work)
        half = FACTORIZE_BOUND // 2  # the bound is odd: 2(half + 1) is the bound plus one
        for argv, flag in (
            (("enumerate", "--N", str(FACTORIZE_BOUND)), "--N"),
            (("classify", "ann1", "--N", str(FACTORIZE_BOUND), "--m", "2", "--k", "1",
              "--orientable"), "--N"),
            (("min-genus", "--N", str(10**30)), "--N"),
            (("max-order", "--p", str(half)), "--p"),
            (("max-order", "--p", str(10**30)), "--p"),
            (("classify", "d21", "--m", str(10**25), "--n", str(10**25), "--k", "1"), "--m/--n"),
            (("classify", "d12", "--m", str(10**29)), "--m/--n"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and not out and f"{flag} must" in err and str(FACTORIZE_BOUND) in err, argv
    code, out, _ = run(capsys, "max-order", "--p", str(half - 1), "--variant", "N++", "--closed")
    assert code == 0 and out.rstrip().endswith(f"= {2 * (half - 1)}")  # p is odd: N++ is 2p
    code, out, _ = run(capsys, "enumerate", "--N", str(FACTORIZE_BOUND - 2), "--format", "json")
    assert code == 0 and json.loads(out)["result"]["rows"]
    code, out, _ = run(capsys, "classify", "d12", "--m", str(FACTORIZE_BOUND - 1))  # m even: N = m
    assert code == 0 and out.rstrip().endswith(f"N={FACTORIZE_BOUND - 1}")


def test_min_genus_both_match(capsys):
    code, out, _ = run(capsys, "min-genus", "--N", "15", "--variant", "p+")
    assert code == 0
    assert "= 8 [match]" in out


def test_max_order_both_match(capsys):
    code, out, _ = run(capsys, "max-order", "--p", "4")
    assert code == 0
    assert "= 10 [match]" in out


def test_json_output_is_stable(capsys):
    _, first, _ = run(capsys, "min-genus", "--N", "9", "--variant", "p+", "--format", "json")
    _, second, _ = run(capsys, "min-genus", "--N", "9", "--variant", "p+", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["version"] == "1"
    assert payload["result"]["verdict"] == "match"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "8")
    assert code == 0
    assert "all" in out and "agree" in out


def test_verify_subset_of_types(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "12", "--types", "mb1,ann1,d21")
    assert code == 0
    assert "agree" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["passed"] is True
    assert payload["result"]["points"]


# a d21 point, whose family has the full move set, and a d12 point, whose family has not
DROPPED = {("d21(2,3)", 6), ("d12(4)", 4)}
NOTE = "(proof-level move set (units + cycle rotation); discrepancy surfaced, not reconciled)"


def _drop_a_bucket(monkeypatch):
    """The closed form loses its first bucket at the points of ``DROPPED``."""
    buckets = oracle.classification_buckets

    def fewer(q, N):
        want = buckets(q, N)
        return dict(list(want.items())[1:]) if (q.label(), N) in DROPPED else want

    monkeypatch.setattr(oracle, "classification_buckets", fewer)


def test_verify_reports_mismatches(capsys, monkeypatch):
    _drop_a_bucket(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n-max", "6", "--types", "d21,d12")
    assert code == 1
    lines = out.splitlines()
    d21 = [line for line in lines if line.lstrip().startswith("d21(2,3) N=6")]
    d12 = [line for line in lines if line.lstrip().startswith("d12(4) N=4")]
    assert len(d21) == 1 and d21[0].endswith("MISMATCH")
    assert len(d12) == 1 and d12[0].endswith(f"MISMATCH {NOTE}")
    assert lines[2].startswith("verify: 2/13 MISMATCHES; first:") and lines[2].endswith(NOTE)
    assert "d12(4) N=4" in lines[2]
    assert lines[3:] == [
        "  oracle buckets:   (((False, None, 2), 1),)",
        "  expected buckets: ()",
    ]


def test_verify_json_reports_mismatches(capsys, monkeypatch):
    _drop_a_bucket(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n-max", "6", "--types", "d21,d12", "--format", "json")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["passed"] is False
    failed = {(p["quotient"], p["N"]) for p in result["points"] if p["ok"] is False}
    assert failed == DROPPED and len(result["points"]) == 13


def test_min_genus_reports_a_mismatch(capsys, monkeypatch):
    search = extremal.min_genus_search
    monkeypatch.setattr(extremal, "min_genus_search",
                        lambda N, variant: search(N, variant)._replace(value=N))
    code, out, _ = run(capsys, "min-genus", "--N", "12", "--both", "--format", "json")
    assert code == 1 and json.loads(out)["result"]["verdict"] == "MISMATCH"
    code, out, _ = run(capsys, "min-genus", "--N", "12", "--both")
    assert code == 1 and out.splitlines()[-1] == "-> min-genus[p](12) = 6 [MISMATCH]"


def test_max_order_reports_a_realizer_only_mismatch(capsys, monkeypatch):
    """Closed form and search agree on the value but not on the realizers."""
    search = extremal.max_order_search

    def one_fewer(p, variant):
        answer = search(p, variant)
        return answer._replace(realizers=answer.realizers[1:])

    monkeypatch.setattr(extremal, "max_order_search", one_fewer)
    code, out, _ = run(capsys, "max-order", "--p", "10", "--both", "--format", "json")
    result = json.loads(out)["result"]
    assert code == 1 and result["verdict"] == "MISMATCH"
    assert result["closed"]["value"] == result["search"]["value"] == 22
    code, out, _ = run(capsys, "max-order", "--p", "10", "--both")
    assert code == 1 and out.splitlines()[-1] == "-> max-order[N](10) = 22 [MISMATCH]"


def test_min_genus_verdict_sees_a_closed_point_dropped(capsys, monkeypatch):
    """The closed form names its realizing points and the search finds its own, so a
    point missing from the closed table is a mismatch of the realizers alone: at
    N = 12 the preserving minimum 6 has two points, d21(2,12) and d21(3,4)."""
    code, out, _ = run(capsys, "min-genus", "--N", "12", "--variant", "p++", "--both",
                       "--format", "json")
    result = json.loads(out)["result"]
    assert code == 0 and result["verdict"] == "match"
    assert [r["quotient"] for r in result["closed"]["realizers"]] == ["d21(2,12)", "d21(3,4)"]
    table = extremal._min_genus

    def first_point_only(N, variant):
        value, points = table(N, variant)
        return value, points[:1]

    monkeypatch.setattr(extremal, "_min_genus", first_point_only)
    code, out, _ = run(capsys, "min-genus", "--N", "12", "--variant", "p++", "--both",
                       "--format", "json")
    result = json.loads(out)["result"]
    assert code == 1 and result["verdict"] == "MISMATCH"
    assert result["closed"]["value"] == result["search"]["value"] == 6
    assert [r["quotient"] for r in result["closed"]["realizers"]] == ["d21(2,12)"]
    code, out, _ = run(capsys, "min-genus", "--N", "12", "--variant", "p++", "--both")
    assert code == 1 and out.splitlines()[-1] == "-> min-genus[p++](12) = 6 [MISMATCH]"


class Pair(NamedTuple):
    first: int
    second: object


DUMPS_RECORDS = [
    {},
    [],
    {"command": "enumerate", "result": {"N": 7, "rows": []}, "version": "1"},
    {"a": {}, "b": [], "c": [{}, [], [[], {}]], "d": {"e": {"f": []}}},
    {"rows": [{"N": 2, "quotient": "d6", "label": ""}, {"N": 3, "quotient": "mb1(3)"}],
     "nested": {"deeper": [{"deepest": [1, [2, [3, {"x": None}]]]}]}},
    {"buckets": [((True, None, 2), 1), ((False, False, 3), 2)], "pair": Pair(1, "two"),
     "pairs": [Pair(3, [4, (5,)]), Pair(6, {"seven": 7})], "tuple": ()},
    {"text": ['{"a": [1]}', 'say "hi"', "back\\slash", "new\nline\ttab",
              "caf\u00e9 \u2603 \U0001d11e"],
     "{key}": "\"quoted\"", "é": ["ü"]},
    {"none": None, "flags": [True, False, None], "big": [2**64, 2**64 + 1, -(2**100), 0]},
    [None, True, 2**65, "s", [], {}],
    {"keys": {1: "int", 2: ["coerced"]}, "bools": [{True: "yes", False: []}],
     "none": [{None: [0]}]},
    "a bare string",
    2**70,
    None,
]


@pytest.mark.parametrize("record", DUMPS_RECORDS)
def test_dumps_equals_json_dumps(record):
    assert _dumps(record) == json.dumps(record, sort_keys=True, indent=2)


@pytest.mark.parametrize("record", [
    {1, 2}, Fraction(1, 2), {"rows": [{"x": Fraction(1, 3)}]}, {"a": [{1, 2}], "b": []},
    [Pair(1, {2})], {"deep": {"key": {(1, 2): []}}},
])
def test_dumps_refuses_what_json_dumps_refuses(record):
    with pytest.raises(TypeError):
        json.dumps(record, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _dumps(record)


def test_json_commands_never_reach_the_pure_python_encoder(capsys, monkeypatch):
    """``json`` falls back to ``_make_iterencode`` wherever it cannot use its C
    encoder, as it does for any ``indent``."""
    def pure_python(*args, **kwargs):
        raise RuntimeError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python)
    for argv in (("classify", "ann1", "--N", "12", "--m", "12", "--k", "7", "--orientable"),
                 ("enumerate", "--N", "720"),
                 ("min-genus", "--N", "12", "--both"),
                 ("max-order", "--p", "10", "--both"),
                 ("verify", "--n-max", "6")):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["command"] == argv[0], argv


def test_each_quotient_is_rendered_once_per_command(capsys, monkeypatch):
    # the sweep is run first, as its d12 and d14 formulas read the signature too
    records = actions_for_order(720)
    monkeypatch.setattr(cli, "actions_for_order", lambda N: records)
    calls = []
    signature = QuotientType.signature

    def counted(q):
        calls.append(q)
        return signature(q)

    monkeypatch.setattr(QuotientType, "signature", counted)
    code, out, _ = run(capsys, "enumerate", "--N", "720", "--format", "json")
    rows = json.loads(out)["result"]["rows"]
    assert code == 0 and len(rows) == len(records) == 603
    assert len(calls) == len({row["quotient"] for row in rows}) == 131

    # closed form and search render their shared realizers' quotients once between them
    closed, search = extremal.min_genus_closed(12, "p"), extremal.min_genus_search(12, "p")
    monkeypatch.setattr(extremal, "min_genus_closed", lambda N, variant: closed)
    monkeypatch.setattr(extremal, "min_genus_search", lambda N, variant: search)
    calls.clear()
    code, out, _ = run(capsys, "min-genus", "--N", "12", "--both", "--format", "json")
    result = json.loads(out)["result"]
    assert code == 0 and result["verdict"] == "match"
    assert len(result["closed"]["realizers"]) == len(result["search"]["realizers"]) == 3
    assert sorted(calls) == sorted({r.quotient for r in closed.realizers + search.realizers})
    assert len(calls) == 3


def test_verify_rejects_bounds_before_any_work(capsys, monkeypatch):
    def no_point(q, N):
        raise AssertionError(f"check point {q} at N={N} ran")

    monkeypatch.setattr(oracle, "check_point", no_point)
    for n_max in (str(oracle.ORACLE_MAX_N + 1), "1"):
        code, out, err = run(capsys, "verify", "--n-max", n_max)
        assert code == 2 and "n_max" in err and not out, n_max


def test_verify_rejects_empty_types_before_any_work(capsys, monkeypatch):
    """Only a missing --types means every kind; an empty value is an error."""
    def no_point(q, N):
        raise AssertionError(f"check point {q} at N={N} ran")

    monkeypatch.setattr(oracle, "check_point", no_point)
    for types in ("", ","):
        code, out, err = run(capsys, "verify", "--n-max", "4", "--types", types)
        assert code == 2 and "kind" in err and not out, repr(types)


def test_verify_rejects_jobs_below_one_before_any_work(capsys, monkeypatch):
    def no_point(q, N):
        raise AssertionError(f"check point {q} at N={N} ran")

    monkeypatch.setattr(oracle, "check_point", no_point)
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--n-max", "4", "--jobs", jobs)
        assert code == 2 and "jobs" in err and not out, jobs


def test_verify_jobs_forks_no_more_workers_than_points(capsys, monkeypatch):
    """``verify --types d6 --n-max 4 --jobs 5000`` has 3 points and asks for a pool
    of 3; the executor is a serial fake, so no process starts."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    serial = run(capsys, "verify", "--types", "d6", "--n-max", "4", "--format", "json")
    assert FakePool.sizes == [] and serial[0] == 0
    assert run(capsys, "verify", "--types", "d6", "--n-max", "4", "--format", "json",
               "--jobs", "5000") == serial
    assert FakePool.sizes == [3]


def test_verify_rejects_csv_before_any_work(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(oracle, "cross_check", no_sweep)
    code, out, err = run(capsys, "verify", "--n-max", "3", "--format", "csv")
    assert code == 2 and "csv" in err and not out


def test_a_broken_pipe_off_stdout_is_not_a_closed_reader(capsys, monkeypatch):
    """Exit 141 is kept for a closed stdout; any other broken pipe stays an internal failure."""
    def broken_worker(*args, **kwargs):
        raise BrokenPipeError("a worker's pipe")

    monkeypatch.setattr(oracle, "cross_check", broken_worker)
    with pytest.raises(BrokenPipeError):
        main(["verify", "--n-max", "3"])


def test_python_dash_m_runs_the_cli():
    """``python -m necsurf`` is the ``necsurf`` command, exit codes included."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "necsurf", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run_module("classify", "d6")
    assert done.returncode == 0, done.stderr
    assert "3-holed sphere" in done.stdout
    done = run_module("enumerate", "--N", "1")
    assert done.returncode == 2
    assert "order >= 2" in done.stderr
    # a reader that stops after one line, as ``| head -1`` does; each format is
    # 160-750 kB, far more than a pipe holds, so the writes meet the closed pipe,
    # whether stdout is buffered or, under PYTHONUNBUFFERED, written through
    base = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    for fmt in ("table", "csv", "json"):
        for unbuffered in (None, "1"):
            run_env = base if unbuffered is None else dict(base, PYTHONUNBUFFERED=unbuffered)
            proc = subprocess.Popen(
                [sys.executable, "-m", "necsurf", "enumerate", "--N", "5040", "--format", fmt],
                env=run_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            assert proc.stdout.readline().strip()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert (fmt, unbuffered, proc.wait(timeout=60)) == (fmt, unbuffered, 141)
            assert "Traceback" not in err and "Error" not in err, (fmt, unbuffered, err)


def test_output_does_not_rest_on_assertions():
    """``python -O`` strips every ``assert``; the output must not change, so no
    assertion carries a result."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in (("verify", "--n-max", "16", "--format", "json"),
                 ("enumerate", "--N", "720", "--format", "json")):
        outputs = [
            subprocess.run([sys.executable, *flags, "-m", "necsurf", *argv], env=env,
                           capture_output=True, check=True, timeout=120).stdout
            for flags in ((), ("-O",))
        ]
        assert outputs[0] and outputs[0] == outputs[1], argv
