"""Command-line behaviour: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from necsurf import oracle
from necsurf.cli import main


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
    # a reader that stops after one line, as ``| head -1`` does; the table is ~320 kB,
    # far more than a pipe holds, so the writes meet the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "necsurf", "enumerate", "--N", "5040"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("quotient")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Error" not in err, err
