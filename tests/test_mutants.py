"""The mutation gate's list and its runner's outcomes (``tests/mutants.py``); running
the whole gate is left to the gate itself."""

import ast
import time

import mutants


def test_mutant_list_names_live_text_and_tests():
    """Each mutant has a unique name, changes its text, and that old text occurs exactly
    once in its file; each node id names a test function defined in its file."""
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    defined = {}
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.tests and m.reason, m.name
        assert (mutants.ROOT / m.file).read_text().count(m.old) == 1, m.name
        for node in m.tests:
            path, _, func = node.partition("::")
            if path not in defined:
                tree = ast.parse((mutants.ROOT / path).read_text())
                defined[path] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert func in defined[path], (m.name, node)


def test_runner_reports_pass_fail_and_a_run_past_its_limit(tmp_path):
    """On a temporary tree, a passing test is "passed", a failing one "failed", and
    one that sleeps past a small limit is stopped there and reported "timeout"."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tree.py").write_text(
        "import time\n\n\n"
        "def test_passes():\n    pass\n\n\n"
        "def test_fails():\n    assert False\n\n\n"
        "def test_sleeps():\n    time.sleep(60)\n"
    )
    assert mutants._outcome(tmp_path, ["tests/test_tree.py::test_passes"], 30) == "passed"
    assert mutants._outcome(tmp_path, ["tests/test_tree.py::test_fails"], 30) == "failed"
    start = time.perf_counter()
    assert mutants._outcome(tmp_path, ["tests/test_tree.py::test_sleeps"], 2) == "timeout"
    assert time.perf_counter() - start < 30
