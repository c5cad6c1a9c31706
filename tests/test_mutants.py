"""The mutation gate's list (``tests/mutants.py``); running it is left to the gate itself."""

import ast

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
