"""The mutation gate: each seeded mutant of ``src/`` must fail the tests named for it.

Run ``python3 tests/mutants.py``.  It copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory and first runs every named
test on the unchanged copy: that control is a no-op mutant, and it must
survive, or a failing test would pass for a kill.  Then it applies one
mutant at a time, runs that mutant's node ids in the copy and puts the
file back.  Each mutant's run is limited to ``LIMIT_FACTOR`` times the
control's time, but never to less than ``LIMIT_FLOOR_S``; a mutant whose tests
run past the limit, as one that loops forever would, is killed and
reported as ``killed (timeout)``.  It exits 1 if the control is killed or
any mutant survives.
The repository is only read, and its ``src/`` is hashed before and after
to show it.  Bytecode is not written, so a restored file is never
shadowed by its mutant's ``.pyc``.  Standard library only;
``tests/test_mutants.py`` checks the list itself and the time limit.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: a mutant's tests may run this many times the control's time, and at least the floor
LIMIT_FACTOR = 10
LIMIT_FLOOR_S = 60.0
_VERDICTS = {"passed": "SURVIVED", "failed": "killed", "timeout": "killed (timeout)"}


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # node ids; the mutant is killed when one of them fails
    reason: str


MUTANTS = (
    Mutant(
        "swap-p++-p+-", "src/necsurf/extremal.py",
        '    "p++": (True, False),\n    "p+-": (True, True),\n',
        '    "p++": (True, True),\n    "p+-": (True, False),\n',
        ("tests/test_extremal.py::test_realizers_at_match_the_reference_chain",),
        "the demand table is the one place a variant's realizers are chosen",
    ),
    Mutant(
        "bucket-key-without-reversing", "src/necsurf/classify.py",
        "key = (surface.orientable, reversing, surface.boundary_count)",
        "key = (surface.orientable, surface.boundary_count)",
        ("tests/test_classify.py::test_buckets_shape",),
        "both sides of the oracle check share the key, so only a fixed shape sees it change",
    ),
    Mutant(
        "two-power-test", "src/necsurf/classify.py",
        "B > 2 and not B & (B - 1)",
        "B > 2 and not B & (B + 1)",
        ("tests/test_classify.py::test_d21_half_count_two_power_branch",),
        "the self-paired maps of a 2-power B change the paired count",
    ),
    Mutant(
        "pending-unit-not-one", "src/necsurf/oracle.py",
        "if not unit[v] & pending & ~one[v] and",
        "if not unit[v] & pending and",
        ("tests/test_oracle.py::test_enumerate_two_cone_disc",
         "tests/test_oracle.py::test_check_point_agreement"),
        "a canonical form's first unit at each prime is 1 mod p^a",
    ),
    Mutant(
        "mb1-even-count-halved", "src/necsurf/classify.py",
        "count = euler_phi(t) if N % 2 == 0",
        "count = _ceil_half(euler_phi(t)) if N % 2 == 0",
        ("tests/test_classify.py::test_mb1_non_orientable",),
        "non-orientable mb1 covers carry phi(t) classes at even N",
    ),
    Mutant(
        "d21-admits-odd-k", "src/necsurf/classify.py",
        "        if (k % 2 == 1) != odd_k_pass:\n            continue\n",
        "",
        ("tests/test_classify.py::test_d21",),
        "N even with N/t odd forces k even",
    ),
    Mutant(
        "orbit-named-by-last-member", "src/necsurf/oracle.py",
        "rep = bmap(maps[orbit[0]])",
        "rep = bmap(maps[orbit[-1]])",
        ("tests/test_oracle.py::test_orbits_are_named_by_their_first_canonical_form",),
        "each orbit is named by its first canonical form",
    ),
    Mutant(
        "import-numpy", "src/necsurf/zmod.py",
        "from collections import Counter\n",
        "from collections import Counter\nimport numpy  # noqa: F401\n",
        ("tests/test_zmod.py::test_package_is_stdlib_only_and_exact",),
        "the package is stdlib-only",
    ),
    Mutant(
        "true-division", "src/necsurf/classify.py",
        "return (x + 1) // 2",
        "return int((x + 1) / 2)",
        ("tests/test_zmod.py::test_package_is_stdlib_only_and_exact",),
        "the package computes in integers, with no true division",
    ),
    Mutant(
        "phi-inside-assert", "src/necsurf/oracle.py",
        "    phi = euler_phi(N)\n",
        "    assert (phi := euler_phi(N))\n",
        ("tests/test_cli.py::test_output_does_not_rest_on_assertions",),
        "python -O strips asserts, so no result may be computed in one",
    ),
    Mutant(
        "genus-at-wrong-order", "src/necsurf/bsk.py",
        "kernel_algebraic_genus(self.pres.signature, self.N)",
        "kernel_algebraic_genus(self.pres.signature, self.N + 1)",
        ("tests/test_bsk.py::test_compiled_invariants_match_map_based_reference",),
        "a compiled point's surfaces have the genus of its own order",
    ),
    Mutant(
        "copy-without-checked-make", "src/necsurf/zmod.py",
        "    @classmethod\n    def _make(cls, fields):\n        return cls(*fields)\n",
        "",
        ("tests/test_value_types.py::test_checks_hold_through_the_constructor_replace_and_make",),
        "a copy made by _make or _replace goes through the checks of __new__",
    ),
    Mutant(
        "drop-n12-d21-3-4", "src/necsurf/extremal.py",
        '(("d21", 2, N), ("d21", 3, 4)) if N == 12 else ',
        "",
        ("tests/test_extremal.py::test_min_genus_search_matches_closed",
         "tests/test_acceptance.py::test_criterion_5_extremal_closed_vs_search"),
        "at N = 12 two points attain the preserving minimum, and the search finds both",
    ),
    Mutant(
        "verdict-on-value-alone", "src/necsurf/cli.py",
        "same = (closed.value == search.value\n"
        "                and Counter(closed.realizers) == Counter(search.realizers))",
        "same = closed.value == search.value",
        ("tests/test_cli.py::test_min_genus_verdict_sees_a_closed_point_dropped",),
        "the verdict compares the closed points' realizers with the search's",
    ),
    Mutant(
        "max-order-walk-past-p", "src/necsurf/extremal.py",
        "max(p, 2) - 1, -1)",
        "max(p, 2) - 2, -1)",
        ("tests/test_extremal.py::test_max_order_search_walks_from_the_ceiling_down_to_p",),
        "the downward walk stops at the least order with N > p - 1",
    ),
    Mutant(
        "points-ignore-genus", "src/necsurf/signatures.py",
        " is not None and genus in (None, p)\n",
        " is not None\n",
        ("tests/test_classify.py::test_genus_sweep_equals_filtered_full_sweep",),
        "a family without cone orders keeps its one point only at its own genus",
    ),
    Mutant(
        "json-through-json-dumps", "src/necsurf/cli.py",
        "        print(_dumps(record))\n",
        '        print(__import__("json").dumps(record, sort_keys=True, indent=2))\n',
        ("tests/test_cli.py::test_json_commands_never_reach_the_pure_python_encoder",),
        "an indent turns off json's C encoder, so the record is written by _dumps",
    ),
    Mutant(
        "quotient-rendered-per-row", "src/necsurf/cli.py",
        "    found = names.get(q)\n",
        "    found = None\n",
        ("tests/test_cli.py::test_each_quotient_is_rendered_once_per_command",),
        "each quotient's label and signature are rendered once per command",
    ),
    Mutant(
        "d6-preserving", "src/necsurf/classify.py",
        "of_genus(True, p, 3), 1, reversing=True)",
        "of_genus(True, p, 3), 1, reversing=False)",
        ("tests/test_classify.py::test_d6",),
        "the one d6 class reverses orientation",
    ),
    Mutant(
        "ann2-orientable-at-even-half", "src/necsurf/classify.py",
        "    if (N // 2) % 2 == 1:\n        reals += [",
        "    if (N // 2) % 2 == 0:\n        reals += [",
        ("tests/test_classify.py::test_ann2",),
        "ann2 has orientable covers only for odd N/2",
    ),
    Mutant(
        "mb2-orientable-at-even-half", "src/necsurf/classify.py",
        "    if (N // 2) % 2 == 1:\n        reals.append(",
        "    if (N // 2) % 2 == 0:\n        reals.append(",
        ("tests/test_classify.py::test_mb2",),
        "mb2 has an orientable cover only for odd N/2",
    ),
    Mutant(
        "d12-boundary-of-d14", "src/necsurf/classify.py",
        "return _one_class_cover(q.m, p, N // 2)",
        "return _one_class_cover(q.m, p, N)",
        ("tests/test_classify.py::test_disc_corners",),
        "a d12 cover has N/2 boundary components",
    ),
    Mutant(
        "d14-boundary-of-d12", "src/necsurf/classify.py",
        "return _one_class_cover(q.m, p, N)\n",
        "return _one_class_cover(q.m, p, N // 2)\n",
        ("tests/test_classify.py::test_disc_corners",),
        "a d14 cover has N boundary components",
    ),
    Mutant(
        "d3-23m-3-one-class", "src/necsurf/classify.py",
        "{3: (1, 3), 4: (1,), 5: (1,)}",
        "{3: (1,), 4: (1,), 5: (1,)}",
        ("tests/test_classify.py::test_triangle",),
        "d3-23m(3) has two classes, with 1 and 3 boundary components",
    ),
    Mutant(
        "d3-22m-boundary-n-over-2", "src/necsurf/classify.py",
        "of_genus(True, p, N // q.m)",
        "of_genus(True, p, N // 2)",
        ("tests/test_classify.py::test_triangle",),
        "a d3-22m(m) cover has N/m boundary components",
    ),
    Mutant(
        "d2c-3m-3-one-class", "src/necsurf/classify.py",
        "{3: (True, 2), 4: (False, 1), 5: (True, 1)}",
        "{3: (True, 1), 4: (False, 1), 5: (True, 1)}",
        ("tests/test_classify.py::test_corner_pair",),
        "d2c-3m(3) has two classes",
    ),
    Mutant(
        "d2c-2m-boundary-n", "src/necsurf/classify.py",
        "    return [Realization(SurfaceTopology.of_genus(False, p, N // 2), 1)]\n",
        "    return [Realization(SurfaceTopology.of_genus(False, p, N), 1)]\n",
        ("tests/test_classify.py::test_corner_pair",),
        "a d2c-2m cover has N/2 boundary components",
    ),
    Mutant(
        "min-search-range-guard-loose", "src/necsurf/extremal.py",
        'assert N > value - 1, "catalog sweep',
        'assert N > value - 2, "catalog sweep',
        ("tests/test_extremal.py::test_min_genus_search_refuses_a_genus_past_the_range",),
        "the search answers only with N > p - 1, where the catalog is exhaustive",
    ),
    Mutant(
        "min-closed-range-guard-loose", "src/necsurf/extremal.py",
        'assert N > value - 1, "minimum outside',
        'assert N >= value - 1, "minimum outside',
        ("tests/test_extremal.py::test_min_genus_closed_refuses_a_genus_past_the_range",),
        "a closed minimum must satisfy N > p - 1",
    ),
    Mutant(
        "max-closed-range-guard-loose", "src/necsurf/extremal.py",
        'assert value > p - 1, "maximum outside',
        'assert value >= p - 1, "maximum outside',
        ("tests/test_extremal.py::test_max_order_closed_refuses_an_order_below_the_range",),
        "a closed maximum must satisfy N > p - 1",
    ),
    Mutant(
        "tuples-as-scalars", "src/necsurf/cli.py",
        "_CONTAINERS = (dict, list, tuple)",
        "_CONTAINERS = (dict, list)",
        ("tests/test_cli.py::test_dumps_equals_json_dumps",),
        "json writes a tuple as a list, so _dumps walks it as a container",
    ),
    Mutant(
        "reach-one-domain-late", "src/necsurf/oracle.py",
        "unreached = ~reach[pos + 1]",
        "unreached = ~reach[pos + 2]",
        ("tests/test_oracle.py::test_canonical_vectors_match_frozenset_reference",),
        "a choice is pruned by the primes the domains after it reach",
    ),
    Mutant(
        "reach-prune-dropped", "src/necsurf/oracle.py",
        "and not (rest := pending & ~unit[v]) & unreached",
        "and ((rest := pending & ~unit[v]) or True)",
        ("tests/test_oracle.py::test_canonical_vectors_match_frozenset_reference",),
        "no leaf of the search fails to generate Z_N",
    ),
)


def _digest(tree: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(tree.rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _outcome(copy: Path, tests, limit: float | None = None) -> str:
    """"passed" when every node id passes in the copy, else "failed"; "timeout"
    when the run takes more than ``limit`` seconds, and then its whole process
    group is killed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return "passed" if run.wait(timeout=limit) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        return "timeout"


def main() -> int:
    before = _digest(ROOT / "src")
    survived = []
    with tempfile.TemporaryDirectory(prefix="necsurf-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        start = time.perf_counter()
        control = _outcome(copy, sorted({t for m in MUTANTS for t in m.tests})) == "passed"
        control_s = time.perf_counter() - start
        limit = max(LIMIT_FLOOR_S, LIMIT_FACTOR * control_s)
        print(f"{'survived' if control else 'KILLED':>8}  control (no-op mutant)"
              f"  {control_s:.1f} s; each mutant may run {limit:.0f} s")
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text()
            assert text.count(m.old) == 1, f"{m.name}: old text is not once in {m.file}"
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                outcome = _outcome(copy, m.tests, limit)
            finally:
                path.write_text(text)
            print(f"{_VERDICTS[outcome]:>8}  {m.name}  {time.perf_counter() - start:.1f} s")
            if outcome == "passed":
                survived.append(m.name)
    assert _digest(ROOT / "src") == before, "src/ changed during the run"
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants killed; src/ untouched")
    return 0 if control and not survived else 1


if __name__ == "__main__":
    sys.exit(main())
